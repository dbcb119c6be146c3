"""MiniSol: lexer, parser, AST, and canonical printer for the contract-language
subset the rule engine analyzes. The grammar is documented in
docs/minisol-grammar.md (MiniSol grammar v1)."""

from .lexer import (
    Diagnostic,
    LineIndex,
    MiniSolSyntaxError,
    TokenKind,
    Tokens,
    tokenize,
)
from .nodes import (
    AddressLit,
    ArrayType,
    AssignStmt,
    BinaryExpr,
    BoolLit,
    CallExpr,
    ContractDef,
    ElementaryType,
    EmitStmt,
    Expr,
    ExprStmt,
    ForStmt,
    FunctionDef,
    HexLit,
    Ident,
    IfStmt,
    IncDecStmt,
    IndexAccess,
    MappingType,
    MemberAccess,
    Node,
    NumberLit,
    Param,
    RequireStmt,
    ReturnStmt,
    SourceUnit,
    Span,
    StateVarDecl,
    Stmt,
    StringLit,
    TypeName,
    UnaryExpr,
    VarDeclStmt,
    WhileStmt,
    children,
    walk,
)
from .parser import annotate_bindings, parse_source, parse_tokens
from .printer import print_contract, print_expr, print_source, print_type

GRAMMAR_VERSION = "1"

__all__ = [
    "AddressLit", "ArrayType", "AssignStmt", "BinaryExpr", "BoolLit", "CallExpr",
    "ContractDef", "Diagnostic", "ElementaryType", "EmitStmt", "Expr", "ExprStmt",
    "ForStmt", "FunctionDef", "GRAMMAR_VERSION", "HexLit", "Ident", "IfStmt",
    "IncDecStmt", "IndexAccess", "LineIndex", "MappingType", "MemberAccess", "MiniSolSyntaxError",
    "Node", "NumberLit", "Param", "RequireStmt", "ReturnStmt", "SourceUnit",
    "Span", "StateVarDecl", "Stmt", "StringLit", "TokenKind", "Tokens",
    "TypeName", "UnaryExpr", "VarDeclStmt", "WhileStmt", "annotate_bindings",
    "children", "parse_source", "parse_tokens", "print_contract", "print_expr",
    "print_source", "print_type", "tokenize", "walk",
]
