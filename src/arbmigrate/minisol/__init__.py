"""MiniSol: lexer, parser and AST for the contract-language subset the rule
engine analyzes. The grammar is documented in docs/minisol-grammar.md
(MiniSol grammar v1)."""

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
    walk,
)
from .parser import annotate_bindings, parse_source, unbind

GRAMMAR_VERSION = "2"

__all__ = [
    "AddressLit", "ArrayType", "AssignStmt", "BinaryExpr", "BoolLit", "CallExpr",
    "ContractDef", "Diagnostic", "ElementaryType", "EmitStmt", "Expr", "ExprStmt",
    "ForStmt", "FunctionDef", "GRAMMAR_VERSION", "HexLit", "Ident", "IfStmt",
    "IncDecStmt", "IndexAccess", "LineIndex", "MappingType", "MemberAccess", "MiniSolSyntaxError",
    "Node", "NumberLit", "Param", "RequireStmt", "ReturnStmt", "SourceUnit",
    "Span", "StateVarDecl", "Stmt", "StringLit", "TokenKind", "Tokens",
    "TypeName", "UnaryExpr", "VarDeclStmt", "WhileStmt", "annotate_bindings",
    "parse_source", "tokenize", "unbind", "walk",
]
