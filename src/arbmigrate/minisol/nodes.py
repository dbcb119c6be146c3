"""AST node definitions for the MiniSol contract-language subset.

Every node carries a source span (byte offsets plus the 1-based line/column
of its first token).  Spans, like name-binding annotations, are excluded from
equality so two parses of the same text compare structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from typing import Iterator, NamedTuple, Union


class Span(NamedTuple):
    start: int
    end: int
    line: int
    column: int


EMPTY_SPAN = Span(0, 0, 0, 0)


@dataclass
class Node:
    """Base class for all AST nodes; every node takes its span as a keyword."""

    span: Span = field(default=EMPTY_SPAN, compare=False, repr=False, kw_only=True)


class BindingKind(Enum):
    STATE_VAR = "state_var"
    LOCAL = "local"
    PARAM = "param"
    FUNCTION = "function"
    CONTRACT = "contract"
    FREE = "free"


# --- types ---------------------------------------------------------------


@dataclass
class ElementaryType(Node):
    name: str  # uint256 | address | bool | string


@dataclass
class ArrayType(Node):
    base: "TypeName"
    length: int | None  # None = dynamic


@dataclass
class MappingType(Node):
    key: ElementaryType
    value: "TypeName"


TypeName = Union[ElementaryType, ArrayType, MappingType]


# --- expressions ----------------------------------------------------------


@dataclass
class NumberLit(Node):
    value: int


@dataclass
class HexLit(Node):
    value: int


@dataclass
class AddressLit(Node):
    value: int


@dataclass
class StringLit(Node):
    value: str


@dataclass
class BoolLit(Node):
    value: bool


@dataclass
class Ident(Node):
    name: str
    binding: BindingKind = field(default=BindingKind.FREE, compare=False, repr=False)


@dataclass
class MemberAccess(Node):
    obj: "Expr"
    member: str


@dataclass
class IndexAccess(Node):
    obj: "Expr"
    index: "Expr"


@dataclass
class CallExpr(Node):
    callee: "Expr"
    args: list["Expr"] = field(default_factory=list)


@dataclass
class UnaryExpr(Node):
    op: str  # ! or -
    operand: "Expr"


@dataclass
class BinaryExpr(Node):
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[
    NumberLit, HexLit, AddressLit, StringLit, BoolLit,
    Ident, MemberAccess, IndexAccess, CallExpr, UnaryExpr, BinaryExpr,
]


# --- statements -----------------------------------------------------------


@dataclass
class VarDeclStmt(Node):
    var_type: TypeName
    name: str
    location: str | None = None  # memory | calldata | storage
    initializer: Expr | None = None


@dataclass
class AssignStmt(Node):
    target: Expr
    op: str  # = += -= *= /= %=
    value: Expr


@dataclass
class IncDecStmt(Node):
    target: Expr
    op: str  # ++ or --


@dataclass
class RequireStmt(Node):
    condition: Expr
    message: StringLit | None = None


@dataclass
class IfStmt(Node):
    condition: Expr
    then_body: list["Stmt"] = field(default_factory=list)
    else_body: list["Stmt"] | None = None


@dataclass
class ForStmt(Node):
    init: "Stmt | None"
    condition: Expr | None
    post: "Stmt | None"
    body: list["Stmt"] = field(default_factory=list)


@dataclass
class WhileStmt(Node):
    condition: Expr
    body: list["Stmt"] = field(default_factory=list)


@dataclass
class EmitStmt(Node):
    call: CallExpr


@dataclass
class ReturnStmt(Node):
    value: Expr | None = None


@dataclass
class ExprStmt(Node):
    expression: Expr


Stmt = Union[
    VarDeclStmt, AssignStmt, IncDecStmt, RequireStmt, IfStmt,
    ForStmt, WhileStmt, EmitStmt, ReturnStmt, ExprStmt,
]


# --- declarations ---------------------------------------------------------


@dataclass
class Param(Node):
    var_type: TypeName
    name: str
    location: str | None = None


@dataclass
class StateVarDecl(Node):
    var_type: TypeName
    visibility: str | None
    name: str
    initializer: Expr | None = None


@dataclass
class FunctionDef(Node):
    name: str
    params: list[Param] = field(default_factory=list)
    visibility: str | None = None
    mutability: str | None = None  # payable | view | pure
    modifiers: list[str] = field(default_factory=list)
    returns: list[TypeName] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)


@dataclass
class ContractDef(Node):
    name: str
    members: list[StateVarDecl | FunctionDef] = field(default_factory=list)

    @property
    def state_vars(self) -> list[StateVarDecl]:
        return [m for m in self.members if isinstance(m, StateVarDecl)]

    @property
    def functions(self) -> list[FunctionDef]:
        return [m for m in self.members if isinstance(m, FunctionDef)]


@dataclass
class SourceUnit(Node):
    contracts: list[ContractDef] = field(default_factory=list)
    path: str = field(default="<source>", compare=False)
    source: str = field(default="", compare=False, repr=False)


@cache
def _child_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name != "span")


def children(node: Node) -> list[Node]:
    """Direct child nodes, in source order (field declaration order)."""
    out: list[Node] = []
    for name in _child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(item for item in value if isinstance(item, Node))
    return out


def walk(node: Node) -> Iterator[Node]:
    """The node itself and every descendant, pre-order; iterative, so any depth walks."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))
