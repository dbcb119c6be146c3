"""AST node definitions for the MiniSol contract-language subset.

Every node is a record (``arbmigrate._record``, the base of the simulator
records too): a node class declares its fields once, in source order, as the
positional parameters of its ``__init__``, and ``==`` and repr read them.
Every node carries a source span, the byte offsets where its first token
starts and its last token ends (``LineIndex`` finds their line and column);
``span``, like a unit's ``path`` and ``source``, is keyword-only, so it is no
field and two parses of the same text compare structurally equal.  A list
defaults to a new one.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Union

from .._record import Record


Span = namedtuple("Span", "start end")


EMPTY_SPAN = Span(0, 0)  # a node built by hand, with no place in any source

# __init__ annotations of the fields that never hold a node
_SCALAR_ANNOTATIONS = frozenset(
    {"str", "int", "bool", "str | None", "int | None", "bool | None", "list[str] | None"}
)


class Node(Record):
    """Base class of all AST nodes: a record that knows which fields may hold nodes."""

    _child_fields: tuple[str, ...] = ()  # in field order
    parent: Node | None = None  # the node that holds this one, set by the parser or annotate_bindings

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        annotations = cls.__init__.__annotations__
        cls._child_fields = tuple(
            f for f in cls._fields if annotations.get(f) not in _SCALAR_ANNOTATIONS
        )


# --- types ---------------------------------------------------------------


class ElementaryType(Node):
    def __init__(self, name: str, *, span: Span = EMPTY_SPAN):  # uint256 | address | bool | string
        self.span, self.name = span, name


class ArrayType(Node):
    def __init__(self, base: TypeName, length: int | None, *, span: Span = EMPTY_SPAN):
        self.span, self.base, self.length = span, base, length  # length None = dynamic


class MappingType(Node):
    def __init__(self, key: ElementaryType, value: TypeName, *, span: Span = EMPTY_SPAN):
        self.span, self.key, self.value = span, key, value


TypeName = Union[ElementaryType, ArrayType, MappingType]


# --- expressions ----------------------------------------------------------


class NumberLit(Node):
    def __init__(self, value: int, *, span: Span = EMPTY_SPAN):
        self.span, self.value = span, value


class HexLit(Node):
    def __init__(self, value: int, *, span: Span = EMPTY_SPAN):
        self.span, self.value = span, value


class AddressLit(Node):
    def __init__(self, value: int, *, span: Span = EMPTY_SPAN):
        self.span, self.value = span, value


class StringLit(Node):
    def __init__(self, value: str, *, span: Span = EMPTY_SPAN):
        self.span, self.value = span, value


class BoolLit(Node):
    def __init__(self, value: bool, *, span: Span = EMPTY_SPAN):
        self.span, self.value = span, value


class Ident(Node):
    def __init__(self, name: str, *, span: Span = EMPTY_SPAN):
        self.span, self.name = span, name
        # the declaration named, set by the parser or annotate_bindings; None = free (msg, block)
        self.decl: VarDeclStmt | Param | StateVarDecl | FunctionDef | ContractDef | None = None


class MemberAccess(Node):
    def __init__(self, obj: Expr, member: str, *, span: Span = EMPTY_SPAN):
        self.span, self.obj, self.member = span, obj, member


class IndexAccess(Node):
    def __init__(self, obj: Expr, index: Expr, *, span: Span = EMPTY_SPAN):
        self.span, self.obj, self.index = span, obj, index


class CallExpr(Node):
    def __init__(self, callee: Expr, args: list[Expr] | None = None, *, span: Span = EMPTY_SPAN):
        self.span, self.callee = span, callee
        self.args = [] if args is None else args


class UnaryExpr(Node):
    def __init__(self, op: str, operand: Expr, *, span: Span = EMPTY_SPAN):  # op: ! or -
        self.span, self.op, self.operand = span, op, operand


class BinaryExpr(Node):
    def __init__(self, op: str, left: Expr, right: Expr, *, span: Span = EMPTY_SPAN):
        self.span, self.op, self.left, self.right = span, op, left, right


Expr = Union[
    NumberLit, HexLit, AddressLit, StringLit, BoolLit,
    Ident, MemberAccess, IndexAccess, CallExpr, UnaryExpr, BinaryExpr,
]


# --- statements -----------------------------------------------------------


class VarDeclStmt(Node):
    def __init__(self, var_type: TypeName, name: str, location: str | None = None,
                 initializer: Expr | None = None, *, span: Span = EMPTY_SPAN):
        self.span, self.var_type, self.name = span, var_type, name
        self.location, self.initializer = location, initializer  # memory | calldata | storage


class AssignStmt(Node):
    def __init__(self, target: Expr, op: str, value: Expr, *, span: Span = EMPTY_SPAN):
        self.span, self.target, self.op, self.value = span, target, op, value  # = += -= *= /= %=


class IncDecStmt(Node):
    def __init__(self, target: Expr, op: str, *, span: Span = EMPTY_SPAN):  # op: ++ or --
        self.span, self.target, self.op = span, target, op


class RequireStmt(Node):
    def __init__(self, condition: Expr, message: StringLit | None = None,
                 *, span: Span = EMPTY_SPAN):
        self.span, self.condition, self.message = span, condition, message


class IfStmt(Node):
    def __init__(self, condition: Expr, then_body: list[Stmt] | None = None,
                 else_body: list[Stmt] | None = None, *, span: Span = EMPTY_SPAN):
        self.span, self.condition = span, condition
        self.then_body = [] if then_body is None else then_body
        self.else_body = else_body  # None = no else branch


class ForStmt(Node):
    def __init__(self, init: Stmt | None, condition: Expr | None, post: Stmt | None,
                 body: list[Stmt] | None = None, *, span: Span = EMPTY_SPAN):
        self.span, self.init, self.condition, self.post = span, init, condition, post
        self.body = [] if body is None else body


class WhileStmt(Node):
    def __init__(self, condition: Expr, body: list[Stmt] | None = None, *, span: Span = EMPTY_SPAN):
        self.span, self.condition = span, condition
        self.body = [] if body is None else body


class EmitStmt(Node):
    def __init__(self, call: CallExpr, *, span: Span = EMPTY_SPAN):
        self.span, self.call = span, call


class ReturnStmt(Node):
    def __init__(self, value: Expr | None = None, *, span: Span = EMPTY_SPAN):
        self.span, self.value = span, value


class ExprStmt(Node):
    def __init__(self, expression: Expr, *, span: Span = EMPTY_SPAN):
        self.span, self.expression = span, expression


Stmt = Union[
    VarDeclStmt, AssignStmt, IncDecStmt, RequireStmt, IfStmt,
    ForStmt, WhileStmt, EmitStmt, ReturnStmt, ExprStmt,
]


# --- declarations ---------------------------------------------------------


class Param(Node):
    def __init__(self, var_type: TypeName, name: str, location: str | None = None,
                 *, span: Span = EMPTY_SPAN):
        self.span, self.var_type, self.name, self.location = span, var_type, name, location


class StateVarDecl(Node):
    def __init__(self, var_type: TypeName, visibility: str | None, name: str,
                 initializer: Expr | None = None, *, span: Span = EMPTY_SPAN):
        self.span, self.var_type, self.visibility = span, var_type, visibility
        self.name, self.initializer = name, initializer


class FunctionDef(Node):
    def __init__(self, name: str, params: list[Param] | None = None, visibility: str | None = None,
                 mutability: str | None = None, modifiers: list[str] | None = None,
                 returns: list[TypeName] | None = None, body: list[Stmt] | None = None,
                 *, span: Span = EMPTY_SPAN):
        self.span, self.name = span, name
        self.params = [] if params is None else params
        self.visibility, self.mutability = visibility, mutability  # payable | view | pure
        self.modifiers = [] if modifiers is None else modifiers
        self.returns = [] if returns is None else returns
        self.body = [] if body is None else body


class ContractDef(Node):
    def __init__(self, name: str, members: list[StateVarDecl | FunctionDef] | None = None,
                 *, span: Span = EMPTY_SPAN):
        self.span, self.name = span, name
        self.members = [] if members is None else members

    @property
    def state_vars(self) -> list[StateVarDecl]:
        return [m for m in self.members if isinstance(m, StateVarDecl)]

    @property
    def functions(self) -> list[FunctionDef]:
        return [m for m in self.members if isinstance(m, FunctionDef)]


class SourceUnit(Node):
    def __init__(self, contracts: list[ContractDef] | None = None, *, path: str = "<source>",
                 source: str = "", span: Span = EMPTY_SPAN):
        self.span, self.path, self.source = span, path, source
        self.contracts = [] if contracts is None else contracts
        # every node filed under its exact type, each list in pre-order, its holders up its
        # parent links; set by the parser or annotate_bindings, None = unbound (analyze raises)
        self.index: dict[type, list[Node]] | None = None


def walk(node: Node) -> Iterator[Node]:
    """The node itself and every descendant, pre-order; iterative, so any depth walks."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        for name in reversed(node._child_fields):
            value = getattr(node, name)
            stack.extend(reversed(value) if value.__class__ is list else () if value is None else (value,))
