"""Canonical MiniSol rendering: 4-space indents, one member or statement per
line, `} else if` chains, minimal parentheses and the lexer's string escapes
(docs/minisol-grammar.md, "Canonical form"). Reparsing the output yields a
structurally equal AST. No command prints MiniSol: this is the tests' oracle,
and `reference_children` is their one listing of a node's children."""

from __future__ import annotations

from arbmigrate.minisol.nodes import (
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
    RequireStmt,
    ReturnStmt,
    SourceUnit,
    StateVarDecl,
    Stmt,
    StringLit,
    TypeName,
    UnaryExpr,
    VarDeclStmt,
    WhileStmt,
)
from arbmigrate.minisol.lexer import ESCAPES
from arbmigrate.minisol.parser import BINARY_PRECEDENCE

# The lexer's string escapes read backwards: each character that has an escape
# -> its escape.
_ESCAPED = str.maketrans({value: "\\" + key for key, value in ESCAPES.items()})

_UNARY_PREC = 7
_POSTFIX_PREC = 8
_ATOM_PREC = 9


def reference_children(node: Node) -> list[Node]:
    """Direct child nodes in field order, read from every field, not only those the class lists."""
    values = [getattr(node, name) for name in node._fields]
    return [item for value in values for item in (value if isinstance(value, list) else [value])
            if isinstance(item, Node)]


def escape_string(value: str) -> str:
    """Value -> literal text (with quotes); the inverse of lexer.unescape_string."""
    return '"' + value.translate(_ESCAPED) + '"'


def _prec(expr: Expr) -> int:
    if isinstance(expr, BinaryExpr):
        return BINARY_PRECEDENCE[expr.op]
    if isinstance(expr, UnaryExpr):
        return _UNARY_PREC
    if isinstance(expr, (MemberAccess, IndexAccess, CallExpr)):
        return _POSTFIX_PREC
    return _ATOM_PREC


def print_expr(expr: Expr) -> str:
    # Binary and postfix chains nest down their left operand (`x + x + x`,
    # `a[0][0]`, `a.b.c()`), so that spine is walked with a loop: each link
    # adds the text to the right of its left operand, and the innermost
    # operand is printed last, as the head.
    tails: list[str] = []
    while isinstance(expr, (BinaryExpr, MemberAccess, IndexAccess, CallExpr)):
        if isinstance(expr, BinaryExpr):
            prec = BINARY_PRECEDENCE[expr.op]
            # all binary ops are left-associative: an equal-precedence right
            # child needs parentheses to survive a round trip
            right = print_expr(expr.right)
            if _prec(expr.right) <= prec:
                right = f"({right})"
            tails.append(f" {expr.op} {right}")
            inner = expr.left
        else:
            prec = _POSTFIX_PREC
            if isinstance(expr, MemberAccess):
                tails.append(f".{expr.member}")
                inner = expr.obj
            elif isinstance(expr, IndexAccess):
                tails.append(f"[{print_expr(expr.index)}]")
                inner = expr.obj
            else:
                tails.append(f"({', '.join(print_expr(a) for a in expr.args)})")
                inner = expr.callee
        if _prec(inner) < prec:
            head = f"({print_expr(inner)})"
            break
        expr = inner
    else:
        head = _print_operand(expr)
    return head + "".join(reversed(tails))


def _print_operand(expr: Expr) -> str:
    """A literal, an identifier or a unary expression."""
    if isinstance(expr, NumberLit):
        return str(expr.value)
    if isinstance(expr, HexLit):
        digits = f"{expr.value:x}"
        return "0x0" + digits if len(digits) == 40 else "0x" + digits  # 40 digits are an address
    if isinstance(expr, AddressLit):
        return f"0x{expr.value:040x}"
    if isinstance(expr, StringLit):
        return escape_string(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, UnaryExpr):
        operand = print_expr(expr.operand)
        needs = _prec(expr.operand) < _UNARY_PREC or (
            # guard: '- -x' must not print as '--x'
            expr.op == "-"
            and isinstance(expr.operand, UnaryExpr)
            and expr.operand.op == "-"
        )
        return f"{expr.op}({operand})" if needs else f"{expr.op}{operand}"
    raise TypeError(f"not an expression node: {expr!r}")


def print_type(t: TypeName) -> str:
    if isinstance(t, ElementaryType):
        return t.name
    if isinstance(t, ArrayType):
        suffix = "[]" if t.length is None else f"[{t.length}]"
        return f"{print_type(t.base)}{suffix}"
    if isinstance(t, MappingType):
        return f"mapping({print_type(t.key)} => {print_type(t.value)})"
    raise TypeError(f"not a type node: {t!r}")


def _declaration(
    var_type: TypeName, qualifier: str | None, name: str, initializer: Expr | None = None
) -> str:
    """`type [qualifier] name [= initializer]`: a state variable, local or parameter."""
    text = print_type(var_type) + (f" {qualifier}" if qualifier else "") + f" {name}"
    return text if initializer is None else f"{text} = {print_expr(initializer)}"


def _braced(pad: str, head: str, body: list[Stmt], indent: int) -> list[str]:
    """`head {`, each statement of body one level deeper, then `}`."""
    lines = [f"{pad}{head} {{"]
    for stmt in body:
        lines.extend(_print_stmt(stmt, indent + 1))
    lines.append(f"{pad}}}")
    return lines


def _print_simple(stmt: Stmt) -> str:
    """Statement body without trailing ';' (used in for-loop headers)."""
    if isinstance(stmt, VarDeclStmt):
        return _declaration(stmt.var_type, stmt.location, stmt.name, stmt.initializer)
    if isinstance(stmt, AssignStmt):
        return f"{print_expr(stmt.target)} {stmt.op} {print_expr(stmt.value)}"
    if isinstance(stmt, IncDecStmt):
        return f"{print_expr(stmt.target)}{stmt.op}"
    if isinstance(stmt, ExprStmt):
        return print_expr(stmt.expression)
    raise TypeError(f"not a simple statement: {stmt!r}")


def _print_stmt(stmt: Stmt, indent: int) -> list[str]:
    pad = "    " * indent
    if isinstance(stmt, (VarDeclStmt, AssignStmt, IncDecStmt, ExprStmt)):
        return [f"{pad}{_print_simple(stmt)};"]
    if isinstance(stmt, RequireStmt):
        args = (print_expr(e) for e in (stmt.condition, stmt.message) if e is not None)
        return [f"{pad}require({', '.join(args)});"]
    if isinstance(stmt, ReturnStmt):
        value = "" if stmt.value is None else f" {print_expr(stmt.value)}"
        return [f"{pad}return{value};"]
    if isinstance(stmt, EmitStmt):
        return [f"{pad}emit {print_expr(stmt.call)};"]
    if isinstance(stmt, IfStmt):
        lines = _braced(pad, f"if ({print_expr(stmt.condition)})", stmt.then_body, indent)
        rest = stmt.else_body
        if rest is not None and len(rest) == 1 and isinstance(rest[0], IfStmt):
            chained = _print_stmt(rest[0], indent)
            lines[-1] = f"{pad}}} else {chained[0].lstrip()}"
            lines.extend(chained[1:])
        elif rest is not None:
            lines[-1:] = _braced(pad, "} else", rest, indent)
        return lines
    if isinstance(stmt, ForStmt):
        init = _print_simple(stmt.init) if stmt.init is not None else ""
        cond = print_expr(stmt.condition) if stmt.condition is not None else ""
        post = _print_simple(stmt.post) if stmt.post is not None else ""
        return _braced(pad, f"for ({init}; {cond}; {post})", stmt.body, indent)
    if isinstance(stmt, WhileStmt):
        return _braced(pad, f"while ({print_expr(stmt.condition)})", stmt.body, indent)
    raise TypeError(f"not a statement node: {stmt!r}")


def _print_function(fn: FunctionDef) -> list[str]:
    params = ", ".join(_declaration(p.var_type, p.location, p.name) for p in fn.params)
    parts = [f"function {fn.name}({params})", *filter(None, (fn.visibility, fn.mutability))]
    parts += fn.modifiers
    if fn.returns:
        parts.append(f"returns ({', '.join(map(print_type, fn.returns))})")
    return _braced("    ", " ".join(parts), fn.body, 1)


def print_contract(contract: ContractDef) -> str:
    lines = [f"contract {contract.name} {{"]
    for member in contract.members:
        if isinstance(member, StateVarDecl):
            decl = _declaration(member.var_type, member.visibility, member.name, member.initializer)
            lines.append(f"    {decl};")
        else:
            lines.extend(_print_function(member))
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_source(unit: SourceUnit) -> str:
    """Canonical text for a source unit; ends with a newline."""
    return "\n".join(print_contract(c) for c in unit.contracts)
