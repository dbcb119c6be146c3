"""Canonical MiniSol rendering: 4-space indents, one statement per line,
minimal parentheses. Reparsing the output yields a structurally equal AST."""

from __future__ import annotations

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
    NumberLit,
    Param,
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
from .parser import BINARY_PRECEDENCE

_UNARY_PREC = 7
_POSTFIX_PREC = 8
_ATOM_PREC = 9


def _escape(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\t", "\\t")


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
        return hex(expr.value)
    if isinstance(expr, AddressLit):
        return f"0x{expr.value:040x}"
    if isinstance(expr, StringLit):
        return f'"{_escape(expr.value)}"'
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


def _print_param(p: Param) -> str:
    loc = f" {p.location}" if p.location else ""
    return f"{print_type(p.var_type)}{loc} {p.name}"


def _print_simple(stmt: Stmt) -> str:
    """Statement body without trailing ';' (used in for-loop headers)."""
    if isinstance(stmt, VarDeclStmt):
        loc = f" {stmt.location}" if stmt.location else ""
        text = f"{print_type(stmt.var_type)}{loc} {stmt.name}"
        if stmt.initializer is not None:
            text += f" = {print_expr(stmt.initializer)}"
        return text
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
        if stmt.message is not None:
            return [f"{pad}require({print_expr(stmt.condition)}, {print_expr(stmt.message)});"]
        return [f"{pad}require({print_expr(stmt.condition)});"]
    if isinstance(stmt, ReturnStmt):
        if stmt.value is None:
            return [f"{pad}return;"]
        return [f"{pad}return {print_expr(stmt.value)};"]
    if isinstance(stmt, EmitStmt):
        return [f"{pad}emit {print_expr(stmt.call)};"]
    if isinstance(stmt, IfStmt):
        lines = [f"{pad}if ({print_expr(stmt.condition)}) {{"]
        for inner in stmt.then_body:
            lines.extend(_print_stmt(inner, indent + 1))
        if stmt.else_body is None:
            lines.append(f"{pad}}}")
        elif len(stmt.else_body) == 1 and isinstance(stmt.else_body[0], IfStmt):
            chained = _print_stmt(stmt.else_body[0], indent)
            lines.append(f"{pad}}} else {chained[0].lstrip()}")
            lines.extend(chained[1:])
        else:
            lines.append(f"{pad}}} else {{")
            for inner in stmt.else_body:
                lines.extend(_print_stmt(inner, indent + 1))
            lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, ForStmt):
        init = _print_simple(stmt.init) if stmt.init is not None else ""
        cond = print_expr(stmt.condition) if stmt.condition is not None else ""
        post = _print_simple(stmt.post) if stmt.post is not None else ""
        lines = [f"{pad}for ({init}; {cond}; {post}) {{"]
        for inner in stmt.body:
            lines.extend(_print_stmt(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    if isinstance(stmt, WhileStmt):
        lines = [f"{pad}while ({print_expr(stmt.condition)}) {{"]
        for inner in stmt.body:
            lines.extend(_print_stmt(inner, indent + 1))
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"not a statement node: {stmt!r}")


def _print_function(fn: FunctionDef, indent: int) -> list[str]:
    pad = "    " * indent
    header = f"{pad}function {fn.name}({', '.join(_print_param(p) for p in fn.params)})"
    if fn.visibility:
        header += f" {fn.visibility}"
    if fn.mutability:
        header += f" {fn.mutability}"
    for mod in fn.modifiers:
        header += f" {mod}"
    if fn.returns:
        header += f" returns ({', '.join(print_type(t) for t in fn.returns)})"
    lines = [header + " {"]
    for stmt in fn.body:
        lines.extend(_print_stmt(stmt, indent + 1))
    lines.append(f"{pad}}}")
    return lines


def _print_state_var(var: StateVarDecl, indent: int) -> str:
    pad = "    " * indent
    text = f"{pad}{print_type(var.var_type)}"
    if var.visibility:
        text += f" {var.visibility}"
    text += f" {var.name}"
    if var.initializer is not None:
        text += f" = {print_expr(var.initializer)}"
    return text + ";"


def print_contract(contract: ContractDef) -> str:
    lines = [f"contract {contract.name} {{"]
    for member in contract.members:
        if isinstance(member, StateVarDecl):
            lines.append(_print_state_var(member, 1))
        else:
            lines.extend(_print_function(member, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_source(unit: SourceUnit) -> str:
    """Canonical text for a source unit; ends with a newline."""
    return "\n".join(print_contract(c) for c in unit.contracts)
