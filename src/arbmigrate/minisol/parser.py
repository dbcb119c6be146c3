"""Recursive-descent parser for MiniSol.

Anything outside the declared grammar is rejected with an "unsupported
construct" diagnostic rather than silently misparsed, and a name declared
twice in one scope gets a "duplicate declaration" diagnostic.  Inside
function bodies the parser recovers at statement boundaries so one bad
statement does not hide later errors; in strict mode (the default and only
mode) no partial AST escapes — if any diagnostic was recorded,
:class:`MiniSolSyntaxError` is raised carrying all of them.
"""

from __future__ import annotations

from collections import defaultdict

from .lexer import (
    Diagnostic,
    MiniSolSyntaxError,
    Token,
    TokenKind,
    tokenize,
    unescape_string,
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
)

ELEMENTARY_TYPES = ("uint256", "uint", "address", "bool", "string")
_TYPE_START = frozenset(ELEMENTARY_TYPES) | {"mapping"}
_VISIBILITY = ("public", "private", "internal", "external")
_MUTABILITY = ("payable", "view", "pure")
_LOCATIONS = ("memory", "calldata", "storage")
# Type keywords usable as conversion callees, e.g. payable(x) or address(0).
_CAST_KEYWORDS = frozenset({"address", "payable", "uint256", "uint", "bool", "string"})

BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%="})

# Deepest nesting of statements and operands the parser accepts.  Each level
# costs at most twelve Python frames, so any input stays inside the default
# recursion limit of 1000; deeper input gets a diagnostic.
MAX_NESTING = 64


class _ParseFailure(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def _nested(parse):
    """Count one nesting level around a recursive grammar method."""

    def method(self: "_Parser"):
        if self.depth >= MAX_NESTING:
            raise self._fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse(self)
        finally:
            self.depth -= 1

    return method


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        # An end-of-input sentinel (kind None, text "") where the last token
        # ends, so the helpers below index self.tokens[self.pos] unchecked.
        last = tokens[-1] if tokens else Token(None, "", 1, 1, 0)
        end = len(last.text)
        self.tokens = [*tokens, Token(None, "", last.line, last.column + end, last.offset + end)]
        self.source = source
        self.pos = 0
        self.depth = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token helpers ---------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def _at_end(self) -> bool:
        return self.tokens[self.pos].kind is None

    def _here(self) -> tuple[int, int]:
        tok = self.tokens[self.pos]
        return tok.line, tok.column

    def _fail(self, message: str) -> _ParseFailure:
        line, col = self._here()
        return _ParseFailure(Diagnostic(message, line, col))

    def _check(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def _check_kind(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def _current(self) -> Token:
        """The next token, not consumed; a syntax error at the end of input."""
        tok = self.tokens[self.pos]
        if tok.kind is None:
            raise self._fail("unexpected end of input")
        return tok

    def _advance(self) -> Token:
        # every caller has matched the token's text or kind, so it is not the sentinel
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _accept(self, text: str) -> Token | None:
        if self._check(text):
            return self._advance()
        return None

    def _expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise self._fail(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        self.pos += 1
        return tok

    def _expect_identifier(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.IDENTIFIER:
            raise self._fail(f"expected {what}, found {tok.text or 'end of input'!r}")
        self.pos += 1
        return tok

    def _span_from(self, start_tok: Token, end_tok: Token) -> Span:
        end = end_tok.offset + len(end_tok.text)
        return Span(start_tok.offset, end, start_tok.line, start_tok.column)

    def _declare(self, names: set[str], decl):
        """Note decl's name in a scope; a second declaration there is a diagnostic."""
        if decl.name in names:
            message = f"duplicate declaration of {decl.name!r}"
            self.diagnostics.append(Diagnostic(message, decl.span.line, decl.span.column))
        names.add(decl.name)
        return decl

    def _prev(self) -> Token:
        return self.tokens[self.pos - 1]

    def _node_span(self, start_tok: Token) -> Span:
        return self._span_from(start_tok, self._prev())

    # -- recovery --------------------------------------------------------

    def _sync_statement(self) -> None:
        """Skip to just past the next ';' (or stop before '}' / end)."""
        depth = 0
        while not self._at_end():
            text = self.tokens[self.pos].text
            if text == "{":
                depth += 1
            elif text == "}":
                if depth == 0:
                    return
                depth -= 1
            elif text == ";" and depth == 0:
                self.pos += 1
                return
            self.pos += 1

    # -- grammar ---------------------------------------------------------

    def parse_unit(self, path: str) -> SourceUnit:
        contracts: list[ContractDef] = []
        names: set[str] = set()  # contract names are one unit-level scope
        first = self._peek()
        while not self._at_end():
            try:
                contracts.append(self._declare(names, self.parse_contract()))
            except _ParseFailure as failure:
                self.diagnostics.append(failure.diagnostic)
                self._sync_statement()
                # the sync stops before a stray '}', which no contract can start
                self._accept("}")
        span = self._span_from(first, self._prev()) if self.pos > 0 else Span(0, 0, 1, 1)
        return SourceUnit(contracts=contracts, path=path, source=self.source, span=span)

    def parse_contract(self) -> ContractDef:
        start = self._expect("contract")
        name = self._expect_identifier("contract name")
        self._expect("{")
        members: list[StateVarDecl | FunctionDef] = []
        names: set[str] = set()  # state variables and functions share one scope
        while not self._check("}"):
            if self._at_end():
                raise self._fail("expected '}'")
            try:
                members.append(self._declare(names, self.parse_member()))
            except _ParseFailure as failure:
                self.diagnostics.append(failure.diagnostic)
                self._sync_statement()
        self._expect("}")
        return ContractDef(name=name.text, members=members, span=self._node_span(start))

    def parse_member(self) -> StateVarDecl | FunctionDef:
        tok = self._peek()
        if tok.text == "function":
            return self.parse_function()
        if tok.text in _TYPE_START:
            return self.parse_state_var()
        raise self._fail(
            f"unsupported construct at {tok.text!r}: contracts may only contain "
            "state variables and functions"
        )

    def parse_state_var(self) -> StateVarDecl:
        start = self._current()
        var_type = self.parse_typename()
        visibility = None
        if self._peek().text in _VISIBILITY:
            visibility = self._advance().text
        name = self._expect_identifier("state variable name")
        initializer = None
        if self._accept("="):
            initializer = self.parse_expression()
        self._expect(";")
        return StateVarDecl(
            var_type=var_type,
            visibility=visibility,
            name=name.text,
            initializer=initializer,
            span=self._node_span(start),
        )

    def parse_function(self) -> FunctionDef:
        start = self._expect("function")
        name = self._expect_identifier("function name")
        self._expect("(")
        params: list[Param] = []
        names: set[str] = set()
        if not self._check(")"):
            params.append(self._declare(names, self.parse_param()))
            while self._accept(","):
                params.append(self._declare(names, self.parse_param()))
        self._expect(")")

        visibility: str | None = None
        mutability: str | None = None
        modifiers: list[str] = []
        returns: list[TypeName] = []
        while True:
            tok = self._peek()
            if tok.text in _VISIBILITY:
                if visibility is not None:
                    raise self._fail(f"duplicate visibility {tok.text!r}")
                visibility = self._advance().text
            elif tok.text in _MUTABILITY:
                if mutability is not None:
                    raise self._fail(f"duplicate mutability {tok.text!r}")
                mutability = self._advance().text
            elif tok.text == "returns":
                self._advance()
                self._expect("(")
                returns.append(self.parse_typename())
                while self._accept(","):
                    returns.append(self.parse_typename())
                self._expect(")")
            elif tok.kind is TokenKind.IDENTIFIER:
                modifiers.append(self._advance().text)
            elif tok.text == "{":
                break
            elif tok.kind is None:
                raise self._fail("expected function body")
            else:
                raise self._fail(
                    f"unsupported construct in function header: {tok.text!r}"
                )
        body = self.parse_block()
        return FunctionDef(
            name=name.text,
            params=params,
            visibility=visibility,
            mutability=mutability,
            modifiers=modifiers,
            returns=returns,
            body=body,
            span=self._node_span(start),
        )

    def parse_param(self) -> Param:
        start = self._current()
        var_type = self.parse_typename()
        location = None
        if self._peek().text in _LOCATIONS:
            location = self._advance().text
        name = self._expect_identifier("parameter name")
        return Param(
            var_type=var_type,
            name=name.text,
            location=location,
            span=self._node_span(start),
        )

    def parse_typename(self, allow_mapping: bool = True) -> TypeName:
        tok = self._peek()
        if tok.text == "mapping":
            if not allow_mapping:
                raise self._fail("unsupported construct: nested mappings (single level only)")
            start = self._advance()
            self._expect("(")
            key = self.parse_elementary()
            self._expect("=>")
            value = self.parse_typename(allow_mapping=False)
            self._expect(")")
            return MappingType(key=key, value=value, span=self._node_span(start))
        if tok.kind is None:
            raise self._fail("expected type")
        base: TypeName = self.parse_elementary()
        if self._check("["):
            start_tok = self._advance()
            length: int | None = None
            if self._check_kind(TokenKind.NUMBER):
                length = int(self._advance().text)
            self._expect("]")
            base = ArrayType(
                base=base,
                length=length,
                span=Span(
                    base.span.start,
                    self._prev().offset + 1,
                    base.span.line,
                    base.span.column,
                ),
            )
            if self._check("["):
                raise self._fail("unsupported construct: nested arrays")
        return base

    def parse_elementary(self) -> ElementaryType:
        tok = self._peek()
        if tok.text not in ELEMENTARY_TYPES:
            raise self._fail(f"expected elementary type, found {tok.text or 'end of input'!r}")
        self._advance()
        name = "uint256" if tok.text == "uint" else tok.text
        return ElementaryType(name=name, span=self._span_from(tok, tok))

    # -- statements -------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self._expect("{")
        stmts: list[Stmt] = []
        names: set[str] = set()  # this block's locals
        while not self._check("}"):
            if self._at_end():
                raise self._fail("expected '}'")
            try:
                stmt = self.parse_statement()
                stmts.append(self._declare(names, stmt) if isinstance(stmt, VarDeclStmt) else stmt)
            except _ParseFailure as failure:
                self.diagnostics.append(failure.diagnostic)
                self._sync_statement()
        self._expect("}")
        return stmts

    def _body_or_single(self) -> list[Stmt]:
        if self._check("{"):
            return self.parse_block()
        return [self.parse_statement()]

    @_nested
    def parse_statement(self) -> Stmt:
        tok = self._peek()
        text = tok.text
        if text in _TYPE_START:
            return self.parse_var_decl()
        if text == "require":
            return self.parse_require()
        if text == "if":
            return self.parse_if()
        if text == "for":
            return self.parse_for()
        if text == "while":
            return self.parse_while()
        if text == "emit":
            return self.parse_emit()
        if text == "return":
            start = self._advance()
            value = None if self._check(";") else self.parse_expression()
            self._expect(";")
            return ReturnStmt(value=value, span=self._node_span(start))
        if text in {"contract", "function"}:
            raise self._fail(f"unsupported construct: {text!r} inside a function body")
        if tok.kind is None:
            raise self._fail("expected statement")
        stmt = self.parse_simple_statement()
        self._expect(";")
        start_offset = stmt.span.start
        stmt.span = Span(start_offset, self._prev().offset + 1, stmt.span.line, stmt.span.column)
        return stmt

    def parse_var_decl(self) -> VarDeclStmt:
        start = self._current()
        if start.text == "mapping":
            raise self._fail("unsupported construct: mapping variables must be state variables")
        var_type = self.parse_typename(allow_mapping=False)
        location = None
        if self._peek().text in _LOCATIONS:
            location = self._advance().text
        name = self._expect_identifier("variable name")
        initializer = None
        if self._accept("="):
            initializer = self.parse_expression()
        self._expect(";")
        return VarDeclStmt(
            var_type=var_type,
            name=name.text,
            location=location,
            initializer=initializer,
            span=self._node_span(start),
        )

    def parse_require(self) -> RequireStmt:
        start = self._expect("require")
        self._expect("(")
        condition = self.parse_expression()
        message = None
        if self._accept(","):
            tok = self._peek()
            if tok.kind is not TokenKind.STRING:
                raise self._fail("require message must be a string literal")
            self._advance()
            message = StringLit(value=unescape_string(tok.text), span=self._span_from(tok, tok))
        self._expect(")")
        self._expect(";")
        return RequireStmt(condition=condition, message=message, span=self._node_span(start))

    def parse_if(self) -> IfStmt:
        start = self._expect("if")
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        then_body = self._body_or_single()
        else_body: list[Stmt] | None = None
        if self._accept("else"):
            else_body = self._body_or_single()
        return IfStmt(
            condition=condition,
            then_body=then_body,
            else_body=else_body,
            span=self._node_span(start),
        )

    def parse_for(self) -> ForStmt:
        start = self._expect("for")
        self._expect("(")
        init: Stmt | None = None
        if self._accept(";"):
            pass
        elif self._peek().text in _TYPE_START:
            init = self.parse_var_decl()  # consumes its ';'
        else:
            init = self.parse_simple_statement()
            self._expect(";")
        condition = None if self._check(";") else self.parse_expression()
        self._expect(";")
        post: Stmt | None = None
        if not self._check(")"):
            post = self.parse_simple_statement()
        self._expect(")")
        body = self._body_or_single()
        return ForStmt(
            init=init, condition=condition, post=post, body=body, span=self._node_span(start)
        )

    def parse_while(self) -> WhileStmt:
        start = self._expect("while")
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        body = self._body_or_single()
        return WhileStmt(condition=condition, body=body, span=self._node_span(start))

    def parse_emit(self) -> EmitStmt:
        start = self._expect("emit")
        expr = self.parse_postfix()
        if not isinstance(expr, CallExpr):
            raise self._fail("emit expects an event call")
        self._expect(";")
        return EmitStmt(call=expr, span=self._node_span(start))

    def parse_simple_statement(self) -> Stmt:
        """Assignment, increment/decrement, or bare expression (no ';')."""
        start = self._current()
        expr = self.parse_expression()
        tok = self._peek()
        if tok.text in _ASSIGN_OPS:
            if not isinstance(expr, (Ident, MemberAccess, IndexAccess)):
                raise self._fail(f"cannot assign to this expression with {tok.text!r}")
            op = self._advance().text
            value = self.parse_expression()
            return AssignStmt(
                target=expr, op=op, value=value, span=self._node_span(start)
            )
        if tok.text in {"++", "--"}:
            if not isinstance(expr, (Ident, MemberAccess, IndexAccess)):
                raise self._fail(f"cannot apply {tok.text!r} to this expression")
            op = self._advance().text
            return IncDecStmt(target=expr, op=op, span=self._node_span(start))
        return ExprStmt(expression=expr, span=self._node_span(start))

    # -- expressions ------------------------------------------------------

    def parse_expression(self) -> Expr:
        return self.parse_binary(1)

    def parse_binary(self, min_prec: int) -> Expr:
        left = self.parse_unary()
        while True:
            prec = BINARY_PRECEDENCE.get(self._peek().text)
            if prec is None or prec < min_prec:
                return left
            op = self._advance().text
            right = self.parse_binary(prec + 1)
            left = BinaryExpr(
                op=op,
                left=left,
                right=right,
                span=Span(left.span.start, right.span.end, left.span.line, left.span.column),
            )

    @_nested
    def parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.text in {"!", "-"}:
            start = self._advance()
            operand = self.parse_unary()
            return UnaryExpr(
                op=start.text,
                operand=operand,
                span=Span(start.offset, operand.span.end, start.line, start.column),
            )
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            text = self.tokens[self.pos].text
            if text == ".":
                self.pos += 1
                member = self._expect_identifier("member name")
                expr = MemberAccess(
                    obj=expr,
                    member=member.text,
                    span=Span(
                        expr.span.start,
                        member.offset + len(member.text),
                        expr.span.line,
                        expr.span.column,
                    ),
                )
            elif text == "(":
                self.pos += 1
                args: list[Expr] = []
                if not self._check(")"):
                    args.append(self.parse_expression())
                    while self._accept(","):
                        args.append(self.parse_expression())
                close = self._expect(")")
                expr = CallExpr(
                    callee=expr,
                    args=args,
                    span=Span(
                        expr.span.start, close.offset + 1, expr.span.line, expr.span.column
                    ),
                )
            elif text == "[":
                self.pos += 1
                index = self.parse_expression()
                close = self._expect("]")
                expr = IndexAccess(
                    obj=expr,
                    index=index,
                    span=Span(
                        expr.span.start, close.offset + 1, expr.span.line, expr.span.column
                    ),
                )
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self._peek()
        kind = tok.kind
        if kind is TokenKind.IDENTIFIER:
            self.pos += 1
            return Ident(name=tok.text, span=self._span_from(tok, tok))
        if kind is TokenKind.NUMBER:
            self.pos += 1
            return NumberLit(value=int(tok.text), span=self._span_from(tok, tok))
        if kind is TokenKind.HEX:
            self.pos += 1
            return HexLit(value=int(tok.text, 16), span=self._span_from(tok, tok))
        if kind is TokenKind.ADDRESS:
            self.pos += 1
            return AddressLit(value=int(tok.text, 16), span=self._span_from(tok, tok))
        if kind is TokenKind.STRING:
            self.pos += 1
            return StringLit(value=unescape_string(tok.text), span=self._span_from(tok, tok))
        if tok.text in {"true", "false"}:
            self.pos += 1
            return BoolLit(value=tok.text == "true", span=self._span_from(tok, tok))
        if tok.text in _CAST_KEYWORDS and self._peek(1).text == "(":
            self._advance()
            return Ident(name=tok.text, span=self._span_from(tok, tok))
        if self._check("("):
            self._advance()
            expr = self.parse_expression()
            self._expect(")")
            return expr
        if tok.kind is None:
            raise self._fail("expected expression")
        raise self._fail(f"expected expression, found {tok.text!r}")


# --- name resolution and the rule index -------------------------------------

# Each node is filed as a site (node, contract, function, top): the contract
# and function that enclose it (None outside one) and the position among the
# function's children (params, returns, then body statements) of the one
# that holds it, so positions order a function's top-level statements.
_Index = dict[type, list[tuple[Node, "ContractDef | None", "FunctionDef | None", int]]]


def annotate_bindings(unit: SourceUnit) -> None:
    """Point every identifier's ``decl`` at the declaration it names, and set
    ``unit.index`` to every node of unit filed under its exact type, each
    bucket in pre-order.

    A name is looked up in its block scope (parameters, then the locals
    declared before it in enclosing blocks), then in its contract (state
    variables over functions over contracts). A free name such as ``msg`` or
    ``block`` keeps ``decl = None``."""
    index: _Index = defaultdict(list)
    index[SourceUnit].append((unit, None, None, -1))
    contracts = {c.name: c for c in unit.contracts}
    function, top = None, -1  # with contract and members, set by the loop at the end

    def bind(root: Node, scope: dict) -> None:  # root's subtree holds no statement
        stack = [root]
        while stack:
            node = stack.pop()
            cls = node.__class__
            index[cls].append((node, contract, function, top))
            if cls is Ident:
                node.decl = scope.get(node.name) or members.get(node.name)
            elif cls._child_fields:
                stack.extend(reversed(children(node)))

    def bind_stmts(stmts: list[Stmt], scope: dict) -> None:
        for stmt in stmts:
            bind_stmt(stmt, scope)

    def bind_stmt(stmt: Stmt, scope: dict) -> None:
        cls = stmt.__class__
        if cls is IfStmt:
            index[cls].append((stmt, contract, function, top))
            bind(stmt.condition, scope)
            bind_stmts(stmt.then_body, dict(scope))
            if stmt.else_body is not None:
                bind_stmts(stmt.else_body, dict(scope))
        elif cls is ForStmt:
            index[cls].append((stmt, contract, function, top))
            inner = dict(scope)
            if stmt.init is not None:
                bind_stmt(stmt.init, inner)
            if stmt.condition is not None:
                bind(stmt.condition, inner)
            if stmt.post is not None:
                bind_stmt(stmt.post, inner)
            bind_stmts(stmt.body, dict(inner))
        elif cls is WhileStmt:
            index[cls].append((stmt, contract, function, top))
            bind(stmt.condition, scope)
            bind_stmts(stmt.body, dict(scope))
        else:  # a simple statement, parameter or type: resolve its names, then declare
            bind(stmt, scope)
            if cls is VarDeclStmt:
                scope[stmt.name] = stmt

    for contract in unit.contracts:
        index[ContractDef].append((contract, None, None, -1))
        members = {**contracts, **{f.name: f for f in contract.functions},
                   **{v.name: v for v in contract.state_vars}}
        for member in contract.members:
            if not isinstance(member, FunctionDef):
                bind(member, {})
                continue
            index[FunctionDef].append((member, contract, None, -1))
            function, scope = member, {p.name: p for p in member.params}
            for top, kid in enumerate(children(member)):
                bind_stmt(kid, scope)
            function, top = None, -1
    unit.index = index


# --- entry points ----------------------------------------------------------


def parse_tokens(tokens: list[Token], source: str = "", path: str = "<source>") -> SourceUnit:
    parser = _Parser(tokens, source)
    unit = parser.parse_unit(path)
    if parser.diagnostics:
        raise MiniSolSyntaxError(parser.diagnostics)
    annotate_bindings(unit)
    return unit


def parse_source(source: str, path: str = "<source>") -> SourceUnit:
    """Tokenize and parse; raises MiniSolSyntaxError with all diagnostics."""
    return parse_tokens(tokenize(source), source, path)
