"""Recursive-descent parser for MiniSol.

Anything outside the declared grammar is rejected with an "unsupported
construct" diagnostic rather than silently misparsed, and a name declared
twice in one scope gets a "duplicate declaration" diagnostic.  Inside
contracts and function bodies the parser recovers at member and statement
boundaries so one bad item does not hide later errors; in strict mode (the default and only
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
# The items of a braced list that declare a name in the list's scope.
_DECLARED = (StateVarDecl, FunctionDef, VarDeclStmt)
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
# The operators a simple statement applies to an assignable target (a name,
# member or element), each with the diagnostic for any other target.
_ASSIGNMENT = "cannot assign to this expression with {!r}"
_TARGET_OPS = {
    **dict.fromkeys(("=", "+=", "-=", "*=", "/=", "%="), _ASSIGNMENT),
    "++": "cannot apply {!r} to this expression",
    "--": "cannot apply {!r} to this expression",
}

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


def _through(node: Node, end: int) -> Span:
    """node's span extended to the byte offset end."""
    span = node.span
    return Span(span.start, end, span.line, span.column)


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

    def _fail(self, message: str) -> _ParseFailure:
        tok = self.tokens[self.pos]
        return _ParseFailure(Diagnostic(message, tok.line, tok.column))

    def _check(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

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

    def _node_span(self, start_tok: Token) -> Span:
        """From start_tok through the last token consumed."""
        return self._span_from(start_tok, self.tokens[self.pos - 1])

    def _declare(self, names: set[str], decl):
        """Note decl's name in a scope; a second declaration there is a diagnostic."""
        if decl.name in names:
            message = f"duplicate declaration of {decl.name!r}"
            self.diagnostics.append(Diagnostic(message, decl.span.line, decl.span.column))
        names.add(decl.name)
        return decl

    def _separated(self, parse_item) -> list:
        """One or more items, separated by ','."""
        items = [parse_item()]
        while self._accept(","):
            items.append(parse_item())
        return items

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

    def _braced(self, parse_item) -> list:
        """'{' items '}', each a declaration in one scope or another item.  A bad
        item's diagnostic is recorded and the parse goes on after it."""
        self._expect("{")
        items: list = []
        names: set[str] = set()
        while not self._check("}"):
            if self._at_end():
                raise self._fail("expected '}'")
            try:
                item = parse_item()
                items.append(self._declare(names, item) if isinstance(item, _DECLARED) else item)
            except _ParseFailure as failure:
                self.diagnostics.append(failure.diagnostic)
                self._sync_statement()
        self._expect("}")
        return items

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
        span = self._node_span(first) if self.pos > 0 else Span(0, 0, 1, 1)
        return SourceUnit(contracts=contracts, path=path, source=self.source, span=span)

    def parse_contract(self) -> ContractDef:
        start = self._expect("contract")
        name = self._expect_identifier("contract name").text
        # state variables and functions share one scope
        return ContractDef(name, self._braced(self.parse_member), span=self._node_span(start))

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

    def _declaration(self, qualifiers: tuple[str, ...], what: str):
        """Type, an optional qualifier, name: (first token, type, qualifier, name)."""
        start = self._current()
        var_type = self.parse_typename()
        qualifier = self._advance().text if self._peek().text in qualifiers else None
        return start, var_type, qualifier, self._expect_identifier(what).text

    def _initializer(self) -> Expr | None:
        """An optional '= expression', then the ';' that ends a variable declaration."""
        initializer = self.parse_expression() if self._accept("=") else None
        self._expect(";")
        return initializer

    def parse_state_var(self) -> StateVarDecl:
        start, var_type, visibility, name = self._declaration(_VISIBILITY, "state variable name")
        initializer = self._initializer()
        return StateVarDecl(var_type, visibility, name, initializer, span=self._node_span(start))

    def parse_function(self) -> FunctionDef:
        start = self._expect("function")
        name = self._expect_identifier("function name")
        self._expect("(")
        names: set[str] = set()
        params: list[Param] = [] if self._check(")") else self._separated(
            lambda: self._declare(names, self.parse_param())
        )
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
                returns.extend(self._separated(self.parse_typename))
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
            name.text, params, visibility, mutability, modifiers, returns, body,
            span=self._node_span(start),
        )

    def parse_param(self) -> Param:
        start, var_type, location, name = self._declaration(_LOCATIONS, "parameter name")
        return Param(var_type, name, location, span=self._node_span(start))

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
        if self._accept("["):
            length = None
            if self._peek().kind is TokenKind.NUMBER:
                length = int(self._advance().text)
            close = self._expect("]")
            base = ArrayType(base, length, span=_through(base, close.offset + 1))
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
        return self._braced(self.parse_statement)  # its locals are one scope

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
        stmt.span = _through(stmt, self._expect(";").offset + 1)
        return stmt

    def parse_var_decl(self) -> VarDeclStmt:
        if self._check("mapping"):
            raise self._fail("unsupported construct: mapping variables must be state variables")
        start, var_type, location, name = self._declaration(_LOCATIONS, "variable name")
        initializer = self._initializer()
        return VarDeclStmt(var_type, name, location, initializer, span=self._node_span(start))

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
        return IfStmt(condition, then_body, else_body, span=self._node_span(start))

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
        return ForStmt(init, condition, post, body, span=self._node_span(start))

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
        op = self._peek().text
        if op not in _TARGET_OPS:
            return ExprStmt(expr, span=self._node_span(start))
        if not isinstance(expr, (Ident, MemberAccess, IndexAccess)):
            raise self._fail(_TARGET_OPS[op].format(op))
        self._advance()
        if op in ("++", "--"):
            return IncDecStmt(expr, op, span=self._node_span(start))
        value = self.parse_expression()
        return AssignStmt(expr, op, value, span=self._node_span(start))

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
            left = BinaryExpr(op, left, right, span=_through(left, right.span.end))

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
                end = member.offset + len(member.text)
                expr = MemberAccess(expr, member.text, span=_through(expr, end))
            elif text == "(":
                self.pos += 1
                args = [] if self._check(")") else self._separated(self.parse_expression)
                close = self._expect(")")
                expr = CallExpr(expr, args, span=_through(expr, close.offset + 1))
            elif text == "[":
                self.pos += 1
                index = self.parse_expression()
                close = self._expect("]")
                expr = IndexAccess(expr, index, span=_through(expr, close.offset + 1))
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
        if self._check("("):  # the operand's span takes in its parentheses
            self._advance()
            expr = self.parse_expression()
            expr.span = self._span_from(tok, self._expect(")"))
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
