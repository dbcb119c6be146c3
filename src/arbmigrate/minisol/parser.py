"""Recursive-descent parser for MiniSol, which binds each node as it builds it.

Anything outside the declared grammar is rejected with an "unsupported
construct" diagnostic rather than silently misparsed, and a name declared
twice in one scope gets a "duplicate declaration" diagnostic.  The unit, each
contract and each block recover after a bad item at their own level, so one
bad item does not hide later errors.  No partial AST escapes: if any
diagnostic was recorded, :class:`MiniSolSyntaxError` carries all of them.
"""

from __future__ import annotations

from collections import defaultdict

from .lexer import (
    ELEMENTARY_TYPES,
    LOCATIONS,
    MUTABILITY,
    VISIBILITY,
    Diagnostic,
    LineIndex,
    MiniSolSyntaxError,
    TokenKind,
    Tokens,
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
)

_TYPE_START = frozenset(ELEMENTARY_TYPES) | {"mapping"}
# The items of a braced list that declare a name in the list's scope.
_DECLARED = (ContractDef, StateVarDecl, FunctionDef, VarDeclStmt)
# Where each braced list resumes after a bad item (_Parser._resync): the unit at
# the next 'contract'; a contract at a member start right after a ';' or '}'; a
# block right after a ';' or the '}' that closes the item's outermost brace, unless
# an 'else' follows, or before its own '}'.  Brackets count from the item's first token.
_UNIT = frozenset({"contract"})
_MEMBERS = _TYPE_START | {"function"}
_BLOCK: frozenset[str] = frozenset()
# Type keywords usable as conversion callees, e.g. payable(x) or address(0).
_CAST_KEYWORDS = frozenset(ELEMENTARY_TYPES) | {"payable"}
# The literals that take no call, member or index, parenthesized or not; an address
# literal has members (0x….balance).
_BARE_LITERALS = frozenset({NumberLit, HexLit, StringLit, BoolLit})
_SELECTORS = {".": "a member", "(": "a call", "[": "an index"}

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


class _Parser:
    def __init__(self, tokens: Tokens, source: str):
        # parse_source's own token lists, each given an end-of-input sentinel (kind None,
        # text "") where the last token ends, so the helpers below index them unchecked.
        end = tokens.ends[-1] if tokens.ends else 0
        columns = tokens.kinds, tokens.texts, tokens.starts, tokens.ends
        self.kinds, self.texts, self.starts, self.ends = columns
        for column, last in zip(columns, (None, "", end, end)):
            column.append(last)
        self.lines = LineIndex(source)
        self.pos = 0
        self.depth = 0
        self.lost_brace_at = -1  # the 'function' token where the last block ended early
        self.diagnostics: list[Diagnostic] = []
        self.index: dict[type, list[Node]] = defaultdict(list)  # the unit's, as it grows
        self.scopes: tuple[dict, ...] = ()  # the open parameter, for and block scopes, innermost last
        self.deferred: list[Ident] = []  # names none of them declared, for the contract and unit

    # -- token helpers ---------------------------------------------------

    def _fail(self, message: str) -> _ParseFailure:
        return _ParseFailure(Diagnostic(message, *self.lines.position(self.starts[self.pos])))

    def _check(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def _current(self) -> int:
        """The start of the next token, not consumed; a syntax error at the end of input."""
        if self.kinds[self.pos] is None:
            raise self._fail("unexpected end of input")
        return self.starts[self.pos]

    def _advance(self) -> str:
        # every caller has matched the token's text or kind, so it is not the sentinel
        self.pos += 1
        return self.texts[self.pos - 1]

    def _accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def _expect(self, text: str) -> int:
        """Consume a token of this text; its start."""
        found = self.texts[self.pos]
        if found != text:
            raise self._fail(f"expected {text!r}, found {found or 'end of input'!r}")
        self.pos += 1
        return self.starts[self.pos - 1]

    def _expect_identifier(self, what: str) -> str:
        if self.kinds[self.pos] is not TokenKind.IDENTIFIER:
            raise self._fail(f"expected {what}, found {self.texts[self.pos] or 'end of input'!r}")
        self.pos += 1
        return self.texts[self.pos - 1]

    def _number(self, base: int = 10) -> int:
        """Consume a number or hex token; its value, a uint256.  A decimal's length is
        checked first: a uint256 has at most 78 digits, and int() refuses decimal text
        of over 4,300 digits, where it reads hex text of any length."""
        text = self.texts[self.pos]
        if (base == 10 and len(text) > 78) or (value := int(text, base)) >= 2**256:
            raise self._fail("number literal out of uint256 range")
        self.pos += 1
        return value

    def _node_span(self, start: int) -> Span:
        """From the offset start through the last token consumed.  Each Span the parser
        builds skips the namedtuple's Python-level __new__, which takes twice as long."""
        return tuple.__new__(Span, (start, self.ends[self.pos - 1]))

    def _declare(self, names: dict[str, Node], decl):
        """Note decl in a scope; a second declaration of its name there is a diagnostic."""
        if decl.name in names:
            message = f"duplicate declaration of {decl.name!r}"
            self.diagnostics.append(Diagnostic(message, *self.lines.position(decl.span.start)))
        names[decl.name] = decl
        return decl

    def _filed(self, node, at: int = 1 << 62):
        """node, made its children's parent and filed at `at`, its bucket's length when its first
        token was read, which only a class whose nodes can hold one another needs (default: last)."""
        self.index[node.__class__].insert(at, node)
        for field in node._child_fields:
            value = getattr(node, field)
            for child in value if value.__class__ is list else () if value is None else (value,):
                child.parent = node
        return node

    def _settle(self, node: ContractDef | SourceUnit, since: int):
        """node, filed, with each name deferred since then that it declares (_hoisted) bound."""
        scope = {decl.name: decl for decl in _hoisted(node)}
        for ident in self.deferred[since:]:
            ident.decl = scope.get(ident.name)
        self.deferred[since:] = [ident for ident in self.deferred[since:] if ident.decl is None]
        return self._filed(node)

    def _separated(self, parse_item) -> list:
        """One or more items, separated by ','."""
        items = [parse_item()]
        while self._accept(","):
            items.append(parse_item())
        return items

    # -- recovery --------------------------------------------------------

    def _resync(self, follow: frozenset[str], first: int) -> None:
        """Skip the rest of a bad item, from its first token on, to where its list
        resumes (see _UNIT).  '(' and '[' open groups that no ';' inside ends;
        '{' opens a brace, and a '}' closes only a brace, the outermost one's
        every group too.  An item that fails at its first token loses at least that token."""
        texts, failed = self.texts, self.pos
        # a 'for' that lost its '(' still has the header's ';'s in a group, closed by its ')'
        self.pos, groups, braces = first, int(texts[first] == "for" and texts[first + 1] != "("), 0
        while text := texts[self.pos]:
            if self.pos >= failed and not braces and text == ("contract" if follow is _UNIT else "}"):
                # a '}' that a member start or another '}' follows ends the bad member
                if follow is _MEMBERS and texts[self.pos + 1] in _MEMBERS | {"}"}:
                    self.pos += 1
                return
            if text in ("(", "["):
                groups += 1
            elif text == "{":
                braces += 1
            elif text == "}" and braces:
                braces -= 1
                groups = groups if braces else 0
            elif groups and text in (")", "]"):
                groups -= 1
            self.pos += 1
            if self.pos > failed and not braces and not groups and text in (";", "}") and (
                    texts[self.pos] in follow if follow else texts[self.pos] != "else"):
                return

    def _braced(self, parse_item, follow: frozenset[str]) -> list:
        """'{' items '}', each a declaration in one scope or another item; the
        unit's contracts have no braces and the end of input closes them.  A
        bad item's diagnostic is recorded and the parse resyncs after it, but a
        block item that fails at 'function' has lost the block's '}'."""
        close = "" if follow is _UNIT else "}"  # the end-of-input sentinel's text is ""
        if close:
            self._expect("{")
        items: list = []
        names: dict[str, Node] = {}  # the list's scope, which a block's later items see
        outer = self.scopes  # a diagnostic may leave scopes open: no unit is returned then
        self.scopes = (*outer, names) if follow is _BLOCK else outer
        while self.texts[self.pos] != close:
            if self.kinds[self.pos] is None:
                raise self._fail("expected '}'")
            first = self.pos
            try:
                item = parse_item()
                items.append(self._declare(names, item) if isinstance(item, _DECLARED) else item)
            except _ParseFailure as failure:
                lost_brace = follow is _BLOCK and self._check("function")
                if not (lost_brace and self.pos == self.lost_brace_at):  # an inner block's report
                    self.diagnostics.append(failure.diagnostic)
                if lost_brace:  # the next member ends the block, as if its '}' had come
                    self.lost_brace_at = self.pos
                    return items
                self._resync(follow, first)
        self._expect(close)
        self.scopes = outer
        return items

    # -- grammar ---------------------------------------------------------

    def parse_unit(self, path: str) -> SourceUnit:
        contracts = self._braced(self.parse_contract, _UNIT)  # consumes the sentinel
        span = self._node_span(self.starts[0])
        unit = SourceUnit(contracts=contracts, path=path, source=self.lines.source, span=span)
        unit.index = self.index
        return self._settle(unit, 0)

    def parse_contract(self) -> ContractDef:
        start = self._expect("contract")
        name = self._expect_identifier("contract name")
        since = len(self.deferred)
        # state variables and functions share one scope
        members = self._braced(self.parse_member, _MEMBERS)
        return self._settle(ContractDef(name, members, span=self._node_span(start)), since)

    def parse_member(self) -> StateVarDecl | FunctionDef:
        text = self.texts[self.pos]
        if text == "function":
            return self.parse_function()
        if text in _TYPE_START:
            return self.parse_state_var()
        raise self._fail(
            f"unsupported construct at {text!r}: contracts may only contain "
            "state variables and functions"
        )

    def _declaration(self, qualifiers: tuple[str, ...], what: str):
        """Type, an optional qualifier, name: (start offset, type, qualifier, name)."""
        start = self._current()
        var_type = self.parse_typename()
        qualifier = self.texts[self.pos]
        if qualifier not in qualifiers:
            qualifier = None
        elif qualifier in LOCATIONS and var_type.__class__ is ElementaryType and var_type.name != "string":
            raise self._fail(f"unsupported construct: data location {qualifier!r} on a value type")
        else:
            self.pos += 1
        return start, var_type, qualifier, self._expect_identifier(what)

    def _initializer(self) -> Expr | None:
        """An optional '= expression', then the ';' that ends a variable declaration."""
        initializer = self.parse_expression() if self._accept("=") else None
        self._expect(";")
        return initializer

    def parse_state_var(self) -> StateVarDecl:
        start, var_type, visibility, name = self._declaration(VISIBILITY, "state variable name")
        initializer = self._initializer()
        return self._filed(StateVarDecl(var_type, visibility, name, initializer, span=self._node_span(start)))

    def parse_function(self) -> FunctionDef:
        start = self._expect("function")
        name = self._expect_identifier("function name")
        self._expect("(")
        names: dict[str, Node] = {}
        params: list[Param] = [] if self._check(")") else self._separated(
            lambda: self._declare(names, self.parse_param())
        )
        self._expect(")")

        visibility: str | None = None
        mutability: str | None = None
        modifiers: list[str] = []
        returns: list[TypeName] = []
        while True:
            kind, text = self.kinds[self.pos], self.texts[self.pos]
            if text in VISIBILITY:
                if visibility is not None:
                    raise self._fail(f"duplicate visibility {text!r}")
                visibility = self._advance()
            elif text in MUTABILITY:
                if mutability is not None:
                    raise self._fail(f"duplicate mutability {text!r}")
                mutability = self._advance()
            elif text == "returns":
                if returns:
                    raise self._fail("duplicate returns clause")
                self._advance()
                self._expect("(")
                returns.extend(self._separated(self.parse_typename))
                self._expect(")")
            elif kind is TokenKind.IDENTIFIER:
                modifiers.append(self._advance())
            elif text == "{":
                break
            elif kind is None:
                raise self._fail("expected function body")
            else:
                raise self._fail(
                    f"unsupported construct in function header: {text!r}"
                )
        self.scopes = (names,)  # no scope is open around a contract member
        body = self.parse_block()
        self.scopes = ()
        return self._filed(FunctionDef(
            name, params, visibility, mutability, modifiers, returns, body,
            span=self._node_span(start),
        ))

    def parse_param(self) -> Param:
        start, var_type, location, name = self._declaration(LOCATIONS, "parameter name")
        return self._filed(Param(var_type, name, location, span=self._node_span(start)))

    def parse_typename(self, allow_mapping: bool = True) -> TypeName:
        if self._check("mapping"):
            if not allow_mapping:
                raise self._fail("unsupported construct: nested mappings (single level only)")
            start = self._expect("mapping")
            self._expect("(")
            key = self.parse_elementary()
            self._expect("=>")
            value = self.parse_typename(allow_mapping=False)
            self._expect(")")
            return self._filed(MappingType(key=key, value=value, span=self._node_span(start)))
        if self.kinds[self.pos] is None:
            raise self._fail("expected type")
        base: TypeName = self.parse_elementary()
        if self._accept("["):
            length = None
            if self.kinds[self.pos] is TokenKind.NUMBER:
                length = self._number()
            self._expect("]")
            base = self._filed(ArrayType(base, length, span=self._node_span(base.span.start)))
            if self._check("["):
                raise self._fail("unsupported construct: nested arrays")
        return base

    def parse_elementary(self) -> ElementaryType:
        text = self.texts[self.pos]
        if text not in ELEMENTARY_TYPES:
            raise self._fail(f"expected elementary type, found {text or 'end of input'!r}")
        start = self._expect(text)
        name = "uint256" if text == "uint" else text
        return self._filed(ElementaryType(name=name, span=self._node_span(start)))

    # -- statements -------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        return self._braced(self.parse_statement, _BLOCK)  # its locals are one scope

    def _body_or_single(self) -> list[Stmt]:
        if self._check("{"):
            return self.parse_block()
        return [self.parse_statement()]

    @_nested
    def parse_statement(self) -> Stmt:
        text = self.texts[self.pos]
        if text in _TYPE_START and (self.texts[self.pos + 1] != "(" or text == "mapping"):  # not a cast
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
            start = self._expect("return")
            value = None if self._check(";") else self.parse_expression()
            self._expect(";")
            return self._filed(ReturnStmt(value=value, span=self._node_span(start)))
        if text in {"contract", "function"}:
            raise self._fail(f"unsupported construct: {text!r} inside a function body")
        if self.kinds[self.pos] is None:
            raise self._fail("expected statement")
        stmt = self.parse_simple_statement()
        self._expect(";")
        stmt.span = self._node_span(stmt.span.start)
        return stmt

    def parse_var_decl(self) -> VarDeclStmt:
        if self._check("mapping"):
            raise self._fail("unsupported construct: mapping variables must be state variables")
        start, var_type, location, name = self._declaration(LOCATIONS, "variable name")
        initializer = self._initializer()
        return self._filed(VarDeclStmt(var_type, name, location, initializer, span=self._node_span(start)))

    def parse_require(self) -> RequireStmt:
        start = self._expect("require")
        self._expect("(")
        condition = self.parse_expression()
        message = None
        if self._accept(","):
            if self.kinds[self.pos] is not TokenKind.STRING:
                raise self._fail("require message must be a string literal")
            at = self.starts[self.pos]
            value = unescape_string(self._advance())
            message = self._filed(StringLit(value=value, span=self._node_span(at)))
        self._expect(")")
        self._expect(";")
        return self._filed(RequireStmt(condition=condition, message=message, span=self._node_span(start)))

    def parse_if(self) -> IfStmt:
        start, at = self._expect("if"), len(self.index[IfStmt])
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        then_body = self._body_or_single()
        else_body: list[Stmt] | None = None
        if self._accept("else"):
            else_body = self._body_or_single()
        return self._filed(IfStmt(condition, then_body, else_body, span=self._node_span(start)), at)

    def parse_for(self) -> ForStmt:
        start, at = self._expect("for"), len(self.index[ForStmt])
        self._expect("(")
        outer, text = self.scopes, self.texts[self.pos]
        if text in _TYPE_START and (self.texts[self.pos + 1] != "(" or text == "mapping"):
            init: Stmt | None = self.parse_var_decl()  # consumes its ';'
            self.scopes = (*outer, {init.name: init})  # seen by the rest of the loop alone
        else:
            init = None if self._check(";") else self.parse_simple_statement()
            self._expect(";")
        condition = None if self._check(";") else self.parse_expression()
        self._expect(";")
        post: Stmt | None = None
        if not self._check(")"):
            post = self.parse_simple_statement()
        self._expect(")")
        body = self._body_or_single()
        self.scopes = outer
        return self._filed(ForStmt(init, condition, post, body, span=self._node_span(start)), at)

    def parse_while(self) -> WhileStmt:
        start, at = self._expect("while"), len(self.index[WhileStmt])
        self._expect("(")
        condition = self.parse_expression()
        self._expect(")")
        body = self._body_or_single()
        return self._filed(WhileStmt(condition=condition, body=body, span=self._node_span(start)), at)

    def parse_emit(self) -> EmitStmt:
        start = self._expect("emit")
        expr = self.parse_postfix()
        if not isinstance(expr, CallExpr):
            raise self._fail("emit expects an event call")
        self._expect(";")
        return self._filed(EmitStmt(call=expr, span=self._node_span(start)))

    def parse_simple_statement(self) -> Stmt:
        """Assignment, increment/decrement, or bare expression (no ';')."""
        start = self._current()
        expr = self.parse_expression()
        op = self.texts[self.pos]
        if op not in _TARGET_OPS:
            return self._filed(ExprStmt(expr, span=self._node_span(start)))
        if not isinstance(expr, (Ident, MemberAccess, IndexAccess)):
            raise self._fail(_TARGET_OPS[op].format(op))
        self._advance()
        if op in ("++", "--"):
            return self._filed(IncDecStmt(expr, op, span=self._node_span(start)))
        value = self.parse_expression()
        return self._filed(AssignStmt(expr, op, value, span=self._node_span(start)))

    # -- expressions ------------------------------------------------------

    def parse_binary(self, min_prec: int = 1) -> Expr:
        at = len(self.index[BinaryExpr])  # each operator built here wraps the one before
        left = self.parse_unary()
        while True:
            prec = BINARY_PRECEDENCE.get(self.texts[self.pos])
            if prec is None or prec < min_prec:
                return left
            op = self._advance()
            right = self.parse_binary(prec + 1)
            span = tuple.__new__(Span, (left.span.start, right.span.end))
            left = self._filed(BinaryExpr(op, left, right, span=span), at)

    parse_expression = parse_binary  # an expression: operators of every precedence

    @_nested
    def parse_unary(self) -> Expr:
        op = self.texts[self.pos]
        if op in {"!", "-"}:
            start, at = self._expect(op), len(self.index[UnaryExpr])
            operand = self.parse_unary()
            span = tuple.__new__(Span, (start, operand.span.end))
            return self._filed(UnaryExpr(op=op, operand=operand, span=span), at)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        index = self.index  # each wrapper built here holds the ones before
        at = len(index[MemberAccess]), len(index[CallExpr]), len(index[IndexAccess])
        expr = self.parse_primary()
        if self.texts[self.pos] in _SELECTORS and expr.__class__ in _BARE_LITERALS:
            raise self._fail(f"unsupported construct: {_SELECTORS[self.texts[self.pos]]} on a literal")
        while True:
            text = self.texts[self.pos]
            if text == ".":
                self.pos += 1
                member = self._expect_identifier("member name")
                expr = self._filed(MemberAccess(expr, member, span=self._node_span(expr.span.start)), at[0])
            elif text == "(":
                self.pos += 1
                args = [] if self._check(")") else self._separated(self.parse_expression)
                self._expect(")")
                expr = self._filed(CallExpr(expr, args, span=self._node_span(expr.span.start)), at[1])
            elif text == "[":
                self.pos += 1
                key = self.parse_expression()
                self._expect("]")
                expr = self._filed(IndexAccess(expr, key, span=self._node_span(expr.span.start)), at[2])
            else:
                return expr

    def parse_primary(self) -> Expr:
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        span = tuple.__new__(Span, (self.starts[pos], self.ends[pos]))
        if kind is TokenKind.IDENTIFIER:  # bound by the innermost open scope, else deferred
            self.pos += 1
            self.index[Ident].append(ident := Ident(text, span=span))
            for scope in reversed(self.scopes):
                if text in scope:
                    ident.decl = scope[text]
                    return ident
            self.deferred.append(ident)
            return ident
        if kind is TokenKind.NUMBER:
            return self._filed(NumberLit(value=self._number(), span=span))
        if kind is TokenKind.HEX:
            return self._filed(HexLit(value=self._number(16), span=span))
        if kind is TokenKind.ADDRESS:
            self.pos += 1
            return self._filed(AddressLit(value=int(text, 16), span=span))
        if kind is TokenKind.STRING:
            self.pos += 1
            return self._filed(StringLit(value=unescape_string(text), span=span))
        if text in {"true", "false"}:
            self.pos += 1
            return self._filed(BoolLit(value=text == "true", span=span))
        if text in _CAST_KEYWORDS and self.texts[pos + 1] == "(":
            self.pos += 1
            return self._filed(Ident(name=text, span=span))  # a keyword: no declaration names it
        if text == "(":  # the operand's span takes in its parentheses
            self.pos += 1
            expr = self.parse_expression()
            self._expect(")")
            expr.span = self._node_span(span.start)
            return expr
        if kind is None:
            raise self._fail("expected expression")
        raise self._fail(f"expected expression, found {text!r}")


# --- name resolution and the rule index -------------------------------------

# The nodes that open a scope.  Each list one holds is bound in its own copy of
# the node's scope, taken when the list's turn comes: a for body sees the init
# variable, and an else body none of the then body's locals.
_SCOPED = frozenset({IfStmt, ForStmt, WhileStmt, FunctionDef, ContractDef, SourceUnit})


def _hoisted(node: Node) -> list:
    """What a scope-opening node declares for all it holds, later names winning:
    a unit's contracts, a contract's functions then state variables, a function's params."""
    cls = node.__class__
    if cls is SourceUnit:
        return node.contracts
    if cls is ContractDef:
        return node.functions + node.state_vars
    return node.params if cls is FunctionDef else []


def annotate_bindings(unit: SourceUnit) -> None:
    """Point every identifier's ``decl`` at the declaration it names, every
    node's ``parent`` at the node that holds it (the unit's at None), and set
    ``unit.index`` to every node of unit filed under its exact type, each
    bucket in pre-order.

    A name is looked up in its block scope (parameters, then the locals
    declared before it in enclosing blocks), then in its contract (state
    variables over functions over contracts). A free name such as ``msg`` or
    ``block`` keeps ``decl = None``.  One loop over an explicit stack binds
    the unit, so a unit of any depth binds.  The parser binds what it parses
    the same way; a unit built by hand or edited after parsing goes through this
    before ``analyze``, which reads the binding and makes none."""
    index: dict[type, list[Node]] = defaultdict(list)
    # (node, scope, parent); a list entry is a scoped node's statement list, and
    # (None, scope, decl) declares a local once its initializer is bound
    stack: list = [(unit, {}, None)]
    while stack:
        node, scope, parent = stack.pop()
        cls = node.__class__
        if cls is list:
            scope = dict(scope)
            stack.extend([(item, scope, parent) for item in reversed(node)])
            continue
        if node is None:
            scope[parent.name] = parent
            continue
        node.parent = parent
        index[cls].append(node)
        if cls is Ident:
            node.decl = scope.get(node.name)
            continue
        scoped = cls in _SCOPED
        if scoped:
            scope = {**scope, **{decl.name: decl for decl in _hoisted(node)}}
        elif cls is VarDeclStmt:
            stack.append((None, scope, node))
        for field in reversed(cls._child_fields):
            value = getattr(node, field)
            if value.__class__ is list and not scoped:
                stack.extend([(item, scope, node) for item in reversed(value)])
            elif value is not None:
                stack.append((value, scope, node))
    unit.index = index


def unbind(unit: SourceUnit) -> SourceUnit:
    """Undo the binding, the parser's or annotate_bindings's: clear ``unit.index``,
    every ``parent`` and every ``Ident.decl``.  The unit then holds no reference cycle
    (its index lists the unit itself), so reference counting frees it without the collector."""
    for bucket in unit.index.values():
        for node in bucket:
            node.parent = None
    for ident in unit.index.get(Ident, ()):
        ident.decl = None
    unit.index = None
    return unit


# --- entry points ----------------------------------------------------------


def parse_source(source: str, path: str = "<source>") -> SourceUnit:
    """Tokenize, then parse and bind in one pass; raises MiniSolSyntaxError with all diagnostics."""
    parser = _Parser(tokenize(source), source)
    unit = parser.parse_unit(path)
    if parser.diagnostics:
        unbind(unit)  # the partial tree's parent links would hold it in cycles
        raise MiniSolSyntaxError(parser.diagnostics)
    return unit
