import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arbmigrate.minisol import (
    AddressLit,
    ArrayType,
    AssignStmt,
    BinaryExpr,
    BoolLit,
    CallExpr,
    ContractDef,
    Diagnostic,
    ElementaryType,
    EmitStmt,
    ExprStmt,
    ForStmt,
    FunctionDef,
    HexLit,
    Ident,
    IfStmt,
    IncDecStmt,
    IndexAccess,
    LineIndex,
    MappingType,
    MemberAccess,
    MiniSolSyntaxError,
    Node,
    NumberLit,
    Param,
    RequireStmt,
    ReturnStmt,
    SourceUnit,
    Span,
    StateVarDecl,
    StringLit,
    TokenKind,
    Tokens,
    UnaryExpr,
    VarDeclStmt,
    WhileStmt,
    children,
    parse_source,
    parse_tokens,
    print_source,
    tokenize,
    walk,
)
from arbmigrate._record import Record
from arbmigrate.minisol import lexer
from arbmigrate.minisol.lexer import KEYWORDS, OPERATORS, PUNCTUATION

SAMPLE = """
contract Vault {
    address public owner = 0x00000000000000000000000000000000deadbeef;
    uint256 public total;
    address[] public holders;
    mapping(address => uint256) balances;

    function deposit() public payable {
        require(msg.value >= 100, "too small");
        balances[msg.sender] += msg.value;
        total += msg.value;
    }

    function sweep(uint256 cap) public view returns (uint256) {
        uint256 acc = 0;
        for (uint256 i = 0; i < holders.length; i++) {
            if (balances[holders[i]] > cap) {
                acc += cap;
            } else {
                acc += balances[holders[i]];
            }
        }
        return acc;
    }
}
"""

# Characters that make up most MiniSol tokens, so generated text often lexes,
# plus near misses: other whitespace and non-ASCII letters and digits.
_MINISOL_CHARS = ' \t\r\n/*"\\0123456789xXabcfAF_zZ+-=<>!&|%(){}[];,.\f\v\u00e9\u00b2'
# What may lie between two tokens: whitespace and comments only.
_SKIPPED = re.compile(r"(?:[ \t\r\n]|//[^\n]*|/\*.*?\*/)*", re.S)
CORPUS = Path(__file__).parent / "corpus"
CORPUS_SOURCES = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.sol"))]
# Token sequences in a function body, which reach deeper into the parser than random characters.
_TOKEN_SOUP = st.lists(
    st.sampled_from(sorted(KEYWORDS) + list(OPERATORS) + list(PUNCTUATION) + ["x", "1", "0x1f"]),
    max_size=40,
).map(lambda toks: "contract C { function f(uint256 x) public { " + " ".join(toks) + " } }")


# --- reference tokenizer: one regex match per token or gap ------------------
# The tokenizer as it was before each match took the gap in front of its
# token.  The differential test below holds the current one to it.

_REFERENCE_ROWS = (
    ("SKIP", r"[ \t\r\n]+|//[^\n]*|/\*.*?\*/"),
    ("OPEN_COMMENT", r"/\*"),
    ("STRING", r'"(?:\\.|[^"\\\n])*"'),
    ("LONE_QUOTE", r'"'),
    ("HEX", r"0[xX][0-9a-fA-F]+"),
    ("BARE_HEX", r"0[xX]"),
    ("NUMBER", r"[0-9]+"),
    ("IDENTIFIER", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("OPERATOR", "|".join(map(re.escape, OPERATORS))),
    ("PUNCT", f"[{re.escape(PUNCTUATION)}]"),
    ("ILLEGAL", r"."),
)
_REFERENCE_MASTER = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _REFERENCE_ROWS), re.DOTALL
)
_REFERENCE_KINDS = {
    name: TokenKind[name] for name in ("STRING", "HEX", "NUMBER", "IDENTIFIER", "OPERATOR", "PUNCT")
}
_REFERENCE_ERRORS = {
    "OPEN_COMMENT": "unterminated block comment",
    "LONE_QUOTE": "unterminated string literal",
    "BARE_HEX": "hex literal needs at least one digit",
}


def _reference_tokenize(source):
    """Rows (kind, text, start, end, line, column), one per token."""
    tokens, diagnostics = [], []
    line, line_start = 1, 0
    for m in _REFERENCE_MASTER.finditer(source):
        row, text, offset = m.lastgroup, m.group(), m.start()
        kind = _REFERENCE_KINDS.get(row)
        if kind is TokenKind.IDENTIFIER and text in KEYWORDS:
            kind = TokenKind.KEYWORD
        elif kind is TokenKind.HEX and len(text) == 42:
            kind = TokenKind.ADDRESS
        if kind is not None:
            tokens.append((kind, text, offset, m.end(), line, offset - line_start + 1))
        elif row != "SKIP":
            message = _REFERENCE_ERRORS.get(row) or f"illegal character {text!r}"
            diagnostics.append(Diagnostic(message, line, offset - line_start + 1))
            if row == "OPEN_COMMENT":
                break
        if "\n" in text:
            line += text.count("\n")
            line_start = offset + text.rindex("\n") + 1
    if diagnostics:
        raise MiniSolSyntaxError(diagnostics)
    return tokens


def _token_rows(source):
    """tokenize's tokens as the reference's rows, each position looked up on demand."""
    tokens, lines = tokenize(source), LineIndex(source)
    columns = (tokens.kinds, tokens.texts, tokens.starts, tokens.ends)
    return [(*row, *lines.position(row[2])) for row in zip(*columns)]


def _lex_outcome(tokenizer, source):
    try:
        return "tokens", tokenizer(source)
    except MiniSolSyntaxError as err:
        return "diagnostics", err.diagnostics


class TestTokenizer:
    def test_member_access_token_sequence(self):
        tokens = tokenize("block.number == 100")
        assert list(zip(tokens.kinds, tokens.texts)) == [
            (TokenKind.IDENTIFIER, "block"),
            (TokenKind.PUNCT, "."),
            (TokenKind.IDENTIFIER, "number"),
            (TokenKind.OPERATOR, "=="),
            (TokenKind.NUMBER, "100"),
        ]

    def test_40_hex_digits_is_one_address_token(self):
        toks = tokenize("0x1111000000000000000000000000000000001111")
        assert len(toks) == 1
        assert toks.kinds == [TokenKind.ADDRESS]

    def test_short_hex_is_hex_token(self):
        assert tokenize("0xff").kinds == [TokenKind.HEX]

    def test_unterminated_string_reports_opening_quote(self):
        with pytest.raises(MiniSolSyntaxError) as err:
            tokenize('uint256 x = "oops;\n')
        diag = err.value.diagnostics[0]
        assert "unterminated string" in diag.message
        assert (diag.line, diag.column) == (1, 13)

    def test_illegal_character_position(self):
        with pytest.raises(MiniSolSyntaxError) as err:
            tokenize("uint256 @x;")
        diag = err.value.diagnostics[0]
        assert "illegal character" in diag.message
        assert (diag.line, diag.column) == (1, 9)

    def test_comments_skipped_but_positions_kept(self):
        source = "// header\n/* block\ncomment */ contract"
        toks = tokenize(source)
        assert toks.texts == ["contract"]
        assert toks.starts == [source.index("contract")]
        assert LineIndex(source).position(toks.starts[0]) == (3, 12)

    def test_token_text_matches_source_slice(self):
        tokens = tokenize(SAMPLE)
        for text, start, end in zip(tokens.texts, tokens.starts, tokens.ends):
            assert SAMPLE[start:end] == text

    @pytest.mark.parametrize("char", ["\u00b2", "\u00e9", "\u0661"])
    def test_non_ascii_letter_or_digit_is_illegal(self, char):
        with pytest.raises(MiniSolSyntaxError) as err:
            tokenize(f"uint256 a;\n  x = {char};")
        [diag] = err.value.diagnostics
        assert diag.message == f"illegal character {char!r}"
        assert (diag.line, diag.column) == (2, 7)

    @pytest.mark.parametrize("char", ["\u00b2", "\u00e9", "\u0661"])
    def test_parse_source_reports_non_ascii_instead_of_crashing(self, char):
        with pytest.raises(MiniSolSyntaxError):
            parse_source(f"contract C {{ function f() public {{ uint256 x = {char}; }} }}")

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text(alphabet=_MINISOL_CHARS))
    def test_tokens_tile_the_source(self, source):
        try:
            tokens = tokenize(source)
        except MiniSolSyntaxError:
            return
        lines = LineIndex(source)
        assert len(tokens) == len(tokens.kinds) == len(tokens.starts) == len(tokens.ends)
        end = 0
        for text, start, stop in zip(tokens.texts, tokens.starts, tokens.ends):
            assert source[start:stop] == text
            line, column = lines.position(start)
            assert line == source.count("\n", 0, start) + 1
            assert column == start - source.rfind("\n", 0, start)
            assert _SKIPPED.fullmatch(source, end, start)
            end = stop
        assert _SKIPPED.fullmatch(source, end)

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text(alphabet=_MINISOL_CHARS) | _TOKEN_SOUP)
    @example("")
    @example("  ")
    @example("x // c")
    @example("x // c\n")
    @example("x /* c */")
    @example("x /*")
    @example('x = "a\\\nb";\n  y')  # an escaped newline inside a string literal
    @example("0x")
    @example("\t@")
    def test_tokenize_matches_the_reference_tokenizer(self, source):
        # equal token lists, or equal diagnostic lists
        assert _lex_outcome(_token_rows, source) == _lex_outcome(_reference_tokenize, source)

    def test_master_regex_needs_nothing_newer_than_python_3_10(self):
        # possessive quantifiers and atomic groups arrived in Python 3.11
        unescaped = re.sub(r"\\.", "", lexer._MASTER.pattern)
        for syntax in ("*+", "++", "?+", "}+", "(?>"):
            assert syntax not in unescaped, syntax

    def test_escape_string_writes_the_four_escapes(self):
        assert lexer.escape_string('a\\b"c\nd\te\r') == '"a\\\\b\\"c\\nd\\te\r"'

    @settings(max_examples=200, deadline=None)
    @given(st.text() | st.text(alphabet='\\"nt\n\t x'))
    def test_escape_string_is_one_string_token_that_unescapes_to_its_value(self, value):
        literal = lexer.escape_string(value)
        tokens = tokenize(literal)
        assert (tokens.kinds, tokens.texts) == ([TokenKind.STRING], [literal])
        assert lexer.unescape_string(literal) == value

    def test_every_token_prefix_parses_or_raises_a_syntax_error(self):
        # a cut anywhere, e.g. right after "function f(" or "for (", is a syntax error, not a crash
        for end in tokenize(SAMPLE).ends:
            try:
                parse_source(SAMPLE[:end])
            except MiniSolSyntaxError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.text(alphabet=_MINISOL_CHARS) | _TOKEN_SOUP)
    def test_parse_source_returns_a_unit_or_raises_a_syntax_error(self, source):
        try:
            unit = parse_source(source)
        except MiniSolSyntaxError:
            return
        assert isinstance(unit, SourceUnit)
        for node in walk(unit):
            assert 0 <= node.span.start <= node.span.end <= len(source)


def test_grammar_doc_token_rows_match_lexer_tables():
    doc = (Path(__file__).parents[1] / "docs" / "minisol-grammar.md").read_text()

    def row(kind):
        return re.search(rf"^\| {kind} +\| `(.*)` +\|$", doc, re.M)[1].split()

    assert tuple(row("operator")) == OPERATORS
    assert "".join(row("punctuation")) == PUNCTUATION
    assert frozenset(re.search(r"^Keywords: `([^`]*)`", doc, re.M)[1].split()) == KEYWORDS


class TestParser:
    def test_require_statement_shape(self):
        unit = parse_source(
            "contract C { function f() public { require(msg.sender == owner); } }"
        )
        stmt = unit.contracts[0].functions[0].body[0]
        assert isinstance(stmt, RequireStmt)
        cond = stmt.condition
        assert isinstance(cond, BinaryExpr) and cond.op == "=="
        assert isinstance(cond.left, MemberAccess) and cond.left.member == "sender"
        assert isinstance(cond.right, Ident) and cond.right.name == "owner"

    def test_for_loop_with_transfer_body_shape(self):
        unit = parse_source(
            "contract C { address[] public arr; mapping(address => uint256) refunds;"
            " function f() public {"
            " for (uint i = 0; i < arr.length; i++) {"
            " payable(arr[i]).transfer(refunds[arr[i]]); } } }"
        )
        loop = unit.contracts[0].functions[0].body[0]
        assert isinstance(loop, ForStmt)
        assert isinstance(loop.init, VarDeclStmt)
        assert loop.init.var_type == ElementaryType("uint256")  # uint normalizes
        assert isinstance(loop.condition, BinaryExpr)
        length = loop.condition.right
        assert isinstance(length, MemberAccess) and length.member == "length"
        assert isinstance(loop.post, IncDecStmt)
        call = loop.body[0].expression
        assert isinstance(call, CallExpr)
        assert isinstance(call.callee, MemberAccess) and call.callee.member == "transfer"

    def test_unclosed_contract_reports_expected_brace(self):
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source("contract C {")
        assert any("expected '}'" in d.message for d in err.value.diagnostics)

    def test_recovery_reports_multiple_statement_errors(self):
        source = (
            "contract C { function f() public {"
            " uint256 x = ;"
            " y reassign 5;"
            " } }"
        )
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source(source)
        assert len(err.value.diagnostics) == 2

    @pytest.mark.parametrize("source, diagnostics", [
        # a bad member: the rest of the contract's members are not reported again
        ("contract C {\n    function f() public\n        x = 1;\n    }\n"
         "    function g() public {}\n    uint256 y;\n}\n",
         ["3:11: error: unsupported construct in function header: '='"]),
        # a bad contract header: the next contract's own error is still reported
        ("contract A\n    uint256 x;\n    function f() public { x = 1; }\n}\n"
         "contract B { uint256 y = ; }\n",
         ["2:5: error: expected '{', found 'uint256'", "5:26: error: expected expression, found ';'"]),
        ("contract {\n}\ncontract D { uint256 x = ; }\n",
         ["1:10: error: expected contract name, found '{'", "3:26: error: expected expression, found ';'"]),
        ("}}} contract C { uint256 x = ; }",
         ["1:1: error: expected 'contract', found '}'", "1:30: error: expected expression, found ';'"]),
        # a bad statement: the block's '}' still closes it
        ("contract C { function f() public { x = (1; y = 2; } function g() public { z = ; } }",
         ["1:42: error: expected ')', found ';'", "1:79: error: expected expression, found ';'"]),
        # a bad 'for' header is skipped whole: its own ';' and ')' are not statements
        ("contract C {\n    function f(uint256 n) public {\n"
         "        for (uint256 i = 0 i < n; i++) n = n - 1;\n        n = ;\n    }\n}\n",
         ["3:28: error: expected ';', found 'i'", "4:13: error: expected expression, found ';'"]),
        # a 'for' that lost its '(': its ')' still closes the header, so neither the
        # header's ';'s nor its ')' read as statements
        ("contract C {\n    function f(uint256 n) public {\n"
         "        for uint256 i = 0; i < n; i++) {\n            n = n - 1;\n        }\n"
         "        n = ;\n    }\n}\n",
         ["3:13: error: expected '(', found 'uint256'", "6:13: error: expected expression, found ';'"]),
        # a header that lost its ')': the body's '}' closes the open '(' with it and
        # ends the skip there, so the block's '}' is not swallowed
        ("contract C {\n    function f(uint256 n) public {\n"
         "        for (uint256 i = 0; i < n; i++ {\n            n = n - 1;\n        }\n"
         "        n = 0;\n        n = ;\n    }\n    function g() public { x = ; }\n}\n",
         ["3:40: error: expected ')', found '{'", "7:13: error: expected expression, found ';'",
          "9:31: error: expected expression, found ';'"]),
        # a bad header with a braced body ends at the body's '}', so the next statement's
        # error is reported; an 'else' after that '}' still belongs to the bad item
        ("contract C { function f(uint256 n) public { if (n n) { n = 1; } n = ; } }",
         ["1:51: error: expected ')', found 'n'", "1:69: error: expected expression, found ';'"]),
        ("contract C { function f(uint256 n) public { while (n n) { n = 1; } n = ; } }",
         ["1:54: error: expected ')', found 'n'", "1:72: error: expected expression, found ';'"]),
        ("contract C { function f(uint256 n) public { if (n n) { n = 1; } else { n = 2; } n = ; } }",
         ["1:51: error: expected ')', found 'n'", "1:85: error: expected expression, found ';'"]),
        # a lost '}': the next member ends the block, and each enclosing one, reported once
        ("contract C {\n    function f() public {\n        x = 1;\n\n    function g() public {}\n}\n",
         ["5:5: error: unsupported construct: 'function' inside a function body"]),
        ("contract C {\n    function f(bool c) public {\n        if (c) {\n            x = 1;\n\n"
         "    function g() public {}\n}\n",
         ["6:5: error: unsupported construct: 'function' inside a function body"]),
        # the price: a whole function inside a body leaves its holder's '}' over
        ("contract C { function f() public { function g() public {} } }",
         ["1:36: error: unsupported construct: 'function' inside a function body",
          "1:61: error: expected 'contract', found '}'"]),
    ], ids=["member", "contract-header", "contract-name", "stray-braces", "statement",
            "for-header", "for-lost-paren", "for-header-paren", "if-header", "while-header",
            "if-header-else", "lost-brace", "lost-braces", "function-in-body"])
    def test_recovery_resumes_at_the_bad_items_own_level(self, source, diagnostics):
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source(source)
        assert [str(d) for d in err.value.diagnostics] == diagnostics

    def test_number_literals_are_uint256_values(self):
        top = str(2**256 - 1)
        unit = parse_source(f"contract C {{ uint256[{top}] a; uint256 b = {'0' * 78}; uint256 c = {top}; }}")
        a, b, c = unit.contracts[0].state_vars
        assert (a.var_type.length, b.initializer.value, c.initializer.value) == (2**256 - 1, 0, 2**256 - 1)
        # one past the value or the length bound, and text past int()'s 4,300-digit limit
        for literal in (str(2**256), "0" * 79, "9" * 4301, "1" + "0" * 5000):
            for source in (f"contract C {{ uint256 x = {literal}; }}",
                           f"contract C {{ uint256[{literal}] x; }}",
                           f"contract C {{ function f() public {{ require(block.number > {literal}); }} }}"):
                with pytest.raises(MiniSolSyntaxError) as err:
                    parse_source(source)
                column = source.index(literal) + 1
                assert [str(d) for d in err.value.diagnostics] == [
                    f"1:{column}: error: number literal out of uint256 range"]

    def test_bad_function_header_is_reported_once(self):
        # the '{' of syncAlias() deleted: the intact setOwner is not reported
        source = (CORPUS / "alias_permission_clean.sol").read_text(encoding="utf-8")
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source(source.replace("syncAlias() public {", "syncAlias() public"))
        assert [str(d) for d in err.value.diagnostics] == [
            "6:22: error: unsupported construct in function header: '='"
        ]

    @settings(max_examples=150, deadline=1000)
    @given(st.data())
    def test_recovery_after_several_token_edits_ends_inside_the_source(self, data):
        # single deletions are pinned by tests/golden/deletion_diagnostics.txt
        source = data.draw(st.sampled_from(CORPUS_SOURCES))
        tokens = tokenize(source)
        edits = data.draw(st.lists(
            st.tuples(st.integers(0, len(tokens) - 1), st.booleans()),
            min_size=2, max_size=3, unique_by=lambda edit: edit[0],
        ))
        for i, duplicate in sorted(edits, reverse=True):  # later tokens first keeps offsets valid
            start, end = tokens.starts[i], tokens.ends[i]
            tail = source[start:end] + " " + source[start:] if duplicate else source[end:]
            source = source[:start] + tail
        try:
            parse_source(source)
        except MiniSolSyntaxError as err:
            lines = source.split("\n")
            for d in err.diagnostics:
                assert 1 <= d.line <= len(lines) and 1 <= d.column <= len(lines[d.line - 1]) + 1, d

    @pytest.mark.parametrize(
        "source", ["}", "contract C {\n    function} f() public {\n    }\n}\n"]
    )
    def test_stray_closing_brace_at_top_level_is_reported(self, source):
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source(source)
        assert err.value.diagnostics[-1].message.startswith("expected 'contract'")

    def test_unsupported_construct_is_an_honest_failure(self):
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source("contract C { struct S { uint256 a; } }")
        assert any("unsupported construct" in d.message for d in err.value.diagnostics)

    def test_nested_mapping_rejected(self):
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source("contract C { mapping(address => mapping(address => uint256)) m; }")
        assert any("single level" in d.message for d in err.value.diagnostics)

    def test_else_if_chain(self):
        unit = parse_source(
            "contract C { function f(uint256 x) public returns (uint256) {"
            " if (x > 2) { return 2; } else if (x > 1) { return 1; } else { return 0; } } }"
        )
        top = unit.contracts[0].functions[0].body[0]
        assert isinstance(top, IfStmt)
        assert isinstance(top.else_body[0], IfStmt)
        assert top.else_body[0].else_body is not None

    def test_parenthesized_operand_span_takes_in_its_parentheses(self):
        source = "contract C { uint256 x = ((1) + 2) * (a).b; }"
        init = parse_source(source).contracts[0].members[0].initializer

        def text(node):
            return source[node.span.start : node.span.end]

        assert text(init) == "((1) + 2) * (a).b"
        assert text(init.left) == "((1) + 2)"
        assert LineIndex(source).position(init.left.span.start) == (1, source.index("((") + 1)
        assert text(init.left.left) == "(1)"
        assert text(init.right) == "(a).b"
        assert text(init.right.obj) == "(a)"

    def test_spans_nest_and_siblings_are_ordered(self):
        unit = parse_source(SAMPLE, path="sample.sol")
        for node in walk(unit):
            kids = list(children(node))
            for kid in kids:
                assert node.span.start <= kid.span.start
                assert kid.span.end <= node.span.end
            for a, b in zip(kids, kids[1:]):
                assert a.span.end <= b.span.start

    def test_walk_of_a_5000_deep_tree_is_recursive_pre_order(self):
        tree = NumberLit(value=0)
        for i in range(1, 5001):
            tree = BinaryExpr(op="+", left=tree, right=NumberLit(value=i))

        def reference(node, out):
            out.append(node)
            for kid in children(node):
                reference(kid, out)
            return out

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 6000)
        try:
            expected = reference(tree, [])
        finally:
            sys.setrecursionlimit(limit)
        assert len(expected) == 10001
        assert [id(n) for n in walk(tree)] == [id(n) for n in expected]

    @pytest.mark.parametrize("first, second", [("address", "uint256"), ("uint256", "address")])
    def test_duplicate_state_variable_is_a_diagnostic_in_either_order(self, first, second):
        source = (f"contract C {{ {first} owner; {second} owner; function f() public {{"
                  " require(msg.sender == owner); } }")
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source(source)
        [diag] = err.value.diagnostics
        assert diag.message == "duplicate declaration of 'owner'"
        assert (diag.line, diag.column) == (1, source.index(f"{second} owner") + 1)

    @pytest.mark.parametrize("source, name, at", [
        ("contract C { uint256 f; function f() public {} }", "f", "function"),
        ("contract C { function f() public {} function f(uint256 x) public {} }", "f", "function f(uint"),
        ("contract C { function f(uint256 a, bool a) public {} }", "a", "bool"),
        ("contract C { function f() public { uint256 a; a = 1; bool a; } }", "a", "bool"),
        ("contract C { function f(bool b) public { if (b) { uint256 a; address a; } } }", "a", "address"),
    ], ids=["function-and-state-var", "functions", "params", "locals", "nested-block-locals"])
    def test_second_declaration_in_one_scope_is_a_diagnostic_at_its_first_token(self, source, name, at):
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source(source)
        [diag] = err.value.diagnostics
        assert diag.message == f"duplicate declaration of {name!r}"
        assert (diag.line, diag.column) == (1, source.rindex(at) + 1)

    @pytest.mark.parametrize("first, second", [
        ("contract A { uint256 x; }", "contract A { function f() public {} }"),
        ("contract A { function f() public {} }", "contract A { uint256 x; }"),
    ], ids=["state-var-first", "function-first"])
    def test_duplicate_contract_is_a_diagnostic_in_either_order(self, first, second):
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source(f"{first}\n{second}\n")
        assert [str(d) for d in err.value.diagnostics] == ["2:1: error: duplicate declaration of 'A'"]

    def test_same_name_in_different_scopes_is_not_a_duplicate(self):
        parse_source(
            "contract C { uint256 n; function f(uint256 a) public { uint256 n = a;"
            " if (a > 0) { uint256 n = 1; } for (uint256 i = 0; i < n; i++) { uint256 i = 2; }"
            " for (uint256 i = 0; i < n; i++) {} } function g(uint256 a) public { uint256 n; } }"
            " contract D { uint256 n; }"
        )

    def test_duplicate_declaration_does_not_hide_later_errors(self):
        with pytest.raises(MiniSolSyntaxError) as err:
            parse_source("contract C { uint256 a;\n uint256 a;\n function f() public { x = ; } }")
        assert [str(d) for d in err.value.diagnostics] == [
            "2:2: error: duplicate declaration of 'a'",
            "3:28: error: expected expression, found ';'",
        ]

    def test_end_of_input_is_where_the_last_token_ends(self):
        # after a string holding an escaped newline, the end is on the string's last line
        for source, at in [('contract C { string s = "a\\\nb"', "2:3"),
                           ('contract C { string s = "a\\\nb"\n\n  ', "2:3"),
                           ("contract C {", "1:13")]:
            with pytest.raises(MiniSolSyntaxError) as err:
                parse_source(source)
            assert str(err.value.diagnostics[-1]) == f"{at}: error: expected '}}'", source

    def test_parse_tokens_leaves_the_token_list_alone(self):
        for source in (SAMPLE, "contract C {", ""):
            tokens = tokenize(source)
            before = Tokens(*(list(column) for column in tokens._asdict().values()))
            try:
                parse_tokens(tokens, source)
            except MiniSolSyntaxError:
                pass
            assert tokens == before

    def test_every_identifier_resolves_or_is_free(self):
        unit = parse_source(SAMPLE)
        vault = unit.contracts[0]
        total, holders, balances = vault.state_vars[1:]
        sweep = vault.functions[1]
        acc, loop = sweep.body[:2]
        expected = {"msg": None, "total": total, "holders": holders, "balances": balances,
                    "cap": sweep.params[0], "acc": acc, "i": loop.init}
        idents = [n for n in walk(unit) if isinstance(n, Ident)]
        assert {i.name for i in idents} == set(expected)
        for ident in idents:
            assert ident.decl is expected[ident.name], ident.name

    def test_declarations_follow_block_scope(self):
        unit = parse_source(
            "contract C { uint256 n;\n"
            " function f() public { uint256 x = x; n = 1; uint256 n = x; n = 2; }\n"
            " function g() public { for (uint256 i = 0; i < 3; i++) { h(i); } i = 1; }\n"
            " function h(uint256 n) public { if (n > 0) { uint256 n = 1; n = 2; } n = 3; }\n"
            " function k(bool c) public { if (c) { uint256 n = 1; uint256 y = n; } else { n = y; } } }"
        )
        state_n = unit.contracts[0].state_vars[0]
        f, g, h, k = unit.contracts[0].functions

        def assert_decls(node, expected):  # by identity, in source order
            got = [i.decl for i in walk(node) if isinstance(i, Ident)]
            assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected)), got

        local_x, _, local_n, _ = f.body
        # an initializer cannot name its own variable; a local shadows the state variable
        assert_decls(f, [None, state_n, local_x, local_n])
        # a for-init variable is visible in the loop, not after it
        init = g.body[0].init
        assert_decls(g, [init, init, h, init, None])
        # a block's local ends with the block, and the parameter shows again
        param_n, inner_n = h.params[0], h.body[0].then_body[0]
        assert_decls(h, [param_n, inner_n, param_n])
        # an else body sees none of the then body's locals
        then_n = k.body[0].then_body[0]
        assert_decls(k, [k.params[0], then_n, state_n, None])


GOLDEN_REPR = Path(__file__).parent / "golden" / "nodes_repr.txt"
REPR_CORPUS = ("dos_loop_clean.sol", "alias_permission_dirty.sol")
# every node kind the two corpus files lack
REPR_EXTRA = """contract K {
    bool flag = true;
    function f(uint256 x) public {
        uint256 h = 0xff;
        if (!flag) { x = -x; } else { flag = false; }
        while (x > 0) { x--; }
        emit Done(x, h);
    }
}
"""


def _reference_children(node):
    """children() as it was before each class listed its child fields: every field is read."""
    out = []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(item for item in value if isinstance(item, Node))
    return out


def _repr_units():
    corpus = Path(__file__).parent / "corpus"
    units = [parse_source((corpus / name).read_text(), path=name) for name in REPR_CORPUS]
    return units + [parse_source(REPR_EXTRA, path="extra.sol")]


class TestNodeContract:
    def test_positional_and_keyword_construction_agree(self):
        positional = BinaryExpr("+", Ident("a"), NumberLit(1))
        keyword = BinaryExpr(op="+", left=Ident(name="a"), right=NumberLit(value=1))
        assert positional == keyword
        assert (positional.op, positional.left.name, positional.right.value) == ("+", "a", 1)
        fn = FunctionDef("f", [], "public", modifiers=["onlyOwner"])
        assert (fn.visibility, fn.mutability, fn.modifiers, fn.body) == ("public", None, ["onlyOwner"], [])

    @pytest.mark.parametrize("build", [
        lambda: Ident(nme="x"),
        lambda: BinaryExpr(op="+"),
        lambda: NumberLit(1, Span(0, 1)),
        lambda: SourceUnit([], "a.sol", "", Span(0, 1)),
        lambda: ElementaryType("uint256", name="uint256"),
    ], ids=["unknown-field", "missing-field", "positional-span", "positional-span-last", "duplicate"])
    def test_bad_construction_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_default_lists_are_fresh_per_instance(self):
        a, b = CallExpr(Ident("f")), CallExpr(Ident("f"))
        a.args.append(NumberLit(1))
        assert b.args == []
        f, g = FunctionDef("f"), FunctionDef("g")
        for name in ("params", "modifiers", "returns", "body"):
            assert getattr(f, name) is not getattr(g, name)
        assert SourceUnit().contracts is not SourceUnit().contracts
        assert IfStmt(BoolLit(True)).else_body is None

    def test_equality_ignores_span_binding_path_and_source(self):
        bound = Ident("x")
        bound.decl = VarDeclStmt(ElementaryType("uint256"), "x")
        assert NumberLit(1, span=Span(0, 1)) == NumberLit(1, span=Span(5, 6))
        assert bound == Ident("x")
        assert SourceUnit([], "a.sol", "x") == SourceUnit([], "b.sol", "y")
        assert NumberLit(1) != NumberLit(2)
        assert NumberLit(1) != HexLit(1)
        assert NumberLit(1) != 1
        assert SourceUnit([ContractDef("A")]) != SourceUnit([ContractDef("B")])

    def test_repr_skips_span_binding_and_source(self):
        bound = Ident("x", span=Span(0, 1))
        bound.decl = VarDeclStmt(ElementaryType("uint256"), "x")
        assert repr(bound) == "Ident(name='x')"
        assert children(bound) == []
        assert repr(SourceUnit([], "a.sol", "text")) == "SourceUnit(contracts=[], path='a.sol')"

    def test_nodes_are_records_reading_every_field_but_a_units_text(self):
        classes = Node.__subclasses__()
        assert issubclass(Node, Record) and len(classes) == 29
        for cls in classes:
            if cls is SourceUnit:
                assert (cls._compared, cls._shown) == (("contracts",), ("contracts", "path"))
            else:
                assert cls._compared == cls._shown == cls._fields

    def test_nodes_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Ident("x"))

    def test_children_follow_field_order(self):
        loop = ForStmt(None, BoolLit(True), None, [ExprStmt(Ident("a")), ExprStmt(Ident("b"))])
        assert children(loop) == [loop.condition, *loop.body]
        assert children(Ident("x")) == []

    def test_children_match_the_generic_reference_on_corpus_and_generated_units(self):
        corpus = Path(__file__).parent / "corpus"
        units = [parse_source(path.read_text()) for path in sorted(corpus.glob("*.sol"))]
        units += [_Gen(seed).unit() for seed in range(40)]
        assert len(units) == 54
        for unit in units:
            for node in walk(unit):
                assert [id(n) for n in children(node)] == [id(n) for n in _reference_children(node)]

    def test_repr_of_parsed_units_matches_golden(self):
        # one repr per line; record again only for an intended change of the repr format
        expected = GOLDEN_REPR.read_text(encoding="utf-8").splitlines()
        assert [repr(unit) for unit in _repr_units()] == expected


class TestPrinter:
    def test_empty_contract_canonical_form(self):
        unit = parse_source("contract C {      }")
        assert print_source(unit) == "contract C {\n}\n"

    def test_round_trip_on_sample(self):
        unit = parse_source(SAMPLE)
        assert parse_source(print_source(unit)) == unit

    def test_round_trip_on_corpus_files(self):
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        files = sorted(corpus.glob("*.sol"))
        assert len(files) >= 14
        for path in files:
            unit = parse_source(path.read_text(), path=path.name)
            assert parse_source(print_source(unit)) == unit, path.name

    @pytest.mark.parametrize(
        "source,printed",
        [
            ("a - (b - c)", "a - (b - c)"),
            ("(a - b) - c", "a - b - c"),
            ("a * (b + c)", "a * (b + c)"),
            ("(a * b) + c", "a * b + c"),
            ("!(a == b)", "!(a == b)"),
            ("-(a + b)", "-(a + b)"),
            ("a || b && c", "a || b && c"),
            ("(a || b) && c", "(a || b) && c"),
        ],
    )
    def test_minimal_parentheses_preserve_precedence(self, source, printed):
        wrapped = f"contract C {{ function f() public {{ x = {source}; }} }}"
        unit = parse_source(wrapped)
        stmt = unit.contracts[0].functions[0].body[0]
        from arbmigrate.minisol import print_expr

        assert print_expr(stmt.value) == printed
        again = parse_source(f"contract C {{ function f() public {{ x = {printed}; }} }}")
        assert again == unit

    @pytest.mark.parametrize(
        "body",
        [
            "x = " + " + ".join(["x"] * 5000) + ";",
            "x = a" + "[0]" * 3000 + ";",
            "a" + ".b" * 3000 + "();",
        ],
        ids=["plus-chain", "index-chain", "member-chain"],
    )
    def test_long_left_chains_print_and_reparse(self, body):
        # compares text: dataclass == on a 5000-deep tree would recurse too
        unit = parse_source(f"contract C {{ function f(uint256 x) public {{ {body} }} }}")
        printed = print_source(unit)
        assert print_source(parse_source(printed)) == printed
        assert body in printed


# --- random AST generator for the parse/print property ----------------------

_NAMES = ["alpha", "beta", "gamma", "delta", "omega", "warden", "pool", "item", "idx", "cursor"]
_ELEMENTARY = ["uint256", "address", "bool", "string"]


class _Gen:
    def __init__(self, seed):
        self.rng = random.Random(seed)

    def name(self):
        return self.rng.choice(_NAMES)

    def elementary(self):
        return ElementaryType(self.rng.choice(_ELEMENTARY))

    def typename(self, state_level=False):
        roll = self.rng.random()
        if roll < 0.6:
            return self.elementary()
        if roll < 0.85:
            length = self.rng.choice([None, self.rng.randint(1, 16)])
            return ArrayType(base=self.elementary(), length=length)
        if state_level:
            return MappingType(key=self.elementary(), value=self.elementary())
        return self.elementary()

    def expr(self, depth=0):
        if depth >= 3 or self.rng.random() < 0.35:
            return self.atom()
        roll = self.rng.random()
        if roll < 0.45:
            op = self.rng.choice(["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"])
            return BinaryExpr(op=op, left=self.expr(depth + 1), right=self.expr(depth + 1))
        if roll < 0.6:
            return UnaryExpr(op=self.rng.choice(["!", "-"]), operand=self.expr(depth + 1))
        if roll < 0.75:
            return MemberAccess(obj=self.expr(depth + 1) if self.rng.random() < 0.3 else self.atom(), member=self.name())
        if roll < 0.9:
            args = [self.expr(depth + 1) for _ in range(self.rng.randint(0, 3))]
            return CallExpr(callee=Ident(self.name()), args=args)
        return IndexAccess(obj=Ident(self.name()), index=self.expr(depth + 1))

    def atom(self):
        roll = self.rng.random()
        if roll < 0.3:
            return NumberLit(self.rng.randint(0, 10**9))
        if roll < 0.4:
            return HexLit(self.rng.randint(0, 2**64))
        if roll < 0.5:
            return AddressLit(self.rng.randint(0, 2**160 - 1))
        if roll < 0.6:
            return StringLit(self.rng.choice(["", "ok", 'say "hi"', "line\nbreak", "tab\tstop"]))
        if roll < 0.7:
            return BoolLit(self.rng.random() < 0.5)
        return Ident(self.name())

    def assignable(self):
        roll = self.rng.random()
        if roll < 0.5:
            return Ident(self.name())
        if roll < 0.75:
            return MemberAccess(obj=Ident(self.name()), member=self.name())
        return IndexAccess(obj=Ident(self.name()), index=self.expr(2))

    def stmt(self, depth, declared):
        roll = self.rng.random()
        if depth >= 2 or roll < 0.45:
            simple = self.rng.random()
            if simple < 0.3:
                init = self.expr(1) if self.rng.random() < 0.7 else None
                # a block declares a name once; a name of an enclosing scope may be reused
                name = self.rng.choice([n for n in _NAMES if n not in declared])
                declared.add(name)
                return VarDeclStmt(var_type=self.elementary(), name=name, initializer=init)
            if simple < 0.55:
                op = self.rng.choice(["=", "+=", "-=", "*=", "/=", "%="])
                return AssignStmt(target=self.assignable(), op=op, value=self.expr(1))
            if simple < 0.65:
                return IncDecStmt(target=Ident(self.name()), op=self.rng.choice(["++", "--"]))
            if simple < 0.8:
                msg = StringLit("nope") if self.rng.random() < 0.5 else None
                return RequireStmt(condition=self.expr(1), message=msg)
            if simple < 0.9:
                value = self.expr(1) if self.rng.random() < 0.7 else None
                return ReturnStmt(value=value)
            return ExprStmt(expression=CallExpr(callee=Ident(self.name()), args=[self.expr(2)]))
        if roll < 0.65:
            else_body = None
            if self.rng.random() < 0.5:
                else_body = self.body(depth + 1)
            return IfStmt(condition=self.expr(1), then_body=self.body(depth + 1), else_body=else_body)
        if roll < 0.8:
            init = VarDeclStmt(var_type=ElementaryType("uint256"), name="i", initializer=NumberLit(0))
            post = IncDecStmt(target=Ident("i"), op="++")
            return ForStmt(init=init, condition=self.expr(1), post=post, body=self.body(depth + 1))
        if roll < 0.9:
            return WhileStmt(condition=self.expr(1), body=self.body(depth + 1))
        return EmitStmt(call=CallExpr(callee=Ident(self.name().capitalize()), args=[self.expr(2)]))

    def body(self, depth):
        declared = set()
        return [self.stmt(depth, declared) for _ in range(self.rng.randint(0, 3))]

    def function(self, index):
        params = [
            Param(var_type=self.elementary(), name=f"p{i}")
            for i in range(self.rng.randint(0, 3))
        ]
        return FunctionDef(
            name=f"fn{index}",
            params=params,
            visibility=self.rng.choice([None, "public", "private", "internal", "external"]),
            mutability=self.rng.choice([None, "payable", "view", "pure"]),
            modifiers=[self.name() for _ in range(self.rng.randint(0, 2))],
            returns=[self.elementary() for _ in range(self.rng.randint(0, 2))],
            body=self.body(0),
        )

    def contract(self, index):
        members = []
        for i in range(self.rng.randint(0, 3)):
            var_type = self.typename(state_level=True)
            init = None
            if isinstance(var_type, ElementaryType) and self.rng.random() < 0.5:
                init = self.expr(1)
            members.append(
                StateVarDecl(
                    var_type=var_type,
                    visibility=self.rng.choice([None, "public", "private", "internal"]),
                    name=f"v{i}",
                    initializer=init,
                )
            )
        for i in range(self.rng.randint(0, 3)):
            members.append(self.function(i))
        return ContractDef(name=f"Gen{index}", members=members)

    def unit(self):
        return SourceUnit(contracts=[self.contract(i) for i in range(self.rng.randint(1, 3))])


@pytest.mark.parametrize("seed", range(40))
def test_parse_print_identity_on_random_asts(seed):
    unit = _Gen(seed).unit()
    printed = print_source(unit)
    reparsed = parse_source(printed)
    assert reparsed == unit, printed


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_one_deleted_brace_sets_off_at_most_one_expected_contract(seed, data):
    # A bad item resyncs inside its own list, so only a lost '{' can let a '}'
    # close its contract early, and then the next member alone reads "expected
    # 'contract'". In these programs a deletion of any other token sets off none.
    source = print_source(_Gen(seed).unit())
    tokens = tokenize(source)
    braces = [i for i, text in enumerate(tokens.texts) if text in ("{", "}")]
    i = data.draw(st.sampled_from(braces))
    try:
        parse_source(source[:tokens.starts[i]] + source[tokens.ends[i]:])
    except MiniSolSyntaxError as err:
        follow_ons = [d for d in err.diagnostics[1:] if d.message.startswith("expected 'contract'")]
        assert len(follow_ons) <= (tokens.texts[i] == "{"), [str(d) for d in err.diagnostics]
