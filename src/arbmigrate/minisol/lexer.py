"""Table-driven tokenizer for MiniSol.

One master regex is built from the token table of docs/minisol-grammar.md;
each match skips the whitespace and comments before one token, and then the
first row that matches wins.  Positions are tracked through the skipped
text, so every token knows its byte offset and 1-based line/column (tabs
count as one column).  A token's ``text`` is the exact source slice, i.e.
``source[tok.offset : tok.offset + len(tok.text)] == tok.text``.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    HEX = "hex"
    ADDRESS = "address"
    STRING = "string"
    PUNCT = "punctuation"
    OPERATOR = "operator"


class Diagnostic(NamedTuple):
    """A syntax error at a 1-based line and column."""

    message: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class MiniSolSyntaxError(Exception):
    """Raised when tokenizing or parsing fails; carries every diagnostic found."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int
    offset: int


KEYWORDS = frozenset(
    {
        "contract", "function", "returns", "require", "if", "else", "for",
        "while", "emit", "return", "mapping",
        "uint256", "uint", "address", "bool", "string",
        "public", "private", "internal", "external",
        "payable", "view", "pure",
        "memory", "calldata", "storage",
        "true", "false",
    }
)

# Longest first so e.g. '==' wins over '='.
OPERATORS = (
    "||", "&&", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=",
    "++", "--", "=>", "<", ">", "+", "-", "*", "/", "%", "!", "=",
)

PUNCTUATION = "(){}[];,."

# What lies between tokens: whitespace and comments.  Each match of the
# master regex takes the gap in front of its token, so a gap costs no match
# of its own.
_GAP = r"[ \t\r\n]+|//[^\n]*|/\*.*?\*/"

# The grammar's token table in match order.  Each error row comes right
# after the row whose malformed form it catches, before a shorter row ('/'
# or '0') can claim the prefix; ILLEGAL takes any character left over.
_ROWS = (
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
# Row i is group i + 1.  The gap always stops where some row or the end of
# input (\Z) matches, so the engine never backtracks into it; without the \Z
# arm, a trailing comment would be rescanned as tokens.
_MASTER = re.compile(
    f"(?:{_GAP})*(?:" + "|".join(f"({pattern})" for _, pattern in _ROWS) + r"|\Z)", re.DOTALL
)
_ROW_NAMES = (None, *(name for name, _ in _ROWS))
# The token kind of each group number; None for an error row.
_ROW_KINDS = tuple(TokenKind[name] if name in TokenKind.__members__ else None for name in _ROW_NAMES)
_ERRORS = {
    "OPEN_COMMENT": "unterminated block comment",
    "LONE_QUOTE": "unterminated string literal",
    "BARE_HEX": "hex literal needs at least one digit",
}


def tokenize(source: str) -> list[Token]:
    """Tokenize; raises MiniSolSyntaxError listing every lexical error."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    append, new, kinds = tokens.append, tuple.__new__, _ROW_KINDS
    identifier, keyword, hex_kind = TokenKind.IDENTIFIER, TokenKind.KEYWORD, TokenKind.HEX
    line, line_start, last = 1, 0, 0
    for m in _MASTER.finditer(source):
        row = m.lastindex
        if row is None:  # only a gap was left before the end of input
            break
        offset = m.start(row)
        # newlines since the last token's start: in its text (a string may
        # hold an escaped one) or in the gap
        newlines = source.count("\n", last, offset)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", last, offset) + 1
        last = offset
        text = m.group(row)
        kind = kinds[row]
        if kind is identifier:
            if text in KEYWORDS:
                kind = keyword
        elif kind is hex_kind:
            if len(text) == 42:
                kind = TokenKind.ADDRESS
        elif kind is None:
            name = _ROW_NAMES[row]
            message = _ERRORS.get(name) or f"illegal character {text!r}"
            diagnostics.append(Diagnostic(message, line, offset - line_start + 1))
            if name == "OPEN_COMMENT":
                break
            continue
        append(new(Token, (kind, text, line, offset - line_start + 1, offset)))

    if diagnostics:
        raise MiniSolSyntaxError(diagnostics)
    return tokens


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def unescape_string(text: str) -> str:
    """Literal text (with quotes) -> value. Supports \\\\ \\" \\n \\t."""
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), text[1:-1])
