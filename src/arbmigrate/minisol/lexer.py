"""Table-driven tokenizer for MiniSol.

One master regex is built from the token table of docs/minisol-grammar.md;
at each position the first row that matches wins.  Whitespace and comments
are skipped but positions are tracked, so every token knows its byte offset
and 1-based line/column (tabs count as one column).  A token's ``text`` is
the exact source slice, i.e.
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


class Severity(Enum):
    ERROR = "error"


class Diagnostic(NamedTuple):
    message: str
    line: int
    column: int
    severity: Severity = Severity.ERROR

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity.value}: {self.message}"


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

# The grammar's token table in match order.  Each error row comes right
# after the row whose malformed form it catches, before a shorter row ('/'
# or '0') can claim the prefix; ILLEGAL takes any character left over.
_ROWS = (
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
_MASTER = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _ROWS), re.DOTALL)
_KINDS = {name: TokenKind[name] for name in ("STRING", "HEX", "NUMBER", "IDENTIFIER", "OPERATOR", "PUNCT")}
_ERRORS = {
    "OPEN_COMMENT": "unterminated block comment",
    "LONE_QUOTE": "unterminated string literal",
    "BARE_HEX": "hex literal needs at least one digit",
}


def tokenize(source: str) -> list[Token]:
    """Tokenize; raises MiniSolSyntaxError listing every lexical error."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0
    for m in _MASTER.finditer(source):
        row, text, offset = m.lastgroup, m.group(), m.start()
        kind = _KINDS.get(row)
        if kind is TokenKind.IDENTIFIER and text in KEYWORDS:
            kind = TokenKind.KEYWORD
        elif kind is TokenKind.HEX and len(text) == 42:
            kind = TokenKind.ADDRESS
        if kind is not None:
            tokens.append(Token(kind, text, line, offset - line_start + 1, offset))
        elif row != "SKIP":
            message = _ERRORS.get(row) or f"illegal character {text!r}"
            diagnostics.append(Diagnostic(message, line, offset - line_start + 1))
            if row == "OPEN_COMMENT":
                break
        if "\n" in text:
            line += text.count("\n")
            line_start = offset + text.rindex("\n") + 1

    if diagnostics:
        raise MiniSolSyntaxError(diagnostics)
    return tokens


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def unescape_string(text: str) -> str:
    """Literal text (with quotes) -> value. Supports \\\\ \\" \\n \\t."""
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), text[1:-1])
