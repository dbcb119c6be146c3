"""Table-driven tokenizer for MiniSol.

One master regex is built from the token table of docs/minisol-grammar.md;
each match takes the whitespace and comments before one token, and then the
first row that matches wins.  Tokens are parallel lists of kinds, texts and
byte offsets, with ``source[start:end] == text``; :class:`LineIndex` finds
the 1-based line/column of an offset (tabs count as one column) only when a
diagnostic or a finding needs one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum
from itertools import accumulate, chain
from typing import NamedTuple

from .._record import Record


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


class Tokens(Record):
    """The tokens of one source as parallel lists; ``len`` counts the tokens."""

    def __init__(self, kinds: list[TokenKind], texts: list[str], starts: list[int],
                 ends: list[int]):
        self.kinds, self.texts, self.starts, self.ends = kinds, texts, starts, ends

    def __len__(self) -> int:
        return len(self.texts)


class LineIndex:
    """The 1-based line and column of offsets into one source, from line starts
    found on the first lookup."""

    def __init__(self, source: str):
        self.source = source
        self._starts: list[int] | None = None

    def position(self, offset: int) -> tuple[int, int]:
        if self._starts is None:
            self._starts = [0, *(m.end() for m in re.finditer("\n", self.source))]
        line = bisect_right(self._starts, offset)
        return line, offset - self._starts[line - 1] + 1


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

# The grammar's token table in match order, each row with its token kind or,
# for an error row, its message ({!r} stands for the text).  Each error row
# comes right after the row whose malformed form it catches, before a shorter
# row ('/' or '0') can claim the prefix; the last row takes any other character.
_ROWS = (
    (r"/\*", "unterminated block comment"),
    (r'"(?:\\.|[^"\\\n])*"', TokenKind.STRING),
    (r'"', "unterminated string literal"),
    (r"0[xX][0-9a-fA-F]+", TokenKind.HEX),
    (r"0[xX]", "hex literal needs at least one digit"),
    (r"[0-9]+", TokenKind.NUMBER),
    (r"[A-Za-z_][A-Za-z0-9_]*", TokenKind.IDENTIFIER),
    ("|".join(map(re.escape, OPERATORS)), TokenKind.OPERATOR),
    (f"[{re.escape(PUNCTUATION)}]", TokenKind.PUNCT),
    (r".", "illegal character {!r}"),
)
# Group 1 is the gap, group 2 the token.  The gap always stops where some row
# or the end of input (\Z, an empty token) matches, so the engine never
# backtracks into it; without the \Z arm, a trailing comment would be
# rescanned as tokens.
_MASTER = re.compile(
    f"((?:{_GAP})*)(" + "|".join(f"(?:{pattern})" for pattern, _ in _ROWS) + r"|\Z)", re.DOTALL
)
# Keywords, operators and punctuation: the texts whose kind the grammar fixes.
_FIXED_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    **dict.fromkeys(OPERATORS, TokenKind.OPERATOR),
    **dict.fromkeys(PUNCTUATION, TokenKind.PUNCT),
}
# The operator and punctuation rows match fixed texts only; the other rows
# classify every other token's text: row i is group i + 1, and a row that
# failed where the token stands fails on its text too, so the same row wins.
_OTHER_ROWS = [row for row in _ROWS if row[1] not in (TokenKind.OPERATOR, TokenKind.PUNCT)]
_ROW = re.compile("|".join(f"({pattern})" for pattern, _ in _OTHER_ROWS), re.DOTALL)
_ROW_KINDS = (None, *(kind for _, kind in _OTHER_ROWS))


def _kind(text: str) -> TokenKind | str:
    """The kind of a text with no fixed kind, or the message of its error row."""
    kind = _ROW_KINDS[_ROW.match(text).lastindex]
    if isinstance(kind, str):
        return kind.format(text)
    return TokenKind.ADDRESS if kind is TokenKind.HEX and len(text) == 42 else kind


def tokenize(source: str) -> Tokens:
    """Tokenize; raises MiniSolSyntaxError listing every lexical error."""
    pairs = _MASTER.findall(source)
    while pairs and not pairs[-1][1]:  # the end-of-input matches
        pairs.pop()
    texts = [text for _, text in pairs]
    bounds = list(accumulate(map(len, chain.from_iterable(pairs))))
    # each distinct text without a fixed kind is classified once per call
    found = {text: _kind(text) for text in set(texts).difference(_FIXED_KINDS)}
    kinds = list(map({**_FIXED_KINDS, **found}.__getitem__, texts))
    starts = bounds[0::2]
    if any(isinstance(kind, str) for kind in found.values()):
        lines, diagnostics = LineIndex(source), []
        for message, text, start in zip(kinds, texts, starts):
            if isinstance(message, str):
                diagnostics.append(Diagnostic(message, *lines.position(start)))
                if text == "/*":  # unterminated: the rest of the input is the comment
                    break
        raise MiniSolSyntaxError(diagnostics)
    return Tokens(kinds, texts, starts, bounds[1::2])


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
# The string escapes: the character after a backslash -> the one it stands
# for.  Any other escaped character stands for itself when read.
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_ESCAPED = str.maketrans({value: "\\" + key for key, value in _ESCAPES.items()})


def unescape_string(text: str) -> str:
    """Literal text (with quotes) -> value. Supports \\\\ \\" \\n \\t."""
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), text[1:-1])


def escape_string(value: str) -> str:
    """Value -> literal text (with quotes); the inverse of unescape_string."""
    return '"' + value.translate(_ESCAPED) + '"'
