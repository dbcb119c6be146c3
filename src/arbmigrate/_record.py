"""Plain record classes for the simulators and the MiniSol AST, defined
without generated code, and the JSON writer of both halves.

A record class declares its fields once, in order, as the positional
parameters of its ``__init__``; ``==``, repr and ``_asdict`` read that tuple.
Keyword-only parameters and attributes set anywhere else are not fields.

``quote`` and ``dump_json`` write what ``json.dumps`` does (``indent=2,
sort_keys=True``), so a command that only writes JSON never imports ``json``.
"""


class Record:
    """Field-wise ``==`` within the exact class and a dataclass-style repr; unhashable."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _asdict(self) -> dict:
        """The fields in declaration order, as a new dict."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = [getattr(self, name) for name in self._fields]
        return mine == [getattr(other, name) for name in self._fields]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record whose ``__init__`` fills ``vars(self)``: assignment raises, equal ones hash equal."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))


# every ASCII character that json.dumps escapes
_ESCAPES = str.maketrans({**{chr(n): f"\\u{n:04x}" for n in (*range(0x20), 0x7F)}, '"': '\\"',
                          "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t", "\b": "\\b", "\f": "\\f"})
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _escape(char: str) -> str:
    """A non-ASCII character as json escapes it: one \\uXXXX, or a surrogate pair above U+FFFF."""
    n = ord(char)
    if n > 0xFFFF:
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return f"\\u{n:04x}"


def quote(text: str) -> str:
    """text as the JSON string json.dumps(text) writes: ASCII, everything else escaped."""
    if not (text.isascii() and text.isprintable()) or '"' in text or "\\" in text:
        text = text.translate(_ESCAPES)
        if not text.isascii():
            text = "".join(char if char < "\x80" else _escape(char) for char in text)
    return f'"{text}"'


def dump_json(value: object, indent: str = "") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, for str keys;
    indent is the margin of the line value starts on."""
    if isinstance(value, str):
        return quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (int, float)):  # as json writes them: int's or float's repr, or a word
        text = (int if isinstance(value, int) else float).__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [dump_json(item, inner) for item in value]
    elif isinstance(value, dict):
        brackets, items = "{}", [f"{quote(key)}: {dump_json(item, inner)}" for key, item in sorted(value.items())]
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"
