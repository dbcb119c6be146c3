"""Plain record classes for the simulators and the MiniSol AST, defined
without generated code.

A record class declares its fields once, in order, as the positional
parameters of its ``__init__``; ``==``, repr and ``_asdict`` read that tuple.
Keyword-only parameters and attributes set anywhere else are not fields.  A
class may narrow the fields ``==`` compares (``_compared``) and those repr
shows (``_shown``) in its body; by default both are every field.
"""


class Record:
    """Field-wise ``==`` within the exact class and a dataclass-style repr; unhashable."""

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._compared = vars(cls).get("_compared", cls._fields)
        cls._shown = vars(cls).get("_shown", cls._fields)

    def _asdict(self) -> dict:
        """The fields in declaration order, as a new dict."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = [getattr(self, name) for name in self._compared]
        return mine == [getattr(other, name) for name in self._compared]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record whose ``__init__`` fills ``vars(self)``: assignment raises, equal ones hash equal."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))
