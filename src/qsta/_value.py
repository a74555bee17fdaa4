"""The base of the package's value types.

A value class names its fields, in constructor order, as its ``__slots__``
and sets them in its own ``__init__`` through ``set_field``.  ``Value``
derives the rest from the fields, with no code generated at import: two
values are equal when they have the same class and equal fields, a value
hashes as the tuple of its fields, its repr is ``Name(field=value, ...)``,
copy and pickle rebuild it through its constructor, and assignment and
deletion raise ``AttributeError``.  Every value is frozen.  No class
writes its own ``__hash__``, and only ``Qcsp`` its own ``__eq__``: the
search compares interned signatures by identity, so one pass of each
benchmark workload calls these methods about 1 000 (corpus), 6 300
(generated) and 0 (networks) times, and 20 fallback decisions about
19 000 times, none on ``FtmNode``.  A hand-written method saves about
140 ns a call (Python 3.11, 2-vCPU VM), a few percent of fallback's and
generated's time at most: ten benchmark pairs of this design against
hand-written hot methods read 4% on each, within the benchmark's bounds.

Constructors stay hand-written: one generic ``Value.__init__`` in place of
18 of them, 86 lines fewer, read over 3 alternating 8 s benchmark pairs
``generated``'s median instance at 0.0772-0.0799 ms, not 0.0743-0.0752
(+5%; +16% with keyword arguments at the hot call sites), and ``corpus``
at 1 395-1 440 instances/s, not 1 484-1 508 (-5%).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, ClassVar, Tuple

__all__ = ["Value", "set_field"]

set_field = object.__setattr__


class Value:
    __slots__ = ()
    _astuple: ClassVar[Callable[[Any], Tuple[Any, ...]]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        get = attrgetter(*fields)
        cls._astuple = staticmethod(lambda value: (get(value),)) if len(fields) == 1 else get

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self) -> Tuple[type, Tuple[Any, ...]]:
        return self.__class__, self._astuple(self)
