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
benchmark workload (seed 1) calls these methods about 420 (corpus), 2 400
(generated) and 0 (networks) times, and 20 fallback decisions about
14 000 times, none on ``FtmNode``.  A hand-written method saves about
140 ns a call (Python 3.11, 2-vCPU VM), a few percent of fallback's and
generated's time at most: ten benchmark pairs of this design against
hand-written hot methods read 4% on each, within the benchmark's bounds.

A field is set through ``set_field`` (``object.__setattr__``), about
110 ns a call.  A class with four or more fields also gets an open twin,
``cls._open``: a subclass that adds no slots and stores attributes
plainly, and its constructor moves ``self`` there with one
``set_field(self, "__class__", self._open)``, assigns the fields and
moves it back, so no value is ever seen open.  That costs about 300 ns
whatever the field count: ``SearchStats(1, 2, 3, False)`` takes 294 ns,
not 475, and ``Decision(False, stats=None)`` 424 ns, not 616 (Python
3.11, 2-vCPU VM).  Below four fields the two moves cost as much as they
save, so a smaller class gets no twin: twins for all 26 classes, not the
seven with four or more fields, made ``import qsta`` about 0.2 ms (1%)
slower.

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
    _open: ClassVar[type]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        if not fields:  # an open twin
            return
        get = attrgetter(*fields)
        cls._astuple = staticmethod(lambda value: (get(value),)) if len(fields) == 1 else get
        if len(fields) < 4:
            return
        # Both methods come from object, or stores take the slow generic path.
        namespace = {
            "__slots__": (),
            "__setattr__": object.__setattr__,
            "__delattr__": object.__delattr__,
        }
        cls._open = type(cls.__name__, (cls,), namespace)

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
