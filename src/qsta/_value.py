"""The base of the package's value types.

A value class names its fields, in constructor order, as its ``__slots__``
and sets them in its own ``__init__``; a frozen class sets them through
``set_field``.  ``Value`` derives the rest from the fields, with no code
generated at import: two values are equal when they have the same class and
equal fields, a value hashes as the tuple of its fields, its repr is
``Name(field=value, ...)``, and copy and pickle rebuild it through its
constructor.  A frozen class refuses assignment and deletion with
``AttributeError``; a class declared with ``frozen=False`` allows both and
is unhashable.  A class may spell out a method itself, as the hot ones do
for speed.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, ClassVar, Tuple

__all__ = ["Value", "set_field"]

set_field = object.__setattr__


def _refuse_assignment(self: Any, name: str, value: Any) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self: Any, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


class Value:
    __slots__ = ()
    _astuple: ClassVar[Callable[[Any], Tuple[Any, ...]]]

    def __init_subclass__(cls, frozen: bool = True, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        get = attrgetter(*fields)
        cls._astuple = staticmethod(lambda value: (get(value),)) if len(fields) == 1 else get
        if frozen:
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
        else:
            cls.__hash__ = None  # type: ignore[assignment]

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
