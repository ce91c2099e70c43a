"""Nonnegative integers extended with a single infinity.

Distances of trivial homology groups are infinite by the empty-minimum
convention, and bound formulas multiply and minimize values that may be
infinite, so infinity is a first-class value rather than a sentinel.
"""

from __future__ import annotations

from functools import total_ordering


@total_ordering
class ExtNat:
    """A nonnegative integer or infinity, with min/product arithmetic.

    ``finite * infinity == infinity`` and ``min(x, infinity) == x``.
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None = None):
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"not a nonnegative integer: {value!r}")
        self._value = value

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def finite_value(self) -> int:
        if self._value is None:
            raise ValueError("value is infinite")
        return self._value

    def __mul__(self, other) -> "ExtNat":
        other = as_extnat(other)
        if self._value is None or other._value is None:
            return ExtNat(None)
        return ExtNat(self._value * other._value)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = ExtNat(other) if other >= 0 else None
            if other is None:
                return False
        if not isinstance(other, ExtNat):
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = ExtNat(other)
        if not isinstance(other, ExtNat):
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return "ExtNat(inf)" if self._value is None else f"ExtNat({self._value})"


INFINITY = ExtNat(None)


def as_extnat(x) -> ExtNat:
    if isinstance(x, ExtNat):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return ExtNat(x)
    raise TypeError(f"cannot interpret {x!r} as an extended natural")
