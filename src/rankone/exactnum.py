"""Exact rational scalars and one-dimensional interval-set algebra.

Every quantity in this package (heights, flow times, measures) is a
``fractions.Fraction``; nothing in this module ever rounds.  Sets of reals
are finite disjoint unions of half-open intervals ``[lo, hi)`` kept in a
canonical sorted, merged form, so set equality is representation equality.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import NonPositiveScale

Rat = Fraction


def rat(value: int | str | Fraction) -> Rat:
    """Coerce ints, Fractions or 'p/q' strings to an exact rational.

    Malformed strings, a zero denominator included, raise ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot build a rational from {value!r}")


def rat_str(x: Rat) -> str:
    """Canonical 'p/q' serialization (always carries the denominator)."""
    return f"{x.numerator}/{x.denominator}"


def denominator_lcm(values: Iterable[Rat]) -> int:
    out = 1
    for v in values:
        out = lcm(out, v.denominator)
    return out


class IntervalSet:
    """A finite union of half-open rational intervals [lo, hi).

    Canonical form: intervals sorted ascending, pairwise disjoint and
    non-adjacent (touching intervals are merged), no empty intervals.
    Two IntervalSets denote the same point set iff they compare equal.
    """

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[tuple[Rat, Rat]] = ()):
        pairs = sorted((rat(lo), rat(hi)) for lo, hi in intervals)
        merged: list[tuple[Rat, Rat]] = []
        for lo, hi in pairs:
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                last_lo, last_hi = merged[-1]
                if hi > last_hi:
                    merged[-1] = (last_lo, hi)
            else:
                merged.append((lo, hi))
        self._ivs: tuple[tuple[Rat, Rat], ...] = tuple(merged)

    @classmethod
    def _wrap(cls, canonical: tuple[tuple[Rat, Rat], ...]) -> "IntervalSet":
        out = object.__new__(cls)
        out._ivs = canonical
        return out

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls._wrap(())

    @classmethod
    def single(cls, lo, hi) -> "IntervalSet":
        return cls(((lo, hi),))

    @property
    def intervals(self) -> tuple[tuple[Rat, Rat], ...]:
        return self._ivs

    def __iter__(self) -> Iterator[tuple[Rat, Rat]]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __bool__(self) -> bool:
        return bool(self._ivs)

    def is_empty(self) -> bool:
        return not self._ivs

    @property
    def total_length(self) -> Rat:
        return sum((hi - lo for lo, hi in self._ivs), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        body = ", ".join(f"[{lo}, {hi})" for lo, hi in self._ivs)
        return f"IntervalSet({{{body}}})"

    def contains(self, t) -> bool:
        t = rat(t)
        i = bisect_right(self._ivs, t, key=lambda iv: iv[0]) - 1
        return i >= 0 and self._ivs[i][0] <= t < self._ivs[i][1]

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not other:
            return self
        if not self:
            return other
        return IntervalSet(self._ivs + other._ivs)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple[Rat, Rat]] = []
        a, b = self._ivs, other._ivs
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet._wrap(tuple(out))

    def translate(self, t) -> "IntervalSet":
        t = rat(t)
        return IntervalSet._wrap(tuple((lo + t, hi + t) for lo, hi in self._ivs))

    def scale(self, r) -> "IntervalSet":
        r = rat(r)
        if r <= 0:
            raise NonPositiveScale(f"scale factor must be positive, got {r}")
        return IntervalSet._wrap(tuple((lo * r, hi * r) for lo, hi in self._ivs))

    def envelope(self) -> tuple[Rat, Rat] | None:
        if not self._ivs:
            return None
        return self._ivs[0][0], self._ivs[-1][1]

    def to_pairs(self) -> list[list[str]]:
        return [[rat_str(lo), rat_str(hi)] for lo, hi in self._ivs]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[str]]) -> "IntervalSet":
        return cls((rat(lo), rat(hi)) for lo, hi in pairs)
