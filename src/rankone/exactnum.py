"""Exact rational scalars and the canonical interval-set type.

Every quantity in this package (heights, flow times, measures) is a
``fractions.Fraction``; nothing in this module ever rounds.  Sets of reals
are finite disjoint unions of half-open intervals ``[lo, hi)``.  The one
constructor sorts and merges its intervals, so every set holds the canonical
form by construction and set equality is representation equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

Rat = Fraction


def rat(value: int | Fraction) -> Rat:
    """Coerce an int or a Fraction to an exact rational; anything else,
    bools (which Python counts as ints), floats and strings included,
    raises TypeError.  Text is read by ``construction.read_rat``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot build a rational from {value!r}")


def rat_str(x: Rat) -> str:
    """Canonical 'p/q' serialization (always carries the denominator)."""
    return f"{x.numerator}/{x.denominator}"


def denominator_lcm(values: Iterable[Rat]) -> int:
    out = 1
    for v in values:
        out = lcm(out, v.denominator)
    return out


def merge_sorted(pieces: Iterable[tuple]) -> Iterator[tuple]:
    """The disjoint, non-touching runs covering the half-open intervals
    [a, b) of ``pieces``, which come sorted by ``a``; empty pieces drop.

    The runs are yielded as they close, so a caller that consumes them in
    order never holds more than the run being extended."""
    start = end = None
    for a, b in pieces:
        if a >= b:
            continue
        if end is None:
            start, end = a, b
        elif a > end:
            yield start, end
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        yield start, end


class IntervalSet:
    """A finite union of half-open rational intervals [lo, hi).

    Canonical form: intervals sorted ascending, pairwise disjoint and
    non-adjacent (touching intervals are merged), no empty intervals.
    Two IntervalSets denote the same point set iff they compare equal.
    """

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[tuple[Rat, Rat]] = ()):
        pairs = sorted((rat(lo), rat(hi)) for lo, hi in intervals)
        self._ivs: tuple[tuple[Rat, Rat], ...] = tuple(merge_sorted(pairs))

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

    def envelope(self) -> tuple[Rat, Rat] | None:
        if not self._ivs:
            return None
        return self._ivs[0][0], self._ivs[-1][1]

    def to_pairs(self) -> list[list[str]]:
        return [[rat_str(lo), rat_str(hi)] for lo, hi in self._ivs]
