from fractions import Fraction as F
from math import ceil, floor, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.construction import read_list, read_rat
from rankone.exactnum import IntervalSet, rat, rat_str

from reference import (
    NonPositiveScale,
    contains,
    intersect,
    scale,
    translate,
    union,
)


def grid_set(pairs, lo, hi, denom):
    """Brute-force membership of a half-open union on the grid k/denom.

    When denom clears every endpoint denominator, reconstructing runs of
    member grid points recovers the set exactly.
    """
    hits = []
    for k in range(int(lo * denom), int(hi * denom)):
        t = F(k, denom)
        if any(a <= t < b for a, b in pairs):
            hits.append(k)
    runs = []
    for k in hits:
        if runs and runs[-1][1] == k:
            runs[-1] = (runs[-1][0], k + 1)
        else:
            runs.append((k, k + 1))
    return IntervalSet((F(a, denom), F(b, denom)) for a, b in runs)


def common_denom(*sets):
    d = 1
    for s in sets:
        for lo, hi in s:
            d = lcm(d, lo.denominator, hi.denominator)
    return d


class TestRat:
    def test_parse_and_format(self):
        assert read_rat("3/2") == F(3, 2)
        assert read_rat("5") == F(5)
        assert rat(7) == F(7) and type(rat(7)) is F
        assert rat(F(3, 2)) == F(3, 2)
        assert rat_str(F(3, 2)) == "3/2"
        assert rat_str(F(5)) == "5/1"
        assert read_rat(rat_str(F(-7, 3))) == F(-7, 3)

    @pytest.mark.parametrize("text", ["1/0", "-3/00", "x"])
    def test_malformed_string_raises_value_error(self, text):
        with pytest.raises(ValueError, match="expected a 'p/q' string"):
            read_rat(text)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_raises_type_error(self, flag):
        with pytest.raises(TypeError):
            rat(flag)

    @pytest.mark.parametrize("value", ["3/2", "5", "1/0", "x", 1.5, 2.0])
    def test_string_and_float_raise_type_error(self, value):
        """``rat`` reads no text; strings go through ``read_rat``."""
        with pytest.raises(TypeError, match="cannot build a rational from"):
            rat(value)


class TestIntervalSetExamples:
    def test_adjacent_merge(self):
        assert union(IntervalSet([(0, 1)]), IntervalSet([(1, 2)])) == IntervalSet(
            [(0, 2)]
        )

    def test_union_identity(self):
        assert union(IntervalSet([(0, 1)]), IntervalSet()) == IntervalSet([(0, 1)])

    def test_union_overlap_against_grid_oracle(self):
        a, b = IntervalSet([(0, 2)]), IntervalSet([(1, 3)])
        expected = grid_set([(F(0), F(2)), (F(1), F(3))], 0, 4, 2)
        assert union(a, b) == expected == IntervalSet([(0, 3)])

    def test_intersect_basic(self):
        assert intersect(IntervalSet([(0, 2)]), IntervalSet([(1, 3)])) == IntervalSet(
            [(1, 2)]
        )
        assert intersect(IntervalSet([(0, 1)]), IntervalSet([(2, 3)])).is_empty()

    def test_intersect_against_grid_oracle(self):
        a = IntervalSet([(0, 1), (2, 4)])
        b = IntervalSet([(3, 5)])
        got = intersect(a, b)
        denom = 2 * common_denom(a, b)
        grid = grid_set(
            [
                (max(alo, blo), min(ahi, bhi))
                for alo, ahi in a
                for blo, bhi in b
                if max(alo, blo) < min(ahi, bhi)
            ],
            0,
            6,
            denom,
        )
        assert got == grid == IntervalSet([(3, 4)])

    def test_translate_scale(self):
        assert translate(IntervalSet([(0, 1)]), 5) == IntervalSet([(5, 6)])
        assert scale(IntervalSet([(2, 4)]), F(1, 2)) == IntervalSet([(1, 2)])
        assert scale(translate(IntervalSet([(0, 2)]), 1), 3) == IntervalSet([(3, 9)])

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(NonPositiveScale):
            scale(IntervalSet([(0, 1)]), 0)
        with pytest.raises(NonPositiveScale):
            scale(IntervalSet([(0, 1)]), F(-1, 2))

    def test_canonical_drops_empty_and_merges(self):
        s = IntervalSet([(1, 1), (0, F(1, 2)), (F(1, 2), 1), (3, 2)])
        assert s == IntervalSet([(0, 1)])
        assert len(s) == 1

    def test_serialization_round_trip(self):
        s = IntervalSet([(F(1, 3), F(7, 2)), (5, 6)])
        # as a schedule's escalation witness is written and read back
        assert IntervalSet(read_list(s.to_pairs(), read_list)) == s

    def test_contains(self):
        s = IntervalSet([(0, 1), (2, 3)])
        assert contains(s, 0) and contains(s, F(5, 2))
        assert not contains(s, 1) and not contains(s, F(7, 2))


def fractions_over(lo, hi):
    """Every p/q in [lo, hi] with q <= 12: the domain of ``st.fractions(lo,
    hi, max_denominator=12)``, drawn as two integers, which hypothesis
    draws several times faster than it draws fractions."""
    return st.integers(1, 12).flatmap(
        lambda q: st.integers(ceil(lo * q), floor(hi * q)).map(lambda p: F(p, q))
    )


rationals = fractions_over(-8, 8)
interval_sets = st.lists(
    st.tuples(rationals, rationals), min_size=0, max_size=5
).map(lambda pairs: IntervalSet((min(a, b), max(a, b)) for a, b in pairs))
positive_rationals = fractions_over(F(1, 8), 8)


def test_fractions_over_keeps_the_domain():
    for lo, hi in [(-8, 8), (F(1, 8), 8)]:
        domain = {F(p, q) for q in range(1, 13) for p in range(-8 * q, 8 * q + 1)}
        assert {F(p, q) for q in range(1, 13)
                for p in range(ceil(lo * q), floor(hi * q) + 1)} == {
            x for x in domain if lo <= x <= hi
        }


class TestIntervalSetProperties:
    @settings(max_examples=150, deadline=None)
    @given(interval_sets, interval_sets)
    def test_measure_additivity(self, a, b):
        assert (
            union(a, b).total_length + intersect(a, b).total_length
            == a.total_length + b.total_length
        )

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, interval_sets)
    def test_union_bounds_and_canonicality(self, a, b):
        u = union(a, b)
        assert u.total_length <= a.total_length + b.total_length
        assert u == IntervalSet(u.intervals)  # canonical fixed point
        assert u == union(b, a)
        for lo, hi in u:
            assert lo < hi
        for (l1, h1), (l2, h2) in zip(u.intervals, u.intervals[1:]):
            assert h1 < l2  # disjoint and non-adjacent

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, interval_sets)
    def test_intersection_bounded(self, a, b):
        i = intersect(a, b)
        assert i.total_length <= min(a.total_length, b.total_length)

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, rationals, positive_rationals)
    def test_affine_commutation(self, a, t, r):
        assert scale(translate(a, t), r) == translate(scale(a, r), r * t)

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, rationals)
    def test_translate_preserves_length(self, a, t):
        assert translate(a, t).total_length == a.total_length

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, positive_rationals)
    def test_scale_scales_length(self, a, r):
        assert scale(a, r).total_length == r * a.total_length

    @settings(max_examples=100, deadline=None)
    @given(interval_sets, interval_sets)
    def test_union_intersect_against_grid(self, a, b):
        env = [iv for s in (a, b) for iv in s]
        if not env:
            return
        lo = min(l for l, _ in env)
        hi = max(h for _, h in env)
        denom = 2 * common_denom(a, b)
        pairs = list(a) + list(b)
        assert union(a, b) == grid_set(pairs, lo, hi, denom)
