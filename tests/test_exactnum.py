from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import IntervalSet, NonPositiveScale, rat, rat_str


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
        assert rat("3/2") == F(3, 2)
        assert rat("5") == F(5)
        assert rat(7) == F(7)
        assert rat_str(F(3, 2)) == "3/2"
        assert rat_str(F(5)) == "5/1"
        assert rat(rat_str(F(-7, 3))) == F(-7, 3)

    @pytest.mark.parametrize("text", ["1/0", "-3/00", "x"])
    def test_malformed_string_raises_value_error(self, text):
        with pytest.raises(ValueError):
            rat(text)


class TestIntervalSetExamples:
    def test_adjacent_merge(self):
        assert IntervalSet([(0, 1)]).union(IntervalSet([(1, 2)])) == IntervalSet(
            [(0, 2)]
        )

    def test_union_identity(self):
        assert IntervalSet([(0, 1)]).union(IntervalSet()) == IntervalSet([(0, 1)])

    def test_union_overlap_against_grid_oracle(self):
        a, b = IntervalSet([(0, 2)]), IntervalSet([(1, 3)])
        expected = grid_set([(F(0), F(2)), (F(1), F(3))], 0, 4, 2)
        assert a.union(b) == expected == IntervalSet([(0, 3)])

    def test_intersect_basic(self):
        assert IntervalSet([(0, 2)]).intersect(IntervalSet([(1, 3)])) == IntervalSet(
            [(1, 2)]
        )
        assert IntervalSet([(0, 1)]).intersect(IntervalSet([(2, 3)])).is_empty()

    def test_intersect_against_grid_oracle(self):
        a = IntervalSet([(0, 1), (2, 4)])
        b = IntervalSet([(3, 5)])
        got = a.intersect(b)
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
        assert IntervalSet([(0, 1)]).translate(5) == IntervalSet([(5, 6)])
        assert IntervalSet([(2, 4)]).scale(F(1, 2)) == IntervalSet([(1, 2)])
        assert IntervalSet([(0, 2)]).translate(1).scale(3) == IntervalSet([(3, 9)])

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(NonPositiveScale):
            IntervalSet([(0, 1)]).scale(0)
        with pytest.raises(NonPositiveScale):
            IntervalSet([(0, 1)]).scale(F(-1, 2))

    def test_canonical_drops_empty_and_merges(self):
        s = IntervalSet([(1, 1), (0, F(1, 2)), (F(1, 2), 1), (3, 2)])
        assert s == IntervalSet([(0, 1)])
        assert len(s) == 1

    def test_serialization_round_trip(self):
        s = IntervalSet([(F(1, 3), F(7, 2)), (5, 6)])
        assert IntervalSet.from_pairs(s.to_pairs()) == s

    def test_contains(self):
        s = IntervalSet([(0, 1), (2, 3)])
        assert s.contains(0) and s.contains(F(5, 2))
        assert not s.contains(1) and not s.contains(F(7, 2))


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
interval_sets = st.lists(
    st.tuples(rationals, rationals), min_size=0, max_size=5
).map(lambda pairs: IntervalSet((min(a, b), max(a, b)) for a, b in pairs))
positive_rationals = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=12)


class TestIntervalSetProperties:
    @settings(max_examples=150, deadline=None)
    @given(interval_sets, interval_sets)
    def test_measure_additivity(self, a, b):
        assert (
            a.union(b).total_length + a.intersect(b).total_length
            == a.total_length + b.total_length
        )

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, interval_sets)
    def test_union_bounds_and_canonicality(self, a, b):
        u = a.union(b)
        assert u.total_length <= a.total_length + b.total_length
        assert u == IntervalSet(u.intervals)  # canonical fixed point
        assert u == b.union(a)
        for lo, hi in u:
            assert lo < hi
        for (l1, h1), (l2, h2) in zip(u.intervals, u.intervals[1:]):
            assert h1 < l2  # disjoint and non-adjacent

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, interval_sets)
    def test_intersection_bounded(self, a, b):
        i = a.intersect(b)
        assert i.total_length <= min(a.total_length, b.total_length)

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, rationals, positive_rationals)
    def test_affine_commutation(self, a, t, r):
        assert a.translate(t).scale(r) == a.scale(r).translate(r * t)

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, rationals)
    def test_translate_preserves_length(self, a, t):
        assert a.translate(t).total_length == a.total_length

    @settings(max_examples=150, deadline=None)
    @given(interval_sets, positive_rationals)
    def test_scale_scales_length(self, a, r):
        assert a.scale(r).total_length == r * a.total_length

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
        assert a.union(b) == grid_set(pairs, lo, hi, denom)
