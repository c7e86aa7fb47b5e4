import inspect
import itertools
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rankone import levelset
from rankone.cli import load_config, schedule_from_config
from rankone.construction import (
    Schedule,
    StagePolicy,
    TargetSets,
    TopSpacerRule,
    build_schedule,
)
from rankone.errors import HorizonExceeded, RankOneError
from rankone.exactnum import IntervalSet, merge_sorted, rat_str
from rankone.levelset import (
    PiecewiseLinear,
    base_slab,
    correlation,
    correlation_profile,
    find_dissipativity_witness,
    hitting_set,
    make_slab,
    min_valid_stage,
)
from rankone.verify import (
    _block_labels,
    annotate_landmark,
    check_weak_limits,
    default_pair_family,
    dissipativity_spot_check,
    hitting_report,
    landmark_terms,
    window_landmarks,
)

from reference import (
    integral,
    intersect,
    measure,
    pieces,
    refine,
    scale,
    support,
    translate_exact,
)


class TestSlabs:
    def test_make_slab_validates(self, desk):
        with pytest.raises(ValueError):
            make_slab(desk, 1, [(0, 2)])  # exceeds tower 1
        with pytest.raises(RankOneError, match="stage 99 not built"):
            make_slab(desk, 99, [(0, 1)])

    def test_base_slab_measure(self, desk):
        y = base_slab(desk)
        assert measure(y, desk) == 1


class TestRefine:
    def test_identity(self, desk):
        y = base_slab(desk)
        assert refine(y, 1, desk) == y

    def test_example_levels_tiny(self, tiny):
        # stage-1 offsets (0, 1, 12, 27/2): copies of [0,1) merge at the bottom
        y = base_slab(tiny)
        got = refine(y, 2, tiny)
        assert got.levels == IntervalSet([(0, 2), (12, 13), (F(27, 2), F(29, 2))])

    def test_example_levels_desk(self, desk):
        y = base_slab(desk)
        got = refine(y, 2, desk)
        assert got.levels == IntervalSet([(0, 2), (18, 19), (F(39, 2), F(41, 2))])

    def test_measure_preserved(self, desk):
        for _, slab in default_pair_family(desk):
            m = measure(slab, desk)
            for j in range(slab.stage, 7):
                assert measure(refine(slab, j, desk), desk) == m

    def test_refinement_consistency(self, desk):
        for _, slab in default_pair_family(desk):
            for j in range(slab.stage, 5):
                once = refine(slab, j, desk)
                assert refine(once, j + 2, desk) == refine(slab, j + 2, desk)

    def test_out_of_range(self, desk):
        y = base_slab(desk)
        with pytest.raises(RankOneError, match="cannot refine stage-1 slabs to stage 9"):
            refine(y, 9, desk)
        with pytest.raises(RankOneError, match="cannot refine stage-2 slabs to stage 1"):
            refine(refine(y, 2, desk), 1, desk)


class TestMinValidStage:
    def test_zero_time(self, desk):
        y = base_slab(desk)
        assert min_valid_stage(y, 0, desk) == 1

    def test_height_two_needs_stage_three(self, desk):
        y = base_slab(desk)
        assert min_valid_stage(y, desk.height(2), desk) == 3

    def test_negative_time_refused(self, desk):
        with pytest.raises(ValueError, match="negative times"):
            min_valid_stage(base_slab(desk), F(-1, 2), desk)

    def test_empty_slab_stays_at_its_stage(self, desk):
        assert min_valid_stage(make_slab(desk, 3, []), desk.height(7), desk) == 3

    def test_beyond_horizon(self, desk):
        y = base_slab(desk)
        too_far = desk.stage(desk.num_stages - 1).spacers[3] * 2
        with pytest.raises(HorizonExceeded):
            min_valid_stage(y, too_far, desk)

    @staticmethod
    def rooms(s, sched):
        """Per stage j >= s.stage, the largest time tower j absorbs: the
        slab's top edge walked up stage by stage in Fractions."""
        top = s.levels.intervals[-1][1]
        out = {}
        for j in range(s.stage, sched.num_stages + 1):
            if j > s.stage:
                top += sched.offsets(j - 1)[3]
            out[j] = sched.height(j) - top
        return out

    @pytest.mark.parametrize("name", ["desk", "deep16", "broken", "desk64", "flat_top"])
    def test_bisection_equals_stage_walk(self, request, name):
        sched = request.getfixturevalue(name)
        eps = F(1, 2**40)
        for _, s in default_pair_family(sched):
            rooms = self.rooms(s, sched)
            times = {F(0)} | {r + e for r in rooms.values() for e in (-eps, 0) if r + e >= 0}
            for t in sorted(times):
                expected = next(j for j, r in rooms.items() if t <= r)
                assert min_valid_stage(s, t, sched) == expected, (t, expected)
            last = rooms[sched.num_stages]
            assert min_valid_stage(s, last, sched) == min(
                j for j, r in rooms.items() if r == last
            )
            with pytest.raises(HorizonExceeded):
                min_valid_stage(s, last + eps, sched)

    def test_flat_top_rooms_tie(self, flat_top):
        # top spacers 0: every tower absorbs exactly the same times
        rooms = self.rooms(base_slab(flat_top), flat_top)
        assert len(set(rooms.values())) == 1
        assert min_valid_stage(base_slab(flat_top), rooms[1], flat_top) == 1


DESK_TARGETS = TargetSets(singular=(F(3, 2), F(5, 2)), dissipative=(F(2), F(3)))


@pytest.fixture(scope="module")
def desk64():
    return build_schedule(1, 1, DESK_TARGETS, 64)


@pytest.fixture(scope="module")
def flat_top():
    """``collide_ratio: 0`` makes every top spacer 0."""
    policy = StagePolicy(top_spacer=TopSpacerRule(mode="collide", collide_ratio=F(0)))
    return build_schedule(1, 1, DESK_TARGETS, 8, policy=policy, certify=False)


class TestTranslate:
    def test_zero_is_refine(self, desk):
        y = base_slab(desk)
        assert translate_exact(y, 0, desk) == refine(y, 1, desk)

    def test_measure_preserved(self, desk):
        rng = random.Random(5)
        y = base_slab(desk)
        for _ in range(25):
            t = desk.height(3) * F(rng.randrange(2**12), 2**12)
            assert measure(translate_exact(y, t, desk), desk) == 1

    def test_flow_additivity(self, desk):
        rng = random.Random(6)
        fam = default_pair_family(desk)
        for _ in range(15):
            _, slab = fam[rng.randrange(len(fam))]
            s = desk.height(2) * F(rng.randrange(2**10), 2**10)
            t = desk.height(2) * F(rng.randrange(2**10), 2**10)
            once = translate_exact(translate_exact(slab, s, desk), t, desk)
            direct = translate_exact(slab, s + t, desk)
            j = max(once.stage, direct.stage)
            assert refine(once, j, desk).levels == refine(direct, j, desk).levels


class TestCorrelation:
    def test_zero_time_is_intersection_measure(self, desk):
        fam = default_pair_family(desk)
        for name_a, a in fam[:4]:
            for name_b, b in fam[:4]:
                j = max(a.stage, b.stage)
                inter = intersect(refine(a, j, desk).levels, refine(b, j, desk).levels)
                assert correlation(a, b, 0, desk) == desk.width(j) * inter.total_length

    def test_symmetry(self, desk):
        rng = random.Random(7)
        fam = default_pair_family(desk)
        for _ in range(30):
            _, a = fam[rng.randrange(len(fam))]
            _, b = fam[rng.randrange(len(fam))]
            t = desk.height(2) * F(rng.randrange(2**10), 2**10)
            assert correlation(a, b, t, desk) == correlation(b, a, -t, desk)

    def test_bounds(self, desk):
        rng = random.Random(8)
        fam = default_pair_family(desk)
        for _ in range(40):
            _, a = fam[rng.randrange(len(fam))]
            _, b = fam[rng.randrange(len(fam))]
            t = desk.height(1 + rng.randrange(3)) * F(rng.randrange(2**10), 2**10)
            v = correlation(a, b, t, desk)
            assert 0 <= v <= min(measure(a, desk), measure(b, desk))

    def test_quarter_identities(self, desk):
        y = base_slab(desk)
        for j in range(2, 7):
            h = desk.height(j)
            c = desk.stage(j).ratio
            assert correlation(y, y, h, desk) == F(1, 4)
            assert correlation(y, y, c * h, desk) == F(1, 4)

    def test_fine_denominator_times_near_boundaries(self, desk):
        # times a hair's breadth from copy boundaries need the fine
        # denominator carried exactly; the profile sweep is the cross-check
        y = base_slab(desk)
        eps = F(1, 2**40)
        for j in (2, 3, 5):
            h = desk.height(j)
            window = (h - 2, h + 2)
            prof = correlation_profile(y, y, window, desk)
            for base in (h - 1, h, h + 1):
                for t in (base - eps, base, base + eps):
                    assert correlation(y, y, t, desk) == prof.value_at(t)

    def test_column_trace_proportionality(self, desk):
        # a slab set splits equally over the four column copies of tower j
        fam = default_pair_family(desk)
        for _, slab in fam:
            m = measure(slab, desk)
            for j in range(slab.stage, 6):
                lv = refine(slab, j + 1, desk).levels
                h = desk.height(j)
                for off in desk.offsets(j):
                    trace = intersect(lv, IntervalSet([(off, off + h)]))
                    assert desk.width(j + 1) * trace.total_length == m / 4


class TestLatticeAgainstRefinement:
    """The lattice point evaluator against refine -> translate -> intersect.

    Each example works on a private copy of a schedule so that the
    reference's refined level sets do not pile up in a shared cache.
    """

    @staticmethod
    def reference(a, b, t, sched):
        if t < 0:
            a, b, t = b, a, -t
        moved = translate_exact(a, t, sched)
        j = max(moved.stage, b.stage)
        inter = intersect(refine(moved, j, sched).levels, refine(b, j, sched).levels)
        return sched.width(j) * inter.total_length

    @staticmethod
    def draw_slab(data, sched):
        family = default_pair_family(sched)
        if data.draw(st.booleans(), label="from family"):
            return data.draw(st.sampled_from(family), label="slab")[1]
        stage = data.draw(st.integers(1, 4), label="stage")
        n = data.draw(st.sampled_from([2, 3, 8, 12]), label="grid")
        cuts = data.draw(
            st.lists(st.integers(0, n), min_size=2, max_size=6, unique=True),
            label="cuts",
        )
        cuts.sort()
        h = sched.height(stage)
        pieces = [(h * lo / n, h * hi / n) for lo, hi in zip(cuts[::2], cuts[1::2])]
        return make_slab(sched, stage, pieces)

    @staticmethod
    def draw_time(data, sched):
        j = data.draw(st.integers(1, 6), label="tower")
        kind = data.draw(st.sampled_from(["height", "stretched", "rational"]))
        if kind == "height":
            t = sched.height(j)
        elif kind == "stretched":
            t = sched.stage(j).ratio * sched.height(j)
        else:
            den = data.draw(st.sampled_from([1, 7, 2**10, 3 * 2**40]), label="den")
            num = data.draw(st.integers(0, den), label="num")
            t = sched.height(j) * F(num, den)
        # nudges of about one base height put pattern sums at the edges of
        # the band that can still overlap
        eps = F(1, 2**40)
        nudge = data.draw(st.sampled_from([0, F(1, 2), 1 - eps, 1, 1 + eps]))
        t += data.draw(st.sampled_from([-1, 1]), label="nudge sign") * nudge
        return -t if data.draw(st.booleans(), label="negative") else t

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_correlation_equals_reference(self, desk, desk_perturbed, broken, data):
        shared = data.draw(st.sampled_from([desk, desk_perturbed, broken]))
        sched = Schedule.from_json(shared.to_json())
        a = self.draw_slab(data, sched)
        b = self.draw_slab(data, sched)
        t = self.draw_time(data, sched)
        got = correlation(a, b, t, sched)
        assert isinstance(got, F)
        assert got == self.reference(a, b, t, sched)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_min_valid_stage_equals_refined_envelope(self, desk, data):
        sched = Schedule.from_json(desk.to_json())
        s = self.draw_slab(data, sched)

        def room(j):  # the largest time tower j absorbs, read off the refinement
            return sched.height(j) - refine(s, j, sched).levels.envelope()[1]

        if data.draw(st.booleans(), label="at the edge"):
            j = data.draw(st.integers(s.stage, 6), label="edge stage")
            eps = data.draw(st.sampled_from([-F(1, 2**40), 0, F(1, 2**40)]))
            t = max(room(j) + eps, F(0))
        else:
            t = abs(self.draw_time(data, sched))
        expected = next(
            j for j in range(s.stage, sched.num_stages + 1) if t <= room(j)
        )
        assert min_valid_stage(s, t, sched) == expected

    def test_lift_merges_touching_copies(self, desk):
        # desk's first spacer is 0, so copies 1 and 2 of the base tower touch
        y, unit = base_slab(desk), levelset._lattice(desk)[0]
        lifted = levelset._lift(desk, y, 2, unit)
        assert len(lifted) == 3
        assert lifted == [(lo * unit, hi * unit) for lo, hi in refine(y, 2, desk).levels.intervals]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lift_equals_refinement(self, desk, desk_perturbed, data):
        shared = data.draw(st.sampled_from([desk, desk_perturbed]))
        sched = Schedule.from_json(shared.to_json())
        s = self.draw_slab(data, sched)
        k = data.draw(st.integers(s.stage, 6), label="tower")
        unit = levelset._lattice(sched)[0]
        # 24 clears draw_slab's grids; any further multiple of the unit must do
        scale = unit * 24 * data.draw(st.sampled_from([1, 7]), label="scale factor")
        expected = [(lo * scale, hi * scale) for lo, hi in refine(s, k, sched).levels.intervals]
        assert levelset._lift(sched, s, k, scale) == expected

    def test_no_float_in_levelset(self):
        source = inspect.getsource(levelset)
        assert "numpy" not in source
        assert "float(" not in source


class TestProfile:
    def test_hand_values_on_unit_window(self, desk):
        y = base_slab(desk)
        prof = correlation_profile(y, y, (0, 2), desk)
        assert prof.breakpoints == (F(0), F(1, 2), F(1), F(3, 2), F(2))
        assert prof.values == (F(1), F(5, 8), F(3, 8), F(3, 8), F(1, 8))

    def test_self_overlap_lower_bound(self, desk):
        # within-slab contribution alone gives mu(T_t Y /\ Y) >= 1 - t on [0,1)
        y = base_slab(desk)
        prof = correlation_profile(y, y, (0, 1), desk)
        for k in range(8):
            t = F(k, 8)
            assert prof.value_at(t) >= 1 - t

    def test_agrees_with_pointwise(self, desk):
        rng = random.Random(9)
        fam = default_pair_family(desk)
        windows = [(F(0), desk.height(2)), (desk.height(2), desk.height(3))]
        for w in windows:
            for _ in range(4):
                _, a = fam[rng.randrange(len(fam))]
                _, b = fam[rng.randrange(len(fam))]
                prof = correlation_profile(a, b, w, desk)
                for _ in range(25):
                    t = w[0] + (w[1] - w[0]) * F(rng.randrange(2**10), 2**10)
                    assert prof.value_at(t) == correlation(a, b, t, desk)

    def test_agrees_with_refinement(self, desk):
        # correlation runs the profile's own sweep at [t, t], so only this
        # engine-independent reference checks the sweep at its breakpoints
        # and between them; the private copy keeps its refinements apart
        sched = Schedule.from_json(desk.to_json())
        reference = TestLatticeAgainstRefinement.reference
        rng = random.Random(11)
        fam = default_pair_family(sched)
        for w in [(F(0), sched.height(2)), (sched.height(2), sched.height(3))]:
            for _ in range(3):
                _, a = fam[rng.randrange(len(fam))]
                _, b = fam[rng.randrange(len(fam))]
                prof = correlation_profile(a, b, w, sched)
                bps = prof.breakpoints
                times = list(bps) + [(t0 + t1) / 2 for t0, t1 in zip(bps, bps[1:])]
                for t in rng.sample(times, min(len(times), 20)):
                    assert prof.value_at(t) == reference(a, b, t, sched)

    def test_empty_window(self, desk):
        y = base_slab(desk)
        prof = correlation_profile(y, y, (F(7, 2), 16), desk)
        assert all(v == 0 for v in prof.values)
        assert hitting_set(y, y, (F(7, 2), 16), desk).is_empty()

    def test_integral_against_midpoint_quadrature(self, desk):
        # cross-engine check: exact PL integral vs a midpoint sum over the
        # pointwise engine; midpoint is exact on cells where the profile is
        # linear, so only cells holding a breakpoint contribute error
        y = base_slab(desk)
        prof = correlation_profile(y, y, (0, 2), desk)
        exact = integral(prof)
        cells = 7  # width 2/7 puts every interior breakpoint inside a cell
        w = F(2, cells)
        mid = sum(correlation(y, y, w * k + w / 2, desk) * w for k in range(cells))
        max_slope = max(
            abs(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in pieces(prof)
        )
        n_breaks = len(prof.breakpoints) - 2
        bound = n_breaks * max_slope * w * w
        assert abs(exact - mid) <= bound
        assert exact == F(31, 32)  # trapezoid over the hand-computed breakpoints

    def test_support_is_hitting_set(self, desk):
        y = base_slab(desk)
        w = (F(0), desk.height(2))
        assert support(correlation_profile(y, y, w, desk)) == hitting_set(
            y, y, w, desk
        )

    def test_hitting_set_self_overlap(self, desk):
        y = base_slab(desk)
        hits = hitting_set(y, y, (0, 1), desk)
        assert hits == IntervalSet([(0, 1)])

    def test_rejects_bad_window(self, desk):
        y = base_slab(desk)
        with pytest.raises(ValueError):
            correlation_profile(y, y, (-1, 1), desk)
        with pytest.raises(ValueError):
            correlation_profile(y, y, (2, 2), desk)


class TestHittingSetAgainstSupport:
    """The lattice support against ``support(correlation_profile(...))``."""

    @staticmethod
    def pair_family(sched):
        """``default_pair_family`` and, per stage, a slab of two separated
        quarters, so that both sides of a pair can hold several base
        intervals and the hitting set merges several sorted streams."""
        split = tuple(
            (f"stage{k}_quarters02", make_slab(sched, k, [(0, h / 4), (h / 2, 3 * h / 4)]))
            for k, h in ((1, sched.height(1)), (2, sched.height(2)))
        )
        return default_pair_family(sched) + split

    @staticmethod
    def draw_window(data, sched, a, b):
        tower = data.draw(st.integers(2, 4), label="tower")
        reach = sched.height(tower)
        kind = data.draw(st.sampled_from(["rational", "on events", "no events"]))
        if kind == "rational":
            den = data.draw(st.sampled_from([1, 7, 2**10]), label="den")
            num = data.draw(st.integers(0, den - 1), label="lo num")
            lo = F(0) if data.draw(st.booleans(), label="lo = 0") else reach * F(num, den)
            return lo, lo + reach * F(data.draw(st.integers(1, den), label="len"), den)
        # interior breakpoints of a profile are exactly its event times
        bps = correlation_profile(a, b, (0, reach), sched).breakpoints
        if kind == "on events":
            i, k = sorted(
                data.draw(
                    st.lists(st.integers(0, len(bps) - 1), min_size=2, max_size=2,
                             unique=True),
                    label="ends",
                )
            )
            return bps[i], bps[k]
        i = data.draw(st.integers(0, len(bps) - 2), label="gap")
        step = (bps[i + 1] - bps[i]) / 3
        return bps[i] + step, bps[i] + 2 * step

    # Explicit cases name (schedule, slab a, slab b, window).  On desk the
    # quarter0 x quarter0 tents near 0 are (-1/4, 1/4), (3/4, 5/4), (5/4, 7/4)
    # and (67/4, 69/4), each overlapping no other tent.
    @given(data=st.data(), case=st.none())
    @example(data=None, case=(  # the lower end cuts through one tent
        "desk", "stage1_quarter0", "stage1_quarter0", (F(1, 8), F(1, 2))))
    @example(data=None, case=(  # the window ends where a tent's support ends
        "desk", "stage1_quarter0", "stage1_quarter0", (F(16), F(69, 4))))
    @example(data=None, case=(  # two touching supports merge into [3/4, 7/4)
        "desk", "stage1_quarter0", "stage1_quarter0", (F(1, 2), F(2))))
    @example(data=None, case=(  # strictly between two supports: empty
        "desk", "stage1_quarter0", "stage1_quarter0", (F(3, 8), F(5, 8))))
    @example(data=None, case=(  # on [0, h_3], four base intervals of a against one of b
        "broken", "stage1_quarter0", "stage2_half0", (F(0), F(11025, 4))))
    @example(data=None, case=(  # three merged base intervals of a against one of b
        "deep16", "stage1_full", "stage2_full", (F(0), F(305809, 4))))
    @example(data=None, case=(  # two base intervals on each side, three distinct widths
        "broken", "stage2_quarters02", "stage2_quarters02", (F(0), F(11025, 4))))
    @example(data=None, case=(  # eight base intervals of a against two of b
        "desk", "stage1_quarters02", "stage2_quarters02", (F(1, 3), F(305809, 4))))
    @example(data=None, case=(  # pair stage k == j: no stage to enumerate
        "desk", "stage1_quarter0", "stage2_half0", (F(0), F(1, 2))))
    @example(data=None, case=(  # k + 1 == j: the template alone, partials {0}
        "desk", "stage1_full", "stage1_full", (F(0), F(1))))
    @settings(max_examples=80, deadline=None)
    def test_hitting_set_equals_profile_support(self, desk, broken, deep16, data, case):
        scheds = {"desk": desk, "broken": broken, "deep16": deep16}
        if case is None:
            sched = data.draw(st.sampled_from(list(scheds.values())))
            family = self.pair_family(sched)
            a = data.draw(st.sampled_from(family), label="a")[1]
            b = data.draw(st.sampled_from(family), label="b")[1]
            window = self.draw_window(data, sched, a, b)
        else:
            name, a_name, b_name, window = case
            sched = scheds[name]
            family = dict(self.pair_family(sched))
            a, b = family[a_name], family[b_name]
        got = hitting_set(a, b, window, sched)
        assert got == support(correlation_profile(a, b, window, sched))
        assert all(isinstance(x, F) for iv in got for x in iv)

    def test_explicit_cases_have_their_shape(self, desk):
        """The tents the explicit cases above are written against."""
        q0 = dict(default_pair_family(desk))["stage1_quarter0"]
        hits = {
            w: hitting_set(q0, q0, w, desk).intervals
            for w in [(F(1, 8), F(1, 2)), (F(16), F(69, 4)), (F(1, 2), F(2)),
                      (F(3, 8), F(5, 8))]
        }
        assert hits == {
            (F(1, 8), F(1, 2)): ((F(1, 8), F(1, 4)),),
            (F(16), F(69, 4)): ((F(67, 4), F(69, 4)),),
            (F(1, 2), F(2)): ((F(3, 4), F(7, 4)),),
            (F(3, 8), F(5, 8)): (),
        }

    def test_fold_cases_have_their_stages(self, desk):
        """The pair stage k and stage j of the two template edge cases above."""
        fam = dict(default_pair_family(desk))
        cases = [("stage1_quarter0", "stage2_half0", (F(0), F(1, 2))),
                 ("stage1_full", "stage1_full", (F(0), F(1)))]
        stages = [levelset._lattice_window(fam[a], fam[b], *w, desk)[:2] for a, b, w in cases]
        assert stages == [(2, 2), (2, 1)]

    def test_hitting_report_stops_one_stage_early(self, broken, monkeypatch):
        """The report enumerates the partial sums above the pair stage only:
        on broken window 5 that is 26,365 sums, where the full sums over
        every stage down to the pair stage number 342,735."""
        returned = []
        pattern_sums = levelset._pattern_sums

        def counted(*args):
            sums = pattern_sums(*args)
            returned.append(len(sums))
            return sums

        monkeypatch.setattr(levelset, "_pattern_sums", counted)
        assert "".join(hitting_report(broken, 5))
        assert 0 < sum(returned) <= 26_365

    def test_hitting_path_builds_no_profile(self, broken, monkeypatch):
        """The hitting set and report never fall back to the profile sweep."""
        def sweep(*args):
            raise AssertionError("the hitting path built a profile")

        monkeypatch.setattr(levelset, "_lattice_profile", sweep)
        y = base_slab(broken)
        window = (broken.height(2), broken.height(3))
        assert hitting_set(y, y, window, broken)
        assert json.loads("".join(hitting_report(broken, 4)))["intervals"]
        with pytest.raises(AssertionError, match="built a profile"):
            correlation_profile(y, y, window, broken)  # the patch is in effect

    @pytest.mark.parametrize(
        "name, j", [("desk", 2), ("desk", 3), ("deep16", 3), ("broken", 4), ("broken", 5)]
    )
    def test_report_text_is_canonical(self, request, name, j):
        """The report's text is ``json.dumps(indent=2, sort_keys=True)`` of
        what it holds, and its intervals are ``hitting_set``'s."""
        sched = request.getfixturevalue(name)
        text = "".join(hitting_report(sched, j))
        rep = json.loads(text)
        assert text == json.dumps(rep, indent=2, sort_keys=True) + "\n"
        y = base_slab(sched)
        window = (sched.height(j), sched.height(j + 1))
        assert [e["interval"] for e in rep["intervals"]] == (
            hitting_set(y, y, window, sched).to_pairs()
        )
        assert (rep["range"], rep["window"]) == ([rat_str(w) for w in window], j)

    def test_report_builds_no_fraction_per_endpoint(self, broken, monkeypatch):
        """The report is written from the integer runs: it never goes through
        ``hitting_set`` or ``_lattice_set``, which build the ``Fraction``s."""
        def fractions(*args):
            raise AssertionError("the report built a Fraction per endpoint")

        monkeypatch.setattr(levelset, "hitting_set", fractions)
        monkeypatch.setattr(levelset, "_lattice_set", fractions)
        assert json.loads("".join(hitting_report(broken, 4)))["intervals"]
        with pytest.raises(AssertionError, match="Fraction per endpoint"):
            find_dissipativity_witness(broken, 2, 4)  # the patch is in effect


class TestMergeRuns:
    """``_merge_runs`` against its definition: every run of ``merge_sorted``
    clipped to [lo, hi), the empty ones dropped."""

    @given(
        spans=st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 8)), max_size=12),
        lo=st.integers(-25, 25),
        width=st.integers(-3, 30),
    )
    @example(spans=[], lo=0, width=5)  # empty input
    @example(spans=[(-4, 6), (5, 4)], lo=2, width=3)  # runs end at lo, start at hi
    @example(spans=[(-4, 6), (5, 4)], lo=0, width=8)  # two runs, both clipped
    @example(spans=[(-4, 24)], lo=0, width=5)  # one run straddles both ends
    @example(spans=[(-4, 24)], lo=5, width=-2)  # hi < lo: nothing
    def test_clips_merged_runs(self, spans, lo, width):
        pieces = sorted((a, a + n) for a, n in spans)
        hi = lo + width
        clipped = [(max(a, lo), min(b, hi)) for a, b in merge_sorted(pieces)]
        assert list(levelset._merge_runs(pieces, lo, hi)) == [(a, b) for a, b in clipped if a < b]


class TestLandmarkLabels:
    """Lattice landmark labels against the Fraction formula they replace."""

    @staticmethod
    def reference(landmarks, t):
        best_name, best_ratio = "unresolved", None
        for name, val in landmarks.items():
            if val <= 0:
                continue
            r = t / val if t >= val else val / t
            if r <= 2 and (best_ratio is None or r < best_ratio):
                best_name, best_ratio = name, r
        return best_name

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_labels_equal_reference(self, desk, broken, data):
        if data.draw(st.booleans(), label="window landmarks"):
            sched = data.draw(st.sampled_from([desk, broken]))
            landmarks = window_landmarks(sched, data.draw(st.integers(1, 7)))
        else:
            values = st.fractions(min_value=-2, max_value=60, max_denominator=12)
            drawn = data.draw(st.lists(values, min_size=1, max_size=4), label="values")
            landmarks = dict(zip(["a", "b", "c", "d"], drawn))
        val = data.draw(st.sampled_from(list(landmarks.values())), label="landmark")
        kind = data.draw(st.sampled_from(["half", "double", "equal", "near", "rational"]))
        if kind == "half":
            t = val / 2
        elif kind == "double":
            t = 2 * val
        elif kind == "equal":
            t = val
        elif kind == "near":  # just inside or outside the [1/2, 2] bounds
            eps = F(1, 2**40) * data.draw(st.sampled_from([-1, 1]))
            t = data.draw(st.sampled_from([val / 2, 2 * val])) + eps
        else:
            t = data.draw(st.fractions(min_value=0, max_value=120), label="t")
        assume(t > 0)
        k = data.draw(st.integers(1, 12), label="unreduced by")
        expected = self.reference(landmarks, t)
        terms = landmark_terms(landmarks)
        assert annotate_landmark(terms, t.numerator, t.denominator) == expected
        assert annotate_landmark(terms, k * t.numerator, k * t.denominator) == expected

    @pytest.mark.parametrize(
        "landmarks, t, expected",
        [
            ({"low": F(1), "high": F(4)}, F(2), "low"),  # both ratios exactly 2
            ({"high": F(4), "low": F(1)}, F(2), "high"),
            ({"low": F(4), "high": F(9)}, F(6), "low"),  # both ratios 3/2
            ({"x": F(3), "y": F(3)}, F(5, 2), "x"),  # equal landmarks
            ({"low": F(1), "high": F(25, 4)}, F(5, 2), "unresolved"),  # both 5/2
        ],
    )
    def test_ties_keep_the_first_landmark(self, landmarks, t, expected):
        assert self.reference(landmarks, t) == expected
        terms = landmark_terms(landmarks)
        assert annotate_landmark(terms, t.numerator, t.denominator) == expected
        tn, td = 6 * t.numerator, 6 * t.denominator  # unreduced
        assert annotate_landmark(terms, tn, td) == expected

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_labels_equal_labels_run_by_run(self, data):
        """The report labels its increasing midpoints block by block, by
        bisection; each label must be ``annotate_landmark``'s.  Midpoints
        sit on and beside every label edge: equal landmark values, exact
        ties at t^2 = v1*v2 in both dict orders, and gaps wider than 4x
        between landmarks, which leave several unresolved blocks."""
        kind = data.draw(st.sampled_from(["equal", "tie", "gaps", "any"]), label="kind")
        pos = st.fractions(min_value=F(1, 12), max_value=60, max_denominator=12)
        if kind == "equal":
            v = data.draw(pos, label="v")
            values = [v, data.draw(pos, label="other"), v]
        elif kind == "tie":  # a^2 c and b^2 c tie at t = a b c
            a, b = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True))
            c = data.draw(pos, label="c")
            values = [a * a * c, b * b * c]
        elif kind == "gaps":
            v = data.draw(pos, label="v")
            values = []
            for _ in range(data.draw(st.integers(2, 4), label="landmarks")):
                values.append(v)
                v *= data.draw(st.integers(5, 12), label="gap")
        else:
            values = data.draw(st.lists(
                st.fractions(min_value=-2, max_value=60, max_denominator=12), min_size=1, max_size=4
            ), label="values")
        if data.draw(st.booleans(), label="reversed"):
            values.reverse()
        terms = landmark_terms(dict(zip("abcd", values)))
        # the label edges: v/2, v and 2v, and every rational tie sqrt(v1 v2)
        edges = [e for _, vn, vd in terms for e in (F(vn, 2 * vd), F(vn, vd), F(2 * vn, vd))]
        for (_, n1, d1), (_, n2, d2) in itertools.combinations(terms, 2):
            num, den = n1 * n2, d1 * d2
            if math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den:
                edges.append(F(math.isqrt(num), math.isqrt(den)))
        # a lattice fine enough for a point strictly inside every gap
        td = 4 * math.lcm(*(e.denominator for e in edges)) * data.draw(st.integers(1, 3), label="k")
        points = {int(e * td) + k for e in edges for k in (-1, 0, 1)}
        points |= set(data.draw(st.lists(st.integers(1, 130 * td), max_size=20), label="more"))
        mids = sorted(m for m in points if m > 0)
        labels = _block_labels(terms, mids, td)
        assert labels == [annotate_landmark(terms, m, td) for m in mids]
        if kind == "gaps":
            blocks = [name for name, _ in itertools.groupby(labels)]
            assert blocks.count("unresolved") >= 3

    @pytest.mark.parametrize(
        "name, j", [("desk", 2), ("desk", 3), ("deep16", 3), ("broken", 4), ("broken", 5)]
    )
    def test_block_labels_on_report_windows(self, request, name, j):
        """The block labels of every run of a report window, against
        ``annotate_landmark`` run by run."""
        sched = request.getfixturevalue(name)
        y = base_slab(sched)
        scale, runs = levelset._hitting_runs(y, y, sched.height(j), sched.height(j + 1), sched)
        mids = [lo + hi for lo, hi in runs]
        terms = landmark_terms(window_landmarks(sched, j))
        assert _block_labels(terms, mids, 2 * scale) == [
            annotate_landmark(terms, m, 2 * scale) for m in mids
        ]


class TestPiecewiseLinear:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=(F(0),), values=(F(1),))
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=(F(0), F(0)), values=(F(1), F(1)))
        with pytest.raises(ValueError):
            PiecewiseLinear(breakpoints=(F(0), F(1)), values=(F(-1), F(1)))

    def test_clamped_outside_window(self):
        pl = PiecewiseLinear(breakpoints=(F(0), F(1)), values=(F(2), F(4)))
        assert pl.value_at(-5) == 2
        assert pl.value_at(5) == 4
        assert pl.value_at(F(1, 2)) == 3

    def test_support_excludes_zero_pieces(self):
        pl = PiecewiseLinear(
            breakpoints=(F(0), F(1), F(2), F(3)), values=(F(0), F(0), F(1), F(0))
        )
        assert support(pl) == IntervalSet([(1, 3)])


class TestWitnessSearch:
    def test_desk_windows_empty(self, desk):
        for d in (F(2), F(3)):
            for j in desk.windows_for(d):
                assert find_dissipativity_witness(desk, d, j).is_empty()

    @staticmethod
    def composed_witness(sched, d, j):
        # the compositional definition: R /\ (1/d)R' above the threshold,
        # computable only on moderate windows where the full hitting sets
        # are affordable
        y = base_slab(sched)
        lo, hi = sched.height(j), sched.height(j + 1)
        r_set = hitting_set(y, y, (lo, hi), sched)
        r_dil = hitting_set(y, y, (d * lo, d * hi), sched)
        n = sched.dissipativity_threshold(d)
        return intersect(
            intersect(r_set, scale(r_dil, 1 / d)), IntervalSet.single(n, hi + 1)
        )

    def test_matches_hitting_set_composition(self, desk, broken):
        for sched in (desk, broken):
            for d in (F(2), F(3)):
                for j in (2, 3):
                    if sched.targets.entry_stage(d) > j:
                        continue
                    paired = find_dissipativity_witness(sched, d, j)
                    assert paired == self.composed_witness(sched, d, j)

    def test_collision_when_entry_forced_to_one(self):
        targets = TargetSets(
            singular=(F(3, 2), F(5, 2)),
            dissipative=(F(2),),
            entry_stages=((F(2), 1),),
        )
        sched = build_schedule(1, 1, targets, 5, certify=False)
        witness = find_dissipativity_witness(sched, F(2), 1)
        assert witness == IntervalSet([(1, F(5, 4))])
        # confirmed pointwise: both correlations positive inside the witness
        y = base_slab(sched)
        t = F(9, 8)
        assert correlation(y, y, t, sched) > 0
        assert correlation(y, y, 2 * t, sched) > 0


@pytest.fixture(scope="module")
def deep16():
    return schedule_from_config(
        load_config(Path(__file__).parent.parent / "configs" / "deep16.json")
    )


class TestLattice:
    """The integer geometry that every pattern search shares."""

    @staticmethod
    def reference(sched, k, j, scale, lo, hi):
        """The pruned pattern DFS run directly on the lattice of 1/scale,
        its offset differences derived at that scale."""
        diffs = {}
        for s in range(k, j):
            offs = [x * scale for x in sched.offsets(s)]
            counts = {}
            for a in offs:
                for b in offs:
                    assert (b - a).denominator == 1
                    counts[int(b - a)] = counts.get(int(b - a), 0) + 1
            diffs[s] = sorted(counts.items())
        reach = {k - 1: 0}
        for s in range(k, j):
            reach[s] = reach[s - 1] + max(abs(v) for v, _ in diffs[s])
        level = {0: 1}
        for s in range(j - 1, k - 1, -1):
            lo_keep, hi_keep = lo - reach[s - 1], hi + reach[s - 1]
            nxt = {}
            for partial, m in level.items():
                for v, mv in diffs[s]:
                    if lo_keep <= partial + v <= hi_keep:
                        nxt[partial + v] = nxt.get(partial + v, 0) + m * mv
            level = nxt
        return level

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_finer_scales_equal_direct_enumeration(self, desk, broken, deep16, data):
        sched = data.draw(st.sampled_from([desk, broken, deep16]), label="schedule")
        unit = levelset._lattice(sched)[0]
        n = sched.num_stages
        k = data.draw(st.integers(1, n - 1), label="k")
        j = data.draw(st.integers(k + 1, n), label="j")
        # a band of one base height around a tower height, as correlation uses
        t = int(sched.height(data.draw(st.integers(k, j), label="tower")) * unit)
        h = int(sched.height(k) * unit)
        sums = sorted(levelset._pattern_sums(sched, k, j, unit, t - h, t + h))
        assume(sums)
        # band ends at most m - 1 units off a coarse pattern sum, either side
        m = data.draw(st.integers(1, 6), label="m")
        s1 = data.draw(st.sampled_from(sums), label="low sum")
        s2 = data.draw(st.sampled_from([s for s in sums if s >= s1]), label="high sum")
        off = st.integers(1 - m, m - 1)
        lo = m * s1 + data.draw(off, label="low offset")
        hi = m * s2 + data.draw(off, label="high offset")
        got = levelset._pattern_sums(sched, k, j, m * unit, lo, hi)
        assert got == self.reference(sched, k, j, m * unit, lo, hi)

    def test_one_cache_entry_per_schedule(self, desk):
        sched = Schedule.from_json(desk.to_json())
        family = default_pair_family(sched)
        for c in sched.targets.singular:
            for i, (_, a) in enumerate(family):
                for _, b in family[i:]:
                    check_weak_limits(a, b, c, sched)
        for d in sched.targets.dissipative:
            dissipativity_spot_check(d, sched, 100, random.Random(0))
        assert list(sched.runtime_cache) == ["lattice"]
