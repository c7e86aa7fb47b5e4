import random
from fractions import Fraction as F

import numpy as np
import pytest

from rankone import (
    NoMatchingStages,
    NotDissipative,
    UncertifiedWindow,
    base_slab,
    check_dissipativity,
    check_perturbed_limit,
    check_weak_limits,
    correlation,
    default_pair_family,
    make_slab,
    singularity_evidence,
    spectral_density,
)
from rankone.verify import (
    DensityGrid,
    dissipativity_spot_check,
    hitting_report,
    perturbation_tolerance,
)


class TestWeakLimits:
    def test_base_pair_passes_with_quarter(self, desk):
        y = base_slab(desk)
        rep = check_weak_limits(y, y, F(3, 2), desk)
        assert rep.passed
        assert rep.target == F(1, 4)
        assert rep.threshold_stage == 2
        for ch in rep.stages:
            if ch.stage >= 2:
                assert ch.value_h == ch.value_c == F(1, 4)
                assert ch.product == F(1, 16) == rep.product_target

    def test_other_ratio(self, desk):
        y = base_slab(desk)
        rep = check_weak_limits(y, y, F(5, 2), desk)
        assert rep.passed
        assert {ch.stage for ch in rep.stages} == {3, 5}

    def test_disjoint_pair_target_zero(self, desk):
        h1 = desk.height(1)
        a = make_slab(desk, 1, [(0, h1 / 2)])
        b = make_slab(desk, 1, [(h1 / 2, h1)])
        rep = check_weak_limits(a, b, F(3, 2), desk)
        assert rep.target == 0
        assert rep.passed
        for ch in rep.stages:
            if ch.stage >= rep.threshold_stage:
                assert ch.value_h == 0 and ch.value_c == 0

    def test_whole_family_passes(self, desk):
        fam = default_pair_family(desk)
        for c in (F(3, 2), F(5, 2)):
            for i, (_, a) in enumerate(fam):
                for _, b in fam[i:]:
                    rep = check_weak_limits(a, b, c, desk)
                    assert rep.passed
                    for ch in rep.stages:
                        if ch.stage >= rep.threshold_stage:
                            assert ch.product == rep.product_target

    def test_rejects_foreign_ratio(self, desk):
        y = base_slab(desk)
        with pytest.raises(ValueError):
            check_weak_limits(y, y, F(7, 2), desk)

    def test_needs_two_stages_above(self, tiny):
        y = base_slab(tiny)
        with pytest.raises(NoMatchingStages):
            check_weak_limits(y, y, F(3, 2), tiny)


class TestSingularityEvidence:
    def test_base_pair_constant(self, desk):
        y = base_slab(desk)
        rep = check_weak_limits(y, y, F(3, 2), desk)
        ev = singularity_evidence(F(3, 2), [("y", "y", rep)])
        entry = ev.entries[0]
        assert entry.constant == F(1, 16)
        assert entry.informative
        assert all(v == F(1, 16) for _, v in entry.sequence)
        # consistency: the constant is the square of the factor target
        assert entry.constant == rep.target**2
        with pytest.raises(ValueError):
            singularity_evidence(F(5, 2), [("y", "y", rep)])

    def test_disjoint_pair_vacuous(self, desk):
        h1 = desk.height(1)
        a = make_slab(desk, 1, [(0, h1 / 2)])
        b = make_slab(desk, 1, [(h1 / 2, h1)])
        rep = check_weak_limits(a, b, F(3, 2), desk)
        ev = singularity_evidence(F(3, 2), [("a", "b", rep)])
        assert not ev.entries[0].informative
        assert not ev.informative

    def test_nonzero_intersection_nonzero_constant(self, desk):
        h1 = desk.height(1)
        a = make_slab(desk, 1, [(0, 3 * h1 / 4)])
        y = base_slab(desk)
        rep = check_weak_limits(a, y, F(5, 2), desk)
        ev = singularity_evidence(F(5, 2), [("a", "y", rep)])
        assert ev.entries[0].constant == (3 * F(1, 4) / 4) ** 2 > 0


class TestDissipativity:
    def test_desk_certificates_pass(self, desk):
        for d, first_window in ((F(2), 2), (F(3), 3)):
            cert = check_dissipativity(d, desk)
            assert cert.passed
            assert [w.window for w in cert.windows] == list(range(first_window, 7))
            assert cert.threshold == desk.height(first_window)
            for w in cert.windows:
                assert w.empty and w.witness.is_empty()

    def test_foreign_ratio_rejected(self, desk):
        with pytest.raises(ValueError):
            check_dissipativity(F(7, 2), desk)

    def test_uncertified_window(self):
        from rankone import TargetSets, build_schedule

        targets = TargetSets(singular=(F(3, 2),), dissipative=(F(2),))
        sched = build_schedule(1, 1, targets, 3)
        # entry stage 2 but only window 1 is certified
        with pytest.raises(UncertifiedWindow):
            check_dissipativity(F(2), sched)

    def test_broken_schedule_fails_with_witness(self, broken):
        cert = check_dissipativity(F(2), broken)
        assert not cert.passed
        hit = [w for w in cert.windows if not w.empty]
        assert hit
        for w in hit:
            st = broken.stage(w.window)
            landmark = st.height + st.spacers[1]
            # the designed collision sits at the middle-spacer landmark
            assert any(
                F(9, 10) < lo / landmark and hi / landmark < F(11, 10)
                for lo, hi in w.witness
            )

    def test_spot_check_clean(self, desk):
        rng = random.Random(123)
        res = dissipativity_spot_check(F(2), desk, 40, rng)
        assert res["checked"] == 40 * 5
        assert not res["failures"]

    def test_spot_check_catches_broken(self, broken):
        rng = random.Random(1)
        res = dissipativity_spot_check(F(2), broken, 150, rng)
        assert res["failures"]


class TestPerturbedLimits:
    def test_zero_point_reduces_to_weak_limit(self, desk_perturbed):
        y = base_slab(desk_perturbed)
        rep = check_perturbed_limit(F(3, 2), 0, 0, y, y, desk_perturbed)
        assert rep.passed
        assert rep.limit_h == rep.limit_c == F(1, 4)
        assert all(ch.error_h == 0 == ch.error_c for ch in rep.stages if ch.stage > 1)

    def test_realized_points_pass_exactly(self, desk_perturbed):
        y = base_slab(desk_perturbed)
        realized = {}
        for j in desk_perturbed.certified_windows():
            if desk_perturbed.stage(j).ratio == F(3, 2):
                realized.setdefault(desk_perturbed.delta_pair(j), []).append(j)
        assert (F(0), F(1)) in realized and (F(1, 2), F(0)) in realized
        for (a, b), stages in realized.items():
            rep = check_perturbed_limit(F(3, 2), a, b, y, y, desk_perturbed)
            assert rep.passed
            assert [c.stage for c in rep.stages] == stages
            for ch in rep.stages:
                if ch.stage > 1:
                    assert ch.error_h == 0 and ch.error_c == 0

    def test_limit_values_are_translated_correlations(self, desk_perturbed):
        y = base_slab(desk_perturbed)
        rep = check_perturbed_limit(F(3, 2), F(0), F(1), y, y, desk_perturbed)
        assert rep.limit_h == correlation(y, y, 0, desk_perturbed) / 4
        assert rep.limit_c == correlation(y, y, -1, desk_perturbed) / 4

    def test_unrealized_point_raises(self, desk_perturbed):
        y = base_slab(desk_perturbed)
        with pytest.raises(NoMatchingStages):
            check_perturbed_limit(F(3, 2), F(1), F(1), y, y, desk_perturbed)

    def test_requires_perturbed_schedule(self, desk):
        from rankone import ConfigError

        y = base_slab(desk)
        with pytest.raises(ConfigError):
            check_perturbed_limit(F(3, 2), 0, 0, y, y, desk)

    def test_tolerance_decreases_geometrically(self, desk_perturbed):
        y = base_slab(desk_perturbed)
        taus = [
            perturbation_tolerance(y, y, desk_perturbed, j) for j in (1, 2, 4, 6)
        ]
        for a, b in zip(taus, taus[1:]):
            assert b < a
        assert taus[0] / taus[-1] >= 2


class TestSpectralDensity:
    def test_density_for_two(self, desk):
        grid = DensityGrid(s_max=120.0, samples=4001, mass_s=4000.0)
        dens = spectral_density(F(2), desk, grid)
        assert dens.support_bound == desk.height(2)
        mid = len(dens.density) // 2
        assert dens.density[mid] > 0
        assert np.all(dens.density == dens.density[::-1])
        assert dens.min_density >= -1e-6
        assert abs(dens.mass_range_value - float(dens.phi_at_zero)) < 0.01
        assert dens.phi_at_zero == 1

    def test_density_for_three(self, desk):
        # second dissipative ratio: support bound is the stage-3 height
        dens = spectral_density(
            F(3), desk, DensityGrid(s_max=50.0, samples=1001, mass_s=2000.0)
        )
        assert dens.support_bound == desk.height(3)
        assert dens.min_density >= -1e-6
        assert abs(dens.mass_range_value - 1.0) < 0.01

    def test_density_zero_matches_exact_integral(self, desk):
        dens = spectral_density(F(2), desk, DensityGrid(s_max=50.0, samples=501))
        mid = len(dens.density) // 2
        assert abs(dens.density[mid] - float(dens.phi_integral) / (2 * np.pi)) < 1e-12

    def test_broken_schedule_not_dissipative(self, broken):
        with pytest.raises(NotDissipative):
            spectral_density(F(2), broken)


class TestHittingReport:
    def test_landmark_annotations(self, desk):
        rep = hitting_report(desk, 2)
        assert rep["intervals"]
        names = {e["landmark"] for e in rep["intervals"]}
        assert "tower_height" in names
        assert names <= {
            "tower_height",
            "stretched_height",
            "middle_spacer",
            "top_spacer",
            "unresolved",
        }
