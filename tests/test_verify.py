import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

import rankone.verify as verify
from rankone.cli import load_config, schedule_from_config
from rankone.construction import PerturbationSpec, TargetSets, build_schedule, write_block
from rankone.errors import NotDissipative, RankOneError
from rankone.levelset import (
    base_slab,
    correlation,
    find_dissipativity_witness,
    make_slab,
)
from rankone.verify import (
    EVIDENCE_NOTE,
    _si,
    check_dissipativity,
    check_perturbed_limit,
    check_weak_limits,
    default_pair_family,
    dissipativity_spot_check,
    hitting_report,
    perturbation_tolerance,
    singularity_evidence,
    spectral_density,
    weak_limits,
)

from conftest import DESK_TARGETS


@pytest.fixture(scope="module")
def desk6():
    """Desk's targets at 6 stages: 3/2 is carried at certified stages 1, 2
    and 4, 5/2 at stage 3 alone."""
    return build_schedule(1, 1, TargetSets(**DESK_TARGETS), 6)


class TestWeakLimits:
    def test_base_pair_passes_with_quarter(self, desk):
        y = base_slab(desk)
        rep = check_weak_limits(y, y, F(3, 2), desk)
        assert rep["passed"]
        assert rep["target"] == F(1, 4)
        assert rep["threshold_stage"] == 2
        for ch in rep["stages"]:
            if ch["stage"] >= 2:
                assert ch["value_at_height"] == ch["value_at_stretched_height"] == F(1, 4)
                assert ch["product"] == F(1, 16) == rep["product_target"]

    def test_other_ratio(self, desk):
        y = base_slab(desk)
        rep = check_weak_limits(y, y, F(5, 2), desk)
        assert rep["passed"]
        assert {ch["stage"] for ch in rep["stages"]} == {3, 5}

    def test_disjoint_pair_target_zero(self, desk):
        h1 = desk.height(1)
        a = make_slab(desk, 1, [(0, h1 / 2)])
        b = make_slab(desk, 1, [(h1 / 2, h1)])
        rep = check_weak_limits(a, b, F(3, 2), desk)
        assert rep["target"] == 0
        assert rep["passed"]
        for ch in rep["stages"]:
            if ch["stage"] >= rep["threshold_stage"]:
                assert ch["value_at_height"] == 0 and ch["value_at_stretched_height"] == 0

    def test_whole_family_passes(self, desk):
        fam = default_pair_family(desk)
        for c in (F(3, 2), F(5, 2)):
            for i, (_, a) in enumerate(fam):
                for _, b in fam[i:]:
                    rep = check_weak_limits(a, b, c, desk)
                    assert rep["passed"]
                    for ch in rep["stages"]:
                        if ch["stage"] >= rep["threshold_stage"]:
                            assert ch["product"] == rep["product_target"]

    def test_rejects_foreign_ratio(self, desk):
        y = base_slab(desk)
        with pytest.raises(ValueError):
            check_weak_limits(y, y, F(7, 2), desk)
        with pytest.raises(ValueError, match="^7/1 is not a singular target of this schedule$"):
            check_weak_limits(y, y, 7, desk)

    def test_needs_two_stages_above(self, tiny, desk6):
        # tiny certifies no stage; desk6 carries 5/2 at one stage above the
        # base slab's, and 3/2 at one stage above a stage-2 slab's
        y2 = default_pair_family(desk6)[-1][1]
        for sched, y, c, k in ((tiny, base_slab(tiny), "3/2", 1),
                               (desk6, base_slab(desk6), "5/2", 1), (desk6, y2, "3/2", 2)):
            with pytest.raises(
                RankOneError, match=f"^need at least two certified stages above {k} carrying c={c}$"
            ):
                check_weak_limits(y, y, F(c), sched)

    def test_entries_name_every_family_pair(self, desk):
        names = [name for name, _ in default_pair_family(desk)]
        entries, evidence = weak_limits(F(5, 2), desk)
        assert [e["pair"] for e in entries] == [
            (a, b) for i, a in enumerate(names) for b in names[i:]
        ]
        fam = dict(default_pair_family(desk))
        for e in entries:
            assert e == {**check_weak_limits(*map(fam.get, e["pair"]), F(5, 2), desk),
                         "pair": e["pair"]}
        passing = [(*e["pair"], e) for e in entries if e["passed"]]
        assert evidence == singularity_evidence(F(5, 2), passing)

    def test_no_evidence_without_a_passing_pair(self, desk, monkeypatch):
        # the pair checks are looked up in the module, where a wrapper may replace them
        check = verify.check_weak_limits
        monkeypatch.setattr(
            verify, "check_weak_limits", lambda *args: {**check(*args), "passed": False}
        )
        entries, evidence = weak_limits(F(3, 2), desk)
        n = len(default_pair_family(desk))
        assert len(entries) == n * (n + 1) // 2
        assert evidence is None


class TestDefaultPairFamily:
    def test_one_stage_schedule_holds_stage_one_slabs(self):
        targets = TargetSets(singular=(F(3, 2), F(5, 2)), dissipative=(F(2), F(3)))
        sched = build_schedule(1, 1, targets, 1)
        assert [name for name, _ in default_pair_family(sched)] == [
            "stage1_full", "stage1_half0", "stage1_half1",
            "stage1_quarter0", "stage1_quarter1", "stage1_quarter2", "stage1_quarter3",
        ]
        assert {slab.stage for _, slab in default_pair_family(sched)} == {1}


class TestSingularityEvidence:
    def test_base_pair_constant(self, desk):
        y = base_slab(desk)
        rep = check_weak_limits(y, y, F(3, 2), desk)
        ev = singularity_evidence(F(3, 2), [("y", "y", rep)])
        entry = ev["entries"][0]
        assert entry["pair"] == ("y", "y")
        assert entry["constant"] == F(1, 16)
        assert entry["informative"] and ev["informative"]
        assert [s for s, _ in entry["sequence"]] == [2, 4, 6]
        assert all(v == F(1, 16) for _, v in entry["sequence"])
        # consistency: the constant is the square of the factor target
        assert entry["constant"] == rep["target"] ** 2
        assert ev["ratio"] == F(3, 2) and ev["note"] == EVIDENCE_NOTE
        with pytest.raises(ValueError):
            singularity_evidence(F(5, 2), [("y", "y", rep)])

    def test_failed_report_refused(self, desk):
        y = base_slab(desk)
        rep = {**check_weak_limits(y, y, F(3, 2), desk), "threshold_stage": None, "passed": False}
        with pytest.raises(RankOneError, match="evidence requires passing pairs"):
            singularity_evidence(F(3, 2), [("y", "y", rep)])

    def test_disjoint_pair_vacuous(self, desk):
        h1 = desk.height(1)
        a = make_slab(desk, 1, [(0, h1 / 2)])
        b = make_slab(desk, 1, [(h1 / 2, h1)])
        rep = check_weak_limits(a, b, F(3, 2), desk)
        ev = singularity_evidence(F(3, 2), [("a", "b", rep)])
        assert ev["entries"][0]["constant"] == 0
        assert not ev["entries"][0]["informative"]
        assert not ev["informative"]

    def test_nonzero_intersection_nonzero_constant(self, desk):
        h1 = desk.height(1)
        a = make_slab(desk, 1, [(0, 3 * h1 / 4)])
        y = base_slab(desk)
        rep = check_weak_limits(a, y, F(5, 2), desk)
        ev = singularity_evidence(F(5, 2), [("a", "y", rep)])
        assert ev["entries"][0]["constant"] == (3 * F(1, 4) / 4) ** 2 > 0
        assert ev["informative"]


class TestDissipativity:
    def test_desk_certificates_pass(self, desk):
        for d, first_window in ((F(2), 2), (F(3), 3)):
            cert = check_dissipativity(d, desk)
            assert cert["passed"]
            assert [w["window"] for w in cert["windows"]] == list(range(first_window, 7))
            assert cert["threshold"] == desk.height(first_window)
            for w in cert["windows"]:
                assert w["empty"] and w["witness"].is_empty()

    def test_foreign_ratio_rejected(self, desk):
        with pytest.raises(ValueError):
            check_dissipativity(F(7, 2), desk)

    @pytest.mark.parametrize(
        "call",
        [
            lambda sched, d: sched.windows_for(d),
            lambda sched, d: sched.dissipativity_threshold(d),
            lambda sched, d: find_dissipativity_witness(sched, d, 3),
            lambda sched, d: dissipativity_spot_check(d, sched, 1, random.Random(0)),
        ],
        ids=["windows_for", "dissipativity_threshold", "find_dissipativity_witness",
             "dissipativity_spot_check"],
    )
    def test_foreign_ratio_value_error(self, desk, call):
        """A ratio outside the dissipative family is a usage error (exit 2 at
        the command line), whichever call meets it first."""
        with pytest.raises(ValueError, match="7/2 is not a dissipative target"):
            call(desk, F(7, 2))

    def test_uncertified_window(self):
        targets = TargetSets(singular=(F(3, 2),), dissipative=(F(2),))
        sched = build_schedule(1, 1, targets, 3)
        # entry stage 2 but only window 1 is certified
        with pytest.raises(RankOneError, match="schedule too short: no window for d=2 "):
            check_dissipativity(F(2), sched)

    def test_broken_schedule_fails_with_witness(self, broken):
        cert = check_dissipativity(F(2), broken)
        assert not cert["passed"]
        hit = [w for w in cert["windows"] if not w["empty"]]
        assert hit
        for w in hit:
            st = broken.stage(w["window"])
            landmark = st.height + st.spacers[1]
            # the designed collision sits at the middle-spacer landmark
            assert any(
                F(9, 10) < lo / landmark and hi / landmark < F(11, 10)
                for lo, hi in w["witness"]
            )

    @pytest.mark.parametrize(
        "d, digest",
        [
            (2, "8f5d04a29bc65c4dd2e000bda1d68bde3408fa6a99e3d9ba524b19343c4d3c4d"),
            (3, "2be102fafc4b5f8b1b1de91f17d2fa5c366f5404b72f0efe42a9aa9cc07bfa91"),
        ],
    )
    def test_broken_certificate_bytes_unchanged(self, broken, d, digest):
        # serialized as ``rankone verify`` writes dissipativity.json; the
        # digest is that of the Fraction-based witness assembly, which the
        # lattice code must reproduce byte for byte
        text = json.dumps(write_block(check_dissipativity(F(d), broken)), indent=2,
                          sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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
        rep = check_perturbed_limit(F(3, 2), desk_perturbed)[0]
        assert rep["point"] == (0, 0)
        assert rep["pair"] == ("stage1_full", "stage1_full")
        assert rep["passed"]
        assert rep["limit_at_height"] == rep["limit_at_stretched_height"] == F(1, 4)
        assert all(
            ch["error_at_height"] == 0 == ch["error_at_stretched_height"]
            for ch in rep["stages"]
            if ch["stage"] > 1
        )

    def test_realized_points_pass_exactly(self, desk_perturbed):
        realized = {}
        for j in desk_perturbed.certified_windows():
            if desk_perturbed.stage(j).ratio == F(3, 2):
                realized.setdefault(desk_perturbed.delta_pair(j), []).append(j)
        assert (F(0), F(1)) in realized and (F(1, 2), F(0)) in realized
        reports = check_perturbed_limit(F(3, 2), desk_perturbed)
        assert [rep["point"] for rep in reports] == list(realized)
        for rep in reports:
            assert rep["passed"]
            assert [c["stage"] for c in rep["stages"]] == realized[rep["point"]]
            for ch in rep["stages"]:
                if ch["stage"] > 1:
                    assert ch["error_at_height"] == 0 and ch["error_at_stretched_height"] == 0

    def test_limit_values_are_translated_correlations(self, desk_perturbed):
        y = base_slab(desk_perturbed)
        reports = check_perturbed_limit(F(3, 2), desk_perturbed)
        rep = next(rep for rep in reports if rep["point"] == (0, 1))
        assert rep["limit_at_height"] == correlation(y, y, 0, desk_perturbed) / 4
        assert rep["limit_at_stretched_height"] == correlation(y, y, -1, desk_perturbed) / 4

    def test_uncarried_ratio_raises(self):
        # four stages carry 3/2, 3/2, 5/2, 3/2; only stages 1 and 2 are certified
        sched = build_schedule(
            1, 1, TargetSets(singular=(F(3, 2), F(5, 2))), 4,
            perturbation=PerturbationSpec(net_depth=1),
        )
        with pytest.raises(RankOneError, match="^no certified stage carries c=5/2$"):
            check_perturbed_limit(F(5, 2), sched)

    def test_point_fails_on_its_second_to_last_stage(self, monkeypatch):
        # desk's targets at 24 stages visit ratio 3/2's point (0, 0) at
        # stages 1 and 18; at stage 1 both errors are 1/8, within 4 w_1 = 4
        sched = build_schedule(1, 1, TargetSets(**DESK_TARGETS), 24,
                               perturbation=PerturbationSpec(net_depth=1))

        def zero_point():
            return next(r for r in check_perturbed_limit(F(3, 2), sched) if r["point"] == (0, 0))

        rep = zero_point()
        assert [ch["stage"] for ch in rep["stages"]] == [1, 18]
        first = rep["stages"][0]
        assert first["error_at_height"] == first["error_at_stretched_height"] == F(1, 8)
        assert rep["passed"]
        tolerance = verify.perturbation_tolerance
        monkeypatch.setattr(verify, "perturbation_tolerance",
                            lambda s, j: F(1, 16) if j == 1 else tolerance(s, j))
        rep = zero_point()
        assert [ch["within"] for ch in rep["stages"]] == [False, True]
        assert not rep["passed"]

    @pytest.mark.parametrize("widths, passed", [(5, False), (3, True)])
    def test_error_between_tolerances(self, desk_perturbed, monkeypatch, widths, passed):
        """An error of 5 w_j at every checked stage of a point lies outside
        the 4 w_j sliver budget and fails the point; 3 w_j lies inside it
        and passes.  The walk is patched to give each point's exact limit
        plus that error at the height, and the exact limit at the
        stretched height."""
        def walk(a, b, c, stages, sched):
            for j in stages:
                shift_a, shift_b = sched.delta_pair(j)
                yield (j, correlation(a, b, -shift_a, sched) / 4 + widths * sched.width(j),
                       correlation(a, b, -shift_b, sched) / 4)

        monkeypatch.setattr(verify, "_limit_walk", walk)
        for c in desk_perturbed.targets.singular:
            for rep in check_perturbed_limit(c, desk_perturbed):
                for ch in rep["stages"]:
                    assert ch["error_at_height"] == widths * desk_perturbed.width(ch["stage"])
                    assert ch["error_at_stretched_height"] == 0
                assert rep["passed"] is passed

    def test_requires_perturbed_schedule(self, desk):
        with pytest.raises(RankOneError, match="schedule was built without perturbations"):
            check_perturbed_limit(F(3, 2), desk)

    def test_tolerance_decreases_geometrically(self, desk_perturbed):
        taus = [perturbation_tolerance(desk_perturbed, j) for j in (1, 2, 4, 6)]
        # Y is one run: two edge slivers of width w_j per side
        assert taus == [4 * desk_perturbed.width(j) for j in (1, 2, 4, 6)]
        for a, b in zip(taus, taus[1:]):
            assert b < a
        assert taus[0] / taus[-1] >= 2


class TestSpectralDensity:
    def test_density_for_two(self, desk):
        dens, _, density = spectral_density(F(2), desk, s_max=120.0, samples=4001)
        assert dens["support_bound"] == desk.height(2)
        mid = len(density) // 2
        assert density[mid] > 0
        assert density == density[::-1]
        assert dens["min_density"] >= -1e-6
        assert abs(dens["mass_range_value"] - float(dens["phi_at_zero"])) < 0.01
        assert dens["phi_at_zero"] == 1

    def test_density_for_three(self, desk):
        # second dissipative ratio: support bound is the stage-3 height
        dens, _, _ = spectral_density(F(3), desk, s_max=50.0, samples=1001)
        assert dens["support_bound"] == desk.height(3)
        assert dens["min_density"] >= -1e-6
        assert abs(dens["mass_range_value"] - 1.0) < 0.01

    def test_density_zero_matches_exact_integral(self, desk):
        dens, _, density = spectral_density(F(2), desk, s_max=50.0, samples=501)
        mid = len(density) // 2
        assert abs(density[mid] - float(dens["phi_integral"]) / (2 * math.pi)) < 1e-12

    def test_late_entry_ratio(self, tmp_path):
        # 201/200 enters at window 5, threshold about 5.9e9: of 125,482
        # cells of phi only 117 are nonzero, at times up to about 3.2e7
        path = tmp_path / "late.json"
        path.write_text(json.dumps({
            "targets": {
                "singular": ["3/2", "5/2"],
                "dissipative": ["2/1", "201/200"],
                "entry_stages": {"2/1": 2, "201/200": 5},
            },
            "stages": 7,
        }))
        sched = schedule_from_config(load_config(path))
        dens, _, _ = spectral_density(F(201, 200), sched, s_max=50.0, samples=501)
        assert math.isclose(
            dens["density_at_zero"], float(dens["phi_integral"]) / (2 * math.pi), rel_tol=1e-9
        )
        assert dens["min_density"] >= 0
        assert abs(dens["mass_range_value"] - dens["phi_at_zero"]) < 0.01
        assert dens["piece_count"] == 125482

    @pytest.mark.parametrize(
        "grid, said",
        [(dict(samples=8000), "samples must be an odd count >= 3"),
         (dict(samples=1), "samples must be an odd count >= 3"),
         (dict(samples=-3), "samples must be an odd count >= 3"),
         (dict(s_max=math.nan), "s_max must be finite and positive"),
         (dict(s_max=math.inf), "s_max must be finite and positive"),
         (dict(s_max=0.0), "s_max must be finite and positive"),
         (dict(s_max=-1.0), "s_max must be finite and positive"),
         # the step underflows to a subnormal, rounded up past s_max / 4000
         (dict(s_max=1e-320), "s_max is too small for increasing samples"),
         # the step underflows to zero
         (dict(s_max=5e-324), "s_max is too small for increasing samples")],
        ids=["even", "one", "negative", "nan", "inf", "zero", "negative-s-max",
             "subnormal-step", "zero-step"],
    )
    def test_grid_refused_before_the_certificate(self, desk, monkeypatch, grid, said):
        def certificate(*args):
            raise AssertionError("the certificate ran")

        monkeypatch.setattr("rankone.verify.check_dissipativity", certificate)
        with pytest.raises(ValueError, match=f"^{said}$"):
            spectral_density(F(2), desk, **grid)
        with pytest.raises(AssertionError, match="the certificate ran"):  # a valid grid reaches it
            spectral_density(F(2), desk, s_max=50.0, samples=501)

    @pytest.mark.parametrize("x, si", [
        # Si(x) at the float x, by mpmath at 30 digits
        (0.0, 0.0),
        (1e-8, 1.0000000000000000154e-8),
        (1.0, 0.94608307036718301494),
        (3.999, 1.7583922814762951401),
        (4.0, 1.7582031389490530581),
        (4.001, 1.758013880311059797),
        (10.0, 1.6583475942188740493),
        (100.0, 1.5622254668890562934),
        (1e4, 1.5708915453859619157),
        (1e8, 1.5707963304287474196),
        (1e12, 1.5707963267941051729),
    ])
    def test_sine_integral(self, x, si):
        assert math.isclose(_si(x), si, rel_tol=1e-14)
        assert _si(-x) == -_si(x)

    def test_broken_schedule_not_dissipative(self, broken):
        with pytest.raises(NotDissipative):
            spectral_density(F(2), broken)


class TestHittingReport:
    def test_landmark_annotations(self, desk):
        rep = json.loads("".join(hitting_report(desk, 2)))
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

    def test_broken_window_4_bytes_unchanged(self, broken):
        # the text ``rankone profile --window`` writes; the digest is that of
        # the Fraction-based sweep, support and labels serialized by
        # ``json.dumps(indent=2, sort_keys=True)``, which the one-pass text
        # on the lattice must reproduce byte for byte
        text = "".join(hitting_report(broken, 4))
        assert len(json.loads(text)["intervals"]) == 6085
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "719f08f33959b152c98d5bda43f9e58c7d888be0001a73d250b69e4dba264560"
        )

    def test_broken_window_5_bytes_unchanged(self, broken):
        # the bench's sweep workload writes this report with
        # ``rankone profile --window 5``; its digest is the bench gate's
        text = "".join(hitting_report(broken, 5))
        assert len(json.loads(text)["intervals"]) == 79093
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b673a9a47f1b2280ac2a3003adaa337bf4e2c9a93b1f9a691c047ac2125d6baa"
        )

    @pytest.mark.parametrize("chunk", [1, 2, 6085])
    def test_chunk_boundaries_keep_the_bytes(self, broken, monkeypatch, chunk):
        """The text does not depend on where its chunks end: one run per
        chunk, two, and all 6,085 runs of broken window 4 in one."""
        import rankone.verify as verify

        monkeypatch.setattr(verify, "_CHUNK_RUNS", chunk)
        text = "".join(hitting_report(broken, 4))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "719f08f33959b152c98d5bda43f9e58c7d888be0001a73d250b69e4dba264560"
        )

    @pytest.mark.parametrize("j, chunk", [(4, 1), (5, 2048)])
    def test_labels_once_per_cut(self, broken, monkeypatch, j, chunk):
        """The report asks ``annotate_landmark`` once per cut of its
        window's table, at most 1 + 8 + 12 = 21 times, however many runs
        and chunks it writes."""
        label, calls = verify.annotate_landmark, []
        monkeypatch.setattr(verify, "_CHUNK_RUNS", chunk)
        monkeypatch.setattr(verify, "annotate_landmark",
                            lambda landmarks, t: calls.append(t) or label(landmarks, t))
        text = "".join(hitting_report(broken, j))
        assert len(json.loads(text)["intervals"]) > 2048
        assert 1 <= len(calls) == len(set(calls)) <= 21

    def test_stream_peak_below_its_text(self, broken):
        """Consuming the report of broken window 5 chunk by chunk never
        holds as much as its own 9,763,736-byte text: no list of its runs,
        entries or text is built."""
        tracemalloc.start()
        try:
            size = sum(map(len, hitting_report(broken, 5)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size == 9_763_736
        assert peak < size

    def test_stream_peak_under_4_mb(self, broken):
        """Consuming the report of broken window 5 (79,093 runs) chunk by
        chunk peaks under 4 MB traced: its runs are merged a block of
        partial sums at a time, never listed all at once."""
        tracemalloc.start()
        try:
            for _ in hitting_report(broken, 5):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_no_runs_give_an_empty_list(self, desk, monkeypatch):
        import rankone.verify as verify

        monkeypatch.setattr(verify, "_hitting_runs", lambda *args: (1, iter([])))
        text = "".join(hitting_report(desk, 2))
        assert '\n  "intervals": [],\n' in text
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == {"intervals": [], "range": ["553/2", "305809/4"],
                                    "window": 2}


@pytest.mark.parametrize(
    "name",
    [
        "_limit_walk",
        "check_weak_limits",
        "singularity_evidence",
        "check_dissipativity",
        "dissipativity_spot_check",
        "perturbation_tolerance",
        "check_perturbed_limit",
        "hitting_report",
    ],
)
def test_no_float_in_certificate(name):
    """Certificate decisions stay rational; floats belong to the density only."""
    import inspect

    import rankone.verify as verify

    assert "float(" not in inspect.getsource(getattr(verify, name))


@pytest.mark.parametrize("module", ["rankone.verify", "rankone.oracle"])
def test_plain_values_no_classes(module):
    """The certificates and the oracle return dicts, tuples and rationals:
    their modules define no class."""
    import importlib
    import inspect

    mod = importlib.import_module(module)
    assert [name for name, cls in inspect.getmembers(mod, inspect.isclass)
            if cls.__module__ == module] == []
    assert "dataclasses" not in inspect.getsource(mod)


@pytest.mark.parametrize("module", ["rankone.levelset"])
def test_no_to_dict_on_reports(module):
    """Reports are written by ``write_block``: their field names are the
    document keys, so no class spells its keys out by hand."""
    import importlib
    import inspect

    mod = importlib.import_module(module)
    classes = [
        cls
        for _, cls in inspect.getmembers(mod, inspect.isclass)
        if cls.__module__ == module
    ]
    assert classes
    assert [cls.__name__ for cls in classes if "to_dict" in vars(cls)] == []


def test_derived_report_fields_agree_with_their_data(desk, desk_perturbed, broken):
    """The fields a report derives from its own data (matches, thresholds,
    verdicts, limit constants, density summaries) agree with that data, on
    passing and failing reports alike."""
    # weak limits: the whole desk family at both ratios passes; the base
    # pair on the perturbed schedule fails, with no threshold
    y = base_slab(desk_perturbed)
    fam = default_pair_family(desk)
    weak = [
        check_weak_limits(a, b, c, desk)
        for c in (F(3, 2), F(5, 2))
        for i, (_, a) in enumerate(fam)
        for _, b in fam[i:]
    ] + [check_weak_limits(y, y, c, desk_perturbed) for c in (F(3, 2), F(5, 2))]
    assert not all(rep["passed"] for rep in weak)
    for rep in weak:
        stages = rep["stages"]
        for ch in stages:
            assert ch["match_at_height"] == (ch["value_at_height"] == rep["target"])
            assert ch["match_at_stretched_height"] == (
                ch["value_at_stretched_height"] == rep["target"]
            )
            assert ch["product"] == ch["value_at_height"] * ch["value_at_stretched_height"]
            assert ch["product_match"] == (ch["product"] == rep["product_target"])
        ok = [ch["match_at_height"] and ch["match_at_stretched_height"] for ch in stages]
        if rep["threshold_stage"] is None:
            assert not ok[-1]
        else:
            i = [ch["stage"] for ch in stages].index(rep["threshold_stage"])
            assert all(ok[i:]) and (i == 0 or not ok[i - 1])
        assert rep["passed"] == (rep["threshold_stage"] is not None)
        assert rep["factor_limit_constant"] == F(1, 4)
        assert rep["product_limit_constant"] == F(1, 16)

    # perturbed limits
    for rep in check_perturbed_limit(F(3, 2), desk_perturbed):
        for ch in rep["stages"]:
            worst = max(ch["error_at_height"], ch["error_at_stretched_height"])
            assert ch["within"] == (worst <= ch["tolerance"])
        assert rep["passed"] == all(ch["within"] for ch in rep["stages"][-2:])

    # dissipativity: desk passes, broken fails
    certs = [check_dissipativity(d, sched) for sched in (desk, broken) for d in (F(2), F(3))]
    assert [cert["passed"] for cert in certs] == [True, True, False, False]
    for cert in certs:
        for w in cert["windows"]:
            assert w["empty"] == w["witness"].is_empty()
        assert cert["passed"] == all(w["empty"] for w in cert["windows"])

    # density summaries
    dens, frequencies, density = spectral_density(F(2), desk, s_max=50.0, samples=501)
    assert dens["grid"] == {"s_max": frequencies[-1], "samples": len(frequencies)}
    assert dens["grid"] == {"s_max": 50.0, "samples": 501} and len(density) == 501
    assert frequencies[250] == 0.0 and dens["density_at_zero"] == density[250]
    assert dens["min_density"] == min(density)
