"""Acceptance suite: the eight exit criteria at their stated tolerances.

Desk configuration: w1 = h1 = 1, singular ratios (3/2, 5/2), dissipative
ratios (2, 3), 8 stages, gauge max(16, 2^j).  Every criterion prints one
pass/fail line; when all eight ran, the lines are written to
acceptance_report.txt.
"""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from rankone.construction import write_block
from rankone.exactnum import IntervalSet
from rankone.levelset import correlation, correlation_profile
from rankone.oracle import oracle_correlation
from rankone.verify import (
    check_dissipativity,
    check_perturbed_limit,
    check_weak_limits,
    default_pair_family,
    dissipativity_spot_check,
    perturbation_tolerance,
    spectral_density,
)

from reference import (
    PointState,
    contains,
    intersect,
    locate_height,
    measure,
    orbit_advance,
    point_in_slab,
    refine,
    translate_exact,
    union,
)

_LINES: list[str] = []


def report(num: int, ok: bool, detail: str):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    _LINES.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def write_report():
    """Rewrite acceptance_report.txt only when all eight criteria reported."""
    yield
    reported = {line[: line.index("]") + 1] for line in _LINES}
    if reported == {f"[criterion {i}]" for i in range(1, 9)}:
        Path(__file__).parent.parent.joinpath("acceptance_report.txt").write_text(
            "\n".join(_LINES) + "\n"
        )


def all_pairs(sched):
    fam = default_pair_family(sched)
    for i, (name_a, a) in enumerate(fam):
        for name_b, b in fam[i:]:
            yield name_a, a, name_b, b


def test_criterion_1_exact_quarter_identities(desk):
    checked = 0
    for c in desk.targets.singular:
        for name_a, a, name_b, b in all_pairs(desk):
            rep = check_weak_limits(a, b, c, desk)
            assert rep["passed"], (name_a, name_b, c)
            suffix = [ch for ch in rep["stages"] if ch["stage"] >= rep["threshold_stage"]]
            assert suffix
            for ch in suffix:
                assert ch["value_at_height"] == rep["target"]  # exact rational equality
                assert ch["value_at_stretched_height"] == rep["target"]
                checked += 1
    report(
        1,
        True,
        f"both correlations equal mu(A/\\B)/4 exactly at {checked} "
        f"(pair, ratio, stage) checks across {2 * 55} pair-ratio reports",
    )


def test_criterion_2_product_constant(desk):
    checked = 0
    for c in desk.targets.singular:
        for name_a, a, name_b, b in all_pairs(desk):
            rep = check_weak_limits(a, b, c, desk)
            for ch in rep["stages"]:
                if ch["stage"] >= rep["threshold_stage"]:
                    assert ch["product"] == rep["product_target"]  # mu^2/16 exactly
                    checked += 1
            d = write_block(rep)
            assert d["factor_limit_constant"] == "1/4"
            assert d["product_limit_constant"] == "1/16"
    report(
        2,
        True,
        f"products equal mu(A/\\B)^2/16 exactly at {checked} checks; "
        "the 1/4 vs 1/16 constant discrepancy is reported with computed "
        "values as ground truth",
    )


def test_criterion_3_dissipativity(desk):
    rng = random.Random(2024)
    windows_checked = 0
    spots = 0
    for d in (F(2), F(3)):
        cert = check_dissipativity(d, desk)
        assert cert["passed"]
        assert [w["window"] for w in cert["windows"]] == desk.windows_for(d)
        for w in cert["windows"]:
            assert w["witness"].is_empty()
            windows_checked += 1
        res = dissipativity_spot_check(d, desk, 1000, rng)
        assert not res["failures"]
        spots += res["checked"]
    report(
        3,
        True,
        f"empty intersection certificates on {windows_checked} windows for "
        f"d in {{2, 3}}; min(rho(t), rho(dt)) = 0 exactly at {spots} random "
        "rational times",
    )


def test_criterion_4_negative_control(broken):
    cert = check_dissipativity(F(2), broken)
    witnesses = [w for w in cert["windows"] if not w["empty"]]
    ok = not cert["passed"] and bool(witnesses)
    report(
        4,
        ok,
        f"deliberately broken schedule (top spacer = 2 x middle spacer) "
        f"fails with nonempty witnesses on {len(witnesses)} windows",
    )


def test_criterion_5_perturbed_weak_limits(desk_perturbed):
    sched = desk_perturbed
    c = F(3, 2)
    matching = [j for j in sched.certified_windows() if sched.stage(j).ratio == c]
    realized = dict.fromkeys(map(sched.delta_pair, matching))
    final_two = matching[-2:]

    reports = check_perturbed_limit(c, sched)
    assert [rep["point"] for rep in reports] == list(realized)
    for rep in reports:
        assert rep["passed"]
        for ch in rep["stages"]:
            if ch["stage"] in final_two:
                assert ch["error_at_height"] <= ch["tolerance"]
                assert ch["error_at_stretched_height"] <= ch["tolerance"]

    taus = [perturbation_tolerance(sched, j) for j in matching]
    assert taus[0] >= 2 * taus[-1]
    report(
        5,
        True,
        f"errors below the boundary-sliver tolerance at the final two "
        f"matching stages {final_two} for {len(reports)} realized net "
        f"points of c=3/2; tolerance decays {float(taus[0] / taus[-1]):.0f}x "
        f"from stage {matching[0]} to {matching[-1]}",
    )


def test_criterion_6_oracle_equivalence(desk):
    rng = random.Random(42)
    fam = default_pair_family(desk)

    worst = F(0)
    for k in range(50):
        _, a = fam[rng.randrange(len(fam))]
        _, b = fam[rng.randrange(len(fam))]
        t = desk.height(1 + k % 3) * F(rng.randrange(2**16), 2**16)
        exact = correlation(a, b, t, desk)
        value, bound = oracle_correlation(a, b, t, 10_000, desk)
        assert abs(value - exact) <= bound
        if bound > 0:
            worst = max(worst, abs(value - exact) / bound)

    agree = 0
    for _ in range(10_000):
        _, a = fam[rng.randrange(len(fam))]
        _, b = fam[rng.randrange(len(fam))]
        lv = a.levels.intervals
        lo, hi = lv[rng.randrange(len(lv))]
        yy = lo + (hi - lo) * F(rng.randrange(1, 2**12), 2**12)
        p = PointState(
            stage=a.stage, height=yy, path=tuple(rng.randrange(1, 5) for _ in range(8))
        )
        t = desk.height(1 + rng.randrange(2)) * F(rng.randrange(2**12), 2**12)
        q = orbit_advance(p, t, desk)
        got = point_in_slab(q, b, desk)
        ta = translate_exact(a, t, desk)
        j = max(ta.stage, b.stage)
        inter = intersect(refine(ta, j, desk).levels, refine(b, j, desk).levels)
        if q.stage <= j:
            z, st, i = q.height, q.stage, 0
            while st < j:
                z += desk.offsets(st)[q.path[i] - 1]
                st += 1
                i += 1
        else:
            z = locate_height(q.stage, q.height, j, desk)
        expected = z is not None and contains(inter, z)
        assert got == expected
        agree += 1

    report(
        6,
        True,
        f"50 random triples within the deterministic grid bound at n=10^4 "
        f"(worst |diff|/bound {float(worst):.3f}); {agree} point-membership "
        "checks agree between the two test references, orbit point model "
        "and slab refinement",
    )


def test_criterion_7_structural_invariants(desk):
    rng = random.Random(7)
    fam = default_pair_family(desk)
    cases = {}

    n = 0
    for _, slab in fam:
        for j in range(slab.stage, 7):
            assert measure(refine(slab, j, desk), desk) == measure(slab, desk)
            n += 1
    while n < 100:
        _, slab = fam[rng.randrange(len(fam))]
        assert measure(refine(slab, slab.stage, desk), desk) == measure(slab, desk)
        n += 1
    cases["refine measure preservation"] = n

    n = 0
    for _ in range(100):
        _, slab = fam[rng.randrange(len(fam))]
        t = desk.height(1 + rng.randrange(3)) * F(rng.randrange(2**12), 2**12)
        assert measure(translate_exact(slab, t, desk), desk) == measure(slab, desk)
        n += 1
    cases["translate measure preservation"] = n

    n = 0
    for _ in range(100):
        _, a = fam[rng.randrange(len(fam))]
        _, b = fam[rng.randrange(len(fam))]
        t = desk.height(1 + rng.randrange(2)) * F(rng.randrange(2**12), 2**12)
        sign = 1 if rng.random() < 0.5 else -1
        assert correlation(a, b, sign * t, desk) == correlation(b, a, -sign * t, desk)
        n += 1
    cases["correlation symmetry"] = n

    def random_set():
        pairs = []
        for _ in range(rng.randrange(4)):
            lo = F(rng.randrange(-64, 64), 8)
            pairs.append((lo, lo + F(rng.randrange(1, 32), 8)))
        return IntervalSet(pairs)

    n = 0
    for _ in range(150):
        a, b = random_set(), random_set()
        assert (
            union(a, b).total_length + intersect(a, b).total_length
            == a.total_length + b.total_length
        )
        n += 1
    cases["interval-set measure additivity"] = n

    n = 0
    for w in ((F(0), desk.height(2)), (desk.height(2), desk.height(3))):
        for _ in range(3):
            _, a = fam[rng.randrange(len(fam))]
            _, b = fam[rng.randrange(len(fam))]
            prof = correlation_profile(a, b, w, desk)
            for _ in range(20):
                t = w[0] + (w[1] - w[0]) * F(rng.randrange(2**12), 2**12)
                assert prof.value_at(t) == correlation(a, b, t, desk)
                n += 1
    cases["profile/pointwise agreement"] = n

    n = 0
    for _, slab in fam:
        m = measure(slab, desk)
        for j in range(slab.stage, 6):
            lv = refine(slab, j + 1, desk).levels
            for off in desk.offsets(j):
                h = desk.height(j)
                trace = intersect(lv, IntervalSet([(off, off + h)]))
                assert desk.width(j + 1) * trace.total_length == m / 4
                n += 1
    cases["column-trace proportionality"] = n

    assert all(v >= 100 for v in cases.values()), cases
    report(
        7,
        True,
        "; ".join(f"{k} ({v} cases)" for k, v in cases.items()),
    )


def test_criterion_8_spectral_density(desk):
    dens, _, density = spectral_density(F(2), desk, s_max=200.0, samples=8001)
    assert dens["phi_at_zero"] == 1  # mu(Y)^2 for the desk configuration
    nonneg = dens["min_density"] >= -1e-6
    symmetric = density == density[::-1]
    mass_err = abs(dens["mass_range_value"] - float(dens["phi_at_zero"]))
    ok = nonneg and symmetric and mass_err <= 0.01
    s_mass = dens["mass_range_s"]
    report(
        8,
        ok,
        f"density for d=2: min sample {dens['min_density']:.2e} >= -1e-6, "
        f"symmetric, mass over [-{s_mass:.0f}, {s_mass:.0f}] = "
        f"{dens['mass_range_value']:.6f} within 1% of mu(Y)^2 = 1",
    )
