"""Deep tier: the desk targets at 16 stages, built and fully certified.

Cost must stay polynomial in the stage count.  Wall-clock time is not
asserted (shared hosts vary too much); instead the run must leave nothing
in the schedule's cache but its integer lattice: slab levels are lifted
per query and never kept, so no 4^j refinement can pile up there.
"""

import random
from fractions import Fraction as F
from pathlib import Path

from rankone.cli import load_config, schedule_from_config
from rankone.levelset import correlation
from rankone.oracle import oracle_correlation
from rankone.verify import (
    check_dissipativity,
    check_weak_limits,
    default_pair_family,
    singularity_evidence,
    spectral_density,
)

from reference import measure

DEEP16 = Path(__file__).parent.parent / "configs" / "deep16.json"


def test_deep16_full_verify_and_density():
    sched = schedule_from_config(load_config(DEEP16))
    assert sched.num_stages == 16
    family = default_pair_family(sched)

    checked = passed = 0
    for c in sched.targets.singular:
        passing = []
        for i, (name_a, a) in enumerate(family):
            for name_b, b in family[i:]:
                rep = check_weak_limits(a, b, c, sched)
                checked += 1
                if rep["passed"]:
                    passing.append((name_a, name_b, rep))
        passed += len(passing)
        assert singularity_evidence(c, passing)["informative"]
    assert (passed, checked) == (110, 110)

    for d in sched.targets.dissipative:
        cert = check_dissipativity(d, sched)
        assert cert["passed"]
        assert cert["windows"][-1]["window"] == 14

    dens, _, _ = spectral_density(2, sched)
    assert dens["min_density"] >= -1e-6
    assert abs(dens["mass_range_value"] - 1) < 0.01

    assert list(sched.runtime_cache) == ["lattice"]


def test_deep16_oracle_past_h3():
    """The orbit oracle against the exact correlation at times up to h_6:
    half the times near +-h_k, where the family's correlations are mostly
    nonzero, half drawn from [0, h_k].  Where A is a stage-1 slab, the
    bound says more than the trivial mu(B) (a stage-2 A against a stage-1
    B meets about L/h_1 real crossings, so its bound at 2000 samples
    still exceeds mu(B))."""
    sched = schedule_from_config(load_config(DEEP16))
    family = [slab for _, slab in default_pair_family(sched)]
    rng = random.Random(16)
    nonzero = stage1 = 0
    for i in range(16):
        a, b = rng.choice(family), rng.choice(family)
        h = sched.height(4 + i % 3)
        if i % 2:
            t = rng.choice([1, -1]) * (h + sched.height(1) * F(rng.randrange(-2**10, 2**10), 2**10))
        else:
            t = h * F(rng.randrange(2**16), 2**16)
        exact = correlation(a, b, t, sched)
        value, bound = oracle_correlation(a, b, t, 2000, sched)
        assert abs(value - exact) <= bound
        if a.stage == 1:
            assert bound < measure(b, sched)
            stage1 += 1
        nonzero += exact != 0
    assert nonzero >= 4
    assert stage1 == 10


def test_deep16_oracle_bound_below_mu_b_at_h6(deep16):
    """Each walk branch's edges weigh what its hits weigh: past h_4 a
    stage-2 A meets about a thousand lift branches, and the bound stays below
    the trivial mu(B) = 1 once the strata are fine enough."""
    fam = dict(default_pair_family(deep16))
    a, b = fam["stage2_half1"], fam["stage1_full"]
    t = deep16.height(6) + F(1, 3)
    value, bound = oracle_correlation(a, b, t, 10**6, deep16)
    assert measure(b, deep16) == 1
    assert abs(value - correlation(a, b, t, deep16)) <= bound < 1
