"""Deep tier: the desk targets at 16 stages, built and fully certified.

Cost must stay polynomial in the stage count.  Wall-clock time is not
asserted (shared hosts vary too much); instead the run must leave nothing
in the schedule's cache but its integer lattice: slab levels are lifted
per query and never kept, so no 4^j refinement can pile up there.
"""

from pathlib import Path

from rankone.cli import load_config, schedule_from_config
from rankone.verify import (
    check_dissipativity,
    check_weak_limits,
    default_pair_family,
    singularity_evidence,
    spectral_density,
)

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
                if rep.passed:
                    passing.append((name_a, name_b, rep))
        passed += len(passing)
        assert singularity_evidence(c, passing)["informative"]
    assert (passed, checked) == (110, 110)

    for d in sched.targets.dissipative:
        cert = check_dissipativity(d, sched)
        assert cert.passed
        assert cert.windows[-1].window == 14

    dens = spectral_density(2, sched)
    assert dens.min_density >= -1e-6
    assert abs(dens.mass_range_value - 1) < 0.01

    assert list(sched.runtime_cache) == ["lattice"]
