"""The certificates must hold for arbitrary valid ratio families, not just
the default desk configuration: random-ish small schedules exercise the
engine-derived thresholds and the escalation loop."""

import random
from fractions import Fraction as F

import pytest

from rankone.construction import (
    GaugeSpec,
    PerturbationSpec,
    StagePolicy,
    TargetSets,
    build_schedule,
    write_block,
)
from rankone.levelset import base_slab
from rankone.verify import (
    check_dissipativity,
    check_perturbed_limit,
    check_weak_limits,
    dissipativity_spot_check,
)

CONFIGS = [
    # ratio c close to 1: early-stage interference, engine threshold absorbs it
    dict(singular=(F(17, 16), F(9, 5)), dissipative=(F(7, 4), F(16, 5))),
    # dissipative ratio very close to a singular one: escalation must separate
    dict(singular=(F(3, 2),), dissipative=(F(301, 200),)),
    # larger ratios and an integer pair
    dict(singular=(F(7, 2), F(13, 3)), dissipative=(F(5), F(11, 4))),
    # dense cluster slightly above 1
    dict(singular=(F(21, 20),), dissipative=(F(23, 20), F(11, 10))),
]


@pytest.mark.parametrize("spec", CONFIGS, ids=lambda s: str(s["singular"]))
def test_random_family_certificates(spec):
    targets = TargetSets(**spec)
    sched = build_schedule(1, 1, targets, 6)
    y = base_slab(sched)

    for c in targets.singular:
        matching = [j for j in sched.certified_windows() if sched.stage(j).ratio == c]
        if len([j for j in matching if j > 1]) < 2:
            continue
        rep = check_weak_limits(y, y, c, sched)
        assert rep.passed, (c, write_block(rep.stages))
        assert rep.target == F(1, 4)

    rng = random.Random(99)
    for d in targets.dissipative:
        if not sched.windows_for(d):
            continue
        cert = check_dissipativity(d, sched)
        assert cert.passed, (d, write_block(cert.windows))
        res = dissipativity_spot_check(d, sched, 50, rng)
        assert not res["failures"]


def test_close_pair_requires_escalation_or_tall_towers():
    # |d - c| = 1/200: the first claimed window separates the dilated
    # landmarks only once the towers are tall enough; the builder must
    # deliver a passing schedule either way
    targets = TargetSets(singular=(F(3, 2),), dissipative=(F(301, 200),))
    sched = build_schedule(1, 1, targets, 6)
    cert = check_dissipativity(F(301, 200), sched)
    assert cert.passed


def test_small_gauge_deterministic_escalations():
    targets = TargetSets(singular=(F(3, 2), F(5, 2)), dissipative=(F(2), F(3)))
    policy = StagePolicy(gauge=GaugeSpec(kind="constant", floor=F(4)))
    one = build_schedule(1, 1, targets, 6, policy=policy)
    two = build_schedule(1, 1, targets, 6, policy=policy)
    assert one == two
    assert one.escalations == two.escalations
    for d in targets.dissipative:
        assert check_dissipativity(d, one).passed


def test_perturbation_preserves_dissipativity():
    # bounded spacer perturbations must not break the empty-intersection
    # certificates (they are re-certified during the build, checked here
    # explicitly against the verification layer)
    targets = TargetSets(singular=(F(3, 2), F(5, 2)), dissipative=(F(2), F(3)))
    sched = build_schedule(
        1, 1, targets, 7, perturbation=PerturbationSpec(net_depth=2)
    )
    for d in targets.dissipative:
        assert check_dissipativity(d, sched).passed
    y = base_slab(sched)
    rep = check_perturbed_limit(F(3, 2), F(0), F(1, 4), y, y, sched)
    assert rep.passed
    # rho(1/4) at stage 2: merged piece [0,2) overlaps 7/4, the two unit
    # copies 3/4 each, times width 1/4
    assert rep.limit_at_stretched_height == F(1, 4) * F(13, 16)
