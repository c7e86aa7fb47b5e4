from fractions import Fraction as F

import pytest

from rankone.construction import (
    GaugeSpec,
    PerturbationSpec,
    StagePolicy,
    TargetSets,
    TopSpacerRule,
    build_schedule,
)

DESK_TARGETS = dict(
    singular=(F(3, 2), F(5, 2)),
    dissipative=(F(2), F(3)),
)


@pytest.fixture(scope="session")
def desk():
    """The default desk-scale schedule: w1=h1=1, C=(3/2,5/2), D=(2,3), 8 stages."""
    return build_schedule(1, 1, TargetSets(**DESK_TARGETS), 8)


@pytest.fixture(scope="session")
def desk_perturbed():
    return build_schedule(
        1, 1, TargetSets(**DESK_TARGETS), 8, perturbation=PerturbationSpec(net_depth=1)
    )


@pytest.fixture(scope="session")
def broken():
    """Negative control: top spacer aligned with d=2 times the middle spacer."""
    policy = StagePolicy(top_spacer=TopSpacerRule(mode="collide", collide_ratio=F(2)))
    return build_schedule(1, 1, TargetSets(**DESK_TARGETS), 8, policy=policy, certify=False)


@pytest.fixture(scope="session")
def tiny():
    """The two-stage example schedule with a constant gauge of 10."""
    return build_schedule(
        1,
        1,
        TargetSets(singular=(F(3, 2),), dissipative=()),
        2,
        policy=StagePolicy(gauge=GaugeSpec(kind="constant", floor=F(10))),
    )
