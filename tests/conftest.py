import contextlib
import io
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import pytest

from rankone.cli import load_config, main, schedule_from_config
from rankone.construction import (
    GaugeSpec,
    PerturbationSpec,
    StagePolicy,
    TargetSets,
    TopSpacerRule,
    build_schedule,
)


@dataclass
class CliResult:
    exit_code: int
    output: str  # stdout and stderr interleaved, as a terminal shows them
    stdout: str
    stderr: str
    exception: BaseException | None  # a nonzero SystemExit, or what escaped the command


class _Tee(io.StringIO):
    """One stream's text, also written to the interleaved ``output``."""

    def __init__(self, output: io.StringIO):
        super().__init__()
        self.output = output

    def write(self, text: str) -> int:
        self.output.write(text)
        return super().write(text)


def invoke(args: list[str]) -> CliResult:
    """Run one ``rankone`` command in process, capturing stdout and stderr.

    An exception other than ``SystemExit`` is kept in ``exception`` with
    exit code 1; the caller decides whether to re-raise it."""
    output = io.StringIO()
    stdout, stderr = _Tee(output), _Tee(output)
    code, exception = 0, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            exception = exc if code else None
        except Exception as exc:  # noqa: BLE001  (kept for the caller to re-raise)
            code, exception = 1, exc
    return CliResult(code, output.getvalue(), stdout.getvalue(), stderr.getvalue(), exception)


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
def deep16():
    """The desk targets at 16 stages, from the shipped config."""
    config = Path(__file__).parent.parent / "configs" / "deep16.json"
    return schedule_from_config(load_config(config))


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
