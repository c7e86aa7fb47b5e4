"""Exception hierarchy shared by all rankone modules."""

from __future__ import annotations


class RankOneError(Exception):
    """Base class for every error raised by this package."""


class EscalationExhausted(RankOneError):
    """A dissipativity certificate kept failing after the retry budget.

    Carries the offending window index, the ratio and the exact witness
    interval set so the caller can print or log it.
    """

    def __init__(self, stage: int, ratio, witness, retries: int):
        self.stage = stage
        self.ratio = ratio
        self.witness = witness
        self.retries = retries
        super().__init__(
            f"window {stage} still fails for d={ratio} after {retries} retries; "
            f"witness: {witness}"
        )


class StageOutOfRange(RankOneError):
    """Requested a tower stage the schedule does not contain."""


class HorizonExceeded(RankOneError):
    """A flow time is too large for the built schedule to absorb."""


class NoMatchingStages(RankOneError):
    """The schedule is too short for a requested check: no certified stage
    carries the ratio (and net point), or no window certifies it."""


class NotDissipative(RankOneError):
    """A spectral density was requested for a ratio whose certificate fails."""


class ConfigError(RankOneError):
    """A run configuration failed validation."""
