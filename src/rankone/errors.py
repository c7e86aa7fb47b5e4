"""Exception hierarchy shared by all rankone modules."""

from __future__ import annotations


class RankOneError(Exception):
    """Base class for every error raised by this package, and the error of
    a refused input (an unreadable config or schedule, a stage or window
    not built, a check the schedule is too short for): the CLI's usage
    error, exit 2."""


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


class HorizonExceeded(RankOneError):
    """A flow time is too large for the built schedule to absorb."""


class NotDissipative(RankOneError):
    """A spectral density was requested for a ratio whose certificate fails."""
