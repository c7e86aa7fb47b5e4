"""Exact verification lab for a rank-one cutting-and-stacking flow."""

from .construction import (
    GaugeSpec,
    PerturbationSpec,
    Schedule,
    StageParams,
    StagePolicy,
    TargetSets,
    TopSpacerRule,
    build_schedule,
    enumerate_ratios,
)
from .errors import EscalationExhausted, HorizonExceeded, NotDissipative, RankOneError
from .exactnum import IntervalSet, Rat, rat, rat_str
from .levelset import (
    PiecewiseLinear,
    SlabSet,
    base_slab,
    correlation,
    correlation_profile,
    hitting_set,
    make_slab,
    min_valid_stage,
)
from .oracle import OracleEstimate, oracle_correlation
from .verify import (
    DensityGrid,
    DissipativityCertificate,
    SpectralDensitySamples,
    WeakLimitReport,
    check_dissipativity,
    check_perturbed_limit,
    check_weak_limits,
    default_pair_family,
    singularity_evidence,
    spectral_density,
)

__all__ = [name for name in dir() if not name.startswith("_")]
