"""Certificates for the three verifiable spectral claims.

* weak-limit reports: exact quarter-correlation identities at tower
  heights along the stages carrying a given ratio (evidence that the
  product automorphism has singular spectrum);
* dissipativity certificates: exact emptiness of the simultaneous
  hitting set {t : rho(t) > 0 and rho(d t) > 0} on every certified
  window above the ratio's threshold (evidence of Lebesgue spectrum);
* perturbed weak limits: the same identities against a translated set
  when the spacer perturbations converge to a net point (a, b);
* spectral-density samples for dissipative ratios: the correlation
  product has compact support, so its Fourier transform is an absolutely
  continuous density, evaluated by exact piecewise polynomial integration
  against cosines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import (
    ConfigError,
    NoMatchingStages,
    NotDissipative,
    RankOneError,
    UncertifiedWindow,
)
from .exactnum import IntervalSet, Rat, rat, rat_str
from .levelset import (
    PiecewiseLinear,
    SlabSet,
    annotate_landmark,
    base_slab,
    correlation,
    correlation_profile,
    find_dissipativity_witness,
    make_slab,
    refine,
)

if TYPE_CHECKING:
    import numpy as np

ZERO = Fraction(0)
QUARTER = Fraction(1, 4)


# --------------------------------------------------------------------------
# default test-pair family


def default_pair_family(sched) -> tuple[tuple[str, SlabSet], ...]:
    """Slabs at stages 1 and 2: full tower, halves, quarters (stage 1 only)."""
    fam: list[tuple[str, SlabSet]] = []
    h1 = sched.height(1)
    fam.append(("stage1_full", make_slab(sched, 1, [(ZERO, h1)])))
    for i in range(2):
        fam.append(
            (f"stage1_half{i}", make_slab(sched, 1, [(i * h1 / 2, (i + 1) * h1 / 2)]))
        )
    for i in range(4):
        fam.append(
            (
                f"stage1_quarter{i}",
                make_slab(sched, 1, [(i * h1 / 4, (i + 1) * h1 / 4)]),
            )
        )
    if sched.num_stages >= 2:
        h2 = sched.height(2)
        fam.append(("stage2_full", make_slab(sched, 2, [(ZERO, h2)])))
        for i in range(2):
            fam.append(
                (
                    f"stage2_half{i}",
                    make_slab(sched, 2, [(i * h2 / 2, (i + 1) * h2 / 2)]),
                )
            )
    return tuple(fam)


# --------------------------------------------------------------------------
# weak limits (singularity evidence)


@dataclass(frozen=True)
class StageCheck:
    stage: int
    value_h: Rat
    match_h: bool
    value_c: Rat
    match_c: bool
    product: Rat
    product_match: bool

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "value_at_height": rat_str(self.value_h),
            "match_at_height": self.match_h,
            "value_at_stretched_height": rat_str(self.value_c),
            "match_at_stretched_height": self.match_c,
            "product": rat_str(self.product),
            "product_match": self.product_match,
        }


@dataclass(frozen=True)
class WeakLimitReport:
    """Exact per-stage verdicts for the quarter-correlation identities.

    For stages j carrying ratio c, both mu(T_{h_j} A /\\ B) and
    mu(T_{c h_j} A /\\ B) must equal mu(A /\\ B)/4 exactly; their product
    must equal mu(A /\\ B)^2/16, the constant of the product weak limit.
    The report also records the two limit constants (1/4 per factor,
    1/16 for the product), which differ; the computed values are the
    ground truth.
    """

    c: Rat
    target: Rat
    product_target: Rat
    stages: tuple[StageCheck, ...]
    threshold_stage: int | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "ratio": rat_str(self.c),
            "target": rat_str(self.target),
            "product_target": rat_str(self.product_target),
            "factor_limit_constant": "1/4",
            "product_limit_constant": "1/16",
            "stages": [s.to_dict() for s in self.stages],
            "threshold_stage": self.threshold_stage,
            "passed": self.passed,
        }


def check_weak_limits(a: SlabSet, b: SlabSet, c, sched) -> WeakLimitReport:
    """Verify the quarter-correlation identities for one pair and ratio."""
    c = rat(c)
    if c not in sched.targets.singular:
        raise ValueError(f"{c} is not a singular target of this schedule")
    k = max(a.stage, b.stage)
    matching = [j for j in sched.certified_windows() if sched.stage(j).ratio == c]
    if len([j for j in matching if j > k]) < 2:
        raise NoMatchingStages(
            f"need at least two certified stages above {k} carrying c={c}"
        )
    mu_ab = correlation(a, b, ZERO, sched)
    target = mu_ab / 4
    product_target = mu_ab * mu_ab / 16
    checks: list[StageCheck] = []
    for j in matching:
        h = sched.height(j)
        v1 = correlation(a, b, h, sched)
        v2 = correlation(a, b, c * h, sched)
        checks.append(
            StageCheck(
                stage=j,
                value_h=v1,
                match_h=v1 == target,
                value_c=v2,
                match_c=v2 == target,
                product=v1 * v2,
                product_match=v1 * v2 == product_target,
            )
        )
    # the identities hold for all sufficiently large stages: report the
    # start of the maximal suffix on which both hold at every stage
    threshold = None
    for ch in reversed(checks):
        if ch.match_h and ch.match_c:
            threshold = ch.stage
        else:
            break
    passed = threshold is not None
    return WeakLimitReport(
        c=c,
        target=target,
        product_target=product_target,
        stages=tuple(checks),
        threshold_stage=threshold,
        passed=passed,
    )


@dataclass(frozen=True)
class EvidenceEntry:
    name_a: str
    name_b: str
    constant: Rat
    sequence: tuple[tuple[int, Rat], ...]
    informative: bool

    def to_dict(self) -> dict:
        return {
            "pair": [self.name_a, self.name_b],
            "constant": rat_str(self.constant),
            "sequence": [[j, rat_str(v)] for j, v in self.sequence],
            "informative": self.informative,
        }


@dataclass(frozen=True)
class SingularityEvidence:
    """The non-vanishing product-correlation sequences.

    Along the stages carrying c, the product correlation for the pair
    stays at a constant nonzero value, so it cannot vanish at infinity;
    a weak null limit is therefore impossible and the spectral measure
    of the pair vector has a singular component.  Pairs with disjoint
    slabs give the constant 0 and are flagged uninformative.
    """

    c: Rat
    entries: tuple[EvidenceEntry, ...]

    @property
    def informative(self) -> bool:
        return any(e.informative for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "ratio": rat_str(self.c),
            "entries": [e.to_dict() for e in self.entries],
            "informative": self.informative,
            "note": (
                "per-factor constant 1/4, product constant 1/16; the two "
                "nominal limit constants disagree and the computed values "
                "are reported as ground truth"
            ),
        }


def singularity_evidence(
    c, reports: Sequence[tuple[str, str, WeakLimitReport]]
) -> SingularityEvidence:
    """Summarize the obstruction sequences of passing (name_a, name_b, report)s."""
    c = rat(c)
    entries: list[EvidenceEntry] = []
    for name_a, name_b, rep in reports:
        if rep.c != c:
            raise ValueError(
                f"report for ({name_a}, {name_b}) is for c={rep.c}, not c={c}"
            )
        if not rep.passed:
            raise RankOneError(
                f"weak-limit check failed for ({name_a}, {name_b}); "
                "evidence requires passing pairs"
            )
        seq = tuple(
            (ch.stage, ch.product)
            for ch in rep.stages
            if ch.stage >= rep.threshold_stage
        )
        entries.append(
            EvidenceEntry(
                name_a=name_a,
                name_b=name_b,
                constant=rep.product_target,
                sequence=seq,
                informative=rep.product_target > 0,
            )
        )
    return SingularityEvidence(c=c, entries=tuple(entries))


# --------------------------------------------------------------------------
# dissipativity


@dataclass(frozen=True)
class WindowVerdict:
    window: int
    lo: Rat
    hi: Rat
    empty: bool
    witness: IntervalSet

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "range": [rat_str(self.lo), rat_str(self.hi)],
            "empty": self.empty,
            "witness": self.witness.to_pairs(),
        }


@dataclass(frozen=True)
class DissipativityCertificate:
    """Per-window emptiness verdicts for one dissipative ratio.

    Valid iff on every certified window above the threshold the set
    {t : rho(t) > 0 and rho(d t) > 0} is exactly empty.
    """

    d: Rat
    entry_stage: int
    threshold: Rat
    windows: tuple[WindowVerdict, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "ratio": rat_str(self.d),
            "entry_stage": self.entry_stage,
            "threshold": rat_str(self.threshold),
            "windows": [w.to_dict() for w in self.windows],
            "passed": self.passed,
        }


def dissipativity_windows(d, sched) -> list[int]:
    """The windows the d-certificate covers; at least one must be built."""
    d = rat(d)
    if d not in sched.targets.dissipative:
        raise ValueError(f"{d} is not a dissipative target of this schedule")
    windows = sched.windows_for(d)
    if not windows:
        raise UncertifiedWindow(
            f"schedule too short: no certified window for d={d} at or above "
            f"stage {sched.targets.entry_stage(d)}"
        )
    return windows


def dissipativity_certificate(
    d, sched, witnesses: Sequence[IntervalSet]
) -> DissipativityCertificate:
    """Assemble the d-certificate from the witnesses of its windows, in order."""
    d = rat(d)
    windows = dissipativity_windows(d, sched)
    verdicts = tuple(
        WindowVerdict(
            window=j,
            lo=sched.height(j),
            hi=sched.height(j + 1),
            empty=witness.is_empty(),
            witness=witness,
        )
        for j, witness in zip(windows, witnesses, strict=True)
    )
    return DissipativityCertificate(
        d=d,
        entry_stage=sched.targets.entry_stage(d),
        threshold=sched.dissipativity_threshold(d),
        windows=verdicts,
        passed=all(v.empty for v in verdicts),
    )


def check_dissipativity(d, sched) -> DissipativityCertificate:
    d = rat(d)
    witnesses = [
        find_dissipativity_witness(sched, d, j) for j in dissipativity_windows(d, sched)
    ]
    return dissipativity_certificate(d, sched, witnesses)


def dissipativity_spot_check(
    d, sched, per_window: int, rng: random.Random
) -> dict:
    """Sample random rational times per window; min(rho(t), rho(dt)) must be 0.

    Times are drawn strictly inside each window (the threshold itself is
    exempt from the claim).  Returns counts and any failures.
    """
    d = rat(d)
    y = base_slab(sched)
    denom = 2**20
    failures: list[tuple[int, Rat]] = []
    checked = 0
    for j in sched.windows_for(d):
        lo, hi = sched.height(j), sched.height(j + 1)
        for _ in range(per_window):
            t = lo + (hi - lo) * Fraction(rng.randrange(1, denom), denom)
            rho_t = correlation(y, y, t, sched)
            if rho_t != 0:
                rho_dt = correlation(y, y, d * t, sched)
                if rho_dt != 0:
                    failures.append((j, t))
            checked += 1
    return {"ratio": d, "checked": checked, "failures": failures}


# --------------------------------------------------------------------------
# perturbed weak limits


@dataclass(frozen=True)
class PerturbedStageCheck:
    stage: int
    error_h: Rat
    error_c: Rat
    tolerance: Rat

    @property
    def within(self) -> bool:
        return self.error_h <= self.tolerance and self.error_c <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "error_at_height": rat_str(self.error_h),
            "error_at_stretched_height": rat_str(self.error_c),
            "tolerance": rat_str(self.tolerance),
            "within": self.within,
        }


@dataclass(frozen=True)
class PerturbedLimitReport:
    """Convergence check toward the translated limit (1/16) T_{-a} x T_{-b}.

    At each certified stage carrying (c, a, b) the correlation at the
    tower height is compared with a quarter of the correlation of the
    a-translated pair (same for the stretched height and b); the errors
    must fall below the per-stage boundary-sliver tolerance at the final
    two matching stages.
    """

    c: Rat
    a: Rat
    b: Rat
    limit_h: Rat
    limit_c: Rat
    stages: tuple[PerturbedStageCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "ratio": rat_str(self.c),
            "point": [rat_str(self.a), rat_str(self.b)],
            "limit_at_height": rat_str(self.limit_h),
            "limit_at_stretched_height": rat_str(self.limit_c),
            "stages": [s.to_dict() for s in self.stages],
            "passed": self.passed,
        }


def perturbation_tolerance(a: SlabSet, b: SlabSet, sched, j: int) -> Rat:
    """Boundary-sliver budget at stage j: slab edges x max shift x width.

    The exact cross-column cancellation leaves at most one column's worth
    of edge slivers, each of height <= 1 (the net is inside [0,1]) and of
    width w_j; the count is bounded by the slab edge counts at the pair's
    own stage.
    """
    k = max(a.stage, b.stage)
    n_edges = 2 * len(refine(a, k, sched).levels) + 2 * len(refine(b, k, sched).levels)
    return Fraction(n_edges) * sched.width(j)


def check_perturbed_limit(
    c, a_shift, b_shift, a: SlabSet, b: SlabSet, sched
) -> PerturbedLimitReport:
    c, a_shift, b_shift = rat(c), rat(a_shift), rat(b_shift)
    if sched.perturbation is None:
        raise ConfigError("schedule was built without perturbations")
    if (a_shift, b_shift) not in sched.perturbation.points():
        raise ValueError(f"({a_shift}, {b_shift}) is not a point of the dyadic net")
    matching = [
        j
        for j in sched.certified_windows()
        if sched.stage(j).ratio == c and sched.delta_pair(j) == (a_shift, b_shift)
    ]
    if not matching:
        raise NoMatchingStages(
            f"no certified stage carries c={c} with net point "
            f"({a_shift}, {b_shift})"
        )
    limit_h = correlation(a, b, -a_shift, sched) / 4
    limit_c = correlation(a, b, -b_shift, sched) / 4
    checks: list[PerturbedStageCheck] = []
    for j in matching:
        h = sched.height(j)
        e1 = abs(correlation(a, b, h, sched) - limit_h)
        e2 = abs(correlation(a, b, c * h, sched) - limit_c)
        checks.append(
            PerturbedStageCheck(
                stage=j,
                error_h=e1,
                error_c=e2,
                tolerance=perturbation_tolerance(a, b, sched, j),
            )
        )
    final = checks[-2:]
    passed = all(ch.within for ch in final)
    return PerturbedLimitReport(
        c=c,
        a=a_shift,
        b=b_shift,
        limit_h=limit_h,
        limit_c=limit_c,
        stages=tuple(checks),
        passed=passed,
    )


# --------------------------------------------------------------------------
# spectral density


@dataclass(frozen=True)
class DensityGrid:
    s_max: float = 200.0
    samples: int = 8001
    mass_s: float = 4000.0

    def __post_init__(self):
        if self.samples < 3 or self.samples % 2 == 0:
            raise ValueError("samples must be an odd count >= 3")
        if self.s_max <= 0 or self.mass_s <= 0:
            raise ValueError("grid bounds must be positive")


@dataclass(frozen=True)
class SpectralDensitySamples:
    """Floating samples of the absolutely continuous spectral density.

    The correlation product phi(t) = rho(t) rho(d t) is piecewise
    quadratic with exact compact support [-T0, T0]; the density is its
    Fourier transform divided by 2*pi.  The only floating step is the
    final evaluation; the quadrature is exact per polynomial piece.
    """

    d: Rat
    support_bound: Rat
    certified_through: Rat
    frequencies: np.ndarray = field(compare=False)
    density: np.ndarray = field(compare=False)
    piece_count: int
    phi_at_zero: Rat
    phi_integral: Rat
    mass_range_s: float
    mass_range_value: float
    mass_trapezoid: float

    @property
    def min_density(self) -> float:
        return float(self.density.min())

    def summary_dict(self) -> dict:
        return {
            "ratio": rat_str(self.d),
            "support_bound": rat_str(self.support_bound),
            "certified_zero_through": rat_str(self.certified_through),
            "grid": {
                "s_max": float(self.frequencies[-1]),
                "samples": int(len(self.frequencies)),
            },
            "piece_count": self.piece_count,
            "phi_at_zero": rat_str(self.phi_at_zero),
            "phi_integral": rat_str(self.phi_integral),
            "density_at_zero": float(self.density[len(self.density) // 2]),
            "min_density": self.min_density,
            "mass_range_s": self.mass_range_s,
            "mass_range_value": self.mass_range_value,
            "mass_trapezoid": self.mass_trapezoid,
        }


def _phi_pieces(prof: PiecewiseLinear, d: Rat, t0: Rat):
    """Quadratic pieces (a, b, c0, c1, c2) of phi(t)=rho(t)rho(dt) on [0,t0]."""
    cuts = {ZERO, t0}
    for bp in prof.breakpoints:
        if ZERO < bp < t0:
            cuts.add(bp)
        scaled = bp / d
        if ZERO < scaled < t0:
            cuts.add(scaled)
    grid = sorted(cuts)
    pieces = []
    for a, b in zip(grid, grid[1:]):
        ra, rb = prof.value_at(a), prof.value_at(b)
        ga, gb = prof.value_at(d * a), prof.value_at(d * b)
        p1 = (rb - ra) / (b - a)
        p0 = ra - p1 * a
        q1 = (gb - ga) / (b - a)
        q0 = ga - q1 * a
        pieces.append((a, b, p0 * q0, p0 * q1 + p1 * q0, p1 * q1))
    return pieces


def _piece_cosine_integral(
    a: float, b: float, c0: float, c1: float, c2: float, s: np.ndarray
) -> np.ndarray:
    """Exact-per-piece integral of (c0 + c1 t + c2 t^2) cos(s t) over [a, b]."""
    import numpy as np

    out = np.empty_like(s)
    small = np.abs(s) * max(abs(a), abs(b)) < 4.0
    big = ~small

    if np.any(big):
        sb = s[big]

        def anti(t: float) -> np.ndarray:
            poly = c0 + c1 * t + c2 * t * t
            dpoly = c1 + 2.0 * c2 * t
            st = sb * t
            return (
                poly * np.sin(st) / sb
                + dpoly * np.cos(st) / sb**2
                - 2.0 * c2 * np.sin(st) / sb**3
            )

        out[big] = anti(b) - anti(a)

    if np.any(small):
        ss = s[small]
        acc = np.zeros_like(ss)
        sign = 1.0
        fact = 1.0
        s_pow = np.ones_like(ss)
        ak, bk = float(a), float(b)
        a_pow = ak
        b_pow = bk
        for k in range(0, 24):
            n = 2 * k
            moment = (
                c0 * (b_pow - a_pow) / (n + 1)
                + c1 * (b_pow * bk - a_pow * ak) / (n + 2)
                + c2 * (b_pow * bk * bk - a_pow * ak * ak) / (n + 3)
            )
            acc += sign * s_pow * moment / fact
            sign = -sign
            fact *= (n + 1) * (n + 2)
            s_pow = s_pow * ss * ss
            a_pow *= ak * ak
            b_pow *= bk * bk
            if np.all(s_pow / fact * max(abs(moment), 1e-30) < 1e-22):
                break
        out[small] = acc
    return out


def spectral_density(d, sched, grid: DensityGrid | None = None) -> SpectralDensitySamples:
    """Density samples witnessing absolute continuity for a dissipative ratio."""
    import numpy as np  # costly imports, needed only here
    from scipy.special import sici

    d = rat(d)
    grid = grid or DensityGrid()
    cert = check_dissipativity(d, sched)
    if not cert.passed:
        raise NotDissipative(f"certificate for d={d} fails; no density exists")
    y = base_slab(sched)
    t0 = cert.threshold
    prof = correlation_profile(y, y, (ZERO, d * t0), sched)
    pieces = _phi_pieces(prof, d, t0)

    half = (grid.samples - 1) // 2
    s_half = np.linspace(0.0, grid.s_max, half + 1)
    total = np.zeros_like(s_half)
    phi_integral = ZERO
    for a, b, c0, c1, c2 in pieces:
        total += _piece_cosine_integral(
            float(a), float(b), float(c0), float(c1), float(c2), s_half
        )
        phi_integral += (
            c0 * (b - a)
            + c1 * (b * b - a * a) / 2
            + c2 * (b * b * b - a * a * a) / 3
        )
    dens_half = total / np.pi
    freqs = np.concatenate([-s_half[:0:-1], s_half])
    dens = np.concatenate([dens_half[:0:-1], dens_half])

    # closed-form mass over [-S, S]: (2/pi) int phi(t) sin(S t)/t dt
    s_mass = grid.mass_s
    mass = 0.0
    for a, b, c0, c1, c2 in pieces:
        af, bf, c0f, c1f, c2f = float(a), float(b), float(c0), float(c1), float(c2)
        si_b = sici(s_mass * bf)[0]
        si_a = sici(s_mass * af)[0]
        mass += c0f * (si_b - si_a)

        def anti_sin(t: float) -> float:
            if s_mass == 0.0:
                return 0.0
            return (
                -(c1f + c2f * t) * np.cos(s_mass * t) / s_mass
                + c2f * np.sin(s_mass * t) / s_mass**2
            )

        mass += anti_sin(bf) - anti_sin(af)
    mass *= 2.0 / np.pi

    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    mass_trapz = float(trapezoid(dens, freqs))
    phi0 = prof.value_at(ZERO) * prof.value_at(ZERO)
    return SpectralDensitySamples(
        d=d,
        support_bound=t0,
        certified_through=sched.height(sched.num_stages - 1),
        frequencies=freqs,
        density=dens,
        piece_count=len(pieces),
        phi_at_zero=phi0,
        phi_integral=2 * phi_integral,
        mass_range_s=s_mass,
        mass_range_value=mass,
        mass_trapezoid=mass_trapz,
    )


# --------------------------------------------------------------------------
# hitting-set report (landmark annotation)


def hitting_report(sched, j: int, window=None) -> dict:
    """Exact hitting intervals on a window with landmark annotations."""
    from .levelset import hitting_set

    y = base_slab(sched)
    if window is None:
        window = (sched.height(j), sched.height(j + 1))
    hits = hitting_set(y, y, window, sched)
    entries = []
    for lo, hi in hits:
        mid = (lo + hi) / 2
        entries.append(
            {
                "interval": [rat_str(lo), rat_str(hi)],
                "landmark": annotate_landmark(sched, j, mid),
            }
        )
    return {
        "window": j,
        "range": [rat_str(rat(window[0])), rat_str(rat(window[1]))],
        "intervals": entries,
    }
