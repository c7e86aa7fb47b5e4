"""Certificates for the three verifiable spectral claims.

Each report function returns the document it writes, a dict of exact
values (``Fraction``, ``IntervalSet``, tuples) that ``write_block`` turns
into JSON; the fields that restate a report's own data (matches,
thresholds, verdicts, limit constants, density summaries) are set by the
function that builds it.

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
  continuous density.  Only the product's nonzero quadratic pieces are
  built, exactly and each in its own coordinate; their cosine integrals
  are the one floating step, in plain Python (a series below s*L = 4, the
  antiderivative above, and a series/continued-fraction Si for the mass).
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, floordiv, lt
from typing import Iterator, Sequence

from .errors import NotDissipative, RankOneError
from .exactnum import Rat, rat, rat_str
from .levelset import (
    SlabSet,
    _hitting_runs,
    _lattice_profile,
    base_slab,
    correlation,
    find_dissipativity_witness,
    make_slab,
)

ZERO = Fraction(0)
QUARTER = Fraction(1, 4)
EVIDENCE_NOTE = (
    "per-factor constant 1/4, product constant 1/16; the two nominal limit "
    "constants disagree and the computed values are reported as ground truth"
)


# --------------------------------------------------------------------------
# default test-pair family


def default_pair_family(sched) -> tuple[tuple[str, SlabSet], ...]:
    """Slabs at stages 1 and 2: full tower, halves, quarters (stage 1 only)."""
    fam: list[tuple[str, SlabSet]] = []
    for stage, splits in ((1, (1, 2, 4)), (2, (1, 2))):
        if stage > sched.num_stages:
            break
        h = sched.height(stage)
        for n in splits:
            for i in range(n):
                name = {1: "full", 2: f"half{i}", 4: f"quarter{i}"}[n]
                slab = make_slab(sched, stage, [(i * h / n, (i + 1) * h / n)])
                fam.append((f"stage{stage}_{name}", slab))
    return tuple(fam)


# --------------------------------------------------------------------------
# weak limits (singularity evidence)


def carrying_stages(sched, c: Rat) -> list[int]:
    """The certified stages carrying ratio c."""
    return [j for j in sched.certified_windows() if sched.stage(j).ratio == c]


def shortfall(sched, kind: str, x: Rat, k: int = 2) -> str:
    """Why the built stages cannot check ``kind`` at ratio x, or '' if they
    can: singular x needs two ``carrying_stages`` above the pair's top stage
    k (2 for ``default_pair_family`` once a stage is certified), dissipative
    x a window of ``sched.windows_for``, perturbed x one carrying stage."""
    if kind == "dissipative":
        return "" if sched.windows_for(x) else (
            f"schedule too short: no window for d={x} at or above stage "
            f"{sched.targets.entry_stage(x)} whose dilated top the towers absorb")
    carrying = carrying_stages(sched, x)
    if kind == "perturbed":
        return "" if carrying else f"no certified stage carries c={x}"
    above = len([j for j in carrying if j > k])
    return "" if above >= 2 else f"need at least two certified stages above {k} carrying c={x}"


def _limit_walk(a: SlabSet, b: SlabSet, c: Rat, stages, sched) -> Iterator[tuple[int, Rat, Rat]]:
    """(j, mu(T_{h_j} A /\\ B), mu(T_{c h_j} A /\\ B)) for each stage j of
    ``stages``: what the exact and the perturbed weak limits compare."""
    for j in stages:
        h = sched.height(j)
        yield j, correlation(a, b, h, sched), correlation(a, b, c * h, sched)


def check_weak_limits(a: SlabSet, b: SlabSet, c, sched) -> dict:
    """Exact per-stage verdicts for the quarter-correlation identities of
    one pair and ratio, as a ``weak_limits.json`` entry.

    For stages j carrying ratio c, both mu(T_{h_j} A /\\ B) and
    mu(T_{c h_j} A /\\ B) must equal mu(A /\\ B)/4 exactly; their product
    must equal mu(A /\\ B)^2/16, the constant of the product weak limit.
    The report also records the two limit constants (1/4 per factor,
    1/16 for the product), which differ; the computed values are the
    ground truth.
    """
    c = rat(c)
    if c not in sched.targets.singular:
        raise ValueError(f"{rat_str(c)} is not a singular target of this schedule")
    if why := shortfall(sched, "singular", c, max(a.stage, b.stage)):
        raise RankOneError(why)
    mu_ab = correlation(a, b, ZERO, sched)
    target = mu_ab / 4
    product_target = mu_ab * mu_ab / 16
    checks = tuple(
        {
            "stage": j,
            "value_at_height": v1,
            "match_at_height": v1 == target,
            "value_at_stretched_height": v2,
            "match_at_stretched_height": v2 == target,
            "product": v1 * v2,
            "product_match": v1 * v2 == product_target,
        }
        for j, v1, v2 in _limit_walk(a, b, c, carrying_stages(sched, c), sched)
    )
    # the identities hold for all sufficiently large stages: report the
    # start of the maximal suffix on which both hold at every stage
    threshold = None
    for ch in reversed(checks):
        if not (ch["match_at_height"] and ch["match_at_stretched_height"]):
            break
        threshold = ch["stage"]
    return {
        "ratio": c,
        "target": target,
        "product_target": product_target,
        "stages": checks,
        "threshold_stage": threshold,
        "passed": threshold is not None,
        "factor_limit_constant": QUARTER,
        "product_limit_constant": Fraction(1, 16),
    }


def weak_limits(c, sched) -> tuple[list[dict], dict | None]:
    """The ``weak_limits.json`` entries of ratio c, one per unordered pair of
    ``default_pair_family`` in family order and naming it in ``pair``, and
    the ``evidence_<c>.json`` document of those that pass (None if none does)."""
    family = default_pair_family(sched)
    entries, passing = [], []
    for i, (name_a, a) in enumerate(family):
        for name_b, b in family[i:]:
            rep = check_weak_limits(a, b, c, sched)
            entries.append({**rep, "pair": (name_a, name_b)})
            if rep["passed"]:
                passing.append((name_a, name_b, rep))
    return entries, singularity_evidence(c, passing) if passing else None


def singularity_evidence(c, reports: Sequence[tuple[str, str, dict]]) -> dict:
    """The ``evidence_<c>.json`` document of passing (name_a, name_b, report)s.

    Along the stages carrying c, the product correlation of each pair
    stays at a constant nonzero value, so it cannot vanish at infinity;
    a weak null limit is therefore impossible and the spectral measure
    of the pair vector has a singular component.  Pairs with disjoint
    slabs give the constant 0 and are flagged uninformative.
    """
    c = rat(c)
    entries = []
    for name_a, name_b, rep in reports:
        if rep["ratio"] != c:
            raise ValueError(
                f"report for ({name_a}, {name_b}) is for c={rep['ratio']}, not c={c}"
            )
        if not rep["passed"]:
            raise RankOneError(
                f"weak-limit check failed for ({name_a}, {name_b}); "
                "evidence requires passing pairs"
            )
        entries.append({
            "pair": (name_a, name_b),
            "constant": rep["product_target"],
            "sequence": tuple(
                (ch["stage"], ch["product"])
                for ch in rep["stages"]
                if ch["stage"] >= rep["threshold_stage"]
            ),
            "informative": rep["product_target"] > 0,
        })
    return {
        "ratio": c,
        "entries": entries,
        "informative": any(e["informative"] for e in entries),
        "note": EVIDENCE_NOTE,
    }


# --------------------------------------------------------------------------
# dissipativity


def check_dissipativity(d, sched) -> dict:
    """The d-certificate, a ``dissipativity.json`` entry: the witness of
    every window of ``sched.windows_for(d)``, of which there must be at
    least one.  It passes iff on every window the set
    {t : rho(t) > 0 and rho(d t) > 0} is exactly empty."""
    d = rat(d)
    if why := shortfall(sched, "dissipative", d):
        raise RankOneError(why)
    verdicts = []
    for j in sched.windows_for(d):
        witness = find_dissipativity_witness(sched, d, j)
        verdicts.append({
            "window": j,
            "range": (sched.height(j), sched.height(j + 1)),
            "empty": witness.is_empty(),
            "witness": witness,
        })
    return {
        "ratio": d,
        "entry_stage": sched.targets.entry_stage(d),
        "threshold": sched.dissipativity_threshold(d),
        "windows": tuple(verdicts),
        "passed": all(v["empty"] for v in verdicts),
    }


def dissipativity_spot_check(
    d, sched, per_window: int, rng: random.Random
) -> dict:
    """Sample random rational times per window; min(rho(t), rho(dt)) must be 0.

    Times are drawn strictly inside each window (the threshold itself is
    exempt from the claim).  Returns the ``spot_checks`` block of the
    ratio's ``dissipativity.json`` entry: counts and (window, t) failures.
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
    return {"checked": checked, "failures": failures}


# --------------------------------------------------------------------------
# perturbed weak limits


def perturbation_tolerance(sched, j: int) -> Rat:
    """Boundary-sliver budget at stage j: 4 w_j.

    The exact cross-column cancellation leaves at most one column's worth
    of edge slivers, each of height <= 1 (the net is inside [0,1]) and of
    width w_j, two per side of each of the pair's runs; the base slab Y is
    one run, so each side gives two.
    """
    return 4 * sched.width(j)


def check_perturbed_limit(c, sched) -> list[dict]:
    """One ``perturbed_limits.json`` entry for the base slab Y, the first of
    ``default_pair_family`` and named in its ``pair``, against itself per
    net point that the certified stages carrying c visit, in first-visit
    order: a convergence check toward the translated limit (1/16) T_{-a} x T_{-b}.

    At each certified stage carrying (c, a, b) the correlation at the
    tower height is compared with a quarter of the correlation of the
    a-translated pair (same for the stretched height and b); the errors
    must fall below the per-stage boundary-sliver tolerance at the last
    two matching stages.  A point that only one certified stage carries
    passes on that one stage; on an 8-stage desk schedule with a depth-1
    net every point is such a point.
    """
    c = rat(c)
    if sched.perturbation is None:
        raise RankOneError("schedule was built without perturbations")
    if why := shortfall(sched, "perturbed", c):
        raise RankOneError(why)
    visits: dict[tuple[Rat, Rat], list[int]] = {}
    for j in carrying_stages(sched, c):
        visits.setdefault(sched.delta_pair(j), []).append(j)
    name, y = default_pair_family(sched)[0]
    reports = []
    for (a_shift, b_shift), stages in visits.items():
        limit_h = correlation(y, y, -a_shift, sched) / 4
        limit_c = correlation(y, y, -b_shift, sched) / 4
        checks = []
        for j, v1, v2 in _limit_walk(y, y, c, stages, sched):
            err_h, err_c = abs(v1 - limit_h), abs(v2 - limit_c)
            tolerance = perturbation_tolerance(sched, j)
            checks.append({
                "stage": j,
                "error_at_height": err_h,
                "error_at_stretched_height": err_c,
                "tolerance": tolerance,
                "within": max(err_h, err_c) <= tolerance,
            })
        reports.append({
            "ratio": c,
            "pair": (name, name),
            "point": (a_shift, b_shift),
            "limit_at_height": limit_h,
            "limit_at_stretched_height": limit_c,
            "stages": tuple(checks),
            "passed": all(ch["within"] for ch in checks[-2:]),
        })
    return reports


# --------------------------------------------------------------------------
# spectral density


# the default sampled frequencies; the mass check's range follows the ratio
DENSITY_S_MAX, DENSITY_SAMPLES = 200.0, 8001


def _phi_pieces(sched, d: Rat, t0: Rat) -> tuple[int, list[tuple[Rat, ...]]]:
    """The number of cells of phi(t) = rho(t) rho(dt) on [0, t0], and its
    nonzero cells as exact pieces (a, L, c0, c1, c2), where phi(a + u) =
    c0 + c1 u + c2 u^2 for u in [0, L].

    rho is the integer profile on [0, d t0].  With d = p/q, on the lattice
    1/(p*scale) rho(t) breaks at p*x and rho(dt) at q*x for each breakpoint
    x, so one merge of the two streams gives the cells.  A cell on which a
    factor's segment has two zero ends is zero and only counted.
    """
    y = base_slab(sched)
    j, scale, bps, vals = _lattice_profile(y, y, ZERO, d * t0, sched)
    p, q = d.numerator, d.denominator
    n = p * scale
    end = q * bps[-1]  # t0 on the lattice
    cuts = sorted({p * x for x in bps if p * x < end}.union(q * x for x in bps))
    unit = sched.width(j) / scale  # one profile value unit, as measure

    def segment(c: int, i: int, lo: int) -> tuple[Rat, Rat]:
        """Value at lo and slope per unit time of the factor's segment i,
        which runs from c*bps[i] to c*bps[i+1]."""
        slope = Fraction(vals[i + 1] - vals[i], c * (bps[i + 1] - bps[i]))
        return unit * (vals[i] + slope * (lo - c * bps[i])), unit * n * slope

    pieces = []
    i = k = 0
    for lo, hi in zip(cuts, cuts[1:]):
        while p * bps[i + 1] <= lo:
            i += 1
        while q * bps[k + 1] <= lo:
            k += 1
        if not (vals[i] or vals[i + 1]) or not (vals[k] or vals[k + 1]):
            continue
        r0, r1 = segment(p, i, lo)
        g0, g1 = segment(q, k, lo)
        piece = (Fraction(lo, n), Fraction(hi - lo, n), r0 * g0, r0 * g1 + r1 * g0, r1 * g1)
        pieces.append(piece)
    return len(cuts) - 1, pieces


def _piece_cosine(a: float, L: float, c0: float, c1: float, c2: float, s: float) -> float:
    """Re(e^{isa} int_0^L P(u) e^{isu} du) for P(u) = c0 + c1 u + c2 u^2,
    the piece's share of int phi(t) cos(st) dt.  Below sL = 4 by the power
    series in sL, whose moments are taken in v = u/L; above by the
    antiderivative e^{isu} (P/(is) - P'/(is)^2 + P''/(is)^3)."""
    x = s * L
    if x < 4.0:
        b1, b2 = c1 * L, c2 * L * L  # P(Lv) = c0 + b1 v + b2 v^2
        re = im = 0.0
        term, n = 1.0, 0  # term = (-1)^(n/2) x^n / n!
        while abs(term) >= 1e-17:
            re += term * (c0 / (n + 1) + b1 / (n + 2) + b2 / (n + 3))
            term *= x / (n + 1)
            im += term * (c0 / (n + 2) + b1 / (n + 3) + b2 / (n + 4))
            term *= -x / (n + 2)
            n += 2
        return L * (math.cos(s * a) * re - math.sin(s * a) * im)
    pl, dl, dd = c0 + (c1 + c2 * L) * L, c1 + 2.0 * c2 * L, 2.0 * c2 / s  # P(L), P'(L), P''/s
    sa, sb = s * a, s * (a + L)
    end = math.cos(sb) * dl - math.sin(sb) * (dd - s * pl)
    start = math.cos(sa) * c1 - math.sin(sa) * (dd - s * c0)
    return (end - start) / (s * s)


def _si(x: float) -> float:
    """The sine integral Si(x), as Numerical Recipes' ``cisi`` takes it: the
    Maclaurin series below 4; beyond, pi/2 + Im(e^{-ix} f) with f the
    continued fraction of e^{ix} E1(ix), evaluated by Lentz's method."""
    if x < 0:
        return -_si(-x)
    if x < 4.0:
        total, term, n = 0.0, x, 1  # term = (-1)^k x^n / n!, n = 2k + 1
        while abs(term) > 1e-17 * total:
            total += term / n
            term *= -x * x / ((n + 1) * (n + 2))
            n += 2
        return total
    b = complex(1.0, x)
    c, d = 1e300, 1 / b
    f = d
    for i in range(1, 100):
        b += 2.0
        d = 1 / (b - i * i * d)
        c = b - i * i / c
        f *= c * d
        if abs(c * d - 1) < 1e-16:
            break
    return math.pi / 2 + (f * complex(math.cos(x), -math.sin(x))).imag


def spectral_density(d, sched, s_max: float = DENSITY_S_MAX,
                     samples: int = DENSITY_SAMPLES) -> tuple[dict, array, array]:
    """Floating samples of the absolutely continuous spectral density of a
    dissipative ratio at ``samples`` frequencies over [-s_max, s_max]: the
    ``density.json`` document, the frequencies and the density there (the
    two ``array("d")`` columns of the CSV).

    The correlation product phi(t) = rho(t) rho(d t) is piecewise
    quadratic with exact compact support [-T0, T0]; the density is its
    Fourier transform divided by 2*pi.  The nonzero pieces are exact, each
    in its own coordinate; the only floating step is the final evaluation
    of each piece's cosine integral.  phi is certified zero from
    ``support_bound`` through ``certified_zero_through``, the top of the
    last window the certificate covers.  The closed-form mass over
    [-S, S], S = ``mass_range_s`` = 2000 d, should be phi(0).
    """
    if samples < 3 or samples % 2 == 0:
        raise ValueError("samples must be an odd count >= 3")
    if not (math.isfinite(s_max) and s_max > 0):
        raise ValueError("s_max must be finite and positive")
    # the samples as C doubles, eight bytes each: 0 <= s <= s_max, mirrored
    half = (samples - 1) // 2
    step = s_max / half
    s_half = array("d", (i * step for i in range(half)))
    s_half.append(s_max)
    if not all(map(lt, s_half, s_half[1:])):  # a subnormal step rounds them out of order
        raise ValueError("s_max is too small for increasing samples")
    d = rat(d)
    cert = check_dissipativity(d, sched)
    if not cert["passed"]:
        raise NotDissipative(f"certificate for d={d} fails; no density exists")
    t0 = cert["threshold"]
    piece_count, pieces = _phi_pieces(sched, d, t0)
    half_integral = sum(
        (c0 * L + c1 * L * L / 2 + c2 * L**3 / 3 for _, L, c0, c1, c2 in pieces), ZERO
    )
    local = [tuple(map(float, piece)) for piece in pieces]
    dens_half = array("d", (sum(_piece_cosine(*pc, s) for pc in local) / math.pi for s in s_half))
    freqs = array("d", (-s for s in s_half[:0:-1])) + s_half
    dens = dens_half[:0:-1] + dens_half
    mass_trapz = sum(
        (s1 - s0) * (v1 + v0) / 2 for s0, s1, v0, v1 in zip(freqs, freqs[1:], dens, dens[1:])
    )

    # closed-form mass over [-S, S]: (2/pi) int phi(t) sin(S t)/t dt, with
    # phi = k0 + k1 t + k2 t^2 on each piece [a, b].  The slopes of rho(d t)
    # scale with d, so the mass beyond S is about d/S: S follows d
    s_mass = float(2000 * d)
    mass = 0.0
    for a, L, c0, c1, c2 in pieces:
        af, bf = float(a), float(a + L)
        k0, k1, k2 = float(c0 - c1 * a + c2 * a * a), float(c1 - 2 * c2 * a), float(c2)
        mass += k0 * (_si(s_mass * bf) - _si(s_mass * af))
        for t, sign in ((bf, 1.0), (af, -1.0)):  # int (k1 + k2 t) sin(S t) dt
            st = s_mass * t
            anti = k2 * math.sin(st) / s_mass - (k1 + k2 * t) * math.cos(st)
            mass += sign * anti / s_mass
    mass *= 2.0 / math.pi

    document = {
        "ratio": d,
        "support_bound": t0,
        "certified_zero_through": cert["windows"][-1]["range"][1],
        "piece_count": piece_count,
        "phi_at_zero": pieces[0][2],  # the first cell starts at 0: rho(0)^2 = mu(Y)^2
        "phi_integral": 2 * half_integral,
        "mass_range_s": s_mass,
        "mass_range_value": mass,
        "mass_trapezoid": mass_trapz,
        "grid": {"s_max": freqs[-1], "samples": len(freqs)},
        "density_at_zero": dens[len(dens) // 2],
        "min_density": min(dens),
    }
    return document, freqs, dens


# --------------------------------------------------------------------------
# hitting-set report (landmark annotation)

# entries formatted per chunk of the hitting report's text
_CHUNK_RUNS = 2048
_ENTRY = ('\n    {\n      "interval": [\n        "%d/%d",\n        "%d/%d"\n      ],\n'
          '      "landmark": "%s"\n    }')


def window_landmarks(sched, j: int) -> dict[str, Rat]:
    st = sched.stage(j)
    return {
        "tower_height": st.height,
        "stretched_height": st.ratio * st.height,
        "middle_spacer": st.spacers[1],
        "top_spacer": st.spacers[3],
    }


def landmark_terms(landmarks: dict[str, Rat]) -> tuple[tuple[str, int, int], ...]:
    """The positive landmarks as (name, numerator, denominator), in dict
    order: taken apart once per window, not once per label."""
    return tuple((name, v.numerator, v.denominator) for name, v in landmarks.items() if v > 0)


def annotate_landmark(terms: tuple[tuple[str, int, int], ...], tn: int, td: int) -> str:
    """Label t = tn/td with the nearest landmark if their ratio is within [1/2, 2].

    ``terms`` is ``landmark_terms(window_landmarks(sched, j))``; tn/td need
    not be reduced, but td > 0.  Ratios are compared by cross-multiplying
    numerators and denominators; on a tie the first landmark wins.
    """
    best_name, best_num, best_den = "unresolved", 0, 0
    for name, vn, vd in terms:
        num, den = tn * vd, td * vn  # t / val
        if num < den:
            num, den = den, num  # val / t, the ratio that is >= 1
        if num <= 2 * den and (best_den == 0 or num * best_den < best_num * den):
            best_name, best_num, best_den = name, num, den
    return best_name


def _block_labels(terms: tuple[tuple[str, int, int], ...], mids: list[int], td: int) -> list[str]:
    """``annotate_landmark(terms, m, td)`` for each of the strictly
    increasing midpoints m in ``mids``, found block by block.

    A landmark's label holds on one interval of t, its nearest-in-log cell
    within [v/2, 2v], so its block ends where a bisection first finds
    another label.  "unresolved" holds between those intervals: its block
    ends at the first midpoint reaching the next landmark's v/2.
    """
    # the least midpoint at or above each landmark's lower reach v/2
    reach = sorted(-(-vn * td // (2 * vd)) for _, vn, vd in terms)
    labels: list[str] = []
    i, n = 0, len(mids)
    while i < n:
        name = annotate_landmark(terms, mids[i], td)
        if name == "unresolved":
            r = bisect_right(reach, mids[i])
            end = bisect_left(mids, reach[r], i + 1) if r < len(reach) else n
        else:
            end = bisect_left(range(n), True, i + 1,
                              key=lambda x: annotate_landmark(terms, mids[x], td) != name)
        labels += repeat(name, end - i)
        i = end
    return labels


def _report_chunks(scale: int, runs: Iterator[tuple[int, int]], terms, tail: str) -> Iterator[str]:
    """The report's text from its integer runs on 1/scale, ``_CHUNK_RUNS``
    entries at a time: each chunk reduces its endpoints in one ``gcd`` pass,
    labels its midpoints by blocks and fills one template with one ``%``."""
    yield '{\n  "intervals": ['
    sep = ""
    while chunk := list(islice(runs, _CHUNK_RUNS)):
        ends = list(chain.from_iterable(chunk))
        gs = list(map(math.gcd, ends, repeat(scale)))
        fracs = chain.from_iterable(zip(map(floordiv, ends, gs), map(floordiv, repeat(scale), gs)))
        labels = _block_labels(terms, list(map(add, ends[::2], ends[1::2])), 2 * scale)
        values = tuple(chain.from_iterable(zip(fracs, fracs, fracs, fracs, labels)))
        yield sep + ",".join(repeat(_ENTRY, len(chunk))) % values
        sep = ","
    yield ("\n  ]" if sep else "]") + tail


def hitting_report(sched, j: int) -> Iterator[str]:
    """Exact hitting intervals on window [h_j, h_{j+1}] with landmark
    annotations, as the report's text in chunks: joined, they are
    ``json.dumps(..., indent=2, sort_keys=True)`` and a newline.

    The window is checked and its runs set up before this returns, so a
    window outside 1..num_stages (refused by its number) or past the
    horizon raises here; the runs are then merged and formatted only as
    the chunks are consumed."""
    if not 1 <= j <= sched.num_stages:
        raise RankOneError(f"window {j} not built (have 1..{sched.num_stages})")
    y = base_slab(sched)
    window = (sched.height(j), sched.height(j + 1))
    scale, runs = _hitting_runs(y, y, *window, sched)
    w_lo, w_hi = map(rat_str, window)
    tail = f',\n  "range": [\n    "{w_lo}",\n    "{w_hi}"\n  ],\n  "window": {j}\n}}\n'
    return _report_chunks(scale, runs, landmark_terms(window_landmarks(sched, j)), tail)
