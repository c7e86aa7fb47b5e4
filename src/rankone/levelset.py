"""Exact flow algebra over full-width slab sets.

A slab set is a union of full-width horizontal slabs of one tower,
described by its stage and the interval set of its levels.  Everything the
verification layer needs reduces to three exact computations:

* pointwise correlations mu(T_t A /\\ B), evaluated at one time t on the
  integer lattice: the offset-difference patterns within one base height
  of t weight the overlaps of the pair's base intervals (no sweep, no
  float prefilter);
* exact piecewise-linear correlation profiles over a window, obtained by
  enumerating the per-stage column-offset difference patterns that can
  land in the window (a pruned DFS over the stage structure) and sweeping
  the resulting trapezoid slope events;
* an empty-intersection witness search for pairs (t, d*t), run as a
  paired DFS over two pattern stacks so the huge hitting sets of top-level
  windows never have to be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import HorizonExceeded, StageOutOfRange
from .exactnum import IntervalSet, Rat, rat

ZERO = Fraction(0)


@dataclass(frozen=True)
class SlabSet:
    """Full-width slabs of tower ``stage`` at the given level set."""

    stage: int
    levels: IntervalSet

    def to_dict(self) -> dict:
        return {"stage": self.stage, "levels": self.levels.to_pairs()}

    @classmethod
    def from_dict(cls, d: dict) -> "SlabSet":
        return cls(stage=int(d["stage"]), levels=IntervalSet.from_pairs(d["levels"]))


def make_slab(sched, stage: int, levels) -> SlabSet:
    if not 1 <= stage <= sched.num_stages:
        raise StageOutOfRange(f"stage {stage} not built")
    if not isinstance(levels, IntervalSet):
        levels = IntervalSet(levels)
    env = levels.envelope()
    if env is not None and not (0 <= env[0] and env[1] <= sched.height(stage)):
        raise ValueError(f"levels {levels} exceed tower {stage}")
    return SlabSet(stage=stage, levels=levels)


def base_slab(sched) -> SlabSet:
    """The first tower as a slab set (the distinguished test set)."""
    return SlabSet(stage=1, levels=IntervalSet.single(0, sched.height(1)))


def measure(s: SlabSet, sched) -> Rat:
    return sched.width(s.stage) * s.levels.total_length


# --------------------------------------------------------------------------
# refinement


def _levels_at(sched, s: SlabSet, j: int) -> tuple[tuple[Rat, Rat], ...]:
    """Levels of slab ``s`` re-expressed in tower ``j`` (cached)."""
    key = ("levels", s, j)
    cached = sched.runtime_cache.get(key)
    if cached is not None:
        return cached
    if j == s.stage:
        out = s.levels.intervals
    else:
        prev = _levels_at(sched, s, j - 1)
        merged: list[tuple[Rat, Rat]] = []
        for off in sched.offsets(j - 1):
            for lo, hi in prev:
                lo, hi = lo + off, hi + off
                if merged and merged[-1][1] >= lo:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
                else:
                    merged.append((lo, hi))
        out = tuple(merged)
    sched.runtime_cache[key] = out
    return out


def refine(s: SlabSet, j: int, sched) -> SlabSet:
    """The same measurable set written as slabs of a later tower."""
    if j < s.stage or j > sched.num_stages:
        raise StageOutOfRange(
            f"cannot refine stage-{s.stage} slabs to stage {j} "
            f"(built: 1..{sched.num_stages})"
        )
    if j == s.stage:
        return s
    return SlabSet(stage=j, levels=IntervalSet._wrap(_levels_at(sched, s, j)))


def min_valid_stage(s: SlabSet, t, sched) -> int:
    """Smallest built stage whose tower absorbs a +t translation of s."""
    t = rat(t)
    if t < 0:
        raise ValueError("negative times are handled by callers via symmetry")
    if s.levels.is_empty():
        return s.stage
    # the top copy of tower j-1 sits at offsets(j-1)[3] inside tower j, so
    # the slab's top edge moves up by exactly that offset per stage
    top = s.levels.intervals[-1][1]
    for j in range(s.stage, sched.num_stages + 1):
        if j > s.stage:
            top += sched.offsets(j - 1)[3]
        if top + t <= sched.height(j):
            return j
    raise HorizonExceeded(
        f"time {t} exceeds what the {sched.num_stages}-stage schedule absorbs"
    )


def translate_exact(s: SlabSet, t, sched) -> SlabSet:
    """T_t applied to a slab set, expressed at the first valid stage."""
    t = rat(t)
    j = min_valid_stage(s, t, sched)
    lv = tuple((lo + t, hi + t) for lo, hi in _levels_at(sched, s, j))
    return SlabSet(stage=j, levels=IntervalSet._wrap(lv))


# --------------------------------------------------------------------------
# pointwise correlation


def correlation(a: SlabSet, b: SlabSet, t, sched) -> Rat:
    """Exact mu(T_t A /\\ B); negative t by the symmetry with (B, A, -t).

    In tower j the refined copies of A and B sit at column offsets P and Q
    above the pair stage k, and a copy pair overlaps as its base intervals
    shifted by t - (Q - P).  Grouping the pairs by the pattern sum Q - P
    (only those within one base height of t can overlap) turns the measure
    into an integer sum over the base-interval pairs at stage k.
    """
    t = rat(t)
    if t < 0:
        return correlation(b, a, -t, sched)
    j = max(min_valid_stage(a, t, sched), b.stage)
    k, scale, las, lbs = _lattice_pair(a, b, [t], sched)
    t_s = int(t * scale)
    h_s = int(sched.height(k) * scale)
    total = 0
    for delta, m in _pattern_sums(sched, k, j, scale, t_s - h_s, t_s + h_s).items():
        shift = t_s - delta
        for plo, phi in las:
            for qlo, qhi in lbs:
                overlap = min(phi + shift, qhi) - max(plo + shift, qlo)
                if overlap > 0:
                    total += m * overlap
    return sched.width(j) * Fraction(total, scale)


# --------------------------------------------------------------------------
# piecewise-linear profiles


@dataclass(frozen=True)
class PiecewiseLinear:
    """Exact piecewise-linear function on a window, constant outside it."""

    breakpoints: tuple[Rat, ...]
    values: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise ValueError("need matching breakpoint/value sequences")
        if any(b <= a for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("profile values must be non-negative")

    @property
    def window(self) -> tuple[Rat, Rat]:
        return self.breakpoints[0], self.breakpoints[-1]

    def value_at(self, t) -> Rat:
        t = rat(t)
        bp = self.breakpoints
        if t <= bp[0]:
            return self.values[0]
        if t >= bp[-1]:
            return self.values[-1]
        from bisect import bisect_right

        i = bisect_right(bp, t) - 1
        t0, t1 = bp[i], bp[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def pieces(self) -> Iterable[tuple[Rat, Rat, Rat, Rat]]:
        """Yield (t0, t1, v0, v1) per linear piece."""
        for i in range(len(self.breakpoints) - 1):
            yield (
                self.breakpoints[i],
                self.breakpoints[i + 1],
                self.values[i],
                self.values[i + 1],
            )

    def support(self) -> IntervalSet:
        """Closure of {t in window : f(t) > 0} as half-open intervals.

        The positivity set is open; merging its closure into half-open
        canonical form is sound for emptiness questions because any
        nonempty half-open intersection has positive length.
        """
        out: list[tuple[Rat, Rat]] = []
        for t0, t1, v0, v1 in self.pieces():
            if v0 > 0 or v1 > 0:
                out.append((t0, t1))
        return IntervalSet(out)

    def to_dict(self) -> dict:
        from .exactnum import rat_str

        return {
            "breakpoints": [rat_str(t) for t in self.breakpoints],
            "values": [rat_str(v) for v in self.values],
        }

    def integral(self, lo=None, hi=None) -> Rat:
        """Exact integral over [lo, hi] (defaults to the whole window)."""
        a = self.breakpoints[0] if lo is None else rat(lo)
        b = self.breakpoints[-1] if hi is None else rat(hi)
        if not (self.breakpoints[0] <= a <= b <= self.breakpoints[-1]):
            raise ValueError("integration range must lie inside the window")
        total = ZERO
        for t0, t1, v0, v1 in self.pieces():
            s0, s1 = max(t0, a), min(t1, b)
            if s0 >= s1:
                continue
            w0 = v0 + (v1 - v0) * (s0 - t0) / (t1 - t0)
            w1 = v0 + (v1 - v0) * (s1 - t0) / (t1 - t0)
            total += (w0 + w1) * (s1 - s0) / 2
        return total


def _scale_for(sched, extra: Iterable[Rat]) -> int:
    scale = sched.denominator_scale
    for v in extra:
        scale = lcm(scale, v.denominator)
    return scale


def _lattice_pair(a: SlabSet, b: SlabSet, times: list[Rat], sched):
    """Pair stage k, a lattice scale clearing ``times``, and the pair's
    base intervals at stage k as scaled integers."""
    k = max(a.stage, b.stage)
    la = _levels_at(sched, a, k)
    lb = _levels_at(sched, b, k)
    scale = _scale_for(sched, times + [x for iv in la + lb for x in iv])

    def scaled(levels):
        return [(int(lo * scale), int(hi * scale)) for lo, hi in levels]

    return k, scale, scaled(la), scaled(lb)


def _stage_diff_values(sched, s: int, scale: int) -> list[tuple[int, int]]:
    """Sorted (value, multiplicity) of scaled offset differences at stage s."""
    key = ("diffs", s, scale)
    cached = sched.runtime_cache.get(key)
    if cached is not None:
        return cached
    offs = [x * scale for x in sched.offsets(s)]
    counts: dict[int, int] = {}
    for a in offs:
        for b in offs:
            v = b - a
            if v.denominator != 1:
                raise AssertionError("scale does not clear offset denominators")
            counts[int(v)] = counts.get(int(v), 0) + 1
    cached = sorted(counts.items())
    sched.runtime_cache[key] = cached
    return cached


def _diffs_and_reach(sched, k: int, j: int, scale: int):
    """Offset differences of stages k..j-1 and, per stage s, the largest
    pattern sum |delta| that stages k..s can contribute."""
    diffs = {s: _stage_diff_values(sched, s, scale) for s in range(k, j)}
    reach: dict[int, int] = {k - 1: 0}
    for s in range(k, j):
        reach[s] = reach[s - 1] + max(abs(v) for v, _ in diffs[s])
    return diffs, reach


def _pattern_sums(
    sched, k: int, j: int, scale: int, lo: int, hi: int
) -> dict[int, int]:
    """Multiset of offset-difference pattern sums over stages k..j-1.

    Returns {sum: multiplicity} restricted to sums that can matter for a
    target band [lo, hi]; the pruning uses exact bounds on what the
    remaining (lower) stages can still contribute.
    """
    diffs, reach = _diffs_and_reach(sched, k, j, scale)
    level: dict[int, int] = {0: 1}
    for s in range(j - 1, k - 1, -1):
        rb = reach[s - 1]
        lo_keep, hi_keep = lo - rb, hi + rb
        nxt: dict[int, int] = {}
        for partial, m in level.items():
            for v, mv in diffs[s]:
                p2 = partial + v
                if lo_keep <= p2 <= hi_keep:
                    nxt[p2] = nxt.get(p2, 0) + m * mv
        level = nxt
        if not level:
            break
    return level


def correlation_profile(a: SlabSet, b: SlabSet, window, sched) -> PiecewiseLinear:
    """The exact function t -> mu(T_t A /\\ B) on [window.lo, window.hi].

    Every pair of refined copies contributes a trapezoid in t; copies are
    grouped by their offset-difference pattern, so the work scales with
    the number of patterns near the window, not with the copy count.
    """
    w_lo, w_hi = rat(window[0]), rat(window[1])
    if not 0 <= w_lo < w_hi:
        raise ValueError("window must satisfy 0 <= lo < hi")
    j = max(min_valid_stage(a, w_hi, sched), b.stage)
    k, scale, las, lbs = _lattice_pair(a, b, [w_lo, w_hi], sched)
    w_lo_s, w_hi_s = int(w_lo * scale), int(w_hi * scale)
    pad = int(sched.height(k) * scale)
    patterns = _pattern_sums(sched, k, j, scale, w_lo_s - pad, w_hi_s + pad)

    events: dict[int, int] = {}

    def add(t: int, ds: int):
        events[t] = events.get(t, 0) + ds

    for delta, m in patterns.items():
        for plo, phi in las:
            for qlo, qhi in lbs:
                t1 = delta + qlo - phi
                t4 = delta + qhi - plo
                if t4 <= w_lo_s or t1 >= w_hi_s:
                    continue
                d_a, d_b = qlo - plo, qhi - phi
                t2, t3 = delta + min(d_a, d_b), delta + max(d_a, d_b)
                add(t1, m)
                add(t2, -m)
                add(t3, -m)
                add(t4, m)

    width = sched.width(j)
    unit = width / scale  # one scaled length unit of overlap, as measure

    ev = sorted((t, ds) for t, ds in events.items() if ds != 0)
    # running value/slope at each event time
    times: list[int] = []
    values: list[int] = []
    slopes: list[int] = []
    v = 0
    slope = 0
    prev: int | None = None
    for t, ds in ev:
        if prev is not None:
            v += slope * (t - prev)
        times.append(t)
        values.append(v)
        slope += ds
        slopes.append(slope)
        prev = t

    def value_at_scaled(t: int) -> int:
        from bisect import bisect_right

        i = bisect_right(times, t) - 1
        if i < 0:
            return 0
        return values[i] + slopes[i] * (t - times[i])

    bps: list[int] = [w_lo_s]
    bps.extend(t for t in times if w_lo_s < t < w_hi_s)
    bps.append(w_hi_s)
    vals = [value_at_scaled(t) for t in bps]
    return PiecewiseLinear(
        breakpoints=tuple(Fraction(t, scale) for t in bps),
        values=tuple(val * unit for val in vals),
    )


def hitting_set(a: SlabSet, b: SlabSet, window, sched) -> IntervalSet:
    """Exact support {t in window : mu(T_t A /\\ B) > 0}."""
    return correlation_profile(a, b, window, sched).support()


# --------------------------------------------------------------------------
# dissipativity witness search


def find_dissipativity_witness(sched, d, window_index: int) -> IntervalSet:
    """Exact witness set {t in window : rho(t) > 0 and rho(d t) > 0}.

    rho is the self-correlation of the base slab Y.  The window is
    [h_j, h_{j+1}] clipped below to the certificate threshold (strictly:
    times equal to the threshold itself are exempt).  Runs as a paired
    DFS over the offset-difference patterns of t and of d*t, pruning on
    the exact band |d*delta - delta'| must end up in; returns the union
    of the overlap intervals of all surviving pattern pairs.
    """
    d = rat(d)
    y = base_slab(sched)
    j = window_index
    w_lo, w_hi = sched.height(j), sched.height(j + 1)
    threshold = sched.dissipativity_threshold(d)
    j1 = max(min_valid_stage(y, w_hi, sched), min_valid_stage(y, d * w_hi, sched))
    k = y.stage
    h_base = sched.height(k)

    scale = _scale_for(sched, [w_lo, w_hi, h_base])
    w_lo_s, w_hi_s = int(w_lo * scale), int(w_hi * scale)
    thr_s = threshold * scale
    e = int(h_base * scale)  # half-width of a base-pair trapezoid support
    p, q = d.numerator, d.denominator

    diffs, reach = _diffs_and_reach(sched, k, j1, scale)

    zband = (p + q) * e  # |q*(d*t - t')| bound for overlapping supports

    states: set[tuple[int, int]] = {(0, 0)}  # (delta partial, q*d*delta - q*delta')
    for s in range(j1 - 1, k - 1, -1):
        rb = reach[s - 1]
        lo_keep, hi_keep = w_lo_s - e - rb, w_hi_s + e + rb
        zrb = (p + q) * rb
        vals = diffs[s]
        nxt: set[tuple[int, int]] = set()
        for delta, z in states:
            for v, _ in vals:
                d2 = delta + v
                if not lo_keep <= d2 <= hi_keep:
                    continue
                base = z + p * v
                # admissible v' must keep |base - q*v' ...| within budget
                for v2, _ in vals:
                    z2 = base - q * v2
                    if abs(z2) <= zband + zrb:
                        nxt.add((d2, z2))
        states = nxt
        if not states:
            break

    out: list[tuple[Rat, Rat]] = []
    for delta, z in states:
        delta2 = Fraction(p * delta - z, q)  # the d*t-side pattern sum
        lo = max(Fraction(delta - e), (delta2 - e) / d, Fraction(w_lo_s), thr_s)
        hi = min(Fraction(delta + e), (delta2 + e) / d, Fraction(w_hi_s))
        if lo < hi:
            out.append((lo / scale, hi / scale))
    return IntervalSet(out)


# --------------------------------------------------------------------------
# landmark annotation (reporting aid)


def window_landmarks(sched, j: int) -> dict[str, Rat]:
    st = sched.stage(j)
    return {
        "tower_height": st.height,
        "stretched_height": st.ratio * st.height,
        "middle_spacer": st.spacers[1],
        "top_spacer": st.spacers[3],
    }


def annotate_landmark(sched, j: int, t: Rat) -> str:
    """Label t with the nearest landmark if their ratio is within [1/2, 2]."""
    best_name, best_ratio = "unresolved", None
    for name, val in window_landmarks(sched, j).items():
        if val <= 0:
            continue
        r = t / val if t >= val else val / t
        if r <= 2 and (best_ratio is None or r < best_ratio):
            best_name, best_ratio = name, r
    return best_name
