"""Reference model of the flow that the tests check the engine against.

No ``rankone`` command runs anything here.  The differential tests compare
``rankone.levelset``'s integer-lattice engine and ``rankone.oracle``'s
region walk with these plain definitions, so they must share no code with
the engine: a schedule is read only through ``height``, ``offsets``,
``width`` and ``num_stages``, ``IntervalSet`` and ``SlabSet`` serve as data
types, and no ``rankone.levelset`` function is imported.

* interval-set algebra: membership, union, intersection, translation and
  positive scaling, as free functions over ``IntervalSet``;
* slab refinement, stage by stage through the four column offsets, and
  exact translation at the first stage whose refined envelope absorbs it;
* piecewise-linear helpers: pieces, support and exact integral;
* the two pattern searches in their scan-and-test form: every offset
  difference of a stage is tried and kept if it stays within the band;
* the orbit point model: points with column ancestry, forward advance and
  slab membership.  It uses nothing of ``levelset``, not even its types;
* the orbit oracle in its per-sample form: every stratum midpoint is
  listed, lifted through the column copies and tested against B by
  walking back down, one at a time.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from rankone.errors import HorizonExceeded, RankOneError
from rankone.exactnum import IntervalSet, Rat, rat
from rankone.levelset import SlabSet

ZERO = Fraction(0)


# --------------------------------------------------------------------------
# interval-set algebra


class NonPositiveScale(RankOneError):
    """Raised when an interval set is scaled by a factor <= 0."""


def contains(s: IntervalSet, t) -> bool:
    t = rat(t)
    ivs = s.intervals
    i = bisect_right(ivs, t, key=lambda iv: iv[0]) - 1
    return i >= 0 and ivs[i][0] <= t < ivs[i][1]


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return IntervalSet(a.intervals + b.intervals)


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out: list[tuple[Rat, Rat]] = []
    x, y = a.intervals, b.intervals
    i = j = 0
    while i < len(x) and j < len(y):
        lo = max(x[i][0], y[j][0])
        hi = min(x[i][1], y[j][1])
        if lo < hi:
            out.append((lo, hi))
        if x[i][1] <= y[j][1]:
            i += 1
        else:
            j += 1
    return IntervalSet(out)


def translate(s: IntervalSet, t) -> IntervalSet:
    t = rat(t)
    return IntervalSet((lo + t, hi + t) for lo, hi in s)


def scale(s: IntervalSet, r) -> IntervalSet:
    r = rat(r)
    if r <= 0:
        raise NonPositiveScale(f"scale factor must be positive, got {r}")
    return IntervalSet((lo * r, hi * r) for lo, hi in s)


# --------------------------------------------------------------------------
# slab refinement and translation

# refined level sets per schedule, by identity, dropped with the schedule; a
# schedule never changes, so no test sees another's entries differ
_REFINED: dict[int, dict[tuple[SlabSet, int], IntervalSet]] = {}


def _refined(s: SlabSet, j: int, sched) -> IntervalSet:
    """Levels of ``s`` in tower ``j``: each stage places four copies of the
    previous tower's levels at its column offsets."""
    memo = _REFINED.get(id(sched))
    if memo is None:
        memo = _REFINED[id(sched)] = {}
        weakref.finalize(sched, _REFINED.pop, id(sched), None)
    levels = memo.get((s, j))
    if levels is None:
        if j == s.stage:
            levels = s.levels
        else:
            prev = _refined(s, j - 1, sched)
            levels = IntervalSet(
                (lo + off, hi + off) for off in sched.offsets(j - 1) for lo, hi in prev
            )
        memo[(s, j)] = levels
    return levels


def measure(s: SlabSet, sched) -> Rat:
    return sched.width(s.stage) * s.levels.total_length


def refine(s: SlabSet, j: int, sched) -> SlabSet:
    """The same measurable set written as slabs of a later tower."""
    if j < s.stage or j > sched.num_stages:
        raise RankOneError(
            f"cannot refine stage-{s.stage} slabs to stage {j} "
            f"(built: 1..{sched.num_stages})"
        )
    return SlabSet(stage=j, levels=_refined(s, j, sched))


def translate_exact(s: SlabSet, t, sched) -> SlabSet:
    """T_t applied to a slab set, at the first stage whose tower holds the
    translated refinement."""
    t = rat(t)
    if t < 0:
        raise ValueError("negative times are handled by callers via symmetry")
    for j in range(s.stage, sched.num_stages + 1):
        levels = _refined(s, j, sched)
        env = levels.envelope()
        if env is None or env[1] + t <= sched.height(j):
            return SlabSet(stage=j, levels=translate(levels, t))
    raise HorizonExceeded(
        f"time {t} exceeds what the {sched.num_stages}-stage schedule absorbs"
    )


# --------------------------------------------------------------------------
# piecewise-linear profiles (any object with ``breakpoints`` and ``values``)


def pieces(f) -> Iterable[tuple[Rat, Rat, Rat, Rat]]:
    """Yield (t0, t1, v0, v1) per linear piece."""
    bp, vals = f.breakpoints, f.values
    return zip(bp, bp[1:], vals, vals[1:])


def support(f) -> IntervalSet:
    """Closure of {t in window : f(t) > 0} as half-open intervals.

    The positivity set is open; merging its closure into half-open
    canonical form is sound for emptiness questions because any
    nonempty half-open intersection has positive length.
    """
    return IntervalSet((t0, t1) for t0, t1, v0, v1 in pieces(f) if v0 > 0 or v1 > 0)


def integral(f, lo=None, hi=None) -> Rat:
    """Exact integral over [lo, hi] (defaults to the whole window)."""
    a = f.breakpoints[0] if lo is None else rat(lo)
    b = f.breakpoints[-1] if hi is None else rat(hi)
    if not (f.breakpoints[0] <= a <= b <= f.breakpoints[-1]):
        raise ValueError("integration range must lie inside the window")
    total = ZERO
    for t0, t1, v0, v1 in pieces(f):
        s0, s1 = max(t0, a), min(t1, b)
        if s0 >= s1:
            continue
        w0 = v0 + (v1 - v0) * (s0 - t0) / (t1 - t0)
        w1 = v0 + (v1 - v0) * (s1 - t0) / (t1 - t0)
        total += (w0 + w1) * (s1 - s0) / 2
    return total


# --------------------------------------------------------------------------
# pattern searches, scanned and tested


def stage_differences(sched, s: int, scale: int) -> list[tuple[int, int]]:
    """Stage s's column-offset differences b - a on the lattice of 1/scale,
    as sorted (value, multiplicity) pairs."""
    counts: dict[int, int] = {}
    offs = [x * scale for x in sched.offsets(s)]
    for a in offs:
        for b in offs:
            if (b - a).denominator != 1:
                raise ValueError(f"offsets of stage {s} are not on the lattice 1/{scale}")
            counts[int(b - a)] = counts.get(int(b - a), 0) + 1
    return sorted(counts.items())


def _reach(diffs: dict[int, list[tuple[int, int]]], k: int, j: int) -> dict[int, int]:
    """reach[s]: the largest |sum| stages k..s can add, reach[k-1] = 0."""
    reach = {k - 1: 0}
    for s in range(k, j):
        reach[s] = reach[s - 1] + diffs[s][-1][0]
    return reach


def pattern_sums(sched, k: int, j: int, scale: int, lo: int, hi: int) -> dict[int, int]:
    """{sum: multiplicity} of the offset-difference pattern sums over stages
    k..j-1 that lie in [lo, hi], on the lattice of 1/scale: stage by stage
    from the top, every difference is tried and kept if the partial sum
    stays within the band widened by what the stages below can add."""
    diffs = {s: stage_differences(sched, s, scale) for s in range(k, j)}
    reach = _reach(diffs, k, j)
    level = {0: 1}
    for s in range(j - 1, k - 1, -1):
        lo_keep, hi_keep = lo - reach[s - 1], hi + reach[s - 1]
        nxt: dict[int, int] = {}
        for partial, m in level.items():
            for v, mv in diffs[s]:
                if lo_keep <= partial + v <= hi_keep:
                    nxt[partial + v] = nxt.get(partial + v, 0) + m * mv
        level = nxt
    return level


def witness_states(sched, d: Rat, j: int) -> tuple[int, int, set[tuple[int, int]]]:
    """The paired pattern search of the dissipativity witness on window
    [h_j, h_{j+1}], as scan and test: the lattice unit D (every tower
    height and offset is a multiple of 1/D), the base half-width e = h_1*D
    and the surviving states (delta, z).  delta is the pattern sum of t and
    z = p*delta - q*delta2, with delta2 the pattern sum of d*t = (p/q)*t;
    a state is kept while delta stays within e plus the reach below of the
    window and |z| within (p + q) times that slack."""
    n = sched.num_stages
    heights = [sched.height(s) for s in range(1, n + 2)]
    unit = 1
    for x in heights + [o for s in range(1, n + 1) for o in sched.offsets(s)]:
        unit = lcm(unit, x.denominator)
    w_lo, w_hi = int(sched.height(j) * unit), int(sched.height(j + 1) * unit)
    e = int(heights[0] * unit)
    p, q = d.numerator, d.denominator
    # the first tower that holds the base slab's top edge moved by d*h_{j+1}
    top, j1 = heights[0], 1
    while top + d * sched.height(j + 1) > sched.height(j1):
        if j1 == n:
            raise HorizonExceeded(f"d*h_{j + 1} exceeds the {n}-stage schedule")
        top += max(sched.offsets(j1))
        j1 += 1
    diffs = {s: stage_differences(sched, s, unit) for s in range(1, j1)}
    reach = _reach(diffs, 1, j1)
    states = {(0, 0)}
    for s in range(j1 - 1, 0, -1):
        rb = reach[s - 1]
        nxt = set()
        for delta, z in states:
            for v, _ in diffs[s]:
                if not w_lo - e - rb <= delta + v <= w_hi + e + rb:
                    continue
                for v2, _ in diffs[s]:
                    z2 = z + p * v - q * v2
                    if abs(z2) <= (p + q) * (e + rb):
                        nxt.add((delta + v, z2))
        states = nxt
    return unit, e, states


def dissipativity_witness(sched, d, j: int) -> IntervalSet:
    """{t in [h_j, h_{j+1}) above the threshold : rho(t) > 0 and rho(d t) > 0}
    from the surviving states: t within h_1 of delta/D and d*t within h_1
    of delta2/D."""
    d = rat(d)
    unit, e, states = witness_states(sched, d, j)
    h1 = Fraction(e, unit)
    lo = max(sched.height(j), sched.dissipativity_threshold(d))
    hi = sched.height(j + 1)
    pieces = []
    for delta, z in states:
        t, t2 = Fraction(delta, unit), Fraction(d.numerator * delta - z, d.denominator * unit)
        pieces.append((max(t - h1, (t2 - h1) / d, lo), min(t + h1, (t2 + h1) / d, hi)))
    return IntervalSet(pieces)


# --------------------------------------------------------------------------
# orbit point model: points moved through the tower gluing rules one stage
# at a time, membership found by walking down the embedded column copies


@dataclass(frozen=True)
class PointState:
    """A point of the phase space with enough ancestry to keep moving.

    ``height`` lives in [0, h_stage); ``path`` lists the column indices
    (1..4) the point occupies at the current and following stages, so a
    lift into stage+1 consumes the first entry.
    """

    stage: int
    height: Rat
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if any(d not in (1, 2, 3, 4) for d in self.path):
            raise ValueError("column indices must be in 1..4")


def orbit_advance(p: PointState, t, sched) -> PointState:
    """Move a point by flow time t >= 0 through the built towers."""
    t = rat(t)
    if t < 0:
        raise ValueError("orbit advance handles forward time only")
    stage, y = p.stage, p.height
    i = 0
    while y + t >= sched.height(stage):
        if stage >= sched.num_stages or i >= len(p.path):
            raise HorizonExceeded(
                f"advance by {t} leaves the built towers (stage {stage})"
            )
        y = y + sched.offsets(stage)[p.path[i] - 1]
        stage += 1
        i += 1
    return PointState(stage=stage, height=y + t, path=p.path[i:])


def _column_copy(stage: int, y: Rat, sched) -> tuple[int, Rat] | None:
    """(digit, height) of y in the copy of tower stage-1 holding it, or None."""
    prev_h = sched.height(stage - 1)
    for digit, off in enumerate(sched.offsets(stage - 1), start=1):
        if off <= y < off + prev_h:
            return digit, y - off
    return None


def locate_height(stage: int, height: Rat, target_stage: int, sched) -> Rat | None:
    """Express a tower height at an earlier stage; None if it sits in spacers."""
    y = height
    for s in range(stage, target_stage, -1):
        found = _column_copy(s, y, sched)
        if found is None:
            return None
        y = found[1]
    return y


def point_in_slab(p: PointState, slab, sched) -> bool:
    """Is the point inside the slab set (any object with stage/levels)?"""
    if p.stage >= slab.stage:
        y = locate_height(p.stage, p.height, slab.stage, sched)
        return y is not None and contains(slab.levels, y)
    y = p.height
    s = p.stage
    i = 0
    while s < slab.stage:
        if i >= len(p.path):
            raise HorizonExceeded("point path too short to reach the slab's stage")
        y = y + sched.offsets(s)[p.path[i] - 1]
        s += 1
        i += 1
    return contains(slab.levels, y)


def canonical_form(p: PointState, sched) -> tuple[int, Rat, tuple[int, ...]]:
    """Lowest-stage representation (stage, height, path) of a point.

    Descending recovers the column digits the point occupies at the
    stages it passes, so two states describing the same point agree.
    """
    stage, y, path = p.stage, p.height, list(p.path)
    while stage > 1 and (found := _column_copy(stage, y, sched)) is not None:
        digit, y = found
        path.insert(0, digit)
        stage -= 1
    return stage, y, tuple(path)


def same_point(p1: PointState, p2: PointState, sched) -> bool:
    s1, y1, path1 = canonical_form(p1, sched)
    s2, y2, path2 = canonical_form(p2, sched)
    if (s1, y1) != (s2, y2):
        return False
    n = min(len(path1), len(path2))
    return path1[:n] == path2[:n]


# --------------------------------------------------------------------------
# orbit oracle, one sample at a time: the same region walk, and the same
# branch weights on hits and edge caps, as ``rankone.oracle``, with each
# stratum midpoint of a terminal region lifted and descended on its own


def strata_midpoints(intervals: list[tuple[int, int]], n: int) -> list[int]:
    """Midpoints of n equal-measure strata across sorted integer intervals.

    The total length must be a multiple of 2n, so the midpoints are integers.
    An empty set has no strata.
    """
    total = sum(hi - lo for lo, hi in intervals)
    if not total:
        return []
    out: list[int] = []
    idx = 0
    consumed = 0  # length of fully consumed intervals
    for i in range(n):
        u = total * (2 * i + 1) // (2 * n)
        while u >= consumed + (intervals[idx][1] - intervals[idx][0]):
            consumed += intervals[idx][1] - intervals[idx][0]
            idx += 1
        out.append(intervals[idx][0] + (u - consumed))
    return out


def oracle_per_sample(a, b, t, n: int, sched) -> tuple[Rat, Rat]:
    """``rankone.oracle.oracle_correlation`` with a per-sample B test: the
    pair ``(value, bound)``."""
    t = rat(t)
    if n < 1:
        raise ValueError("need at least one sample")
    if t < 0:
        return oracle_per_sample(b, a, -t, n, sched)

    k_a, k_b = a.stage, b.stage
    top = sched.num_stages

    vals = [t]
    for j in range(1, top + 1):
        vals.append(sched.height(j))
        vals.extend(sched.offsets(j))
    for slab in (a, b):
        for iv in slab.levels.intervals:
            vals.extend(iv)
    scale = lcm(*(rat(v).denominator for v in vals)) * 2 * n

    heights = {j: int(sched.height(j) * scale) for j in range(1, top + 1)}
    offsets = {j: [int(o * scale) for o in sched.offsets(j)] for j in range(1, top)}
    t_s = int(t * scale)
    la_s = [(int(lo * scale), int(hi * scale)) for lo, hi in a.levels.intervals]
    lb_s = [(int(lo * scale), int(hi * scale)) for lo, hi in b.levels.intervals]
    lb_lo = [iv[0] for iv in lb_s]
    mids = strata_midpoints(la_s, n)

    def in_b(z: int) -> int:
        i = bisect_right(lb_lo, z) - 1
        if i >= 0 and lb_s[i][0] <= z < lb_s[i][1]:
            return 1
        return 0

    def descend_test(stage: int, z: int) -> int:
        while stage > k_b:
            prev_h = heights[stage - 1]
            found = None
            for off in offsets[stage - 1]:
                if off <= z < off + prev_h:
                    found = z - off
                    break
            if found is None:
                return 0
            z = found
            stage -= 1
        return in_b(z)

    def lifted_hits(stage: int, z: int) -> int:
        """B-hits of (stage, z) over its 4^(k_b - stage) lifts to B's stage."""
        if stage >= k_b:
            return descend_test(stage, z)
        return sum(lifted_hits(stage + 1, z + off) for off in offsets[stage])

    n_b = len(lb_s)
    hits = 0
    edges = 2 * len(la_s) * 4 ** (top - k_a)

    def region_cap(stage_r: int, length: int) -> int:
        cap = 1 + 2 * n_b * (length // heights[k_b] + 1)
        for s in range(k_b + 1, stage_r + 1):
            cap += 2 * (length // heights[s - 1] + 1)
        return cap

    def walk(stage: int, shift: int, lo: int, hi: int) -> None:
        nonlocal hits, edges
        if lo >= hi:
            return
        thr = heights[stage] - t_s - shift
        if lo < thr:
            end = min(hi, thr)
            stage_r = max(stage, k_b)
            edges += 4 ** (top - stage) * region_cap(stage_r, end - lo)
            weight = 4 ** (top - stage_r)
            for y in mids[bisect_left(mids, lo) : bisect_left(mids, end)]:
                hits += weight * lifted_hits(stage, y + shift + t_s)
        if hi > thr:
            if stage >= top:
                raise HorizonExceeded(f"advance by {t} leaves the built towers")
            for off in offsets[stage]:
                walk(stage + 1, shift + off, max(lo, thr), hi)

    for lo, hi in la_s:
        walk(k_a, 0, lo, hi)

    unit = sched.width(k_a) * a.levels.total_length / (n * 4 ** (top - k_a))
    return unit * hits, unit * edges
