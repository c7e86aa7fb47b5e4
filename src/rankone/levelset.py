"""Exact flow algebra over full-width slab sets.

A slab set is a union of full-width horizontal slabs of one tower,
described by its stage and the interval set of its levels.  The schedule's
stage geometry is derived once, as an integer lattice (``_lattice``): a
slab's levels lift to a higher tower through its column offsets on it
(``_lift``), the first tower that absorbs a translation is a bisection on
it, and every time query below opens one window on it (``_lattice_window``).
Everything the verification layer needs reduces to three exact computations:

* pointwise correlations mu(T_t A /\\ B): the zero-width window [t, t] of
  the profile sweep below, which only the copy-pair trapezoids positive
  at t enter (no float prefilter);
* exact piecewise-linear correlation profiles over a window, obtained by
  enumerating the per-stage column-offset difference patterns that can
  land in the window (a pruned DFS over the stage structure) and sweeping
  the resulting trapezoid slope events; hitting sets skip the sweep and
  merge the trapezoids' supports, enumerated one stage short: the pair
  stage's supports merge once into a template, shifted by every partial
  sum of the stages above; the shifted runs are merged and clipped lazily,
  so a report can be written run by run without holding the set;
* an empty-intersection witness search for pairs (t, d*t), run as a
  paired DFS over two pattern stacks so the huge hitting sets of top-level
  windows never have to be materialized.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import ceil, lcm
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .errors import HorizonExceeded, RankOneError
from .exactnum import IntervalSet, Rat, denominator_lcm, merge_sorted, rat


class SlabSet(NamedTuple):
    """Full-width slabs of tower ``stage`` at the given level set."""

    stage: int
    levels: IntervalSet


def make_slab(sched, stage: int, levels) -> SlabSet:
    if not 1 <= stage <= sched.num_stages:
        raise RankOneError(f"stage {stage} not built")
    if not isinstance(levels, IntervalSet):
        levels = IntervalSet(levels)
    env = levels.envelope()
    if env is not None and not (0 <= env[0] and env[1] <= sched.height(stage)):
        raise ValueError(f"levels {levels} exceed tower {stage}")
    return SlabSet(stage=stage, levels=levels)


def base_slab(sched) -> SlabSet:
    """The first tower as a slab set (the distinguished test set)."""
    return make_slab(sched, 1, [(0, sched.height(1))])


# --------------------------------------------------------------------------
# lifting to a tower


def _lift(sched, s: SlabSet, k: int, scale: int) -> list[tuple[int, int]]:
    """The levels of slab ``s`` in tower ``k`` as integer runs on 1/scale, a
    multiple of the lattice unit: its own levels scaled once, then copied
    through the column offsets of stages s.stage..k-1 and merged."""
    unit, _, _, _, offsets = _lattice(sched)
    m = scale // unit
    runs = [(int(lo * scale), int(hi * scale)) for lo, hi in s.levels.intervals]
    for st in range(s.stage, k):
        runs = list(merge_sorted([(lo + m * o, hi + m * o)
                                  for o in offsets[st] for lo, hi in runs]))
    return runs


def min_valid_stage(s: SlabSet, t, sched) -> int:
    """Smallest built stage whose tower absorbs a +t translation of s: the
    first j whose room[j] holds s's top edge plus t, lifted by the reach
    below s's stage (the top edge rises with the top copy's offset)."""
    t = rat(t)
    if t < 0:
        raise ValueError("negative times are handled by callers via symmetry")
    if s.levels.is_empty():
        return s.stage
    unit, _, reach, room, _ = _lattice(sched)
    need = ceil((s.levels.intervals[-1][1] + t) * unit) - reach[s.stage - 1]
    j = bisect_left(room, need, s.stage)
    if j > sched.num_stages:
        raise HorizonExceeded(f"time {t} exceeds what the {sched.num_stages}-stage "
                              "schedule absorbs")
    return j


def horizon(sched) -> Rat:
    """The largest t for which the built towers absorb a +t translation of
    the base slab: beyond it ``min_valid_stage(base_slab(sched), t)`` raises."""
    unit, _, _, room, _ = _lattice(sched)
    return Fraction(room[-1], unit) - sched.height(1)


# --------------------------------------------------------------------------
# piecewise-linear profiles


class PiecewiseLinear:
    """Exact piecewise-linear function on a window, constant outside it."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: tuple[Rat, ...], values: tuple[Rat, ...]):
        if len(breakpoints) != len(values) or len(breakpoints) < 2:
            raise ValueError("need matching breakpoint/value sequences")
        if any(b <= a for a, b in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in values):
            raise ValueError("profile values must be non-negative")
        self.breakpoints, self.values = breakpoints, values

    def value_at(self, t) -> Rat:
        t = rat(t)
        bp = self.breakpoints
        if t <= bp[0]:
            return self.values[0]
        if t >= bp[-1]:
            return self.values[-1]
        i = bisect_right(bp, t) - 1
        t0, t1 = bp[i], bp[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def _merge_runs(pieces: Iterable[tuple], lo, hi) -> Iterator[tuple]:
    """``merge_sorted(pieces)`` clipped to [lo, hi), lazily: every run
    clipped, the empty ones dropped.  The runs come sorted and disjoint, so
    those ending by lo are skipped and the first starting at hi ends it."""
    if lo >= hi:
        return
    for a, b in merge_sorted(pieces):
        if b <= lo:
            continue
        if a >= hi:
            return
        yield (a if a > lo else lo), (b if b < hi else hi)


def _lattice_set(unit: int, runs: Iterable[tuple]) -> IntervalSet:
    """The runs [lo, hi) in units of 1/unit, one ``Fraction`` per endpoint."""
    return IntervalSet((Fraction(lo, unit), Fraction(hi, unit)) for lo, hi in runs)


def _lattice(sched) -> tuple[int, list, list[int], list[int], list[list[int]]]:
    """The schedule's integer geometry, derived once per schedule.

    Returns the lcm D of the denominators of every tower height and column
    offset; per stage s, its distinct offset differences in units of 1/D,
    sorted, and their multiplicities, as two tuples; the prefix reach,
    where reach[s] is the largest |pattern sum| that stages 1..s can
    contribute (the rise of a top edge from tower 1 to tower s+1); and
    room[s] = h_s*D - reach[s-1], which never decreases: consecutive
    entries differ by the top spacer times D; and per stage s, its column
    offsets in units of 1/D.  Lists are indexed by stage, entry 0 standing
    for "no stage".
    """
    cached = sched.runtime_cache.get("lattice")
    if cached is not None:
        return cached
    n = sched.num_stages
    offsets = [sched.offsets(s) for s in range(1, n + 1)]
    heights = [sched.height(j) for j in range(1, n + 2)]
    unit = denominator_lcm(heights + [x for o in offsets for x in o])
    scaled_offsets = [[]] + [[int(x * unit) for x in o] for o in offsets]
    diffs: list[list[tuple[int, int]]] = [[]]
    reach = [0]
    room = [0]
    for h, scaled in zip(heights, scaled_offsets[1:]):
        diffs.append(tuple(zip(*sorted(Counter(b - a for a in scaled for b in scaled).items()))))
        room.append(int(h * unit) - reach[-1])
        reach.append(reach[-1] + scaled[3] - scaled[0])
    cached = sched.runtime_cache["lattice"] = (unit, diffs, reach, room, scaled_offsets)
    return cached


def _pattern_sums(
    sched, k: int, j: int, scale: int, lo: int, hi: int
) -> dict[int, int]:
    """Multiset of offset-difference pattern sums over stages k..j-1.

    Returns {sum: multiplicity} in units of 1/scale, restricted to sums
    that can matter for a target band [lo, hi]; the pruning uses exact
    bounds on what the remaining (lower) stages can still contribute.
    ``scale`` is a multiple m*D of the lattice unit, and every pattern sum
    on it is m times one on D: the search runs on D with the band rounded
    inward, and the surviving sums are multiplied by m.
    """
    unit, diffs, reach, _, _ = _lattice(sched)
    m = scale // unit
    lo, hi = -(-lo // m), hi // m
    level: dict[int, int] = {0: 1}
    for s in range(j - 1, k - 1, -1):
        rb = reach[s - 1] - reach[k - 1]
        lo_keep, hi_keep = lo - rb, hi + rb
        vs, ms = diffs[s]
        nxt: dict[int, int] = {}
        for partial, c in level.items():
            # the slice of the sorted differences that keeps the sum in band
            i, i2 = bisect_left(vs, lo_keep - partial), bisect_right(vs, hi_keep - partial)
            for v, mv in zip(vs[i:i2], ms[i:i2]):
                nxt[partial + v] = nxt.get(partial + v, 0) + c * mv
        level = nxt
        if not level:
            break
    return level if m == 1 else {m * v: c for v, c in level.items()}


def _window(window) -> tuple[Rat, Rat]:
    """The ends of a profile or hitting window, checked: 0 <= lo < hi."""
    w_lo, w_hi = rat(window[0]), rat(window[1])
    if not 0 <= w_lo < w_hi:
        raise ValueError("window must satisfy 0 <= lo < hi")
    return w_lo, w_hi


def _lattice_window(a: SlabSet, b: SlabSet, w_lo: Rat, w_hi: Rat, sched, skip: int = 0):
    """The pair's stage j and stage k, a lattice scale clearing the window
    and the pair's levels, the scaled window ends and base intervals (the
    levels lifted to stage k), and the pattern sums {delta: copy pairs}
    over stages k+skip..j-1 within one base height of the window, widened
    by the reach of the skipped stages.  The ends satisfy 0 <= w_lo <= w_hi; a pointwise
    query is the window [t, t]."""
    j = max(min_valid_stage(a, w_hi, sched), b.stage)
    k = max(a.stage, b.stage)
    # a lift adds only offsets on the lattice unit: the own levels give the scale
    ends = [w_lo, w_hi] + [x for s in (a, b) for iv in s.levels.intervals for x in iv]
    unit, _, reach, _, _ = _lattice(sched)
    scale = lcm(unit, denominator_lcm(ends))
    las, lbs = _lift(sched, a, k, scale), _lift(sched, b, k, scale)
    w_lo_s, w_hi_s = int(w_lo * scale), int(w_hi * scale)
    low = min(k + skip, j)
    pad = int(sched.height(k) * scale) + scale // unit * (reach[low - 1] - reach[k - 1])
    patterns = _pattern_sums(sched, low, j, scale, w_lo_s - pad, w_hi_s + pad)
    return j, k, scale, w_lo_s, w_hi_s, las, lbs, patterns


def _lattice_profile(a: SlabSet, b: SlabSet, w_lo: Rat, w_hi: Rat, sched):
    """The profile t -> mu(T_t A /\\ B) on [w_lo, w_hi], on the integer lattice.

    Returns the pair's stage j, the lattice scale and the scaled integer
    breakpoints and values: breakpoint x is the time x / scale and value v
    the measure width(j) * v / scale.  Copies are grouped by pattern, so the
    work scales with the patterns near the window, not with the copy count.
    """
    j, _, scale, w_lo_s, w_hi_s, las, lbs, patterns = _lattice_window(a, b, w_lo, w_hi, sched)

    # slope changes of the summed trapezoids; the window ends join as
    # zero changes so that the sweep below passes them
    events: dict[int, int] = {w_lo_s: 0, w_hi_s: 0}
    get = events.get
    for plo, phi in las:
        for qlo, qhi in lbs:
            # the trapezoid of a copy pair with pattern sum delta rises on
            # [delta + c1, delta + c2], is flat to delta + c3, falls to delta + c4
            c1, c4 = qlo - phi, qhi - plo
            c2, c3 = sorted((qlo - plo, qhi - phi))
            for delta, m in patterns.items():
                t1, t4 = delta + c1, delta + c4
                if t4 <= w_lo_s or t1 >= w_hi_s:
                    continue
                t2, t3 = delta + c2, delta + c3
                events[t1] = get(t1, 0) + m
                events[t2] = get(t2, 0) - m
                events[t3] = get(t3, 0) - m
                events[t4] = get(t4, 0) + m

    # one sweep: the profile is zero before its first event and linear
    # between events; interior events whose changes cancel are no breakpoint
    bps: list[int] = []
    vals: list[int] = []
    value = slope = prev = 0
    for t in sorted(events):
        if t > w_hi_s:
            break
        ds = events[t]
        value += slope * (t - prev)
        slope += ds
        prev = t
        if t == w_lo_s or t == w_hi_s or (ds and t > w_lo_s):
            bps.append(t)
            vals.append(value)
    return j, scale, bps, vals


def correlation_profile(a: SlabSet, b: SlabSet, window, sched) -> PiecewiseLinear:
    """The exact function t -> mu(T_t A /\\ B) on [window.lo, window.hi]."""
    j, scale, bps, vals = _lattice_profile(a, b, *_window(window), sched)
    unit = sched.width(j) / scale  # one scaled length unit of overlap, as measure
    return PiecewiseLinear(
        breakpoints=tuple(Fraction(t, scale) for t in bps),
        values=tuple(v * unit for v in vals),
    )


def correlation(a: SlabSet, b: SlabSet, t, sched) -> Rat:
    """Exact mu(T_t A /\\ B); negative t by the symmetry with (B, A, -t).

    The profile sweep's zero-width window [t, t]: only the copy-pair
    trapezoids whose open support holds t enter, and the sweep's value at t
    is their sum.
    """
    t = rat(t)
    if t < 0:
        return correlation(b, a, -t, sched)
    j, scale, _, (value,) = _lattice_profile(a, b, t, t, sched)
    return sched.width(j) * Fraction(value, scale)


def _hitting_runs(a: SlabSet, b: SlabSet, w_lo: Rat, w_hi: Rat, sched):
    """The lattice scale and an iterator over the integer runs [lo, hi) of
    ``hitting_set`` on [w_lo, w_hi], in increasing order.

    The set is the union of the supports (p + v + c1, p + v + c4), with
    c1 = qlo - phi and c4 = qhi - plo for base intervals [plo, phi) of a
    and [qlo, qhi) of b, over every pattern sum p + v: p a partial sum over
    stages k+1..j-1 and v an offset difference of the pair stage k (only 0
    when k == j).  That is the union over the partials p of p + C, where the
    template C merges the supports (v + c1, v + c4): the DFS stops one stage
    early.  Over the sorted partials, each template run (c1, c4) shifts into
    one sorted stream; ``heapq.merge`` interleaves those few streams, so the
    runs are merged and clipped as they are consumed and no list of them is
    built.  The window's stage check and the DFS run before this returns."""
    j, k, scale, lo, hi, las, lbs, partials = _lattice_window(a, b, w_lo, w_hi, sched, 1)
    unit, diffs, _, _, _ = _lattice(sched)
    vs = [scale // unit * v for v in diffs[k][0]] if k < j else [0]
    template = list(merge_sorted(sorted(
        (v + qlo - phi, v + qhi - plo) for v in vs for plo, phi in las for qlo, qhi in lbs
    )))
    partials = sorted(partials)
    streams = [zip(map(add, partials, repeat(c1)), map(add, partials, repeat(c4)))
               for c1, c4 in template]
    return scale, _merge_runs(heapq.merge(*streams), lo, hi)


def hitting_set(a: SlabSet, b: SlabSet, window, sched) -> IntervalSet:
    """Exact support {t in window : mu(T_t A /\\ B) > 0}.

    The same set as ``correlation_profile(...)``'s support, without its
    sweep: each copy-pair trapezoid is >= 0 and positive exactly on the open
    (delta + qlo - phi, delta + qhi - plo), so the support of their sum is
    the union of those intervals, clipped to the window, merged if touching.
    """
    return _lattice_set(*_hitting_runs(a, b, *_window(window), sched))


# --------------------------------------------------------------------------
# dissipativity witness search


def find_dissipativity_witness(sched, d, window_index: int) -> IntervalSet:
    """Exact witness set {t in window : rho(t) > 0 and rho(d t) > 0}.

    rho is the self-correlation of the base slab Y.  The window is
    [h_j, h_{j+1}] clipped below to the certificate threshold (strictly:
    times equal to the threshold itself are exempt).  Runs as a paired
    DFS whose states are the pattern sums (delta, delta2) of t and of d*t,
    each stage's differences sliced to the band; returns the union of the
    overlap intervals of all surviving pattern pairs.
    """
    d = rat(d)
    y = base_slab(sched)
    j = window_index
    w_lo, w_hi = sched.height(j), sched.height(j + 1)
    threshold = sched.dissipativity_threshold(d)
    # d is a dissipative target, so d > 1 and d*w_hi needs the deeper tower
    j1 = min_valid_stage(y, d * w_hi, sched)
    k = y.stage

    # every time here is a tower height, so the lattice unit clears it
    scale, diffs, reach, _, _ = _lattice(sched)
    w_lo_s, w_hi_s = int(w_lo * scale), int(w_hi * scale)
    thr_s = int(threshold * scale)
    e = int(sched.height(k) * scale)  # half-width of a base-pair trapezoid support
    p, q = d.numerator, d.denominator

    states: set[tuple[int, int]] = {(0, 0)}
    for s in range(j1 - 1, k - 1, -1):
        rb = reach[s - 1] - reach[k - 1]
        # the supports of t and d*t can still overlap while
        # |p*delta - q*delta2| <= budget, delta within e + rb of the window
        lo_keep, hi_keep = w_lo_s - e - rb, w_hi_s + e + rb
        budget = (p + q) * (e + rb)
        vs = diffs[s][0]
        qvs = [q * v for v in vs]
        nxt: set[tuple[int, int]] = set()
        for delta, delta2 in states:
            for v in vs[bisect_left(vs, lo_keep - delta):bisect_right(vs, hi_keep - delta)]:
                x = p * (delta + v) - q * delta2  # q*v2 must lie within budget of x
                for v2 in vs[bisect_left(qvs, x - budget):bisect_right(qvs, x + budget)]:
                    nxt.add((delta + v, delta2 + v2))
        states = nxt
        if not states:
            break

    # on the lattice of 1/(p*scale) every bound is an integer: a surviving
    # pair overlaps for p*t within p*e of p*delta and within q*e of q*delta2
    pe, qe = p * e, q * e
    pieces = sorted((max(p * delta - pe, q * delta2 - qe), min(p * delta + pe, q * delta2 + qe))
                    for delta, delta2 in states)
    runs = _merge_runs(pieces, p * max(w_lo_s, thr_s), p * w_hi_s)
    return _lattice_set(p * scale, runs)
