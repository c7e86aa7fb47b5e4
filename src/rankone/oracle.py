"""Independent cross-validation of the exact engine by orbit simulation.

``oracle_correlation`` estimates mu(T_t A /\\ B) from a deterministic
stratified grid of heights in A, each advanced by t through the tower
gluing rules: where the advance would leave a tower, the height moves
one stage up into one of the four column copies.  One walk over A's
level intervals, on an integer lattice, splits them where the advance
leaves a tower.  Each terminal region's interval is lifted into the
column copies up to B's stage, or descended once through the embedded
copies, split at each copy's window; the stratum midpoints in each piece
that meets B are counted in closed form.  The column ancestry is thus
integrated out exactly and the only discretization is the height grid.

A walk branch ending at stage s carries 4^-(s - k_a) of each sample,
split evenly over its lifts to B's stage.  In units of 4^-(top - k_a),
a lift's hits weigh 4^(top - max(s, k_b)); the branch's edges, capped
per lift, weigh 4^(top - s), as its lifts' shares sum to its own; A's
own interval ends weigh 4^(top - k_a).  Then

    value = mu(A) * hits / (n * 4^(top - k_a)),
    bound = mu(A) * edges / (n * 4^(top - k_a)).

Each lift's hit count is piecewise constant in the height, so the
midpoint of a stratum that none of its edges meets is exact for it, and
a stratum that one does meet is off by at most the stratum, mu(A)/n,
times the lift's share: each counted edge costs at most one stratum of
its branch's weight.  Nothing here refines level sets or enumerates
offset patterns, so agreement with the exact engine is evidence for both.
"""

from __future__ import annotations

from .errors import HorizonExceeded
from .exactnum import Rat, denominator_lcm, rat


def oracle_correlation(a, b, t, n: int, sched) -> tuple[Rat, Rat]:
    """Deterministic stratified estimate of mu(T_t A /\\ B) with a hard
    bound: the pair ``(value, bound)``.

    Negative t is folded by the flow symmetry mu(T_t A /\\ B) =
    mu(T_{-t} B /\\ A).
    """
    t = rat(t)
    if n < 1:
        raise ValueError("need at least one sample")
    if t < 0:
        return oracle_correlation(b, a, -t, n, sched)

    k_a, k_b = a.stage, b.stage
    top = sched.num_stages

    # one integer scale for every height handled below: the lcm of the
    # geometry's denominators (the stratum midpoints need not lie on it)
    vals = [t]
    for j in range(1, top + 1):
        vals.append(sched.height(j))
        vals.extend(sched.offsets(j))
    for slab in (a, b):
        for iv in slab.levels.intervals:
            vals.extend(iv)
    scale = denominator_lcm(vals)

    heights = {j: int(sched.height(j) * scale) for j in range(1, top + 1)}
    offsets = {
        j: [int(o * scale) for o in sched.offsets(j)] for j in range(1, top)
    }
    t_s = int(t * scale)
    la_s = [(int(lo * scale), int(hi * scale)) for lo, hi in a.levels.intervals]
    lb_s = [(int(lo * scale), int(hi * scale)) for lo, hi in b.levels.intervals]
    total = sum(hi - lo for lo, hi in la_s)

    def below(x: int) -> int:
        """Stratum midpoints below height x.  Midpoint i lies at length
        total*(2i+1)/(2n) along A's intervals, so it is below x iff that
        length is under u, the length of A below x."""
        u = sum(min(max(x - lo, 0), hi - lo) for lo, hi in la_s)
        return min(max(-((total - 2 * n * u) // (2 * total)), 0), n)

    def hits_in(stage: int, lo: int, hi: int, shift: int) -> int:
        """B-hits of the midpoints y in [lo, hi), at height y + shift on
        this stage, over their 4^(k_b - stage) lifts to B's stage."""
        if lo >= hi:
            return 0
        if stage < k_b:
            return sum(hits_in(stage + 1, lo, hi, shift + off) for off in offsets[stage])
        if stage > k_b:  # descend: split at each column copy's window
            prev_h = heights[stage - 1]
            return sum(
                hits_in(stage - 1, max(lo, off - shift), min(hi, off + prev_h - shift), shift - off)
                for off in offsets[stage - 1]
            )
        return sum(
            max(below(min(hi, e - shift)) - below(max(lo, s - shift)), 0) for s, e in lb_s
        )

    # the edges of a terminal region, per lift to B's stage: its end; within
    # an image interval of length L, the disjoint column windows of height h
    # contribute at most 2*(L//h + 1) endpoints per level, and the slab's
    # own intervals at most 2*n_b per window met
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
        if lo < thr:  # no lift: the advance terminates at this stage
            end = min(hi, thr)
            stage_r = max(stage, k_b)
            hits += 4 ** (top - stage_r) * hits_in(stage, lo, end, shift + t_s)
            edges += 4 ** (top - stage) * region_cap(stage_r, end - lo)
        if hi > thr:
            if stage >= top:
                raise HorizonExceeded(f"advance by {t} leaves the built towers")
            for off in offsets[stage]:
                walk(stage + 1, shift + off, max(lo, thr), hi)

    for lo, hi in la_s:
        walk(k_a, 0, lo, hi)

    unit = sched.width(k_a) * a.levels.total_length / (n * 4 ** (top - k_a))
    return unit * hits, unit * edges
