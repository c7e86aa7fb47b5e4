"""Finite-stage construction of the cutting-and-stacking flow.

A schedule records, for each stage j, the four spacer heights stacked over
the four columns of tower j, the resulting tower height/width, and the
offsets at which the four column copies of tower j sit inside tower j+1.
The builder turns the qualitative growth requirements (middle and top
spacers growing much faster than the tower) into explicit multipliers and
certifies, window by window, that the dissipativity constraint holds for
every active ratio d, escalating the multipliers until it does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import EmptyTargets, EscalationExhausted, StageOutOfRange
from .exactnum import IntervalSet, Rat, denominator_lcm, rat, rat_str

ZERO = Fraction(0)
ONE = Fraction(1)


# --------------------------------------------------------------------------
# target ratio sets


@dataclass(frozen=True)
class TargetSets:
    """The two disjoint families of ratios the flow is built around.

    ``singular`` entries c drive the weak-limit identities; ``dissipative``
    entries d drive the empty-intersection certificates.  All entries are
    rationals > 1; the two families are disjoint.  ``entry_stages`` maps
    each dissipative ratio to the first window index on which its
    certificate is enforced (defaults to position+2: the very first window
    is never claimable because its landmark neighborhoods are as wide as
    the base tower itself).
    """

    singular: tuple[Rat, ...]
    dissipative: tuple[Rat, ...] = ()
    entry_stages: tuple[tuple[Rat, int], ...] = ()

    def __post_init__(self):
        singular = tuple(rat(c) for c in self.singular)
        dissipative = tuple(rat(d) for d in self.dissipative)
        object.__setattr__(self, "singular", singular)
        object.__setattr__(self, "dissipative", dissipative)
        for x in singular + dissipative:
            if x <= 1:
                raise ValueError(f"target ratios must exceed 1, got {x}")
        if len(set(singular)) != len(singular):
            raise ValueError("duplicate entries in the singular family")
        if len(set(dissipative)) != len(dissipative):
            raise ValueError("duplicate entries in the dissipative family")
        if set(singular) & set(dissipative):
            raise ValueError("the singular and dissipative families must be disjoint")
        if not self.entry_stages:
            entries = tuple((d, m + 2) for m, d in enumerate(dissipative))
        else:
            entries = tuple((rat(d), int(k)) for d, k in self.entry_stages)
            known = {d for d, _ in entries}
            if known != set(dissipative):
                raise ValueError("entry_stages must cover exactly the dissipative family")
            for d, k in entries:
                if k < 1:
                    raise ValueError(f"entry stage for d={d} must be >= 1")
        object.__setattr__(self, "entry_stages", entries)

    def entry_stage(self, d) -> int:
        d = rat(d)
        for dd, k in self.entry_stages:
            if dd == d:
                return k
        raise KeyError(f"{d} is not a dissipative target")

    def to_dict(self) -> dict:
        return {
            "singular": [rat_str(c) for c in self.singular],
            "dissipative": [rat_str(d) for d in self.dissipative],
            "entry_stages": {rat_str(d): k for d, k in self.entry_stages},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TargetSets":
        """Parse a ``targets`` block; null entry stages and a missing
        dissipative list take their defaults."""
        return cls(
            singular=tuple(d["singular"]),
            dissipative=tuple(d.get("dissipative", ())),
            entry_stages=tuple((d.get("entry_stages") or {}).items()),
        )


# --------------------------------------------------------------------------
# build policy


@dataclass(frozen=True)
class GaugeSpec:
    """Divergent lower bound g(j) for the spacer growth multipliers.

    kind 'pow2' gives max(floor, 2**j); 'constant' gives floor; 'table'
    reads values[j-1] (clamped to the last entry).
    """

    kind: str = "pow2"
    floor: Rat = Fraction(16)
    values: tuple[Rat, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "floor", rat(self.floor))
        object.__setattr__(self, "values", tuple(rat(v) for v in self.values))
        if self.kind not in ("pow2", "constant", "table"):
            raise ValueError(f"unknown gauge kind {self.kind!r}")
        if self.kind == "table":
            if not self.values:
                raise ValueError("table gauge needs values")
            if any(b < a for a, b in zip(self.values, self.values[1:])):
                raise ValueError("gauge table must be non-decreasing")

    def value(self, j: int) -> Rat:
        if self.kind == "pow2":
            return max(self.floor, Fraction(2**j))
        if self.kind == "constant":
            return self.floor
        idx = min(j, len(self.values)) - 1
        return self.values[idx]


@dataclass(frozen=True)
class TopSpacerRule:
    """How the top spacer is derived from the middle one.

    mode 'multiplier' (the real construction) sets s4 = M * s2.  mode
    'collide' sets s4 = d * s2, deliberately aligning the top-spacer
    landmark with the d-dilated middle-spacer landmark; it exists only as
    a negative control for the certificate checker.
    """

    mode: str = "multiplier"
    collide_ratio: Rat = Fraction(2)

    def __post_init__(self):
        object.__setattr__(self, "collide_ratio", rat(self.collide_ratio))
        if self.mode not in ("multiplier", "collide"):
            raise ValueError(f"unknown top-spacer mode {self.mode!r}")


@dataclass(frozen=True)
class StagePolicy:
    gauge: GaugeSpec = GaugeSpec()
    initial_multiplier: Rat = ONE
    escalation_factor: Rat = Fraction(2)
    max_retries: int = 40
    top_spacer: TopSpacerRule = TopSpacerRule()

    def __post_init__(self):
        object.__setattr__(self, "initial_multiplier", rat(self.initial_multiplier))
        object.__setattr__(self, "escalation_factor", rat(self.escalation_factor))
        if self.initial_multiplier < 1:
            raise ValueError("initial multiplier must be >= 1")
        if self.escalation_factor <= 1:
            raise ValueError("escalation factor must exceed 1")

    def start_multiplier(self, j: int) -> Rat:
        return self.gauge.value(j) * self.initial_multiplier

    def to_dict(self) -> dict:
        return {
            "gauge": {
                "kind": self.gauge.kind,
                "floor": rat_str(self.gauge.floor),
                "values": [rat_str(v) for v in self.gauge.values],
            },
            "initial_multiplier": rat_str(self.initial_multiplier),
            "escalation_factor": rat_str(self.escalation_factor),
            "max_retries": self.max_retries,
            "top_spacer": {
                "mode": self.top_spacer.mode,
                "collide_ratio": rat_str(self.top_spacer.collide_ratio),
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StagePolicy":
        gauge, top = d["gauge"], d["top_spacer"]
        return cls(
            gauge=GaugeSpec(
                kind=gauge["kind"], floor=gauge["floor"], values=tuple(gauge["values"])
            ),
            initial_multiplier=d["initial_multiplier"],
            escalation_factor=d["escalation_factor"],
            max_retries=int(d["max_retries"]),
            top_spacer=TopSpacerRule(mode=top["mode"], collide_ratio=top["collide_ratio"]),
        )


@dataclass(frozen=True)
class PerturbationSpec:
    """Dyadic net over [0,1]^2 visited cyclically by the stages of each ratio."""

    net_depth: int = 1

    def __post_init__(self):
        if self.net_depth < 1:
            raise ValueError("net depth must be >= 1")

    def points(self) -> tuple[tuple[Rat, Rat], ...]:
        step = Fraction(1, 2**self.net_depth)
        levels = [i * step for i in range(2**self.net_depth + 1)]
        return tuple((a, b) for a in levels for b in levels)

    def to_dict(self) -> dict:
        return {"net_depth": self.net_depth}

    @classmethod
    def from_dict(cls, d: dict | None) -> "PerturbationSpec | None":
        """Parse a ``perturbation`` block; null or empty means none."""
        return cls(net_depth=int(d["net_depth"])) if d else None


# --------------------------------------------------------------------------
# stages and schedules


@dataclass(frozen=True)
class StageParams:
    """Everything stage j contributes: spacers, height, width, offsets.

    offsets[i] is the base height of column copy i+1 of tower j inside
    tower j+1; the exact recurrences are asserted at construction.
    """

    index: int
    ratio: Rat
    spacers: tuple[Rat, Rat, Rat, Rat]
    delta1: Rat
    delta3: Rat
    height: Rat
    width: Rat
    offsets: tuple[Rat, Rat, Rat, Rat]
    multiplier: Rat

    def __post_init__(self):
        s = self.spacers
        h = self.height
        if len(s) != 4 or len(self.offsets) != 4:
            raise ValueError("a stage needs four spacers and four offsets")
        if any(x < 0 for x in s):
            raise ValueError("spacer heights must be non-negative")
        if not (ZERO <= self.delta1 <= ONE and ZERO <= self.delta3 <= ONE):
            raise ValueError("perturbations must lie in [0, 1]")
        if s[0] != self.delta1:
            raise ValueError("first spacer must equal the delta1 perturbation")
        if s[2] != (self.ratio - 1) * h + self.delta3:
            raise ValueError("third spacer must equal (ratio-1)*height + delta3")
        expected = (ZERO, h + s[0], 2 * h + s[0] + s[1], 3 * h + s[0] + s[1] + s[2])
        if self.offsets != expected:
            raise ValueError("offsets do not satisfy the stacking recurrence")

    @property
    def next_height(self) -> Rat:
        return self.offsets[3] + self.height + self.spacers[3]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "ratio": rat_str(self.ratio),
            "spacers": [rat_str(x) for x in self.spacers],
            "delta1": rat_str(self.delta1),
            "delta3": rat_str(self.delta3),
            "height": rat_str(self.height),
            "width": rat_str(self.width),
            "offsets": [rat_str(x) for x in self.offsets],
            "multiplier": rat_str(self.multiplier),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StageParams":
        return cls(
            index=int(d["index"]),
            ratio=rat(d["ratio"]),
            spacers=tuple(rat(x) for x in d["spacers"]),
            delta1=rat(d["delta1"]),
            delta3=rat(d["delta3"]),
            height=rat(d["height"]),
            width=rat(d["width"]),
            offsets=tuple(rat(x) for x in d["offsets"]),
            multiplier=rat(d["multiplier"]),
        )


@dataclass(frozen=True)
class EscalationEvent:
    window: int
    ratio: Rat
    old_multiplier: Rat
    new_multiplier: Rat
    witness: IntervalSet
    escalated_stages: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "ratio": rat_str(self.ratio),
            "old_multiplier": rat_str(self.old_multiplier),
            "new_multiplier": rat_str(self.new_multiplier),
            "witness": self.witness.to_pairs(),
            "escalated_stages": list(self.escalated_stages),
        }


@dataclass(frozen=True)
class Schedule:
    """An immutable, fully determined finite-stage construction record.

    Construction validates the cross-stage recurrences, so a deserialized
    schedule is guaranteed to describe an actual stacking flow (each
    stage's height is the previous stage's derived height, widths quarter,
    ratios come from the singular family).
    """

    base_width: Rat
    base_height: Rat
    targets: TargetSets
    policy: StagePolicy
    stages: tuple[StageParams, ...]
    perturbation: PerturbationSpec | None = None
    escalations: tuple[EscalationEvent, ...] = ()
    runtime_cache: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a schedule needs at least one stage")
        if self.stages[0].height != self.base_height:
            raise ValueError("stage 1 height must equal the base height")
        width = self.base_width
        allowed = set(self.targets.singular)
        for i, st in enumerate(self.stages, start=1):
            if st.index != i:
                raise ValueError(f"stage indices must run 1..n, got {st.index} at {i}")
            if st.width != width:
                raise ValueError(f"stage {i} width breaks the quartering rule")
            if st.ratio not in allowed:
                raise ValueError(f"stage {i} ratio {st.ratio} not in the singular family")
            width = width / 4
        for prev, nxt in zip(self.stages, self.stages[1:]):
            if nxt.height != prev.next_height:
                raise ValueError(
                    f"stage {nxt.index} height breaks the stacking recurrence"
                )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def ratio_trace(self) -> tuple[Rat, ...]:
        return tuple(st.ratio for st in self.stages)

    def stage(self, j: int) -> StageParams:
        if not 1 <= j <= self.num_stages:
            raise StageOutOfRange(f"stage {j} not built (have 1..{self.num_stages})")
        return self.stages[j - 1]

    def height(self, j: int) -> Rat:
        """Height of tower j; j may run one past the last built stage."""
        if j == self.num_stages + 1:
            return self.stages[-1].next_height
        return self.stage(j).height

    def width(self, j: int) -> Rat:
        if not 1 <= j <= self.num_stages + 1:
            raise StageOutOfRange(f"stage {j} not built")
        return self.base_width / Fraction(4) ** (j - 1)

    def offsets(self, j: int) -> tuple[Rat, Rat, Rat, Rat]:
        return self.stage(j).offsets

    def tower_measure(self, j: int) -> Rat:
        return self.width(j) * self.height(j)

    def certified_windows(self) -> list[int]:
        """Window [h_j, h_{j+1}] is certifiable iff stage j+2 is built."""
        return list(range(1, self.num_stages - 1))

    def windows_for(self, d) -> list[int]:
        k = self.targets.entry_stage(d)
        return [j for j in self.certified_windows() if j >= k]

    def dissipativity_threshold(self, d) -> Rat:
        """Times above this height are covered by the d-certificate."""
        return self.height(self.targets.entry_stage(d))

    def delta_pair(self, j: int) -> tuple[Rat, Rat]:
        st = self.stage(j)
        return st.delta1, st.delta3

    @property
    def denominator_scale(self) -> int:
        """LCM of all denominators appearing in the schedule's geometry."""
        cached = self.runtime_cache.get("denominator_scale")
        if cached is None:
            vals: list[Rat] = [self.base_width, self.base_height]
            for st in self.stages:
                vals.extend(st.spacers)
                vals.extend(st.offsets)
                vals.append(st.height)
                vals.append(st.width)
            vals.append(self.stages[-1].next_height)
            cached = denominator_lcm(vals)
            self.runtime_cache["denominator_scale"] = cached
        return cached

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "base_width": rat_str(self.base_width),
            "base_height": rat_str(self.base_height),
            "targets": self.targets.to_dict(),
            "policy": self.policy.to_dict(),
            "perturbation": self.perturbation.to_dict() if self.perturbation else None,
            "stages": [st.to_dict() for st in self.stages],
            "escalations": [e.to_dict() for e in self.escalations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        escalations = tuple(
            EscalationEvent(
                window=int(e["window"]),
                ratio=rat(e["ratio"]),
                old_multiplier=rat(e["old_multiplier"]),
                new_multiplier=rat(e["new_multiplier"]),
                witness=IntervalSet.from_pairs(e["witness"]),
                escalated_stages=tuple(e.get("escalated_stages", ())),
            )
            for e in d.get("escalations", ())
        )
        return cls(
            base_width=rat(d["base_width"]),
            base_height=rat(d["base_height"]),
            targets=TargetSets.from_dict(d["targets"]),
            policy=StagePolicy.from_dict(d["policy"]),
            stages=tuple(StageParams.from_dict(s) for s in d["stages"]),
            perturbation=PerturbationSpec.from_dict(d.get("perturbation")),
            escalations=escalations,
        )

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------------
# ratio enumeration and perturbation assignment


def enumerate_ratios(values: Sequence[Rat], j_max: int) -> tuple[Rat, ...]:
    """Assign a target ratio to each stage by a diagonal sweep.

    Blocks of growing prefixes of the family are chained:
    v1; v1,v2; v1,v2,v3; ... so every entry recurs unboundedly often in
    the infinite ideal.  Truncated to j_max entries.
    """
    vals = tuple(rat(v) for v in values)
    if not vals:
        raise EmptyTargets("need at least one singular target ratio")
    out: list[Rat] = []
    block = 1
    while len(out) < j_max:
        out.extend(vals[: min(block, len(vals))])
        block += 1
    return tuple(out[:j_max])


def perturbation_schedule(
    values: Sequence[Rat], j_max: int, net_depth: int
) -> dict[int, tuple[Rat, Rat]]:
    """Per-stage (delta1, delta3) pairs cycling through a dyadic net.

    The stages carrying each ratio walk the net {0, 1/2^n, ..., 1}^2 in
    row-major order, so in the infinite ideal the pairs assigned to any
    fixed ratio are dense in the unit square at the requested depth.
    """
    spec = PerturbationSpec(net_depth=net_depth)
    net = spec.points()
    ratios = enumerate_ratios(values, j_max)
    counters: dict[Rat, int] = {}
    out: dict[int, tuple[Rat, Rat]] = {}
    for j, c in enumerate(ratios, start=1):
        i = counters.get(c, 0)
        out[j] = net[i % len(net)]
        counters[c] = i + 1
    return out


# --------------------------------------------------------------------------
# the builder


def _assemble_stages(
    base_width: Rat,
    base_height: Rat,
    ratios: Sequence[Rat],
    deltas: Mapping[int, tuple[Rat, Rat]],
    multipliers: Mapping[int, Rat],
    top_rule: TopSpacerRule,
) -> tuple[StageParams, ...]:
    stages: list[StageParams] = []
    h = base_height
    w = base_width
    for j, c in enumerate(ratios, start=1):
        d1, d3 = deltas.get(j, (ZERO, ZERO))
        m = multipliers[j]
        s2 = m * h
        if top_rule.mode == "collide":
            s4 = top_rule.collide_ratio * s2
        else:
            s4 = m * s2
        s = (d1, s2, (c - 1) * h + d3, s4)
        offsets = (ZERO, h + s[0], 2 * h + s[0] + s[1], 3 * h + s[0] + s[1] + s[2])
        stages.append(
            StageParams(
                index=j,
                ratio=c,
                spacers=s,
                delta1=d1,
                delta3=d3,
                height=h,
                width=w,
                offsets=offsets,
                multiplier=m,
            )
        )
        h = 4 * h + s[0] + s[1] + s[2] + s[3]
        w = w / 4
    return tuple(stages)


def build_schedule(
    base_width,
    base_height,
    targets: TargetSets,
    j_max: int,
    policy: StagePolicy | None = None,
    perturbation: PerturbationSpec | None = None,
    certify: bool = True,
) -> Schedule:
    """Build a schedule and certify dissipativity on every covered window.

    For each window [h_j, h_{j+1}] with stage j+2 built and each
    dissipative ratio d already active there, the exact certificate from
    the verification layer must produce an empty witness; otherwise the
    multipliers of every stage feeding the failing certificate are
    escalated and the schedule is rebuilt, up to the policy's retry
    budget.
    """
    base_width = rat(base_width)
    base_height = rat(base_height)
    if base_width <= 0 or base_height <= 0:
        raise ValueError("base width and height must be positive")
    if j_max < 1:
        raise ValueError("need at least one stage")
    policy = policy or StagePolicy()
    if not targets.singular:
        raise EmptyTargets("need at least one singular target ratio")

    ratios = enumerate_ratios(targets.singular, j_max)
    if perturbation is not None:
        deltas = perturbation_schedule(targets.singular, j_max, perturbation.net_depth)
    else:
        deltas = {}

    multipliers = {j: policy.start_multiplier(j) for j in range(1, j_max + 1)}
    escalations: list[EscalationEvent] = []

    from . import levelset  # deferred: levelset needs no construction import

    retries = 0
    while True:
        stages = _assemble_stages(
            base_width, base_height, ratios, deltas, multipliers, policy.top_spacer
        )
        sched = Schedule(
            base_width=base_width,
            base_height=base_height,
            targets=targets,
            policy=policy,
            stages=stages,
            perturbation=perturbation,
            escalations=tuple(escalations),
        )
        if not certify:
            return sched
        failure = None
        for j in sched.certified_windows():
            for d in targets.dissipative:
                if targets.entry_stage(d) > j:
                    continue
                witness = levelset.find_dissipativity_witness(sched, d, j)
                if not witness.is_empty():
                    failure = (j, d, witness)
                    break
            if failure:
                break
        if failure is None:
            return sched
        j_fail, d_fail, witness = failure
        if retries >= policy.max_retries:
            raise EscalationExhausted(j_fail, d_fail, witness, retries)
        # A collision on window j can be driven by the multiplier of any
        # stage whose offsets enter the certificate: that is every stage
        # below the one needed to absorb the dilated window top, so all
        # of those are escalated together.
        y = levelset.base_slab(sched)
        top = levelset.min_valid_stage(y, d_fail * sched.height(j_fail + 1), sched)
        old = multipliers[j_fail]
        bumped = tuple(range(1, min(top, j_max + 1)))
        for s in bumped:
            multipliers[s] = multipliers[s] * policy.escalation_factor
        escalations.append(
            EscalationEvent(
                window=j_fail,
                ratio=d_fail,
                old_multiplier=old,
                new_multiplier=multipliers[j_fail],
                witness=witness,
                escalated_stages=bumped,
            )
        )
        retries += 1
