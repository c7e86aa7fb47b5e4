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
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from types import NoneType, UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

from . import levelset
from .errors import EscalationExhausted, StageOutOfRange
from .exactnum import IntervalSet, Rat, rat, rat_str

ZERO = Fraction(0)
ONE = Fraction(1)


# --------------------------------------------------------------------------
# document fields: the one parser of config and schedule JSON.  A block is
# a dataclass, read by ``read_block`` with each field's reader taken from
# its annotation and written back by ``write_block``.

_FRACTION = re.compile(r"-?\d+(/0*[1-9]\d*)?")


def read_int(value) -> int:
    """An integer field: an int proper, not a bool, float or string."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def read_bool(value) -> bool:
    """A boolean field: true or false, not an integer or string."""
    if type(value) is not bool:
        raise TypeError(f"expected true or false, got {value!r}")
    return value


# CPython (3.10.7+) converts no int of more digits than this to text or back
int_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def read_rat(value) -> Rat:
    """A rational field of a document: only a 'p' or 'p/q' string (``rat``
    also takes ints, decimals and padding), each number within the
    interpreter's digit limit."""
    if not isinstance(value, str) or not _FRACTION.fullmatch(value):
        raise ValueError(f"expected a 'p/q' string, got {value!r}")
    if why := _too_long(*value.lstrip("-").split("/")):
        raise ValueError(why)
    return Fraction(value)


def _too_long(*digits: str) -> str:
    """Why a number of these digit strings is refused, or '' if none is."""
    limit = int_digit_limit()
    return _past_limit(limit) if limit and max(map(len, digits)) > limit else ""


def _past_limit(limit: int) -> str:
    return f"a number of more than {limit} digits, which no schedule document holds"


def _at(key, read, value):
    """``read(value)``, its error's message prefixed with the field path; a
    value that read_json refused is its error, raised here with its path."""
    try:
        if isinstance(value, ValueError):
            raise value
        return read(value)
    except (TypeError, ValueError) as exc:
        path, msg = getattr(exc, "field_path", ("", str(exc)))
        path = (f"[{key}]" if type(key) is int else f".{key}") + path
        exc.field_path = (path, msg)
        exc.args = (f"{path.removeprefix('.')}: {msg}",)
        raise


def read_list(value, item=read_rat) -> tuple:
    """A list field of a document, each entry read by ``item``."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(_at(i, item, v) for i, v in enumerate(value))


def read_interval_set(value) -> IntervalSet:
    """An interval set as ``to_pairs`` writes it: canonical [lo, hi) pairs."""
    pairs = read_list(value, read_list)
    if (out := IntervalSet(pairs)).intervals != pairs:
        raise ValueError(f"expected ascending, disjoint [lo, hi) pairs, got {value!r}")
    return out


def read_object(value, readers=None) -> dict:
    """An object of a document; given ``readers``, with exactly their keys,
    each value read by its reader."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    if readers is None:
        return value
    if value.keys() != readers.keys():
        unknown = sorted(value.keys() - readers.keys())
        missing = sorted(readers.keys() - value.keys())
        raise ValueError(
            f"unknown keys {unknown}" if unknown else f"missing keys {missing}"
        )
    return {k: _at(k, read, value[k]) for k, read in readers.items()}


def _unique_keys(pairs: list) -> dict:
    out: dict = {}
    for key, value in pairs:
        out[key] = ValueError(f"repeated key {key!r}") if key in out else value
    return out


def _parse_int(text: str):
    return ValueError(why) if (why := _too_long(text.lstrip("-"))) else int(text)


def read_json(text: str):
    """A JSON document; the second value of a key that an object repeats, and
    an integer past the digit limit, become the ValueError that the field
    readers raise with their path."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_int=_parse_int)


_SCALAR_READERS = {Rat: read_rat, int: read_int, IntervalSet: read_interval_set, str: lambda v: v}


def field_reader(hint):
    """The reader of a document field annotated ``hint``: ``Rat``, ``int``,
    ``IntervalSet``, ``str`` (taken as is; the constructors check it), a
    homogeneous ``tuple`` of one of these (a list), a dataclass (its block,
    through its ``from_dict`` if it has one) or ``X | None`` (null or {}
    read as None).  Any other annotation is a TypeError."""
    if hint in _SCALAR_READERS:
        return _SCALAR_READERS[hint]
    if is_dataclass(hint):
        return getattr(hint, "from_dict", None) or partial(read_block, hint)
    args = get_args(hint)
    if get_origin(hint) is tuple and len(set(args) - {...}) == 1:
        return partial(read_list, item=field_reader(args[0]))
    if get_origin(hint) is UnionType and len(args) == 2 and NoneType in args:
        read = field_reader(args[0] if args[1] is NoneType else args[1])
        return lambda v: None if v is None or v == {} else read(v)
    raise TypeError(f"no document reader for {hint!r}")


@cache
def _block_readers(cls, **readers) -> dict:
    hints = get_type_hints(cls)
    keys = [f.name for f in fields(cls) if f.compare]
    return {k: readers.get(k) or field_reader(hints[k]) for k in keys}


def read_block(cls, value, **readers):
    """Dataclass ``cls`` from a document object whose keys are exactly its
    compared fields, each read by ``readers[name]`` or else by the
    ``field_reader`` of its annotation.  The table is cached per class and
    ``readers``, so these must be module-level functions, not lambdas."""
    return cls(**read_object(value, _block_readers(cls, **readers)))


def write_block(value):
    """The document form of ``value``, the inverse of ``read_block``: a
    rational as 'p/q', an interval set as its pairs, a tuple as a list, a
    dataclass as an object of its compared fields (``TargetSets`` entry
    stages keyed by ratio)."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, IntervalSet):
        return value.to_pairs()
    if isinstance(value, (tuple, list)):
        return [write_block(v) for v in value]
    if not is_dataclass(value):
        return value
    out = {
        f.name: write_block(getattr(value, f.name)) for f in fields(value) if f.compare
    }
    if isinstance(value, TargetSets):
        out["entry_stages"] = dict(out["entry_stages"])
    return out


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
        if not singular:
            raise ValueError("need at least one singular target ratio")
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
            entries = tuple((rat(d), read_int(k)) for d, k in self.entry_stages)
            known = {d for d, _ in entries}
            if known != set(dissipative):
                raise ValueError("entry_stages must cover exactly the dissipative family")
            if len(known) != len(entries):
                raise ValueError("duplicate ratios in entry_stages")
            for d, k in entries:
                if k < 1:
                    raise ValueError(f"entry stage for d={d} must be >= 1")
        object.__setattr__(self, "entry_stages", entries)

    def entry_stage(self, d) -> int:
        d = rat(d)
        for dd, k in self.entry_stages:
            if dd == d:
                return k
        raise ValueError(f"{d} is not a dissipative target of this schedule")

    @classmethod
    def from_dict(cls, d: dict) -> "TargetSets":
        """Parse a ``targets`` block; null or {} entry stages take their defaults."""
        return read_block(cls, d, entry_stages=_read_entry_stages)


def _read_entry_stages(m) -> tuple:
    """Entry stages as an object keyed by ratio, so that '2/1' and '4/2' collide."""
    if m is None:
        return ()
    return tuple((read_rat(r), _at(r, read_int, k)) for r, k in read_object(m).items())


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
            if self.floor != 16:
                raise ValueError("a table gauge reads no floor, so it must stay 16/1")
        elif self.values:
            raise ValueError(f"only a table gauge reads values, not kind {self.kind!r}")

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
        if self.mode == "multiplier" and self.collide_ratio != 2:
            raise ValueError("mode 'multiplier' reads no collide_ratio, so it must stay 2/1")

    def top(self, m: Rat, s2: Rat) -> Rat:
        """The top spacer over middle spacer s2 of a stage with multiplier m."""
        return (self.collide_ratio if self.mode == "collide" else m) * s2


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
        if self.max_retries < 0:
            raise ValueError("max retries must be >= 0")

    def start_multiplier(self, j: int) -> Rat:
        return self.gauge.value(j) * self.initial_multiplier


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


# --------------------------------------------------------------------------
# stages and schedules


def _stacking_offsets(h: Rat, s: Sequence[Rat]) -> tuple[Rat, Rat, Rat, Rat]:
    """Base heights of the four copies of a tower of height h stacked with
    spacers s: (0, h+s0, 2h+s0+s1, 3h+s0+s1+s2)."""
    return tuple(accumulate((h + x for x in s[:3]), initial=ZERO))


@dataclass(frozen=True)
class StageParams:
    """Everything stage j contributes: spacers, height, width, offsets.

    offsets[i] is the base height of column copy i+1 of tower j inside
    tower j+1.  Only ratio, delta1, delta3 and multiplier are free; the
    other fields are what ``_assemble_stages`` derives from them.
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

    @property
    def next_height(self) -> Rat:
        return self.offsets[3] + self.height + self.spacers[3]


# the fields _assemble_stages derives, in the order a mismatch is reported
_DERIVED = ("index", "height", "width", "spacers", "offsets")


@dataclass(frozen=True)
class EscalationEvent:
    window: int
    ratio: Rat
    old_multiplier: Rat
    new_multiplier: Rat
    witness: IntervalSet
    escalated_stages: tuple[int, ...] = ()


@dataclass(frozen=True)
class Schedule:
    """An immutable, fully determined finite-stage construction record.

    Construction checks each stage's free choices (its ratio is in the
    singular family, its multiplier at least the policy's start, its
    perturbations in [0, 1]) and then that every other field is what
    ``_assemble_stages`` derives from them, so a deserialized schedule is
    guaranteed to describe an actual stacking flow.
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
        allowed = set(self.targets.singular)
        for j, st in enumerate(self.stages, start=1):
            if st.ratio not in allowed:
                raise ValueError(f"stage {j} ratio {st.ratio} not in the singular family")
            if st.multiplier < self.policy.start_multiplier(j):
                raise ValueError(f"stage {j} multiplier is below the policy's start")
            if not (ZERO <= st.delta1 <= ONE and ZERO <= st.delta3 <= ONE):
                raise ValueError(f"stage {j} perturbations must lie in [0, 1]")
        choices = [(st.ratio, st.delta1, st.delta3, st.multiplier) for st in self.stages]
        rebuilt = _assemble_stages(
            self.base_width, self.base_height, choices, self.policy.top_spacer, 0
        )
        for j, (st, want) in enumerate(zip(self.stages, rebuilt), start=1):
            for name in _DERIVED:
                if getattr(st, name) != getattr(want, name):
                    raise ValueError(
                        f"stage {j} {name} is not what the stacking recurrence gives "
                        "from its ratio, perturbation and multiplier"
                    )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

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

    def certified_windows(self) -> list[int]:
        """The windows [h_j, h_{j+1}] with stage j+2 built; as stages j, the
        ones the weak and perturbed limits are checked at.  A dissipative
        ratio's certificate covers those that ``windows_for`` returns."""
        return list(range(1, self.num_stages - 1))

    def windows_for(self, d) -> list[int]:
        """The windows the d-certificate covers: the certified windows at or
        above d's entry stage whose dilated top d*h_{j+1} the built towers
        absorb, which the witness search needs."""
        d = rat(d)
        k = self.targets.entry_stage(d)
        windows = [j for j in self.certified_windows() if j >= k]
        reach = levelset.horizon(self)
        # heights grow with j, so the absorbed windows are a prefix
        while windows and d * self.height(windows[-1] + 1) > reach:
            windows.pop()
        return windows

    def dissipativity_threshold(self, d) -> Rat:
        """Times above this height are covered by the d-certificate."""
        return self.height(self.targets.entry_stage(d))

    def delta_pair(self, j: int) -> tuple[Rat, Rat]:
        st = self.stage(j)
        return st.delta1, st.delta3

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return write_block(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        return read_block(cls, d)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(read_json(text))


# --------------------------------------------------------------------------
# ratio enumeration


def enumerate_ratios(values: Sequence[Rat], j_max: int) -> tuple[Rat, ...]:
    """Assign a target ratio to each stage by a diagonal sweep.

    Blocks of growing prefixes of the family are chained:
    v1; v1,v2; v1,v2,v3; ... so every entry recurs unboundedly often in
    the infinite ideal.  Truncated to j_max entries.
    """
    vals = tuple(rat(v) for v in values)
    if not vals:
        raise ValueError("need at least one singular target ratio")
    out: list[Rat] = []
    block = 1
    while len(out) < j_max:
        out.extend(vals[: min(block, len(vals))])
        block += 1
    return tuple(out[:j_max])


# --------------------------------------------------------------------------
# the builder


def _assemble_stages(
    base_width: Rat,
    base_height: Rat,
    choices: Sequence[tuple[Rat, Rat, Rat, Rat]],
    top_rule: TopSpacerRule,
    bound: int,
) -> tuple[StageParams, ...]:
    """The stages whose free choices are ``choices``, one (ratio, delta1,
    delta3, multiplier) per stage, by the stacking recurrence: the one
    place a stage's spacers, offsets, height and width are derived.  A
    stage with a negative spacer, or with a height, width, multiplier,
    spacer or offset of ``bound`` or more in numerator or denominator, is
    refused (``bound`` 0: none is)."""
    stages: list[StageParams] = []
    h = base_height
    w = base_width
    for j, (c, d1, d3, m) in enumerate(choices, start=1):
        s2 = m * h
        s = (d1, s2, (c - 1) * h + d3, top_rule.top(m, s2))
        if any(x < 0 for x in s):
            raise ValueError(f"stage {j} spacer heights must be non-negative")
        offsets = _stacking_offsets(h, s)
        nums = (h, w, m, *s, *offsets)
        if bound and any(max(abs(x.numerator), x.denominator) >= bound for x in nums):
            raise ValueError(f"stage {j} has {_past_limit(int_digit_limit())}")
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
        h = stages[-1].next_height
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

    For each dissipative ratio d and each window [h_j, h_{j+1}] of
    ``Schedule.windows_for(d)``, the exact witness search must find the
    witness empty; otherwise the multipliers of every stage feeding the
    first failing window (in window order, then family order) are
    escalated, and every stage is reassembled and every window
    re-certified, up to the policy's retry budget.  The i-th stage
    carrying a ratio takes the net point net[i % len(net)], so the stages
    of each ratio walk the net in row-major order.  A stage with a number
    past the interpreter's digit limit is a ValueError, raised as the
    stages are assembled.
    """
    base_width = rat(base_width)
    base_height = rat(base_height)
    if base_width <= 0 or base_height <= 0:
        raise ValueError("base width and height must be positive")
    if j_max < 1:
        raise ValueError("need at least one stage")
    policy = policy or StagePolicy()
    ratios = enumerate_ratios(targets.singular, j_max)
    net = perturbation.points() if perturbation is not None else ((ZERO, ZERO),)
    free = [(c, *net[ratios[:i].count(c) % len(net)]) for i, c in enumerate(ratios)]
    limit = int_digit_limit()
    bound = 10**limit if limit else 0

    multipliers = {j: policy.start_multiplier(j) for j in range(1, j_max + 1)}
    escalations: list[EscalationEvent] = []

    retries = 0
    while True:
        choices = [(*f, multipliers[j]) for j, f in enumerate(free, start=1)]
        stages = _assemble_stages(base_width, base_height, choices, policy.top_spacer, bound)
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
        checks = sorted(
            (j, i, d) for i, d in enumerate(targets.dissipative) for j in sched.windows_for(d)
        )
        for j_fail, _, d_fail in checks:
            witness = levelset.find_dissipativity_witness(sched, d_fail, j_fail)
            if not witness.is_empty():
                break
        else:
            return sched
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
