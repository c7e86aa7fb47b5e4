"""Finite-stage construction of the cutting-and-stacking flow.

A schedule records, for each stage j, the four spacer heights stacked over
the four columns of tower j, the resulting tower height/width, and the
offsets at which the four column copies of tower j sit inside tower j+1.
The builder turns the qualitative growth requirements (middle and top
spacers growing much faster than the tower) into explicit multipliers and
certifies, window by window, that the dissipativity constraint holds for
every active ratio d, escalating the multipliers until it does.
"""

import json
import re
import sys
from fractions import Fraction
from functools import partial
from itertools import accumulate, count
from types import NoneType, UnionType
from typing import Iterable, Sequence, get_args, get_origin

from . import levelset
from .errors import EscalationExhausted, RankOneError
from .exactnum import IntervalSet, Rat, rat, rat_str

ZERO = Fraction(0)
ONE = Fraction(1)


# --------------------------------------------------------------------------
# document fields: the one parser of config and schedule JSON.  A block is
# a ``Block``, read by its ``from_dict`` with each key's reader taken from its
# annotation and written back by ``write_block``.


class Block:
    """A document block.  Its ``doc_keys`` are the names its class body
    annotates, each defaulting to its class attribute if it has one and read
    by its annotation's ``field_reader`` in ``readers``, made with the class.
    A block is made from its keys by name, checks them in ``__post_init__``,
    compares, hashes and prints by them, and cannot be assigned to."""

    def __init_subclass__(cls):
        cls.doc_keys = tuple(cls.__annotations__)
        cls.readers = {key: field_reader(hint) for key, hint in cls.__annotations__.items()}

    @classmethod
    def from_dict(cls, value):
        """The block whose document object has exactly its keys, each read by its reader."""
        return cls(**read_object(value, cls.readers))

    def __init__(self, **values):
        cls = type(self)
        values = {key: getattr(cls, key) for key in cls.doc_keys if hasattr(cls, key)} | values
        if values.keys() != set(cls.doc_keys):
            raise TypeError(f"{cls.__name__} takes {list(cls.doc_keys)}, not {sorted(values)}")
        for key in cls.doc_keys:
            object.__setattr__(self, key, values[key])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self.doc_keys)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.doc_keys)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


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
    """A rational as text, in a document field or a CLI option: only a 'p'
    or 'p/q' string (no decimals, padding or '+'), each number within the
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


EntryStages = tuple[tuple[Rat, int], ...]  # TargetSets' (ratio, first window) pairs


def _read_entry_stages(m) -> EntryStages:
    """Entry stages as an object keyed by ratio, so that '2/1' and '4/2' collide."""
    return tuple((read_rat(r), _at(r, read_int, k)) for r, k in read_object(m).items())


_SCALAR_READERS = {Rat: read_rat, int: read_int, IntervalSet: read_interval_set, str: lambda v: v,
                   EntryStages: _read_entry_stages}


def field_reader(hint):
    """The reader of a document field annotated ``hint``: ``Rat``, ``int``,
    ``IntervalSet``, ``str`` (taken as is; the constructors check it),
    ``EntryStages``, a homogeneous ``tuple`` of one of these (a list), a
    ``Block`` (its ``from_dict``) or ``X | None`` (null or {} read as None).
    Any other annotation is a TypeError."""
    if hint in _SCALAR_READERS:
        return _SCALAR_READERS[hint]
    if type(hint) is type and issubclass(hint, Block):
        return hint.from_dict
    args = get_args(hint)
    if get_origin(hint) is tuple and len(set(args) - {...}) == 1:
        return partial(read_list, item=field_reader(args[0]))
    if get_origin(hint) is UnionType and len(args) == 2 and NoneType in args:
        read = field_reader(args[0] if args[1] is NoneType else args[1])
        return lambda v: None if v is None or v == {} else read(v)
    raise TypeError(f"no document reader for {hint!r}")


def write_block(value):
    """The document form of ``value``, the inverse of ``from_dict``: a
    rational as 'p/q', an interval set as its pairs, a tuple as a list, a
    dict by its values, a block as an object of its keys
    (``TargetSets`` entry stages keyed by ratio)."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, IntervalSet):
        return value.to_pairs()
    if isinstance(value, (tuple, list)):
        return [write_block(v) for v in value]
    if isinstance(value, dict):
        return {k: write_block(v) for k, v in value.items()}
    if not isinstance(value, Block):
        return value
    out = {key: write_block(getattr(value, key)) for key in value.doc_keys}
    if isinstance(value, TargetSets):
        out["entry_stages"] = dict(out["entry_stages"])
    return out


# --------------------------------------------------------------------------
# target ratio sets


class TargetSets(Block):
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
    entry_stages: EntryStages | None = ()

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
        raise ValueError(f"{rat_str(d)} is not a dissipative target of this schedule")


# --------------------------------------------------------------------------
# build policy


class GaugeSpec(Block):
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


class TopSpacerRule(Block):
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


class StagePolicy(Block):
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


class PerturbationSpec(Block):
    """Dyadic net over [0,1]^2 visited cyclically by the stages of each ratio."""

    net_depth: int = 1

    def __post_init__(self):
        if self.net_depth < 1:
            raise ValueError("net depth must be >= 1")

    def point(self, i: int) -> tuple[Rat, Rat]:
        """The i-th net point in row-major order, i taken modulo the net's size."""
        n = 2**self.net_depth
        a, b = divmod(i % (n + 1) ** 2, n + 1)
        return Fraction(a, n), Fraction(b, n)

    def points(self) -> tuple[tuple[Rat, Rat], ...]:
        """The whole net, (2^depth + 1)^2 points, in row-major order."""
        return tuple(map(self.point, range((2**self.net_depth + 1) ** 2)))


# --------------------------------------------------------------------------
# stages and schedules


def _stacking_offsets(h: Rat, s: Sequence[Rat]) -> tuple[Rat, Rat, Rat, Rat]:
    """Base heights of the four copies of a tower of height h stacked with
    spacers s: (0, h+s0, 2h+s0+s1, 3h+s0+s1+s2)."""
    return tuple(accumulate((h + x for x in s[:3]), initial=ZERO))


class StageParams(Block):
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


class EscalationEvent(Block):
    window: int
    ratio: Rat
    old_multiplier: Rat
    new_multiplier: Rat
    witness: IntervalSet
    escalated_stages: tuple[int, ...] = ()


class Schedule(Block):
    """An immutable, fully determined finite-stage construction record.

    Made from a positive base tower and its free choices, one (ratio,
    delta1, delta3, multiplier) per stage.  Construction checks the choices
    (ratio singular, multiplier at least the policy's start, perturbations
    in [0, 1]) and the escalation record, and derives ``stages`` with
    ``_assemble_stages``; no argument sets ``stages`` or ``runtime_cache``.
    """

    base_width: Rat
    base_height: Rat
    targets: TargetSets
    policy: StagePolicy
    perturbation: PerturbationSpec | None
    escalations: tuple[EscalationEvent, ...]
    stages: tuple[StageParams, ...]

    def __init__(self, base_width, base_height, targets, policy, choices,
                 perturbation=None, escalations=()):
        if base_width <= 0 or base_height <= 0:
            raise ValueError("base width and height must be positive")
        stages = _assemble_stages(base_width, base_height, choices, policy, targets.singular)
        if not stages:
            raise ValueError("a schedule needs at least one stage")
        object.__setattr__(self, "choices",
                           tuple((s.ratio, s.delta1, s.delta3, s.multiplier) for s in stages))
        object.__setattr__(self, "runtime_cache", {})
        super().__init__(base_width=base_width, base_height=base_height, targets=targets,
                         policy=policy, perturbation=perturbation, escalations=escalations,
                         stages=stages)
        if len(self.escalations) > self.policy.max_retries:
            raise ValueError(
                f"escalations: {len(self.escalations)} events, more than the "
                f"policy's max_retries {self.policy.max_retries}"
            )
        for i, event in enumerate(self.escalations):
            if why := self._refusal(event):
                raise ValueError(f"escalations[{i}]: {why}")

    def _refusal(self, event: EscalationEvent) -> str:
        """Why ``event`` is no escalation ``build_schedule`` could have made
        on this schedule's windows and policy, or '' if it could."""
        d, j, bumped = event.ratio, event.window, event.escalated_stages
        if d not in self.targets.dissipative:
            return f"ratio {d} is not a dissipative target"
        if j not in self.certified_windows() or j < self.targets.entry_stage(d):
            return f"window {j} is not a certified window at or above the entry stage of {d}"
        built = set(range(1, self.num_stages + 1))
        if j not in bumped or list(bumped) != sorted(built.intersection(bumped)):
            return (
                f"escalated stages {list(bumped)} are not strictly increasing within "
                f"1..{self.num_stages} and holding window {j}"
            )
        factor = self.policy.escalation_factor
        if event.new_multiplier != event.old_multiplier * factor:
            return f"new multiplier is not the old one times the escalation factor {factor}"
        if event.witness.is_empty():
            return "an escalation needs a nonempty witness"
        return ""

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage(self, j: int) -> StageParams:
        if not 1 <= j <= self.num_stages:
            raise RankOneError(f"stage {j} not built (have 1..{self.num_stages})")
        return self.stages[j - 1]

    def height(self, j: int) -> Rat:
        """Height of tower j; j may run one past the last built stage."""
        if j == self.num_stages + 1:
            return self.stages[-1].next_height
        return self.stage(j).height

    def width(self, j: int) -> Rat:
        """Width of tower j, as ``_assemble_stages`` stacked it; j may run
        one past the last built stage, whose four copies stack into it."""
        if not 1 <= j <= self.num_stages + 1:
            raise RankOneError(f"stage {j} not built")
        return self.stages[j - 1].width if j <= self.num_stages else self.stages[-1].width / 4

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
        """The schedule made from the stored stages' free choices; the first
        stored stage and ``_DERIVED`` field that it derives otherwise is refused."""
        args = read_object(d, cls.readers)
        stored = args.pop("stages")
        sched = cls(choices=[(s.ratio, s.delta1, s.delta3, s.multiplier) for s in stored], **args)
        for j, (st, want) in enumerate(zip(stored, sched.stages), start=1):
            for name in _DERIVED:
                if getattr(st, name) != getattr(want, name):
                    raise ValueError(
                        f"stage {j} {name} is not what the stacking recurrence gives "
                        "from its ratio, perturbation and multiplier"
                    )
        return sched

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
    choices: Iterable[tuple[Rat, Rat, Rat, Rat]],
    policy: StagePolicy,
    family: Sequence[Rat],
) -> tuple[StageParams, ...]:
    """The stages whose free choices are ``choices``, one (ratio, delta1,
    delta3, multiplier) per stage, by the stacking recurrence: the one
    place (``Schedule``'s construction) that derives a stage's spacers,
    offsets, height and width.  Each choice is checked as its stage is
    made (ratio in the singular ``family``, multiplier at least the
    policy's start, perturbations in [0, 1]), and a stage with a negative
    spacer, or with a number past the interpreter's digit limit, is
    refused: a refusal costs the stages up to it, however many follow."""
    bound = 10**limit if (limit := int_digit_limit()) else 0
    stages: list[StageParams] = []
    h = base_height
    w = base_width
    for j, (c, d1, d3, m) in enumerate(choices, start=1):
        if c not in family:
            raise ValueError(f"stage {j} ratio {c} not in the singular family")
        if m < policy.start_multiplier(j):
            raise ValueError(f"stage {j} multiplier is below the policy's start")
        if not (ZERO <= d1 <= ONE and ZERO <= d3 <= ONE):
            raise ValueError(f"stage {j} perturbations must lie in [0, 1]")
        s2 = m * h
        s = (d1, s2, (c - 1) * h + d3, policy.top_spacer.top(m, s2))
        if any(x < 0 for x in s):
            raise ValueError(f"stage {j} spacer heights must be non-negative")
        offsets = _stacking_offsets(h, s)
        nums = (h, w, m, *s, *offsets)
        if bound and any(max(abs(x.numerator), x.denominator) >= bound for x in nums):
            raise ValueError(f"stage {j} has {_past_limit(limit)}")
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
    carrying a ratio takes the net point ``perturbation.point(i)``, so the
    stages of each ratio walk the net in row-major order.  A stage with a
    number past the interpreter's digit limit is a ValueError, raised as
    the stages are assembled.
    """
    base_width = rat(base_width)
    base_height = rat(base_height)
    if j_max < 1:
        raise ValueError("need at least one stage")
    policy = policy or StagePolicy()
    net = perturbation.point if perturbation is not None else lambda i: (ZERO, ZERO)
    visits = {c: count() for c in targets.singular}
    free = ((c, *net(next(visits[c]))) for c in enumerate_ratios(targets.singular, j_max))
    # made as the first attempt assembles its stages, so a stage past the
    # digit limit is refused before any later stage's multiplier is computed
    choices = ((*f, policy.start_multiplier(j)) for j, f in enumerate(free, start=1))
    escalations: list[EscalationEvent] = []

    while True:
        sched = Schedule(
            base_width=base_width,
            base_height=base_height,
            targets=targets,
            policy=policy,
            choices=choices,
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
        if len(escalations) >= policy.max_retries:
            raise EscalationExhausted(j_fail, d_fail, witness, len(escalations))
        # A collision on window j can be driven by the multiplier of any
        # stage whose offsets enter the certificate: that is every stage
        # below the one needed to absorb the dilated window top, so all
        # of those are escalated together.
        y = levelset.base_slab(sched)
        top = levelset.min_valid_stage(y, d_fail * sched.height(j_fail + 1), sched)
        bumped = tuple(range(1, min(top, j_max + 1)))
        choices = [(c, d1, d3, m * policy.escalation_factor if s in bumped else m)
                   for s, (c, d1, d3, m) in enumerate(sched.choices, start=1)]
        escalations.append(
            EscalationEvent(
                window=j_fail,
                ratio=d_fail,
                old_multiplier=sched.choices[j_fail - 1][3],
                new_multiplier=choices[j_fail - 1][3],
                witness=witness,
                escalated_stages=bumped,
            )
        )
