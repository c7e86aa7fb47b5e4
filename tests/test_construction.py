import hashlib
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from collections.abc import Hashable
from fractions import Fraction as F
from typing import get_args

import pytest

import rankone
from rankone.construction import (
    Block,
    EscalationEvent,
    GaugeSpec,
    PerturbationSpec,
    Schedule,
    StageParams,
    StagePolicy,
    TargetSets,
    TopSpacerRule,
    build_schedule,
    enumerate_ratios,
    field_reader,
    read_json,
    write_block,
)
from rankone.errors import EscalationExhausted, RankOneError
from rankone.exactnum import IntervalSet, rat_str
from rankone.levelset import base_slab, correlation

from conftest import src_env


class TestTargetSets:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            TargetSets(singular=(F(3, 2), F(2)), dissipative=(F(2),))

    def test_rejects_at_most_one(self):
        with pytest.raises(ValueError):
            TargetSets(singular=(F(1),))
        with pytest.raises(ValueError):
            TargetSets(singular=(F(3, 2),), dissipative=(F(1, 2),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TargetSets(singular=(F(3, 2), F(3, 2)))

    def test_default_entry_stages(self):
        t = TargetSets(singular=(F(3, 2),), dissipative=(F(2), F(3)))
        assert t.entry_stage(F(2)) == 2
        assert t.entry_stage(F(3)) == 3

    def test_explicit_entry_stages(self):
        t = TargetSets(
            singular=(F(3, 2),),
            dissipative=(F(2),),
            entry_stages=((F(2), 4),),
        )
        assert t.entry_stage(F(2)) == 4


class TestEnumerateRatios:
    def test_two_ratios_five_stages(self):
        got = enumerate_ratios((F(3, 2), F(5, 2)), 5)
        assert got == (F(3, 2), F(3, 2), F(5, 2), F(3, 2), F(5, 2))

    def test_single_ratio(self):
        assert enumerate_ratios((F(2),), 3) == (F(2), F(2), F(2))

    def test_three_ratios_six_stages(self):
        got = enumerate_ratios((F(3, 2), F(5, 2), F(7, 2)), 6)
        assert got == (F(3, 2), F(3, 2), F(5, 2), F(3, 2), F(5, 2), F(7, 2))

    def test_every_prefix_entry_recurs(self):
        # entry i (1-based) has appeared twice once i(i+3)/2 stages exist
        vals = tuple(F(k + 2) / 1 for k in range(4))
        for i in range(1, 5):
            j_max = i * (i + 3) // 2
            got = enumerate_ratios(vals, j_max)
            assert got.count(vals[i - 1]) >= 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="need at least one singular target ratio"):
            enumerate_ratios((), 3)


class TestBuildExample:
    def test_two_stage_gauge_ten(self, tiny):
        st = tiny.stage(1)
        assert st.spacers == (F(0), F(10), F(1, 2), F(100))
        assert tiny.height(2) == F(229, 2)
        assert st.offsets == (F(0), F(1), F(12), F(27, 2))

    def test_no_certified_windows(self, tiny):
        assert tiny.certified_windows() == []


class TestScheduleInvariants:
    def test_height_recurrence(self, desk):
        for j in range(1, desk.num_stages):
            st = desk.stage(j)
            assert desk.height(j + 1) == 4 * st.height + sum(st.spacers)

    def test_offset_recurrence(self, desk):
        for j in range(1, desk.num_stages + 1):
            st = desk.stage(j)
            h, s = st.height, st.spacers
            assert st.offsets[0] == 0
            assert st.offsets[1] == h + s[0]
            assert st.offsets[2] == 2 * h + s[0] + s[1]
            assert st.offsets[3] == 3 * h + s[0] + s[1] + s[2]
            assert st.offsets[3] + h + s[3] == desk.height(j + 1)

    def test_width_rule(self, desk):
        for j in range(1, desk.num_stages + 1):
            assert desk.width(j) == F(4) ** (1 - j)

    def test_unbuilt_stage_refused(self, desk):
        assert desk.width(desk.num_stages + 1) == F(4) ** -desk.num_stages
        with pytest.raises(RankOneError, match="^stage 0 not built \\(have 1..8\\)$"):
            desk.stage(0)
        with pytest.raises(RankOneError, match="^stage 10 not built$"):
            desk.width(desk.num_stages + 2)

    def test_spacer_formulas(self, desk):
        for j in range(1, desk.num_stages + 1):
            st = desk.stage(j)
            assert st.spacers[0] == st.delta1 == 0
            assert st.spacers[2] == (st.ratio - 1) * st.height

    def test_gauge_growth(self, desk):
        g = desk.policy.gauge
        for j in range(1, desk.num_stages + 1):
            st = desk.stage(j)
            assert st.spacers[1] / st.height >= g.value(j)
            assert st.spacers[3] / st.spacers[1] >= g.value(j)

    @pytest.mark.parametrize("kind", ["pow2", "constant"])
    def test_gauge_values_need_a_table(self, kind):
        assert GaugeSpec(kind=kind, values=()).values == ()
        with pytest.raises(ValueError, match="only a table gauge reads values"):
            GaugeSpec(kind=kind, values=(F(2),))

    def test_tower_measure_growth(self, desk):
        # mu(X_{j+1}) = mu(X_j) + w_{j+1} * sum(spacers); unbounded on the prefix
        measure = [desk.width(j) * desk.height(j) for j in range(1, desk.num_stages + 1)]
        for j in range(1, desk.num_stages):
            st = desk.stage(j)
            assert measure[j] == measure[j - 1] + desk.width(j + 1) * sum(st.spacers)
        assert measure[-1] > 2**desk.num_stages

    def test_ratio_trace_matches_enumeration(self, desk):
        assert tuple(st.ratio for st in desk.stages) == enumerate_ratios(
            (F(3, 2), F(5, 2)), 8
        )


class TestDeterminismAndSerialization:
    def test_tampered_schedule_rejected(self, desk):
        d = desk.to_dict()
        # an internally consistent stage whose height breaks the chain
        h, c, m = F(999), F(5, 2), F(16)
        sp = (F(0), m * h, (c - 1) * h, m * m * h)
        off = (F(0), h + sp[0], 2 * h + sp[0] + sp[1], 3 * h + sp[0] + sp[1] + sp[2])
        st = d["stages"][2]
        st["height"] = rat_str(h)
        st["spacers"] = [rat_str(x) for x in sp]
        st["offsets"] = [rat_str(x) for x in off]
        st["multiplier"] = rat_str(m)
        with pytest.raises(ValueError, match="stacking recurrence"):
            Schedule.from_dict(d)

    def test_multiplier_below_policy_start_rejected(self, desk):
        d = desk.to_dict()
        # the last stage, consistent in itself, with half the gauge's multiplier
        st = d["stages"][-1]
        j, h, c = st["index"], F(st["height"]), F(st["ratio"])
        m = desk.policy.start_multiplier(j) / 2
        sp = (F(0), m * h, (c - 1) * h, m * m * h)
        off = (F(0), h + sp[0], 2 * h + sp[0] + sp[1], 3 * h + sp[0] + sp[1] + sp[2])
        st["spacers"] = [rat_str(x) for x in sp]
        st["offsets"] = [rat_str(x) for x in off]
        st["multiplier"] = rat_str(m)
        with pytest.raises(ValueError, match=f"stage {j} multiplier is below the policy's start"):
            Schedule.from_dict(d)

    @pytest.mark.parametrize(
        "name, i",
        [("index", None), ("height", None), ("width", None)]
        + [("spacers", i) for i in range(4)]
        + [("offsets", i) for i in range(4)],
    )
    def test_derived_field_off_by_one_rejected(self, desk, name, i):
        d = desk.to_dict()
        st = d["stages"][2]
        if name == "index":
            st[name] += 1
        elif i is None:
            st[name] = rat_str(F(st[name]) + 1)
        else:
            st[name][i] = rat_str(F(st[name][i]) + 1)
        with pytest.raises(ValueError, match=f"^stage 3 {name} is not what the stacking "
                                             "recurrence gives"):
            Schedule.from_dict(d)

    def test_negative_spacer_refused(self, desk):
        # a top-spacer rule that the recurrence turns into a negative spacer
        d = desk.to_dict()
        d["policy"]["top_spacer"] = {"mode": "collide", "collide_ratio": "-2/1"}
        with pytest.raises(ValueError, match="^stage 1 spacer heights must be non-negative"):
            Schedule.from_dict(d)

    def test_any_consistent_choices_load(self, desk):
        # neither the diagonal ratio order nor the net walk of build_schedule
        m = [desk.policy.start_multiplier(j) * 3 for j in range(1, 6)]
        choices = [(F(5, 2), F(1, 3), F(1), m[0]), (F(5, 2), F(0), F(2, 7), m[1]),
                   (F(3, 2), F(1), F(1, 3), m[2]), (F(5, 2), F(1, 2), F(0), m[3]),
                   (F(3, 2), F(0), F(0), m[4])]
        sched = _replace(desk, base_width=F(3), base_height=F(1, 2), choices=choices,
                         escalations=())
        back = Schedule.from_json(sched.to_json())
        assert back == sched
        assert back.to_json() == sched.to_json()
        assert [(st.ratio, st.delta1, st.delta3, st.multiplier)
                for st in back.stages] == choices

    def test_replace_derives_a_fresh_schedule(self, desk):
        # a schedule made by replacing the choices of one whose lattice is
        # cached correlates as a fresh load of its own document does
        y = base_slab(desk)
        times = [desk.height(j) + F(1, 3) for j in range(1, 5)]
        assert [correlation(y, y, t, desk) for t in times]
        assert list(desk.runtime_cache) == ["lattice"]
        doubled = _replace(desk, choices=[(c, d1, d3, 2 * m) for c, d1, d3, m in desk.choices])
        assert doubled.runtime_cache == {}
        fresh = Schedule.from_json(doubled.to_json())
        assert fresh == doubled
        for t in times:
            assert correlation(y, y, t, doubled) == correlation(y, y, t, fresh)
        assert correlation(y, y, doubled.height(3) + F(1, 3), doubled) == F(3, 16)

    def test_rebuild_identical(self, desk):
        again = build_schedule(
            1, 1, TargetSets(singular=(F(3, 2), F(5, 2)), dissipative=(F(2), F(3))), 8
        )
        assert again == desk
        assert again.to_json() == desk.to_json()

    def test_json_round_trip(self, desk_perturbed):
        back = Schedule.from_json(desk_perturbed.to_json())
        assert back == desk_perturbed
        assert back.to_json() == desk_perturbed.to_json()


class TestPerturbationSchedule:
    def test_net_points_depth_one(self):
        pts = PerturbationSpec(net_depth=1).points()
        assert len(pts) == 9
        assert pts[:4] == ((F(0), F(0)), (F(0), F(1, 2)), (F(0), F(1)), (F(1, 2), F(0)))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_point_rule_walks_the_net_row_major(self, depth):
        spec = PerturbationSpec(net_depth=depth)
        n = 2**depth
        net = [(F(a, n), F(b, n)) for a in range(n + 1) for b in range(n + 1)]
        assert [spec.point(i) for i in range(2 * len(net))] == net + net
        assert list(spec.points()) == net

    def test_build_never_builds_the_whole_net(self, desk_perturbed, monkeypatch):
        def whole_net(spec):
            raise AssertionError("the builder built the whole net")

        monkeypatch.setattr(PerturbationSpec, "points", whole_net)
        again = build_schedule(
            1, 1, desk_perturbed.targets, 8, perturbation=PerturbationSpec(net_depth=1)
        )
        assert again.to_json() == desk_perturbed.to_json()

    def test_base_mode_all_zero(self, desk):
        for j in range(1, desk.num_stages + 1):
            assert desk.delta_pair(j) == (0, 0)

    def test_row_major_assignment_per_ratio(self):
        # 3/2 carries stages 1, 2, 4, ..., 20: its 10th visit is stage 18
        sched = build_schedule(
            1, 1, TargetSets(singular=(F(3, 2), F(5, 2))), 20,
            perturbation=PerturbationSpec(net_depth=1), certify=False,
        )
        net = list(PerturbationSpec(net_depth=1).points())
        walk = {c: [sched.delta_pair(st.index) for st in sched.stages if st.ratio == c]
                for c in (F(3, 2), F(5, 2))}
        assert walk[F(3, 2)][:9] == net
        assert walk[F(3, 2)][9] == (F(0), F(0))
        assert walk[F(5, 2)] == net[: len(walk[F(5, 2)])]

    def test_deltas_land_in_stages(self, desk_perturbed):
        for j in range(1, desk_perturbed.num_stages + 1):
            st = desk_perturbed.stage(j)
            assert st.spacers[0] == st.delta1
            assert st.spacers[2] == (st.ratio - 1) * st.height + st.delta3
            assert 0 <= st.delta1 <= 1 and 0 <= st.delta3 <= 1


class TestDigitLimit:
    @pytest.mark.parametrize("certify", [True, False])
    def test_stage_past_digit_limit_refused(self, certify):
        # the spacers of stage 119 have 4,303 digits, past CPython's default 4300
        targets = TargetSets(singular=(F(3, 2), F(5, 2)), dissipative=(F(2), F(3)))
        with pytest.raises(ValueError, match="^stage 119 has a number of more than 4300 digits"):
            build_schedule(1, 1, targets, 120, certify=certify)


class TestEscalation:
    def test_impossible_entry_exhausts(self):
        targets = TargetSets(
            singular=(F(3, 2), F(5, 2)),
            dissipative=(F(2),),
            entry_stages=((F(2), 1),),
        )
        with pytest.raises(EscalationExhausted) as exc:
            build_schedule(1, 1, targets, 6, policy=StagePolicy(max_retries=2))
        assert exc.value.stage == 1
        assert not exc.value.witness.is_empty()

    def test_low_gauge_escalates_then_passes(self):
        # a tiny starting gauge forces at least one escalation before passing
        targets = TargetSets(singular=(F(3, 2), F(5, 2)), dissipative=(F(2), F(3)))
        policy = StagePolicy(gauge=GaugeSpec(kind="table", values=(F(2),) * 8))
        sched = build_schedule(1, 1, targets, 6, policy=policy)
        assert sched.num_stages == 6
        # rebuilt deterministically
        again = build_schedule(1, 1, targets, 6, policy=policy)
        assert again == sched
        # the escalations, witnesses included, round-trip through the document
        assert len(sched.escalations) == 3
        assert Schedule.from_json(sched.to_json()) == sched
        digest = hashlib.sha256(sched.to_json().encode()).hexdigest()
        assert digest == (
            "4d38d9dcd8cb9a896a6bdc577619b7015063a7e7d9f43b468470e2eebf6936a6"
        )


def _replace(sched: Schedule, **changes) -> Schedule:
    """``sched`` made again from its constructor's arguments, ``changes`` applied."""
    params = inspect.signature(Schedule).parameters
    return Schedule(**{name: getattr(sched, name) for name in params} | changes)


def _blocks_in(hint) -> list:
    """The blocks an annotation names, at any depth."""
    if type(hint) is type and issubclass(hint, Block):
        return [hint]
    return [cls for arg in get_args(hint) for cls in _blocks_in(arg)]


def _document_blocks() -> list:
    """Every block a schedule document reaches, Schedule first."""
    blocks, todo = [], [Schedule]
    while todo:
        cls = todo.pop()
        if cls not in blocks:
            blocks.append(cls)
            todo += [b for hint in cls.__annotations__.values() for b in _blocks_in(hint)]
    return blocks


def _sample_blocks() -> list:
    """One non-default instance of each document block."""
    gauge = GaugeSpec(kind="table", values=(F(2), F(4)))
    top = TopSpacerRule(mode="collide", collide_ratio=F(3))
    policy = StagePolicy(gauge=gauge, initial_multiplier=F(3, 2), escalation_factor=F(3),
                         max_retries=7, top_spacer=top)
    net = PerturbationSpec(net_depth=2)
    targets = TargetSets(singular=(F(3, 2), F(5, 2)), dissipative=(F(2), F(3)),
                         entry_stages=((F(2), 3), (F(3), 5)))
    # window 3 is certified on five stages and is 2's entry stage; 16 * 3 = 48
    event = EscalationEvent(window=3, ratio=F(2), old_multiplier=F(16), new_multiplier=F(48),
                            witness=IntervalSet([(F(5, 2), F(3)), (F(5), F(6))]),
                            escalated_stages=(1, 2, 3))
    sched = build_schedule(1, 1, targets, 5, policy=policy, perturbation=net, certify=False)
    sched = _replace(sched, escalations=(event,))
    return [gauge, top, policy, net, targets, event, sched.stages[1], sched]


def _all_blocks() -> set:
    """Every block class the package defines."""
    modules = [importlib.import_module(f"rankone.{info.name}")
               for info in pkgutil.iter_modules(rankone.__path__)]
    return {cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, Block) and cls is not Block}


def test_mutable_defaults_are_not_arguments(desk):
    # a mutable default taken by a constructor would be shared by two
    # instances: every default a block takes, as a class attribute of a key
    # or as a constructor parameter, hashes, and the one mutable attribute,
    # the schedule's runtime cache, is made by each schedule for itself
    blocks = _all_blocks()
    assert blocks == set(_document_blocks())
    for cls in blocks:
        defaults = [getattr(cls, key) for key in cls.doc_keys if hasattr(cls, key)]
        defaults += [p.default for p in inspect.signature(cls).parameters.values()
                     if p.default is not p.empty]
        for value in defaults:
            assert isinstance(value, Hashable) and hash(value) is not None, (cls, value)
    assert "runtime_cache" not in inspect.signature(Schedule).parameters
    assert _replace(desk).runtime_cache is not _replace(desk).runtime_cache


class TestBlock:
    @pytest.mark.parametrize("block", _sample_blocks(), ids=lambda b: type(b).__name__)
    def test_frozen(self, block):
        doc = write_block(block)
        for name in (*block.doc_keys, "runtime_cache", "other"):
            with pytest.raises(AttributeError):
                setattr(block, name, None)
            with pytest.raises(AttributeError):
                delattr(block, name)
        assert write_block(block) == doc

    def test_made_from_its_keys_by_name(self):
        assert GaugeSpec() == GaugeSpec(kind="pow2", floor=F(16), values=())
        with pytest.raises(TypeError, match=r"^GaugeSpec takes \['kind', 'floor', 'values'\], "
                                            r"not \['floor', 'kind', 'other', 'values'\]$"):
            GaugeSpec(other=1)
        with pytest.raises(TypeError, match="^TargetSets takes "):
            TargetSets(dissipative=(F(2),))
        with pytest.raises(TypeError):
            GaugeSpec("pow2")

    def test_repr_names_the_keys(self):
        assert repr(TopSpacerRule()) == (
            "TopSpacerRule(mode='multiplier', collide_ratio=Fraction(2, 1))"
        )

    def test_schedule_compares_by_its_keys(self, desk):
        assert Schedule.doc_keys == ("base_width", "base_height", "targets", "policy",
                                     "perturbation", "escalations", "stages")
        again = _replace(desk)
        assert again == desk and hash(again) == hash(desk)
        assert again != _replace(desk, base_width=F(2))

    def test_from_json_is_a_classmethod(self):
        # the benchmark's traced run rewraps it in the class's own namespace
        assert isinstance(Schedule.__dict__["from_json"], classmethod)


class TestDocumentReaders:
    def test_every_field_has_a_reader(self):
        blocks = _document_blocks()
        assert set(blocks) == {Schedule, TargetSets, StagePolicy, GaugeSpec, TopSpacerRule,
                               PerturbationSpec, StageParams, EscalationEvent}
        for cls in blocks:
            assert set(cls.readers) == set(cls.doc_keys), cls
            assert all(map(callable, cls.readers.values())), cls

    def test_unsupported_annotation_refused_at_the_class_statement(self):
        # an annotation without a reader fails at import, not in a user's load
        with pytest.raises(TypeError, match="^no document reader for <class 'float'>$"):
            class Measured(Block):
                width: float

    def test_load_evaluates_no_type_hints(self, desk):
        # the readers are made with the classes, so a fresh interpreter whose
        # typing.get_type_hints refuses to run still loads desk's schedule
        code = (
            "import sys, typing\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('typing.get_type_hints ran')\n"
            "typing.get_type_hints = refuse\n"
            "from rankone.construction import Schedule\n"
            "print(Schedule.from_json(sys.stdin.read()).to_json())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], input=desk.to_json(),
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == desk.to_json() + "\n"

    @pytest.mark.parametrize("hint", [float, dict, list[F], tuple[F, int], F | int])
    def test_unsupported_annotation_refused(self, hint):
        with pytest.raises(TypeError, match="no document reader"):
            field_reader(hint)

    @pytest.mark.parametrize("block", _sample_blocks(), ids=lambda b: type(b).__name__)
    def test_round_trip(self, block):
        doc = read_json(json.dumps(write_block(block)))
        back = field_reader(type(block))(doc)
        assert back == block and hash(back) == hash(block)
        assert write_block(back) == write_block(block)

    def test_sample_stage_is_perturbed(self):
        stage = _sample_blocks()[6]
        assert (stage.delta1, stage.delta3) == (F(0), F(1, 4))
