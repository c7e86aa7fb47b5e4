import argparse
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rankone import errors
from rankone.cli import _EXIT_CODES, _parser, main
from rankone.construction import PerturbationSpec, Schedule, write_block

from conftest import invoke

BASE_CONFIG = {
    "targets": {"singular": ["3/2", "5/2"], "dissipative": ["2/1", "3/1"]},
    "stages": 6,
}


OFF_RECURRENCE = (
    "is not what the stacking recurrence gives from its ratio, perturbation and multiplier"
)


def write_config(tmp_path: Path, extra: dict | None = None) -> Path:
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, val in (extra or {}).items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_build")
    cfg = write_config(tmp)
    out = tmp / "out"
    result = invoke(["build", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def built_desk(desk, tmp_path_factory):
    """The 8-stage desk schedule (BASE_CONFIG at 8 stages), whose stages
    cover every target; ``built`` is too short for the singular ones."""
    out = tmp_path_factory.mktemp("cli_desk")
    (out / "schedule.json").write_text(desk.to_json() + "\n")
    return out


class TestBuild:
    def test_writes_schedule_and_log(self, tmp_path):
        out = tmp_path / "out"
        result = invoke(["build", "-c", str(write_config(tmp_path)), "-o", str(out)])
        assert result.exit_code == 0, result.output
        sched = json.loads((out / "schedule.json").read_text())
        assert len(sched["stages"]) == 6
        assert "built 6 stages; certified windows 1..4;" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["schedule.json"]

    def test_round_trip_bit_exact(self, built):
        text = (built / "schedule.json").read_text()
        sched = Schedule.from_json(text)
        assert sched.to_json() + "\n" == text

    def test_short_schedule_reports_no_windows(self, tmp_path):
        cfg = write_config(tmp_path, {"stages": 2, "targets": {"dissipative": []}})
        result = invoke(["build", "-c", str(cfg), "-o", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert "no certified windows" in result.output

    def test_overlapping_targets_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path, {"targets": {"singular": ["2/1"], "dissipative": ["2/1"]}}
        )
        result = invoke(["build", "-c", str(cfg), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"stages": 4, "bogus": 1}))
        result = invoke(["build", "-c", str(cfg), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_escalation_exhausted_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "stages": 5,
                "targets": {
                    "singular": ["3/2", "5/2"],
                    "dissipative": ["2/1"],
                    "entry_stages": {"2/1": 1},
                },
                "policy": {"max_retries": 2},
            },
        )
        result = invoke(["build", "-c", str(cfg), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "escalation exhausted" in result.output


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class Twice:
    """A value written ahead of the document's own value for the same key."""

    def __init__(self, value):
        self.value = value


class Literal:
    """A value written as the given JSON text (``json.dumps`` converts no
    integer past the interpreter's digit limit)."""

    def __init__(self, text):
        self.text = text


def _dump(doc: dict, path, value) -> str:
    """``doc`` as JSON with ``value`` at ``path``; a ``Twice`` value gives
    the key at ``path`` a second time, at any depth."""
    if isinstance(value, Literal):
        _set_path(doc, path, "\0")
        return json.dumps(doc).replace(json.dumps("\0"), value.text)
    if not isinstance(value, Twice):
        _set_path(doc, path, value)
        return json.dumps(doc)
    if len(path) > 1:  # the nested object's text stands in for a placeholder
        inner = _dump(doc[path[0]], path[1:], value)
        doc[path[0]] = "\0"
        return json.dumps(doc).replace(json.dumps("\0"), inner)
    return json.dumps({path[0]: value.value})[:-1] + ", " + json.dumps(doc)[1:]


# an escalation build_schedule could have made on the 6-stage ``built``
# schedule: window 2 is certified and is 2/1's entry stage, 16 * 2 = 32
ESCALATION = {
    "window": 2,
    "ratio": "2/1",
    "old_multiplier": "16/1",
    "new_multiplier": "32/1",
    "witness": [["5/2", "3/1"]],
    "escalated_stages": [1, 2],
}


class TestLoaderErrors:
    @pytest.mark.parametrize(
        "command, path, value, names",
        [
            ("verify", ("stages",), 5, "stages: expected a list"),
            ("verify", ("stages", 0, "spacers", 1), "1/0",
             "stages[0].spacers[1]: expected a 'p/q' string"),
            ("verify", ("targets", "entry_stages"), ["2/1", 2],
             "targets.entry_stages: expected an object"),
            ("verify", ("policy", "gauge"), None, "policy.gauge: expected an object"),
            ("build", ("policy",), {"gauge": {"kind": "pow2", "values": ["2/1"]}},
             "policy.gauge: only a table gauge reads values, not kind 'pow2'"),
            ("verify", ("policy", "gauge", "values"), ["2/1"],
             "policy.gauge: only a table gauge reads values, not kind 'pow2'"),
            ("build", ("policy",), {"gauge": {"kind": "table", "floor": "4/1",
                                              "values": ["2/1"]}},
             "policy.gauge: a table gauge reads no floor, so it must stay 16/1"),
            ("verify", ("policy", "gauge"), {"kind": "table", "floor": "4/1",
                                             "values": ["2/1"]},
             "policy.gauge: a table gauge reads no floor, so it must stay 16/1"),
            ("build", ("policy",), {"top_spacer": {"collide_ratio": "3/1"}},
             "policy.top_spacer: mode 'multiplier' reads no collide_ratio, so it must "
             "stay 2/1"),
            ("verify", ("policy", "top_spacer", "collide_ratio"), "3/1",
             "policy.top_spacer: mode 'multiplier' reads no collide_ratio, so it must "
             "stay 2/1"),
            ("build", ("base_width",), "1/0", "base_width: expected a 'p/q' string"),
            ("verify", ("stages", 0, "multiplier"), True,
             "stages[0].multiplier: expected a 'p/q' string"),
            ("verify", ("stages", 0, "index"), True,
             "stages[0].index: expected an integer"),
            ("verify", ("stages", -1, "spacers", 3), True,
             "stages[5].spacers[3]: expected a 'p/q' string"),
            ("verify", ("targets", "entry_stages", "2/1"), 2.9,
             "targets.entry_stages.2/1: expected an integer"),
            ("verify", ("stages", 0, "index"), 1.7,
             "stages[0].index: expected an integer"),
            ("verify", ("stages", 0, "index"), "1",
             "stages[0].index: expected an integer, got '1'"),
            ("verify", ("policy", "max_retries"), -5,
             "policy: max retries must be >= 0"),
            ("verify", ("policy", "max_retries"), 40.9,
             "policy.max_retries: expected an integer"),
            ("verify", ("escalations",), [dict(ESCALATION, window=2.5)],
             "escalations[0].window: expected an integer"),
            ("verify", ("escalations",), [dict(ESCALATION, escalated_stages=["x"])],
             "escalations[0].escalated_stages[0]: expected an integer"),
            ("verify", ("escalations",), [dict(ESCALATION, witness=[["3/1", "1/1"]])],
             "escalations[0].witness: expected ascending, disjoint [lo, hi) pairs"),
            ("verify", ("escalations",),
             [dict(ESCALATION, witness=[["5/1", "6/1"], ["5/1", "7/1"]])],
             "escalations[0].witness: expected ascending, disjoint [lo, hi) pairs"),
            # an escalation record is checked against the schedule and policy
            ("verify", ("escalations",), [dict(ESCALATION, ratio="5/2")],
             "escalations[0]: ratio 5/2 is not a dissipative target"),
            ("verify", ("escalations",), [dict(ESCALATION, window=5)],
             "escalations[0]: window 5 is not a certified window at or above the entry "
             "stage of 2"),
            ("verify", ("escalations",), [dict(ESCALATION, window=1)],
             "escalations[0]: window 1 is not a certified window at or above the entry "
             "stage of 2"),
            ("verify", ("escalations",), [dict(ESCALATION, escalated_stages=[2, 1])],
             "escalations[0]: escalated stages [2, 1] are not strictly increasing within "
             "1..6 and holding window 2"),
            ("verify", ("escalations",), [dict(ESCALATION, escalated_stages=[0, 1, 2])],
             "escalations[0]: escalated stages [0, 1, 2] are not strictly increasing"),
            ("verify", ("escalations",), [dict(ESCALATION, escalated_stages=[2, 7])],
             "escalations[0]: escalated stages [2, 7] are not strictly increasing"),
            ("verify", ("escalations",), [dict(ESCALATION, escalated_stages=[1])],
             "escalations[0]: escalated stages [1] are not strictly increasing"),
            ("verify", ("escalations",), [ESCALATION, dict(ESCALATION, new_multiplier="48/1")],
             "escalations[1]: new multiplier is not the old one times the escalation "
             "factor 2"),
            ("verify", ("escalations",), [dict(ESCALATION, witness=[])],
             "escalations[0]: an escalation needs a nonempty witness"),
            ("verify", ("escalations",), [ESCALATION] * 41,
             "escalations: 41 events, more than the policy's max_retries 40"),
            ("verify", ("stages", 0, "ratio"), "7/2",
             "stage 1 ratio 7/2 not in the singular family"),
            ("verify", ("bogus",), 1, "schedule.json: unknown keys ['bogus']"),
            ("verify", ("stages", 0, "bogus"), 1, "stages[0]: unknown keys ['bogus']"),
            ("build", ("targets", "entry_stages"), {"2/1": 2, "4/2": 5, "3/1": 3},
             "targets: duplicate ratios in entry_stages"),
            ("verify", ("targets", "entry_stages", "4/2"), 5,
             "targets: duplicate ratios in entry_stages"),
            ("build", ("stages",), Twice(3), "repeated key 'stages'"),
            ("verify", ("base_height",), Twice("2/1"), "repeated key 'base_height'"),
            ("build", ("targets", "singular"), Twice(["5/2"]),
             "targets.singular: repeated key 'singular'"),
            ("verify", ("stages", 2, "spacers"), Twice(["0/1"] * 4),
             "stages[2].spacers: repeated key 'spacers'"),
            ("verify", ("targets", "entry_stages", "2/1"), Twice(2),
             "targets.entry_stages.2/1: repeated key '2/1'"),
            ("verify", ("stages", 2, "multiplier"), "7/1",
             "stage 3 multiplier is below the policy's start"),
            # numbers longer than CPython's int-string limit (4300 digits)
            ("verify", ("base_width",), "1" * 4401,
             "base_width: a number of more than 4300 digits"),
            ("verify", ("stages", 0, "spacers", 1), "1/" + "0" * 4300 + "7",
             "stages[0].spacers[1]: a number of more than 4300 digits"),
            ("build", ("base_width",), "-" + "9" * 4301 + "/1",
             "base_width: a number of more than 4300 digits"),
            # integer literals past the limit, which ``int`` itself refuses
            ("build", ("stages",), Literal("1" * 4400),
             "stages: a number of more than 4300 digits"),
            ("verify", ("stages", 0, "index"), Literal("-" + "1" * 4400),
             "stages[0].index: a number of more than 4300 digits"),
            # a stored multiplier whose derived top spacer passes the limit
            ("verify", ("stages", -1, "multiplier"), "9" * 3000,
             "stage 6 has a number of more than 4300 digits"),
            # every refusal of a block's constructor keeps its message
            ("build", ("policy",), {"initial_multiplier": "1/2"},
             "policy: initial multiplier must be >= 1"),
            ("build", ("policy",), {"escalation_factor": "1/1"},
             "policy: escalation factor must exceed 1"),
            ("build", ("perturbation",), {"net_depth": 0},
             "perturbation: net depth must be >= 1"),
            ("build", ("policy",), {"gauge": {"kind": "table", "values": []}},
             "policy.gauge: table gauge needs values"),
            ("build", ("policy",), {"gauge": {"kind": "table", "values": ["4/1", "2/1"]}},
             "policy.gauge: gauge table must be non-decreasing"),
            ("build", ("policy",), {"gauge": {"kind": "bogus"}},
             "unknown gauge kind 'bogus'"),
            ("build", ("policy",), {"top_spacer": {"mode": "bogus"}},
             "unknown top-spacer mode 'bogus'"),
            ("build", ("targets", "dissipative"), ["2/1", "2/1"],
             "targets: duplicate entries in the dissipative family"),
            ("build", ("targets", "singular"), ["3/2", "2/1"], "must be disjoint"),
            ("build", ("targets", "singular"), ["1/1"], "target ratios must exceed 1, got 1"),
            ("build", ("targets", "entry_stages"), {"2/1": 0, "3/1": 3},
             "entry stage for d=2 must be >= 1"),
            ("build", ("targets", "entry_stages"), {"2/1": 2},
             "entry_stages must cover exactly the dissipative family"),
            ("build", ("base_width",), "0/1", "base width and height must be positive"),
            ("verify", ("base_width",), "0/1", "base width and height must be positive"),
            ("build", ("stages",), 0, "need at least one stage"),
            ("verify", ("stages", 0, "spacers", 0), "-1/1", f"stage 1 spacers {OFF_RECURRENCE}"),
            ("verify", ("stages", 0, "delta1"), "2/1", "perturbations must lie in [0, 1]"),
            ("verify", ("stages", 0, "delta1"), "1/2", f"stage 1 spacers {OFF_RECURRENCE}"),
            ("verify", ("stages", 0, "spacers", 2), "7/1", f"stage 1 spacers {OFF_RECURRENCE}"),
            ("verify", ("stages", 0, "offsets", 3), "99/1", f"stage 1 offsets {OFF_RECURRENCE}"),
            ("verify", ("stages", 0, "spacers"), ["0/1", "16/1", "1/2"],
             f"stage 1 spacers {OFF_RECURRENCE}"),
            ("verify", ("stages", -1, "spacers", 3), "5/1", f"stage 6 spacers {OFF_RECURRENCE}"),
            ("verify", ("stages", 1, "index"), 5, f"stage 2 index {OFF_RECURRENCE}"),
            ("verify", ("stages", 1, "width"), "1/2", f"stage 2 width {OFF_RECURRENCE}"),
            ("verify", ("base_height",), "2/1", f"stage 1 height {OFF_RECURRENCE}"),
            ("verify", ("stages",), [], "a schedule needs at least one stage"),
            ("build", ("targets", "singular"), [],
             "invalid config: targets: need at least one singular target ratio"),
        ],
        ids=["stages-int", "spacer-1/0", "entry-stages-list", "gauge-null",
             "config-gauge-values-untabled", "schedule-gauge-values-untabled",
             "config-gauge-floor-tabled", "schedule-gauge-floor-tabled",
             "config-collide-ratio-unread", "schedule-collide-ratio-unread",
             "base-width-1/0", "multiplier-true", "index-true", "top-spacer-true",
             "entry-stage-float", "index-float", "index-string", "max-retries-neg",
             "max-retries-float", "escalation-window-float",
             "escalated-stages-string", "witness-inverted", "witness-overlapping",
             "escalation-ratio-singular", "escalation-window-uncertified",
             "escalation-window-below-entry", "escalated-stages-decreasing",
             "escalated-stages-zero", "escalated-stages-past-last",
             "escalated-stages-miss-window", "escalation-factor-off",
             "escalation-witness-empty", "escalations-past-retries",
             "stage-ratio-foreign",
             "unknown-top-key", "unknown-stage-key",
             "config-ratio-twice", "schedule-ratio-twice", "config-key-twice",
             "schedule-key-twice", "config-nested-key-twice",
             "schedule-nested-key-twice", "schedule-entry-stage-twice",
             "multiplier-off-spacer", "schedule-numerator-digits",
             "schedule-denominator-digits", "config-numerator-digits",
             "config-int-digits", "schedule-int-digits", "schedule-derived-digits",
             "initial-multiplier-half", "escalation-factor-one", "net-depth-zero",
             "gauge-table-empty", "gauge-table-decreasing", "gauge-kind-bogus",
             "top-spacer-mode-bogus", "dissipative-twice", "families-overlap",
             "singular-one", "entry-stage-zero", "entry-stages-partial",
             "base-width-zero", "schedule-base-width-zero", "stages-zero", "spacer-negative", "delta1-past-one",
             "delta1-off-spacer", "third-spacer-off", "offset-off-recurrence",
             "three-spacers", "top-spacer-off-policy", "index-out-of-order",
             "width-off-quartering", "base-height-off-stage", "no-stages", "singular-empty"],
    )
    def test_malformed_input_exit_2(self, built, tmp_path, command, path, value, names):
        if command == "verify":
            doc = json.loads((built / "schedule.json").read_text())
            src = tmp_path / "schedule.json"
            args = ["verify", "-s", str(src), "--which", "dissipative"]
        else:
            doc = json.loads(json.dumps(BASE_CONFIG))
            src = tmp_path / "config.json"
            args = ["build", "-c", str(src)]
        src.write_text(_dump(doc, path, value))
        result = invoke(args + ["-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error" in result.output
        assert names in result.output
        assert "set_int_max_str_digits" not in result.output

    def test_consistent_escalations_load(self, built, tmp_path):
        doc = json.loads((built / "schedule.json").read_text())
        doc["escalations"] = [ESCALATION] * 40
        src = tmp_path / "schedule.json"
        src.write_text(json.dumps(doc))
        result = invoke(
            ["verify", "-s", str(src), "-o", str(tmp_path / "out"), "--which", "dissipative"]
        )
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("text", [None, "not json", "[]"], ids=["missing", "text", "list"])
    def test_unreadable_config_exit_2(self, tmp_path, text):
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "out"
        result = invoke(["build", "-c", str(cfg), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert f"usage error: cannot read config {cfg}: " in result.output
        assert not out.exists()

    def test_numbers_past_digit_limit_exit_2(self, tmp_path):
        # at 120 stages the spacers of stage 119 have more digits than
        # CPython converts to a string: the build writes nothing
        cfg = write_config(tmp_path, {"stages": 120})
        out = tmp_path / "out"
        result = invoke(["build", "-c", str(cfg), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert "stage 119 has a number of more than 4300 digits" in result.output
        assert "Exceeds the limit" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "block",
        [
            {"verify": {"spot_checks_per_window": 3}},
            {"density": {"samples": 5}},
            {"oracle": {"triples": 2}},
        ],
        ids=["verify", "density", "oracle"],
    )
    def test_command_blocks_rejected_exit_2(self, tmp_path, block):
        cfg = write_config(tmp_path, block)
        result = invoke(["build", "-c", str(cfg), "-o", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"unknown keys {list(block)}" in result.output


class TestVerify:
    def test_all_pass_exit_0(self, built_desk, tmp_path):
        result = invoke(["verify", "-s", str(built_desk / "schedule.json"), "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "singular: 110/110 pair checks pass" in result.output
        assert "PASS" in result.output
        assert (tmp_path / "weak_limits.json").exists()
        assert (tmp_path / "dissipativity.json").exists()

    def test_deterministic_reports(self, built_desk, tmp_path):
        args = ["verify", "-s", str(built_desk / "schedule.json")]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert invoke(args + ["-o", str(out1)]).exit_code == 0
        assert invoke(args + ["-o", str(out2)]).exit_code == 0
        for name in ("weak_limits.json", "dissipativity.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # every file the run writes, pinned byte for byte
        assert {p.name: sha256(p) for p in out1.iterdir()} == {
            "dissipativity.json":
                "177995d7ca3194593c75aa21133fbe096e7a287dfef292a687e710e8589a6d12",
            "evidence_3_2.json":
                "d954132b1563a1ead7ae3f2189554861a02d4fc3712bff56756259ab2bbf38c7",
            "evidence_5_2.json":
                "7e3520ad508cad2eae988db8964ac649876705e8785d94286cbc0f490dae2615",
            "verify_summary.txt":
                "1a40e024017ae594f9c24176b1df92787b7bd536e51b43849b3bb8db24194432",
            "weak_limits.json":
                "68ec8659639de40353fe2fe03089f57d29a2958af7f38f6a47e80da3d85f5de2",
        }

    def test_broken_schedule_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "policy": {"top_spacer": {"mode": "collide", "collide_ratio": "2/1"}},
                "certify": False,
            },
        )
        out = tmp_path / "out"
        assert invoke(["build", "-c", str(cfg), "-o", str(out)]).exit_code == 0
        result = invoke(
            ["verify", "-s", str(out / "schedule.json"), "-o", str(out),
             "--which", "dissipative"],
        )
        assert result.exit_code == 3
        report = json.loads((out / "dissipativity.json").read_text())
        assert any(w["witness"] for r in report for w in r["windows"])

    def test_perturbed_singular_exit_3(self, desk_perturbed, tmp_path):
        """The exact-quarter weak limits fail on a perturbed schedule."""
        (tmp_path / "schedule.json").write_text(desk_perturbed.to_json() + "\n")
        out = tmp_path / "out"
        result = invoke(
            ["verify", "-s", str(tmp_path / "schedule.json"), "-o", str(out),
             "--which", "singular"],
        )
        assert result.exit_code == 3, result.output
        lines = result.output.splitlines()
        assert lines[0] == "singular: 34/110 pair checks pass"
        fails = [line for line in lines if line.startswith("  FAIL ")]
        assert len(fails) == 76
        assert fails[0] == "  FAIL c=3/2 pair ['stage1_full', 'stage1_full']"
        assert lines[-1] == "FAIL: at least one certificate failed"
        assert (out / "verify_summary.txt").exists()

    def test_foreign_ratio_exit_2(self, built):
        result = invoke(
            ["verify", "-s", str(built / "schedule.json"), "-o", str(built),
             "--which", "singular", "--ratio", "7/2"],
        )
        assert result.exit_code == 2

    def test_jobs_parallel_matches(self, built, broken, tmp_path):
        """Workers write the same report as one process, also when the
        certificates fail and their witnesses cross the process boundary."""
        (tmp_path / "broken.json").write_text(broken.to_json() + "\n")
        cases = [(built / "schedule.json", 0, None),
                 (tmp_path / "broken.json", 3,
                  "99e90e420238131394473b6d9d949a53eba907a426210c45346d74f01ddbc702")]
        for schedule, code, digest in cases:
            reports = []
            for jobs in ("2", "1"):
                out = tmp_path / f"{schedule.stem}-{jobs}"
                result = invoke(
                    ["verify", "-s", str(schedule), "-o", str(out),
                     "--which", "dissipative", "--jobs", jobs],
                )
                assert result.exit_code == code, result.output
                reports.append((out / "dissipativity.json").read_bytes())
            assert reports[0] == reports[1]
            assert digest is None or sha256(out / "dissipativity.json") == digest

    def test_jobs_capped_at_task_count(self, built, tmp_path, monkeypatch):
        """``--jobs 64`` starts one worker per ratio (a stub pool here, so no
        process starts)."""
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        result = invoke(
            ["verify", "-s", str(built / "schedule.json"), "-o", str(tmp_path),
             "--which", "dissipative", "--jobs", "64"],
        )
        assert result.exit_code == 0, result.output
        assert pools == [2]  # the dissipative targets 2/1 and 3/1

    def test_missing_schedule_exit_2(self, tmp_path):
        result = invoke(["verify", "-s", str(tmp_path / "nope.json"), "-o", str(tmp_path)])
        assert result.exit_code == 2

    def test_requested_kind_without_targets_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"stages": 8, "targets": {"dissipative": []}})
        built = tmp_path / "built"
        result = invoke(["build", "-c", str(cfg), "-o", str(built)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        result = invoke([
            "verify", "-s", str(built / "schedule.json"), "--which", "dissipative",
            "-o", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "usage error: this schedule has no dissipative targets" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, written",
        [({"stages": 8}, ["evidence_3_2.json", "evidence_5_2.json", "verify_summary.txt",
                          "weak_limits.json"]),
         ({"stages": 6, "perturbation": {"net_depth": 1}},
          ["perturbed_limits.json", "verify_summary.txt"])],
        ids=["singular", "perturbed"],
    )
    def test_all_skips_kinds_without_targets(self, tmp_path, extra, written):
        """``--which all`` plans no dissipative check on a schedule with no
        dissipative targets: it writes no dissipativity.json."""
        cfg = write_config(tmp_path, {**extra, "targets": {"dissipative": []}})
        built = tmp_path / "built"
        result = invoke(["build", "-c", str(cfg), "-o", str(built)])
        assert result.exit_code == 0, result.output
        schedule = str(built / "schedule.json")
        out = tmp_path / "out"
        result = invoke(["verify", "-s", schedule, "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert "dissipative" not in result.output
        assert sorted(p.name for p in out.iterdir()) == written
        result = invoke(
            ["verify", "-s", schedule, "-o", str(tmp_path / "spot"), "--spot-checks", "5"]
        )
        assert result.exit_code == 2, result.output
        assert result.output == (
            "usage error: --spot-checks would be ignored: this run checks no dissipative ratio\n"
        )

    def test_perturbed_on_base_schedule_exit_2(self, built):
        result = invoke(
            ["verify", "-s", str(built / "schedule.json"), "-o", str(built),
             "--which", "perturbed"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args, named",
        [
            (["--which", "singular", "--spot-checks", "10", "--seed", "3", "--jobs", "4"],
             "--spot-checks would be ignored: this run checks no dissipative ratio"),
            (["--ratio", "3/2", "--jobs", "2"],
             "--jobs would be ignored: this run checks no dissipative ratio"),
            (["--which", "dissipative", "--seed", "3"],
             "--seed would be ignored: --spot-checks is 0"),
        ],
        ids=["spot-checks-singular", "jobs-singular-ratio", "seed-without-spot-checks"],
    )
    def test_ignored_option_exit_2(self, built_desk, tmp_path, args, named):
        out = tmp_path / "out"
        result = invoke(["verify", "-s", str(built_desk / "schedule.json"), "-o", str(out), *args])
        assert result.exit_code == 2, result.output
        assert result.output == f"usage error: {named}\n"
        assert not out.exists()

    def test_spot_checks_seed_defaults_to_zero(self, built, tmp_path):
        reports = []
        for seed in ([], ["--seed", "0"]):
            out = tmp_path / f"seed{len(seed)}"
            result = invoke(
                ["verify", "-s", str(built / "schedule.json"), "-o", str(out),
                 "--which", "dissipative", "--spot-checks", "5", *seed],
            )
            assert result.exit_code == 0, result.output
            reports.append((out / "dissipativity.json").read_bytes())
        assert reports[0] == reports[1]
        assert b'"spot_checks"' in reports[0]


class TestRationalOptions:
    """A rational typed on the command line has the documents' grammar:
    only a 'p' or 'p/q' string."""

    @pytest.mark.parametrize(
        "command, option",
        [("verify", "--ratio"), ("density", "--ratio"), ("profile", "--t-min"),
         ("profile", "--t-max")],
    )
    @pytest.mark.parametrize(
        "text", ["1.5", " 3/2", "+3/2", "3_0/20", "1e3", "2.0", "1/0", "abc"]
    )
    def test_non_pq_text_exit_2(self, built, tmp_path, command, option, text):
        out = tmp_path / "out"
        result = invoke(
            [command, "-s", str(built / "schedule.json"), "-o", str(out), option, text]
        )
        assert result.exit_code == 2, result.output
        assert result.output == f"usage error: expected a 'p/q' string, got {text!r}\n"
        assert not out.exists()

    def test_unreduced_and_integer_text_read_as_their_value(self, built, tmp_path):
        outputs = []
        for t_min, t_max in (("0", "6/4"), ("0/1", "3/2")):
            out = tmp_path / t_max.replace("/", "_")
            result = invoke(
                ["profile", "-s", str(built / "schedule.json"), "-o", str(out),
                 "--t-min", t_min, "--t-max", t_max],
            )
            assert result.exit_code == 0, result.output
            outputs.append((result.output, *(
                (out / name).read_bytes() for name in ("profile.csv", "profile.json")
            )))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith("profile on [0, 3/2]: ")
        result = invoke(
            ["verify", "-s", str(built / "schedule.json"), "-o", str(tmp_path),
             "--ratio", "3", "--which", "dissipative"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "dissipativity.json").read_text())
        assert [r["ratio"] for r in report] == ["3/1"]

    @pytest.mark.parametrize(
        "args, named",
        [(["verify", "--ratio", "7/1"], "singular or dissipative"),
         (["density", "--ratio", "7/1"], "dissipative")],
        ids=["verify", "density"],
    )
    def test_foreign_ratio_named_in_pq_form(self, built, tmp_path, args, named):
        out = tmp_path / "out"
        result = invoke([args[0], "-s", str(built / "schedule.json"), "-o", str(out), *args[1:]])
        assert result.exit_code == 2, result.output
        assert result.output == f"usage error: 7/1 is not a {named} target of this schedule\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, read", [("3", "3/1"), ("6/4", "3/2")])
    def test_density_prints_the_ratio_it_read(self, tmp_path, text, read):
        cfg = write_config(tmp_path, {"targets": {"singular": ["5/2"],
                                                  "dissipative": ["3/2", "3/1"]}})
        built = tmp_path / "built"
        result = invoke(["build", "-c", str(cfg), "-o", str(built)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        result = invoke(
            ["density", "-s", str(built / "schedule.json"), "-o", str(out),
             "--ratio", text, "--s-max", "60", "--samples", "101"],
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"density d={read}: ")
        assert json.loads((out / "density.json").read_text())["ratio"] == read


class TestRatioSelection:
    """``--ratio`` keeps the selected kinds whose targets hold the ratio."""

    @pytest.mark.parametrize(
        "ratio, written, skipped",
        [("2/1", "dissipativity.json", "weak_limits.json"),
         ("3/2", "weak_limits.json", "dissipativity.json")],
        ids=["dissipative", "singular"],
    )
    def test_all_runs_kinds_holding_ratio(
        self, built_desk, tmp_path, ratio, written, skipped
    ):
        result = invoke(
            ["verify", "-s", str(built_desk / "schedule.json"), "-o", str(tmp_path),
             "--ratio", ratio],
        )
        assert result.exit_code == 0, result.output
        assert not (tmp_path / skipped).exists()
        report = json.loads((tmp_path / written).read_text())
        assert report and {r["ratio"] for r in report} == {ratio}


class TestCoverage:
    """``verify`` checks every requested (kind, ratio), or it exits 2 before
    it writes anything and names each one the schedule is too short for."""

    @pytest.mark.parametrize(
        "extra, which, named",
        [
            ({}, "all", ["singular 3/2", "singular 5/2"]),
            ({}, "dissipative", []),
            ({"targets": {"entry_stages": {"2/1": 2, "3/1": 5}}}, "all",
             ["singular 3/2", "singular 5/2", "dissipative 3/1"]),
            ({"targets": {"entry_stages": {"2/1": 2, "3/1": 5}}}, "dissipative",
             ["dissipative 3/1"]),
            ({"stages": 4, "perturbation": {"net_depth": 1}}, "perturbed",
             ["perturbed 5/2"]),
            ({"stages": 4, "perturbation": {"net_depth": 1}}, "all",
             ["dissipative 3/1", "perturbed 5/2"]),
            ({"stages": 1}, "singular", ["singular 3/2", "singular 5/2"]),
        ],
        ids=["6-stages", "6-stages-dissipative", "late-entry", "late-entry-dissipative",
             "perturbed-4-stages", "perturbed-4-stages-all", "1-stage-singular"],
    )
    def test_uncovered_target_exit_2(self, tmp_path, extra, which, named):
        cfg = write_config(tmp_path, extra)
        built = tmp_path / "built"
        assert invoke(["build", "-c", str(cfg), "-o", str(built)]).exit_code == 0
        out = tmp_path / "out"
        result = invoke(
            ["verify", "-s", str(built / "schedule.json"), "-o", str(out),
             "--which", which],
        )
        if not named:
            assert result.exit_code == 0, result.output
            return
        assert result.exit_code == 2, result.output
        assert f"usage error: schedule too short to check {', '.join(named)}\n" in (
            result.output
        )
        assert not out.exists()


class TestLargeRatio:
    """A dissipative ratio so large that the dilated tops of the last certified
    windows pass what the built towers absorb: its certificate covers only the
    windows below, and the density is certified zero through their top."""

    @pytest.mark.parametrize("certify", [True, False], ids=["certify", "no-certify"])
    def test_build_verify_density_exit_0(self, tmp_path, certify):
        cfg = write_config(tmp_path, {"targets": {"dissipative": ["2/1", "100000/1"]},
                                      "stages": 8, "certify": certify})
        out = tmp_path / "out"
        schedule = str(out / "schedule.json")
        for argv in (["build", "-c", str(cfg)],
                     ["verify", "-s", schedule],
                     ["density", "-s", schedule, "--ratio", "100000/1",
                      "--samples", "3", "--s-max", "1"]):
            result = invoke([*argv, "-o", str(out)])
            assert result.exit_code == 0, result.output
        report = json.loads((out / "dissipativity.json").read_text())
        windows = {r["ratio"]: [w["window"] for w in r["windows"]] for r in report}
        assert windows == {"2/1": [2, 3, 4, 5, 6], "100000/1": [3, 4, 5]}
        h6 = Schedule.from_json(Path(schedule).read_text()).height(6)
        density = json.loads((out / "density.json").read_text())
        assert density["certified_zero_through"] == f"{h6.numerator}/{h6.denominator}"
        # the mass range follows the ratio: 2000 * 100000
        assert density["mass_range_s"] == 200000000.0
        assert abs(density["mass_range_value"] - 1) < 0.01


@pytest.mark.parametrize(
    "config",
    sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")),
    ids=lambda path: path.stem,
)
def test_shipped_config_builds_and_verifies(config, tmp_path):
    """Every config in ``configs/`` builds and passes ``verify``, except the
    ``broken`` negative control, whose certificate fails."""
    result = invoke(["build", "-c", str(config), "-o", str(tmp_path)])
    assert result.exit_code == 0, result.output
    result = invoke(["verify", "-s", str(tmp_path / "schedule.json"), "-o", str(tmp_path)])
    assert result.exit_code == (3 if config.stem == "broken" else 0), result.output


@pytest.fixture(scope="module")
def built_perturbed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_perturbed")
    cfg = write_config(tmp, {"perturbation": {"net_depth": 1}, "stages": 6})
    out = tmp / "out"
    result = invoke(["build", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    return out


class TestPerturbedVerify:
    def test_perturbed_all(self, built_perturbed, tmp_path):
        result = invoke(
            ["verify", "-s", str(built_perturbed / "schedule.json"), "-o", str(tmp_path),
             "--which", "perturbed"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "perturbed_limits.json").read_text())
        assert report and all(r["passed"] for r in report)
        assert sha256(tmp_path / "perturbed_limits.json") == (
            "763f6fa340f2da43c05396d6af7df42070fa0503513540c265e216d3e1a14cf6"
        )

    def test_default_which_skips_singular(self, built_perturbed, tmp_path):
        result = invoke(
            ["verify", "-s", str(built_perturbed / "schedule.json"), "-o", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert not (tmp_path / "weak_limits.json").exists()
        assert (tmp_path / "dissipativity.json").exists()
        assert (tmp_path / "perturbed_limits.json").exists()

    def test_deep_net_verifies_without_the_whole_net(self, tmp_path, monkeypatch):
        """A depth-9 net has 513^2 points; the certificate reads only the
        points that the carrying stages visit."""
        cfg = write_config(tmp_path, {"perturbation": {"net_depth": 9}, "stages": 8})
        out = tmp_path / "out"
        assert invoke(["build", "-c", str(cfg), "-o", str(out)]).exit_code == 0

        def whole_net(spec):
            raise AssertionError("verify built the whole net")

        monkeypatch.setattr(PerturbationSpec, "points", whole_net)
        result = invoke(
            ["verify", "-s", str(out / "schedule.json"), "-o", str(out),
             "--which", "perturbed"],
        )
        assert result.exit_code == 0, result.output
        sched = Schedule.from_json((out / "schedule.json").read_text())
        # so large a net gives every visit a new point
        visited = [
            write_block(sched.delta_pair(j))
            for c in sched.targets.singular
            for j in sched.certified_windows() if sched.stage(j).ratio == c
        ]
        report = json.loads((out / "perturbed_limits.json").read_text())
        assert [r["point"] for r in report] == visited

    def test_foreign_ratio_exit_2_before_reports(self, built_perturbed, tmp_path):
        result = invoke(
            ["verify", "-s", str(built_perturbed / "schedule.json"), "-o", str(tmp_path),
             "--which", "perturbed", "--ratio", "7/1"],
        )
        assert result.exit_code == 2, result.output
        assert "usage error" in result.output
        assert not list(tmp_path.iterdir())


class TestArtifacts:
    def test_profile_csv(self, built, tmp_path):
        out = tmp_path / "prof"
        result = invoke(
            ["profile", "-s", str(built / "schedule.json"), "-o", str(out),
             "--t-max", "2/1", "--samples", "16", "--window", "2"],
        )
        assert result.exit_code == 0, result.output
        rows = (out / "profile.csv").read_text().strip().splitlines()
        assert rows[0] == "t,value"
        assert len(rows) == 18
        first = rows[1].split(",")
        assert float(first[1]) == 1.0  # value at t=0 equals mu(Y)
        assert (out / "hitting_window_2.json").exists()
        assert sha256(out / "profile.json") == (
            "90138b67a9641091124e3c2b5dceb9222497d69a71ab5ae3a5af33ce279bf38f"
        )

    def test_profile_broken_window_5_bytes(self, broken, tmp_path):
        """The hitting report as ``profile --window 5`` writes it, chunk by
        chunk, has the digest of the report's joined text."""
        (tmp_path / "schedule.json").write_text(broken.to_json() + "\n")
        out = tmp_path / "prof"
        result = invoke(
            ["profile", "-s", str(tmp_path / "schedule.json"), "-o", str(out),
             "--window", "5"],
        )
        assert result.exit_code == 0, result.output
        assert sha256(out / "hitting_window_5.json") == (
            "b673a9a47f1b2280ac2a3003adaa337bf4e2c9a93b1f9a691c047ac2125d6baa"
        )

    @pytest.mark.parametrize("window", ["0", "9"])
    def test_profile_unbuilt_window_writes_nothing(self, built, tmp_path, window):
        out = tmp_path / "prof"
        result = invoke(
            ["profile", "-s", str(built / "schedule.json"), "-o", str(out),
             "--window", window],
        )
        assert result.exit_code == 2, result.output
        assert "not built" in result.output
        assert not list(out.glob("profile.*"))

    @pytest.mark.parametrize("window", ["0", "9"])
    def test_profile_window_out_of_range_named(self, built_desk, tmp_path, window):
        """A window outside 1..8 of the 8-stage desk is refused by its own
        number, not by the tower stage it would read."""
        out = tmp_path / "prof"
        result = invoke(
            ["profile", "-s", str(built_desk / "schedule.json"), "-o", str(out),
             "--window", window],
        )
        assert result.exit_code == 2, result.output
        assert f"usage error: window {window} not built (have 1..8)" in result.output
        assert not out.exists()

    def test_profile_last_window_past_horizon(self, built_desk, tmp_path):
        """Window 8 is built but ends at h_9, past the horizon: exit 4."""
        out = tmp_path / "prof"
        result = invoke(
            ["profile", "-s", str(built_desk / "schedule.json"), "-o", str(out),
             "--window", "8"],
        )
        assert result.exit_code == 4, result.output
        assert "horizon exceeded" in result.output
        assert not out.exists()

    def test_profile_window_past_horizon_writes_nothing(self, built_desk, tmp_path):
        """Window 7 of the 8-stage desk ends at h_8, which no built tower
        absorbs: the report is refused before anything is written."""
        out = tmp_path / "prof"
        result = invoke(
            ["profile", "-s", str(built_desk / "schedule.json"), "-o", str(out),
             "--window", "7"],
        )
        assert result.exit_code == 4, result.output
        assert "horizon exceeded" in result.output
        assert not list(out.glob("profile.*")) and not list(out.glob("hitting_window_*"))

    @pytest.mark.parametrize("stages, code, said", [
        (2, 0, "profile on [0, 256]: "),
        (1, 4, "horizon exceeded: time 1 exceeds what the 1-stage schedule absorbs"),
    ], ids=["2-stage", "1-stage"])
    def test_profile_default_t_max_within_horizon(self, tmp_path, stages, code, said):
        """The default window ends at h_2 or at the horizon, whichever is
        lower: the 2-stage default schedule absorbs times up to 256, below
        h_2 = 553/2.  A 1-stage schedule absorbs none, and h_1 is refused."""
        cfg, out = tmp_path / "config.json", tmp_path / "out"
        cfg.write_text(json.dumps({"stages": stages}))
        assert invoke(["build", "-c", str(cfg), "-o", str(out)]).exit_code == 0
        result = invoke(["profile", "-s", str(out / "schedule.json"), "-o", str(out)])
        assert result.exit_code == code, result.output
        assert said in result.output
        if code == 0:
            assert json.loads((out / "profile.json").read_text())["t_max"] == "256/1"

    def test_density_csv_and_mass(self, built, tmp_path):
        out = tmp_path / "dens"
        result = invoke(
            ["density", "-s", str(built / "schedule.json"), "-o", str(out),
             "--ratio", "2/1", "--s-max", "60", "--samples", "1201"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "density.json").read_text())
        assert abs(summary["mass_range_value"] - 1.0) < 0.01
        assert summary["min_density"] >= -1e-6
        rows = (out / "density.csv").read_text().strip().splitlines()
        assert rows[0] == "s,density" and len(rows) == 1202

    def test_desk_density_document(self, desk, tmp_path):
        """Every key of desk's ``density.json`` on the default grid: exact
        fields by equality, floats as the benchmark recorded them."""
        src = tmp_path / "schedule.json"
        src.write_text(desk.to_json() + "\n")
        out = tmp_path / "dens"
        result = invoke(["density", "-s", str(src), "-o", str(out), "--ratio", "2/1"])
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "density.json").read_text())
        floats = {
            "density_at_zero": 0.11553239684079643,
            "min_density": 1.1350992540618596e-05,
            "mass_range_value": 0.9996418133072358,
            "mass_trapezoid": 0.9928562870074893,
        }
        exact = {
            "ratio": "2/1",
            "support_bound": "553/2",
            "certified_zero_through": "1659629834204702745/64",
            "grid": {"s_max": 200.0, "samples": 8001},
            "piece_count": 92,
            "phi_at_zero": "1/1",
            "phi_integral": "1115/1536",
            "mass_range_s": 4000.0,
        }
        assert summary.keys() == exact.keys() | floats.keys()
        assert {k: summary[k] for k in exact} == exact
        for key, value in floats.items():
            assert math.isclose(summary[key], value, rel_tol=1e-9), key

    def test_density_on_broken_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "policy": {"top_spacer": {"mode": "collide", "collide_ratio": "2/1"}},
                "certify": False,
            },
        )
        out = tmp_path / "out"
        invoke(["build", "-c", str(cfg), "-o", str(out)])
        result = invoke(["density", "-s", str(out / "schedule.json"), "-o", str(out)])
        assert result.exit_code == 3

    def test_oracle_table(self, built, tmp_path):
        out = tmp_path / "oracle"
        result = invoke(
            ["oracle", "-s", str(built / "schedule.json"), "-o", str(out),
             "--triples", "6", "--samples", "500", "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        rows = (out / "oracle.csv").read_text().strip().splitlines()
        assert len(rows) == 7
        assert all(row.endswith("True") for row in rows[1:])

    def test_oracle_help_states_the_cap(self):
        result = invoke(["oracle", "--help"])
        assert result.exit_code == 0, result.output
        assert "k = 1 + i mod this, capped at the built stages" in " ".join(result.output.split())

    def test_oracle_row_outside_bound_exit_3(self, built, tmp_path, monkeypatch):
        """An estimate off by more than its bound fails its row and exits 3."""
        from rankone import cli

        estimate = cli.oracle_correlation

        def off(*args):
            est = estimate(*args)
            return dataclasses.replace(est, value=est.value + 2 * est.bound + 1)

        monkeypatch.setattr(cli, "oracle_correlation", off)
        out = tmp_path / "oracle"
        result = invoke(
            ["oracle", "-s", str(built / "schedule.json"), "-o", str(out),
             "--triples", "3", "--samples", "200"],
        )
        assert result.exit_code == 3, result.output
        assert "oracle: 0/3 within the deterministic bound" in result.output
        rows = (out / "oracle.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and all(row.endswith(",False") for row in rows)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_draws_reach_nonzero_correlations(self, built_desk, tmp_path, seed):
        """Triple i draws t from [0, h_{1 + i mod 3}]: on [0, h_3] alone the
        desk family's correlations are nonzero on under 2% of the times."""
        out = tmp_path / "oracle"
        result = invoke(
            ["oracle", "-s", str(built_desk / "schedule.json"), "-o", str(out),
             "--seed", str(seed)],
        )
        assert result.exit_code == 0, result.output
        rows = [row.split(",") for row in (out / "oracle.csv").read_text().splitlines()[1:]]
        assert len(rows) == 12
        assert any(float(row[3]) != 0 for row in rows)


# a base height of 401 digits: every stage height is past the float range
HUGE_HEIGHT = "1" + "0" * 400


@pytest.fixture(scope="module")
def built_huge(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_huge")
    cfg = write_config(tmp, {"base_height": HUGE_HEIGHT})
    result = invoke(["build", "-c", str(cfg), "-o", str(tmp)])
    assert result.exit_code == 0, result.output
    return tmp / "schedule.json"


class TestExitCodeEscapes:
    """Errors outside the package's own kinds still exit 2 with a message,
    not with a traceback and exit 1."""

    @pytest.mark.parametrize("command", ["build", "verify", "profile", "density", "oracle"])
    def test_output_under_regular_file_exit_2(self, built_desk, tmp_path, command):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        source = (
            ["-c", str(Path(__file__).resolve().parents[1] / "configs" / "desk.json")]
            if command == "build"
            else ["-s", str(built_desk / "schedule.json")]
        )
        result = invoke([command, *source, "-o", str(blocker / "out")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "file error: " in result.stderr and "Not a directory" in result.stderr
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "x"

    @pytest.mark.parametrize("command", ["profile", "density", "oracle"])
    def test_heights_past_float_range_exit_2(self, built_huge, tmp_path, command):
        out = tmp_path / "out"
        result = invoke([command, "-s", str(built_huge), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "beyond the float range: " in result.stderr
        assert not out.exists()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _filled(args: list[str], **paths: Path) -> list[str]:
    return [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in args]


class TestUsageErrors:
    """A malformed command line exits 2 with a message on stderr and writes
    nothing under ``-o``."""

    @pytest.mark.parametrize(
        "args, said",
        [
            ([], "rankone: error: the following arguments are required: COMMAND"),
            (["bogus", "-o", "{out}"], "rankone: error: argument COMMAND: invalid choice: 'bogus'"),
            (["build", "-c", "{config}", "-o", "{out}", "--bogus"],
             "rankone: error: unrecognized arguments: --bogus"),
            (["build", "-o", "{out}"],
             "rankone build: error: the following arguments are required: --config/-c"),
            (["verify", "-s", "{schedule}", "-o", "{out}", "--which", "bogus"],
             "rankone verify: error: argument --which: invalid choice: 'bogus'"),
            (["verify", "-s", "{schedule}", "-o", "{out}", "--which", "dissipative",
              "--jobs", "0"],
             "rankone verify: error: argument --jobs: 0 is not in the range x>=1"),
            (["verify", "-s", "{schedule}", "-o", "{out}", "--which", "dissipative",
              "--spot-checks", "-1"],
             "rankone verify: error: argument --spot-checks: -1 is not in the range x>=0"),
            (["verify", "-s", "{schedule}", "-o", "{out}", "--which", "dissipative",
              "--spot-checks", "2", "--seed", "x"],
             "rankone verify: error: argument --seed: invalid int value: 'x'"),
            (["build", "-c", "{directory}", "-o", "{out}"],
             "usage error: cannot read config {directory}: [Errno 21] Is a directory"),
            (["build", "-c", "{config}", "-o", "{file}"], "file error: [Errno 17] File exists"),
            (["verify", "-s", "{schedule}", "-o", "{file}", "--which", "dissipative"],
             "file error: [Errno 17] File exists"),
            (["profile", "-s", "{schedule}", "-o", "{file}"], "file error: [Errno 17] File exists"),
            (["density", "-s", "{schedule}", "-o", "{file}"], "file error: [Errno 17] File exists"),
            (["oracle", "-s", "{schedule}", "-o", "{file}"], "file error: [Errno 17] File exists"),
        ],
        ids=["no-command", "unknown-command", "unknown-option", "missing-config",
             "which-bogus", "jobs-0", "spot-checks-neg", "seed-not-int", "config-directory",
             "out-file-build", "out-file-verify", "out-file-profile", "out-file-density",
             "out-file-oracle"],
    )
    def test_exit_2_writes_nothing(self, built, tmp_path, args, said):
        paths = dict(out=tmp_path / "out", directory=tmp_path / "config_dir",
                     file=tmp_path / "file", config=CONFIGS / "desk.json",
                     schedule=built / "schedule.json")
        paths["directory"].mkdir()
        paths["file"].write_text("x")
        result = invoke(_filled(args, **paths))
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert _filled([said], **paths)[0] in result.stderr and not result.stdout
        assert sorted(tmp_path.iterdir()) == [paths["directory"], paths["file"]]
        assert not list(paths["directory"].iterdir()) and paths["file"].read_text() == "x"

    @pytest.mark.parametrize("command", ["", "build", "verify", "profile", "density", "oracle"])
    def test_help_exits_0(self, command):
        result = invoke([command, "--help"] if command else ["--help"])
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith(f"usage: rankone {command}".rstrip())
        assert not result.stderr


@pytest.fixture(scope="module")
def built_broken(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_broken")
    result = invoke(["build", "-c", str(CONFIGS / "broken.json"), "-o", str(out)])
    assert result.exit_code == 0, result.output
    return out / "schedule.json"


class TestEntryPoints:
    """``rankone`` runs ``sys.exit(main())`` on ``sys.argv``, ``python -m
    rankone.cli`` runs ``main()``, and a harness calls ``main.main(args=...,
    prog_name="rankone", standalone_mode=False)`` for one command in process;
    each ends with the command's exit code."""

    @pytest.mark.parametrize(
        "args, code",
        [(["verify", "-s", "{desk}", "-o", "{out}"], 0),
         (["verify", "-s", "{broken}", "-o", "{out}", "--which", "dissipative"], 3),
         (["profile", "-s", "{desk}", "-o", "{out}", "--window", "8"], 4)],
        ids=["desk", "broken", "horizon"],
    )
    def test_console_script(self, built_desk, built_broken, tmp_path, monkeypatch, capsys,
                            args, code):
        argv = _filled(args, desk=built_desk / "schedule.json", broken=built_broken,
                       out=tmp_path / "out")
        monkeypatch.setattr(sys, "argv", ["rankone", *argv])
        with pytest.raises(SystemExit) as exc:
            sys.exit(main())
        assert exc.value.code == code, capsys.readouterr()

    def test_module_run(self, built_broken, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rankone.cli", "verify", "-s", str(built_broken),
             "-o", str(tmp_path), "--which", "dissipative"],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert proc.stderr == "FAIL: at least one certificate failed\n"

    def test_in_process_call(self, built_desk, built_broken, tmp_path, capsys):
        args = ["verify", "-o", str(tmp_path), "--which", "dissipative", "-s"]
        with pytest.raises(SystemExit) as exc:
            main.main(args=[*args, str(built_broken)], prog_name="rankone",
                      standalone_mode=False)
        assert exc.value.code == 3
        assert main.main(args=[*args, str(built_desk / "schedule.json")], prog_name="rankone",
                         standalone_mode=False) is None
        assert capsys.readouterr().out.endswith("PASS: all requested certificates hold\n")


def test_committed_out_matches_a_fresh_run(tmp_path):
    """``out/`` is what ``build`` on the desk config and ``verify
    --spot-checks 50`` write, byte for byte."""
    repo = Path(__file__).resolve().parents[1]
    result = invoke(["build", "-c", str(repo / "configs" / "desk.json"), "-o", str(tmp_path)])
    assert result.exit_code == 0, result.output
    result = invoke(
        ["verify", "-s", str(tmp_path / "schedule.json"), "-o", str(tmp_path),
         "--spot-checks", "50"],
    )
    assert result.exit_code == 0, result.output
    committed = sorted(path.name for path in (repo / "out").iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == committed
    assert len(committed) == 6
    for name in committed:
        assert (tmp_path / name).read_bytes() == (repo / "out" / name).read_bytes(), name


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def test_long_build_refused_quickly(tmp_path):
    """Net points go to stages by a running count per ratio, so a 20,000-stage
    config reaches the digit-limit refusal at stage 119 without a quadratic walk."""
    cfg = write_config(tmp_path, {"stages": 20000})
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "build", "-c", str(cfg), "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=10,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "stage 119 has a number of more than 4300 digits" in proc.stderr


def test_long_build_refusal_cost_is_independent_of_stages(tmp_path):
    """Each stage's choice is made and checked as the stage is assembled, so
    a 200,000-stage config is refused at stage 119 without the start
    multiplier (2**j under the default gauge) of any stage above it."""
    cfg = write_config(tmp_path, {"stages": 200000})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "build", "-c", str(cfg), "-o", str(tmp_path / "out")],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "stage 119 has a number of more than 4300 digits" in proc.stderr
    assert elapsed < 2, elapsed


def test_cli_import_skips_heavy_modules(desk, tmp_path):
    """The process pool loads only where it is used; numpy and scipy load
    nowhere, not even in ``density``."""
    env = _src_env()
    schedule = tmp_path / "schedule.json"
    schedule.write_text(desk.to_json() + "\n")
    code = (
        "import sys, rankone.cli; "
        "print(sorted(m for m in ('numpy', 'scipy', 'concurrent.futures.process') "
        "if m in sys.modules)); "
        f"rankone.cli.main.main(args=['density', '-s', {str(schedule)!r}, "
        f"'-o', {str(tmp_path / 'out')!r}], standalone_mode=False); "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[1].startswith("density d=2/1: ")
    assert lines[2] == "[]"


def test_cli_import_adds_only_stdlib_and_rankone():
    """``import rankone.cli`` loads, beyond what the interpreter loaded at
    start-up (a site ``.pth`` file may import packages there), only standard
    library modules and the package's own: the install needs no dependency."""
    code = (
        "import sys; bare = set(sys.modules); import rankone.cli; "
        "print(sorted(m for m in set(sys.modules) - bare "
        "if m.partition('.')[0] not in sys.stdlib_module_names | {'rankone'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), check=True
    )
    assert proc.stdout == "[]\n"


def test_error_classes_one_per_exit_row():
    """``rankone.errors`` holds one class per row of ``_EXIT_CODES``, and
    each class is reported by its own row."""
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)]
    assert {cls.__name__ for cls in classes} == {
        "RankOneError", "EscalationExhausted", "HorizonExceeded", "NotDissipative"
    }
    for cls in classes:
        row = next(kind for kind, _, _ in _EXIT_CODES if issubclass(cls, kind))
        assert row is cls


def test_readme_command_options_exist():
    """Every option in README's "Command line" block exists on its
    subcommand, and the block shows every subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = next(
        action.choices for action in _parser("rankone")._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    shown = set()
    for line in block.splitlines():
        words = line.split("#")[0].split()
        assert words[0] == "rankone", line
        known = set(commands[words[1]]._option_string_actions)
        for word in words[2:]:
            if word.startswith("-"):
                assert word in known, f"{words[1]} has no option {word}"
        shown.add(words[1])
    assert shown == set(commands)
