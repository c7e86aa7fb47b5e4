"""Fuzz the config and schedule loaders through the CLI.

One field of a small config or built schedule is replaced by a value of
the wrong kind. Every such input must either run or be rejected with one
of the documented exit codes; no other exception may escape. A pinned
table fixes the exit code of every one-field mutation of a full config.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import invoke

CONFIG = {
    "targets": {"singular": ["3/2", "5/2"], "dissipative": ["2/1"]},
    "stages": 4,
    "policy": {"gauge": {"kind": "pow2"}, "max_retries": 6},
    "perturbation": {"net_depth": 1},
}

BAD_VALUES = [True, None, "1/0", "x", [], [None], ["1/0"], {"x": None}, {}]

EXIT_CODES = {0, 2, 3, 4}

# a 4-stage config with every key spelled out, mutated one field at a time
FULL_CONFIG = {
    "base_width": "1/1",
    "base_height": "1/1",
    "targets": {"singular": ["3/2", "5/2"], "dissipative": ["2/1"], "entry_stages": None},
    "stages": 4,
    "policy": {
        "gauge": {"kind": "pow2", "floor": "16/1", "values": []},
        "initial_multiplier": "1/1",
        "escalation_factor": "2/1",
        "max_retries": 6,
        "top_spacer": {"mode": "multiplier", "collide_ratio": "2/1"},
    },
    "perturbation": None,
    "certify": True,
}

MUTATION_VALUES = BAD_VALUES + [
    1, 2, 0, -1, 2.5, "1.5", " 3/2", "+3/2", "1e1", "4", "2/1", "3/2", "1_0/1",
]

# The exit code of `build` per mutated path, one digit per entry of
# MUTATION_VALUES. Recorded while a JSON schema still checked configs ahead
# of the construction parsers; those parsers alone must reproduce it.
PINNED_EXITS = {
    "base_width": "2222222222222222220002",
    "base_height": "2222222222222222220002",
    "targets": "2222222202222222222222",
    "targets.singular": "2222222222222222222222",
    "targets.singular.0": "2222222222222222220202",
    "targets.singular.1": "2222222222222222220222",
    "targets.dissipative": "2222022222222222222222",
    "targets.dissipative.0": "2222222222222222220022",
    "targets.entry_stages": "2022222202222222222222",
    "stages": "2222222220022222222222",
    "policy": "2222222202222222222222",
    "policy.gauge": "2222222202222222222222",
    "policy.gauge.kind": "2222222222222222222222",
    "policy.gauge.floor": "2222222222222222220002",
    "policy.gauge.values": "2222022222222222222222",
    "policy.initial_multiplier": "2222222222222222220002",
    "policy.escalation_factor": "2222222222222222220002",
    "policy.max_retries": "2222222220002222222222",
    "policy.top_spacer": "2222222202222222222222",
    "policy.top_spacer.mode": "2222222222222222222222",
    "policy.top_spacer.collide_ratio": "2222222222222222222022",
    "perturbation": "2022222202222222222222",
    "certify": "0222222222222222222222",
}

# blocks that get one unknown key; each such config exits 2
UNKNOWN_KEY_BLOCKS = [
    (), ("targets",), ("policy",), ("policy", "gauge"), ("policy", "top_spacer"),
    ("perturbation",),
]


def _paths(doc, prefix=()):
    """Every key or index path into a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)) and val:
            yield from _paths(val, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _invoke(args):
    result = invoke(args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    assert result.exit_code in EXIT_CODES, result.output
    return result


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    result = invoke(["build", "-c", str(cfg), "-o", str(tmp)])
    assert result.exit_code == 0, result.output
    return tmp


def test_unmutated_inputs_pass(work):
    result = _invoke(
        ["verify", "-s", str(work / "schedule.json"), "-o", str(work / "v"),
         "--which", "dissipative"]
    )
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["profile", "--samples", "0"],
        ["profile", "--samples", "-1"],
        ["verify", "--which", "dissipative", "--jobs", "0"],
        ["verify", "--which", "dissipative", "--jobs", "-1"],
        ["verify", "--which", "dissipative", "--spot-checks", "-1"],
        ["oracle", "--triples", "0"],
        ["oracle", "--triples", "-1"],
        ["oracle", "--t-max-stage", "0"],
        ["oracle", "--t-max-stage", "-1"],
        ["density", "--s-max", "nan"],
        ["density", "--s-max", "inf"],
        ["density", "--mass-s", "4000"],
        ["density", "--samples", "4"],
        ["density", "--samples", "1"],
        ["oracle", "--samples", "0"],
    ],
    ids=["samples-0", "samples-neg", "jobs-0", "jobs-neg", "spot-checks-neg",
         "triples-0", "triples-neg", "t-max-stage-0", "t-max-stage-neg", "s-max-nan", "s-max-inf", "mass-s-removed",
         "density-samples-even", "density-samples-1", "oracle-samples-0"],
)
def test_out_of_range_options_exit_2(work, args):
    result = _invoke(
        [args[0], "-s", str(work / "schedule.json"), "-o", str(work / "r"), *args[1:]]
    )
    assert result.exit_code == 2, result.output


def _pinned_cases():
    for dotted, codes in PINNED_EXITS.items():
        path = tuple(int(k) if k.isdigit() else k for k in dotted.split("."))
        for value, code in zip(MUTATION_VALUES, codes, strict=True):
            yield pytest.param(
                _mutated(FULL_CONFIG, path, value), int(code), id=f"{dotted}={value!r}"
            )
    for block in UNKNOWN_KEY_BLOCKS:
        doc = _mutated(FULL_CONFIG, ("perturbation",), {"net_depth": 1})
        node = doc
        for key in block:
            node = node[key]
        node["bogus"] = 1
        yield pytest.param(doc, 2, id=f"{'.'.join(block) or 'top'}+bogus")


def test_pinned_table_covers_every_path():
    assert list(PINNED_EXITS) == [".".join(map(str, p)) for p in _paths(FULL_CONFIG)]


@pytest.mark.parametrize("config, code", _pinned_cases())
def test_pinned_config_mutation_exit_code(work, config, code):
    src = work / "pinned_config.json"
    src.write_text(json.dumps(config))
    result = _invoke(["build", "-c", str(src), "-o", str(work / "p")])
    assert result.exit_code == code, result.output
    if code:
        assert "error" in result.output


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), value=st.sampled_from(BAD_VALUES))
def test_mutated_schedule_exit_codes(work, data, value):
    doc = json.loads((work / "schedule.json").read_text())
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    src = work / "mutated_schedule.json"
    src.write_text(json.dumps(_mutated(doc, path, value)))
    _invoke(["verify", "-s", str(src), "-o", str(work / "m"), "--which", "dissipative"])


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(path=st.sampled_from(sorted(_paths(CONFIG), key=repr)),
       value=st.sampled_from(BAD_VALUES))
def test_mutated_config_exit_codes(work, path, value):
    src = work / "mutated_config.json"
    src.write_text(json.dumps(_mutated(CONFIG, path, value)))
    _invoke(["build", "-c", str(src), "-o", str(work / "b")])
