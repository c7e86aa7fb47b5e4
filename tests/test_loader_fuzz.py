"""Fuzz the config and schedule loaders through the CLI.

One field of a small config or built schedule is replaced by a value of
the wrong kind. Every such input must either run or be rejected with one
of the documented exit codes; no other exception may escape.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankone.cli import main

CONFIG = {
    "targets": {"singular": ["3/2", "5/2"], "dissipative": ["2/1"]},
    "stages": 4,
    "policy": {"gauge": {"kind": "pow2"}, "max_retries": 6},
    "perturbation": {"net_depth": 1},
}

BAD_VALUES = [True, None, "1/0", "x", [], [None], ["1/0"], {"x": None}, {}]

EXIT_CODES = {0, 2, 3, 4}


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
    result = CliRunner().invoke(main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    assert result.exit_code in EXIT_CODES, result.output
    return result


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    result = CliRunner().invoke(main, ["build", "-c", str(cfg), "-o", str(tmp)])
    assert result.exit_code == 0, result.output
    return tmp


def test_unmutated_inputs_pass(work):
    result = _invoke(
        ["verify", "-s", str(work / "schedule.json"), "-o", str(work / "v"),
         "--which", "dissipative"]
    )
    assert result.exit_code == 0


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
