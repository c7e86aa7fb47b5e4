import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rankone.cli import main

BASE_CONFIG = {
    "targets": {"singular": ["3/2", "5/2"], "dissipative": ["2/1", "3/1"]},
    "stages": 6,
}


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


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_build")
    cfg = write_config(tmp)
    out = tmp / "out"
    result = CliRunner().invoke(main, ["build", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    return out


class TestBuild:
    def test_writes_schedule_and_log(self, built):
        sched = json.loads((built / "schedule.json").read_text())
        assert len(sched["stages"]) == 6
        log = json.loads((built / "build_log.json").read_text())
        assert log["certified_windows"] == [1, 2, 3, 4]

    def test_round_trip_bit_exact(self, built):
        from rankone import Schedule

        text = (built / "schedule.json").read_text()
        sched = Schedule.from_json(text)
        assert sched.to_json() + "\n" == text

    def test_short_schedule_reports_no_windows(self, tmp_path):
        cfg = write_config(tmp_path, {"stages": 2, "targets": {"dissipative": []}})
        result = CliRunner().invoke(
            main, ["build", "-c", str(cfg), "-o", str(tmp_path / "out")]
        )
        assert result.exit_code == 0
        assert "no certified windows" in result.output

    def test_overlapping_targets_exit_2(self, tmp_path):
        cfg = write_config(
            tmp_path, {"targets": {"singular": ["2/1"], "dissipative": ["2/1"]}}
        )
        result = CliRunner().invoke(
            main, ["build", "-c", str(cfg), "-o", str(tmp_path / "out")]
        )
        assert result.exit_code == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"stages": 4, "bogus": 1}))
        result = CliRunner().invoke(
            main, ["build", "-c", str(cfg), "-o", str(tmp_path / "out")]
        )
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
        result = CliRunner().invoke(
            main, ["build", "-c", str(cfg), "-o", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert "escalation exhausted" in result.output


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


class TestLoaderErrors:
    @pytest.mark.parametrize(
        "command, path, value",
        [
            ("verify", ("stages",), 5),
            ("verify", ("stages", 0, "spacers", 1), "1/0"),
            ("verify", ("targets", "entry_stages"), ["2/1", 2]),
            ("verify", ("policy", "gauge"), None),
            ("build", ("base_width",), "1/0"),
        ],
        ids=["stages-int", "spacer-1/0", "entry-stages-list", "gauge-null",
             "base-width-1/0"],
    )
    def test_malformed_input_exit_2(self, built, tmp_path, command, path, value):
        if command == "verify":
            doc = json.loads((built / "schedule.json").read_text())
            _set_path(doc, path, value)
            src = tmp_path / "schedule.json"
            src.write_text(json.dumps(doc))
            args = ["verify", "-s", str(src), "--which", "dissipative"]
        else:
            src = write_config(tmp_path, {path[0]: value})
            args = ["build", "-c", str(src)]
        result = CliRunner().invoke(main, args + ["-o", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error" in result.output

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
        result = CliRunner().invoke(
            main, ["build", "-c", str(cfg), "-o", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert "Additional properties" in result.output


class TestVerify:
    def test_all_pass_exit_0(self, built):
        result = CliRunner().invoke(
            main, ["verify", "-s", str(built / "schedule.json"), "-o", str(built)]
        )
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        assert (built / "weak_limits.json").exists()
        assert (built / "dissipativity.json").exists()

    def test_deterministic_reports(self, built, tmp_path):
        args = ["verify", "-s", str(built / "schedule.json")]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert CliRunner().invoke(main, args + ["-o", str(out1)]).exit_code == 0
        assert CliRunner().invoke(main, args + ["-o", str(out2)]).exit_code == 0
        for name in ("weak_limits.json", "dissipativity.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_broken_schedule_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "policy": {"top_spacer": {"mode": "collide", "collide_ratio": "2/1"}},
                "certify": False,
            },
        )
        out = tmp_path / "out"
        assert CliRunner().invoke(main, ["build", "-c", str(cfg), "-o", str(out)]).exit_code == 0
        result = CliRunner().invoke(
            main,
            ["verify", "-s", str(out / "schedule.json"), "-o", str(out),
             "--which", "dissipative"],
        )
        assert result.exit_code == 3
        report = json.loads((out / "dissipativity.json").read_text())
        assert any(w["witness"] for r in report for w in r["windows"])

    def test_foreign_ratio_exit_2(self, built):
        result = CliRunner().invoke(
            main,
            ["verify", "-s", str(built / "schedule.json"), "-o", str(built),
             "--which", "singular", "--ratio", "7/2"],
        )
        assert result.exit_code == 2

    def test_jobs_parallel_matches(self, built, tmp_path):
        out = tmp_path / "parallel"
        result = CliRunner().invoke(
            main,
            ["verify", "-s", str(built / "schedule.json"), "-o", str(out),
             "--which", "dissipative", "--jobs", "2"],
        )
        assert result.exit_code == 0, result.output
        seq = tmp_path / "sequential"
        result = CliRunner().invoke(
            main,
            ["verify", "-s", str(built / "schedule.json"), "-o", str(seq),
             "--which", "dissipative", "--jobs", "1"],
        )
        assert result.exit_code == 0, result.output
        assert (seq / "dissipativity.json").read_bytes() == (
            out / "dissipativity.json"
        ).read_bytes()

    def test_missing_schedule_exit_2(self, tmp_path):
        result = CliRunner().invoke(
            main, ["verify", "-s", str(tmp_path / "nope.json"), "-o", str(tmp_path)]
        )
        assert result.exit_code == 2

    def test_perturbed_on_base_schedule_exit_2(self, built):
        result = CliRunner().invoke(
            main,
            ["verify", "-s", str(built / "schedule.json"), "-o", str(built),
             "--which", "perturbed"],
        )
        assert result.exit_code == 2


class TestPerturbedVerify:
    def test_perturbed_all(self, tmp_path):
        cfg = write_config(tmp_path, {"perturbation": {"net_depth": 1}, "stages": 6})
        out = tmp_path / "out"
        assert CliRunner().invoke(main, ["build", "-c", str(cfg), "-o", str(out)]).exit_code == 0
        result = CliRunner().invoke(
            main,
            ["verify", "-s", str(out / "schedule.json"), "-o", str(out),
             "--which", "perturbed"],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "perturbed_limits.json").read_text())
        assert report and all(r["passed"] for r in report)


class TestArtifacts:
    def test_profile_csv(self, built, tmp_path):
        out = tmp_path / "prof"
        result = CliRunner().invoke(
            main,
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

    def test_density_csv_and_mass(self, built, tmp_path):
        out = tmp_path / "dens"
        result = CliRunner().invoke(
            main,
            ["density", "-s", str(built / "schedule.json"), "-o", str(out),
             "--ratio", "2/1", "--s-max", "60", "--samples", "1201"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "density.json").read_text())
        assert abs(summary["mass_range_value"] - 1.0) < 0.01
        assert summary["min_density"] >= -1e-6
        rows = (out / "density.csv").read_text().strip().splitlines()
        assert rows[0] == "s,density" and len(rows) == 1202

    def test_density_on_broken_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "policy": {"top_spacer": {"mode": "collide", "collide_ratio": "2/1"}},
                "certify": False,
            },
        )
        out = tmp_path / "out"
        CliRunner().invoke(main, ["build", "-c", str(cfg), "-o", str(out)])
        result = CliRunner().invoke(
            main, ["density", "-s", str(out / "schedule.json"), "-o", str(out)]
        )
        assert result.exit_code == 3

    def test_oracle_table(self, built, tmp_path):
        out = tmp_path / "oracle"
        result = CliRunner().invoke(
            main,
            ["oracle", "-s", str(built / "schedule.json"), "-o", str(out),
             "--triples", "6", "--samples", "500", "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        rows = (out / "oracle.csv").read_text().strip().splitlines()
        assert len(rows) == 7
        assert all(row.endswith("True") for row in rows[1:])


def test_cli_import_skips_heavy_modules():
    """numpy, scipy and jsonschema load only in the commands that use them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, rankone.cli; "
        "print(sorted(m for m in ('numpy', 'scipy', 'jsonschema') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
