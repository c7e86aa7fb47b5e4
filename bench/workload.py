"""Workload specs and the correctness gate shared by the benchmark's runners.

``workloads.json`` is the single source of every workload: its configs, the
``rankone`` commands it runs in order, and what each command must produce.
This module turns a spec into concrete argument lists and checks a
command's exit code and report files against it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
from pathlib import Path
from typing import Iterator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# density.json floats come from numpy/scipy transcendental functions whose
# SIMD code paths may differ in the last bits between CPUs; they are compared
# to the recorded values with this relative tolerance and the exact fields
# are digested.
DENSITY_FLOATS = ("density_at_zero", "min_density", "mass_range_value", "mass_trapezoid")
FLOAT_RTOL = 1e-9


def load_spec() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())["workloads"]


def missing_inputs(spec: dict) -> list[str]:
    """Repository files a workload needs that this checkout lacks."""
    need = [SRC / "rankone" / "cli.py"]
    need += [ROOT / c["base"] for c in spec["configs"].values() if c.get("base")]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]


def write_configs(spec: dict, work: Path, stage_delta: int = 0) -> dict[str, Path]:
    """Write each config of the workload into ``work``; return name -> path.

    A config is a base file of the repository merged with ``set``; a
    nonzero ``stage_delta`` shifts its stage count (used to measure how the
    refinement cache grows per stage).
    """
    paths = {}
    for name, c in spec["configs"].items():
        cfg = json.loads((ROOT / c["base"]).read_text()) if c.get("base") else {}
        cfg.update(c.get("set", {}))
        cfg["stages"] += stage_delta
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        paths[name] = path
    return paths


def pass_seeds(seed: int) -> Iterator[int]:
    """Program seeds of successive passes, all drawn from the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def out_dir(work: Path, label: str) -> Path:
    return work / "out" / label


def argv_for(cmd: dict, work: Path, configs: dict[str, Path], seed: int) -> list[str]:
    """Expand ``{out}``, ``{seed}``, ``{config:NAME}`` and ``{schedule:LABEL}``."""
    out = []
    for arg in cmd["argv"]:
        if arg == "{out}":
            arg = str(out_dir(work, cmd["label"]))
        elif arg == "{seed}":
            arg = str(seed)
        elif arg.startswith("{config:"):
            arg = str(configs[arg[8:-1]])
        elif arg.startswith("{schedule:"):
            arg = str(out_dir(work, arg[10:-1]) / "schedule.json")
        out.append(arg)
    return out


def reset_outputs(commands: list[dict], work: Path) -> None:
    for cmd in commands:
        shutil.rmtree(out_dir(work, cmd["label"]), ignore_errors=True)


# --------------------------------------------------------------------------
# the gate


def report_digest(path: Path) -> tuple[str, dict]:
    """sha256 of a report, without its seed-driven or floating parts.

    Spot checks are stripped from ``dissipativity.json`` and the floats of
    ``density.json`` are returned separately; both files are re-serialized
    the way the CLI writes them.  Every other report is digested as bytes.
    """
    raw = path.read_bytes()
    floats: dict = {}
    if path.name in ("dissipativity.json", "density.json"):
        data = json.loads(raw)
        if path.name == "dissipativity.json":
            for rep in data:
                rep.pop("spot_checks", None)
        else:
            floats = {k: data.pop(k) for k in DENSITY_FLOATS}
        raw = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(raw).hexdigest(), floats


def _check_digests(cmd: dict, out: Path) -> list[str]:
    errors = []
    for name, want in cmd.get("digests", {}).items():
        path = out / name
        if not path.is_file():
            errors.append(f"{name} missing")
            continue
        got, floats = report_digest(path)
        if got != want:
            errors.append(f"{name} digest {got[:12]} != recorded {str(want)[:12]}")
        for key, value in floats.items():
            ref = cmd["density_floats"][key]
            if not math.isclose(value, ref, rel_tol=FLOAT_RTOL, abs_tol=1e-300):
                errors.append(f"{name} {key} {value!r} != recorded {ref!r}")
    return errors


def _check_singular(want: str, out: Path) -> list[str]:
    summary = (out / "verify_summary.txt").read_text().splitlines()
    got = summary[0].split()[1] if summary and summary[0].startswith("singular:") else None
    return [] if got == want else [f"singular checks {got} != {want}"]


def _check_dissipative(want: dict, spot: int | None, out: Path) -> list[str]:
    """Nonempty witness windows per ratio must match; spot checks must be clean."""
    errors = []
    reports = {r["ratio"]: r for r in json.loads((out / "dissipativity.json").read_text())}
    if sorted(reports) != sorted(want):
        return [f"dissipative ratios {sorted(reports)} != {sorted(want)}"]
    for ratio, windows in want.items():
        rep = reports[ratio]
        got = [w["window"] for w in rep["windows"] if not w["empty"]]
        if got != windows or rep["passed"] != (not windows):
            errors.append(f"d={ratio}: witness windows {got} != {windows}")
        if spot is not None:
            sc = rep.get("spot_checks", {})
            if sc.get("failures") != [] or sc.get("checked") != spot * len(rep["windows"]):
                errors.append(f"d={ratio}: spot checks {sc}")
    return errors


def _check_density(rule: dict, out: Path) -> list[str]:
    summary = json.loads((out / "density.json").read_text())
    errors = []
    if not summary["min_density"] >= rule["min_density"]:
        errors.append(f"density minimum {summary['min_density']}")
    if not abs(summary["mass_range_value"] - 1) <= rule["mass_rtol"]:
        errors.append(f"density mass {summary['mass_range_value']}")
    return errors


def _check_oracle(rows_wanted: int, out: Path) -> list[str]:
    """Every oracle row must lie within its deterministic bound."""
    lines = (out / "oracle.csv").read_text().splitlines()[1:]
    errors = [] if len(lines) == rows_wanted else [f"{len(lines)} oracle rows"]
    for line in lines:
        *_, exact, est, bound, ok = line.split(",")
        exact, est, bound = float(exact), float(est), float(bound)
        if ok != "True" or abs(est - exact) > bound * (1 + 1e-9):
            errors.append(f"oracle row outside its bound: {line}")
    return errors


def check_command(cmd: dict, rc: int | None, work: Path) -> list[str]:
    """Every way the command's exit code or reports differ from its spec."""
    if rc != cmd["exit"]:
        return [f"exit code {rc} != {cmd['exit']}"]
    out = out_dir(work, cmd["label"])
    try:
        errors = _check_digests(cmd, out)
        if "singular" in cmd:
            errors += _check_singular(cmd["singular"], out)
        if "dissipative" in cmd:
            errors += _check_dissipative(cmd["dissipative"], cmd.get("spot_checks"), out)
        if "density" in cmd:
            errors += _check_density(cmd["density"], out)
        if "oracle_rows" in cmd:
            errors += _check_oracle(cmd["oracle_rows"], out)
        for other, names in cmd.get("same_as", {}).items():
            for name in names:
                if (out / name).read_bytes() != (out_dir(work, other) / name).read_bytes():
                    errors.append(f"{name} differs from the one of {other}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        errors = [f"unreadable report: {exc!r}"]
    return errors
