"""Self-test of the benchmark on the two-stage ``tiny`` schedule.

    python3 bench/selftest.py

Runs bench/run.py on the ``tiny`` workload in both modes and checks that
every metric BENCHMARK.json lists is emitted with its unit, that every
end-to-end metric is printed by name, and that the correctness gate passes
the real reports and trips on tampered ones.  Takes about 15 seconds.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workload as wl  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_tiny(trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH / "run.py"), "--workload", "tiny", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode == 0, f"--trace {trace}: exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def check_emitted(trace: int, listed: list[dict]) -> list[str]:
    lines, result = run_tiny(trace)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"--trace {trace}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"--trace {trace}: gate passes on tiny ({result['failed']}/{result['attempted']} failed)")
    for m in listed:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              f"--trace {trace}: {m['name']} emitted in {m['unit']}")
    return lines


def check_gate_trips() -> None:
    spec = wl.load_spec()
    tiny = {c["label"]: c for c in spec["tiny"]["commands"]}
    work = wl.WORK / "tiny-tamper"
    shutil.rmtree(work, ignore_errors=True)
    for label in ("build", "profile"):
        shutil.copytree(wl.out_dir(wl.WORK / "tiny", label), wl.out_dir(work, label))
        check(wl.check_command(tiny[label], 0, work) == [], f"gate passes the real {label} reports")

    sched = wl.out_dir(work, "build") / "schedule.json"
    sched.write_text(sched.read_text().replace('"3/2"', '"5/2"', 1))
    check(wl.check_command(tiny["build"], 0, work) != [], "gate trips on a tampered schedule.json")
    check(wl.check_command(tiny["profile"], 2, work) != [], "gate trips on a wrong exit code")
    (wl.out_dir(work, "profile") / "profile.json").unlink()
    check(wl.check_command(tiny["profile"], 0, work) != [], "gate trips on a missing report")

    desk = {c["label"]: c for c in spec["desk"]["commands"]}
    oracle = wl.out_dir(work, "oracle")
    oracle.mkdir(parents=True)
    header = "name_a,name_b,t,exact,oracle,bound,ok\n"
    row = "stage1_full,stage1_full,1.0e+00,5.0e-01,5.1e-01,{bound},True\n"
    (oracle / "oracle.csv").write_text(header + row.format(bound="2.0e-02") * 12)
    check(wl.check_command(desk["oracle"], 0, work) == [], "gate passes oracle rows within their bound")
    (oracle / "oracle.csv").write_text(header + row.format(bound="2.0e-02") * 11 + row.format(bound="1.0e-03"))
    check(wl.check_command(desk["oracle"], 0, work) != [], "gate trips on an oracle row outside its bound")

    density = wl.out_dir(work, "density")
    density.mkdir(parents=True)
    summary = {**dict.fromkeys(wl.DENSITY_FLOATS, 0.0), "min_density": -1e-3, "mass_range_value": 0.9}
    (density / "density.json").write_text(json.dumps(summary))
    errors = wl.check_command(desk["density"], 0, work)
    check(any("minimum" in e for e in errors) and any("mass" in e for e in errors),
          "gate trips on a negative density and a wrong mass")


def main() -> int:
    listed = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    lines = check_emitted(0, listed["end_to_end"])
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in run.END_TO_END_UNITS.items():
        check(printed.get(name) == unit, f"--trace 0: {name} printed in {unit}")
    check_emitted(1, listed["per_layer"])
    check_gate_trips()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
