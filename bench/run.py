"""The rankone benchmark: one workload, end to end or traced by layer.

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's ``rankone`` commands (see
bench/workloads.json) in order, each a fresh ``python3 -m rankone.cli``
process started after the previous one exits, with ``src/`` of this
checkout on PYTHONPATH.  The whole sequence is a pass; passes repeat while
the next one is expected to end within ``--seconds`` (at least one), each
with a program seed drawn from ``--seed``, and every metric is the median
over passes.  Every command's exit code and reports go through the
correctness gate in bench/workload.py; ``failed`` counts the commands that
did not pass it.

``--trace 0`` prints the end-to-end metrics: the wall time of the whole
sequence, of each subcommand, CPU time and peak RSS of the commands, the
start-up time of ``rankone --help`` and the failure ratio.  ``--trace 1``
runs the sequence once in one process with every layer traced
(bench/traced.py), once untraced as the reference for the tracing overhead,
and once untraced at one stage fewer for the growth of the refinement
cache, and times ``import rankone.cli`` with ``-X importtime``; it prints
the per-layer metrics.  The last line of output is one JSON object with
the metrics that BENCHMARK.json lists for that mode; the other metrics are
printed above it by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workload as wl  # noqa: E402

SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
RUN_BUDGET_S = 170.0  # every command still running after this is killed

END_TO_END_UNITS = {
    "total_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "density_s": "s",
    "oracle_s": "s",
    "profile_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "fail_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("ratio", "per_stage", "share")):
        return "ratio"
    return "count"


class Client:
    """Runs rankone commands as fresh processes, one at a time."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(wl.SRC) + (os.pathsep + old if old else "")

    def run(self, args: list[str], log: Path, interpreter_args=()) -> dict:
        """Wall time, CPU time, peak RSS and exit code of one process.

        ``os.wait4`` gives the resource use of the process and of every
        process it waited for, such as the workers of ``--jobs``.
        """
        argv = [sys.executable, *interpreter_args, *args]
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=wl.ROOT, env=self.env, stdout=out, stderr=out)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }

    def rankone(self, args: list[str], log: Path) -> dict:
        return self.run(["-m", "rankone.cli", *args], log)


class Run:
    """One benchmark run of one workload; counts commands and gate failures."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.spec = wl.load_spec()[name]
        self.seed = seed
        self.client = Client(time.monotonic() + RUN_BUDGET_S)
        self.work = wl.WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.configs = wl.write_configs(self.spec, self.work)
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def gate(self, cmd: dict, rc: int) -> None:
        self.attempted += 1
        errs = wl.check_command(cmd, rc, self.work)
        self.failed += bool(errs)
        self.errors += [f"{cmd['label']}: {e}" for e in errs]

    def sequence(self, commands: list[dict], seed: int) -> tuple[float, list[tuple[dict, dict]]]:
        """Run the commands in order, then gate them.

        Returns the wall time from the first start to the last exit, and
        the (command, record) pairs.
        """
        wl.reset_outputs(commands, self.work)
        done = []
        start = time.perf_counter()
        for cmd in commands:
            args = wl.argv_for(cmd, self.work, self.configs, seed)
            done.append((cmd, self.client.rankone(args, self.work / f"{cmd['label']}.log")))
        wall = time.perf_counter() - start
        for cmd, rec in done:
            self.gate(cmd, rec["rc"])
        return wall, done

    def timed_pass(self, seed: int) -> dict:
        commands = [c for c in self.spec["commands"] if c.get("timed", True)]
        wall, done = self.sequence(commands, seed)
        metrics = {"total_s": wall}
        for cmd, rec in done:
            key = f"{cmd['argv'][0]}_s"
            metrics[key] = metrics.get(key, 0.0) + rec["wall_s"]
        metrics["cpu_s"] = sum(rec["cpu_s"] for _, rec in done)
        metrics["peak_rss_mb"] = max(rec["rss_mb"] for _, rec in done)
        return metrics

    def passes(self, seconds: float) -> list[dict]:
        """Timed passes while the next one is expected to end within ``seconds``."""
        seeds = wl.pass_seeds(self.seed)
        first = next(seeds)
        out = [self.timed_pass(first)]
        budget = min(seconds, RUN_BUDGET_S - 30)
        for seed in seeds:
            elapsed = sum(p["total_s"] for p in out)
            if elapsed * (len(out) + 1) / len(out) > budget:
                break
            out.append(self.timed_pass(seed))
        untimed = [c for c in self.spec["commands"] if not c.get("timed", True)]
        if untimed:
            self.sequence(untimed, first)
        return out

    def setup_s(self) -> float:
        """Median wall time of a fresh interpreter running ``rankone --help``."""
        walls = [
            self.client.rankone(["--help"], self.work / "help.log")["wall_s"]
            for _ in range(SETUP_RUNS)
        ]
        return statistics.median(walls)

    def import_times(self) -> dict:
        """``python -X importtime -c "import rankone.cli"``: total and scipy self time."""
        totals, scipy = [], []
        log = self.work / "importtime.log"
        for _ in range(IMPORTTIME_RUNS):
            self.client.run(["-c", "import rankone.cli"], log, ("-X", "importtime"))
            total = sp = 0
            for line in log.read_text().splitlines():
                parts = line.split("|")
                if not line.startswith("import time:") or not parts[0].split(":")[1].strip().isdigit():
                    continue
                self_us = int(parts[0].split(":")[1])
                module = parts[2].strip()
                total += self_us
                if module == "scipy" or module.startswith("scipy."):
                    sp += self_us
            totals.append(total / 1e6)
            scipy.append(sp / 1e6)
        return {"cli.import_s": statistics.median(totals), "cli.import_scipy_s": statistics.median(scipy)}

    def in_process(self, untraced: bool = False, stage_delta: int = 0) -> dict:
        """One pass in a single process through bench/traced.py; gated unless resized."""
        result = self.work / f"in_process-{untraced:d}{stage_delta}.json"
        args = [str(wl.BENCH / "traced.py"), "--workload", self.name, "--seed", str(self.seed),
                "--result", str(result), "--stage-delta", str(stage_delta)]
        log = self.work / "in_process.log"
        rec = self.client.run(args + (["--untraced"] if untraced else []), log)
        if rec["rc"] != 0:
            raise RuntimeError(f"in-process run failed (exit {rec['rc']}); see {log}")
        out = json.loads(result.read_text())
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors += out["errors"]
        return out


def end_to_end(run: Run, seconds: float) -> dict:
    passes = run.passes(seconds)
    metrics = {
        key: statistics.median(p[key] for p in passes)
        for key in passes[0]
        if key in END_TO_END_UNITS
    }
    metrics["setup_s"] = run.setup_s()
    print(f"workload {run.name}: {len(passes)} pass(es), medians over passes")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def per_layer(run: Run) -> dict:
    traced = run.in_process()
    untraced = run.in_process(untraced=True)
    fewer = run.in_process(untraced=True, stage_delta=-1)
    metrics = traced["metrics"]
    metrics["levelset.cache_growth_per_stage"] = (
        untraced["cache_intervals"] / fewer["cache_intervals"] if fewer["cache_intervals"] else 0.0
    )
    metrics["trace.overhead_ratio"] = traced["total_s"] / untraced["total_s"]
    metrics.update(run.import_times())
    return {name: (value, layer_unit(name)) for name, value in sorted(metrics.items())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    specs = wl.load_spec()
    if args.workload not in specs:
        print(f"unknown workload {args.workload}; have {sorted(specs)}", file=sys.stderr)
        return 2
    missing = wl.missing_inputs(specs[args.workload])
    if missing:
        print(f"this checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    # one untimed start first, so compiling bytecode is not timed
    run.client.rankone(["--help"], run.work / "help.log")
    metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    metrics["fail_ratio"] = (run.failed / run.attempted, END_TO_END_UNITS["fail_ratio"])

    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:>16.6f} {unit}")
    for err in run.errors:
        print(f"FAILED {err}")
    listed = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
