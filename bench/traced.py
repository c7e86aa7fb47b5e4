"""Traced run of one workload, all commands in this one process.

The public functions of the ``rankone`` modules that the per-layer metrics
need are wrapped from here, in every module that binds them by name, so
nothing under ``src/`` changes.  Each wrapper records a span (start, end
and the time its child spans cover, giving self time) and the counts of
its layer.  The commands run through the CLI's own entry point, the
outputs pass the same gate as the untraced run, and the per-layer metrics
are written as JSON to ``--result``.

Usage (normally started by run.py --trace 1):
    python3 bench/traced.py --workload deep --seed 1 --result r.json
    python3 bench/traced.py --workload deep --seed 1 --result r.json --untraced --stage-delta -1
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workload as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))


class Tracer:
    """Spans and counters of the wrapped functions, kept in memory."""

    def __init__(self):
        self.open_spans: list[float] = []  # child time covered, per open span
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.correlation_args: set = set()
        self.schedules: list = []

    def wrap(self, name: str, fn, after=None, span: bool = True):
        """Wrap ``fn``; calls and inclusive time count outermost calls only.

        A call without a span (``span=False``) is counted but its time
        stays in its caller's self time.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self.depth[name] == 0
            self.depth[name] += 1
            if span:
                self.open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self.depth[name] -= 1
                if span:
                    self.self_s[name] += dur - self.open_spans.pop()
                    if self.open_spans:
                        self.open_spans[-1] += dur
                if outer:
                    self.calls[name] += 1
                    self.total_s[name] += dur
            if outer and after is not None:
                after(result, *args)
            return result

        return wrapper

    # -- hooks run after an outermost call, with its result and arguments

    def on_correlation(self, result, a, b, t, sched):
        self.correlation_args.add((a, b, Fraction(t)))

    def counter(self, key: str, size):
        def hook(result, *args):
            self.counts[key] += size(result, *args)

        return hook

    def on_schedule(self, result, *args):
        self.schedules.append(result)

    def on_build(self, result, *args):
        self.counts["escalations"] += len(result.escalations)
        self.schedules.append(result)

    def cache_intervals(self) -> int:
        """Intervals held in the refinement caches of the schedules seen, then forget them."""
        n = sum(
            len(value)
            for sched in self.schedules
            for key, value in sched.runtime_cache.items()
            if isinstance(key, tuple) and key[0] == "levels"
        )
        self.schedules.clear()
        return n


def targets(tr: Tracer) -> list[tuple[str, str, object, bool]]:
    """(module, attribute, after-hook, span) of every wrapped function."""
    return [
        ("construction", "build_schedule", tr.on_build, True),
        ("construction", "Schedule.from_json", tr.on_schedule, True),
        ("levelset", "min_valid_stage", None, True),
        ("levelset", "correlation", tr.on_correlation, True),
        ("levelset", "correlation_profile", tr.counter("breakpoints", lambda r, *a: len(r.breakpoints)), True),
        ("levelset", "hitting_set", tr.counter("hitting_intervals", lambda r, *a: len(r)), False),
        ("levelset", "find_dissipativity_witness", tr.counter("witness_intervals", lambda r, *a: len(r)), True),
        ("exactnum", "IntervalSet.__init__", tr.counter("intervalset_intervals", lambda r, s, *a: len(s)), True),
        ("verify", "check_weak_limits", None, True),
        ("verify", "singularity_evidence", None, True),
        ("verify", "check_perturbed_limit", None, True),
        ("verify", "check_dissipativity", None, True),
        ("verify", "dissipativity_spot_check", None, True),
        ("verify", "spectral_density", None, True),
        ("verify", "hitting_report", None, True),
        ("oracle", "oracle_correlation", tr.counter("oracle_samples", lambda r, a, b, t, n, s: n), True),
    ]


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__init__', '.init')}"


def install(tr: Tracer, cache_only: bool) -> None:
    """Replace each target wherever a ``rankone`` module binds it."""
    import rankone.cli  # noqa: F401  (loads every module of the package)

    modules = [m for n, m in sys.modules.items() if n == "rankone" or n.startswith("rankone.")]
    for module, attr, after, span in targets(tr):
        if cache_only and after not in (tr.on_build, tr.on_schedule):
            continue
        name = metric_name(module, attr)
        mod = sys.modules[f"rankone.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tr.wrap(name, raw.__func__, after, span)))
            else:
                setattr(cls, meth, tr.wrap(name, raw, after, span))
            continue
        orig = getattr(mod, attr)
        wrapped = tr.wrap(name, orig, after, span)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is orig]:
                setattr(m, key, wrapped)


def run_command(argv: list[str], log) -> int:
    """One CLI command through click's entry point; returns its exit code."""
    from rankone.cli import main

    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            main.main(args=argv, prog_name="rankone", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # noqa: BLE001  (the run must report, not die)
            code = getattr(exc, "exit_code", None)
            if code is None:
                traceback.print_exc()
            return 1 if code is None else code
    return 0


def layer_metrics(tr: Tracer, traced_total: float, cache: int, spec: dict) -> dict:
    m = {}
    for module, attr, _, span in targets(tr):
        name = metric_name(module, attr)
        m[f"{name}.calls"] = tr.calls[name]
        m[f"{name}.s"] = tr.total_s[name]
        if span:
            m[f"{name}.self_s"] = tr.self_s[name]
    calls = tr.calls["levelset.correlation"]
    m["levelset.correlation.distinct_ratio"] = len(tr.correlation_args) / calls if calls else 0.0
    m["levelset.correlation_profile.breakpoints"] = tr.counts["breakpoints"]
    m["levelset.hitting_set.intervals"] = tr.counts["hitting_intervals"]
    m["levelset.find_dissipativity_witness.witness_intervals"] = tr.counts["witness_intervals"]
    m["levelset.cache_intervals"] = cache
    m["exactnum.IntervalSet.init.intervals"] = tr.counts["intervalset_intervals"]
    m["construction.escalations"] = tr.counts["escalations"]
    oracle_s = tr.total_s["oracle.oracle_correlation"]
    m["oracle.samples_per_s"] = tr.counts["oracle_samples"] / oracle_s if oracle_s else 0.0
    m["trace.total_s"] = traced_total
    m["trace.dominant_share"] = sum(m[k] for k in spec["dominant"]) / traced_total
    m["trace.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--untraced", action="store_true",
                    help="wrap only what counts the refinement cache: the reference "
                         "for the tracing overhead")
    ap.add_argument("--stage-delta", type=int, default=0,
                    help="shift every config's stage count; the gate is skipped "
                         "unless this is 0")
    args = ap.parse_args()

    spec = wl.load_spec()[args.workload]
    mode = "untraced" if args.untraced else "traced"
    work = wl.WORK / f"{args.workload}-{mode}{args.stage_delta or ''}"
    work.mkdir(parents=True, exist_ok=True)
    configs = wl.write_configs(spec, work, args.stage_delta)
    commands = [c for c in spec["commands"] if c.get("timed", True)]
    wl.reset_outputs(commands, work)
    seed = next(wl.pass_seeds(args.seed))

    tr = Tracer()
    install(tr, cache_only=args.untraced)
    total = 0.0
    cache = 0
    errors = []
    failed = 0
    with open(work / "commands.log", "w") as log:
        for cmd in commands:
            start = time.perf_counter()
            rc = run_command(wl.argv_for(cmd, work, configs, seed), log)
            total += time.perf_counter() - start
            cache += tr.cache_intervals()
            if args.stage_delta == 0:
                errs = wl.check_command(cmd, rc, work)
                failed += bool(errs)
                errors += [f"{mode} {cmd['label']}: {e}" for e in errs]

    result = {
        "total_s": total,
        "cache_intervals": cache,
        "attempted": len(commands) if args.stage_delta == 0 else 0,
        "failed": failed,
        "errors": errors,
    }
    if not args.untraced:
        result["metrics"] = layer_metrics(tr, total, cache, spec)
    args.result.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
