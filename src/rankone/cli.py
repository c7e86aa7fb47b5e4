"""Command-line front door: build schedules, run certificates, emit reports.

Exit codes: 0 all requested certificates pass; 2 usage/config errors
(including escalation exhaustion at build time and a requested certificate
the schedule is too short to check); 3 certificate failure;
4 flow time beyond the built horizon.  ``_EXIT_CODES`` maps every error a
subcommand raises to its code; a failed certificate exits 3 explicitly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from .construction import (
    PerturbationSpec,
    Schedule,
    StagePolicy,
    TargetSets,
    build_schedule,
    field_reader,
    read_bool,
    read_int,
    read_json,
    read_object,
    read_rat,
    write_block,
)
from .errors import EscalationExhausted, HorizonExceeded, NotDissipative, RankOneError
from .exactnum import denominator_lcm, rat_str
from .levelset import base_slab, correlation, correlation_profile, horizon
from .oracle import oracle_correlation
from .verify import (
    DENSITY_S_MAX,
    DENSITY_SAMPLES,
    check_dissipativity,
    check_perturbed_limit,
    default_pair_family,
    dissipativity_spot_check,
    hitting_report,
    shortfall,
    spectral_density,
    weak_limits,
)

DEFAULT_CONFIG: dict = {
    "base_width": "1/1",
    "base_height": "1/1",
    "targets": {
        "singular": ["3/2", "5/2"],
        "dissipative": ["2/1", "3/1"],
        "entry_stages": None,
    },
    "stages": 8,
    "policy": write_block(StagePolicy()),
    "perturbation": None,
    "certify": True,
}

def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            out[key] = _merge(base[key], val)
        else:
            out[key] = val
    return out


# what parsing a malformed config or schedule document raises; one nested
# past the recursion limit raises RecursionError as it is parsed, or as a
# reader prints a value it refuses
_MALFORMED = (ValueError, TypeError, RecursionError)


def load_config(path: str | Path) -> dict:
    try:
        raw = read_object(read_json(Path(path).read_text()))
    except (OSError, *_MALFORMED) as exc:
        raise RankOneError(f"cannot read config {path}: {exc}") from exc
    return _merge(DEFAULT_CONFIG, raw)


def schedule_from_config(cfg: dict) -> Schedule:
    try:
        args = read_object(cfg, dict(
            base_width=read_rat, base_height=read_rat, stages=read_int, certify=read_bool,
            targets=TargetSets.from_dict, policy=StagePolicy.from_dict,
            perturbation=field_reader(PerturbationSpec | None),
        ))
    except _MALFORMED as exc:
        raise RankOneError(f"invalid config: {exc}") from exc
    return build_schedule(j_max=args.pop("stages"), **args)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_schedule(path: str) -> Schedule:
    try:
        return Schedule.from_json(Path(path).read_text())
    except (OSError, *_MALFORMED) as exc:
        raise RankOneError(f"cannot load schedule {path}: {exc}") from exc


_EXIT_CODES = (
    (HorizonExceeded, 4, "horizon exceeded"),
    (NotDissipative, 3, "not dissipative"),
    (EscalationExhausted, 2, "escalation exhausted"),
    (RankOneError, 2, "usage error"),
    (ValueError, 2, "usage error"),
    (OSError, 2, "file error"),
    (OverflowError, 2, "beyond the float range"),
)


def main(args: list[str] | None = None, prog_name: str = "rankone",
         standalone_mode: bool = True) -> None:
    """Run one subcommand on ``args`` (default ``sys.argv[1:]``).  A usage error
    exits 2 and a raised error exits with its ``_EXIT_CODES`` code, by ``SystemExit``;
    success exits 0 in ``standalone_mode`` and otherwise returns."""
    options = vars(_parser(prog_name).parse_args(args))
    command = options.pop("command")
    try:
        command(**options)
    except tuple(kind for kind, _, _ in _EXIT_CODES) as exc:
        code, label = next(row[1:] for row in _EXIT_CODES if isinstance(exc, row[0]))
        print(f"{label}: {exc}", file=sys.stderr)
        sys.exit(code)
    if standalone_mode:
        sys.exit(0)


main.main = main  # one command in process: main.main(args=[...], standalone_mode=False)


def _at_least(low: int):
    """The ``add_argument`` type of an integer option that is at least ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is not in the range x>={low}")
        return int(text)
    return integer


def _parser(prog: str) -> argparse.ArgumentParser:
    """One subparser per command; each option is its flags, then its ``add_argument`` keywords."""
    schedule = ("--schedule", "-s", dict(default="out/schedule.json"))
    out = ("--out", "-o", dict(default="out"))
    options = {
        build: [("--config", "-c", dict(required=True)), out],
        verify: [
            schedule, out,
            ("--which", dict(choices=["singular", "dissipative", "perturbed", "all"],
                             default="all")),
            ("--jobs", dict(default=1, type=_at_least(1))),
            ("--seed", dict(type=int, help="seeds the spot checks (default 0)")),
            ("--spot-checks", dict(default=0, type=_at_least(0), help="random times per window")),
            ("--ratio", dict(help="keep the selected kinds whose targets hold this ratio (p/q)")),
        ],
        profile: [
            schedule, out,
            ("--t-min", dict(default="0/1")),
            ("--t-max", dict(help="defaults to the height of tower 2 or the horizon, "
                                  "whichever is lower")),
            ("--samples", dict(default=512, type=_at_least(1))),
            ("--window", dict(dest="window_index", type=int,
                              help="emit the hitting report for window [h_j, h_{j+1}]")),
        ],
        density: [
            schedule, out,
            ("--ratio", "-d", dict(default="2/1")),
            ("--s-max", dict(default=DENSITY_S_MAX, type=float)),
            ("--samples", dict(default=DENSITY_SAMPLES, type=int)),
        ],
        oracle: [
            schedule, out,
            ("--triples", dict(default=12, type=_at_least(1))),
            ("--samples", dict(default=2000, type=_at_least(1))),
            ("--seed", dict(default=0, type=int)),
            ("--t-max-stage", dict(default=3, type=_at_least(1),
                                   help="triple i draws its time from [0, h_k], k = 1 + i "
                                        "mod this, capped at the built stages")),
        ],
    }
    parser = argparse.ArgumentParser(prog, description=__doc__.split("\n")[0], allow_abbrev=False)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for fn, fn_options in options.items():
        sub = commands.add_parser(fn.__name__, help=fn.__doc__.split("\n")[0],
                                  description=fn.__doc__, allow_abbrev=False)
        sub.set_defaults(command=fn)
        for *flags, keywords in fn_options:
            sub.add_argument(*flags, **keywords)
    return parser


def build(config, out):
    """Build a schedule from a JSON config and write it as schedule.json."""
    out_dir = Path(out)
    sched = schedule_from_config(load_config(config))
    _write_json(out_dir / "schedule.json", sched.to_dict())
    if not sched.certified_windows():
        print("built schedule: no certified windows (schedule too short)", flush=True)
    else:
        print(
            f"built {sched.num_stages} stages; certified windows "
            f"{sched.certified_windows()[0]}..{sched.certified_windows()[-1]}; "
            f"{len(sched.escalations)} escalations", flush=True
        )


def _echo(lines: list[str], text: str) -> None:
    lines.append(text)
    print(text, flush=True)


def _verify_plan(sched, which: str, ratio: str | None) -> dict[str, tuple]:
    """The certificate kinds ``verify`` runs, each with the ratios it checks.

    On a perturbed schedule ``all`` skips the exact-quarter singular
    checks, which cannot hold there, and ``all`` skips a kind with no
    targets; a kind requested by name must have targets.  ``ratio`` keeps
    the kinds whose targets hold it (perturbed checks use the singular
    targets).  Every planned (kind, ratio) must be checkable on the built
    stages, as ``verify.shortfall`` decides, or none runs.
    """
    if which != "all":
        kinds: tuple[str, ...] = (which,)
    elif sched.perturbation is None:
        kinds = ("singular", "dissipative")
    else:
        kinds = ("dissipative", "perturbed")
    targets = sched.targets
    plan = {
        kind: targets.dissipative if kind == "dissipative" else targets.singular
        for kind in kinds
    }
    if which != "all" and not plan[which]:
        raise RankOneError(f"this schedule has no {which} targets")
    plan = {kind: ratios for kind, ratios in plan.items() if ratios}
    if ratio is not None:
        only = read_rat(ratio)
        plan = {kind: (only,) for kind, ratios in plan.items() if only in ratios}
        if not plan:
            raise RankOneError(
                f"{rat_str(only)} is not a {' or '.join(kinds)} target of this schedule"
            )
    short = [f"{kind} {rat_str(x)}" for kind, ratios in plan.items() for x in ratios
             if shortfall(sched, kind, x)]
    if short:
        raise RankOneError(f"schedule too short to check {', '.join(short)}")
    return plan


def _verify_singular(sched, ratios, out_dir: Path, lines: list[str]) -> bool:
    reports = []
    for c in ratios:
        entries, evidence = weak_limits(c, sched)
        reports += map(write_block, entries)
        if evidence is not None:
            _write_json(out_dir / f"evidence_{c.numerator}_{c.denominator}.json",
                        write_block(evidence))
    _write_json(out_dir / "weak_limits.json", reports)
    passed = sum(r["passed"] for r in reports)
    _echo(lines, f"singular: {passed}/{len(reports)} pair checks pass")
    for rep in reports:
        if not rep["passed"]:
            _echo(lines, f"  FAIL c={rep['ratio']} pair {rep['pair']}")
        else:
            lines.append(
                f"  PASS c={rep['ratio']} pair {rep['pair']} "
                f"from stage {rep['threshold_stage']} "
                f"(target {rep['target']}, product {rep['product_target']})"
            )
    return passed == len(reports)


def _verify_dissipative(
    sched, ratios, out_dir: Path, jobs: int, spot: int, seed: int, lines: list[str]
) -> bool:
    workers = min(jobs, len(ratios))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only where workers start

        with ProcessPoolExecutor(max_workers=workers) as pool:
            certs = list(pool.map(check_dissipativity, ratios, repeat(sched)))
    else:
        certs = list(map(check_dissipativity, ratios, repeat(sched)))
    all_pass = all(cert["passed"] for cert in certs)
    reports = [write_block(cert) for cert in certs]
    if spot > 0:
        rng = random.Random(seed)
        for cert, rep in zip(certs, reports):
            res = dissipativity_spot_check(cert["ratio"], sched, spot, rng)
            rep["spot_checks"] = write_block(res)
            all_pass = all_pass and not res["failures"]
    _write_json(out_dir / "dissipativity.json", reports)
    for rep in reports:
        _echo(
            lines,
            f"dissipative d={rep['ratio']}: "
            f"{'PASS' if rep['passed'] else 'FAIL'} on "
            f"{len(rep['windows'])} windows "
            f"(threshold {rep['threshold']})",
        )
        for w in rep["windows"]:
            if not w["empty"]:
                _echo(lines, f"  window {w['window']}: witness {w['witness'][:3]}")
        if "spot_checks" in rep:
            sc = rep["spot_checks"]
            lines.append(
                f"  spot checks: {sc['checked']} times, "
                f"{len(sc['failures'])} failures"
            )
    return all_pass


def _verify_perturbed(sched, ratios, out_dir: Path, lines: list[str]) -> bool:
    reports = [write_block(rep) for c in ratios for rep in check_perturbed_limit(c, sched)]
    _write_json(out_dir / "perturbed_limits.json", reports)
    passed = sum(r["passed"] for r in reports)
    _echo(lines, f"perturbed: {passed}/{len(reports)} net-point checks pass")
    for rep in reports:
        mark = "PASS" if rep["passed"] else "FAIL"
        lines.append(
            f"  {mark} c={rep['ratio']} point {rep['point']} at stages "
            f"{[s['stage'] for s in rep['stages']]}"
        )
    return passed == len(reports)


def verify(schedule, which, out, jobs, seed, spot_checks, ratio):
    """Run certificates against a built schedule; exit 0 iff all pass.

    Options that would be ignored are refused: ``--spot-checks`` and
    ``--jobs`` when no dissipative ratio is checked, ``--seed`` without
    spot checks."""
    out_dir = Path(out)
    lines: list[str] = []
    sched = _load_schedule(schedule)
    plan = _verify_plan(sched, which, ratio)
    no_dissipative = "this run checks no dissipative ratio"
    for name, ignored, why in (
        ("--spot-checks", spot_checks > 0 and not plan.get("dissipative"), no_dissipative),
        ("--jobs", jobs > 1 and not plan.get("dissipative"), no_dissipative),
        ("--seed", seed is not None and not spot_checks, "--spot-checks is 0"),
    ):
        if ignored:
            raise RankOneError(f"{name} would be ignored: {why}")
    ok = True
    if "singular" in plan:
        ok = _verify_singular(sched, plan["singular"], out_dir, lines) and ok
    if "dissipative" in plan:
        ok = _verify_dissipative(
            sched, plan["dissipative"], out_dir, jobs, spot_checks, seed or 0, lines
        ) and ok
    if "perturbed" in plan:
        ok = _verify_perturbed(sched, plan["perturbed"], out_dir, lines) and ok
    verdict = (
        "PASS: all requested certificates hold"
        if ok
        else "FAIL: at least one certificate failed"
    )
    lines.append(verdict)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "verify_summary.txt").write_text("\n".join(lines) + "\n")
    if not ok:
        print(verdict, file=sys.stderr)
        sys.exit(3)
    print(verdict, flush=True)


def _float_samples(prof, lo, hi, n: int):
    """(float(t), float(prof.value_at(t))) at the n + 1 times
    t = lo + (hi - lo) i / n, the rows of ``profile.csv``.

    No ``Fraction`` is built per sample: the times and breakpoints are
    scaled to integers on n times their common denominator, the values on
    theirs, and each float is one int / int true division, which rounds
    correctly, as ``float`` of the exact ``Fraction`` does."""
    scale = n * denominator_lcm([lo, hi, *prof.breakpoints])
    vscale = denominator_lcm(prof.values)
    bs = [x.numerator * (scale // x.denominator) for x in prof.breakpoints]
    ws = [v.numerator * (vscale // v.denominator) for v in prof.values]
    first = lo.numerator * (scale // lo.denominator)
    step = (hi.numerator * (scale // hi.denominator) - first) // n
    for t in (first + step * i for i in range(n + 1)):
        if t <= bs[0]:
            yield t / scale, ws[0] / vscale
        elif t >= bs[-1]:
            yield t / scale, ws[-1] / vscale
        else:
            i = bisect_right(bs, t) - 1
            b0, b1, w0 = bs[i], bs[i + 1], ws[i]
            yield t / scale, (w0 * (b1 - b0) + (ws[i + 1] - w0) * (t - b0)) / (vscale * (b1 - b0))


def profile(schedule, out, t_min, t_max, samples, window_index):
    """Emit the exact self-correlation profile of the base slab as CSV."""
    out_dir = Path(out)
    sched = _load_schedule(schedule)
    y = base_slab(sched)
    lo = read_rat(t_min)
    # a 1-stage schedule absorbs no time (horizon 0), so its default h_1 is refused
    h = sched.height(min(2, sched.num_stages))
    hi = read_rat(t_max) if t_max is not None else min(h, horizon(sched)) or h
    prof = correlation_profile(y, y, (lo, hi), sched)
    hits = hitting_report(sched, window_index) if window_index is not None else None
    # every sample lies in [lo, hi] and under the largest breakpoint value,
    # so an OverflowError is raised here, before anything is written
    float(lo), float(hi), float(max(prof.values))
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "profile.csv").open("w") as csv:
        csv.write("t,value\n")
        csv.writelines(f"{t:.12e},{v:.12e}\n" for t, v in _float_samples(prof, lo, hi, samples))
    _write_json(
        out_dir / "profile.json",
        write_block({"t_min": lo, "t_max": hi, "breakpoints": prof.breakpoints,
                     "values": prof.values}),
    )
    if hits is not None:
        with open(out_dir / f"hitting_window_{window_index}.json", "w") as f:
            f.writelines(hits)
    print(f"profile on [{lo}, {hi}]: {len(prof.breakpoints)} breakpoints", flush=True)


def density(schedule, out, ratio, s_max, samples):
    """Spectral-density samples for a dissipative ratio (CSV + summary)."""
    out_dir = Path(out)
    sched = _load_schedule(schedule)
    dens, frequencies, values = spectral_density(read_rat(ratio), sched, s_max, samples)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "density.csv").open("w") as csv:
        csv.write("s,density\n")
        csv.writelines(f"{s:.12e},{v:.12e}\n" for s, v in zip(frequencies, values))
    _write_json(out_dir / "density.json", write_block(dens))
    s_mass = dens["mass_range_s"]
    print(
        f"density d={rat_str(dens['ratio'])}: mass over [-{s_mass}, {s_mass}] "
        f"= {dens['mass_range_value']:.6f} (target {float(dens['phi_at_zero']):.6f}), "
        f"min sample {dens['min_density']:.3e}", flush=True
    )


def oracle(schedule, out, triples, samples, seed, t_max_stage):
    """Cross-check the exact engine against the orbit-simulation oracle."""
    out_dir = Path(out)
    sched = _load_schedule(schedule)
    t_stage = min(t_max_stage, sched.num_stages)
    family = default_pair_family(sched)
    rng = random.Random(seed)
    denom = 2**16
    rows = ["name_a,name_b,t,exact,oracle,bound,ok"]
    violations = 0
    for i in range(triples):
        name_a, a = family[rng.randrange(len(family))]
        name_b, b = family[rng.randrange(len(family))]
        t = sched.height(1 + i % t_stage) * Fraction(rng.randrange(denom), denom)
        exact = correlation(a, b, t, sched)
        value, bound = oracle_correlation(a, b, t, samples, sched)
        ok = abs(value - exact) <= bound
        violations += 0 if ok else 1
        rows.append(
            f"{name_a},{name_b},{float(t):.12e},{float(exact):.12e},"
            f"{float(value):.12e},{float(bound):.12e},{ok}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "oracle.csv").write_text("\n".join(rows) + "\n")
    print(
        f"oracle: {triples - violations}/{triples} within the deterministic bound", flush=True
    )
    if violations:
        sys.exit(3)


if __name__ == "__main__":
    main()
