"""Command-line front door: build schedules, run certificates, emit reports.

Exit codes: 0 all requested certificates pass; 2 usage/config errors
(including escalation exhaustion at build time); 3 certificate failure;
4 flow time beyond the built horizon.
"""

from __future__ import annotations

import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import click

from .construction import (
    PerturbationSpec,
    Schedule,
    StagePolicy,
    TargetSets,
    build_schedule,
)
from .errors import (
    ConfigError,
    EscalationExhausted,
    HorizonExceeded,
    NoMatchingStages,
    NotDissipative,
    RankOneError,
    UncertifiedWindow,
)
from .exactnum import rat, rat_str
from .levelset import (
    base_slab,
    correlation,
    correlation_profile,
    find_dissipativity_witness,
)
from .oracle import oracle_correlation
from .verify import (
    DensityGrid,
    check_dissipativity,
    check_perturbed_limit,
    check_weak_limits,
    default_pair_family,
    dissipativity_certificate,
    dissipativity_spot_check,
    dissipativity_windows,
    hitting_report,
    singularity_evidence,
    spectral_density,
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
    "policy": StagePolicy().to_dict(),
    "perturbation": None,
    "certify": True,
}

_RAT = {"type": "string", "pattern": r"^-?\d+(/0*[1-9]\d*)?$"}

CONFIG_SCHEMA: dict = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "base_width": _RAT,
        "base_height": _RAT,
        "targets": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "singular": {"type": "array", "items": _RAT, "minItems": 1},
                "dissipative": {"type": "array", "items": _RAT},
                "entry_stages": {
                    "type": ["object", "null"],
                    "additionalProperties": {"type": "integer", "minimum": 1},
                },
            },
            "required": ["singular"],
        },
        "stages": {"type": "integer", "minimum": 1},
        "policy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gauge": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["pow2", "constant", "table"]},
                        "floor": _RAT,
                        "values": {"type": "array", "items": _RAT},
                    },
                },
                "initial_multiplier": _RAT,
                "escalation_factor": _RAT,
                "max_retries": {"type": "integer", "minimum": 0},
                "top_spacer": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "mode": {"enum": ["multiplier", "collide"]},
                        "collide_ratio": _RAT,
                    },
                },
            },
        },
        "perturbation": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "properties": {"net_depth": {"type": "integer", "minimum": 1}},
        },
        "certify": {"type": "boolean"},
    },
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            out[key] = _merge(base[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | Path) -> dict:
    import jsonschema  # costly import, needed only here

    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = _merge(DEFAULT_CONFIG, raw)
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config validation failed: {exc.message}") from exc
    return cfg


def schedule_from_config(cfg: dict) -> Schedule:
    return build_schedule(
        rat(cfg["base_width"]),
        rat(cfg["base_height"]),
        TargetSets.from_dict(cfg["targets"]),
        int(cfg["stages"]),
        policy=StagePolicy.from_dict(cfg["policy"]),
        perturbation=PerturbationSpec.from_dict(cfg["perturbation"]),
        certify=bool(cfg["certify"]),
    )


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_schedule(path: str) -> Schedule:
    try:
        return Schedule.from_json(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"cannot load schedule {path}: {exc}") from exc


@click.group()
def main():
    """Exact verification lab for the cutting-and-stacking flow."""


@main.command()
@click.option("--config", "-c", required=True, type=click.Path(dir_okay=False))
@click.option("--out", "-o", default="out", type=click.Path(file_okay=False))
def build(config, out):
    """Build a schedule from a JSON config and write it with a build log."""
    out_dir = Path(out)
    try:
        cfg = load_config(config)
        sched = schedule_from_config(cfg)
    except EscalationExhausted as exc:
        click.echo(f"escalation exhausted: {exc}", err=True)
        sys.exit(2)
    except (ConfigError, RankOneError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    (out_dir / "schedule.json").parent.mkdir(parents=True, exist_ok=True)
    (out_dir / "schedule.json").write_text(sched.to_json() + "\n")
    log = {
        "stages": sched.num_stages,
        "certified_windows": sched.certified_windows(),
        "escalations": [e.to_dict() for e in sched.escalations],
        "final_multipliers": {
            str(st.index): rat_str(st.multiplier) for st in sched.stages
        },
        "tower_measures": {
            str(j): rat_str(sched.tower_measure(j))
            for j in range(1, sched.num_stages + 1)
        },
    }
    _write_json(out_dir / "build_log.json", log)
    if not sched.certified_windows():
        click.echo("built schedule: no certified windows (schedule too short)")
    else:
        click.echo(
            f"built {sched.num_stages} stages; certified windows "
            f"{sched.certified_windows()[0]}..{sched.certified_windows()[-1]}; "
            f"{len(sched.escalations)} escalations"
        )


def _echo(lines: list[str], text: str) -> None:
    lines.append(text)
    click.echo(text)


def _verify_singular(sched, out_dir: Path, lines: list[str], only=None) -> bool:
    family = default_pair_family(sched)
    reports = []
    all_pass = True
    any_checked = False
    ratios = sched.targets.singular
    if only is not None:
        if only not in ratios:
            raise ConfigError(f"{only} is not a singular target of this schedule")
        ratios = (only,)
    for c in ratios:
        passing = []
        for i, (name_a, a) in enumerate(family):
            for name_b, b in family[i:]:
                try:
                    rep = check_weak_limits(a, b, c, sched)
                except NoMatchingStages as exc:
                    reports.append(
                        {
                            "ratio": rat_str(c),
                            "pair": [name_a, name_b],
                            "skipped": str(exc),
                        }
                    )
                    continue
                any_checked = True
                all_pass = all_pass and rep.passed
                entry = rep.to_dict()
                entry["pair"] = [name_a, name_b]
                reports.append(entry)
                if rep.passed:
                    passing.append((name_a, name_b, rep))
        if passing:
            ev = singularity_evidence(c, passing)
            _write_json(
                out_dir / f"evidence_{c.numerator}_{c.denominator}.json",
                ev.to_dict(),
            )
    if not any_checked:
        raise NoMatchingStages("no pair had enough certified stages to check")
    _write_json(out_dir / "weak_limits.json", reports)
    checked = [r for r in reports if "skipped" not in r]
    _echo(
        lines,
        f"singular: {sum(1 for r in checked if r['passed'])}/{len(checked)} "
        f"pair checks pass",
    )
    for rep in checked:
        if not rep["passed"]:
            _echo(lines, f"  FAIL c={rep['ratio']} pair {rep['pair']}")
        else:
            lines.append(
                f"  PASS c={rep['ratio']} pair {rep['pair']} "
                f"from stage {rep['threshold_stage']} "
                f"(target {rep['target']}, product {rep['product_target']})"
            )
    return all_pass


_WORKER_SCHED: Schedule | None = None


def _worker_init(sched_json: str) -> None:
    global _WORKER_SCHED
    _WORKER_SCHED = Schedule.from_json(sched_json)


def _worker_window(task: tuple[Fraction, int]):
    d, j = task
    return find_dissipativity_witness(_WORKER_SCHED, d, j)


def _verify_dissipative(
    sched, out_dir: Path, jobs: int, spot: int, seed: int, lines: list[str], only=None
) -> bool:
    ratios = sched.targets.dissipative
    if only is not None:
        if only not in ratios:
            raise ConfigError(f"{only} is not a dissipative target of this schedule")
        ratios = (only,)
    if jobs > 1:
        tasks = [(d, j) for d in ratios for j in dissipativity_windows(d, sched)]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init, initargs=(sched.to_json(),)
        ) as pool:
            found = dict(zip(tasks, pool.map(_worker_window, tasks)))
        certs = [
            dissipativity_certificate(
                d, sched, [found[d, j] for j in sched.windows_for(d)]
            )
            for d in ratios
        ]
    else:
        certs = [check_dissipativity(d, sched) for d in ratios]
    all_pass = all(cert.passed for cert in certs)
    reports = [cert.to_dict() for cert in certs]
    if spot > 0:
        rng = random.Random(seed)
        for cert, rep in zip(certs, reports):
            res = dissipativity_spot_check(cert.d, sched, spot, rng)
            rep["spot_checks"] = {
                "checked": res["checked"],
                "failures": [[j, rat_str(t)] for j, t in res["failures"]],
            }
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


def _verify_perturbed(sched, out_dir: Path, lines: list[str]) -> bool:
    if sched.perturbation is None:
        raise ConfigError("schedule was built without perturbations")
    family = default_pair_family(sched)
    y_name, y = family[0]
    reports = []
    all_pass = True
    for c in sched.targets.singular:
        seen: set = set()
        for j in sched.certified_windows():
            if sched.stage(j).ratio != c:
                continue
            point = sched.delta_pair(j)
            if point in seen:
                continue
            seen.add(point)
            try:
                rep = check_perturbed_limit(c, point[0], point[1], y, y, sched)
            except NoMatchingStages:
                continue
            entry = rep.to_dict()
            entry["pair"] = [y_name, y_name]
            reports.append(entry)
            all_pass = all_pass and rep.passed
    if not reports:
        raise NoMatchingStages("no certified stage carries any net point")
    _write_json(out_dir / "perturbed_limits.json", reports)
    _echo(
        lines,
        f"perturbed: {sum(1 for r in reports if r['passed'])}/{len(reports)} "
        f"net-point checks pass",
    )
    for rep in reports:
        mark = "PASS" if rep["passed"] else "FAIL"
        lines.append(
            f"  {mark} c={rep['ratio']} point {rep['point']} at stages "
            f"{[s['stage'] for s in rep['stages']]}"
        )
    return all_pass


@main.command()
@click.option("--schedule", "-s", default="out/schedule.json", type=click.Path())
@click.option(
    "--which",
    type=click.Choice(["singular", "dissipative", "perturbed", "all"]),
    default="all",
)
@click.option("--out", "-o", default="out", type=click.Path(file_okay=False))
@click.option("--jobs", default=1, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--spot-checks", default=0, type=int, help="random times per window")
@click.option("--ratio", default=None, help="restrict to one target ratio (p/q)")
def verify(schedule, which, out, jobs, seed, spot_checks, ratio):
    """Run certificates against a built schedule; exit 0 iff all pass."""
    out_dir = Path(out)
    lines: list[str] = []
    try:
        sched = _load_schedule(schedule)
        only = rat(ratio) if ratio is not None else None
        ok = True
        if which in ("singular", "all"):
            ok = _verify_singular(sched, out_dir, lines, only=only) and ok
        if which in ("dissipative", "all"):
            ok = (
                _verify_dissipative(
                    sched, out_dir, jobs, spot_checks, seed, lines, only=only
                )
                and ok
            )
        if which == "perturbed" or (which == "all" and sched.perturbation is not None):
            ok = _verify_perturbed(sched, out_dir, lines) and ok
    except HorizonExceeded as exc:
        click.echo(f"horizon exceeded: {exc}", err=True)
        sys.exit(4)
    except (ConfigError, NoMatchingStages, UncertifiedWindow, ValueError) as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(2)
    verdict = (
        "PASS: all requested certificates hold"
        if ok
        else "FAIL: at least one certificate failed"
    )
    lines.append(verdict)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "verify_summary.txt").write_text("\n".join(lines) + "\n")
    if not ok:
        click.echo(verdict, err=True)
        sys.exit(3)
    click.echo(verdict)


@main.command()
@click.option("--schedule", "-s", default="out/schedule.json", type=click.Path())
@click.option("--out", "-o", default="out", type=click.Path(file_okay=False))
@click.option("--t-min", default="0/1")
@click.option("--t-max", default=None, help="defaults to the height of tower 2")
@click.option("--samples", default=512, type=int)
@click.option("--window", "window_index", default=None, type=int,
              help="emit the hitting report for window [h_j, h_{j+1}]")
def profile(schedule, out, t_min, t_max, samples, window_index):
    """Emit the exact self-correlation profile of the base slab as CSV."""
    out_dir = Path(out)
    try:
        sched = _load_schedule(schedule)
        y = base_slab(sched)
        lo = rat(t_min)
        hi = rat(t_max) if t_max is not None else sched.height(min(2, sched.num_stages))
        prof = correlation_profile(y, y, (lo, hi), sched)
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = ["t,value"]
        for i in range(samples + 1):
            t = lo + (hi - lo) * Fraction(i, samples)
            rows.append(f"{float(t):.12e},{float(prof.value_at(t)):.12e}")
        (out_dir / "profile.csv").write_text("\n".join(rows) + "\n")
        _write_json(
            out_dir / "profile.json",
            {"t_min": rat_str(lo), "t_max": rat_str(hi), **prof.to_dict()},
        )
        if window_index is not None:
            _write_json(
                out_dir / f"hitting_window_{window_index}.json",
                hitting_report(sched, window_index),
            )
        click.echo(f"profile on [{lo}, {hi}]: {len(prof.breakpoints)} breakpoints")
    except HorizonExceeded as exc:
        click.echo(f"horizon exceeded: {exc}", err=True)
        sys.exit(4)
    except (ConfigError, RankOneError, ValueError) as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(2)


@main.command()
@click.option("--schedule", "-s", default="out/schedule.json", type=click.Path())
@click.option("--out", "-o", default="out", type=click.Path(file_okay=False))
@click.option("--ratio", "-d", default="2/1")
@click.option("--s-max", default=DensityGrid.s_max, type=float)
@click.option("--samples", default=DensityGrid.samples, type=int)
@click.option("--mass-s", default=DensityGrid.mass_s, type=float)
def density(schedule, out, ratio, s_max, samples, mass_s):
    """Spectral-density samples for a dissipative ratio (CSV + summary)."""
    out_dir = Path(out)
    try:
        sched = _load_schedule(schedule)
        grid = DensityGrid(s_max=s_max, samples=samples, mass_s=mass_s)
        dens = spectral_density(rat(ratio), sched, grid)
    except HorizonExceeded as exc:
        click.echo(f"horizon exceeded: {exc}", err=True)
        sys.exit(4)
    except NotDissipative as exc:
        click.echo(f"not dissipative: {exc}", err=True)
        sys.exit(3)
    except (ConfigError, RankOneError, ValueError) as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(2)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["s,density"]
    for s, v in zip(dens.frequencies, dens.density):
        rows.append(f"{s:.12e},{v:.12e}")
    (out_dir / "density.csv").write_text("\n".join(rows) + "\n")
    _write_json(out_dir / "density.json", dens.summary_dict())
    click.echo(
        f"density d={ratio}: mass over [-{dens.mass_range_s}, {dens.mass_range_s}] "
        f"= {dens.mass_range_value:.6f} (target {float(dens.phi_at_zero):.6f}), "
        f"min sample {dens.min_density:.3e}"
    )


@main.command()
@click.option("--schedule", "-s", default="out/schedule.json", type=click.Path())
@click.option("--out", "-o", default="out", type=click.Path(file_okay=False))
@click.option("--triples", default=12, type=int)
@click.option("--samples", default=2000, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--t-max-stage", default=3, type=int)
def oracle(schedule, out, triples, samples, seed, t_max_stage):
    """Cross-check the exact engine against the orbit-simulation oracle."""
    out_dir = Path(out)
    try:
        sched = _load_schedule(schedule)
        t_stage = min(t_max_stage, sched.num_stages)
        family = default_pair_family(sched)
        rng = random.Random(seed)
        denom = 2**16
        rows = ["name_a,name_b,t,exact,oracle,bound,ok"]
        violations = 0
        t_hi = sched.height(t_stage)
        for _ in range(triples):
            name_a, a = family[rng.randrange(len(family))]
            name_b, b = family[rng.randrange(len(family))]
            t = t_hi * Fraction(rng.randrange(denom), denom)
            exact = correlation(a, b, t, sched)
            est = oracle_correlation(a, b, t, samples, sched)
            ok = abs(est.value - exact) <= est.bound
            violations += 0 if ok else 1
            rows.append(
                f"{name_a},{name_b},{float(t):.12e},{float(exact):.12e},"
                f"{float(est.value):.12e},{float(est.bound):.12e},{ok}"
            )
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "oracle.csv").write_text("\n".join(rows) + "\n")
        click.echo(
            f"oracle: {triples - violations}/{triples} within the deterministic bound"
        )
        if violations:
            sys.exit(3)
    except HorizonExceeded as exc:
        click.echo(f"horizon exceeded: {exc}", err=True)
        sys.exit(4)
    except (ConfigError, RankOneError, ValueError) as exc:
        click.echo(f"usage error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
