import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from rankone.errors import HorizonExceeded
from rankone.levelset import base_slab, correlation, make_slab
from rankone.oracle import oracle_correlation
from rankone.verify import default_pair_family

from reference import (
    PointState,
    contains,
    intersect,
    locate_height,
    measure,
    oracle_per_sample,
    orbit_advance,
    point_in_slab,
    refine,
    same_point,
    translate_exact,
)


def random_point(sched, slab, rng, depth=8):
    lv = slab.levels.intervals
    lo, hi = lv[rng.randrange(len(lv))]
    y = lo + (hi - lo) * F(rng.randrange(1, 2**12), 2**12)
    path = tuple(rng.randrange(1, 5) for _ in range(depth))
    return PointState(stage=slab.stage, height=y, path=path)


class TestOrbitAdvance:
    def test_zero_time_identity(self, desk):
        p = PointState(stage=1, height=F(1, 3), path=(2, 1))
        assert orbit_advance(p, 0, desk) == p

    def test_additivity(self, desk):
        rng = random.Random(11)
        fam = default_pair_family(desk)
        for _ in range(40):
            _, slab = fam[rng.randrange(len(fam))]
            p = random_point(desk, slab, rng)
            s = desk.height(2) * F(rng.randrange(2**10), 2**10)
            t = desk.height(2) * F(rng.randrange(2**10), 2**10)
            chained = orbit_advance(orbit_advance(p, s, desk), t, desk)
            direct = orbit_advance(p, s + t, desk)
            assert same_point(chained, direct, desk)

    def test_horizon(self, desk):
        p = PointState(stage=1, height=0, path=(1,) * 7)
        with pytest.raises(HorizonExceeded):
            orbit_advance(p, desk.height(8), desk)

    def test_invalid_digits_rejected(self):
        with pytest.raises(ValueError):
            PointState(stage=1, height=0, path=(0, 5))


class TestMembershipAgreement:
    def test_against_exact_engine(self, desk):
        # advanced point lands in B iff the reference's exact translate of A
        # meets B at the located slab of the point
        rng = random.Random(12)
        fam = default_pair_family(desk)
        checks = 0
        for _ in range(10_000):
            _, a = fam[rng.randrange(len(fam))]
            _, b = fam[rng.randrange(len(fam))]
            p = random_point(desk, a, rng)
            t = desk.height(1 + rng.randrange(2)) * F(rng.randrange(2**12), 2**12)
            q = orbit_advance(p, t, desk)
            got = point_in_slab(q, b, desk)

            ta = translate_exact(a, t, desk)
            j = max(ta.stage, b.stage)
            inter = intersect(refine(ta, j, desk).levels, refine(b, j, desk).levels)
            if q.stage <= j:
                y = q.height
                st, i = q.stage, 0
                while st < j:
                    y += desk.offsets(st)[q.path[i] - 1]
                    st += 1
                    i += 1
            else:
                y = locate_height(q.stage, q.height, j, desk)
            expected = y is not None and contains(inter, y)
            assert got == expected
            checks += 1
        assert checks == 10_000


class TestOracleCorrelation:
    def test_zero_time_self_is_exact(self, desk):
        y = base_slab(desk)
        value, _ = oracle_correlation(y, y, 0, 50, desk)
        assert value == measure(y, desk) == 1

    def test_disjoint_zero(self, desk):
        a = make_slab(desk, 1, [(0, F(1, 2))])
        b = make_slab(desk, 1, [(F(1, 2), 1)])
        value, _ = oracle_correlation(a, b, 0, 50, desk)
        assert value == 0

    def test_within_bound_random_triples(self, desk):
        rng = random.Random(13)
        fam = default_pair_family(desk)
        for k in range(12):
            _, a = fam[rng.randrange(len(fam))]
            _, b = fam[rng.randrange(len(fam))]
            t = desk.height(1 + k % 3) * F(rng.randrange(2**16), 2**16)
            exact = correlation(a, b, t, desk)
            value, bound = oracle_correlation(a, b, t, 3000, desk)
            assert abs(value - exact) <= bound

    def test_negative_time_by_symmetry(self, desk):
        y = base_slab(desk)
        value, bound = oracle_correlation(y, y, F(-1, 2), 400, desk)
        exact = correlation(y, y, F(-1, 2), desk)
        assert abs(value - exact) <= bound

    def test_bound_fields(self, desk):
        y = base_slab(desk)
        est = oracle_correlation(y, y, F(3, 2), 100, desk)
        assert type(est) is tuple and [type(x) for x in est] == [F, F]
        value, bound = est
        assert abs(value - correlation(y, y, F(3, 2), desk)) <= bound
        assert bound < measure(y, desk)

    @pytest.mark.parametrize(
        "empty_first, sign", [(True, 1), (False, 1), (True, -1), (False, -1)],
        ids=["empty-a", "empty-b", "empty-a-negative-t", "empty-b-negative-t"],
    )
    def test_empty_slab_is_zero(self, desk, empty_first, sign):
        empty, y = make_slab(desk, 1, []), base_slab(desk)
        a, b = (empty, y) if empty_first else (y, empty)
        t = sign * F(1, 3)
        value, bound = oracle_correlation(a, b, t, 10, desk)
        assert value == 0 == correlation(a, b, t, desk)
        if (sign > 0) == empty_first:  # the advanced set, after folding, is empty
            assert bound == 0
        else:  # each region's end still counts as an edge
            assert bound > 0

    def test_sample_count_only_scales_the_grid(self, desk):
        fam = dict(default_pair_family(desk))
        a, b = fam["stage1_full"], fam["stage2_half0"]
        t = desk.height(2) * F(3, 7)
        value, bound = oracle_correlation(a, b, t, 10**18, desk)
        assert abs(value - correlation(a, b, t, desk)) <= bound
        assert bound < F(1, 10**15)
        # the edge count does not depend on n, so the bound scales as 1/n
        assert bound * 10**18 == oracle_correlation(a, b, t, 1, desk)[1]


def random_sub_slab(sched, rng, k=None):
    """A slab of stage k (default: 1-3 at random) whose levels are 1 to 4
    intervals on a grid."""
    k = k or rng.randint(1, 3)
    d = rng.choice([7, 12, 64])
    cuts = sorted(rng.sample(range(d + 1), 2 * rng.randint(1, 4)))
    h = sched.height(k)
    return make_slab(sched, k, [(h * F(lo, d), h * F(hi, d)) for lo, hi in zip(cuts[::2], cuts[1::2])])


class TestPerSampleReference:
    """The region counter against the per-sample walk of ``reference.py``:
    every stratum midpoint listed, lifted and tested on its own."""

    @pytest.mark.parametrize("name", ["desk", "broken", "desk_perturbed"])
    def test_whole_estimate_matches(self, request, name):
        sched = request.getfixturevalue(name)
        fam = [slab for _, slab in default_pair_family(sched)]
        rng = random.Random(35)
        multi = 0
        for _ in range(8):
            a, b = (
                rng.choice(fam) if rng.random() < 0.5 else random_sub_slab(sched, rng)
                for _ in range(2)
            )
            multi += len(a.levels.intervals) > 1 or len(b.levels.intervals) > 1
            t = rng.choice([1, -1]) * sched.height(rng.randint(1, 5)) * F(rng.randrange(2**16), 2**16)
            for n in (1, 2, 7, 97, 2000):
                assert oracle_correlation(a, b, t, n, sched) == oracle_per_sample(a, b, t, n, sched)
        assert multi > 0

    @pytest.mark.parametrize("name", ["desk", "broken"])
    def test_midpoints_on_run_ends(self, request, name):
        """Times that carry a stratum midpoint of A exactly onto an end of
        one of B's intervals, or of a column copy's window one stage up:
        the closed-form count must keep every run half-open."""
        sched = request.getfixturevalue(name)
        fam = [slab for _, slab in default_pair_family(sched)]
        rng = random.Random(37)
        for _ in range(6):
            a = rng.choice(fam)
            b = random_sub_slab(sched, rng, a.stage)
            ((lo, hi),) = a.levels.intervals
            h, offs = sched.height(a.stage), sched.offsets(a.stage)
            for n in (1, 2, 7):
                y = lo + (hi - lo) * F(2 * rng.randrange(n) + 1, 2 * n)
                times = [e - y for iv in b.levels.intervals for e in iv if e > y]
                times += [o2 + w - o1 - y for o1, o2 in combinations(offs, 2) for w in (0, h)]
                for t in times:
                    assert oracle_correlation(a, b, t, n, sched) == oracle_per_sample(a, b, t, n, sched)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_same_horizon_message(self, desk, sign):
        rng = random.Random(36)
        fam = [slab for _, slab in default_pair_family(desk)]
        for _ in range(4):
            a, b = rng.choice(fam), random_sub_slab(desk, rng)
            t = sign * desk.height(8) * F(rng.randrange(2**8, 2**9), 2**8)
            with pytest.raises(HorizonExceeded) as got:
                oracle_correlation(a, b, t, 7, desk)
            with pytest.raises(HorizonExceeded) as want:
                oracle_per_sample(a, b, t, 7, desk)
            assert str(got.value) == str(want.value)


class TestValiditySweep:
    """Every estimate within its bound of the exact correlation, and its
    value the per-sample reference's, over family slabs, multi-interval
    sub-slabs and empty slabs, times up to +-h_6 and near +-h_k, and
    sample counts from 1 to 2000."""

    @pytest.mark.parametrize("name", ["desk", "broken", "desk_perturbed", "deep16"])
    def test_within_bound_and_reference_value(self, request, name):
        sched = request.getfixturevalue(name)
        fam = [slab for _, slab in default_pair_family(sched)]
        rng = random.Random(37)

        def slab():
            pick = rng.random()
            if pick < 0.1:
                return make_slab(sched, rng.randint(1, 3), [])
            return rng.choice(fam) if pick < 0.55 else random_sub_slab(sched, rng)

        for i in range(12):  # one empty A and one empty B at least
            a = make_slab(sched, 1, []) if i == 0 else slab()
            b = make_slab(sched, 2, []) if i == 1 else slab()
            h = sched.height(1 + i // 2)
            if i % 2:
                t = h + sched.height(1) * F(rng.randrange(-2**10, 2**10), 2**10)
            else:
                t = h * F(rng.randrange(2**16), 2**16)
            t *= rng.choice([1, -1])
            exact = correlation(a, b, t, sched)
            for n in (1, 2, 7, 97, 2000):
                value, bound = oracle_correlation(a, b, t, n, sched)
                assert abs(value - exact) <= bound
                assert value == oracle_per_sample(a, b, t, n, sched)[0]


def pinned_triples(desk):
    """(a, b, t, n) triples whose estimates are pinned by digest below."""
    fam = dict(default_pair_family(desk))
    h1, h2, h3 = desk.height(1), desk.height(2), desk.height(3)
    split = make_slab(desk, 1, [(0, F(1, 3)), (F(1, 2), F(3, 4))])
    triples = [
        # stage-1 vs stage-2 slabs, both orders
        (fam["stage1_full"], fam["stage2_half0"], h2 * F(3, 7), 500),
        (fam["stage2_half0"], fam["stage1_full"], h2 * F(3, 7), 500),
        (fam["stage1_quarter1"], fam["stage2_full"], h1 * F(5, 3), 333),
        (fam["stage2_full"], fam["stage1_quarter1"], h1 * F(5, 3), 333),
        (split, fam["stage2_half1"], h2 * F(2, 5), 97),
        # t = 0
        (fam["stage1_half0"], fam["stage2_full"], F(0), 200),
        (split, split, F(0), 7),
        # negative t
        (fam["stage2_half1"], fam["stage1_quarter2"], -h2 * F(5, 9), 300),
        (fam["stage1_full"], fam["stage1_half1"], -h1 * F(1, 2), 1),
        # t equal to h_2 and h_3
        (fam["stage1_full"], fam["stage1_full"], h2, 400),
        (fam["stage1_half1"], fam["stage2_half0"], h3, 400),
    ]
    rng = random.Random(2024)
    names = sorted(fam)
    for k in range(8):
        a, b = fam[rng.choice(names)], fam[rng.choice(names)]
        t = desk.height(1 + k % 3) * F(rng.randrange(2**16), 2**16)
        triples.append((a, b, t, 250))
    return triples


def pinned_digests(desk) -> tuple[str, str]:
    """Digests of the pinned triples' values, and of their (value, bound)."""
    estimates = [oracle_correlation(a, b, t, n, desk) for a, b, t, n in pinned_triples(desk)]
    values = [value for value, _ in estimates]
    return tuple(hashlib.sha256(repr(x).encode()).hexdigest() for x in (values, estimates))


class TestPinnedEstimates:
    """The values, unchanged since the per-sample walk, and the bounds of
    the weighted edge count."""

    VALUES = "e96d647f48814bdef22ebdc2cd63581407cbd43341a54ed94333e023b6938c09"
    DIGEST = "93a885b1f3aa5f446914926dc543a779b2ffae2b9110c09cd3670a4171b370e3"

    def test_pinned_values(self, desk):
        assert pinned_digests(desk)[0] == self.VALUES

    def test_pinned_digest(self, desk):
        assert pinned_digests(desk)[1] == self.DIGEST

    def test_horizon_message(self, desk):
        y = base_slab(desk)
        t = desk.height(8)
        with pytest.raises(HorizonExceeded) as err:
            oracle_correlation(y, y, t, 50, desk)
        assert str(err.value) == f"advance by {t} leaves the built towers"
        with pytest.raises(HorizonExceeded) as err:
            oracle_correlation(y, y, -t, 50, desk)
        assert str(err.value) == f"advance by {t} leaves the built towers"


class TestIndependence:
    def test_oracle_never_imports_levelset(self):
        import ast
        import inspect

        import rankone.oracle as mod

        tree = ast.parse(inspect.getsource(mod))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not any("levelset" in name for name in imported)

    def test_no_float_in_oracle(self):
        import inspect

        import rankone.oracle as mod

        assert "float(" not in inspect.getsource(mod)

    @pytest.mark.parametrize(
        "module, loaded",
        [("rankone.oracle", ["rankone", "rankone.errors", "rankone.exactnum", "rankone.oracle"]),
         ("rankone.exactnum", ["rankone", "rankone.exactnum"]),
         ("rankone.cli", ["rankone", "rankone.cli", "rankone.construction", "rankone.errors",
                          "rankone.exactnum", "rankone.levelset", "rankone.oracle",
                          "rankone.verify"])],
        ids=["oracle", "exactnum", "cli"],
    )
    def test_import_loads_only_what_the_module_uses(self, module, loaded):
        """The package root re-exports nothing, so importing the oracle in a
        fresh interpreter runs none of the engine it checks; the command line
        loads the package's modules and no others."""
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'rankone'))"
        )
        assert _fresh_interpreter(code) == str(loaded)

    def test_command_line_builds_no_class_from_generated_code(self):
        """No class of the package is made by ``dataclasses``, so starting
        the command line loads neither it nor the reflection modules it
        pulls in, which would cost every process their import."""
        code = (
            "import sys, rankone.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'copy'}"
            " & sys.modules.keys()))"
        )
        assert _fresh_interpreter(code) == "[]"


def _fresh_interpreter(code: str) -> str:
    """What ``code`` prints in a new interpreter with ``src/`` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.strip()
