import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from rankone.errors import HorizonExceeded
from rankone.levelset import base_slab, correlation, make_slab
from rankone.oracle import OracleEstimate, oracle_correlation
from rankone.verify import default_pair_family

from reference import (
    PointState,
    contains,
    intersect,
    locate_height,
    measure,
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
        est = oracle_correlation(y, y, 0, 50, desk)
        assert est.value == measure(y, desk) == 1

    def test_disjoint_zero(self, desk):
        a = make_slab(desk, 1, [(0, F(1, 2))])
        b = make_slab(desk, 1, [(F(1, 2), 1)])
        est = oracle_correlation(a, b, 0, 50, desk)
        assert est.value == 0

    def test_within_bound_random_triples(self, desk):
        rng = random.Random(13)
        fam = default_pair_family(desk)
        for k in range(12):
            _, a = fam[rng.randrange(len(fam))]
            _, b = fam[rng.randrange(len(fam))]
            t = desk.height(1 + k % 3) * F(rng.randrange(2**16), 2**16)
            exact = correlation(a, b, t, desk)
            est = oracle_correlation(a, b, t, 3000, desk)
            assert abs(est.value - exact) <= est.bound

    def test_negative_time_by_symmetry(self, desk):
        y = base_slab(desk)
        est = oracle_correlation(y, y, F(-1, 2), 400, desk)
        exact = correlation(y, y, F(-1, 2), desk)
        assert abs(est.value - exact) <= est.bound

    def test_bound_fields(self, desk):
        y = base_slab(desk)
        est = oracle_correlation(y, y, F(3, 2), 100, desk)
        assert isinstance(est, OracleEstimate)
        assert est.samples == 100
        assert est.regions >= 1
        assert est.bound == measure(y, desk) * F(est.edge_cap, 100)


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


def pinned_digest(desk) -> str:
    fields = []
    for a, b, t, n in pinned_triples(desk):
        est = oracle_correlation(a, b, t, n, desk)
        fields.append((est.value, est.bound, est.regions, est.edge_cap))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


class TestPinnedEstimates:
    """``(value, bound, regions, edge_cap)`` recorded before the region walk."""

    DIGEST = "70e49bbaa61da2af375225c58c7730af4f143fc5e1fac1413f69410c1938a95c"

    def test_pinned_digest(self, desk):
        assert pinned_digest(desk) == self.DIGEST

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
         ("rankone.exactnum", ["rankone", "rankone.exactnum"])],
        ids=["oracle", "exactnum"],
    )
    def test_import_loads_only_what_the_module_uses(self, module, loaded):
        """The package root re-exports nothing, so importing the oracle in a
        fresh interpreter runs none of the engine it checks."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'rankone'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == str(loaded)
