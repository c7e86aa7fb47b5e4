"""The test reference shares no code with the engine it is compared with,
and the definitions it took over are gone from the package."""

import ast
import importlib
import inspect
from pathlib import Path

import rankone
from rankone.construction import Schedule
from rankone.levelset import base_slab

from reference import refine, translate_exact

REFERENCE = Path(__file__).with_name("reference.py")
POINT_MODEL = {
    "PointState",
    "orbit_advance",
    "_column_copy",
    "locate_height",
    "point_in_slab",
    "canonical_form",
    "same_point",
}
# names that left the package for tests/reference.py, or were deleted
MOVED = {
    "refine",
    "translate_exact",
    "measure",
    "pieces",
    "support",
    "integral",
    "contains",
    "union",
    "intersect",
    "translate",
    "scale",
    "NonPositiveScale",
    "ratio_trace",
} | POINT_MODEL


def names_used(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_reference_uses_no_levelset_function():
    tree = ast.parse(REFERENCE.read_text())
    tainted = set()  # names bound to something of rankone.levelset
    for node in tree.body:
        if isinstance(node, ast.Import):
            assert not any("levelset" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rankone"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name)
                if inspect.ismodule(obj):
                    assert "levelset" not in obj.__name__, alias.name
                elif getattr(obj, "__module__", None) == "rankone.levelset":
                    assert inspect.isclass(obj), f"levelset function {alias.name}"
                    tainted.add(alias.asname or alias.name)
    assert tainted == {"SlabSet"}
    assert not any(
        isinstance(n, ast.Attribute) and n.attr == "levelset" for n in ast.walk(tree)
    )

    # the point model reaches nothing of levelset, directly or through the
    # reference's own definitions
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert POINT_MODEL <= defs.keys()
    grew = True
    while grew:
        grew = False
        for name, node in defs.items():
            if name not in tainted and names_used(node) & tainted:
                tainted.add(name)
                grew = True
    assert not POINT_MODEL & tainted, POINT_MODEL & tainted


def test_moved_names_are_not_in_the_package():
    src = Path(rankone.__file__).parent
    for path in sorted(src.glob("*.py")):
        name = "rankone" if path.stem == "__init__" else f"rankone.{path.stem}"
        namespace = vars(importlib.import_module(name))
        assert not MOVED & namespace.keys(), (name, MOVED & namespace.keys())
        tree = ast.parse(path.read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        assert not MOVED & defined, (path.name, MOVED & defined)


def test_reference_leaves_the_engine_cache_alone(desk):
    sched = Schedule.from_json(desk.to_json())
    y = base_slab(sched)
    assert refine(y, 4, sched).stage == 4
    assert translate_exact(y, sched.height(3), sched).stage == 4
    assert sched.runtime_cache == {}
