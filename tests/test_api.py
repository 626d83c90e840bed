"""The package exports load lazily but resolve to the same objects."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plattice

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

# every name the package exports, by the module that defines it
HOMES = {
    "arith": ["gamma0_index"],
    "exact": ["ProjectiveMatrix", "pdet", "primitive_rep"],
    "lattice": ["LatticeName", "act", "hyperdistance", "reduce_matrix"],
    "tree": ["HyperCircle", "Thread", "hypercircle", "is_cell", "padic_projection", "thread"],
    "descriptors": [
        "GroupDescriptor",
        "NODE_GROUPS",
        "congruence_level",
        "normalizer_of_gamma0",
        "width_at_infinity",
    ],
    "groupsys": ["FiniteQuotient", "al_coset_representative", "finite_quotient", "member"],
    "cusps": ["CuspReport", "cusps_of_gamma0"],
    "classify": ["Candidate", "candidate_levels", "check_conditions", "classify"],
    "diagram": ["LabeledGraph", "VertexData", "build_graph", "emit_dot", "schreier_generators", "vertex_data"],
    "frames": [
        "FRAME_SHAPES",
        "FrameShape",
        "IntegerPowerSeries",
        "eta_quotient_series",
        "frame_shape",
        "numeric_invariance_check",
    ],
    "doubling": ["double_group"],
}
SUBMODULES = list(HOMES) + ["cli", "cli_calculus", "cli_groups", "cli_series", "output"]

# Run in a fresh interpreter: argv[1] is "before" (no submodule imported
# yet) or "after" (all of SUBMODULES imported first).  Prints what it found as JSON.
PARITY_SCRIPT = r"""
import importlib, json, sys
order, homes, submodules = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
import plattice
loaded = sorted(m for m in sys.modules if m.startswith("plattice."))
if order == "after":
    for mod in submodules:
        importlib.import_module("plattice." + mod)
    import plattice.classify
from plattice import classify as imported_classify
mismatched = [
    name
    for home, names in homes.items()
    for name in names
    if getattr(plattice, name) is not getattr(sys.modules["plattice." + home], name)
]
print(json.dumps({
    "loaded_by_import": loaded,
    "mismatched": mismatched,
    "from_import_is_function": imported_classify is sys.modules["plattice.classify"].classify,
    "classify_is_function": plattice.classify is sys.modules["plattice.classify"].classify,
    "exact_is_module": plattice.exact is sys.modules["plattice.exact"],
}))
"""


def fresh_python(*args: str, timeout: float = 60, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``python args...`` in a new process that imports this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout, check=check
    )


def test_all_is_the_sorted_export_list():
    assert plattice.__all__ == sorted(name for names in HOMES.values() for name in names)


@pytest.mark.parametrize("order", ["before", "after"])
def test_exports_are_the_home_module_objects(order):
    proc = fresh_python("-c", PARITY_SCRIPT, order, json.dumps(HOMES), json.dumps(SUBMODULES))
    found = json.loads(proc.stdout)
    assert found == {
        "loaded_by_import": [],
        "mismatched": [],
        "from_import_is_function": True,
        "classify_is_function": True,
        "exact_is_module": True,
    }


def test_dir_lists_every_export():
    assert set(plattice.__all__) <= set(dir(plattice))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        plattice.no_such_export


def test_diagram_keeps_the_node_group_catalog():
    from plattice import descriptors, diagram

    assert diagram.NODE_GROUPS is descriptors.NODE_GROUPS
