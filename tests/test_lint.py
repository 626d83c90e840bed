import ast
import json
import re
from pathlib import Path

import pytest

from .test_api import fresh_python

SRC = Path(__file__).resolve().parent.parent / "src" / "plattice"


def test_no_bare_asserts_in_package():
    # python -O strips assert statements, so checks that guard results
    # must raise explicitly
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []


# matrices and lattice names are integers between parse and print, so the
# product, reduction and coset-key path must build no rationals
INTEGER_ONLY = {
    "exact.py": ("ProjectiveMatrix.__mul__", "ProjectiveMatrix.inv", "ProjectiveMatrix.from_ints"),
    "lattice.py": ("reduce_matrix", "act", "hyperdistance"),
    "tree.py": ("divisors", "thread", "_lattice_sum"),
    "groupsys.py": (
        "_coset_key",
        "_conjugate_by_scale",
        "finite_quotient",
        "FiniteQuotient.width_cosets",
        "congruence_level",
        "normalizer_quotient_orders",
    ),
    "classify.py": ("may_pass",),
    "cusps.py": ("translation_orbits",),
}
RATIONAL_NAMES = {"Fraction", "from_entries", "lattice"}


def _definitions(tree: ast.Module) -> dict:
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out["%s.%s" % (node.name, item.name)] = item
    return out


def test_integer_path_builds_no_rationals():
    offenders = []
    for filename, qualnames in INTEGER_ONLY.items():
        path = SRC / filename
        defs = _definitions(ast.parse(path.read_text(), filename=str(path)))
        for qualname in qualnames:
            if qualname not in defs:
                offenders.append("%s: %s is missing" % (filename, qualname))
                continue
            used = set()
            for node in ast.walk(defs[qualname]):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
            offenders += [
                "%s: %s names %s" % (filename, qualname, name)
                for name in sorted(used & RATIONAL_NAMES)
            ]
    assert offenders == []


def test_no_module_imports_dataclasses():
    # records are named tuples: importing dataclasses (and inspect with it)
    # cost every cold command about 15 ms
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


# A cold command loads only the layers it uses: the package and the CLI
# import plattice modules lazily, inside the code that needs them.
LAZY_IMPORTERS = ("__init__.py", "cli.py")


def _module_scope_imports(node):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_scope_imports(child)


def _imports_plattice(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "plattice"
    return any(alias.name.split(".")[0] == "plattice" for alias in node.names)


def test_package_and_cli_import_no_layer_at_module_scope():
    offenders = []
    for filename in LAZY_IMPORTERS:
        path = SRC / filename
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            "%s:%d" % (filename, node.lineno)
            for node in _module_scope_imports(tree)
            if _imports_plattice(node)
        ]
    assert offenders == []


# Run in a fresh interpreter: main(argv) with stdout discarded, then print
# the modules that were loaded.
LOADED_SCRIPT = r"""
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import plattice
else:
    from plattice.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit("exit code %d" % code)
print(json.dumps(sorted(sys.modules)))
"""

SEARCH_LAYERS = {"groupsys", "cusps", "classify", "diagram", "frames"}


def _loaded_modules(argv) -> set:
    proc = fresh_python("-c", LOADED_SCRIPT, json.dumps(argv))
    return set(json.loads(proc.stdout))


def _loaded_layers(argv) -> set:
    return {m[len("plattice."):] for m in _loaded_modules(argv) if m.startswith("plattice.")}


def test_import_plattice_loads_no_submodule():
    assert _loaded_layers(None) == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "8"],
        ["reduce", "[[0,-1],[4,0]]"],
        ["hyperdistance", "1,0", "2,0"],
        ["hypercircle", "3,0", "3", "--json"],
        ["thread", "1,0", "6,0"],
        ["cell", "1,0", "2,0", "3,0", "6,0"],
        ["project", "6,0", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_calculus_commands_load_no_group_layer(argv):
    loaded = _loaded_layers(argv)
    assert "cli" in loaded
    assert loaded & SEARCH_LAYERS == set()


@pytest.mark.parametrize("shape", ["3|3", "2^6 6^6 / 1^6 3^6"])
def test_eta_loads_no_classification(shape):
    loaded = _loaded_layers(["eta", shape, "--order", "20"])
    assert "frames" in loaded
    assert loaded & {"classify", "diagram"} == set()


def test_eta_of_a_frame_shape_loads_only_frames():
    # text with "^" or "/" is never a group name, so groupsys and the
    # layers under it (and fractions with them) stay unloaded
    loaded = _loaded_modules(["eta", "2^6 6^6 / 1^6 3^6", "--order", "20"])
    assert {m for m in loaded if m.startswith("plattice.")} == {"plattice.cli", "plattice.frames"}
    assert "fractions" not in loaded


@pytest.mark.parametrize("name", ["1", "2+", "3+", "4+", "5+", "6+", "3|3", "4|2+", "2"])
def test_eta_of_a_vertex_name_loads_only_frames(name):
    # the nine display names are read from the frames catalog
    loaded = _loaded_modules(["eta", name, "--order", "20"])
    assert {m for m in loaded if m.startswith("plattice.")} == {"plattice.cli", "plattice.frames"}
    assert "fractions" not in loaded


def test_eta_of_an_alias_loads_groupsys():
    # another spelling of a vertex group still goes through the group parser
    assert "groupsys" in _loaded_layers(["eta", "3+3", "--order", "20"])
    alias = fresh_python("-m", "plattice.cli", "eta", "3+3", "--order", "20")
    assert alias.stdout == fresh_python("-m", "plattice.cli", "eta", "3+", "--order", "20").stdout


# One argv per row of README's start-up table, keyed by the row's command
# cell; the layers it loads (besides cli) must be exactly the row's.
README = SRC.parent.parent / "README.md"
STARTUP_ROWS = {
    "`reduce`, `hyperdistance`": ["reduce", "[[0,-1],[4,0]]"],
    "`hypercircle`, `thread`, `cell`, `project`, `index`": ["index", "8"],
    "`level`, `groups --member`": ["groups", "3|3", "--member", "[[1,0],[0,1]]"],
    "`groups`, `cusps`": ["cusps", "9"],
    "`eta` of a Frame shape (text with `^` or `/`)": ["eta", "2^6 6^6 / 1^6 3^6", "--order", "20"],
    "`eta` of a vertex name (`2+`, `6+`, ...)": ["eta", "6+", "--order", "20"],
    "`eta` of another group name or a bare number": ["eta", "24", "--order", "20"],
    "`classify`": ["classify"],
    "`diagram`": ["diagram"],
    "`super`": ["super"],
}


def _startup_table() -> dict:
    text = README.read_text().split("## Start-up", 1)[1]
    rows = {}
    for line in text.split("| --- | --- |", 1)[1].strip().split("\n\n", 1)[0].splitlines():
        command, layers = (cell.strip() for cell in line.strip("|").rsplit("|", 1))
        names = set(re.findall(r"`(\w+)`", layers))
        rows[command] = names | ({"exact", "lattice", "tree"} if layers.startswith("...") else set())
    return rows


def test_startup_table_has_one_argv_per_row():
    assert list(_startup_table()) == list(STARTUP_ROWS)


@pytest.mark.parametrize("row", list(STARTUP_ROWS))
def test_startup_table_row_loads_its_layers(row):
    assert _loaded_layers(STARTUP_ROWS[row]) - {"cli"} == _startup_table()[row]


@pytest.mark.parametrize(
    "argv",
    [["index", "8"], ["classify"], ["super", "--check-invariance"]],
    ids=lambda argv: argv[0],
)
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    assert _loaded_modules(argv) & {"dataclasses", "inspect"} == set()


# The benchmark's traced runs (perfbench/launcher.py) wrap these callables
# from outside and read the level of finite_quotient's second positional
# argument and the sizes of three results; a rename here would blank the
# trace notes without failing a run.
LAUNCHER = SRC.parent.parent / "perfbench" / "launcher.py"


def _launcher_hooks() -> list[str]:
    tree = ast.parse(LAUNCHER.read_text(), filename=str(LAUNCHER))
    hooks = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_post_hooks"
    )
    returned = next(node.value for node in ast.walk(hooks) if isinstance(node, ast.Return))
    return [key.value for key in returned.keys]


def test_benchmark_trace_hooks_find_what_they_read():
    import importlib
    import inspect

    from plattice.frames import FRAME_SHAPES
    from plattice.groupsys import GroupDescriptor, normalizer_of_gamma0
    from plattice.lattice import L1

    hooks = _launcher_hooks()
    assert hooks == ["groupsys.finite_quotient", "tree.hypercircle", "frames.eta_quotient_series"]
    found = {}
    for qualname in hooks:
        layer, name = qualname.split(".")
        found[qualname] = getattr(importlib.import_module("plattice." + layer), name)

    params = list(inspect.signature(found["groupsys.finite_quotient"]).parameters.values())
    assert [p.name for p in params[:2]] == ["big", "small"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:2])
    small = GroupDescriptor.gamma0(4)
    assert small.n == 4
    assert found["groupsys.finite_quotient"](normalizer_of_gamma0(4), small).order == 6
    assert len(found["tree.hypercircle"](L1, 6).members) == 12
    assert len(found["frames.eta_quotient_series"](FRAME_SHAPES[0], 5).coeffs) == 7
