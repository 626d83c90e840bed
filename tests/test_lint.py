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
# product, reduction, coset-key, cusp and name-printing paths must build no
# rationals
INTEGER_ONLY = {
    "exact.py": ("ProjectiveMatrix.__mul__", "ProjectiveMatrix.inv", "ProjectiveMatrix.from_ints"),
    "lattice.py": ("reduce_matrix", "act", "hyperdistance", "LatticeName.__str__", "name_text", "_ratio_text"),
    "arith.py": ("divisors",),
    "tree.py": ("thread", "_lattice_sum"),
    "descriptors.py": ("congruence_level", "normalizer_quotient_orders"),
    "groupsys.py": (
        "_coset_key",
        "_conjugate_by_scale",
        "_kernel_cosets",
        "finite_quotient",
        "FiniteQuotient.width_cosets",
    ),
    "classify.py": ("may_pass",),
    "cusps.py": ("gamma0_cusps", "CuspReport.to_json"),
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


def _importers(module: str) -> list[str]:
    # every import statement of the package that names ``module``
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == module for m in modules):
                offenders.append("%s:%d" % (path.name, node.lineno))
    return offenders


def test_no_module_imports_dataclasses():
    # records are named tuples: importing dataclasses (and inspect with it)
    # cost every cold command about 15 ms
    assert _importers("dataclasses") == []


def test_no_module_imports_fractions():
    # rationals are read as integer pairs: fractions (with decimal and
    # numbers) cost every command that reads a name about 3.5 ms
    assert _importers("fractions") == []


def _taken_from(filename: str) -> dict:
    # module -> the names ``filename`` imports from it, for plattice modules
    path = SRC / filename
    taken = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or not _imports_plattice(node):
            continue
        module = (node.module or "").split(".")[-1] if isinstance(node, ast.ImportFrom) else ""
        for alias in node.names:
            if module in ("", "plattice"):  # ``from . import tree`` takes the whole module
                taken.setdefault(alias.name.split(".")[-1], []).append("*")
            else:
                taken.setdefault(module, []).append(alias.name)
    return {module: sorted(names) for module, names in taken.items()}


def test_groupsys_takes_nothing_from_arith_or_tree():
    # a kernel is decided on a finite quotient, not by acting on lattice
    # sets, the normalizer is read off its descriptor, and the Schreier walk,
    # which counts its cosets with the index, is in diagram
    assert sorted(_taken_from("groupsys.py")) == ["descriptors", "exact", "lattice"]


def test_descriptors_take_only_divisors_and_the_index_from_arith():
    # names are computed from their integers alone: no other plattice
    # module is imported, so no matrix is built here
    assert _taken_from("descriptors.py") == {"arith": ["divisors", "gamma0_index"]}


def test_diagram_imports_nothing_from_classify():
    # a core is read off its group's name, not named by the classify catalog
    assert "classify" not in _taken_from("diagram.py")


def _frames_importers_of(module: str) -> list[str]:
    """The functions of frames that import module; none may import it at module scope."""
    tree = ast.parse((SRC / "frames.py").read_text())
    assert module not in [getattr(node, "module", None) for node in _module_scope_imports(tree)]
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for child in ast.walk(node)
        if isinstance(child, ast.ImportFrom) and child.module == module
    ]


def test_frames_imports_diagram_only_inside_the_invariance_check():
    # a group doubles by its name, so only the check that needs generators
    # loads diagram, and groupsys, exact and lattice with it
    assert _frames_importers_of("diagram") == ["numeric_invariance_check"]


def test_frames_imports_doubling_only_inside_the_invariance_check():
    # the series engine compiles no doubling and no float helpers
    assert _frames_importers_of("doubling") == ["numeric_invariance_check"]


def test_arith_imports_no_plattice_module():
    assert _taken_from("arith.py") == {}


@pytest.mark.parametrize("filename", ["descriptors.py", "groupsys.py", "classify.py", "cusps.py"])
def test_group_layers_import_nothing_from_tree(filename):
    # their number theory is in arith, so no hypercircle code is compiled
    assert "tree" not in _taken_from(filename)


def test_no_module_imports_the_cli():
    # under ``python -m plattice.cli`` the CLI runs as __main__, so importing
    # plattice.cli would compile it a second time
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and _imports_plattice(node):
                module = (node.module or "").split(".")[-1]
                names = [alias.name for alias in node.names] if module in ("", "plattice") else [module]
            elif isinstance(node, ast.Import):
                names = [alias.name.split(".", 1)[-1] for alias in node.names if _imports_plattice(node)]
            else:
                continue
            if "cli" in names:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []


# A cold command loads only the layers it uses: the package, the CLI and
# the command handlers import plattice modules lazily, inside the code that
# needs them.  A handler module may import ``output`` at module scope.
LAZY_IMPORTERS = ("__init__.py", "cli.py", "cli_calculus.py", "cli_groups.py", "cli_series.py")
SHARED_BY_HANDLERS = "output"


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
            and not (filename.startswith("cli_") and getattr(node, "module", None) == SHARED_BY_HANDLERS)
        ]
    assert offenders == []


def test_lazy_importers_cover_every_handler_module():
    from plattice.cli import COMMANDS

    handlers = {module + ".py" for module, _, _ in COMMANDS.values()}
    assert handlers == {name for name in LAZY_IMPORTERS if name.startswith("cli_")}


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

SEARCH_LAYERS = {"descriptors", "groupsys", "cusps", "classify", "diagram", "doubling", "frames"}


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


# the plattice modules an eta loads besides its layers: the CLI, the
# module of its handler and the output helpers
SERIES_HANDLERS = {"plattice.cli", "plattice.cli_series", "plattice.output"}


def test_eta_of_a_frame_shape_loads_only_frames():
    # text with "^" or "/" is never a group name, so groupsys and the
    # layers under it (and fractions with them) stay unloaded
    loaded = _loaded_modules(["eta", "2^6 6^6 / 1^6 3^6", "--order", "20"])
    assert {m for m in loaded if m.startswith("plattice.")} == SERIES_HANDLERS | {"plattice.frames"}
    assert "fractions" not in loaded


@pytest.mark.parametrize("name", ["1", "2+", "3+", "4+", "5+", "6+", "3|3", "4|2+", "2"])
def test_eta_of_a_vertex_name_loads_only_frames(name):
    # the nine display names are read from the frames catalog
    loaded = _loaded_modules(["eta", name, "--order", "20"])
    assert {m for m in loaded if m.startswith("plattice.")} == SERIES_HANDLERS | {"plattice.frames"}
    assert "fractions" not in loaded


def test_eta_of_an_alias_loads_descriptors_not_groupsys():
    # another spelling of a vertex group still goes through the group parser,
    # which builds no matrix
    loaded = _loaded_layers(["eta", "3+3", "--order", "20"])
    assert "descriptors" in loaded and "groupsys" not in loaded
    alias = fresh_python("-m", "plattice.cli", "eta", "3+3", "--order", "20")
    assert alias.stdout == fresh_python("-m", "plattice.cli", "eta", "3+", "--order", "20").stdout


def test_index_loads_only_arith():
    assert _loaded_layers(["index", "8"]) == {"cli", "cli_calculus", "output", "arith"}


@pytest.mark.parametrize("argv", [["classify"], ["groups", "4|2+"], ["diagram"], ["super"]], ids=lambda a: a[0])
def test_group_commands_load_no_tree(argv):
    assert "tree" not in _loaded_layers(argv)


# What ``python -m plattice.cli ARGV...`` runs, with the loaded modules
# printed to stderr at the end.
MAIN_SCRIPT = r"""
import json, runpy, sys
sys.argv[1:] = json.loads(sys.argv[1])
try:
    runpy._run_module_as_main("plattice.cli")
finally:
    print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [["index", "1"], ["classify"], ["diagram", "--json"], ["eta", "6+"], ["hypercircle", "1,0", "6", "--json"]],
    ids=lambda argv: argv[0],
)
def test_running_as_main_never_imports_the_cli_module(argv):
    proc = fresh_python("-c", MAIN_SCRIPT, json.dumps(argv), check=False)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stderr))
    assert "plattice.output" in loaded
    assert "plattice.cli" not in loaded


# One argv per row of README's start-up table, keyed by the row's command
# cell; the modules it loads besides cli and output must be exactly the
# row's handler module and layers.
README = SRC.parent.parent / "README.md"
STARTUP_ROWS = {
    "`reduce`, `hyperdistance`": ["reduce", "[[0,-1],[4,0]]"],
    "`hypercircle`, `thread`, `cell`, `project`": ["hypercircle", "3,0", "3"],
    "`index`": ["index", "8"],
    "`level`": ["level", "8|2+"],
    "`groups`": ["groups", "4|2+"],
    "`groups --member`": ["groups", "4|2+", "--member", "[[1,1],[0,1]]"],
    "`cusps`": ["cusps", "9"],
    "`cusps --json`": ["cusps", "9", "--json"],
    "`eta` of a Frame shape (text with `^` or `/`)": ["eta", "2^6 6^6 / 1^6 3^6", "--order", "20"],
    "`eta` of a vertex name (`2+`, `6+`, ...)": ["eta", "6+", "--order", "20"],
    "`eta` of another group name or a bare number": ["eta", "24", "--order", "20"],
    "`classify`": ["classify"],
    "`diagram`": ["diagram"],
    "`super`": ["super"],
    "`super --check-invariance`": ["super", "--check-invariance"],
}


def _startup_table() -> dict:
    text = README.read_text().split("## Start-up", 1)[1]
    rows = {}
    for line in text.split("| --- | --- | --- |", 1)[1].strip().split("\n\n", 1)[0].splitlines():
        command, handler, layers = (cell.strip() for cell in line.strip("|").rsplit("|", 2))
        names = set(re.findall(r"`(\w+)`", handler + layers))
        rows[command] = names | ({"arith", "exact", "lattice"} if layers.startswith("...") else set())
    return rows


def test_startup_table_has_one_argv_per_row():
    assert list(_startup_table()) == list(STARTUP_ROWS)


@pytest.mark.parametrize("row", list(STARTUP_ROWS))
def test_startup_table_row_loads_its_layers(row):
    loaded = _loaded_layers(STARTUP_ROWS[row])
    assert {"cli", "output"} <= loaded
    assert loaded - {"cli", "output"} == _startup_table()[row]


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "8"],
        ["classify"],
        ["super", "--check-invariance"],
        ["reduce", "[[1,1/3],[0,1]]"],
        ["hyperdistance", "1/2,1/3", "1,0"],
        ["cusps", "9"],
        ["cusps", "9", "--json"],
        ["groups", "4|2+"],
    ],
    ids=["index", "classify", "super", "reduce", "hyperdistance", "cusps", "cusps-json", "groups"],
)
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # nor fractions, with decimal and numbers, which it imports
    loaded = _loaded_modules(argv)
    assert loaded & {"dataclasses", "inspect", "fractions", "decimal", "numbers"} == set()


def test_cusps_text_loads_no_groupsys():
    # the text prints no group record, so only the JSON loads descriptors,
    # and a record is a name, so neither loads groupsys
    assert _loaded_layers(["cusps", "9"]) & {"descriptors", "groupsys"} == set()
    loaded = _loaded_layers(["cusps", "2644", "--json"])
    assert "descriptors" in loaded and "groupsys" not in loaded


def test_level_with_a_bound_loads_no_groupsys():
    # the congruence level is read off the name, never its matrices
    loaded = _loaded_layers(["level", "6+2", "--max-n", "12"])
    assert "descriptors" in loaded and "groupsys" not in loaded


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
