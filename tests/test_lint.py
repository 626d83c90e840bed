import ast
import json
import re
import runpy
import shlex
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
    "exact.py": ("ProjectiveMatrix.__mul__", "ProjectiveMatrix.inv", "ProjectiveMatrix.__new__", "hermite"),
    "lattice.py": ("reduce_matrix", "act", "hyperdistance", "LatticeName.__str__", "name_text", "_ratio_text"),
    "arith.py": ("divisors",),
    "tree.py": ("thread", "_lattice_sum"),
    "descriptors.py": ("GroupDescriptor.intersection_level", "GroupDescriptor.index_over"),
    "groupsys.py": (
        "_coset_key",
        "_conjugate_by_scale",
        "_kernel_cosets",
        "finite_quotient",
        "FiniteQuotient.width_cosets",
    ),
    "classify.py": ("may_pass", "level_cap"),
    "cusps.py": ("gamma0_cusps", "CuspReport.to_json"),
}
RATIONAL_NAMES = {"Fraction", "from_entries", "lattice"}


def test_no_module_builds_a_named_tuple_past_its_constructor():
    # _make and _replace call tuple.__new__, not the class's own __new__, so
    # on a ProjectiveMatrix they would store an unreduced representative
    offenders = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace")
    ]
    assert offenders == []


def _is_named_tuple(node) -> bool:
    # a class statement whose bases call namedtuple
    calls = [base.func for base in node.bases if isinstance(base, ast.Call)]
    return any(getattr(f, "id", getattr(f, "attr", None)) == "namedtuple" for f in calls)


def test_a_named_tuple_with_its_own_order_defines_all_four_comparisons():
    # a tuple compares by its fields with all four operators, and
    # functools.total_ordering fills in only the ones a class lacks, so a
    # named tuple with __lt__ alone would answer > and <= by its fields
    missing = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ClassDef) and _is_named_tuple(node)):
                continue
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if "__lt__" in methods:
                missing[node.name] = sorted({"__gt__", "__le__", "__ge__"} - methods)
    assert missing == dict.fromkeys(missing, [])
    assert {"GroupDescriptor", "LatticeName"} <= missing.keys()


def _calls_the_index(node) -> bool:
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "gamma0_index" for n in ast.walk(node))


def test_the_index_of_a_named_group_is_written_once():
    # [G : level M] is GroupDescriptor.index_over, the one quotient of two
    # index-formula values in the package; and no named tuple defines index
    # or count, which would change tuple.index and tuple.count for every caller
    quotients, shadows = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
                sides = [node.left, node.right]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "divmod":
                sides = node.args
            else:
                sides = []
            if len(sides) == 2 and all(_calls_the_index(side) for side in sides):
                quotients.append(path.name)
            if isinstance(node, ast.ClassDef) and _is_named_tuple(node):
                for item in node.body:
                    targets = item.targets if isinstance(item, ast.Assign) else [item]
                    names = {getattr(t, "name", getattr(t, "id", None)) for t in targets}
                    shadows += ["%s.%s" % (node.name, name) for name in sorted(names & {"index", "count"})]
    assert quotients == ["descriptors.py"]
    assert shadows == []


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


def test_no_module_reads_rational_objects():
    # rationals enter as text read into integer pairs, so nothing in the
    # package reads a numerator or a denominator off a number object
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += [
            "%s:%d %s" % (path.name, node.lineno, node.attr)
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
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


def test_no_module_imports_json():
    # print_json writes the text of json.dumps through plattice.jsonwriter:
    # importing json, whose decoder compiles regexes, cost every JSON
    # command about 0.1 MB of peak memory
    assert _importers("json") == []


def test_no_module_reads_json():
    # the records are printed as JSON and no command reads one back: the
    # readers of the round-trip tests are in tests/helpers.py
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "from_json":
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_no_floating_point():
    # every invariance generator is decided in integers, and no option reads
    # a float: no module imports cmath, and src/ has no float or complex
    # name and no float or complex constant
    assert _importers("cmath") == []
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id in ("float", "complex"):
                found.append((path.name, node.id))
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((path.name, repr(node.value)))
    assert found == []


def test_no_module_imports_from_future():
    # ``from __future__ import annotations`` imports the __future__ module
    # when it runs, about 0.12 ms of every cold command; forward references
    # are quoted instead
    assert _importers("__future__") == []


def test_no_module_imports_re():
    # rationals and Frame shapes are read with str methods and group names
    # by GroupDescriptor.parse alone, so no module imports re, in a function
    # or at module scope: ``re`` and ``enum`` cost a cold
    # ``eta 2 --order 363`` 2.2 ms under python -S, where no site-packages
    # .pth file has imported them first
    assert _importers("re") == []


def _import_time_nodes(node):
    # the nodes a module runs when it is imported: not the bodies of its
    # functions and lambdas, which run when they are called
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_regex_is_compiled_at_import():
    # a pattern compiled at module scope costs every command that loads its
    # module, about 0.12 ms for the rational reader of exact, whether or not
    # it parses; test_no_module_imports_re keeps ``re`` out of src/ as a
    # whole, and this test still holds if that one is ever relaxed
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in _import_time_nodes(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "compile"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
        ]
    assert found == []


def test_no_module_imports_re_at_module_scope():
    # the weaker form of test_no_module_imports_re: were ``re`` ever needed
    # again, it would be imported inside the branch that uses it, never at
    # module scope, where every command that loads the module pays for it
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in _module_scope_imports(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Import) and "re" in [alias.name for alias in node.names]
            or isinstance(node, ast.ImportFrom) and node.module == "re"
        ]
    assert found == []


def test_only_output_imports_the_json_writer():
    # and only inside print_json, so that text commands compile none of it
    assert [offender.split(":")[0] for offender in _importers("jsonwriter")] == ["output.py"]
    output = ast.parse((SRC / "output.py").read_text())
    assert "jsonwriter" not in [getattr(node, "module", None) for node in _module_scope_imports(output)]


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


def test_only_the_cli_reads_the_json_shorthand():
    # main turns --json into --format json, so the handlers read --format alone
    assert [path.name for path in sorted(SRC.glob("*.py")) if "as_json" in path.read_text()] == ["cli.py"]


def test_groupsys_takes_nothing_from_arith_or_tree():
    # a kernel is decided on a finite quotient, not by acting on lattice
    # sets, and the normalizer is read off its descriptor
    assert sorted(_taken_from("groupsys.py")) == ["descriptors", "exact"]


def test_group_layers_import_nothing_from_lattice():
    # a coset key is the pair of Hermite triples of exact.hermite, so no
    # lattice name is built, and classify, diagram and super --check-invariance
    # compile no name or text code
    files = ["descriptors.py", "groupsys.py", "classify.py", "diagram.py", "doubling.py", "frames.py"]
    assert [filename for filename in files if "lattice" in _taken_from(filename)] == []


def test_exact_is_integer_matrices_only():
    # every reader of text is in lattice, so exact imports no plattice
    # module and parses nothing
    assert _taken_from("exact.py") == {}
    tree = ast.parse((SRC / "exact.py").read_text())
    assert [name for name in _definitions(tree) if name.split(".")[-1].startswith("parse")] == []


def test_descriptors_take_only_divisors_and_the_index_from_arith():
    # names are computed from their integers alone: no other plattice
    # module is imported, so no matrix is built here
    assert _taken_from("descriptors.py") == {"arith": ["divisors", "gamma0_index"]}


def test_diagram_imports_nothing_from_classify():
    # a core is read off its group's name, not named by the classify catalog
    assert "classify" not in _taken_from("diagram.py")


def test_diagram_takes_nothing_from_exact_or_lattice():
    # the vertex table is read off the name and checked on quotients, and
    # the Schreier walk that acted on lattices is a test oracle
    assert sorted(_taken_from("diagram.py")) == ["descriptors", "groupsys"]


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


def test_frames_never_imports_diagram():
    # the invariance check decides the level group by Ligozat's criterion,
    # so it needs no Schreier generators
    assert _frames_importers_of("diagram") == []


def test_frames_imports_groupsys_only_inside_the_invariance_check():
    # only the check's generators over the level group load groupsys, and
    # exact and lattice with it
    assert _frames_importers_of("groupsys") == ["numeric_invariance_check"]


def test_frames_imports_doubling_only_inside_the_invariance_check():
    # the series engine compiles no doubling: no group doubling, no
    # Ligozat criterion and no multiplier of eta
    assert _frames_importers_of("doubling") == ["numeric_invariance_check"]


def test_only_frame_shape_reads_its_parts():
    # the doubled exponents are written once, in FrameShape.eta_exponents,
    # and every other reader of a shape takes them from there
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {
            id(child)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "FrameShape"
            for child in ast.walk(node)
        }
        readers += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "parts" and id(node) not in inside
        ]
    assert readers == []


def test_arith_imports_no_plattice_module():
    assert _taken_from("arith.py") == {}


@pytest.mark.parametrize("filename", ["descriptors.py", "groupsys.py", "classify.py", "cusps.py"])
def test_group_layers_import_nothing_from_tree(filename):
    # their number theory is in arith, so no hypercircle code is compiled
    assert "tree" not in _taken_from(filename)


# Only the program skips the interpreter's shutdown collections: cli.run
# freezes the collector after main returns.  Nothing else may stop, tune or
# freeze it, nor leave the process without its exit.
COLLECTOR_CALLS = {("gc", "freeze"), ("gc", "disable"), ("gc", "set_threshold"), ("os", "_exit")}


def _collector_uses(node, filename, function="<module>"):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
            used = [(child.value.id, child.attr)]
        elif isinstance(child, ast.ImportFrom):
            used = [(child.module, alias.name) for alias in child.names]
        else:
            used = []
        yield from ("%s:%s %s.%s" % (filename, function, *pair) for pair in used if pair in COLLECTOR_CALLS)
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _collector_uses(child, filename, inner)


def test_only_run_freezes_the_collector():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _collector_uses(ast.parse(path.read_text(), filename=str(path)), path.name)
    assert found == ["cli.py:run gc.freeze"]


# Imports every plattice module in a fresh interpreter and prints the
# collector's state before and after
COLLECTOR_SCRIPT = r"""
import gc, importlib, sys
state = lambda: [gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()]
before = state()
for name in sys.argv[1:]:
    importlib.import_module(name)
print(repr([before, state()]))
"""


def test_importing_the_package_leaves_the_collector_alone():
    modules = ["plattice", "plattice.cli"] + ["plattice." + path.stem for path in sorted(SRC.glob("[!_]*.py"))]
    # the freeze count is compared with its start, which is not 0 on every version
    before, after = ast.literal_eval(fresh_python("-c", COLLECTOR_SCRIPT, *modules).stdout)
    assert after == before


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
LAZY_IMPORTERS = ("__init__.py", "cli.py", "cli_calculus.py", "cli_classify.py", "cli_groups.py", "cli_series.py")
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


def test_cli_imports_the_argument_parser_only_when_it_builds_one():
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in _module_scope_imports(tree):
        names |= {alias.name for alias in node.names} if isinstance(node, ast.Import) else {node.module}
    assert names & {"argparse", "re"} == set()


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


# main(argv) in a fresh interpreter with stdout discarded; prints its exit
# code and the loaded modules with repr, so that the script loads no json
BARE_SCRIPT = r"""
import contextlib, io, sys
from plattice.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(repr([code, sorted(sys.modules)]))
"""

# one JSON form of each command that prints through print_json
JSON_FORMS = [
    ["hypercircle", "3,0", "3", "--json"],
    ["thread", "1,0", "6,0", "--json"],
    ["cell", "1,0", "2,0", "--json"],
    ["cusps", "9", "--json"],
    ["groups", "4|2+", "--json"],
    ["classify", "--json"],
    ["diagram", "--format", "dot", "--json"],
    ["super", "--json"],
]
# these print their text in every format
TEXT_ONLY = [
    ["reduce", "[[0,-1],[4,0]]", "--json"],
    ["hyperdistance", "1,0", "2,0", "--json"],
    ["project", "6,0", "2", "--json"],
    ["index", "8", "--json"],
    ["level", "8|2+", "--json"],
    ["groups", "4|2+", "--member", "[[1,1],[0,1]]", "--json"],
    ["eta", "6+", "--order", "20", "--json"],
]


def _bare_loaded_modules(argv) -> set:
    code, loaded = ast.literal_eval(fresh_python("-c", BARE_SCRIPT, *argv).stdout)
    assert code == 0
    return set(loaded)


def test_json_forms_cover_every_command_that_prints_json():
    printing = set()
    for path in sorted(SRC.glob("cli_*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(child, ast.Name) and child.id == "print_json" for child in ast.walk(node)
            ):
                printing.add(node.name.removeprefix("cmd_"))
    assert printing == {argv[0] for argv in JSON_FORMS}


@pytest.mark.parametrize("argv", JSON_FORMS, ids=lambda argv: argv[0])
def test_json_is_printed_without_the_json_package(argv):
    # the writer module streams the text of json.dumps(indent=2, sort_keys=True)
    loaded = _bare_loaded_modules(argv)
    assert "plattice.jsonwriter" in loaded
    assert "json" not in loaded


@pytest.mark.parametrize(
    "argv",
    [[word for word in argv if word != "--json"] for argv in JSON_FORMS] + TEXT_ONLY,
    ids=" ".join,
)
def test_text_loads_no_json_writer(argv):
    loaded = _bare_loaded_modules(argv)
    assert loaded & {"plattice.jsonwriter", "json"} == set()


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
    "`hypercircle --json`, `thread --json`, `cell --json`": ["thread", "1,0", "6,0", "--json"],
    "`cusps --json`": ["cusps", "9", "--json"],
    "`eta` of a Frame shape (text with `^` or `/`)": ["eta", "2^6 6^6 / 1^6 3^6", "--order", "20"],
    "`eta` of a bare number (a Frame shape: `24` is `24^1`)": ["eta", "24", "--order", "20"],
    "`eta` of a vertex name (`2+`, `6+`, ...)": ["eta", "6+", "--order", "20"],
    "`eta` of another group name (`3+3`, `02+`, ...)": ["eta", "3+3", "--order", "20"],
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


@pytest.mark.parametrize("row", list(STARTUP_ROWS))
def test_startup_table_row_loads_no_re_without_site(row):
    # under -S no site-packages .pth file has imported re before the command
    # runs, so the set of loaded modules shows what the command itself loads
    code, loaded = ast.literal_eval(fresh_python("-S", "-c", BARE_SCRIPT, *STARTUP_ROWS[row]).stdout)
    assert code == 0
    assert "re" not in loaded


# argparse, with gettext and the locale that its first translated text
# loads, is for help, usage errors and unusual spellings only
ARGUMENT_PARSER = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("row", list(STARTUP_ROWS))
def test_startup_table_row_loads_no_argument_parser(row):
    assert _loaded_modules(STARTUP_ROWS[row]) & ARGUMENT_PARSER == set()


# main(argv) in a fresh interpreter; prints its exit code, stdout, stderr
# and the modules that were loaded
OUTCOME_SCRIPT = r"""
import contextlib, io, json, sys
from plattice.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(), err.getvalue(), sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv, code", [(["eta", "--help"], 0), (["index", "x"], 2)], ids=["help", "usage-error"])
def test_help_and_usage_errors_still_use_argparse(monkeypatch, capsys, argv, code):
    from plattice.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its texts at this width
    found = json.loads(fresh_python("-c", OUTCOME_SCRIPT, json.dumps(argv)).stdout)
    assert ARGUMENT_PARSER <= set(found.pop())
    with pytest.raises(SystemExit) as stopped:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert found == [code, expected.out, expected.err] and stopped.value.code == code


# Every command line the benchmark runs is read without argparse: the
# first blocks of each stream for a few seeds, every argv its `fixed` ops
# draw from, its setup op and the README's quick start.
BENCHMARK = SRC.parent.parent / "perfbench"


def _readme_commands() -> list:
    block = README.read_text().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.strip().splitlines()]


def test_every_benchmark_and_readme_command_line_is_read_without_argparse():
    from plattice.cli import _read_argv

    readme = _readme_commands()
    assert len(readme) == 15
    workloads = runpy.run_path(str(BENCHMARK / "workloads.py"))
    argvs = [["index", "1"]] + workloads["fixed_argvs"]() + readme
    for workload in workloads["WORKLOADS"]:
        for seed in range(1, 6):
            argvs += [op.argv for op in workloads["ops_for"](workload, seed, 60)]
    assert [argv for argv in argvs if _read_argv(argv) is None] == []


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


def test_level_loads_no_groupsys():
    # the congruence level is read off the name, never its matrices
    loaded = _loaded_layers(["level", "6+2"])
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


def test_reach_ledger_names_existing_statements():
    # tests.reach runs the golden corpus under a tracer (about 20 s); this
    # reads only the source, so a renamed or deleted statement fails fast
    from . import reach

    keys = {stmt.key for path in SRC.glob("*.py") for stmt in reach.statements(path) if stmt.counted}
    ledger = json.loads(reach.LEDGER.read_text())
    assert [entry for entry in ledger if reach.entry_key(entry) not in keys] == []
    assert {entry["category"] for entry in ledger} <= set(reach.CATEGORIES)
    assert len({reach.entry_key(entry) for entry in ledger}) == len(ledger)


REACH_SAMPLE = '''"""A module."""
import os

LIMIT = 3


def f(x):
    """Docstring."""
    if x > LIMIT:  # a comment
        raise ValueError(
            "big"
        )
    for y in range(x):
        x += y
        x += y
    return x
'''


def test_reach_keys_statements_by_name_text_and_occurrence(tmp_path):
    from . import reach

    path = tmp_path / "sample.py"
    path.write_text(REACH_SAMPLE)
    keys = [stmt.key for stmt in reach.statements(path) if stmt.counted]
    assert keys == [
        ("sample", "<module>", "LIMIT = 3", 1),
        ("sample", "f", "if x > LIMIT:", 1),
        ("sample", "f", 'raise ValueError( "big" )', 1),
        ("sample", "f", "for y in range(x):", 1),
        ("sample", "f", "x += y", 1),
        ("sample", "f", "x += y", 2),
        ("sample", "f", "return x", 1),
    ]
    # a statement ran if one of its own lines ran or a statement inside it
    # did: the raise ran from its second line, and the loop from its body
    assert reach.unrun(path, {4, 9, 11, 15}) == [keys[4], keys[6]]
    assert reach.unrun(path, {4, 9, 16}) == [keys[2], keys[3], keys[4], keys[5]]


def test_reach_fails_on_an_unlisted_statement_and_a_stale_entry():
    from . import reach

    keys = [("tree", "is_cell", "continue", 1), ("cli", "run", "gc.freeze()", 1)]
    ledger = [dict(zip(("module", "name", "text", "occurrence"), key), category="subprocess") for key in keys]
    assert reach.differences(keys, ledger) == []
    # an entry taken out of the ledger, or a new statement no command runs
    assert reach.differences(keys, ledger[1:]) == ["unlisted\ttree\tis_cell\tcontinue\t#1"]
    assert reach.differences(keys + [("tree", "is_cell", "continue", 2)], ledger) == [
        "unlisted\ttree\tis_cell\tcontinue\t#2"
    ]
    # an entry for a statement that now runs, and one with no category of the five
    assert reach.differences(keys[1:], ledger) == ["stale\ttree\tis_cell\tcontinue\t#1"]
    ledger[1]["category"] = "unreachable"
    assert reach.differences(keys, ledger) == ["category\tcli\trun\tgc.freeze()\t#1"]
