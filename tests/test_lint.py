import ast
from pathlib import Path

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
    "groupsys.py": (
        "_coset_key",
        "_conjugate_by_scale",
        "finite_quotient",
        "FiniteQuotient.width_cosets",
    ),
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
