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
