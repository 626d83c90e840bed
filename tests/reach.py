"""Which statements of ``src/plattice`` no command runs, checked against the
ledger ``tests/reach.json``.

    PYTHONPATH=src python -m tests.reach

Lines are traced with ``sys.settrace`` from before ``plattice`` is
imported, while every command line of the golden corpus
(``tests.make_golden.corpus``) runs in process through ``cli.main``.  A
statement ran if a line it owns ran, or a statement inside it did.
Definitions (``def``, ``class``), imports and docstrings are not counted.

A statement is keyed by its module, the qualified name of the function or
class it sits in (``<module>`` at the top level), its text with comments
dropped and each run of white space made one space (the header alone for a
compound statement), and its occurrence, from 1, among the statements of
that name with the same text.  No line number enters the key, so an edit
elsewhere leaves it alone.

Each ledger entry names one unrun statement and the reason no command runs
it, one of ``CATEGORIES``:

- ``internal-check``: a consistency check that raises ``AssertionError``
  (exit 3); it runs only if the program is wrong;
- ``api-input``: a refusal or branch that only input given through the API
  reaches, because no command makes that input or a command refuses it
  first;
- ``api-protocol``: a method of the data model or of the package's
  interface that no command calls, such as ``__str__`` or ``__le__``;
- ``test-hook``: what only the benchmark's hooks read;
- ``subprocess``: a path that only a separate program process takes, such
  as ``cli.run`` and the exit on a broken pipe.

It prints each unrun statement that the ledger does not list and each
ledger entry that names no unrun statement, and exits 1 if there is any.
"""

import ast
import io
import json
import os
import shlex
import sys
import tokenize
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "plattice"
LEDGER = HERE / "reach.json"
CATEGORIES = ("internal-check", "api-input", "api-protocol", "test-hook", "subprocess")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_docstring(node) -> bool:
    # a bare string compiles to nothing, so it could never run
    return (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


class Statement:
    """One statement of a module: its enclosing name, the statement it sits
    in, its depth, and its key if it is counted."""

    def __init__(self, node, name, parent, depth):
        self.node, self.name, self.parent, self.depth = node, name, parent, depth
        self.counted = not isinstance(node, SKIPPED) and not _is_docstring(node)
        self.key = None


def _text(lines, comments, start, end) -> str:
    # the source between two (line, column) positions, without comments,
    # with each run of white space made one space
    (l1, c1), (l2, c2) = start, end
    parts = []
    for number in range(l1, l2 + 1):
        line = lines[number - 1]
        stop = min(comments.get(number, len(line)), c2 if number == l2 else len(line))
        parts.append(line[c1 if number == l1 else 0 : stop])
    return " ".join(" ".join(parts).split())


def statements(path: Path) -> list[Statement]:
    """Every statement of the module at ``path`` in source order, each
    counted one with its key (module, name, text, occurrence)."""
    source = path.read_text()
    lines = source.splitlines()
    comments = {
        token.start[0]: token.start[1]
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    out = []

    def visit(body, name, parent, depth):
        for node in body:
            stmt = Statement(node, name, parent, depth)
            out.append(stmt)
            inner = name
            if isinstance(node, SCOPES):
                inner = node.name if name == "<module>" else "%s.%s" % (name, node.name)
            blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            for block in blocks:
                visit(block, inner, stmt, depth + 1)

    visit(ast.parse(source, filename=str(path)).body, "<module>", None, 0)
    seen = {}
    for stmt in out:
        if not stmt.counted:
            continue
        node = stmt.node
        body = getattr(node, "body", None)
        end = (body[0].lineno, body[0].col_offset) if body else (node.end_lineno, node.end_col_offset)
        text = _text(lines, comments, (node.lineno, node.col_offset), end)
        number = seen[stmt.name, text] = seen.get((stmt.name, text), 0) + 1
        stmt.key = (path.stem, stmt.name, text, number)
    return out


def unrun(path: Path, traced: set) -> list[tuple]:
    """The keys of the counted statements of ``path`` that own no line of
    ``traced`` and hold no statement that does."""
    stmts = statements(path)
    owners = {}
    for stmt in stmts:
        for line in range(stmt.node.lineno, stmt.node.end_lineno + 1):
            depth, nodes = owners.get(line, (-1, []))
            if stmt.depth > depth:
                owners[line] = (stmt.depth, [stmt])
            elif stmt.depth == depth:
                nodes.append(stmt)
    ran = set()
    for line in traced:
        for stmt in owners.get(line, (0, []))[1]:
            while stmt is not None and stmt not in ran:
                ran.add(stmt)
                stmt = stmt.parent
    return [stmt.key for stmt in stmts if stmt.counted and stmt not in ran]


def entry_key(entry: dict) -> tuple:
    return entry["module"], entry["name"], entry["text"], entry["occurrence"]


def differences(keys: list, ledger: list) -> list[str]:
    """``unlisted`` for each unrun statement the ledger does not list,
    ``stale`` for each entry that names no unrun statement, and
    ``category`` for each entry whose category is not one of ``CATEGORIES``."""
    listed, unrun_keys = {entry_key(entry) for entry in ledger}, set(keys)
    out = ["unlisted\t%s\t%s\t%s\t#%d" % key for key in keys if key not in listed]
    out += ["stale\t%s\t%s\t%s\t#%d" % entry_key(entry) for entry in ledger if entry_key(entry) not in unrun_keys]
    out += [
        "category\t%s\t%s\t%s\t#%d" % entry_key(entry)
        for entry in ledger
        if entry.get("category") not in CATEGORIES
    ]
    return out


def traced_corpus() -> dict:
    """The lines of each ``src/plattice`` file that ran while every golden
    command line ran, by file path; the trace starts before the import."""
    traced = {}
    # each code file's set of traced lines, or None outside src/plattice
    files = {}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            path = Path(filename).resolve()
            files[filename] = traced.setdefault(str(path), set()) if path.parent == SRC else None
        return local if files[filename] is not None else None

    sys.settrace(start)
    try:
        from .make_golden import corpus, run

        os.environ["COLUMNS"] = "80"
        for line in corpus():
            run(shlex.split(line))
    finally:
        sys.settrace(None)
    return traced


def main() -> int:
    if "plattice" in sys.modules:
        raise SystemExit("plattice was imported before the trace started")
    traced = traced_corpus()
    keys = [key for path in sorted(SRC.glob("*.py")) for key in unrun(path, traced.get(str(path), set()))]
    ledger = json.loads(LEDGER.read_text())
    lines = differences(keys, ledger)
    print("\n".join(lines + ["%d unrun statements, %d listed, %d differences" % (len(keys), len(ledger), len(lines))]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
