"""Rewrite ``tests/golden.json``: for each command line of the corpus, the
SHA-256 of what ``plattice`` prints to stdout and to stderr, and its exit
code, run in-process through ``cli.main``.

    PYTHONPATH=src python -m tests.make_golden

``tests/test_golden.py`` only reads the file.  Usage errors are argparse's
texts, so the records hold for the Python release they were made with
(3.11); the help and usage lines are wrapped at ``COLUMNS=80``.

The corpus:

- the command lines of README.md;
- ``classify`` over index bounds 12-40 and ratio bounds 3-5, with and
  without ``--relax-width``, as text and JSON;
- ``classify --ratio-bound`` 6, 8 and 12, which exit 1 on a level-9
  subgroup that matches no descriptor;
- ``diagram`` and ``super`` in every format and flag set;
- one command line for each domain-error and usage-error text.
"""

import hashlib
import io
import json
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from plattice import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
README = HERE.parent / "README.md"

FORMATS = [[], ["--format", "text"], ["--format", "json"], ["--format", "dot"], ["--json"]]

# each exits 1 with its own domain-error text; README's
# ``hyperdistance -2/4,0 1,0`` gives "lattice name needs M > 0"
DOMAIN_ERRORS = [
    ["reduce", "[[0,0],[0,0]]"],  # zero matrix has no primitive representative
    ["reduce", "[[1,0],[0,-1]]"],  # matrix does not have positive determinant
    ["reduce", "[[1,x],[0,1]]"],  # bad rational literal
    ["reduce", "1,2"],  # bad matrix literal
    ["hyperdistance", "1", "2,0"],  # bad lattice name
    ["hyperdistance", "1,3/2", "1,0"],  # lattice name needs 0 <= b < 1
    ["hypercircle", "1,0", "0"],  # hyperradius must be >= 1
    ["hypercircle", "1,0", "10000000"],  # hypercircle above the budget
    ["project", "6,0", "4"],  # not prime
    ["index", "0"],  # index is defined for n >= 1
    ["index", "10000000000000000"],  # cannot factorize above the budget
    ["cusps", "0"],  # level must be positive
    ["groups", "x"],  # bad group name
    ["groups", "4|3"],  # descriptor needs h | n
    ["groups", "6+5"],  # labels are not exact divisors
    ["groups", "30+2,3"],  # label set is not closed
    ["groups", "5|5"],  # kernel subgroup not implemented
    ["level", "3|3", "--max-n", "10"],  # no congruence level found
    ["classify", "--index-bound", "100001"],  # cannot sweep above the budget
    ["classify", "--index-bound", "0"],  # bounds must be positive
    ["super", "--tol", "0"],  # tolerance must be a positive finite number
    ["super", "--series", "0"],  # order must be positive
    ["super", "--series", "20000"],  # cannot expand above the budget
    ["eta", "1^x"],  # bad Frame shape
    ["eta", ""],  # Frame shape has no parts
    ["eta", "0^24"],  # base is below 1
    ["eta", "1^1"],  # fractional leading exponent
    ["eta", "/ 1^48", "--order", "1"],  # order below the leading exponent
    ["eta", "7+"],  # not one of the nine vertex groups
]

# each exits 2 with its own argparse text
USAGE_ERRORS = [
    [],  # no command
    ["frobnicate"],  # invalid choice of command
    ["index"],  # a required argument is missing
    ["index", "x"],  # invalid int value
    ["super", "--tol", "x"],  # invalid float value
    ["diagram", "--format", "xml"],  # invalid choice of format
    ["diagram", "extra"],  # unrecognized arguments
    ["eta", "1^24", "--order"],  # expected one argument
]


def readme_argvs() -> list:
    """The quick-start block of README.md, then its inline command lines
    that run one command (no pipe)."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.strip().splitlines()
    lines += [span for span in text.split("`")[1::2] if span.startswith("plattice ") and "|" not in span]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def corpus() -> list:
    """The corpus as shell-quoted command lines, each once."""
    out = readme_argvs()
    sweep = product(range(12, 41), range(3, 6), (False, True), (False, True))
    for index_bound, ratio_bound, relax, as_json in sweep:
        argv = ["classify", "--index-bound", str(index_bound), "--ratio-bound", str(ratio_bound)]
        out.append(argv + ["--relax-width"] * relax + ["--json"] * as_json)
    out += [["classify", "--ratio-bound", str(bound)] for bound in (6, 8, 12)]
    out += [["diagram"] + fmt for fmt in FORMATS]
    for frame_shapes, series, check in product((False, True), repeat=3):
        flags = ["--frame-shapes"] * frame_shapes + ["--series", "5"] * series
        flags += ["--check-invariance"] * check
        out += [["super"] + flags + fmt for fmt in FORMATS]
    out += [["super", "--check-invariance", "--tol", tol] for tol in ("1e-3", "1e-300")]
    out += DOMAIN_ERRORS + USAGE_ERRORS
    # README's lines recur in the format sweeps
    return list(dict.fromkeys(map(shlex.join, out)))


def run(argv) -> dict:
    """The SHA-256 of ``argv``'s stdout and stderr and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "exit": code,
    }


def main() -> None:
    os.environ["COLUMNS"] = "80"
    records = {line: run(shlex.split(line)) for line in corpus()}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print("wrote %d records to %s" % (len(records), GOLDEN.name))


if __name__ == "__main__":
    main()
