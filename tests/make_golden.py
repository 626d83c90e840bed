"""Rewrite ``tests/golden.json``: for each command line of the corpus, the
SHA-256 of what ``plattice`` prints to stdout and to stderr, and its exit
code, run in-process through ``cli.main``.

    PYTHONPATH=src python -m tests.make_golden
    PYTHONPATH=src python -m tests.make_golden --diff

With ``--diff`` it writes nothing: it prints each command line whose record
changed, was added or was removed against the file, and exits 1 if there is
any.  ``tests/test_golden.py`` only reads the file.  Usage errors are argparse's
texts, so the records hold for the Python release they were made with
(3.11); the help and usage lines are wrapped at ``COLUMNS=80``.

The corpus:

- the command lines of README.md;
- ``classify`` over index bounds 12-40 and ratio bounds 3-5, with and
  without ``--relax-width``, as text and JSON;
- ``classify --ratio-bound`` 6, 8 and 12, which exit 1 on a level-8
  subgroup that matches no descriptor;
- ``classify --index-bound 100001``, whose walk stops at ``level_cap(3)``;
- ``diagram`` and ``super`` in every format and flag set, and with
  ``--format dot --json``, which prints JSON;
- one command line for each domain-error and usage-error text;
- ``eta`` of the nine vertex names and the nine catalog Frame shapes at
  orders on both sides of the series engine's 128-term blocks, and of the
  two dilated shapes where their series in q^s crosses a block, and of the
  nine shapes at every order 1-300;
- ``eta`` of three texts that its reading rule decides: ``3||3`` and
  ``+24`` are group names, which the group parser refuses, and ``01`` is
  the Frame shape ``1^1``, not the vertex name ``1``;
- ``cusps`` of every level 1-200, as text and JSON;
- ``hypercircle`` at three centres and four radii, and at four centres
  whose moved Hermite triples can lose a common factor and six radii, in
  all three formats, and at the three centres and radius 30 with
  ``--format dot --json``;
- ten fixed command lines each of ``reduce``, ``hyperdistance``,
  ``thread``, ``cell``, ``project`` and ``index``, and two threads whose
  left end is not ``1,0`` as JSON and as DOT;
- the benchmark's fixed ``groups``, ``groups --member`` and ``level``
  command lines, read from ``perfbench/workloads.py``;
- ``groups`` of a labelled name whose n/h is above the factorizing budget
  and not among its labels, which is answered.
"""

import argparse
import hashlib
import io
import json
import os
import runpy
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from plattice import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
README = HERE.parent / "README.md"

# the last one prints JSON: --json wins over --format
FORMATS = [[], ["--format", "text"], ["--format", "json"], ["--format", "dot"], ["--json"], ["--format", "dot", "--json"]]

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
    ["groups", "6|3+2"],  # not implemented with labels: 6|3 has no labelled kernel
    ["groups", "1_0"],  # bad group name: int would read "_" as a digit separator
    ["level", "1_0"],  # bad group name
    ["classify", "--index-bound", "100001", "--ratio-bound", "196"],  # cannot sweep above the budget
    ["classify", "--index-bound", "0"],  # bounds must be positive
    ["super", "--series", "0"],  # order must be positive
    ["super", "--series", "20000"],  # cannot expand above the budget
    ["eta", "1^x"],  # bad Frame shape
    ["eta", "1^2_4"],  # bad Frame shape: int would read "_" as a digit separator
    ["eta", ""],  # Frame shape has no parts
    ["eta", "0^24"],  # base is below 1
    ["eta", "1^1"],  # fractional leading exponent
    ["eta", "/ 1^48", "--order", "1"],  # order below the leading exponent
    ["eta", "7+"],  # not one of the nine vertex groups
]

VERTEX_NAMES = ["1", "2+", "3+", "4+", "5+", "6+", "3|3", "4|2+", "2"]
CATALOG_SHAPES = [
    "1^24",
    "2^24 / 1^24",
    "3^12 / 1^12",
    "4^8 / 1^8",
    "5^6 / 1^6",
    "2^6 6^6 / 1^6 3^6",
    "3^8",
    "4^12 / 2^12",
    "1^8 2^8",
]
# around one and two blocks of 128 terms after the pole at q^-1
ETA_ORDERS = [1, 2, 50, 127, 128, 129, 255, 256, 257]
# 3^8 is a series in q^3 and 4^12 / 2^12 one in q^2: their n = top // s
# crosses 128 at s * 128 terms after the pole, order s * 128 - 1
DILATED_ORDERS = {"3^8": range(381, 386), "4^12 / 2^12": range(253, 258)}

ETA_READINGS = [["eta", "3||3"], ["eta", "01"], ["eta", "+24"]]

HYPERCIRCLE_CENTRES = ["1,0", "2/3,1/7", "5/2,1/2"]
HYPERCIRCLE_RADII = [1, 6, 30, 210]
# a member (a, s, d) moved by one of these can have content above 1, and
# the radii give many blocks of equal M, each wrapped at its own point
CONTENT_CENTRES = ["2,0", "1/2,1/2", "3/4,1/4", "12/5,3/5"]
CONTENT_RADII = [4, 12, 64, 360, 1001, 4620]

CALCULUS = [
    ["reduce", "[[1,1/3],[0,1]]"],
    ["reduce", "[[2,0],[0,1]]"],
    ["reduce", "[[1,0],[6,1]]"],
    ["reduce", "[[5,2],[7,3]]"],
    ["reduce", "[[3,1/2],[0,2/5]]"],
    ["reduce", "[[-1,0],[0,-1]]"],
    ["reduce", "[[12,5],[0,7]]"],
    ["reduce", "[[0,1],[-18,0]]"],
    ["reduce", "[[7,-3],[9,4]]"],
    ["reduce", "[[4,1],[3,1]]", "--json"],
    ["hyperdistance", "1,0", "6,0"],
    ["hyperdistance", "1/2,0", "3,1/2"],
    ["hyperdistance", "2/3,1/7", "5/2,1/2"],
    ["hyperdistance", "1,0", "1,1/2"],
    ["hyperdistance", "7,3/7", "1/5,0"],
    ["hyperdistance", "4,1/4", "4,3/4"],
    ["hyperdistance", "12,0", "1/12,0"],
    ["hyperdistance", "1,0", "1,0"],
    ["hyperdistance", "9,1/3", "2,1/2"],
    ["hyperdistance", "100,37/100", "1,0"],
    ["thread", "1,0", "12,0"],
    ["thread", "1,0", "1,1/2"],
    ["thread", "2/3,1/7", "5/2,1/2"],
    ["thread", "1,0", "30,0", "--json"],
    ["thread", "1/4,0", "4,0"],
    ["thread", "3,1/3", "1,0"],
    ["thread", "1,0", "7,0"],
    ["thread", "5,0", "5,0"],
    ["thread", "1,0", "16,0", "--json"],
    ["thread", "2,1/2", "18,0"],
    ["thread", "2/3,1/7", "5/2,1/2", "--json"],
    ["thread", "2/3,1/7", "5/2,1/2", "--format", "dot"],
    ["thread", "3,1/3", "1,0", "--json"],
    ["thread", "3,1/3", "1,0", "--format", "dot"],
    ["cell", "1,0", "2,0"],
    ["cell", "1,0", "2,0", "3,0"],
    ["cell", "1,0", "2,0", "4,0"],
    ["cell", "1,0", "3,0", "--json"],
    ["cell", "1,0", "1,1/2", "2,0"],
    ["cell", "1,0", "6,0"],
    ["cell", "2,0", "4,0", "--json"],
    ["cell", "1,0", "2,1/2"],
    ["cell", "5,0", "10,0", "15,0", "30,0"],
    ["cell", "1,0"],
    ["project", "6,0", "3"],
    ["project", "12,0", "2"],
    ["project", "12,0", "3"],
    ["project", "1,1/2", "2"],
    ["project", "2/3,1/7", "7"],
    ["project", "2/3,1/7", "3"],
    ["project", "5/2,1/2", "5"],
    ["project", "1,0", "5"],
    ["project", "45,1/9", "3"],
    ["project", "100,0", "5"],
    ["index", "1"],
    ["index", "2"],
    ["index", "6"],
    ["index", "12"],
    ["index", "97"],
    ["index", "360"],
    ["index", "1024"],
    ["index", "9699690"],
    ["index", "999983"],
    ["index", "1000000000000"],
]

# each exits 2 with its own argparse text
USAGE_ERRORS = [
    [],  # no command
    ["frobnicate"],  # invalid choice of command
    ["index"],  # a required argument is missing
    ["index", "x"],  # invalid int value
    ["super", "--tol", "0"],  # unrecognized arguments: super has no --tol
    ["super", "--tol", "x"],  # the same, whatever its value
    ["super", "--check-invariance", "--tol", "1e-3"],  # the same after a valid flag
    ["super", "--check-invariance", "--tol", "1e-300"],
    # unrecognized arguments: level prints the congruence level, which no
    # bound can change, so it has no --max-n, whatever the bound
    ["level", "3|3", "--max-n", "10"],
    ["level", "2+", "--max-n", "0"],
    ["level", "3|3", "--max-n", "-9"],
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
    out.append(["classify", "--index-bound", "100001"])
    out += [["diagram"] + fmt for fmt in FORMATS]
    for frame_shapes, series, check in product((False, True), repeat=3):
        flags = ["--frame-shapes"] * frame_shapes + ["--series", "5"] * series
        flags += ["--check-invariance"] * check
        out += [["super"] + flags + fmt for fmt in FORMATS]
    out += DOMAIN_ERRORS + USAGE_ERRORS
    for shape in VERTEX_NAMES + CATALOG_SHAPES:
        out += [["eta", shape, "--order", str(order)] for order in ETA_ORDERS]
    for shape, orders in DILATED_ORDERS.items():
        out += [["eta", shape, "--order", str(order)] for order in orders]
    for shape in CATALOG_SHAPES:
        out += [["eta", shape, "--order", str(order)] for order in range(1, 301)]
    out += ETA_READINGS
    for level, as_json in product(range(1, 201), (False, True)):
        out.append(["cusps", str(level)] + ["--json"] * as_json)
    for centre, radius, fmt in product(HYPERCIRCLE_CENTRES, HYPERCIRCLE_RADII, ("text", "json", "dot")):
        out.append(["hypercircle", centre, str(radius), "--format", fmt])
    for centre, radius, fmt in product(CONTENT_CENTRES, CONTENT_RADII, ("text", "json", "dot")):
        out.append(["hypercircle", centre, str(radius), "--format", fmt])
    out += [["hypercircle", centre, "30", "--format", "dot", "--json"] for centre in HYPERCIRCLE_CENTRES]
    out += CALCULUS
    # the benchmark's fixed groups and level command lines, read through
    # runpy so the benchmark's files are only read
    fixed = runpy.run_path(str(HERE.parent / "perfbench" / "workloads.py"))["fixed_argvs"]()
    out += [argv for argv in fixed if argv[0] in ("groups", "level")]
    out.append(["groups", "2000000000000000006+2"])
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


def differences(old: dict, new: dict) -> list:
    """``changed``, ``added`` and ``removed`` lines, one per command line
    whose record differs between the two record sets."""
    out = ["changed\t" + line for line in new if line in old and new[line] != old[line]]
    out += ["added\t" + line for line in new if line not in old]
    out += ["removed\t" + line for line in old if line not in new]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.make_golden")
    parser.add_argument("--diff", action="store_true", help="compare with the file; write nothing")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"
    records = {line: run(shlex.split(line)) for line in corpus()}
    if args.diff:
        lines = differences(json.loads(GOLDEN.read_text()), records)
        print("\n".join(lines + ["%d differences" % len(lines)]))
        return 1 if lines else 0
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print("wrote %d records to %s" % (len(records), GOLDEN.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
