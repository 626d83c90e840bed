"""Command-line surface: deterministic text, JSON, and DOT output.

``main`` imports the module of the invoked command's handler when the
command runs, and the handler imports the layers it uses, so a cold process
compiles only those modules (the README lists them per command).

Exit codes: 0 on success, 1 on a domain error (bad mathematical input) or
when the reader of stdout goes away (a broken pipe, reported silently), 2
on a usage error, 3 on an internal error (a failed consistency check).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from importlib import import_module


# what argparse reads as a value rather than an option; its own pattern
# takes only plain negative numbers.  It is set on each subcommand parser as
# argparse's private `_negative_number_matcher`, which `add_argument` and
# the argument scan read with `.match`; checked on Python 3.11, and
# tests/test_cli.py fails plainly if a release drops the attribute.
NEGATIVE_VALUE = re.compile(r"-\d")


# Each command in the order of the help listing: the module that holds its
# handler cmd_<name>, imported only when the command runs, its help text and
# its arguments, each a positional name or a (flag, keyword options) pair.
COMMANDS = {
    "reduce": ("cli_calculus", "canonical name of a matrix coset", ["matrix"]),
    "hyperdistance": ("cli_calculus", "hyperdistance between two names", ["left", "right"]),
    "hypercircle": ("cli_calculus", "all names at a given hyperdistance", ["center", ("radius", {"type": int})]),
    "thread": ("cli_calculus", "names multiplicatively between two names", ["left", "right"]),
    "cell": (
        "cli_calculus",
        "whether names project to points or edges everywhere",
        [("names", {"nargs": "+"})],
    ),
    "project": ("cli_calculus", "projection of a name onto a p-adic tree", ["name", ("prime", {"type": int})]),
    "index": ("cli_calculus", "index of the level group in the modular group", [("level", {"type": int})]),
    "cusps": ("cli_groups", "cusps and widths of a level group", [("level", {"type": int})]),
    "groups": (
        "cli_groups",
        "inspect a group descriptor",
        ["name", ("--member", {"help": "matrix to test for membership"})],
    ),
    "level": (
        "cli_groups",
        "congruence level of a group",
        ["name", ("--max-n", {"type": int, "help": "a bound the level must divide"})],
    ),
    # the bounds default to None, which means the defaults of plattice.classify,
    # read when the command runs
    "classify": (
        "cli_groups",
        "search for the nine vertex groups",
        [
            ("--relax-width", {"action": "store_true"}),
            ("--index-bound", {"type": int}),
            ("--ratio-bound", {"type": int}),
        ],
    ),
    "diagram": ("cli_groups", "vertex invariants and the unique graph", []),
    "super": (
        "cli_series",
        "level-doubled groups and Frame shapes",
        [
            ("--frame-shapes", {"action": "store_true"}),
            ("--series", {"type": int, "metavar": "K"}),
            ("--check-invariance", {"action": "store_true"}),
            ("--tol", {"type": float, "default": 1e-6}),
        ],
    ),
    "eta": (
        "cli_series",
        "eta-quotient q-expansion of a Frame shape",
        ["shape", ("--order", {"type": int, "default": 50})],
    ),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone with the same texts."""
    parser = argparse.ArgumentParser(
        prog="plattice",
        description="exact projective-lattice calculus for arithmetic groups",
    )
    # one command's parser still lists every command in its usage line
    metavar = None if command is None else "{%s}" % ",".join(COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        _, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        # no option begins with "-<digit>", so such a token is a value: a
        # name or shape with a negative entry reaches its own parser (a
        # private argparse hook, see NEGATIVE_VALUE)
        p._negative_number_matcher = NEGATIVE_VALUE
        p.add_argument("--format", choices=["text", "json", "dot"], default="text")
        p.add_argument("--json", dest="as_json", action="store_true", help="shorthand for --format json")
        for argument in arguments:
            flag, options = argument if isinstance(argument, tuple) else (argument, {})
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # when the first word names a command, only that command's parser is built
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = import_module("." + COMMANDS[args.command][0], __package__)
    try:
        getattr(handlers, "cmd_" + args.command)(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
    except BrokenPipeError:
        # the reader went away (``plattice diagram | head -2``); the exit
        # flush of what is still buffered goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except AssertionError as exc:
        # a failed internal consistency check, not a problem with the input
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
