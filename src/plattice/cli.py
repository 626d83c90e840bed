"""Command-line surface: deterministic text, JSON, and DOT output.

``main`` reads a plain command line itself, so ``argparse`` (with
``gettext`` and ``locale``) is loaded only for help, usage errors and other
spellings.  It imports the module of the command's handler when the command
runs, and the handler imports the layers it uses, so a cold process
compiles only those modules (the README lists them per command).

Exit codes: 0 on success, 1 on a domain error (bad mathematical input) or
when the reader of stdout goes away (a broken pipe, reported silently), 2
on a usage error, 3 on an internal error (a failed consistency check).
"""

import gc
import os
import sys
import types


def _is_value(word: str) -> bool:
    # a word is a value unless it begins with "-" and no digit follows: no
    # option does, so a name or shape with a negative entry is a value.
    # argparse asks this too, as its private `_negative_number_matcher`
    # (with `.match`, only of words that begin with "-"; checked on Python
    # 3.11, and tests/test_cli.py fails plainly if a release drops it)
    return word[:1] != "-" or word[1:2].isdecimal()


# the options every command takes, before its own; the reader and the
# parser both read them, and COMMANDS, from here
SHARED_OPTIONS = [
    ("--format", {"choices": ("text", "json", "dot"), "default": "text"}),
    ("--json", {"dest": "as_json", "action": "store_true", "help": "shorthand for --format json"}),
]


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
    "level": ("cli_groups", "congruence level of a group", ["name"]),
    # the bounds default to None, which means the defaults of plattice.classify,
    # read when the command runs
    "classify": (
        "cli_classify",
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
            ("--check-invariance", {"action": "store_true", "help": "False means not shown invariant"}),
        ],
    ),
    "eta": (
        "cli_series",
        "eta-quotient q-expansion of a Frame shape",
        [
            ("shape", {"help": "a vertex name such as 3|3, else a group name if it has | or + and neither ^"
                       " nor /, else a Frame shape such as '2^6 6^6 / 1^6 3^6' or 24"}),
            ("--order", {"type": int, "default": 50}),
        ],
    ),
}


def build_parser(command=None):
    """The parser of every command, or of ``command`` alone with the same texts."""
    import argparse

    # the usage line as argparse 3.10-3.12 wraps it at 80 columns, fixed so
    # that 3.13 prints it too; it lists every command in one command's parser
    indent = "\n" + " " * 16
    parser = argparse.ArgumentParser(
        prog="plattice",
        usage="%(prog)s [-h]" + indent + "{%s}" % ",".join(COMMANDS) + indent + "...",
        description="exact projective-lattice calculus for arithmetic groups",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="plattice")
    for name in COMMANDS if command is None else [command]:
        _, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = types.SimpleNamespace(match=_is_value)
        for argument in SHARED_OPTIONS + arguments:
            flag, options = argument if isinstance(argument, tuple) else (argument, {})
            p.add_argument(flag, **options)
    return parser


def _read_argv(argv):
    """The namespace argparse gives for a plain ``argv``, else None.

    Plain is the command word, exactly its positionals (a ``nargs="+"`` one
    takes the longest run of values), then options: each flag spelled in
    full, at most once, and followed by its value unless it is a switch.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    args = types.SimpleNamespace(command=argv[0])
    flags = {}
    at = 1
    for argument in SHARED_OPTIONS + COMMANDS[argv[0]][2]:
        name, options = argument if isinstance(argument, tuple) else (argument, {})
        if name.startswith("-"):
            dest = options.get("dest", name[2:].replace("-", "_"))
            switch = options.get("action") == "store_true"
            setattr(args, dest, options.get("default", False if switch else None))
            flags[name] = dest, options, switch
            continue
        many, end = options.get("nargs") == "+", at + 1
        while many and end < len(argv) and _is_value(argv[end]):
            end += 1
        values = [_converted(options, word) for word in argv[at:end]]
        if end > len(argv) or None in values:
            return None
        setattr(args, name, values if many else values[0])
        at = end
    while at < len(argv):
        # an unknown or repeated flag, or a value with no flag before it
        dest, options, switch = flags.pop(argv[at], (None, None, None))
        if dest is None:
            return None
        value = True if switch else _converted(options, argv[at + 1]) if at + 1 < len(argv) else None
        if value is None:
            return None
        setattr(args, dest, value)
        at += 1 if switch else 2
    return args


def _converted(options, word):
    # word as argparse stores it for an argument with these options, or None
    try:
        value = options.get("type", str)(word) if _is_value(word) else None
    except ValueError:
        return None
    return value if value in options.get("choices", (value,)) else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        # help, a usage error or another spelling: argparse reads it, with
        # only the command's parser built when the first word names one
        parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    if args.as_json:
        args.format = "json"  # the shorthand wins over any --format
    module = COMMANDS[args.command][0]
    # the call ``from . import <module>`` makes, so -X importtime logs it
    handlers = getattr(__import__(__package__, fromlist=[module]), module)
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


def run():
    """The program: ``main`` on ``sys.argv``, then exit with its status; the
    collector is frozen first, so the shutdown collections traverse nothing."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
