"""Command-line surface: deterministic text, JSON, and DOT output.

Each command imports the layers it uses when it runs, so a cold process
loads only those modules (the README lists them per command).

Exit codes: 0 on success, 1 on a domain error (bad mathematical input) or
when the reader of stdout goes away (a broken pipe, reported silently), 2
on a usage error, 3 on an internal error (a failed consistency check).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import chain


# Output is written in batches of this many characters: with
# PYTHONUNBUFFERED set each write is a system call, and a write per JSON
# chunk or per line would cost more than making them.
WRITE_BATCH = 1 << 16

# what argparse reads as a value rather than an option; its own pattern
# takes only plain negative numbers.  It is set on each subcommand parser as
# argparse's private `_negative_number_matcher`, which `add_argument` and
# the argument scan read with `.match`; checked on Python 3.11, and
# tests/test_cli.py fails plainly if a release drops the attribute.
NEGATIVE_VALUE = re.compile(r"-\d")


def _write(chunks):
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= WRITE_BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    sys.stdout.write("".join(batch))


def _print_json(payload):
    import json

    # the bytes of print(json.dumps(payload, indent=2, sort_keys=True)),
    # never held as one string
    _write(chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload), "\n"))


def _json_wanted(args) -> bool:
    return args.as_json or args.format == "json"


def cmd_reduce(args):
    from .exact import parse_matrix
    from .lattice import reduce_matrix

    print(reduce_matrix(parse_matrix(args.matrix)))


def cmd_hyperdistance(args):
    from .lattice import LatticeName, hyperdistance

    print(hyperdistance(LatticeName.parse(args.left), LatticeName.parse(args.right)))


def cmd_hypercircle(args):
    import gc

    from .lattice import LatticeName
    from .tree import hypercircle, hypercircle_dot

    # a LatticeName is a tuple the cyclic collector never untracks, so near
    # the budget each full collection would walk up to a million names, none
    # of which can be part of a reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        circle = hypercircle(LatticeName.parse(args.center), args.radius)
        if args.format == "dot":
            _write(hypercircle_dot(circle))
        elif _json_wanted(args):
            members = [str(x) for x in circle]
            _print_json({"center": str(circle.center), "radius": circle.radius, "members": members})
        else:
            _write(str(x) + "\n" for x in circle.members)
    finally:
        if enabled:
            gc.enable()


def cmd_thread(args):
    from .lattice import LatticeName
    from .tree import thread

    t = thread(LatticeName.parse(args.left), LatticeName.parse(args.right))
    if _json_wanted(args):
        _print_json({"left": str(t.left), "right": str(t.right), "members": [str(x) for x in t]})
    else:
        print("\n".join(str(x) for x in t.members))


def cmd_cell(args):
    from .lattice import LatticeName
    from .tree import is_cell

    names = [LatticeName.parse(x) for x in args.names]
    result = is_cell(names)
    if _json_wanted(args):
        _print_json({"cell": result})
    else:
        print("true" if result else "false")


def cmd_project(args):
    from .lattice import LatticeName
    from .tree import padic_projection

    print(padic_projection(LatticeName.parse(args.name), args.prime))


def cmd_index(args):
    from .tree import gamma0_index

    print(gamma0_index(args.level))


def cmd_cusps(args):
    from .cusps import cusps_of_gamma0

    report = cusps_of_gamma0(args.level)
    if _json_wanted(args):
        _print_json(report.to_json())
        return
    lines = ["representative\twidth"]
    lines.extend("%s\t%s" % cusp for cusp in report.cusps)
    lines.append("cusps: %d  total width: %s" % (report.count, report.total_width))
    print("\n".join(lines))


def cmd_groups(args):
    from .descriptors import GroupDescriptor
    from .groupsys import member, width_at_infinity

    desc = GroupDescriptor.parse(args.name)
    if args.member:
        from .exact import parse_matrix

        print("true" if member(parse_matrix(args.member), desc) else "false")
        return
    k, h = width_at_infinity(desc)
    info = desc.to_json()
    info["width_at_infinity"] = "%d" % k if h == 1 else "%d/%d" % (k, h)
    info["intersection_level"] = desc.intersection_level()
    if _json_wanted(args):
        _print_json(info)
    else:
        print("\n".join("%s: %s" % (k, v) for k, v in sorted(info.items())))


def cmd_level(args):
    from .descriptors import GroupDescriptor, congruence_level

    print(congruence_level(GroupDescriptor.parse(args.name), args.max_n))


def cmd_classify(args):
    from .classify import INDEX_BOUND, RATIO_BOUND, classify_hits

    index_bound = INDEX_BOUND if args.index_bound is None else args.index_bound
    ratio_bound = RATIO_BOUND if args.ratio_bound is None else args.ratio_bound
    hits = classify_hits(index_bound, ratio_bound, args.relax_width)
    found = sorted({h.descriptor for h in hits})
    if _json_wanted(args):
        payload = []
        for desc in found:
            sightings = [h for h in hits if h.descriptor == desc]
            payload.append(
                {
                    "group": desc.to_json(),
                    "levels": [h.candidate.level for h in sightings],
                    "conditions": sightings[0].report.to_json(),
                }
            )
        _print_json(payload)
        return
    for desc in found:
        sightings = [h for h in hits if h.descriptor == desc]
        levels = ",".join(str(h.candidate.level) for h in sightings)
        rep = sightings[0].report
        print(
            "%-6s levels=%s width_one=%s exponent_two=%s index=%d over=%d"
            % (
                desc.display,
                levels,
                rep.width_one,
                rep.exponent_two,
                rep.index_in_modular,
                rep.index_over_modular,
            )
        )
    print("total: %d" % len(found))


def cmd_diagram(args):
    from .diagram import build_graph, emit_dot, node_vertex_data

    data = node_vertex_data()
    graph = build_graph(data)
    if args.format == "dot":
        print(emit_dot(graph), end="")
        return
    if _json_wanted(args):
        _print_json(graph.to_json())
        return
    print("group\tscale\tlevel0\tvalency\tfaithful")
    for v in data:
        print(
            "%s\t%d\t%d\t%d\t%s"
            % (v.group.display, v.scale, v.normalized_level, v.valency, v.faithful)
        )
    for a, b in sorted(sorted(e) for e in graph.edges):
        print("edge: %s -- %s" % (data[a].group.display, data[b].group.display))


def cmd_super(args):
    if not 0 < args.tol < float("inf"):
        raise ValueError("tolerance must be a positive finite number, not %s" % args.tol)

    from .frames import double_group, eta_quotient_series, frame_shape, numeric_invariance_check
    from .descriptors import NODE_GROUPS

    rows = []
    for desc in NODE_GROUPS:
        doubled = double_group(desc)
        shape = frame_shape(desc)
        row = {"group": desc.display, "double": doubled.display}
        if args.frame_shapes:
            row["frame_shape"] = shape.display
        if args.series is not None:
            row["series"] = str(eta_quotient_series(shape, args.series))
        if args.check_invariance:
            row["invariant"] = numeric_invariance_check(shape, doubled, tol=args.tol)
        rows.append(row)
    if _json_wanted(args):
        _print_json(rows)
        return
    for row in rows:
        print("\t".join(str(row[k]) for k in row))


def cmd_eta(args):
    import re

    from .frames import VERTEX_SHAPES, FrameShape, eta_quotient_series, frame_shape

    text = args.shape.strip()
    catalog = dict(VERTEX_SHAPES)
    if text in catalog or "^" in text or "/" in text:
        # a vertex name is read from the catalog, and no group name survives
        # its integer conversions with "^" or "/" in it, so descriptors need not load
        shape = catalog[text] if text in catalog else FrameShape.parse(args.shape)
    else:
        from .descriptors import GroupDescriptor

        try:
            shape = frame_shape(GroupDescriptor.parse(text))
        except ValueError:
            # a bare number is also a Frame shape (24 is 24^1), but a group name
            # with "|" or "+" is not, so the group's own error stands
            if ("|" in text or "+" in text) and re.fullmatch(r"\d+(\|\d+)?(\+(\d+(,\d+)*)?)?", text):
                raise
            shape = FrameShape.parse(args.shape)
    print(eta_quotient_series(shape, args.order))


# Each command in the order of the help listing: its help text and its
# arguments, each a positional name or a (flag, keyword options) pair.  The
# command runs cmd_<name>, looked up when the parser is built, so a wrapper
# bound to that module name (the benchmark's tracer) is the one called.
COMMANDS = {
    "reduce": ("canonical name of a matrix coset", ["matrix"]),
    "hyperdistance": ("hyperdistance between two names", ["left", "right"]),
    "hypercircle": ("all names at a given hyperdistance", ["center", ("radius", {"type": int})]),
    "thread": ("names multiplicatively between two names", ["left", "right"]),
    "cell": ("whether names project to points or edges everywhere", [("names", {"nargs": "+"})]),
    "project": ("projection of a name onto a p-adic tree", ["name", ("prime", {"type": int})]),
    "index": ("index of the level group in the modular group", [("level", {"type": int})]),
    "cusps": ("cusps and widths of a level group", [("level", {"type": int})]),
    "groups": ("inspect a group descriptor", ["name", ("--member", {"help": "matrix to test for membership"})]),
    "level": (
        "congruence level of a group",
        ["name", ("--max-n", {"type": int, "help": "a bound the level must divide"})],
    ),
    # the bounds default to None, which means the defaults of plattice.classify,
    # read when the command runs
    "classify": (
        "search for the nine vertex groups",
        [
            ("--relax-width", {"action": "store_true"}),
            ("--index-bound", {"type": int}),
            ("--ratio-bound", {"type": int}),
        ],
    ),
    "diagram": ("vertex invariants and the unique graph", []),
    "super": (
        "level-doubled groups and Frame shapes",
        [
            ("--frame-shapes", {"action": "store_true"}),
            ("--series", {"type": int, "metavar": "K"}),
            ("--check-invariance", {"action": "store_true"}),
            ("--tol", {"type": float, "default": 1e-6}),
        ],
    ),
    "eta": ("eta-quotient q-expansion of a Frame shape", ["shape", ("--order", {"type": int, "default": 50})]),
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
        help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        # no option begins with "-<digit>", so such a token is a value: a
        # name or shape with a negative entry reaches its own parser (a
        # private argparse hook, see NEGATIVE_VALUE)
        p._negative_number_matcher = NEGATIVE_VALUE
        p.set_defaults(fn=globals()["cmd_" + name])
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
    try:
        args.fn(args)
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
