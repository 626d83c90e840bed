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
import sys


def _print_json(payload):
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _emit(args, payload_text, payload_json):
    if getattr(args, "as_json", False) or args.format == "json":
        _print_json(payload_json)
    else:
        print(payload_text)


def cmd_reduce(args):
    from .exact import parse_matrix
    from .lattice import reduce_matrix

    print(reduce_matrix(parse_matrix(args.matrix)))


def cmd_hyperdistance(args):
    from .lattice import LatticeName, hyperdistance

    print(hyperdistance(LatticeName.parse(args.left), LatticeName.parse(args.right)))


def cmd_hypercircle(args):
    from .lattice import LatticeName
    from .tree import hypercircle, hypercircle_dot

    circle = hypercircle(LatticeName.parse(args.center), args.radius)
    if args.format == "dot":
        print(hypercircle_dot(circle), end="")
        return
    _emit(
        args,
        "\n".join(str(x) for x in circle.members),
        {"center": str(circle.center), "radius": circle.radius, "members": [str(x) for x in circle]},
    )


def cmd_thread(args):
    from .lattice import LatticeName
    from .tree import thread

    t = thread(LatticeName.parse(args.left), LatticeName.parse(args.right))
    _emit(
        args,
        "\n".join(str(x) for x in t.members),
        {"left": str(t.left), "right": str(t.right), "members": [str(x) for x in t]},
    )


def cmd_cell(args):
    from .lattice import LatticeName
    from .tree import is_cell

    names = [LatticeName.parse(x) for x in args.names]
    result = is_cell(names)
    _emit(args, "true" if result else "false", {"cell": result})


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
    lines = ["representative\twidth"]
    for orbit, width in report.cusps:
        lines.append("%s\t%s" % (orbit[0], width))
    lines.append("cusps: %d  total width: %s" % (report.count, report.total_width))
    _emit(args, "\n".join(lines), report.to_json())


def cmd_groups(args):
    from .groupsys import GroupDescriptor, member

    desc = GroupDescriptor.parse(args.name)
    if args.member:
        from .exact import parse_matrix

        print("true" if member(parse_matrix(args.member), desc) else "false")
        return
    from .cusps import width_at_infinity

    info = desc.to_json()
    info["width_at_infinity"] = str(width_at_infinity(desc))
    info["intersection_level"] = desc.intersection_level()
    text = "\n".join("%s: %s" % (k, v) for k, v in sorted(info.items()))
    _emit(args, text, info)


def cmd_level(args):
    from .groupsys import GroupDescriptor, congruence_level

    print(congruence_level(GroupDescriptor.parse(args.name), args.max_n))


def cmd_classify(args):
    from .classify import INDEX_BOUND, RATIO_BOUND, classify_hits

    index_bound = INDEX_BOUND if args.index_bound is None else args.index_bound
    ratio_bound = RATIO_BOUND if args.ratio_bound is None else args.ratio_bound
    hits = classify_hits(index_bound, ratio_bound, args.relax_width)
    found = sorted({h.descriptor for h in hits})
    if args.as_json or args.format == "json":
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
    if args.as_json or args.format == "json":
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
    from .frames import double_group, eta_quotient_series, frame_shape, numeric_invariance_check
    from .groupsys import NODE_GROUPS

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
    if args.as_json or args.format == "json":
        _print_json(rows)
        return
    for row in rows:
        print("\t".join(str(row[k]) for k in row))


def cmd_eta(args):
    import re

    from .frames import FrameShape, eta_quotient_series, frame_shape

    text = args.shape.strip()
    if "^" in text or "/" in text:
        # no group name survives its integer conversions with these in it,
        # so the text is a Frame shape and groupsys need not load
        shape = FrameShape.parse(args.shape)
    else:
        from .groupsys import GroupDescriptor

        try:
            shape = frame_shape(GroupDescriptor.parse(text))
        except ValueError:
            # a bare number is also a Frame shape (24 is 24^1), but a group name
            # with "|" or "+" is not, so the group's own error stands
            if ("|" in text or "+" in text) and re.fullmatch(r"\d+(\|\d+)?(\+(\d+(,\d+)*)?)?", text):
                raise
            shape = FrameShape.parse(args.shape)
    print(eta_quotient_series(shape, args.order))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plattice",
        description="exact projective-lattice calculus for arithmetic groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=["text", "json", "dot"], default="text")
        p.add_argument("--json", dest="as_json", action="store_true", help="shorthand for --format json")
        return p

    p = add("reduce", cmd_reduce, help="canonical name of a matrix coset")
    p.add_argument("matrix")

    p = add("hyperdistance", cmd_hyperdistance, help="hyperdistance between two names")
    p.add_argument("left")
    p.add_argument("right")

    p = add("hypercircle", cmd_hypercircle, help="all names at a given hyperdistance")
    p.add_argument("center")
    p.add_argument("radius", type=int)

    p = add("thread", cmd_thread, help="names multiplicatively between two names")
    p.add_argument("left")
    p.add_argument("right")

    p = add("cell", cmd_cell, help="whether names project to points or edges everywhere")
    p.add_argument("names", nargs="+")

    p = add("project", cmd_project, help="projection of a name onto a p-adic tree")
    p.add_argument("name")
    p.add_argument("prime", type=int)

    p = add("index", cmd_index, help="index of the level group in the modular group")
    p.add_argument("level", type=int)

    p = add("cusps", cmd_cusps, help="cusps and widths of a level group")
    p.add_argument("level", type=int)

    p = add("groups", cmd_groups, help="inspect a group descriptor")
    p.add_argument("name")
    p.add_argument("--member", help="matrix to test for membership")

    p = add("level", cmd_level, help="congruence level of a group")
    p.add_argument("name")
    p.add_argument("--max-n", type=int, default=None, help="a bound the level must divide")

    p = add("classify", cmd_classify, help="search for the nine vertex groups")
    p.add_argument("--relax-width", action="store_true")
    # None means the defaults of plattice.classify, read when the command runs
    p.add_argument("--index-bound", type=int, default=None)
    p.add_argument("--ratio-bound", type=int, default=None)

    add("diagram", cmd_diagram, help="vertex invariants and the unique graph")

    p = add("super", cmd_super, help="level-doubled groups and Frame shapes")
    p.add_argument("--frame-shapes", action="store_true")
    p.add_argument("--series", type=int, metavar="K")
    p.add_argument("--check-invariance", action="store_true")
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("eta", cmd_eta, help="eta-quotient q-expansion of a Frame shape")
    p.add_argument("shape")
    p.add_argument("--order", type=int, default=50)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
