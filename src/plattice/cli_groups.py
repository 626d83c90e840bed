"""Handlers of cusps, groups, level, classify and diagram."""

from .output import json_wanted, print_json


def cmd_cusps(args):
    from .cusps import cusps_of_gamma0

    report = cusps_of_gamma0(args.level)
    if json_wanted(args):
        print_json(report.to_json())
        return
    lines = ["representative\twidth"]
    lines.extend("%s\t%s" % cusp for cusp in report.cusps)
    lines.append("cusps: %d  total width: %s" % (report.count, report.total_width))
    print("\n".join(lines))


def cmd_groups(args):
    from .descriptors import GroupDescriptor, width_at_infinity

    desc = GroupDescriptor.parse(args.name)
    if args.member:
        from .exact import parse_matrix
        from .groupsys import member

        print("true" if member(parse_matrix(args.member), desc) else "false")
        return
    k, h = width_at_infinity(desc)
    info = desc.to_json()
    info["width_at_infinity"] = "%d" % k if h == 1 else "%d/%d" % (k, h)
    info["intersection_level"] = desc.intersection_level()
    if json_wanted(args):
        print_json(info)
    else:
        print("\n".join("%s: %s" % (k, v) for k, v in sorted(info.items())))


def cmd_level(args):
    from .descriptors import GroupDescriptor, congruence_level

    print(congruence_level(GroupDescriptor.parse(args.name), args.max_n))


def cmd_classify(args):
    from .classify import INDEX_BOUND, RATIO_BOUND, classify_hits

    index_bound = INDEX_BOUND if args.index_bound is None else args.index_bound
    ratio_bound = RATIO_BOUND if args.ratio_bound is None else args.ratio_bound
    sightings = {}  # descriptor -> its hits, in hit order
    for hit in classify_hits(index_bound, ratio_bound, args.relax_width):
        sightings.setdefault(hit.descriptor, []).append(hit)
    found = sorted(sightings)
    if json_wanted(args):
        payload = [
            {
                "group": desc.to_json(),
                "levels": [h.candidate.level for h in sightings[desc]],
                "conditions": sightings[desc][0].report.to_json(),
            }
            for desc in found
        ]
        print_json(payload)
        return
    for desc in found:
        levels = ",".join(str(h.candidate.level) for h in sightings[desc])
        rep = sightings[desc][0].report
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
    if json_wanted(args):
        print_json(graph.to_json())
        return
    print("group\tscale\tlevel0\tvalency\tfaithful")
    for v in data:
        print(
            "%s\t%d\t%d\t%d\t%s"
            % (v.group.display, v.scale, v.normalized_level, v.valency, v.faithful)
        )
    for a, b in sorted(sorted(e) for e in graph.edges):
        print("edge: %s -- %s" % (data[a].group.display, data[b].group.display))
