"""Handlers of cusps, groups, level and diagram."""

from .output import print_json


def cmd_cusps(args):
    from .cusps import cusps_of_gamma0

    report = cusps_of_gamma0(args.level)
    if args.format == "json":
        print_json(report.to_json())
        return
    lines = ["representative\twidth"]
    lines.extend("%s\t%s" % cusp for cusp in report.cusps)
    lines.append("cusps: %d  total width: %s" % (len(report.cusps), report.total_width))
    print("\n".join(lines))


def cmd_groups(args):
    from .descriptors import GroupDescriptor, width_at_infinity

    desc = GroupDescriptor.parse(args.name)
    if args.member:
        from .groupsys import member
        from .lattice import parse_matrix

        print("true" if member(parse_matrix(args.member), desc) else "false")
        return
    k, h = width_at_infinity(desc)
    info = desc.to_json()
    info["width_at_infinity"] = "%d" % k if h == 1 else "%d/%d" % (k, h)
    info["intersection_level"] = desc.intersection_level()
    if args.format == "json":
        print_json(info)
    else:
        print("\n".join("%s: %s" % (k, v) for k, v in sorted(info.items())))


def cmd_level(args):
    from .descriptors import GroupDescriptor

    print(GroupDescriptor.parse(args.name).intersection_level())


def cmd_diagram(args):
    from .diagram import build_graph, emit_dot, node_vertex_data

    data = node_vertex_data()
    graph = build_graph(data)
    if args.format == "json":
        print_json(graph.to_json())
        return
    if args.format == "dot":
        print(emit_dot(graph), end="")
        return
    print("group\tscale\tlevel0\tvalency\tfaithful")
    for v in data:
        print(
            "%s\t%d\t%d\t%d\t%s"
            % (v.group.display, v.scale, v.normalized_level, v.valency, v.faithful)
        )
    for a, b in sorted(sorted(e) for e in graph.edges):
        print("edge: %s -- %s" % (data[a].group.display, data[b].group.display))
