"""Handlers of reduce, hyperdistance, hypercircle, thread, cell, project and
index; ``index`` loads ``arith`` alone, and none of them a group layer.
``hypercircle`` prints its members as they are generated, except in JSON."""

from .output import json_wanted, print_json, write


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
        write(hypercircle_dot(circle))
    elif json_wanted(args):
        members = [str(x) for x in circle]
        print_json({"center": str(circle.center), "radius": circle.radius, "members": members})
    else:
        write(str(x) + "\n" for x in circle)


def cmd_thread(args):
    from .lattice import LatticeName
    from .tree import thread

    t = thread(LatticeName.parse(args.left), LatticeName.parse(args.right))
    if json_wanted(args):
        print_json({"left": str(t.left), "right": str(t.right), "members": [str(x) for x in t]})
    else:
        print("\n".join(str(x) for x in t.members))


def cmd_cell(args):
    from .lattice import LatticeName
    from .tree import is_cell

    names = [LatticeName.parse(x) for x in args.names]
    result = is_cell(names)
    if json_wanted(args):
        print_json({"cell": result})
    else:
        print("true" if result else "false")


def cmd_project(args):
    from .lattice import LatticeName
    from .tree import padic_projection

    print(padic_projection(LatticeName.parse(args.name), args.prime))


def cmd_index(args):
    from .arith import gamma0_index

    print(gamma0_index(args.level))
