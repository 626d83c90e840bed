"""Handlers of super and eta; an ``eta`` of a Frame shape or a vertex name
loads ``frames`` alone."""

import re
from itertools import chain

from .output import json_wanted, print_json, write


def cmd_super(args):
    if not 0 < args.tol < float("inf"):
        raise ValueError("tolerance must be a positive finite number, not %s" % args.tol)

    from .descriptors import NODE_GROUPS
    from .doubling import double_group
    from .frames import eta_quotient_series, frame_shape, numeric_invariance_check

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
    if json_wanted(args):
        print_json(rows)
        return
    for row in rows:
        print("\t".join(str(row[k]) for k in row))


def cmd_eta(args):
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
    # the series is written in batches as it is printed, never held whole
    write(chain(eta_quotient_series(shape, args.order).text(), "\n"))
