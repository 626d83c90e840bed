"""Handlers of super and eta; an ``eta`` loads ``frames`` alone unless its
text is a group name other than a vertex name."""

from itertools import chain

from .output import print_json, write


def cmd_super(args):
    from . import descriptors, doubling, frames

    def rows():
        for desc in descriptors.NODE_GROUPS:
            doubled = doubling.double_group(desc)
            shape = frames.frame_shape(desc)
            row = {"group": desc.display, "double": doubled.display}
            if args.frame_shapes:
                row["frame_shape"] = shape.display
            if args.series is not None:
                row["series"] = frames.eta_quotient_series(shape, args.series)
            if args.check_invariance:
                row["invariant"] = frames.numeric_invariance_check(shape, doubled)
            yield row
            row.clear()  # printed: the series goes before the next is expanded

    if args.format == "json":
        return print_json(rows())
    for row in rows():
        cells = (value.text() if key == "series" else [str(value)] for key, value in row.items())
        write(chain(next(cells), *(chain("\t", cell) for cell in cells), "\n"))


def cmd_eta(args):
    from .frames import VERTEX_SHAPES, FrameShape, eta_quotient_series, frame_shape

    # README's rule (Command line): the group parser alone reads a group
    # name, so its errors are the parser's, and only a group name loads descriptors
    text = args.shape.strip()
    catalog = dict(VERTEX_SHAPES)
    if text in catalog:
        shape = catalog[text]
    elif ("|" in text or "+" in text) and "^" not in text and "/" not in text:
        from .descriptors import GroupDescriptor

        shape = frame_shape(GroupDescriptor.parse(text))
    else:
        shape = FrameShape.parse(args.shape)
    # the series is written in batches as it is printed, never held whole
    write(chain(eta_quotient_series(shape, args.order).text(), "\n"))
