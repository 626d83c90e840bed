"""Handlers of super and eta; an ``eta`` of a Frame shape or a vertex name
loads ``frames`` alone."""

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
            # with "|" or "+" is not, so the group's own error stands (only it loads re)
            if "|" in text or "+" in text:
                import re

                if re.fullmatch(r"\d+(\|\d+)?(\+(\d+(,\d+)*)?)?", text):
                    raise
            shape = FrameShape.parse(args.shape)
    # the series is written in batches as it is printed, never held whole
    write(chain(eta_quotient_series(shape, args.order).text(), "\n"))
