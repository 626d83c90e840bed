"""The text of ``json.dumps(value, indent=2, sort_keys=True)``, in pieces.

A dict is written as an object, a list or tuple as an array, and any other
iterator (a generator, a ``map``) as an array while it is consumed, so a
long array is never held: an item that is not a string is written before
the next is taken.  An object with a ``text()`` method (a power series) is
written as the string of the pieces that method yields, so its text is
never held either.  Strings are written as ``json.dumps`` writes plain
ones, printable ASCII with no quote or backslash; no command writes another,
and one is an internal error.  Only ``output.print_json`` imports this module.
"""

from itertools import islice

# strings in an array are taken this many at a time; a batch of them is
# checked once and written as one piece
BATCH = 512


def _plain(text: str) -> bool:
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _inside(text: str) -> str:
    if not _plain(text):
        raise AssertionError("JSON string %r needs escapes" % text[:40])
    return text


def _string(text: str) -> str:
    # joined, so that a long string is copied once: '"' + text + '"' copies it twice
    return "".join(('"', _inside(text), '"'))


def pieces(value, newline="\n"):
    """The pieces of ``value``'s JSON text, nested below the line start ``newline``."""
    if isinstance(value, str):
        yield _string(value)
    elif value is None:
        yield "null"
    elif isinstance(value, bool):
        yield "true" if value else "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            yield sep + inner + _string(key) + ": "
            yield from pieces(value[key], inner)
            sep = ","
        yield "{}" if sep == "{" else newline + "}"
    elif hasattr(value, "text"):
        # before the tuples: a power series is a named tuple
        yield '"'
        yield from map(_inside, value.text())
        yield '"'
    elif isinstance(value, (list, tuple)) or hasattr(value, "__next__"):
        inner, sep, items = newline + "  ", "[", iter(value)
        for item in items:
            # a string starts a batch; any other item is written alone
            batch = [item, *islice(items, BATCH - 1)] if type(item) is str else [item]
            if all(type(x) is str for x in batch) and _plain("".join(batch)):
                yield sep + inner + '"' + ('",' + inner + '"').join(batch) + '"'
                sep = ","
                continue
            for item in batch:
                yield sep + inner
                yield from pieces(item, inner)
                sep = ","
        yield "[]" if sep == "[" else newline + "]"
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)
