"""The JSON writer against ``json.dumps(value, indent=2, sort_keys=True)``:
nested dicts, lists, tuples and iterators of plain strings, integers,
booleans and None print the same text, a string that needs escapes is an
internal error, and any other type is refused."""

import json
import re
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from plattice.frames import FRAME_SHAPES, eta_quotient_series
from plattice.jsonwriter import BATCH, pieces

# fixed examples (derandomize) and no example database keep the suite
# deterministic from run to run
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)


class Streamed(list):
    """A list that the writer is given as a generator: json.dumps reads it
    as a list, and ``payload`` hands it over as an iterator."""


def payload(value):
    # the value the writer gets: each Streamed list becomes a fresh generator
    if isinstance(value, Streamed):
        return (payload(x) for x in value)
    if isinstance(value, (list, tuple)):
        return type(value)(payload(x) for x in value)
    if isinstance(value, dict):
        return {key: payload(x) for key, x in value.items()}
    return value


def written(value) -> str:
    return "".join(pieces(payload(value)))


def expected(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# quotes, backslashes, json's short escapes, other control characters,
# DEL, non-ASCII text, a line separator, an astral character and a lone
# surrogate: each needs an escape, and no command writes one
SPECIAL = '"\\\n\r\t\b\f\x00\x1f\x7féß€ \U0001f600\ud800'
# printable ASCII with no quote or backslash, which json.dumps writes as is
PLAIN = st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\')
texts = st.text(PLAIN) | st.text("abc/,019 ")
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | texts
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=6).map(tuple)
    | st.lists(inner, max_size=6).map(Streamed)
    | st.dictionaries(texts, inner, max_size=6),
    max_leaves=40,
)


@PROPERTY
@given(values)
def test_writes_the_text_of_json_dumps(value):
    assert written(value) == expected(value)


def test_strings_that_need_escapes_are_refused():
    # each character between "a" and "b", 'a"b' first: in a value, a key, a
    # text() piece, and an array of strings batched together, which is
    # written whole when every string is plain
    names = ["%d/%d,0" % (i, i + 1) for i in range(BATCH + 1)]
    for char in SPECIAL:
        text = "a" + char + "b"
        for value in (text, {text: 1}, {"k": [7, text]}, Pieces(["q", text]), [Pieces([text])]):
            with pytest.raises(AssertionError, match="needs escapes"):
                "".join(pieces(value))
        for container in (list, tuple, Streamed):
            with pytest.raises(AssertionError, match="needs escapes"):
                written({"members": container(names[:9] + [text] + names[9:])})


@pytest.mark.parametrize("size", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3])
@pytest.mark.parametrize("container", [list, tuple, Streamed])
def test_long_arrays_across_batches(size, container):
    names = ["%d/%d,0" % (i, i + 1) for i in range(size)]
    assert written(container(names)) == expected(names)
    # a non-string sends its batch item by item
    for odd in (7, None, ["x"], {"k": "v"}):
        mixed = names[: size // 2] + [odd] + names[size // 2 :]
        assert written({"members": container(mixed)}) == expected({"members": mixed})


def test_iterators_are_consumed_as_written():
    drawn = []
    members = map(lambda i: drawn.append(i) or str(i), range(3 * BATCH))
    stream = pieces({"members": members, "radius": 5})
    assert next(stream) == '{\n  "members": ' and drawn == []
    assert next(stream).startswith("[\n    ") and drawn == list(range(BATCH))
    assert "".join(stream).endswith('\n  ],\n  "radius": 5\n}')
    assert len(drawn) == 3 * BATCH


def test_rows_are_taken_one_at_a_time():
    # row k+1 is taken only once the text of row k is out, so a generator of
    # rows that each hold a long series keeps one of them alive
    out, before = [], []

    def rows():
        for k in range(3):
            before.append("".join(out))
            yield {"k": k, "series": "q - 24 q^2"}

    for piece in pieces(rows()):
        out.append(piece)
    text = "".join(out)
    assert text == expected([{"k": k, "series": "q - 24 q^2"} for k in range(3)])
    ends = [match.end() for match in re.finditer(r"\n  \}", text)]
    assert before == ["", text[: ends[0]], text[: ends[1]]]


class Pieces(namedtuple("Pieces", "parts")):
    """A named tuple whose printed text comes in pieces, as a power series' does."""

    def text(self):
        yield from self.parts


@pytest.mark.parametrize("parts", [[], ["q"], ["q", " - 24 q^2"], ["q^-1 + 196884 q", "", " + 21493760 q^2"]])
def test_an_object_with_a_text_method_is_one_string(parts):
    # given as is: ``payload`` would rebuild the named tuple from its items
    assert "".join(pieces({"series": Pieces(parts)})) == expected({"series": "".join(parts)})
    assert "".join(pieces([Pieces(parts)])) == expected(["".join(parts)])


def test_a_series_is_written_in_its_pieces():
    series = eta_quotient_series(FRAME_SHAPES[0], 300)
    assert list(pieces(series)) == ['"', *series.text(), '"']
    assert "".join(pieces(series)) == expected(str(series))


@pytest.mark.parametrize(
    "value",
    [1.5, float("nan"), {1, 2}, frozenset(), b"bytes", {"a": [1, 2.5]}, [{"k": {0.5}}], {1: "a"}],
    ids=repr,
)
def test_other_types_are_refused(value):
    with pytest.raises(TypeError):
        "".join(pieces(value))


def test_a_long_string_is_copied_once():
    # a series of super --series 11999 is about 3.5 MB, and a second copy
    # raised that command's peak by as much
    import tracemalloc

    text = "1 + q" * 2**20
    tracemalloc.start()
    try:
        piece = next(pieces(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert piece == '"' + text + '"'
    assert peak < 1.5 * len(text)
