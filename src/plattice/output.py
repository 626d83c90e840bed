"""Batched stdout writes and the JSON printer of the command handlers; apart
from ``cli``, which runs as ``__main__`` under ``python -m plattice.cli``."""

import sys
from itertools import chain

# Output is written in batches of this many characters: with
# PYTHONUNBUFFERED set each write is a system call, and a write per JSON
# chunk or per line would cost more than making them.
WRITE_BATCH = 1 << 16


def write(chunks):
    batch, size = [], 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= WRITE_BATCH:
            sys.stdout.write("".join(batch))
            batch, size = [], 0
    sys.stdout.write("".join(batch))


def print_json(payload):
    from .jsonwriter import pieces

    # the bytes of print(json.dumps(payload, indent=2, sort_keys=True)),
    # never held as one string; iterators in the payload are consumed as printed
    write(chain(pieces(payload), "\n"))
