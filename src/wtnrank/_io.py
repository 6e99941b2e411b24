"""File formats and stream ownership shared by every reader and writer.

A source or destination is either a path, which is opened here and closed
when the block ends, or a caller's stream, which is borrowed and left open.
Outputs are UTF-8 with "\\n" line ends on every platform, so identical
inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager


@contextmanager
def open_output(dest):
    """Text stream to ``dest``: a path is opened for writing and closed afterwards."""
    if hasattr(dest, "write"):
        yield dest
        return
    with open(dest, "w", encoding="utf-8", newline="") as stream:
        yield stream


@contextmanager
def open_input(source):
    """Text stream over ``source``: bytes, a text or binary stream, or a path.

    A leading UTF-8 byte-order mark is dropped. Bytes, a binary stream and a
    path are read with ``newline=""``, so line ends reach the caller as they
    are in the file. Only a file opened here is
    closed; a caller's binary stream is detached from its text wrapper, so
    it stays open too.
    """
    if isinstance(source, bytes):
        yield io.StringIO(source.decode("utf-8-sig"), newline="")
    elif isinstance(source, io.TextIOBase):
        yield source
    elif hasattr(source, "read"):
        wrapper = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
        try:
            yield wrapper
        finally:
            wrapper.detach()
    else:
        with open(source, "r", encoding="utf-8-sig", newline="") as stream:
            yield stream


def write_json(payload, dest) -> None:
    """Indented JSON with sorted keys and a final newline."""
    with open_output(dest) as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def write_csv(header, rows, dest) -> None:
    """A header row, then ``rows``, each line ended by "\\n"."""
    with open_output(dest) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
