"""Artifact files are either complete or absent.

Every file a run leaves behind (cell JSON, summary, table, metrics and trace
JSONL) is written to ``<path>.tmp`` in the same directory and moved into place
with ``os.replace`` once it is whole: a killed or failing writer leaves the
previous file or no file, never a truncated one that parses as a shorter,
valid artifact.  ``sweep --force`` clears stray ``*.tmp`` files.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, TextIO

#: suffix of a file that is still being written
TMP_SUFFIX = ".tmp"


@contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Open ``path`` for writing; it appears only when the block completes."""
    tmp = path + TMP_SUFFIX
    try:
        with open(tmp, "w") as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
