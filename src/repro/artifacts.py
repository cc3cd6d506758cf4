"""Artifact files are either complete or absent.

Every file a run leaves behind (cell JSON, summary, table, metrics and trace
JSONL) is written to ``<path>.tmp`` in the same directory and moved into place
with ``os.replace`` once it is whole: a killed or failing writer leaves the
previous file or no file, never a truncated one that parses as a shorter,
valid artifact.  ``sweep --force`` clears stray ``*.tmp`` files.

:func:`read_jsonl` is the one reader for the JSONL artifacts (metrics and
traces): a line that does not parse, or lacks a field its reader needs, is a
``ValueError`` naming ``path:line``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, TextIO

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


def read_jsonl(path: str, required: Sequence[str] = ()) -> List[Dict]:
    """Load one JSON object per non-blank line of ``path``.

    Raises ``ValueError`` naming ``path:line`` for a line that is not valid
    JSON, not an object, or missing one of the ``required`` keys.
    """
    rows: List[Dict] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{number}: invalid JSON: {exc.msg}") from None
            if not isinstance(row, dict):
                raise ValueError(f"{path}:{number}: not a JSON object")
            missing = [key for key in required if key not in row]
            if missing:
                raise ValueError(f"{path}:{number}: missing field {', '.join(missing)}")
            rows.append(row)
    return rows
