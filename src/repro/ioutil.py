"""Small shared I/O helpers.

:func:`write_atomic_bytes` is the repository's one way to publish a
file other processes may be reading concurrently: the bytes land in a
temporary file in the destination directory and move into place with
``os.replace``, so a reader opening the path sees either the previous
complete contents or the new complete contents — never a torn write.
:func:`write_atomic` is its UTF-8 text form.  The batch workers'
per-day label CSVs, the label database's day files, the warehouse's
segments and manifest, the alarm cache's entries and the serve
scheduler's journal all go through them.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def write_atomic_bytes(path: Union[str, Path], payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + ``os.replace``).

    The temporary file is created in ``path``'s directory so the final
    rename stays on one filesystem (cross-device renames are copies,
    not atomic).  On any failure the temporary file is removed and the
    destination is left untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_atomic(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically, UTF-8 encoded."""
    write_atomic_bytes(path, text.encode("utf-8"))
