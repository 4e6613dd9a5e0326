"""Whole-file artifact writes that never leave a half-written file."""

from __future__ import annotations

import os
import threading
from pathlib import Path


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8: first to a temporary file in
    the same directory, then moved over ``path`` in one ``os.replace``. A
    write that fails leaves the previous file as it was and removes the
    temporary one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
