"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(path: str | Path, payload: str | bytes) -> Path:
    """Write `payload` (text is UTF-8 encoded) to a temp file beside `path`,
    then rename it over `path`; parent directories are created. A failed
    write leaves any earlier file in place and no temp file behind."""
    path = Path(path)
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
