"""Output files that appear whole or not at all; shipped data files and the
one reader of tab-separated tables."""

from __future__ import annotations

import json
import os
import tempfile
from importlib import resources
from pathlib import Path
from typing import Iterable

__all__ = ["data_text", "table_rows", "write_atomic", "write_jsonl"]


def data_text(name: str) -> str:
    """A file shipped in `leadopt.data`."""
    return resources.files("leadopt.data").joinpath(name).read_text()


def table_rows(text: str) -> list[list[str]]:
    """The tab-separated fields of each line of a table; lines are stripped
    first, blank lines and `#` comments skipped. Callers convert the fields."""
    lines = (line.strip() for line in text.splitlines())
    return [line.split("\t") for line in lines if line and not line.startswith("#")]


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


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> Path:
    """Each row as one JSON object with sorted keys on a line of its own,
    written with :func:`write_atomic`."""
    return write_atomic(path, "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
