"""Helpers shared by the workloads: percentiles, digests, the digest
registry that catches non-deterministic runs, and the environment record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Optional

OUT_DIR = ".perfbench_out"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def sha256_files(paths: Iterable[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def sha256_text(parts: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def source_files(root: Path) -> list[Path]:
    return sorted((root / "src" / "leadopt").rglob("*.py"))


def source_digest(root: Path) -> str:
    """sha256 over the package's files, names included: the key under which
    output digests are compared."""
    digest = hashlib.sha256()
    package = root / "src" / "leadopt"
    for path in sorted(p for p in package.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(package)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """ru_maxrss of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class DigestRegistry:
    """Output digests of earlier runs of the same source tree, kept in the
    checkout. A run whose digest differs from an earlier run with the same
    workload, seed and key is non-deterministic."""

    def __init__(self, root: Path, source_digest: str, workload: str, seed: int):
        self.path = root / OUT_DIR / "digests.jsonl"
        self.prefix = (source_digest, workload, seed)
        self.known: dict[str, str] = {}
        self.fresh: dict[str, str] = {}
        self.conflicts: list[str] = []
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    row = json.loads(line)
                    if (row["source"], row["workload"], row["seed"]) == self.prefix:
                        self.known[row["key"]] = row["digest"]

    def record(self, key: str, digest: str) -> None:
        earlier = self.known.get(key, self.fresh.get(key))
        if earlier is not None and earlier != digest:
            self.conflicts.append(key)
        self.fresh.setdefault(key, digest)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        source, workload, seed = self.prefix
        with open(self.path, "a", encoding="utf-8") as fh:
            for key, digest in self.fresh.items():
                if key not in self.known:
                    fh.write(json.dumps({"source": source, "workload": workload,
                                         "seed": seed, "key": key,
                                         "digest": digest}) + "\n")


def _git_rev(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: Path, seed: int) -> dict:
    import numpy

    files = source_files(root)
    return {
        "git_rev": _git_rev(root),
        "source_sha256": source_digest(root),
        "src_lines": sum(len(path.read_text(encoding="utf-8").splitlines())
                         for path in files),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
        "argv": sys.argv[1:],
    }
