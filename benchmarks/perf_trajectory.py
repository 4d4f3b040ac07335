"""Persistent performance trajectory for the benchmark harness.

The tables under ``benchmarks/results/`` are prose for humans; this module
keeps the *numbers* machine-readable across PRs.  Each benchmark area emits
one ``BENCH_<area>.json`` file at the repository root — sorted keys, two-space
indent, trailing newline — so successive commits produce reviewable diffs and
CI can archive the files as artifacts.  A regression then shows up as a diff
against a number the previous run committed, not as a feeling that something
got slower.

Usage from a bench::

    from perf_trajectory import emit

    emit("fleet", {"simulated_requests_per_s": 35366.1, ...})

Only JSON-serialisable, seed- or host-determined values belong here; wall
clock timings are fine (they are what the trajectory tracks) but should be
rounded so the files do not churn on noise.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = ["REPO_ROOT", "bench_path", "emit", "load"]

REPO_ROOT = Path(__file__).resolve().parents[1]


def bench_path(area: str) -> Path:
    """Repo-root path of the trajectory file for one benchmark area."""
    if not area or not all(ch.isalnum() or ch == "_" for ch in area):
        raise ValueError(f"area must be a non-empty [a-zA-Z0-9_]+ slug, got {area!r}")
    return REPO_ROOT / f"BENCH_{area}.json"


def emit(area: str, metrics: Dict[str, Any]) -> Path:
    """Write one area's metrics to ``BENCH_<area>.json`` and return the path."""
    path = bench_path(area)
    path.write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load(area: str) -> Optional[Dict[str, Any]]:
    """Read one area's last emitted metrics, or ``None`` if never emitted."""
    path = bench_path(area)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))
