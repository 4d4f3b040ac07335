"""Output checks and operation accounting for the benchmark.

Every timed call returns an :class:`Outcome`: a digest of its deterministic
outputs, how many operations it attempted and how many of them failed its
invariants.  :class:`Ledger` then fails a call's operations when its digest
disagrees with the digest recorded for that input (``expected.json``, kept
for the default and one held-out seed) or, for any other seed, with the
digest the same input produced earlier in the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def digest(parts: Iterable) -> str:
    """sha256 over the ``repr`` of each part (floats keep every digit)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part if isinstance(part, bytes) else repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def all_finite(values: Iterable[float]) -> bool:
    """Whether no value is NaN or infinite."""
    return all(math.isfinite(float(value)) for value in values)


@dataclass
class Outcome:
    """What one timed call produced.

    ``work`` is the amount of the workload's unit of work done (distinct
    evaluations, simulated requests or campaign cells); ``counters`` are
    avoided-work counts taken at the call boundary; ``modelled`` holds the
    deterministic model outputs shown in the report.
    """

    digest: str
    attempted: int
    failed: int
    work: float
    counters: Dict[str, float] = field(default_factory=dict)
    modelled: Dict[str, float] = field(default_factory=dict)


def load_expected(workload: str, seed: int, path: Path = EXPECTED_PATH) -> Optional[Dict[str, str]]:
    """Recorded ``{input label: digest}`` for ``(workload, seed)``, if any."""
    if not path.exists():
        return None
    recorded = json.loads(path.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))


class Ledger:
    """Attempted/failed operation counts plus the digest check.

    ``expected`` maps input labels to recorded digests; without it the first
    digest seen per label becomes the reference, so every later repetition
    of that input must reproduce it.
    """

    def __init__(self, expected: Optional[Dict[str, str]] = None) -> None:
        self.expected = expected
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def record(self, label: str, outcome: Outcome) -> bool:
        """Account one call; returns whether its output check passed."""
        reference = self.seen.setdefault(label, outcome.digest)
        if self.expected is not None:
            reference = self.expected.get(label)
        ok = outcome.digest == reference
        self.attempted += outcome.attempted
        if ok:
            self.failed += outcome.failed
        else:
            self.mismatches += 1
            self.failed += outcome.attempted
        return ok

    def raised(self, attempted: int) -> None:
        """Account a call that raised: all its operations failed."""
        self.attempted += attempted
        self.failed += attempted

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.mismatches == 0
