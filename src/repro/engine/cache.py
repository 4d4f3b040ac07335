"""Content-keyed evaluation cache with optional JSON-lines persistence.

Every evaluation the engine performs flows through an
:class:`EvaluationCache`.  Entries are keyed by a stable content digest of
the configuration plus the identity of the evaluator that scored it (see
:meth:`repro.search.evaluation.ConfigEvaluator.content_digest`), so two
differently configured evaluators can safely share one cache, and re-running
a search with the same seed costs nothing.

When constructed with a ``path`` the cache appends one JSON line per stored
result and reloads existing lines on startup (the first line per digest
wins), making evaluation results persistent across runs and shareable
between processes.  The file is a :class:`~repro.jsonl_store.JsonlStore`:
each line carries a human-readable metric summary next to an opaque pickled
payload, so cache files double as a flat log of everything ever evaluated.

Format versions: **1** stored each result with the
:class:`~repro.nn.multiexit.DynamicNetwork` it was built from; **2**
(current) stores only the result's numbers and the network's
``base_accuracy`` (:class:`~repro.search.evaluation.EvaluatedConfig`).  A
line of an older version is counted and logged as an older format and never
unpickled, so its digest misses and a search re-evaluates that
configuration.

.. warning::
   The payload is a pickle: loading a cache file deserialises it with
   :func:`pickle.loads`, which can execute arbitrary code.  Only open cache
   files you wrote yourself or obtained from a source you trust, exactly as
   you would treat any other pickle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..jsonl_store import JsonlStore
from ..search.evaluation import EvaluatedConfig

__all__ = ["CacheStats", "EvaluationCache"]

logger = logging.getLogger(__name__)

#: Format marker written into every persisted line; bump on layout changes
#: (the history is in the module docstring).  Older lines are not loaded.
_PERSIST_VERSION = 2


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`EvaluationCache`.

    ``loaded`` counts the distinct entries read from the cache file and
    ``duplicates`` the lines skipped there because their digest was already
    loaded.
    """

    hits: int = 0
    misses: int = 0
    loaded: int = 0
    duplicates: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Tuple[int, int]:
        """Current ``(hits, misses)`` pair, for windowed rate computation."""
        return (self.hits, self.misses)

    def window_hit_rate(self, snapshot: Tuple[int, int]) -> float:
        """Hit rate since ``snapshot`` was taken."""
        hits = self.hits - snapshot[0]
        misses = self.misses - snapshot[1]
        total = hits + misses
        return hits / total if total else 0.0


class EvaluationCache:
    """In-memory (and optionally on-disk) store of evaluation results.

    Parameters
    ----------
    path:
        Optional JSON-lines file.  Existing lines are loaded eagerly; every
        :meth:`store` appends one line so independent runs accumulate into a
        shared result store.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._entries: Dict[str, EvaluatedConfig] = {}
        self.stats = CacheStats()
        self.path = Path(path) if path is not None else None
        self._store: Optional[JsonlStore] = None
        if self.path is not None:
            self._store = JsonlStore(
                self.path, _PERSIST_VERSION, EvaluatedConfig, "evaluation cache", logger
            )
            for digest, _, value in self._store.unique():
                self._entries[digest] = value
            self.stats.loaded = len(self._entries)
            self.stats.duplicates = self._store.duplicates

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    # -- lookup / store ----------------------------------------------------------
    def lookup(self, digest: str) -> Optional[EvaluatedConfig]:
        """Return the cached result for ``digest``, recording a hit or miss."""
        value = self._entries.get(digest)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def get_many(self, digests: Sequence[str]) -> Dict[str, EvaluatedConfig]:
        """Resolve a batch of digests in one pass, with bulk stat updates.

        Returns the subset of ``digests`` present in the cache.  Counts one
        hit per found digest and one miss per absent digest (duplicates in
        ``digests`` each count), so the statistics match a sequence of
        individual :meth:`lookup` calls.
        """
        found: Dict[str, EvaluatedConfig] = {}
        misses = 0
        entries = self._entries
        for digest in digests:
            value = entries.get(digest)
            if value is None:
                misses += 1
            else:
                found[digest] = value
        self.stats.hits += len(digests) - misses
        self.stats.misses += misses
        return found

    def peek(self, digest: str) -> Optional[EvaluatedConfig]:
        """Like :meth:`lookup` but without touching the statistics."""
        return self._entries.get(digest)

    def items(self) -> Iterator[Tuple[str, EvaluatedConfig]]:
        """Iterate over ``(digest, result)`` pairs (no stat updates)."""
        return iter(self._entries.items())

    def store(self, digest: str, value: EvaluatedConfig) -> None:
        """Insert a freshly evaluated result and persist it if configured."""
        self.store_many([(digest, value)])

    def store_many(self, pairs: Iterable[Tuple[str, EvaluatedConfig]]) -> None:
        """Insert a batch of results, skipping digests already present.

        Equivalent to calling :meth:`store` per pair, but persisted entries
        are flushed through a single file append.
        """
        fresh: list = []
        for digest, value in pairs:
            if not isinstance(value, EvaluatedConfig):
                raise ConfigurationError(
                    f"cache values must be EvaluatedConfig, got {type(value).__name__}"
                )
            if digest in self._entries:
                continue
            self._entries[digest] = value
            fresh.append((digest, value))
        if self._store is not None and fresh:
            self._store.append(self._record(digest, value) for digest, value in fresh)

    def _record(self, digest: str, value: EvaluatedConfig) -> Dict[str, object]:
        return self._store.record(
            value,
            key=digest,
            metrics={
                "accuracy": value.accuracy,
                "latency_ms": value.latency_ms,
                "energy_mj": value.energy_mj,
                "reuse_fraction": value.reuse_fraction,
            },
            mapping=value.config.describe(),
        )
