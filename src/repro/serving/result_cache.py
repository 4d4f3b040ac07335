"""Content-keyed serving-result cache with optional JSONL persistence.

``measured_serving_objectives`` puts the traffic simulator *inside* the
search loop: every NSGA-II domination check asks for a candidate's measured
queueing wait, and the same candidate is interrogated many times per
generation (pairwise domination is O(n^2)).  Re-simulating an unchanged
deployment every time would make measured search orders of magnitude slower
than the M/D/1 proxy; the :class:`ServingResultCache` makes each distinct
replay happen exactly once.  The objective's extractor derives one key per
candidate per bound objective set (it keeps the candidate's
:class:`~repro.serving.bridge.MeasuredReplay`, and its
:class:`~repro.serving.bridge.ReplayScenario` hashes the scenario half of
the key once for all its candidates) and makes one lookup per
interrogation, so hit/miss statistics and :class:`ServingCacheRecorder`
counts tally interrogations, exactly as if every one re-derived its key.

Entries are keyed by :func:`serving_digest` — a stable content digest of the
*deployment* (per-stage services/energies/accuracies/DVFS points; the display
name is deliberately excluded), the platform, the replayed workload member,
the traffic seed and the replay budget (duration, deadline, policy tag).  Two
searched configurations that distil to the same deployment share one entry;
touching the family, seed or budget changes every key, so stale results can
never be served.

Persistence is the :class:`~repro.jsonl_store.JsonlStore` format shared with
:class:`~repro.engine.cache.EvaluationCache`: one JSON line per stored result
(human-readable metric summary + family label + pickled
:class:`~repro.serving.metrics.ServingMetrics` payload), eager reload on
startup where the first line per digest wins, and malformed/truncated lines
skipped with a logged recovery count instead of aborting the load.  A file
has a single writer: process-pool workers open it through
:meth:`ServingResultCache.reader` handles, which never append, and ship their
new entries home for the parent to :meth:`~ServingResultCache.absorb`.

.. warning::
   The payload is a pickle: loading a cache file deserialises it with
   :func:`pickle.loads`, which can execute arbitrary code.  Only open cache
   files you wrote yourself or obtained from a source you trust.
"""

from __future__ import annotations

import hashlib
import logging
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from dataclasses import dataclass

from ..engine.cache import CacheStats
from ..errors import ConfigurationError
from ..jsonl_store import JsonlStore, log_conflict
from ..soc.platform import Platform
from .metrics import ServingMetrics
from .policies import Deployment
from .workload import ArrivalProcess, Request

__all__ = [
    "ServingResultCache",
    "ServingCacheRecorder",
    "MeasuredCellStats",
    "serving_digest",
    "deployment_digest",
]

logger = logging.getLogger(__name__)

#: Format marker written into every persisted line; bump on layout changes.
_PERSIST_VERSION = 1

#: How log messages name this cache.
_LABEL = "serving result cache"


def deployment_digest(deployment: Deployment) -> str:
    """Stable content digest of a deployment's *serving behaviour*.

    Covers every field that shapes simulation — per-stage units, service
    times, energies, exit accuracies and DVFS points — but not ``name``,
    which is display-only (``rank_under_traffic`` names front members by
    position).  Two searched configurations distilling to identical stage
    tuples therefore share one digest, exactly like the evaluation cache
    shares content-identical mappings.
    """
    payload = repr(
        (
            deployment.unit_names,
            deployment.service_ms,
            deployment.energy_mj,
            deployment.stage_accuracies,
            deployment.dvfs_scales,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def serving_digest(
    deployment: Deployment,
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: float,
    seed: int,
    deadline_ms: Optional[float] = None,
    policy_tag: str = "static",
) -> str:
    """Content key of one simulated replay: deployment x scenario x budget.

    The workload contributes its ``repr`` (family members are frozen
    dataclasses whose repr encodes every parameter), the platform its
    content-bearing repr, and the replay budget the duration, deadline,
    traffic seed and policy tag — so any change that could alter a single
    simulated record changes the key.  ``duration_ms=None`` (replay until
    the stream drains) has no key and raises
    :class:`~repro.errors.ConfigurationError`.
    """
    return _keyed(
        deployment,
        _scenario_suffix(platform, workload, duration_ms, seed, deadline_ms, policy_tag),
    )


def _scenario_suffix(
    platform: Platform,
    workload: Union[ArrivalProcess, Sequence[Request]],
    duration_ms: Optional[float],
    seed: int,
    deadline_ms: Optional[float],
    policy_tag: str,
) -> str:
    """The scenario half of a :func:`serving_digest` payload.

    Everything after the deployment digest: the lines every candidate
    replayed under one scenario shares, so a
    :class:`~repro.serving.bridge.ReplayScenario` derives them once.  The
    policy tag is the last line.
    """
    if duration_ms is None:
        raise ConfigurationError(
            "a cached replay needs duration_ms: the replay budget is part of "
            "the serving-cache key"
        )
    workload_identity = (
        repr(workload)
        if isinstance(workload, ArrivalProcess)
        else repr(tuple(workload))
    )
    return "\n".join(
        [
            repr(platform),
            workload_identity,
            repr(float(duration_ms)),
            repr(None if deadline_ms is None else float(deadline_ms)),
            repr(int(seed)),
            policy_tag,
        ]
    )


def _keyed(deployment: Deployment, scenario_suffix: str) -> str:
    """The :func:`serving_digest` of ``deployment`` under a scenario's suffix."""
    payload = deployment_digest(deployment) + "\n" + scenario_suffix
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ServingResultCache:
    """In-memory (and optionally on-disk) store of simulated serving metrics.

    Parameters
    ----------
    path:
        Optional JSON-lines file.  Existing lines are loaded eagerly; every
        :meth:`store`, and every new entry :meth:`absorb` merges, appends one
        line, so independent runs accumulate into a shared result store.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._entries: Dict[str, ServingMetrics] = {}
        self._families: Dict[str, str] = {}
        self._session: list = []
        self.stats = CacheStats()
        self.path = Path(path) if path is not None else None
        self._store: Optional[JsonlStore] = None
        if self.path is not None:
            self._store = self._load(self.path)

    @classmethod
    def reader(cls, path: Optional[Union[str, Path]]) -> "ServingResultCache":
        """An in-memory handle preloaded from ``path`` that never writes to it.

        What a process-pool worker opens on a campaign's shared cache file: it
        sees every replay persisted so far, and the simulations it adds travel
        home through :meth:`export_session` for the parent process — the
        file's single writer — to :meth:`absorb`.  ``path=None`` gives a fresh
        in-memory cache.
        """
        cache = cls()
        if path is not None:
            cache._load(Path(path))
        return cache

    def _load(self, path: Path) -> JsonlStore:
        """Load ``path``'s entries (first line per digest wins); return its store."""
        store = JsonlStore(path, _PERSIST_VERSION, ServingMetrics, _LABEL, logger)
        for digest, record, value in store.unique():
            self._entries[digest] = value
            family = str(record.get("family", ""))
            if family:
                self._families[digest] = family
        self.stats.loaded = len(self._entries)
        self.stats.duplicates = store.duplicates
        return store

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    # -- lookup / store ----------------------------------------------------------
    def lookup(self, digest: str) -> Optional[ServingMetrics]:
        """Return the cached metrics for ``digest``, recording a hit or miss."""
        value = self._entries.get(digest)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def peek(self, digest: str) -> Optional[ServingMetrics]:
        """Like :meth:`lookup` but without touching the statistics."""
        return self._entries.get(digest)

    def family(self, digest: str) -> str:
        """Family label stored next to ``digest`` ("" when none was given)."""
        return self._families.get(digest, "")

    def items(self) -> Iterator[Tuple[str, ServingMetrics]]:
        """Iterate over ``(digest, metrics)`` pairs (no stat updates)."""
        return iter(self._entries.items())

    def store(self, digest: str, value: ServingMetrics, family: str = "") -> None:
        """Insert freshly simulated metrics and persist them if configured.

        Storing under an existing digest keeps the first entry, but a
        *conflicting* payload — same content key, different measured numbers,
        e.g. a stale file from a different simulator build that kept the same
        persistence version — is logged as a warning instead of being dropped
        without a trace.
        """
        self._session.extend(self._insert([(digest, value, family)]))

    def _insert(self, entries) -> list:
        """Add the ``(digest, metrics, family)`` entries new to this handle.

        Persists them in one batch when the handle has a file, and returns
        them.  An entry whose digest is already held keeps the first one;
        different numbers under that digest are logged as a conflict.
        """
        fresh = []
        for digest, value, family in entries:
            if not isinstance(value, ServingMetrics):
                raise ConfigurationError(
                    f"cache values must be ServingMetrics, got {type(value).__name__}"
                )
            existing = self._entries.get(digest)
            if existing is not None:
                stored, offered = self._metrics_summary(existing), self._metrics_summary(value)
                if stored != offered:
                    log_conflict(logger, _LABEL, digest, stored, offered)
                continue
            self._entries[digest] = value
            if family:
                self._families[digest] = family
            fresh.append((digest, value, family))
        if self._store is not None:
            self._store.append(self._record(*entry) for entry in fresh)
        return fresh

    # -- cross-process merge-back ------------------------------------------------
    def export_session(self) -> Tuple[Tuple[str, ServingMetrics, str], ...]:
        """Entries stored through *this* handle since construction.

        A process-pool worker builds its own handle, serves a cell, and ships
        this export back with the cell result; the parent then
        :meth:`absorb`\\ s it so later cells see the worker's simulations.
        Loaded and absorbed entries are excluded — only genuinely new
        simulations travel.
        """
        return tuple(self._session)

    def absorb(self, entries) -> int:
        """Merge ``(digest, metrics, family)`` tuples; return how many were new.

        The new entries are appended to this handle's file when it has one:
        workers read a campaign's shared file but never write it, so the
        absorbing parent persists every replay exactly once.  Absorbed
        entries do not join this handle's session export (they are not
        *this* process's simulations).
        """
        return len(self._insert(entries))

    # -- persistence -------------------------------------------------------------
    @staticmethod
    def _metrics_summary(value: ServingMetrics) -> Dict[str, float]:
        """The human-readable summary persisted (and compared) per entry."""
        return {
            "p99_latency_ms": value.p99_latency_ms,
            "mean_queueing_ms": value.mean_queueing_ms,
            "energy_per_request_mj": value.energy_per_request_mj,
            "throughput_rps": value.throughput_rps,
        }

    def _record(self, digest: str, value: ServingMetrics, family: str) -> Dict[str, object]:
        return self._store.record(
            value,
            key=digest,
            family=family,
            policy=value.policy,
            metrics=self._metrics_summary(value),
        )


@dataclass(frozen=True)
class MeasuredCellStats:
    """Deterministic per-cell cache-efficiency numbers for campaign summaries.

    ``lookups`` counts every measured-objective interrogation of the cell's
    search; ``unique`` counts the distinct replay digests behind them — the
    simulations an isolated, cold cache would have to run.  ``avoided`` is
    their difference: the replays content-keying saved versus no cache at
    all.  Both inputs are pure functions of the cell's (seeded) search
    trajectory, so unlike runtime hit/miss counts — which depend on whether
    the shared cache happened to be warm — they are byte-identical across
    serial, cell-parallel and checkpoint-resumed runs and safe to pin in
    golden summaries.
    """

    lookups: int
    unique: int

    @property
    def avoided(self) -> int:
        return self.lookups - self.unique


class ServingCacheRecorder:
    """Per-cell view of a :class:`ServingResultCache` that counts lookups.

    Wraps the shared (or worker-local) cache for exactly one campaign cell:
    every :meth:`lookup` is tallied together with its digest, stores pass
    straight through.  :meth:`cell_stats` then yields the
    :class:`MeasuredCellStats` attached to that cell's search result.
    """

    def __init__(self, cache: ServingResultCache) -> None:
        self.cache = cache
        self._lookups = 0
        self._digests: set = set()

    def lookup(self, digest: str) -> Optional[ServingMetrics]:
        self._lookups += 1
        self._digests.add(digest)
        return self.cache.lookup(digest)

    def store(self, digest: str, value: ServingMetrics, family: str = "") -> None:
        self.cache.store(digest, value, family)

    def cell_stats(self) -> MeasuredCellStats:
        return MeasuredCellStats(lookups=self._lookups, unique=len(self._digests))
