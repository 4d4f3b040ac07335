"""Persistent campaign checkpoints: restart a grid where it stopped.

A campaign is embarrassingly resumable — every cell is an independent seeded
computation — so :class:`CampaignCheckpoint` persists each finished cell as
one line of a :class:`~repro.jsonl_store.JsonlStore` file and
:func:`repro.campaign.runner.run_cell_grid` skips restored cells on restart.
Restored results are pickle round-trips of the originals, so a resumed
campaign renders summaries byte-identical to an uninterrupted run.

The file holds three record *kinds* side by side, one per campaign runner:

* ``search`` — a ``(platform, scenario)`` cell of
  :func:`repro.campaign.runner.run_campaign`, carrying a
  :class:`~repro.search.evolutionary.SearchResult`;
* ``serving`` — a ``(platform, family)`` cell of
  :func:`repro.campaign.serving_runner.run_serving_campaign`, carrying a
  :class:`~repro.campaign.serving_runner.ServingCellResult`;
* ``fleet`` — a ``(mix, family)`` cell of
  :func:`repro.campaign.fleet_runner.run_fleet_campaign`, carrying a
  :class:`~repro.campaign.fleet_runner.FleetCellResult`.

One loader and one writer serve all three kinds;
:meth:`CampaignCheckpoint.load` / :meth:`~CampaignCheckpoint.store` and their
``_serving`` / ``_fleet`` siblings are one-line entry points over them.

Safety model
------------
Every line carries the campaign ``seed``, the cell's *fingerprint* — one
digest over everything that shapes the cell's result — and a short digest of
each fingerprint field.  A :class:`CellExpectation` sorts those fields into
two groups.  On load:

* a **seed mismatch raises** :class:`~repro.errors.ConfigurationError` —
  silently mixing results from a different seed would poison the whole grid;
* a **strict field mismatch raises** too: a search cell's network or
  platform contents, stage count, strategy, budget, scenario or evaluator
  settings changed, and re-using any part of the old grid would mix
  incompatible searches;
* a **refreshable field mismatch re-runs the cell** instead: a search cell's
  warm-start donors or objective set, and every field of a serving or fleet
  cell (a family, a mix or a deployed front is *expected* to change between
  runs);
* a stored field that is **no longer part of the fingerprint** (an older
  release wrote it for an option since removed) counts as refreshable too:
  the cell re-runs once and the log names the field;
* both mismatches log the names of the fields that changed;
* a cell **no longer in the grid** is ignored (stale), and cells *added* to
  the grid are simply not in the file, so a grown grid runs exactly the new
  cells;
* a **malformed line** (truncated by a mid-write crash, foreign writer) is
  skipped and logged, never fatal; a line of an **older format version** is
  logged as such and never restored, so its cell re-runs.

Format versions
---------------
* **1** — kind, seed, fingerprint, cell key, metrics and payload.
* **2** — adds the per-field digests, so a mismatch names what changed.
* **3** (current) — a search cell's results no longer carry the
  :class:`~repro.nn.multiexit.DynamicNetwork` they were built from, only
  its ``base_accuracy``
  (:class:`~repro.search.evaluation.EvaluatedConfig`).

A version-1 or version-2 line is counted as an older format by the loader of
its own kind, so it is logged once per run, and it is never unpickled: every
cell it holds re-runs, and the re-run writes a current line, so the rendered
summary is byte-identical to a fresh run.  A campaign run keeps one
checkpoint, which reads the file once for all of its loads, so a malformed
or foreign line is logged once per run too.

.. warning::
   The payload is a pickle, exactly like the evaluation cache's: only load
   checkpoint files you wrote yourself or obtained from a trusted source.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..jsonl_store import JsonlStore
from ..search.evolutionary import SearchResult

__all__ = [
    "CampaignCheckpoint",
    "CellExpectation",
    "CheckpointStats",
    "campaign_fingerprint",
]  # CellKey/ServingCellKey/FleetCellKey are type aliases, importable directly

logger = logging.getLogger(__name__)

#: Format marker written into every persisted line; bump on layout changes
#: (the history is in the module docstring).  Older lines re-run their cells.
_CHECKPOINT_VERSION = 3

#: A search cell's identity within one campaign grid: (platform, scenario).
CellKey = Tuple[str, str]

#: A serving cell's identity within one serving campaign: (platform, family).
ServingCellKey = Tuple[str, str]

#: A fleet cell's identity within one fleet campaign: (mix, family).
FleetCellKey = Tuple[str, str]

#: The two JSON fields forming each kind's cell key, in key order.
_KEY_FIELDS = {
    "search": ("platform", "scenario"),
    "serving": ("platform", "family"),
    "fleet": ("mix", "family"),
}

#: The human-readable metrics each kind's lines carry beside the payload.
_SUMMARIES = {
    "search": lambda result: {
        "evaluations": result.num_evaluations,
        "front": len(result.pareto),
        "best_latency_ms": result.best.latency_ms,
        "best_energy_mj": result.best.energy_mj,
    },
    "serving": lambda result: {
        "members": len(result.members),
        "p99_latency_ms": result.p99_latency_ms,
        "served_p99_per_joule": result.served_p99_per_joule,
    },
    "fleet": lambda result: {
        "members": len(result.members),
        "p99_latency_ms": result.p99_latency_ms,
        "total_joules": result.total_joules,
    },
}


def campaign_fingerprint(**fields: object) -> str:
    """Stable short digest of the settings that determine a cell's result.

    Values are rendered with ``repr`` through a canonical JSON encoding, so
    any change to the search budget, scenario constraints or evaluator
    settings yields a different fingerprint and checkpointed cells written
    under the old settings refuse to mix with the new run.
    """
    canonical = json.dumps(
        {name: repr(value) for name, value in fields.items()}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CellExpectation:
    """What the current run demands of a checkpointed cell to accept it.

    ``strict`` holds the fields that define *which search* a cell ran: a
    stored cell that differs in one of them raises, because the run would
    mix incompatible searches.  ``refreshable`` holds the fields whose change
    only makes the stored result stale: such a cell is re-run and counted in
    :attr:`CheckpointStats.refreshed`.  Values enter through their ``repr``,
    so platforms and networks count by content, not by name.
    """

    strict: Mapping[str, object] = field(default_factory=dict)
    refreshable: Mapping[str, object] = field(default_factory=dict)

    @cached_property
    def field_digests(self) -> Dict[str, str]:
        """A short digest of every field, as stored beside the fingerprint."""
        return {
            name: hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:12]
            for name, value in {**self.strict, **self.refreshable}.items()
        }

    @cached_property
    def fingerprint(self) -> str:
        """The cell's digest over all of its fields."""
        return campaign_fingerprint(**self.field_digests)

    def changed_fields(self, stored: Mapping[str, str]) -> List[str]:
        """Names of the fields whose ``stored`` digest differs from this run's.

        A field only one side has counts as changed, so a line written with
        a field this run no longer carries names that field.
        """
        expected = self.field_digests
        names = dict.fromkeys([*expected, *stored])
        return [name for name in names if expected.get(name) != stored.get(name)]


@dataclass
class CheckpointStats:
    """What one :class:`CampaignCheckpoint` load found."""

    restored: int = 0
    stale: int = 0
    malformed: int = 0
    #: Lines of an older format version: never restored, their cells re-run.
    older: int = 0
    #: Cells re-run because a refreshable field of theirs changed.
    refreshed: int = 0


class CampaignCheckpoint:
    """Append-only JSONL store of completed campaign cells.

    Parameters
    ----------
    directory:
        Directory holding the checkpoint file (created on first store).
    seed:
        The campaign's master seed; lines written under any other seed make
        the loaders raise instead of silently mixing results.
    """

    FILENAME = "campaign_cells.jsonl"

    def __init__(self, directory: Union[str, Path], seed: int) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self.seed = int(seed)
        self.stats = CheckpointStats()
        # One read of the file, each kind's lines kept for that kind's load.
        self._kinds: Optional[Dict[object, List[Tuple[bool, dict]]]] = None

    # -- restore -----------------------------------------------------------------
    def load(
        self, expected: Mapping[CellKey, CellExpectation]
    ) -> Dict[CellKey, SearchResult]:
        """Restore every search cell the current grid still accepts."""
        return self._load("search", expected, SearchResult)

    def load_serving(
        self, expected: Mapping[ServingCellKey, CellExpectation]
    ) -> Dict[ServingCellKey, object]:
        """Restore every serving cell the current sweep still accepts."""
        from .serving_runner import ServingCellResult  # local: runner imports us

        return self._load("serving", expected, ServingCellResult)

    def load_fleet(
        self, expected: Mapping[FleetCellKey, CellExpectation]
    ) -> Dict[FleetCellKey, object]:
        """Restore every fleet cell the current sweep still accepts."""
        from .fleet_runner import FleetCellResult  # local: runner imports us

        return self._load("fleet", expected, FleetCellResult)

    def _load(
        self,
        kind: str,
        expected: Mapping[Tuple[str, str], CellExpectation],
        payload_type: type,
    ) -> Dict[Tuple[str, str], object]:
        """The shared loader: restore the ``kind`` cells ``expected`` accepts.

        ``expected`` maps each key of the current grid to its
        :class:`CellExpectation`; keys missing from it are stale cells of an
        older grid.  A foreign seed or a changed strict field raises before
        any payload is touched.

        The file is read once for the loads of every kind, so each line is
        counted and logged by one load: a line of a kind by that kind's
        load, and a line no load can use by the load that read the file.
        Loading a kind a second time reads the file again.
        """
        self.stats = CheckpointStats()
        store = self._store(payload_type)
        if self._kinds is None or kind not in self._kinds:
            # The lines no kind can use are counted here, by the read.
            self._kinds = {name: [] for name in _KEY_FIELDS}
            for current, record in store._lines():
                self._kinds.setdefault(record.get("kind"), []).append((current, record))
        first_field, second_field = _KEY_FIELDS[kind]
        restored: Dict[Tuple[str, str], object] = {}
        changed: Dict[Tuple[str, str], List[str]] = {}
        for current, record in self._kinds.pop(kind):
            if not current:
                store.older += 1
                continue
            try:
                key = (str(record[first_field]), str(record[second_field]))
                seed = int(record["seed"])
                fingerprint = str(record["fingerprint"])
                stored_fields = dict(record["fields"])
            except (KeyError, TypeError, ValueError):
                store.skipped += 1
                continue
            if seed != self.seed:
                raise ConfigurationError(
                    f"checkpoint {self.path} holds cell {key} written under seed "
                    f"{seed}, but this campaign runs under seed {self.seed}; "
                    f"refusing to mix seeds — use a fresh checkpoint_dir or "
                    f"re-run with the original seed"
                )
            expectation = expected.get(key)
            if expectation is None:
                self.stats.stale += 1
            elif fingerprint != expectation.fingerprint:
                names = expectation.changed_fields(stored_fields)
                strict = [name for name in names if name in expectation.strict]
                if strict:
                    message = (
                        f"checkpoint {self.path} holds {kind} cell {key} written "
                        f"under a different campaign configuration (fingerprint "
                        f"{fingerprint} vs {expectation.fingerprint}; changed: "
                        f"{', '.join(strict)}); use a fresh checkpoint_dir"
                    )
                    logger.warning("%s", message)
                    raise ConfigurationError(message)
                changed[key] = names
            else:
                result = store.decode(record)
                if result is not None:
                    restored[key] = result
        store._log()
        self.stats.restored = len(restored)
        self.stats.malformed = store.skipped
        self.stats.older = store.older
        # A stale line may be superseded by a later line written under the
        # current fingerprint (the file is append-only); only cells left
        # unrestored actually re-run.
        rerun = [names for key, names in changed.items() if key not in restored]
        self.stats.refreshed = len(rerun)
        if rerun:
            counts = Counter(name for names in rerun for name in names)
            logger.info(
                "campaign checkpoint %s: re-running %d %s cells whose fields "
                "changed: %s",
                self.path,
                len(rerun),
                kind,
                ", ".join(f"{name} ({count})" for name, count in counts.items()),
            )
        return restored

    # -- persist -----------------------------------------------------------------
    def store(self, key: CellKey, expectation: CellExpectation, result: SearchResult) -> None:
        """Append one finished search cell."""
        self._append("search", key, expectation, result)

    def store_serving(
        self, key: ServingCellKey, expectation: CellExpectation, result
    ) -> None:
        """Append one finished serving cell."""
        self._append("serving", key, expectation, result)

    def store_fleet(self, key: FleetCellKey, expectation: CellExpectation, result) -> None:
        """Append one finished fleet cell."""
        self._append("fleet", key, expectation, result)

    def _append(
        self,
        kind: str,
        key: Tuple[str, str],
        expectation: CellExpectation,
        result: object,
    ) -> None:
        """The shared writer: one line per finished cell, appended at once so
        a later crash costs at most the line being written."""
        first_field, second_field = _KEY_FIELDS[kind]
        store = self._store(object)
        fields = {
            "kind": kind,
            "seed": self.seed,
            "fingerprint": expectation.fingerprint,
            first_field: key[0],
            second_field: key[1],
            "fields": expectation.field_digests,
            "metrics": _SUMMARIES[kind](result),
        }
        store.append([store.record(result, **fields)])

    def _store(self, payload_type: type) -> JsonlStore:
        return JsonlStore(
            self.path, _CHECKPOINT_VERSION, payload_type, "campaign checkpoint", logger
        )
