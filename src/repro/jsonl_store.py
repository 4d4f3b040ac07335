"""Append-only JSON-lines store of versioned records carrying pickled values.

The one persistence format behind :class:`~repro.engine.cache.EvaluationCache`,
:class:`~repro.serving.result_cache.ServingResultCache` and
:class:`~repro.campaign.checkpoint.CampaignCheckpoint`.  Every line is one JSON
object: a ``version`` marker, the owner's human-readable fields, and a
``payload`` holding one base64-encoded pickle.  Lines are written as utf-8 with
``ensure_ascii=False`` (non-ASCII platform and family names stay readable on
any locale), one batch per file handle.

Reading survives a crash mid-write: blank lines are ignored; truncated,
undecodable and foreign lines are skipped and counted; lines of an older
format version are counted separately, so they read as an upgrade rather than
as damage.  Each read logs its counts once, through the owner's logger.

.. warning::
   The payload is a pickle: reading a file deserialises it with
   :func:`pickle.loads`, which can execute arbitrary code.  Only open files you
   wrote yourself or obtained from a source you trust.
"""

from __future__ import annotations

import base64
import json
import logging
import pickle
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

__all__ = ["JsonlStore", "log_conflict"]


def log_conflict(logger: logging.Logger, label: str, key: str, kept, dropped) -> None:
    """Warn that ``key`` arrived again with different numbers than the kept entry."""
    logger.warning(
        "%s: digest %s already stored with conflicting metrics (kept %s, dropped %s) "
        "— the existing entry may come from a stale file written by a different build",
        label,
        key[:16],
        kept,
        dropped,
    )


class JsonlStore:
    """One JSONL file of versioned records, each carrying one pickled value.

    Parameters
    ----------
    path:
        The file; its directory is created on the first append.
    version:
        Format marker written into every line and demanded of every line read.
    payload_type:
        The type every decoded payload must have.
    label:
        How log messages name the file's owner (e.g. ``"evaluation cache"``).
    logger:
        The owner's logger, so every message comes from the owner's module.

    The counters describe the last read: ``decoded`` payloads, ``skipped``
    malformed or foreign lines, ``older`` lines of an earlier format version,
    and ``duplicates`` (lines whose key :meth:`unique` had already loaded).
    """

    def __init__(
        self,
        path: Union[str, Path],
        version: int,
        payload_type: type,
        label: str,
        logger: logging.Logger,
    ) -> None:
        self.path = Path(path)
        self.version = int(version)
        self.payload_type = payload_type
        self.label = label
        self.logger = logger
        self.decoded = self.skipped = self.older = self.duplicates = 0

    # -- write -------------------------------------------------------------------
    def record(self, value: object, **fields: object) -> Dict[str, object]:
        """A line for ``value``: the version marker, ``fields``, then the payload."""
        return {
            "version": self.version,
            **fields,
            "payload": base64.b64encode(pickle.dumps(value)).decode("ascii"),
        }

    def append(self, records: Iterable[Dict[str, object]]) -> None:
        """Append ``records``, one line each, through a single file handle."""
        lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in records]
        if not lines:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as stream:
            stream.writelines(lines)

    # -- read --------------------------------------------------------------------
    def records(self, **match: object) -> Iterator[Dict[str, object]]:
        """Every well-formed line of the current version, in file order.

        Resets the counters, counts the lines it cannot use, and logs the
        counts once the file is exhausted.  Payloads are decoded on demand
        through :meth:`decode`, so an owner can reject a record on its fields
        without unpickling anything; owners count records they reject as
        malformed by incrementing :attr:`skipped`.

        ``match`` narrows the read to the lines whose fields hold the given
        values, such as one record kind of a shared file.  A current or
        older line that differs is left to the read that matches it, so
        each one is yielded or counted, and logged, by one read only; a
        line that cannot be read is counted by every read.
        """
        self.decoded = self.skipped = self.older = self.duplicates = 0
        for current, record in self._lines():
            if any(record.get(name) != value for name, value in match.items()):
                continue
            if current:
                yield record
            else:
                self.older += 1
        self._log()

    def _lines(self) -> Iterator[Tuple[bool, Dict[str, object]]]:
        """``(current, record)`` of every line of the current or an older version.

        Blank lines are ignored; a line that is not a JSON object, or whose
        version this store never wrote, is counted in :attr:`skipped`.
        """
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as stream:
            for line in stream:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    version = record.get("version")
                except (ValueError, AttributeError):
                    self.skipped += 1
                    continue
                current = version == self.version
                if current or (isinstance(version, int) and 0 < version < self.version):
                    yield current, record
                else:
                    self.skipped += 1

    def decode(self, record: Dict[str, object]) -> Optional[object]:
        """The record's payload, or ``None`` (counted as skipped) when broken."""
        try:
            value = pickle.loads(base64.b64decode(record["payload"]))
        except Exception:  # noqa: BLE001 - truncated or foreign payloads are survivable
            value = None
        if not isinstance(value, self.payload_type):
            self.skipped += 1
            return None
        self.decoded += 1
        return value

    def unique(self) -> Iterator[Tuple[str, Dict[str, object], object]]:
        """``(key, record, value)`` for the first decodable line per ``key``.

        Later lines for a key already loaded are counted as duplicates; one
        whose ``metrics`` summary differs from the kept line's is logged as a
        conflict, exactly like a conflicting store into a live cache.
        """
        kept: Dict[str, object] = {}
        for record in self.records():
            key = record.get("key")
            if not isinstance(key, str):
                self.skipped += 1
                continue
            if key in kept:
                self.duplicates += 1
                if record.get("metrics") != kept[key]:
                    log_conflict(self.logger, self.label, key, kept[key], record.get("metrics"))
                continue
            value = self.decode(record)
            if value is not None:
                kept[key] = record.get("metrics")
                yield key, record, value

    def _log(self) -> None:
        if self.skipped:
            self.logger.warning(
                "%s %s: recovered %d entries, skipped %d malformed or foreign lines "
                "(expected after an interrupted write)",
                self.label,
                self.path,
                self.decoded,
                self.skipped,
            )
        if self.older:
            self.logger.info(
                "%s %s: ignored %d lines of an older format (before version %d)",
                self.label,
                self.path,
                self.older,
                self.version,
            )
        if self.duplicates:
            self.logger.info(
                "%s %s: ignored %d duplicate lines (the first line per key wins)",
                self.label,
                self.path,
                self.duplicates,
            )
