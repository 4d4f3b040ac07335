"""Top-level Map-and-Conquer API.

:class:`~repro.core.framework.MapAndConquer` is the facade most users need:
it wires the network, the platform model, the (oracle or surrogate) cost
model, the accuracy model and the evolutionary search behind a small number
of calls -- ``search()``, ``baseline()``, ``static_baseline()`` and
``evaluate()`` -- and :mod:`repro.core.report` renders the paper-style
comparison tables from their results.
"""

from .framework import MapAndConquer
from .report import format_table, search_summary

__all__ = [
    "MapAndConquer",
    "format_table",
    "search_summary",
]
