"""Where a generation's uncached configurations are evaluated.

The search engine hands every batch the cache could not answer to a
:class:`SerialBackend`, which scores it in-process through the evaluator's
cost model, in batch order.  Per-candidate work (a few milliseconds on the
analytical oracle) is too small to amortise a worker pool, so parallelism
lives one level up: campaign runners fan whole cells — each one search —
over ``cell_workers`` processes (:func:`repro.campaign.runner.run_cell_grid`).
"""

from __future__ import annotations

from typing import List, Sequence

from ..search.evaluation import ConfigEvaluator, EvaluatedConfig
from ..search.space import MappingConfig

__all__ = ["SerialBackend"]


class SerialBackend:
    """In-process evaluation, identical to the seed's behaviour."""

    def __init__(self, evaluator: ConfigEvaluator) -> None:
        self.evaluator = evaluator

    def evaluate(self, configs: Sequence[MappingConfig]) -> List[EvaluatedConfig]:
        """Evaluate ``configs`` and return results in the same order."""
        return self.evaluator.evaluate_many(configs)
