"""Span tracing of the library's layers, attached from outside the library.

The benchmark does not edit ``src/``: :func:`instrument` replaces each public
entry point listed in :data:`TARGETS` with a wrapper that records one span
(name, start, end, parent) per call, and puts the originals back afterwards.
Spans stay in memory; :meth:`Tracer.write` dumps them once, at exit.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so ``search.ConfigEvaluator.evaluate`` excludes the
``nn``/``perf``/``dynamics`` calls it makes and ``serving.TrafficSimulator.run``
excludes ``decide``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: (span name, module, attribute path) of every traced entry point.  Several
#: attributes may share one span name (the strategies' ``ask``, the two
#: checkpoint ``load`` flavours); free functions are re-bound in every
#: ``repro`` module that imported them by name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.MapAndConquer.search", "repro.core.framework", "MapAndConquer.search"),
    ("engine.SearchEngine.run", "repro.engine.engine", "SearchEngine.run"),
    ("engine.SerialBackend.evaluate", "repro.engine.backends", "SerialBackend.evaluate"),
    ("engine.Strategy.ask", "repro.engine.strategies", "EvolutionaryStrategy.ask"),
    ("engine.Strategy.ask", "repro.engine.nsga", "NSGA2Strategy.ask"),
    ("engine.Strategy.tell", "repro.engine.strategies", "EvolutionaryStrategy.tell"),
    ("engine.Strategy.tell", "repro.engine.nsga", "NSGA2Strategy.tell"),
    ("search.ConfigEvaluator.evaluate", "repro.search.evaluation", "ConfigEvaluator.evaluate"),
    ("nn.build_dynamic_network", "repro.nn.multiexit", "build_dynamic_network"),
    ("perf.MappingEvaluator.profile", "repro.perf.evaluator", "MappingEvaluator.profile"),
    (
        "dynamics.simulate_dynamic_inference",
        "repro.dynamics.inference",
        "simulate_dynamic_inference",
    ),
    ("search.pareto_front", "repro.search.pareto", "pareto_front"),
    ("search.dominates", "repro.search.pareto", "dominates"),
    ("search.hypervolume", "repro.search.pareto", "hypervolume"),
    ("serving.simulate_deployment", "repro.serving.bridge", "simulate_deployment"),
    ("serving.TrafficSimulator.run", "repro.serving.simulator", "TrafficSimulator.run"),
    (
        "dynamics.ThresholdExitController.decide",
        "repro.dynamics.controller",
        "ThresholdExitController.decide",
    ),
    ("serving.ServingPolicy.select", "repro.serving.policies", "AdaptiveSwitchPolicy.select"),
    ("serving.ServingPolicy.select", "repro.serving.policies", "DvfsGovernorPolicy.select"),
    ("serving.compute_metrics", "repro.serving.metrics", "compute_metrics"),
    (
        "serving.ServingResultCache.lookup",
        "repro.serving.result_cache",
        "ServingResultCache.lookup",
    ),
    (
        "campaign.run_serving_campaign",
        "repro.campaign.serving_runner",
        "run_serving_campaign",
    ),
    ("campaign.search_cell", "repro.campaign.runner", "_run_cell"),
    ("campaign.serving_cell", "repro.campaign.serving_runner", "_run_serving_cell"),
    ("campaign.CampaignCheckpoint.load", "repro.campaign.checkpoint", "CampaignCheckpoint.load"),
    (
        "campaign.CampaignCheckpoint.load",
        "repro.campaign.checkpoint",
        "CampaignCheckpoint.load_serving",
    ),
    (
        "campaign.CampaignCheckpoint.store",
        "repro.campaign.checkpoint",
        "CampaignCheckpoint.store",
    ),
    (
        "campaign.CampaignCheckpoint.store",
        "repro.campaign.checkpoint",
        "CampaignCheckpoint.store_serving",
    ),
    (
        "core.report.traffic_ranking_summary",
        "repro.core.report",
        "traffic_ranking_summary",
    ),
)

#: The benchmark's own span around each timed call: its self time is the
#: part of the call no traced layer covers.
ROOT_SPAN = "perfbench.call"

#: Counts taken at the call boundary: span name -> (counter name, function of
#: the call's arguments and result).  A non-``None`` cache lookup is a
#: simulation avoided; a simulator run serves every request it is given.
COUNTED: Dict[str, Tuple[str, Callable]] = {
    "serving.ServingResultCache.lookup": (
        "serving.ServingResultCache.avoided",
        lambda args, kwargs, result: int(result is not None),
    ),
    "serving.TrafficSimulator.run": (
        "serving.TrafficSimulator.run.requests",
        lambda args, kwargs, result: len(args[1] if len(args) > 1 else kwargs["requests"]),
    ),
}

SPAN_NAMES: Tuple[str, ...] = (ROOT_SPAN,) + tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """Records nested spans and named counters in memory.

    Each span is ``[name, start_ns, end_ns, parent_index]``; the parent is
    the span open on the same (single) thread when it started, ``-1`` for a
    root.  ``clock`` is injectable so the self-time arithmetic can be tested
    with exact numbers.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters
        counter, count = COUNTED.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                counters[counter] += count(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Dump every span as one gzipped JSON line ``[name, start, end, parent]``."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def covered_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_stats(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name into ``calls``, ``total_ns`` and ``self_ns``.

    ``self_ns`` subtracts from each span the union of its children's
    intervals, so overlapping children are not subtracted twice.
    """
    children: Dict[int, list] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    stats: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - covered_ns(children.get(index, ()))
    return stats


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def instrument(tracer: Tracer, targets=TARGETS) -> Callable[[], None]:
    """Patch every target with a span wrapper; returns the undo function.

    A method is replaced on the class that defines it.  A free function is
    replaced in its defining module *and* in every loaded ``repro`` module
    that bound it by name, so ``from ..search.pareto import pareto_front``
    call sites are traced too.
    """
    # Resolve everything first, so a missing target patches nothing.
    patches: List[Tuple[object, str, object, Callable]] = []
    for name, module_name, path in targets:
        owner, attribute = _resolve(module_name, path)
        is_class = isinstance(owner, type)
        original = owner.__dict__[attribute] if is_class else getattr(owner, attribute)
        wrapped = tracer.wrap(name, original)
        holders = [owner] if is_class else [
            module
            for key, module in list(sys.modules.items())
            if (key == "repro" or key.startswith("repro."))
            and getattr(module, attribute, None) is original
        ]
        patches.extend((holder, attribute, original, wrapped) for holder in holders)
    for holder, attribute, _, wrapped in patches:
        setattr(holder, attribute, wrapped)

    def undo() -> None:
        for holder, attribute, original, _ in reversed(patches):
            setattr(holder, attribute, original)

    return undo
