"""Float totals that do not depend on the interpreter's built-in ``sum``.

Python 3.12 made the built-in ``sum`` of floats compensated (Neumaier), so a
library that totals floats with it gives different last bits on 3.12 than on
3.9-3.11.  The library adds every float total left to right from zero
(``repro.utils._left_sum``, or a row's ``cumsum`` on arrays), which is what
the built-in ``sum`` did before 3.12.

``neumaier_sum`` below is the 3.12 built-in written in Python.  On 3.12 and
later it is first checked against the real one.  Installed as the built-in on
any interpreter, it must change none of the bytes a search, a serving replay
or a fleet's metrics produce.
"""

from __future__ import annotations

import builtins
import math
import pickle
import sys

import numpy as np
import pytest

from repro.core.framework import MapAndConquer
from repro.nn.models import resnet20, visformer
from repro.search.objectives import paper_objective
from repro.serving import (
    Deployment,
    FleetInstance,
    PoissonArrivals,
    compute_fleet_metrics,
    compute_metrics,
    simulate_deployment,
    simulate_fleet,
)
from repro.soc.platform import jetson_agx_xavier
from repro.utils import _left_sum
from test_variation_stream import nine_unit_board

NATIVE_SUM = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """The built-in ``sum`` of Python 3.12 (``Python/bltinmodule.c``), in Python.

    Exact ints add exactly; once the total is an exact float, exact float
    items add with Neumaier's compensation and ints that fit a C long add
    plainly; the compensation joins the total when the floats end.
    Anything else adds through ``+``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) is not int and type(item) is not bool:
                break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
            elif isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def float_lists(count, seed):
    """Lists of floats whose compensated and plain totals often differ."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(0, 13))
        scales = 10.0 ** rng.integers(-3, 4, size=size)
        yield (rng.standard_normal(size) * scales).tolist()


class TestTheEmulation:
    @pytest.mark.skipif(sys.version_info < (3, 12), reason="needs the compensated built-in")
    def test_matches_the_builtin(self):
        for values in float_lists(4_000, seed=0):
            for start in (0, 0.0, -0.0):
                assert repr(neumaier_sum(values, start)) == repr(NATIVE_SUM(values, start))

    def test_compensates_where_a_plain_total_does_not(self):
        assert neumaier_sum([1e100, 1.0, -1e100]) == 1.0
        assert _left_sum([1e100, 1.0, -1e100]) == 0.0
        differ = sum(
            neumaier_sum(values) != _left_sum(values) for values in float_lists(500, seed=1)
        )
        assert differ > 0

    def test_left_sum_is_the_pre_312_builtin(self):
        for values in float_lists(500, seed=2):
            total = 0
            for value in values:
                total = total + value
            assert repr(_left_sum(values)) == repr(total)
            assert repr(_left_sum(iter(values))) == repr(total)
        assert _left_sum([]) == 0 and type(_left_sum([])) is int
        assert repr(_left_sum([-0.0])) == "0.0"
        assert type(_left_sum([np.float64(0.5), 0.25])) is np.float64


def totals(item):
    """What the library's float totals read of one search result, as reprs."""
    profile, statistics = item.profile, item.inference.exit_statistics
    deployment = Deployment.from_evaluated(item)
    stages = range(profile.num_stages)
    return repr(
        (
            paper_objective(item),
            profile.total_energy_mj,
            [profile.cumulative_energy_mj(stage) for stage in stages],
            [stage.busy_ms for stage in profile.stages],
            statistics.expected_stages(),
            statistics.early_exit_fraction,
            [deployment.cumulative_energy_mj(stage) for stage in stages],
            deployment.expected_energy_per_request_mj,
        )
    )


def outputs():
    """The bytes of searches, their totals, a replay of a front and a fleet serving it."""
    long = MapAndConquer(resnet20(), nine_unit_board(), seed=0).search(
        generations=3, population_size=10, seed=0
    )
    platform = jetson_agx_xavier()
    framework = MapAndConquer(visformer(), platform, seed=0)
    result = framework.search(generations=10, population_size=24, seed=0)
    search = [pickle.dumps(item) for item in (*result.history, *result.pareto, *long.history)]
    search += [totals(item) for item in (*result.history, *long.history)]
    deployments = [
        Deployment.from_evaluated(item, name=f"front-{index}")
        for index, item in enumerate(result.pareto[:6])
    ]
    replay = simulate_deployment(
        deployments[0], platform, PoissonArrivals(80.0), duration_ms=1500.0, seed=3
    )
    fleet = simulate_fleet(
        [
            FleetInstance(name=deployment.name, platform=platform, deployment=deployment)
            for deployment in deployments
        ],
        PoissonArrivals(150.0),
        duration_ms=1500.0,
        router="energy-aware",
        seed=4,
    )
    return search, repr(compute_metrics(replay)), repr(compute_fleet_metrics(fleet)), result


class TestOutputsUnderTheCompensatedSum:
    def test_search_replay_and_fleet_are_byte_identical(self, monkeypatch):
        native_search, native_replay, native_fleet, native = outputs()
        # The emulation changes some stage-energy totals of this search, so
        # a library that totalled them with the built-in would read
        # different bytes under it.
        assert any(
            neumaier_sum(item.inference.stage_energies_mj)
            != _left_sum(item.inference.stage_energies_mj)
            for item in native.history
        )
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        search, replay, fleet, _ = outputs()
        assert search == native_search
        assert replay == native_replay
        assert fleet == native_fleet
