"""Hardware performance characterisation (Sect. III-B and V-E).

This subpackage provides everything between "a layer slice mapped to a CU at
a DVFS point" and "how long it takes and how much energy it burns":

* :mod:`repro.perf.layer_cost` -- the analytical (roofline + overhead) cost
  oracle playing the role of the paper's TensorRT measurement campaign,
* :mod:`repro.perf.gbdt` -- from-scratch gradient-boosted regression trees,
  the reproduction's stand-in for XGBoost,
* :mod:`repro.perf.dataset` -- benchmark-dataset generation for surrogate
  training,
* :mod:`repro.perf.predictor` -- the latency/energy surrogate predictor used
  inside the search loop,
* :mod:`repro.perf.schedule` -- the concurrent execution model of Eq. 8-9
  (inter-stage dependencies, transfer overheads, stalls) on
  ``(candidates, stages, layers)`` arrays,
* :mod:`repro.perf.evaluator` -- per-stage and overall latency/energy
  characterisation (Eq. 11-14).
"""

from .layer_cost import AnalyticalCostModel, CostModel, LayerWorkload, NoisyCostModel
from .gbdt import GradientBoostedTrees
from .dataset import BenchmarkDataset, generate_benchmark_dataset
from .predictor import SurrogateCostModel, train_surrogate
from .evaluator import HardwareProfile, MappingEvaluator, StagePerformance

__all__ = [
    "LayerWorkload",
    "CostModel",
    "AnalyticalCostModel",
    "NoisyCostModel",
    "GradientBoostedTrees",
    "BenchmarkDataset",
    "generate_benchmark_dataset",
    "SurrogateCostModel",
    "train_surrogate",
    "StagePerformance",
    "HardwareProfile",
    "MappingEvaluator",
]
