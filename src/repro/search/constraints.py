"""Hard search constraints and the constraint filter (Eq. 15).

The optimisation of Eq. 15 is subject to a latency target ``T_TRG``, an
energy target ``E_TRG`` and a shared-memory bound on the intermediate
features that must remain resident (``size(F, I) < M``).  The reproduction
adds the feature-map-reuse caps explored in Fig. 6 (75 % / 50 %) and an
optional bound on the accuracy drop, both of which the paper applies when
analysing Pareto models.  The evolutionary loop discards violating
candidates, exactly as the "Const. Filter" box of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..soc.platform import Platform
from ..utils import check_fraction
from .evaluation import EvaluatedConfig

__all__ = ["SearchConstraints"]


@dataclass(frozen=True)
class SearchConstraints:
    """Hard constraints a candidate configuration must satisfy.

    All bounds are optional; ``None`` disables the corresponding check.

    Parameters
    ----------
    latency_target_ms:
        ``T_TRG`` -- upper bound on the *worst-case* latency (every stage
        instantiated), matching Eq. 15 which constrains ``T_Pi``.
    energy_target_mj:
        ``E_TRG`` -- upper bound on the worst-case energy.
    max_reuse_fraction:
        Cap on the fraction of forwardable feature maps that are reused
        (the "75 %" / "50 %" scenarios of Fig. 6 and Table II).
    max_accuracy_drop:
        Upper bound on ``Acc_base - Acc_SM`` (the paper highlights
        configurations within a 0.5 % drop).
    feature_budget_bytes:
        Shared-memory budget for resident features; ``None`` defers to the
        platform's budget when one is supplied to :meth:`violations`.
    """

    latency_target_ms: Optional[float] = None
    energy_target_mj: Optional[float] = None
    max_reuse_fraction: Optional[float] = None
    max_accuracy_drop: Optional[float] = None
    feature_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        # Each check is written so that a NaN fails it too: a NaN bound
        # would never be violated.
        if self.latency_target_ms is not None and not self.latency_target_ms > 0:
            raise ValueError("latency_target_ms must be positive")
        if self.energy_target_mj is not None and not self.energy_target_mj > 0:
            raise ValueError("energy_target_mj must be positive")
        if self.max_reuse_fraction is not None:
            check_fraction(self.max_reuse_fraction, "max_reuse_fraction")
        if self.max_accuracy_drop is not None and not self.max_accuracy_drop >= 0:
            raise ValueError("max_accuracy_drop must be >= 0")
        if self.feature_budget_bytes is not None and not self.feature_budget_bytes > 0:
            raise ValueError("feature_budget_bytes must be positive")

    def violations(
        self, evaluated: EvaluatedConfig, platform: Optional[Platform] = None
    ) -> List[str]:
        """Human-readable list of violated constraints (empty when feasible)."""
        problems: List[str] = []
        if (
            self.latency_target_ms is not None
            and evaluated.worst_case_latency_ms >= self.latency_target_ms
        ):
            problems.append(
                f"latency {evaluated.worst_case_latency_ms:.2f} ms >= target "
                f"{self.latency_target_ms:.2f} ms"
            )
        if (
            self.energy_target_mj is not None
            and evaluated.worst_case_energy_mj >= self.energy_target_mj
        ):
            problems.append(
                f"energy {evaluated.worst_case_energy_mj:.2f} mJ >= target "
                f"{self.energy_target_mj:.2f} mJ"
            )
        if (
            self.max_reuse_fraction is not None
            and evaluated.reuse_fraction > self.max_reuse_fraction + 1e-9
        ):
            problems.append(
                f"reuse {evaluated.reuse_fraction:.2%} > cap {self.max_reuse_fraction:.2%}"
            )
        if (
            self.max_accuracy_drop is not None
            and evaluated.accuracy_drop > self.max_accuracy_drop + 1e-9
        ):
            problems.append(
                f"accuracy drop {evaluated.accuracy_drop:.3f} > cap {self.max_accuracy_drop:.3f}"
            )
        budget = self.feature_budget_bytes
        if budget is None and platform is not None:
            budget = platform.shared_memory.feature_budget_bytes
        if budget is not None and evaluated.stored_feature_bytes > budget:
            problems.append(
                f"stored features {evaluated.stored_feature_bytes} B exceed budget {budget} B"
            )
        return problems

    def is_feasible(
        self, evaluated: EvaluatedConfig, platform: Optional[Platform] = None
    ) -> bool:
        """Whether ``evaluated`` satisfies every configured constraint."""
        return not self.violations(evaluated, platform=platform)
