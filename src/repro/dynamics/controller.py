"""Runtime exit controllers: relaxing the ideal-input-mapping assumption.

The paper's system model assumes *ideal input mapping*: the number of stages
a sample needs is known a priori (Sect. III-B), and it points to runtime
controllers such as those in HADAS [17] for realising the decision in
practice.  This module provides that missing runtime piece as an extension:

* a per-sample **difficulty model** -- each validation sample draws a latent
  difficulty, and a stage classifies it correctly when the stage's accuracy
  budget covers that difficulty (this reproduces exactly the ``N_i`` counts
  of the ideal analysis in expectation);
* a **confidence-threshold controller** -- the deployed policy does not know
  the ground truth, it only sees the exit's confidence.  The controller exits
  at the first stage whose confidence clears a threshold, which introduces
  the two realistic error modes: *premature exits* (confidently wrong at an
  early stage) and *unnecessary escalations* (correct but under-confident).

Monte-Carlo simulation over a synthetic sample population yields accuracy,
expected stages, latency and energy under the non-ideal policy, so the gap
between the paper's idealised numbers and a deployable controller can be
quantified (see ``examples``/tests and EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..perf.evaluator import HardwareProfile
from ..utils import _left_sum, as_rng, check_fraction, check_stage_accuracies

__all__ = ["ControllerResult", "ExitDecision", "ThresholdExitController"]


@dataclass(frozen=True)
class ExitDecision:
    """Outcome of the controller for one individual request.

    ``stage`` is the terminating stage index, ``correct`` whether the exit's
    prediction is right, ``premature`` whether the controller exited
    confidently-wrong before a stage that could have classified the sample,
    and ``escalated`` whether a correct-but-under-confident stage was passed
    over (paying for extra stages).
    """

    stage: int
    correct: bool
    premature: bool
    escalated: bool


@dataclass(frozen=True)
class ControllerResult:
    """Monte-Carlo outcome of dynamic inference under a runtime controller."""

    accuracy: float
    exit_fractions: Tuple[float, ...]
    expected_stages: float
    expected_latency_ms: float
    expected_energy_mj: float
    premature_exit_fraction: float
    escalation_fraction: float
    num_samples: int

    def __post_init__(self) -> None:
        if abs(_left_sum(self.exit_fractions) - 1.0) > 1e-6:
            raise ConfigurationError("exit fractions must sum to one")


class ThresholdExitController:
    """Confidence-threshold early-exit policy.

    Parameters
    ----------
    threshold:
        Confidence required to terminate at a non-final stage.  Higher values
        push more samples to later stages (safer but slower / hungrier).
    confidence_noise:
        Standard deviation of the controller's confidence estimate around the
        stage's true correctness probability; models the gap between softmax
        confidence and correctness.
    seed:
        Seed of the Monte-Carlo sample population.
    """

    def __init__(
        self,
        threshold: float = 0.7,
        confidence_noise: float = 0.1,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_fraction(threshold, "threshold")
        # Written so that a NaN fails it too.
        if not 0 <= confidence_noise < math.inf:
            raise ConfigurationError(
                f"confidence_noise must be a finite number >= 0, got {confidence_noise}"
            )
        self.threshold = float(threshold)
        self.confidence_noise = float(confidence_noise)
        self._rng = as_rng(seed)

    # -- shared model pieces -----------------------------------------------------
    def _confidence(
        self, correct: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Noisy confidence estimates for a boolean correctness vector.

        The single model both :meth:`simulate` and :meth:`decide` observe:
        the true correctness probability, blurred by Gaussian noise, with
        wrong predictions biased half a unit down, clipped to ``[0, 1]``.
        """
        return np.clip(
            correct.astype(float)
            + rng.normal(0.0, self.confidence_noise, size=correct.size)
            - 0.5 * (~correct),
            0.0,
            1.0,
        )

    def decide(
        self,
        difficulty: float,
        stage_accuracies: Sequence[float],
        rng: "np.random.Generator | None" = None,
    ) -> ExitDecision:
        """Decide the terminating stage for one request of known difficulty.

        This is the per-request counterpart of :meth:`simulate`: the request
        is classifiable by stage ``i`` iff ``difficulty <= stage_accuracies[i]``,
        and the controller exits at the first stage whose (noisy) confidence
        clears the threshold.  Noise-free (``confidence_noise=0``) and with a
        positive threshold it reduces to the ideal exit of
        :meth:`repro.serving.policies.Deployment.exit_stage`, the rule the
        serving simulator replays.

        Parameters
        ----------
        difficulty:
            Latent difficulty of the request in ``[0, 1]``.
        stage_accuracies:
            Non-decreasing per-stage exit accuracies.
        rng:
            Random generator for the confidence noise; ``None`` uses the
            controller's own stream.
        """
        check_fraction(difficulty, "difficulty")
        accuracies = check_stage_accuracies(stage_accuracies)
        generator = self._rng if rng is None else as_rng(rng)

        escalated = False
        last_stage = len(accuracies) - 1
        for stage_index, stage_accuracy in enumerate(accuracies):
            correct_here = bool(difficulty <= stage_accuracy)
            if stage_index == last_stage:
                return ExitDecision(
                    stage=stage_index,
                    correct=correct_here,
                    premature=False,
                    escalated=escalated,
                )
            confidence = float(
                self._confidence(np.array([correct_here]), generator)[0]
            )
            if confidence >= self.threshold:
                return ExitDecision(
                    stage=stage_index,
                    correct=correct_here,
                    premature=not correct_here,
                    escalated=escalated,
                )
            if correct_here:
                escalated = True
        raise AssertionError("unreachable: the final stage always exits")

    def simulate(
        self,
        stage_accuracies: Sequence[float],
        profile: HardwareProfile,
        num_samples: int = 5000,
    ) -> ControllerResult:
        """Simulate the controller over a synthetic validation population.

        Parameters
        ----------
        stage_accuracies:
            Non-decreasing per-stage exit accuracies (from
            :class:`~repro.dynamics.accuracy.AccuracyModel`).
        profile:
            Hardware characterisation of the same dynamic network, providing
            cumulative latency/energy per terminating stage.
        num_samples:
            Monte-Carlo population size.
        """
        accuracies = check_stage_accuracies(stage_accuracies)
        if profile.num_stages != len(accuracies):
            raise ConfigurationError(
                f"profile has {profile.num_stages} stages but {len(accuracies)} accuracies given"
            )
        if num_samples < 1:
            raise ConfigurationError("num_samples must be >= 1")

        num_stages = len(accuracies)
        # Latent difficulty per sample: a sample is classifiable by stage i
        # iff difficulty <= accuracies[i].  Uniform difficulties reproduce the
        # ideal N_i counts in expectation.
        difficulty = self._rng.random(num_samples)

        exits = np.full(num_samples, num_stages - 1, dtype=int)
        correct = np.zeros(num_samples, dtype=bool)
        premature = np.zeros(num_samples, dtype=bool)
        escalated = np.zeros(num_samples, dtype=bool)

        still_running = np.ones(num_samples, dtype=bool)
        for stage_index, stage_accuracy in enumerate(accuracies):
            is_last = stage_index == num_stages - 1
            active = np.where(still_running)[0]
            if active.size == 0:
                break
            correct_here = difficulty[active] <= stage_accuracy
            confidence = self._confidence(correct_here, self._rng)
            exit_now = confidence >= self.threshold if not is_last else np.ones_like(correct_here)
            exiting = active[exit_now]
            exits[exiting] = stage_index
            correct[exiting] = correct_here[exit_now]
            if not is_last:
                # Confidently wrong: the ideal mapping would have escalated.
                premature[exiting] |= ~correct_here[exit_now]
                # Correct but under-confident: pays for extra stages.
                staying = active[~exit_now]
                escalated[staying] |= difficulty[staying] <= stage_accuracy
            still_running[exiting] = False

        exit_fractions = np.bincount(exits, minlength=num_stages) / num_samples
        expected_latency = float(
            _left_sum(
                fraction * profile.cumulative_latency_ms(stage)
                for stage, fraction in enumerate(exit_fractions)
            )
        )
        expected_energy = float(
            _left_sum(
                fraction * profile.cumulative_energy_mj(stage)
                for stage, fraction in enumerate(exit_fractions)
            )
        )
        return ControllerResult(
            accuracy=float(correct.mean()),
            exit_fractions=tuple(float(f) for f in exit_fractions),
            expected_stages=float((exits + 1).mean()),
            expected_latency_ms=expected_latency,
            expected_energy_mj=expected_energy,
            premature_exit_fraction=float(premature.mean()),
            escalation_fraction=float(escalated.mean()),
            num_samples=int(num_samples),
        )
