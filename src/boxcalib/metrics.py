"""Calibration error metrics.

Rotation error is the geodesic angle between the true and estimated
rotations, reported in degrees. Translation error is the plain Euclidean
distance between the true and estimated translation vectors, in meters.

A trial is counted as a success at threshold lambda when its solver
produced a transform and its translation error is strictly below lambda.
The success rate divides by all trials, solver failures included; the
mean errors average over the successful subset only, so they describe
accuracy given success rather than overall robustness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class EmptyTrialSet(ValueError):
    """summarize() needs at least one trial."""


def rre(rotation_true: np.ndarray, rotation_est: np.ndarray) -> float:
    """Geodesic rotation error in degrees: arccos((trace(Rt^T Re) - 1) / 2).

    Evaluated as atan2(|skew part|, (trace - 1) / 2), which is the same
    angle but keeps precision near 0 deg where arccos alone loses half the
    significant digits to rounding of the trace.
    """
    M = np.asarray(rotation_true, dtype=float).T @ np.asarray(rotation_est, dtype=float)
    cos_term = np.clip((np.trace(M) - 1.0) / 2.0, -1.0, 1.0)
    sin_term = 0.5 * math.sqrt(
        (M[2, 1] - M[1, 2]) ** 2 + (M[0, 2] - M[2, 0]) ** 2 + (M[1, 0] - M[0, 1]) ** 2
    )
    return math.degrees(math.atan2(sin_term, cos_term))


def rte(translation_true: np.ndarray, translation_est: np.ndarray) -> float:
    """Euclidean distance between translation vectors, meters."""
    return float(
        np.linalg.norm(np.asarray(translation_true, float) - np.asarray(translation_est, float))
    )


@dataclass(frozen=True)
class TrialError:
    rre_deg: float
    rte_m: float
    solver_succeeded: bool = True

    def __post_init__(self):
        if self.solver_succeeded:
            if not (math.isfinite(self.rre_deg) and math.isfinite(self.rte_m)):
                raise ValueError("errors of a succeeded trial must be finite")
            if self.rre_deg < 0 or self.rte_m < 0:
                raise ValueError("errors must be nonnegative")


@dataclass(frozen=True)
class MetricSummary:
    threshold_m: float
    success_rate: float
    mrre_deg: float | None
    mrte_m: float | None
    n_total: int
    n_valid: int


def summarize(trials: Iterable[TrialError] | Sequence[TrialError], threshold_m: float) -> MetricSummary:
    """Success rate and mean errors at a translation threshold (strict <)."""
    trials = tuple(trials)
    if not trials:
        raise EmptyTrialSet("no trials to summarize")
    if not (0.0 < threshold_m < math.inf):
        raise ValueError(f"threshold must be positive and finite, got {threshold_m}")
    valid = [t for t in trials if t.solver_succeeded and t.rte_m < threshold_m]
    if valid:
        mrre = float(np.mean([t.rre_deg for t in valid]))
        mrte = float(np.mean([t.rte_m for t in valid]))
    else:
        mrre = mrte = None
    return MetricSummary(
        threshold_m=float(threshold_m),
        success_rate=len(valid) / len(trials),
        mrre_deg=mrre,
        mrte_m=mrte,
        n_total=len(trials),
        n_valid=len(valid),
    )
