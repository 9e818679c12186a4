"""Feasible sets, projections, and the basic gradient-step primitives."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a config value is structurally invalid (bad shape, bad range)."""


class MeasurementError(RuntimeError):
    """Raised when a function query comes back unusable (NaN/inf)."""


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        if center.ndim != 1:
            raise ConfigurationError("ball center must be a vector")
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ConfigurationError(f"ball radius must be finite and >= 0, got {self.radius}")

    def project(self, point: np.ndarray) -> np.ndarray:
        offset = point - self.center
        dist = float(np.linalg.norm(offset))
        if dist <= self.radius:
            return point
        if self.radius == 0.0:
            return self.center.copy()
        return self.center + offset * (self.radius / dist)

    def contains(self, point: np.ndarray, tol: float = 0.0) -> bool:
        return float(np.linalg.norm(point - self.center)) <= self.radius + tol


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lower <= x <= upper}, elementwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ConfigurationError("box bounds must be vectors of equal length")
        if np.any(lower > upper):
            raise ConfigurationError("box lower bound exceeds upper bound")

    def project(self, point: np.ndarray) -> np.ndarray:
        return np.clip(point, self.lower, self.upper)

    def contains(self, point: np.ndarray, tol: float = 0.0) -> bool:
        return bool(np.all(point >= self.lower - tol) and np.all(point <= self.upper + tol))


# Any feasible region used by the optimizers: needs project/contains.
ConstraintSet = Ball | Box


@dataclass
class GradientEstimate:
    """A gradient estimate plus whether the safeguard zeroed it out."""

    vector: np.ndarray
    clipped: bool = False

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float)


@dataclass(frozen=True)
class SmoothnessProfile:
    """Known bounds on the objective: gradient norm (lipschitz) and Hessian norm (smoothness)."""

    lipschitz: float
    smoothness: float

    def __post_init__(self):
        for key in ("lipschitz", "smoothness"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigurationError(
                    f"{key}: must be finite and >= 0, got {getattr(self, key)}"
                )


def gd_update(x: np.ndarray, gradient: np.ndarray, eta: float, cset: ConstraintSet) -> np.ndarray:
    """One projected gradient step: project(x - eta * gradient)."""
    return cset.project(x - eta * gradient)
