"""Feasible sets, projections, the basic gradient-step primitives, and a bracketing root-finder."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a config value is structurally invalid (bad shape, bad range)."""


class MeasurementError(RuntimeError):
    """Raised when a function query comes back unusable (NaN/inf)."""


def vector_norm(vector: np.ndarray) -> float:
    """Euclidean norm of a contiguous float vector, as np.linalg.norm gives it.

    np.linalg.norm computes sqrt(v.dot(v)) for a 1-D float vector, so this is
    the same value to the bit without the wrapper's argument handling. The
    vector must be contiguous: norm copies a strided one first, and a strided
    dot product may sum in another order. tests/test_core.py pins the match.
    """
    return math.sqrt(vector.dot(vector))


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
        dist = vector_norm(offset)
        if dist <= self.radius:
            return point
        if self.radius == 0.0:
            return self.center.copy()
        return self.center + offset * (self.radius / dist)

    def contains(self, point: np.ndarray, tol: float = 0.0) -> bool:
        return vector_norm(point - self.center) <= self.radius + tol


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
        if (lower > upper).any():
            raise ConfigurationError("box lower bound exceeds upper bound")

    def project(self, point: np.ndarray) -> np.ndarray:
        return np.clip(point, self.lower, self.upper)

    def contains(self, point: np.ndarray, tol: float = 0.0) -> bool:
        return bool((point >= self.lower - tol).all() and (point <= self.upper + tol).all())


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


# brentq's defaults in SciPy: relative tolerance 4 * eps and an iteration budget of 100
BRENT_RTOL = 4 * sys.float_info.epsilon
BRENT_MAX_ITERATIONS = 100


def brent_root(f, lo: float, hi: float, xtol: float = 2e-12) -> float:
    """A root of f in [lo, hi] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of the loop in SciPy's C routine Zeros/brentq.c,
    with its default tolerances, so it returns the root SciPy's brentq
    returns, to the bit; tests/test_core.py checks that. Inside the loop the
    root lies between xcur and xblk, and xpre is the previous estimate.
    Raises ValueError on a NaN value of f or when f(lo) and f(hi) share a
    sign, and RuntimeError when BRENT_MAX_ITERATIONS steps do not converge.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(lo), float(hi)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f(lo) and f(hi) must have different signs, got {fpre} and {fcur}")
    for _ in range(BRENT_MAX_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2 * delta
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brent_root: no convergence after {BRENT_MAX_ITERATIONS} iterations, at x={xcur}")
