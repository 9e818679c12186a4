"""Measurement-matrix draws and the two finite-difference measurement schemes.

Both schemes probe an unknown function around a base point and return a vector
y that approximates (matrix @ gradient). The single-row scheme perturbs along
one matrix row per query; the combined scheme perturbs along random signed
combinations of all rows and averages several draws, so its per-round query
count is decoupled from the number of rows.
"""

from __future__ import annotations

import logging
import math
from typing import Callable

import numpy as np

from .core import MeasurementError

log = logging.getLogger(__name__)

_MAX_REDRAWS = 64


class ValueOracle:
    """Wraps a batch evaluator and counts the points it is queried at.

    The evaluator takes a (q, d) block and returns the values of its first
    r <= q rows; it may stop early only after a non-finite value.
    """

    def __init__(self, evaluate: Callable[[np.ndarray], np.ndarray]):
        self._evaluate = evaluate
        self.queries = 0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """The function's value at each row of a (q, d) batch.

        Every point up to and including the first non-finite value counts as
        one query, and that value raises MeasurementError; otherwise all q
        points count.
        """
        values = np.asarray(self._evaluate(points), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            # argmin of a boolean array: the first False
            bad = int(finite.argmin())
            self.queries += bad + 1
            raise MeasurementError(f"oracle returned a non-finite value at batch row {bad}")
        # a raise, not an assert, so that python -O keeps the check
        if values.shape != (points.shape[0],):
            raise RuntimeError(
                f"evaluator returned {values.shape} values for {points.shape[0]} points"
                " without a non-finite value"
            )
        self.queries += points.shape[0]
        return values


def pointwise(fn: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Batch evaluator from a per-point function: rows in order, stopping after the first non-finite value."""

    def evaluate(points: np.ndarray) -> np.ndarray:
        values = []
        for point in points:
            values.append(fn(point))
            if not math.isfinite(values[-1]):
                break
        return np.array(values, dtype=float)

    return evaluate


def draw_matrix(m: int, d: int, distribution: str, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh (m, d) measurement matrix.

    gaussian and rademacher rows have iid entries. Rows that come out
    identically zero are redrawn so the perturbation directions below are
    always well defined.
    """
    entries = _draw_rows(m, d, distribution, rng)
    for _ in range(_MAX_REDRAWS):
        # a row's norm is zero exactly when its sum of squares is: no square root needed
        bad = (entries * entries).sum(axis=1) == 0.0
        if not bad.any():
            break
        log.debug("redrawing %d zero measurement rows", int(bad.sum()))
        entries[bad] = _draw_rows(int(bad.sum()), d, distribution, rng)
    return entries


def _draw_rows(m: int, d: int, distribution: str, rng: np.random.Generator) -> np.ndarray:
    if distribution == "gaussian":
        return rng.standard_normal((m, d))
    return rng.integers(0, 2, size=(m, d)).astype(float) * 2.0 - 1.0


def forward_differences(
    oracle: ValueOracle, x: np.ndarray, directions: np.ndarray, steps: np.ndarray
) -> np.ndarray:
    """f(x + steps[i] * directions[i]) - f(x) for every row i, from one oracle batch.

    The batch is x followed by the probe points, so it costs len(steps) + 1
    queries.
    """
    values = oracle(np.concatenate([x[None], x + steps[:, None] * directions]))
    return values[1:] - values[0]


def measure_single_row(
    oracle: ValueOracle, x: np.ndarray, matrix: np.ndarray, delta: float
) -> np.ndarray:
    """One forward difference per matrix row; m+1 queries total.

    Row i probes x + (delta/||a_i||^2) a_i, so for twice-differentiable f each
    entry satisfies |y_i - <grad f(x), a_i>| <= (L/2) delta with L the Hessian
    norm bound.
    """
    norms_sq = (matrix**2).sum(axis=1)
    return forward_differences(oracle, x, matrix, delta / norms_sq) * norms_sq / delta


def measure_combined(
    oracle: ValueOracle,
    x: np.ndarray,
    matrix: np.ndarray,
    delta: float,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Average of k signed-combination probes; k+1 queries total.

    Each draw perturbs along A^T D for a Rademacher sign vector D, giving a
    one-query estimate of every entry of (A grad f) at once; averaging over k
    draws shrinks the cross-row interference, which has zero mean.
    """
    signs = _draw_rows(k, matrix.shape[0], "rademacher", rng)
    for _ in range(_MAX_REDRAWS):
        # one matrix-vector product and one dot product per draw, stacked:
        # signs @ A or a summed square would round differently
        combos = (matrix.T @ signs[:, :, None])[:, :, 0]
        norms_sq = (combos[:, None, :] @ combos[:, :, None]).ravel()
        bad = norms_sq == 0.0
        if not bad.any():
            break
        log.debug("redrawing %d sign vectors: combined direction was zero", int(bad.sum()))
        signs[bad] = _draw_rows(int(bad.sum()), matrix.shape[0], "rademacher", rng)
    else:
        raise MeasurementError("could not draw a nonzero combined perturbation direction")
    scaled = forward_differences(oracle, x, combos, delta / norms_sq) * (norms_sq / delta)
    # 1/sign_i == sign_i for signs in {-1, +1}; the sum adds draw after draw
    return (scaled[:, None] * signs).sum(axis=0) / k


def prescribe_m(s: int, d: int) -> int:
    """Row count ceil(2 s ln(d/s)) for an s-sparse target in d dimensions, clamped to [1, d]."""
    return int(min(d, max(1, math.ceil(2.0 * s * math.log(d / s)))))
