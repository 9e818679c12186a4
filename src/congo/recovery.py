"""Sparse recovery of a gradient from compressed measurements.

Two solvers: a greedy support-pursuit routine for the single-row measurement
schemes, and a doubly-constrained l1 minimizer (primal-dual) for the combined
scheme. Both operate on the rescaled system (A, y) / sqrt(m).
"""

from __future__ import annotations

import math

import numpy as np

from .core import brent_root, vector_norm


# cosamp's target residual norm, and basis_pursuit's feasibility slack
TOLERANCE = 0.005
# the iteration budget of one greedy pursuit and of the primal-dual loop
MAX_ITERATIONS = 50


def rescale(matrix: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale both the matrix and the measurements by 1/sqrt(m)."""
    factor = 1.0 / math.sqrt(matrix.shape[0])
    return matrix * factor, values * factor


def cosamp(matrix: np.ndarray, values: np.ndarray, sparsity: int) -> np.ndarray:
    """Greedy sparse approximation of the solution to matrix @ x = values.

    Per iteration: form the proxy A^T r, merge the 2s strongest proxy entries
    into the running support, least-squares on the merged support, prune back
    to the s = sparsity largest coefficients, update the residual. Halts when
    the residual norm falls to TOLERANCE, after MAX_ITERATIONS, or after 3
    consecutive iterations without residual improvement.

    When the loop halts with the residual still above TOLERANCE, the pursuit
    restarts (at most twice) with the already-found support suppressed in the
    first selection. Flat-magnitude signals near the sample floor trap the
    greedy loop in stable wrong supports; the restarts escape most of them.
    The result with the smallest residual wins, so a run that already sits at
    its noise floor is never made worse. The pursuit and its restarts share
    one table of least-squares solves, so each column sequence is solved once.
    """
    d = matrix.shape[1]
    solves: dict[tuple[int, ...], np.ndarray] = {}
    x, resid_norm = _pursuit(matrix, values, sparsity, frozenset(), solves)
    taboo: set[int] = set()
    restarts = 0
    while resid_norm > TOLERANCE and restarts < 2:
        taboo.update(np.flatnonzero(x).tolist())
        if len(taboo) >= d - sparsity:
            break
        retry, retry_norm = _pursuit(matrix, values, sparsity, frozenset(taboo), solves)
        if retry_norm < resid_norm:
            x, resid_norm = retry, retry_norm
        restarts += 1
    return x


def _pursuit(
    matrix: np.ndarray,
    values: np.ndarray,
    s: int,
    taboo: frozenset[int],
    solves: dict[tuple[int, ...], np.ndarray],
) -> tuple[np.ndarray, float]:
    m, d = matrix.shape
    x = np.zeros(d)
    residual = values.copy()
    resid_norm = math.sqrt(residual.dot(residual))
    stalled = 0
    first = True
    for _ in range(MAX_ITERATIONS):
        if resid_norm <= TOLERANCE:
            break
        proxy = matrix.T @ residual
        if first and taboo:
            proxy = proxy.copy()
            proxy[list(taboo)] = 0.0
        first = False
        # the sorted union of the new candidates and the current support
        in_merged = x != 0.0
        in_merged[_largest(proxy, min(2 * s, d))] = True
        merged = np.flatnonzero(in_merged)
        # minimum-norm least squares keeps rank-deficient supports from blowing up
        candidate = np.zeros(d)
        candidate[merged] = _solve(matrix, values, merged, solves)
        keep = _largest(candidate, min(s, d))
        # refit on the pruned support: truncated merged-support coefficients
        # otherwise leave a bias that stalls recovery near the sample floor
        x = np.zeros(d)
        x[keep] = _solve(matrix, values, keep, solves)
        residual = values - matrix @ x
        new_norm = math.sqrt(residual.dot(residual))
        stalled = stalled + 1 if new_norm >= resid_norm else 0
        resid_norm = new_norm
        if stalled >= 3:
            break
    return x, resid_norm


def _solve(matrix, values, cols, solves) -> np.ndarray:
    """lstsq on matrix[:, cols], once per exact column sequence in solves.

    The solve depends on nothing but the columns in their order, so a repeated
    sequence (common below the recovery threshold, where the loop and its
    restarts revisit supports) reuses the stored coefficients.
    """
    key = tuple(cols.tolist())
    coef = solves.get(key)
    if coef is None:
        coef = solves[key] = np.linalg.lstsq(matrix[:, cols], values, rcond=None)[0]
    return coef


def _largest(vector: np.ndarray, count: int) -> np.ndarray:
    return np.abs(vector).argpartition(-count)[-count:]


def basis_pursuit(
    matrix: np.ndarray,
    values: np.ndarray,
    noise_level: float,
    norm_cap: float,
) -> np.ndarray | None:
    """Approximate min ||z||_1 s.t. ||A z - y|| <= noise_level and ||z|| <= norm_cap.

    Runs a primal-dual splitting loop (both constraints enter through their
    projections), then restores exact residual feasibility with a minimum-norm
    correction. Returns None when no point of the norm ball comes within
    noise_level (+ TOLERANCE) of satisfying the measurements.
    """
    m, d = matrix.shape
    gap, gap_point = _min_residual_on_cap(matrix, values, norm_cap)
    if gap > noise_level + TOLERANCE:
        return None

    # np.linalg.norm(matrix, 2) is the largest singular value: svd's first
    op_norm = float(np.linalg.svd(matrix, compute_uv=False)[0])
    if op_norm == 0.0:
        # A z is identically zero; z = 0 is the l1 minimizer of the feasible set
        return np.zeros(d)

    step = 1.0 / op_norm
    # bound once: the same gemv as matrix @ v and matrix.T @ v, without the
    # operator dispatch and the transposed view on every step
    forward = matrix.dot
    adjoint = matrix.T.dot
    z = np.zeros(d)
    z_bar = np.zeros(d)
    dual = np.zeros(m)
    # no early exit on iterate stall: successive primal iterates move slowly
    # from the first step, so a stall test would fire before convergence.
    # Each iteration projects onto two balls; sqrt(v.dot(v)) is what
    # np.linalg.norm computes for a contiguous vector, to the bit. Scalar
    # products are written array-first (v * step): the product is the same,
    # and the array's multiply runs without float.__mul__ returning
    # NotImplemented first.
    for _ in range(MAX_ITERATIONS):
        ahead = dual + forward(z_bar) * step
        point = ahead / step
        offset = point - values
        dist = math.sqrt(offset.dot(offset))
        if not dist <= noise_level:
            point = values if noise_level == 0.0 else values + offset * (noise_level / dist)
        dual = ahead - point * step
        z_prev = z
        z = _soft_threshold(z - adjoint(dual) * step, step)
        dist = math.sqrt(z.dot(z))
        if not dist <= norm_cap:
            # centre 0 + scaled offset: + 0.0 makes every zero entry +0.0
            z = np.zeros(d) if norm_cap == 0.0 else z * (norm_cap / dist) + 0.0
        z_bar = z * 2.0 - z_prev

    # The loop budget is small, so finish by pushing a few cheap candidates onto
    # the feasible set and keep whichever one has the smallest l1 norm.
    candidates = []
    debiased = _debias(matrix, values, z)
    for candidate in (
        _polish(matrix, values, z),
        debiased,
        None if debiased is None else _polish(matrix, values, debiased),
        gap_point,
    ):
        if candidate is None:
            continue
        if vector_norm(values - matrix @ candidate) > noise_level + TOLERANCE:
            continue
        if vector_norm(candidate) > norm_cap + TOLERANCE:
            continue
        candidates.append(candidate)
    if not candidates:
        return None
    return min(candidates, key=lambda c: float(np.abs(c).sum()))


def _polish(matrix, values, z) -> np.ndarray:
    """Minimum-norm correction onto the measurement-consistent affine set."""
    correction, *_ = np.linalg.lstsq(matrix, values - matrix @ z, rcond=None)
    return z + correction


def _debias(matrix, values, z) -> np.ndarray | None:
    """Least squares restricted to the iterate's strong support.

    With the support correctly identified this recovers the sparse generator to
    working precision; polishing the result additionally restores exact
    measurement consistency for the noisy case.
    """
    magnitudes = np.abs(z)
    top = float(magnitudes.max())
    if top == 0.0:
        return None
    support = np.flatnonzero(magnitudes > 1e-3 * top)
    if support.size == 0 or support.size > matrix.shape[0]:
        return None
    coef, *_ = np.linalg.lstsq(matrix[:, support], values, rcond=None)
    debiased = np.zeros(matrix.shape[1])
    debiased[support] = coef
    return debiased


def _min_residual_on_cap(matrix, values, norm_cap) -> tuple[float, np.ndarray | None]:
    """Exact min of ||A z - y|| over ||z|| <= norm_cap, via the ridge path."""
    min_norm, *_ = np.linalg.lstsq(matrix, values, rcond=None)
    if vector_norm(min_norm) <= norm_cap:
        return vector_norm(values - matrix @ min_norm), min_norm
    u, sing, vt = np.linalg.svd(matrix, full_matrices=False)
    coeff = u.T @ values

    def weights(lam: float) -> np.ndarray:
        # a zero singular value carries no weight, as in the pseudo-inverse;
        # at lam = 0 it would otherwise give 0 / 0
        denom = sing**2 + lam
        return np.divide(sing * coeff, denom, out=np.zeros_like(denom), where=denom > 0)

    def excess(lam: float) -> float:
        return vector_norm(weights(lam)) - norm_cap

    if norm_cap == 0.0:
        return vector_norm(values), np.zeros(matrix.shape[1])
    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 10.0
        if hi > 1e18:  # pragma: no cover - pathological scaling
            return vector_norm(values), None
    z = vt.T @ weights(brent_root(excess, 0.0, hi))
    return vector_norm(values - matrix @ z), z


def _soft_threshold(vector: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(vector) * np.maximum(np.abs(vector) - amount, 0.0)
