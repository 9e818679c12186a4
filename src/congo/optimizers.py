"""Online optimizers: compressed-gradient variants and dense baselines.

Every optimizer runs the same projected-descent loop; they differ only in how
the per-round gradient estimate is produced:

  congo-e  Gaussian rows, one query per row, greedy sparse recovery
  congo-z  Rademacher rows, one query per row, greedy sparse recovery
  congo-b  Gaussian rows, k averaged combined-direction queries, l1 recovery
  gd       exact gradient from the environment (no queries)
  gdsp     averaged full-dimension simultaneous-perturbation estimates
  sgdsp    same estimator as gdsp (name used on stochastic environments)
  nsgd     one forward difference per coordinate

Every estimated round passes one gate, postprocess, which zeroes a missing,
non-finite or oversized estimate and marks the round clipped. A clipped round
takes no estimated step; an environment's known gradient offset still applies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigurationError,
    GradientEstimate,
    MeasurementError,
    SmoothnessProfile,
    gd_update,
    vector_norm,
)
from .recovery import basis_pursuit, cosamp, rescale
from .sensing import (
    ValueOracle,
    draw_matrix,
    forward_differences,
    measure_combined,
    measure_single_row,
)

log = logging.getLogger(__name__)

# worst-case amplification of measurement noise by the greedy recovery stage
COSAMP_ERROR_GAIN = 7.21

CS_VARIANTS = ("congo-e", "congo-z", "congo-b")
BASELINES = ("gd", "gdsp", "sgdsp", "nsgd")
ALL_OPTIMIZERS = CS_VARIANTS + BASELINES

_OPT_STREAM = 2


class ConstantRate:
    def __init__(self, eta: float):
        if not 0 <= eta < math.inf:
            raise ConfigurationError(f"eta must be finite and >= 0, got {eta}")
        self.eta = eta

    def rate(self, t: int) -> float:
        return self.eta


class InverseDecayRate:
    """eta0 / (1 + decay * t), with t the 1-based round index."""

    def __init__(self, eta: float, decay: float):
        if not (0 <= eta < math.inf and 0 <= decay < math.inf):
            raise ConfigurationError(f"eta and decay must be finite and >= 0, got {eta}, {decay}")
        self.eta = eta
        self.decay = decay

    def rate(self, t: int) -> float:
        return self.eta / (1.0 + self.decay * t)


class StepDecayRate:
    """eta0 * factor^floor((t - 1) / period)."""

    def __init__(self, eta: float, period: int, factor: float):
        if not (0 <= eta < math.inf and period >= 1 and 0 < factor < math.inf):
            raise ConfigurationError(
                "step decay needs finite eta >= 0, period >= 1 and finite factor > 0,"
                f" got {eta}, {period}, {factor}"
            )
        self.eta = eta
        self.period = period
        self.factor = factor

    def rate(self, t: int) -> float:
        return self.eta * self.factor ** ((t - 1) // self.period)


@dataclass
class OptimizerConfig:
    name: str
    schedule: object
    delta: float
    sparsity: int = 1
    m: int = 1
    k: int | None = None  # combined-scheme / SPSA averaging count
    smoothness: SmoothnessProfile = field(
        default_factory=lambda: SmoothnessProfile(lipschitz=0.0, smoothness=0.0)
    )
    normalize_gradient: bool = False

    def __post_init__(self):
        if self.name not in ALL_OPTIMIZERS:
            raise ConfigurationError(f"unknown optimizer {self.name!r}")
        if self.name != "gd" and not 0 < self.delta < math.inf:
            raise ConfigurationError(f"delta: must be finite and > 0, got {self.delta}")
        for key in ("sparsity", "m", "k"):
            value = getattr(self, key)
            if value is not None and value < 1:  # k None: the default averaging count
                raise ConfigurationError(f"{key}: must be >= 1, got {value}")

    def matrix_distribution(self) -> str:
        return "rademacher" if self.name == "congo-z" else "gaussian"

    def averaging_count(self) -> int:
        if self.k is not None:
            return self.k
        if self.name == "congo-b":
            return 3 * self.m  # practical default; prescriptions can be far larger
        return self.m  # sample-matched SPSA: m draws plus the shared base query

    def clip_cap(self) -> float:
        """Largest estimate norm the gate keeps; only the congo-* estimators have a cap."""
        prof = self.smoothness
        if self.name == "congo-b":
            return prof.lipschitz + 3.0 * prof.smoothness * self.delta
        if self.name in CS_VARIANTS:
            return prof.lipschitz + (COSAMP_ERROR_GAIN / 2.0) * prof.smoothness * self.delta
        return math.inf


@dataclass
class RoundRecord:
    t: int
    x: np.ndarray
    cost: float
    queries: int
    clipped: bool  # the round took no estimated step
    grad_error: float | None = None


def congo_step(
    cfg: OptimizerConfig, oracle: ValueOracle, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray | None:
    """One compressed gradient estimate: measure, rescale, recover; None if infeasible."""
    matrix = draw_matrix(cfg.m, x.shape[0], cfg.matrix_distribution(), rng)
    if cfg.name == "congo-b":
        measured = measure_combined(oracle, x, matrix, cfg.delta, cfg.averaging_count(), rng)
        noise_level = 3.0 * cfg.smoothness.smoothness * cfg.delta
        return basis_pursuit(*rescale(matrix, measured), noise_level, cfg.clip_cap())
    measured = measure_single_row(oracle, x, matrix, cfg.delta)
    return cosamp(*rescale(matrix, measured), cfg.sparsity)


def gdsp_step(
    cfg: OptimizerConfig, oracle: ValueOracle, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Averaged simultaneous-perturbation estimate; draws share the base query."""
    draws = cfg.averaging_count()
    signs = draw_matrix(draws, x.shape[0], "rademacher", rng)
    # (probe - base) / (delta * sign_j) == (probe - base) / delta * sign_j
    scaled = forward_differences(oracle, x, signs, np.full(draws, cfg.delta)) / cfg.delta
    return (scaled[:, None] * signs).sum(axis=0) / draws


def nsgd_step(
    cfg: OptimizerConfig, oracle: ValueOracle, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One forward difference per coordinate: the single-row scheme on the identity; d+1 queries."""
    return measure_single_row(oracle, x, np.eye(x.shape[0]), cfg.delta)


def run_online(cfg: OptimizerConfig, env, horizon: int, seed: int) -> list[RoundRecord]:
    """Play cfg against env for horizon rounds; deterministic given the seed.

    Per round: incur the cost at the current point, estimate the gradient with
    the configured scheme, pass the estimate through postprocess, add any
    analytically known gradient component, then take a projected step. An
    unstable cost observation (NaN) skips the step and applies the
    environment's corrective bump instead.
    """
    x = env.reset(seed)
    rng = np.random.default_rng([seed, _OPT_STREAM])
    cset = env.constraint_set
    cap = cfg.clip_cap()
    records: list[RoundRecord] = []
    for t in range(1, horizon + 1):
        env.begin_round(t)
        cost = env.incur(x)
        if math.isnan(cost):
            log.info("round %d: unstable cost observation, applying correction", t)
            records.append(RoundRecord(t=t, x=x.copy(), cost=cost, queries=0, clipped=True))
            x = env.instability_correction(x)
            _check_feasible(cset, x, t, "the instability correction")
            continue
        raw, queries = _estimate(cfg, env, x, rng)
        estimate = postprocess(raw, cap, env.dim)
        step_vector = estimate.vector
        offset = env.gradient_offset()
        if offset is not None:
            # the known part of the cost gradient is not an estimate, so it
            # still applies on rounds where the measured part was clipped away
            step_vector = step_vector + offset
        grad_error = _gradient_error(env, x, step_vector)
        if cfg.normalize_gradient:
            norm = vector_norm(step_vector)
            if norm > 0.0:
                step_vector = step_vector / norm
        x_next = gd_update(x, step_vector, cfg.schedule.rate(t), cset)
        _check_feasible(cset, x_next, t, "the projected step")
        records.append(
            RoundRecord(t, x.copy(), cost, queries, clipped=estimate.clipped, grad_error=grad_error)
        )
        x = x_next
    return records


def postprocess(raw: np.ndarray | None, norm_cap: float, dim: int) -> GradientEstimate:
    """The gate of every estimated round: keep the raw estimate or zero it.

    A missing estimate (a failed measurement or an infeasible basis pursuit),
    a non-finite one, or one whose norm exceeds norm_cap becomes zeros with
    clipped=True. The cap check is inclusive, so a vector sitting exactly on
    the cap passes through.
    """
    if raw is not None:
        vector = np.asarray(raw, dtype=float)
        if not np.isfinite(vector).all():
            log.warning("non-finite gradient estimate; clipping to zero")
        elif vector_norm(vector) <= norm_cap:
            return GradientEstimate(vector)
    return GradientEstimate(np.zeros(dim), clipped=True)


def _estimate(cfg, env, x, rng) -> tuple[np.ndarray | None, int]:
    """The round's raw estimate and query count; None when a measurement failed."""
    if cfg.name == "gd":
        exact = env.exact_gradient(x)
        if exact is None:
            raise ConfigurationError("gd needs an environment with exact gradients")
        return exact, 0
    oracle = env.oracle()  # fresh each round, so its count is the round's queries
    if cfg.name in CS_VARIANTS:
        step = congo_step
    elif cfg.name in ("gdsp", "sgdsp"):
        step = gdsp_step
    else:
        step = nsgd_step
    try:
        raw = step(cfg, oracle, x, rng)
    except MeasurementError as exc:
        log.warning("round measurement failed (%s); clipping gradient to zero", exc)
        raw = None
    return raw, oracle.queries


def _check_feasible(cset, x, t, source) -> None:
    # a raise, not an assert, so that python -O keeps the check
    if not cset.contains(x, tol=1e-9):
        raise RuntimeError(f"round {t}: {source} left the feasible set")


def _gradient_error(env, x, step_vector) -> float | None:
    truth = env.exact_gradient(x)
    if truth is None:
        return None
    return vector_norm(step_vector - truth)
