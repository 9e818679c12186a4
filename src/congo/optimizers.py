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

Oversized or failed recoveries are clipped to zero, which makes that round's
step the identity.
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
)
from .recovery import RecoveryConfig, basis_pursuit, cosamp, postprocess, rescale
from .sensing import (
    _DISTRIBUTIONS,
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
    recovery_tolerance: float = 0.005
    recovery_max_iterations: int = 50
    distribution: str | None = None  # None: gaussian, or rademacher for congo-z

    def __post_init__(self):
        if self.name not in ALL_OPTIMIZERS:
            raise ConfigurationError(f"unknown optimizer {self.name!r}")
        if self.name != "gd" and not 0 < self.delta < math.inf:
            raise ConfigurationError(f"delta: must be finite and > 0, got {self.delta}")
        for key in ("sparsity", "m", "k"):
            value = getattr(self, key)
            if value is not None and value < 1:  # k None: the default averaging count
                raise ConfigurationError(f"{key}: must be >= 1, got {value}")
        if self.distribution is not None and self.distribution not in _DISTRIBUTIONS:
            raise ConfigurationError(
                f"distribution {self.distribution!r} is not one of {', '.join(_DISTRIBUTIONS)}"
            )
        try:
            self.recovery_config()  # rejects a bad tolerance or iteration cap
        except ConfigurationError as exc:
            # RecoveryConfig names its fields without the recovery_ prefix of the keys
            raise ConfigurationError(f"recovery_{exc}") from None

    def matrix_distribution(self) -> str:
        if self.distribution is not None:
            return self.distribution
        return "rademacher" if self.name == "congo-z" else "gaussian"

    def recovery_config(self) -> RecoveryConfig:
        return RecoveryConfig(
            sparsity=self.sparsity,
            tolerance=self.recovery_tolerance,
            max_iterations=self.recovery_max_iterations,
        )

    def averaging_count(self) -> int:
        if self.k is not None:
            return self.k
        if self.name == "congo-b":
            return 3 * self.m  # practical default; prescriptions can be far larger
        return self.m  # sample-matched SPSA: m draws plus the shared base query

    def clip_cap(self) -> float:
        prof = self.smoothness
        if self.name == "congo-b":
            return prof.lipschitz + 3.0 * prof.smoothness * self.delta
        return prof.lipschitz + (COSAMP_ERROR_GAIN / 2.0) * prof.smoothness * self.delta


@dataclass
class RoundRecord:
    t: int
    x: np.ndarray
    cost: float
    queries: int
    estimate: GradientEstimate
    grad_error: float | None = None

    @property
    def clipped(self) -> bool:
        return self.estimate.clipped


def congo_step(
    cfg: OptimizerConfig, oracle: ValueOracle, x: np.ndarray, rng: np.random.Generator
) -> GradientEstimate:
    """One compressed gradient estimate: measure, rescale, recover, clip."""
    matrix = draw_matrix(cfg.m, x.shape[0], cfg.matrix_distribution(), rng)
    cap = cfg.clip_cap()
    if cfg.name == "congo-b":
        measured = measure_combined(oracle, x, matrix, cfg.delta, cfg.averaging_count(), rng)
        noise_level = 3.0 * cfg.smoothness.smoothness * cfg.delta
        outcome = basis_pursuit(
            *rescale(matrix, measured), noise_level, cap, cfg.recovery_config()
        )
    else:
        measured = measure_single_row(oracle, x, matrix, cfg.delta)
        outcome = cosamp(*rescale(matrix, measured), cfg.recovery_config())
    return postprocess(outcome, cap)


def gdsp_step(
    cfg: OptimizerConfig, oracle: ValueOracle, x: np.ndarray, rng: np.random.Generator
) -> GradientEstimate:
    """Averaged simultaneous-perturbation estimate; draws share the base query."""
    draws = cfg.averaging_count()
    signs = rng.integers(0, 2, size=(draws, x.shape[0])).astype(float) * 2.0 - 1.0
    # (probe - base) / (delta * sign_j) == (probe - base) / delta * sign_j
    scaled = forward_differences(oracle, x, signs, np.full(draws, cfg.delta)) / cfg.delta
    return GradientEstimate((scaled[:, None] * signs).sum(axis=0) / draws)


def nsgd_step(
    cfg: OptimizerConfig, oracle: ValueOracle, x: np.ndarray, rng: np.random.Generator
) -> GradientEstimate:
    """One forward difference per coordinate; d+1 queries."""
    d = x.shape[0]
    diffs = forward_differences(oracle, x, np.eye(d), np.full(d, cfg.delta))
    return GradientEstimate(diffs / cfg.delta)


def run_online(cfg: OptimizerConfig, env, horizon: int, seed: int) -> list[RoundRecord]:
    """Play cfg against env for horizon rounds; deterministic given the seed.

    Per round: incur the cost at the current point, estimate the gradient with
    the configured scheme, add any analytically known gradient component, then
    take a projected step. An unstable cost observation (NaN) skips the step
    and applies the environment's corrective bump instead.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    x = env.reset(seed)
    rng = np.random.default_rng([seed, _OPT_STREAM])
    cset = env.constraint_set
    records: list[RoundRecord] = []
    for t in range(1, horizon + 1):
        env.begin_round(t)
        cost = env.incur(x)
        if math.isnan(cost):
            log.info("round %d: unstable cost observation, applying correction", t)
            estimate = GradientEstimate(np.zeros(env.dim), clipped=True)
            records.append(RoundRecord(t=t, x=x.copy(), cost=cost, queries=0, estimate=estimate))
            x = env.instability_correction(x)
            _check_feasible(cset, x, t, "the instability correction")
            continue
        estimate, queries = _estimate(cfg, env, x, rng)
        if not np.all(np.isfinite(estimate.vector)):
            log.warning("round %d: non-finite gradient estimate, clipping to zero", t)
            estimate = GradientEstimate(np.zeros(env.dim), clipped=True)
        step_vector = estimate.vector  # clipping already zeroed rejected estimates
        offset = env.gradient_offset()
        if offset is not None:
            # the known part of the cost gradient is not an estimate, so it
            # still applies on rounds where the measured part was clipped away
            step_vector = step_vector + offset
        grad_error = _gradient_error(env, x, step_vector)
        if cfg.normalize_gradient:
            norm = float(np.linalg.norm(step_vector))
            if norm > 0.0:
                step_vector = step_vector / norm
        x_next = gd_update(x, step_vector, cfg.schedule.rate(t), cset)
        _check_feasible(cset, x_next, t, "the projected step")
        records.append(
            RoundRecord(
                t=t, x=x.copy(), cost=cost, queries=queries, estimate=estimate, grad_error=grad_error
            )
        )
        x = x_next
    return records


def _estimate(cfg, env, x, rng) -> tuple[GradientEstimate, int]:
    if cfg.name == "gd":
        exact = env.exact_gradient(x)
        if exact is None:
            raise ConfigurationError("gd needs an environment with exact gradients")
        return GradientEstimate(np.asarray(exact, dtype=float), clipped=False), 0
    oracle = env.oracle()  # fresh each round, so its count is the round's queries
    if cfg.name in CS_VARIANTS:
        step = congo_step
    elif cfg.name in ("gdsp", "sgdsp"):
        step = gdsp_step
    else:
        step = nsgd_step
    try:
        estimate = step(cfg, oracle, x, rng)
    except MeasurementError as exc:
        log.warning("round measurement failed (%s); clipping gradient to zero", exc)
        estimate = GradientEstimate(np.zeros(x.shape[0]), clipped=True)
    return estimate, oracle.queries


def _check_feasible(cset, x, t, source) -> None:
    # a raise, not an assert, so that python -O keeps the check
    if not cset.contains(x, tol=1e-9):
        raise RuntimeError(f"round {t}: {source} left the feasible set")


def _gradient_error(env, x, step_vector) -> float | None:
    truth = env.exact_gradient(x)
    if truth is None:
        return None
    return float(np.linalg.norm(step_vector - truth))
