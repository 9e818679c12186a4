"""Synthetic online environment: random sparse quadratics over a ball.

Each round draws f(x) = x^T D x + b^T x + c with diagonal PSD D whose nonzero
pattern matches b. The optimizer sees (optionally noisy) value queries; the
environment also exposes exact values and gradients for baselines and error
tracking, and can reproduce the whole round sequence from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Ball, ConfigurationError, SmoothnessProfile, brent_root, vector_norm
from .sensing import ValueOracle

_ROUND_STREAM = 0
_NOISE_STREAM = 1
# starting-point norm as a fraction of the radius
START_FRACTION = 0.9


@dataclass(frozen=True)
class QuadraticFunction:
    """f(x) = sum_i diag_i x_i^2 + linear . x + constant, diag >= 0."""

    diag: np.ndarray
    linear: np.ndarray
    constant: float

    def value(self, x: np.ndarray) -> float:
        """f(x); the same dot products as a row of values, so the same bits."""
        x = np.asarray(x, dtype=float)
        return float(x @ (x * self.diag) + x @ self.linear + self.constant)

    def values(self, points: np.ndarray) -> np.ndarray:
        """f at each row of a (q, d) block.

        The stacked products run one dot product per row, the same kernel
        as x @ y on a single point, so every row rounds as it would alone.
        """
        rows = points[:, None, :]
        quadratic = (rows @ (points * self.diag)[:, :, None]).ravel()
        return quadratic + (rows @ self.linear[:, None]).ravel() + self.constant

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.diag * np.asarray(x, dtype=float) + self.linear


@dataclass(frozen=True)
class QuadraticAdversaryConfig:
    dimension: int
    sparsity: int
    radius: float
    noise_sigma: float = 0.0
    fixed_constant: float | None = None  # None: draw |N(0,1)| each round
    approx_scale: float = 0.0  # >0: off-support entries get this relative size

    def __post_init__(self):
        if not 1 <= self.sparsity <= self.dimension:
            raise ConfigurationError(
                f"sparsity: need 1 <= sparsity <= dimension, got {self.sparsity}/{self.dimension}"
            )
        if not 0 < self.radius < math.inf:
            raise ConfigurationError(f"radius: must be > 0 and finite, got {self.radius}")
        for key in ("noise_sigma", "approx_scale"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigurationError(
                    f"{key}: must be >= 0 and finite, got {getattr(self, key)}"
                )
        if self.fixed_constant is not None and not math.isfinite(self.fixed_constant):
            raise ConfigurationError(f"fixed_constant: must be finite, got {self.fixed_constant}")


def smoothness_bounds(radius: float, sparsity: int) -> SmoothnessProfile:
    """Gradient/Hessian norm bounds for the adversary's draw distribution.

    Uses sqrt(2 ln s) as the high-probability scale of the s sampled diagonal
    entries; for s < 2 the formula is evaluated at s = 2.
    """
    s_eff = max(sparsity, 2)
    hess = math.sqrt(2.0 * math.log(s_eff))
    grad = radius * hess + 2.0 * math.sqrt(s_eff)
    return SmoothnessProfile(lipschitz=grad, smoothness=hess)


class QuadraticAdversary:
    """Round-indexed stream of sparse quadratics, seeded and replayable.

    The adversary keeps the start point and the functions drawn for the last
    seed it was reset to, so runs that reset it to that seed again (the other
    optimizers of a seed, in harness.run_experiment) replay them instead of
    drawing them again. The round stream is a pure function of the seed, so
    a replay is the same functions, bit for bit.
    """

    def __init__(self, cfg: QuadraticAdversaryConfig):
        self.cfg = cfg
        self.constraint_set = Ball(center=np.zeros(cfg.dimension), radius=cfg.radius)
        # the functions of the rounds begun since the last reset
        self.functions: list[QuadraticFunction] = []
        self._seed: int | None = None
        self._start: np.ndarray | None = None
        # every function drawn for _seed so far, in round order
        self._stream: list[QuadraticFunction] = []
        self._round_rng: np.random.Generator | None = None
        self._noise_rng: np.random.Generator | None = None
        self.current: QuadraticFunction | None = None

    @property
    def dim(self) -> int:
        return self.cfg.dimension

    def reset(self, seed: int) -> np.ndarray:
        """Rewind to round 0 and return the starting point for this seed.

        The start is drawn uniformly from the sphere at START_FRACTION of
        the radius, so every run opens far from the optimum; it comes from the
        round stream, so all optimizers sharing a seed start from the same
        point and see the same functions. A reset to the seed drawn last
        replays its start and functions; the noise stream starts afresh on
        every reset.
        """
        self._noise_rng = np.random.default_rng([seed, _NOISE_STREAM])
        self.functions = []
        self.current = None
        if seed != self._seed:
            self._seed = seed
            self._round_rng = np.random.default_rng([seed, _ROUND_STREAM])
            self._stream = []
            direction = self._round_rng.normal(size=self.cfg.dimension)
            direction /= vector_norm(direction)
            self._start = direction * (START_FRACTION * self.cfg.radius)
        return self._start.copy()

    def begin_round(self, t: int) -> None:
        # a raise, not an assert, so that python -O keeps the check
        if self._round_rng is None:
            raise RuntimeError("reset() must run before begin_round()")
        played = len(self.functions)
        if played == len(self._stream):
            # past the end of the stream drawn so far: the round rng sits there
            self._stream.append(self._sample())
        self.current = self._stream[played]
        self.functions.append(self.current)

    def _sample(self) -> QuadraticFunction:
        cfg = self.cfg
        rng = self._round_rng
        support = rng.choice(cfg.dimension, size=cfg.sparsity, replace=False)
        diag = np.zeros(cfg.dimension)
        linear = np.zeros(cfg.dimension)
        linear[support] = rng.normal(-1.0, 1.0, size=cfg.sparsity)
        diag[support] = np.abs(rng.normal(-1.0, 1.0, size=cfg.sparsity))
        if cfg.fixed_constant is None:
            constant = float(abs(rng.normal(0.0, 1.0)))
        else:
            constant = float(cfg.fixed_constant)
        if cfg.approx_scale > 0.0:
            rest = np.setdiff1d(np.arange(cfg.dimension), support)
            linear[rest] = rng.normal(-1.0, 1.0, size=rest.size) * cfg.approx_scale
            diag[rest] = np.abs(rng.normal(-1.0, 1.0, size=rest.size)) * cfg.approx_scale
        return QuadraticFunction(diag=diag, linear=linear, constant=constant)

    def incur(self, x: np.ndarray) -> float:
        """Exact cost of the current round at x (regret is against true values)."""
        return self.current.value(x)

    def oracle(self) -> ValueOracle:
        """Query channel for the current round; adds observation noise if configured."""
        fn = self.current
        sigma = self.cfg.noise_sigma
        if sigma == 0.0:
            return ValueOracle(fn.values)
        noise_rng = self._noise_rng

        def noisy(points: np.ndarray) -> np.ndarray:
            # one block of q draws: the same values and stream state as q scalar draws
            return fn.values(points) + noise_rng.normal(0.0, sigma, size=len(points))

        return ValueOracle(noisy)

    def exact_gradient(self, x: np.ndarray) -> np.ndarray:
        return self.current.gradient(x)

    def gradient_offset(self) -> None:
        return None

    def instability_correction(self, x: np.ndarray) -> None:
        raise ConfigurationError("quadratic environment has no instability correction")


def hindsight_optimum(
    functions: list[QuadraticFunction], ball: Ball
) -> tuple[np.ndarray, float]:
    """Best fixed point in the ball against the summed round functions.

    The sum is a diagonal quadratic, so the constrained minimizer follows the
    one-parameter KKT path x(mu) and a scalar root-find pins mu.
    """
    if not functions:
        raise ConfigurationError("need at least one round function")
    diag = np.sum([f.diag for f in functions], axis=0)
    linear = np.sum([f.linear for f in functions], axis=0)
    constant = float(np.sum([f.constant for f in functions]))
    x_star = _minimize_diag_quadratic(diag, linear, ball.center, ball.radius)
    value = float(x_star @ (diag * x_star) + linear @ x_star + constant)
    return x_star, value


def _minimize_diag_quadratic(
    diag: np.ndarray, linear: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    grad_center = 2.0 * diag * center + linear
    free = (diag == 0.0) & (grad_center == 0.0)

    def point(mu: float) -> np.ndarray:
        denom = 2.0 * (diag + mu)
        step = np.divide(grad_center, denom, out=np.zeros_like(denom), where=denom > 0)
        return np.where(free, center, center - step)

    def excess(mu: float) -> float:
        return vector_norm(point(mu) - center) - radius

    if (diag[~free] > 0.0).all():
        x0 = point(0.0)
        if vector_norm(x0 - center) <= radius:
            return x0
        lo = 0.0
    else:
        lo = 1e-18  # mu -> 0+ blows up on zero-curvature coordinates
    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 10.0
        if hi > 1e18:  # pragma: no cover
            raise ConfigurationError("could not bracket the ball-constraint multiplier")
    return point(brent_root(excess, lo, hi, xtol=1e-14))
