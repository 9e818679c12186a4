"""Measurement matrices, the batched query path and the two finite-difference schemes."""

import numpy as np
import pytest

from congo.core import MeasurementError
from congo.optimizers import ConstantRate, OptimizerConfig, gdsp_step, nsgd_step
from congo.scenario import find_preset, load_spec
from congo.sensing import (
    ValueOracle,
    draw_matrix,
    measure_combined,
    measure_single_row,
    pointwise,
    prescribe_m,
)


def test_value_oracle_counts_queries():
    for evaluate in (pointwise(lambda x: float(np.sum(x))), lambda points: points.sum(axis=1)):
        oracle = ValueOracle(evaluate)
        assert oracle.queries == 0
        values = oracle(np.stack([np.ones(3), np.zeros(3)]))
        assert np.array_equal(values, [3.0, 0.0])
        assert oracle.queries == 2
        oracle(np.ones((4, 3)))
        assert oracle.queries == 6


def test_value_oracle_stops_at_the_first_non_finite_value():
    seen = []

    def fn(x):
        seen.append(x[0])
        return float("nan") if x[0] == 2.0 else float(x[0])

    def batch(points):  # evaluates every row, the NaN one included
        return np.array([fn(p) for p in points])

    # a pointwise evaluator never runs the rows after the NaN
    for evaluate, evaluated in ((pointwise(fn), [0.0, 1.0, 2.0]), (batch, [0.0, 1.0, 2.0, 3.0, 4.0])):
        seen.clear()
        oracle = ValueOracle(evaluate)
        with pytest.raises(MeasurementError, match="batch row 2"):
            oracle(np.arange(5.0)[:, None])
        assert oracle.queries == 3  # the NaN point counts, the rows after it do not
        assert seen == evaluated


def test_value_oracle_rejects_a_short_batch_without_a_non_finite_value():
    """A raise, not an assert: python -O keeps the check, and no point is counted."""
    oracle = ValueOracle(lambda points: points.sum(axis=1)[:-1])
    with pytest.raises(RuntimeError, match="without a non-finite value") as caught:
        oracle(np.ones((4, 3)))
    assert not isinstance(caught.value, MeasurementError)
    assert oracle.queries == 0


def test_draw_matrix_shapes_and_distributions():
    rng = np.random.default_rng(0)
    gauss = draw_matrix(4, 7, "gaussian", rng)
    assert gauss.shape == (4, 7)
    rad = draw_matrix(5, 6, "rademacher", rng)
    assert set(np.unique(rad)) == {-1.0, 1.0}


def test_single_row_is_exact_on_linear_functions():
    """With zero curvature the forward difference equals <grad, a_i> exactly."""
    rng = np.random.default_rng(3)
    g = rng.normal(size=6)
    oracle = ValueOracle(pointwise(lambda x: float(g @ x)))
    matrix = draw_matrix(4, 6, "gaussian", rng)
    out = measure_single_row(oracle, np.zeros(6), matrix, delta=0.01)
    assert oracle.queries == 5
    assert np.allclose(out, matrix @ g, atol=1e-8)


def test_single_row_error_within_curvature_bound():
    # f(x) = ||x||^2 has Hessian 2I, so each entry is off by at most delta
    rng = np.random.default_rng(11)
    x = rng.normal(size=5)
    oracle = ValueOracle(pointwise(lambda z: float(z @ z)))
    matrix = draw_matrix(6, 5, "gaussian", rng)
    delta = 0.05
    out = measure_single_row(oracle, x, matrix, delta)
    err = np.abs(out - matrix @ (2.0 * x))
    assert np.all(err <= 0.5 * 2.0 * delta + 1e-12)


def test_single_row_validation():
    rng = np.random.default_rng(0)
    matrix = draw_matrix(3, 4, "gaussian", rng)
    with pytest.raises(MeasurementError):
        measure_single_row(ValueOracle(pointwise(lambda x: float("nan"))), np.zeros(4), matrix, 0.1)


def test_combined_single_row_is_exact_on_linear_functions():
    """With one row the sign cancels against itself, so every draw is exact."""
    rng = np.random.default_rng(5)
    g = rng.normal(size=8)
    oracle = ValueOracle(pointwise(lambda x: float(g @ x)))
    matrix = draw_matrix(1, 8, "gaussian", rng)
    out = measure_combined(oracle, np.zeros(8), matrix, delta=0.01, k=7, rng=rng)
    assert oracle.queries == 8
    assert np.allclose(out, matrix @ g, atol=1e-9)


def test_combined_interference_averages_out():
    # cross-row terms are zero-mean in the signs; the k-average should
    # concentrate around A @ g at the usual 1/sqrt(k) pace
    rng = np.random.default_rng(5)
    g = rng.normal(size=8)
    matrix = draw_matrix(3, 8, "gaussian", rng)
    small = measure_combined(ValueOracle(pointwise(lambda x: float(g @ x))), np.zeros(8), matrix, 0.01, 20, rng)
    oracle = ValueOracle(pointwise(lambda x: float(g @ x)))
    big = measure_combined(oracle, np.zeros(8), matrix, delta=0.01, k=5000, rng=rng)
    assert oracle.queries == 5001
    target = matrix @ g
    assert np.linalg.norm(big - target) < np.linalg.norm(small - target)
    assert np.linalg.norm(big - target) < 0.35


def test_combined_validation():
    rng = np.random.default_rng(0)
    matrix = draw_matrix(3, 4, "gaussian", rng)
    with pytest.raises(MeasurementError):
        measure_combined(ValueOracle(pointwise(lambda x: float("inf"))), np.zeros(4), matrix, 0.1, 2, rng)


def test_combined_redraws_zero_combinations():
    # rows [1, 1] and [1, 1]: every draw with opposite signs combines to zero
    matrix = np.ones((2, 2))
    points = []

    def fn(x):
        points.append(x.copy())
        return float(x[0] + 3.0 * x[1])

    oracle = ValueOracle(pointwise(fn))
    out = measure_combined(oracle, np.zeros(2), matrix, delta=0.01, k=40, rng=np.random.default_rng(0))
    assert oracle.queries == 41
    assert all(np.any(p != 0.0) for p in points[1:])
    # every kept draw has equal signs, so both rows read the summed slope twice
    assert np.allclose(out, [8.0, 8.0], atol=1e-9)
    zero = np.zeros((1, 2))
    with pytest.raises(MeasurementError):
        measure_combined(oracle, np.zeros(2), zero, 0.01, 3, np.random.default_rng(0))


def test_prescribe_m_practical_values():
    assert prescribe_m(5, 100) == 30
    assert prescribe_m(10, 100) == 47
    assert prescribe_m(100, 100) == 1  # ln(1) = 0 clamps to the floor
    assert prescribe_m(50, 100) <= 100


# Reference copies of the per-probe loops the batched estimators replaced: one
# oracle call per point, accumulated in the same order. They stay as the test
# oracle that pins the batched arithmetic and generator use to the old path.


def _query(oracle, point):
    return oracle(point[None])[0]


def _ref_single_row(oracle, x, matrix, delta):
    base = _query(oracle, x)
    norms_sq = np.sum(matrix**2, axis=1)
    values = np.empty(matrix.shape[0])
    for i in range(matrix.shape[0]):
        scale = norms_sq[i]
        probe = _query(oracle, x + (delta / scale) * matrix[i])
        values[i] = (probe - base) * scale / delta
    return values


def _ref_combined(oracle, x, matrix, delta, k, rng):
    base = _query(oracle, x)
    acc = np.zeros(matrix.shape[0])
    for _ in range(k):
        signs = rng.integers(0, 2, size=matrix.shape[0]).astype(float) * 2.0 - 1.0
        combo = matrix.T @ signs
        norm_sq = float(np.dot(combo, combo))
        assert norm_sq > 0.0  # gaussian rows: the old redraw never triggers
        probe = _query(oracle, x + (delta / norm_sq) * combo)
        acc += (probe - base) * (norm_sq / delta) * signs
    return acc / k


def _ref_gdsp(cfg, oracle, x, rng):
    d = x.shape[0]
    draws = cfg.averaging_count()
    base = _query(oracle, x)
    acc = np.zeros(d)
    for _ in range(draws):
        signs = rng.integers(0, 2, size=d).astype(float) * 2.0 - 1.0
        probe = _query(oracle, x + cfg.delta * signs)
        acc += (probe - base) / cfg.delta * signs
    return acc / draws


def _ref_nsgd(cfg, oracle, x):
    d = x.shape[0]
    base = _query(oracle, x)
    grad = np.zeros(d)
    for i in range(d):
        probe = x.copy()
        probe[i] += cfg.delta
        grad[i] = (_query(oracle, probe) - base) / cfg.delta
    return grad


def _stream_states(env):
    """States of every generator the environment owns (simulator, query noise)."""
    return [v.bit_generator.state for v in vars(env).values() if isinstance(v, np.random.Generator)]


@pytest.mark.parametrize("preset", [
    "quadratic-noiseless",
    "quadratic-noisy-d50",
    "quadratic-noisy-d100",
    "quadratic-approx-sparsity",  # dense diagonal: every coordinate is curved
    "jackson-complex-fixed",
])
def test_batched_estimators_match_the_per_probe_reference(preset):
    spec = load_spec(find_preset(preset))
    delta = spec.optimizers[0].delta
    envs = [spec.make_environment(), spec.make_environment()]
    rngs = [np.random.default_rng([3, 2]), np.random.default_rng([3, 2])]
    x = [env.reset(3) for env in envs][0]
    for env in envs:
        env.begin_round(1)
    m, k = 6, 5
    gdsp = OptimizerConfig(name="gdsp", schedule=ConstantRate(0.1), delta=delta, m=k)
    nsgd = OptimizerConfig(name="nsgd", schedule=ConstantRate(0.1), delta=delta)

    def single_row(oracle, rng, batched):
        matrix = draw_matrix(m, x.shape[0], "gaussian", rng)
        run = measure_single_row if batched else _ref_single_row
        return run(oracle, x, matrix, delta)

    def combined(oracle, rng, batched):
        matrix = draw_matrix(m, x.shape[0], "gaussian", rng)
        run = measure_combined if batched else _ref_combined
        return run(oracle, x, matrix, delta, k, rng)

    def spsa(oracle, rng, batched):
        return gdsp_step(gdsp, oracle, x, rng) if batched else _ref_gdsp(gdsp, oracle, x, rng)

    def coordinates(oracle, rng, batched):
        return nsgd_step(nsgd, oracle, x, rng) if batched else _ref_nsgd(nsgd, oracle, x)

    for estimator in (single_row, combined, spsa, coordinates):
        oracles = [env.oracle() for env in envs]
        ref = estimator(oracles[0], rngs[0], batched=False)
        out = estimator(oracles[1], rngs[1], batched=True)
        assert np.array_equal(out, ref), estimator.__name__
        assert oracles[1].queries == oracles[0].queries
        assert rngs[1].bit_generator.state == rngs[0].bit_generator.state
        assert _stream_states(envs[1]) == _stream_states(envs[0])
