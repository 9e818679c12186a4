"""Measurement matrices, the batched query path and the two finite-difference schemes."""

import numpy as np
import pytest

from congo import optimizers
from congo.core import MeasurementError
from congo.optimizers import OptimizerConfig, StepSize, gdsp_step, nsgd_step, run_online
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


def test_a_zero_direction_fails_the_measurement(monkeypatch):
    """No direction is redrawn: a zero one probes x + inf * 0, which is NaN, and the oracle fails there.

    Each division by a zero norm warns, and the suite turns RuntimeWarnings
    into errors, so every call below runs under pytest.warns.
    """
    linear = pointwise(lambda z: float(z[0] + 3.0 * z[1]))
    oracle = ValueOracle(linear)
    with pytest.warns(RuntimeWarning), pytest.raises(MeasurementError, match="batch row 2"):
        measure_single_row(oracle, np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), 0.01)
    assert oracle.queries == 3  # the base point, the finite probe and the NaN one

    # rows [1, 1] and [1, 1]: a draw with opposite signs combines to zero
    signs = draw_matrix(40, 2, "rademacher", np.random.default_rng(0))
    first_zero = int(np.argmax(signs[:, 0] != signs[:, 1]))
    assert first_zero > 0
    for matrix, failing_draw in ((np.ones((2, 2)), first_zero), (np.zeros((1, 2)), 0)):
        oracle = ValueOracle(linear)
        with pytest.warns(RuntimeWarning), pytest.raises(MeasurementError):
            measure_combined(oracle, np.zeros(2), matrix, 0.01, 40, np.random.default_rng(0))
        assert oracle.queries == 1 + failing_draw + 1

    # in a run, the gate clips the round under "a probe came back non-finite"
    spec = load_spec(find_preset("quadratic-noiseless"))
    drawn = optimizers.draw_matrix

    def with_a_zero_row(m, d, distribution, rng):
        matrix = drawn(m, d, distribution, rng)
        matrix[1] = 0.0
        return matrix

    monkeypatch.setattr(optimizers, "draw_matrix", with_a_zero_row)
    for cfg in spec.optimizers:
        if cfg.name in ("congo-e", "congo-z"):
            with pytest.warns(RuntimeWarning):
                records = run_online(cfg, spec.make_environment(), 2, seed=0)
            assert [(r.clipped, r.queries) for r in records] == [(True, 3)] * 2, cfg.name


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
    gdsp = OptimizerConfig(name="gdsp", schedule=StepSize(0.1), delta=delta, m=k)
    nsgd = OptimizerConfig(name="nsgd", schedule=StepSize(0.1), delta=delta)

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
