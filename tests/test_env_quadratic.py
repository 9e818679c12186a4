"""Random sparse quadratic adversary and its hindsight optimum."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congo.core import ConfigurationError
from congo.env_quadratic import (
    QuadraticAdversary,
    QuadraticAdversaryConfig,
    QuadraticFunction,
    hindsight_optimum,
    smoothness_bounds,
)


def make_env(**kw):
    base = dict(dimension=20, sparsity=3, radius=10.0)
    base.update(kw)
    return QuadraticAdversary(QuadraticAdversaryConfig(**base))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        QuadraticAdversaryConfig(dimension=5, sparsity=6, radius=1.0)
    with pytest.raises(ConfigurationError):
        QuadraticAdversaryConfig(dimension=5, sparsity=2, radius=0.0)
    with pytest.raises(ConfigurationError):
        QuadraticAdversaryConfig(dimension=5, sparsity=2, radius=1.0, noise_sigma=-0.1)


def test_reset_replays_the_same_rounds():
    env1, env2 = make_env(), make_env()
    x1, x2 = env1.reset(11), env2.reset(11)
    assert np.array_equal(x1, x2)
    assert np.linalg.norm(x1) == pytest.approx(0.9 * 10.0)
    for t in range(1, 6):
        env1.begin_round(t)
        env2.begin_round(t)
        assert np.array_equal(env1.current.diag, env2.current.diag)
        assert np.array_equal(env1.current.linear, env2.current.linear)
        assert env1.current.constant == env2.current.constant


def _play_rounds(env, seed, rounds, probes):
    """The start, each round's function and noisy values at probes, as bytes."""
    start = env.reset(seed)
    out = [start.tobytes()]
    start[:] = np.nan  # a caller's edit must not reach a replayed start
    for t in range(1, rounds + 1):
        env.begin_round(t)
        f = env.current
        out += [f.diag.tobytes(), f.linear.tobytes(), f.constant, env.oracle()(probes).tobytes()]
    out += [(f.diag.tobytes(), f.linear.tobytes(), f.constant) for f in env.functions]
    return out


def test_a_reused_adversary_plays_like_fresh_ones():
    # seeds 0, 1, 0 on one adversary, then seed 0 again past the four kept
    # rounds, so the last run both replays and draws
    probes = np.linspace(-1.0, 1.0, 60).reshape(3, 20)
    reused = make_env(noise_sigma=0.1)
    for seed, rounds in ((0, 4), (1, 3), (0, 4), (0, 7)):
        assert _play_rounds(reused, seed, rounds, probes) == _play_rounds(
            make_env(noise_sigma=0.1), seed, rounds, probes
        )
        assert len(reused.functions) == rounds


def test_begin_round_before_reset_raises():
    """A raise, not an assert, so that python -O keeps the check."""
    with pytest.raises(RuntimeError, match=r"reset\(\) must run before begin_round\(\)"):
        make_env().begin_round(1)


def test_different_seeds_differ():
    env1, env2 = make_env(), make_env()
    x1, x2 = env1.reset(0), env2.reset(1)
    assert not np.array_equal(x1, x2)


def test_round_functions_are_sparse_and_psd():
    env = make_env()
    env.reset(5)
    for t in range(1, 11):
        env.begin_round(t)
        f = env.current
        assert np.count_nonzero(f.linear) == 3
        assert np.count_nonzero(f.diag) <= 3
        assert np.all(f.diag >= 0.0)
        # diag support never leaves the linear support
        assert set(np.flatnonzero(f.diag)) <= set(np.flatnonzero(f.linear))


def test_each_round_draws_its_own_support():
    env = make_env()
    env.reset(3)
    supports = []
    for t in range(1, 9):
        env.begin_round(t)
        supports.append(tuple(np.flatnonzero(env.current.linear)))
    assert len(set(supports)) > 1


def test_approximate_sparsity_fills_off_support_entries():
    env = make_env(dimension=40, sparsity=4, approx_scale=0.01, fixed_constant=2.0)
    env.reset(9)
    env.begin_round(1)
    f = env.current
    assert np.count_nonzero(f.linear) == 40
    assert f.constant == 2.0
    on = np.argsort(np.abs(f.linear))[-4:]
    off = np.setdiff1d(np.arange(40), on)
    # off-support magnitudes carry the 1/100 scale; 6 sigma of slack
    assert np.max(np.abs(f.linear[off])) <= 6.0 * 0.01


def test_incur_and_gradient_match_the_formula():
    env = make_env()
    env.reset(2)
    env.begin_round(1)
    f = env.current
    x = np.linspace(-1.0, 1.0, 20)
    assert env.incur(x) == pytest.approx(float(x @ (f.diag * x) + f.linear @ x + f.constant))
    assert np.allclose(env.exact_gradient(x), 2.0 * f.diag * x + f.linear)
    assert env.gradient_offset() is None


def test_oracle_noise_uses_a_separate_stream():
    noisy = make_env(noise_sigma=0.5)
    noisy.reset(4)
    noisy.begin_round(1)
    oracle = noisy.oracle()
    x = np.zeros(20)
    first, second = oracle(np.stack([x, x]))
    assert first != second

    # querying the noise stream must not disturb the round stream
    quiet = make_env(noise_sigma=0.5)
    quiet.reset(4)
    quiet.begin_round(1)
    noisy.begin_round(2)
    quiet.begin_round(2)
    assert np.array_equal(noisy.current.linear, quiet.current.linear)


def test_noiseless_oracle_is_exact():
    env = make_env()
    env.reset(0)
    env.begin_round(1)
    oracle = env.oracle()
    x = np.ones(20)
    assert oracle(x[None])[0] == env.incur(x)
    assert oracle.queries == 1


def _value_per_point(f, x):
    """The per-point formula every query used before batches."""
    return float(x @ (f.diag * x) + f.linear @ x + f.constant)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 120),
    q=st.integers(1, 80),
    dense=st.booleans(),
    sigma=st.sampled_from([0.0, 0.05, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_values_match_the_per_point_formula(d, q, dense, sigma, seed):
    """Bit for bit, with the noise of a batch drawn as q scalar draws would be."""
    radius = 100.0
    env = make_env(
        dimension=d,
        sparsity=max(1, d // 10),
        radius=radius,
        noise_sigma=sigma,
        approx_scale=0.1 if dense else 0.0,  # > 0 fills every off-support entry
    )
    env.reset(seed)
    env.begin_round(1)
    f = env.current
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(q, d))
    points *= rng.uniform(0.0, radius, size=(q, 1)) / np.linalg.norm(points, axis=1, keepdims=True)
    per_point = [_value_per_point(f, p) for p in points]
    assert np.array_equal(f.values(points), per_point)
    # incur reads value and the oracle reads values, so every point must round the same in both
    assert all(f.value(p) == f.values(p[None])[0] for p in points)

    scalar = copy.deepcopy(env._noise_rng)
    expected = [v + scalar.normal(0.0, sigma) if sigma else v for v in per_point]
    oracle = env.oracle()
    assert np.array_equal(oracle(points), expected)
    assert oracle.queries == q
    assert env._noise_rng.bit_generator.state == scalar.bit_generator.state


def test_smoothness_bounds_formula():
    prof = smoothness_bounds(50.0, 5)
    hess = math.sqrt(2.0 * math.log(5))
    assert prof.smoothness == pytest.approx(hess)
    assert prof.lipschitz == pytest.approx(50.0 * hess + 2.0 * math.sqrt(5))
    # sparsity 1 evaluates at s=2 to keep the log positive
    assert smoothness_bounds(1.0, 1).smoothness == smoothness_bounds(1.0, 2).smoothness


def test_instability_correction_is_not_available():
    env = make_env()
    with pytest.raises(ConfigurationError):
        env.instability_correction(np.zeros(20))


def test_hindsight_optimum_interior_case():
    f = QuadraticFunction(diag=np.array([1.0, 2.0]), linear=np.array([-2.0, 4.0]), constant=1.0)
    ball = make_env(dimension=2, sparsity=1, radius=10.0).constraint_set
    x_star, value = hindsight_optimum([f], ball)
    assert np.allclose(x_star, [1.0, -1.0])
    assert value == pytest.approx(f.value(np.array([1.0, -1.0])))


def test_hindsight_optimum_beats_feasible_samples():
    env = make_env(dimension=15, sparsity=4)
    env.reset(8)
    for t in range(1, 21):
        env.begin_round(t)
    x_star, best = hindsight_optimum(env.functions, env.constraint_set)
    assert env.constraint_set.contains(x_star, tol=1e-9)
    total = lambda x: float(np.sum([f.value(x) for f in env.functions]))
    assert best == pytest.approx(total(x_star))
    rng = np.random.default_rng(0)
    for _ in range(50):
        probe = env.constraint_set.project(rng.normal(size=15) * 10.0)
        assert total(probe) >= best - 1e-8


def test_hindsight_optimum_sticks_to_the_boundary_when_pulled():
    # pure linear pull lands on the sphere
    f = QuadraticFunction(diag=np.zeros(2), linear=np.array([-1.0, 0.0]), constant=0.0)
    ball = make_env(dimension=2, sparsity=1, radius=3.0).constraint_set
    x_star, value = hindsight_optimum([f], ball)
    assert np.allclose(x_star, [3.0, 0.0], atol=1e-7)
    assert value == pytest.approx(-3.0, abs=1e-6)
    with pytest.raises(ConfigurationError):
        hindsight_optimum([], ball)
