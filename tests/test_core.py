"""Feasible sets, the projected-step primitive, the root-finder and the reduction helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congo import env_quadratic, harness, recovery
from congo.core import (
    Ball,
    Box,
    ConfigurationError,
    GradientEstimate,
    SmoothnessProfile,
    brent_root,
    gd_update,
    vector_norm,
)


def test_ball_projection_basics():
    ball = Ball(center=np.zeros(3), radius=2.0)
    inside = np.array([1.0, 0.5, -0.5])
    assert np.array_equal(ball.project(inside), inside)
    far = np.array([6.0, 0.0, 0.0])
    proj = ball.project(far)
    assert np.allclose(proj, [2.0, 0.0, 0.0])
    assert ball.contains(proj, tol=1e-12)


def test_ball_zero_radius_collapses_to_center():
    ball = Ball(center=np.array([1.0, -1.0]), radius=0.0)
    assert np.allclose(ball.project(np.array([9.0, 9.0])), [1.0, -1.0])


def test_box_projection_is_clip():
    box = Box(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
    assert np.allclose(box.project(np.array([5.0, -3.0])), [1.0, 0.0])
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([0.0, 2.1]))
    assert box.contains(np.array([0.0, 2.1]), tol=0.2)


def test_set_validation_errors():
    with pytest.raises(ConfigurationError):
        Ball(center=np.zeros((2, 2)), radius=1.0)
    with pytest.raises(ConfigurationError):
        Ball(center=np.zeros(2), radius=-1.0)
    with pytest.raises(ConfigurationError):
        Ball(center=np.zeros(2), radius=float("inf"))
    with pytest.raises(ConfigurationError):
        Box(lower=np.zeros(2), upper=np.zeros(3))
    with pytest.raises(ConfigurationError):
        Box(lower=np.array([1.0]), upper=np.array([0.0]))


vectors = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=3, max_size=3
).map(np.array)


@settings(max_examples=200, deadline=None)
@given(point=vectors, other=vectors, radius=st.floats(min_value=0.01, max_value=10.0))
def test_ball_projection_idempotent_and_nonexpansive(point, other, radius):
    ball = Ball(center=np.array([0.5, -0.5, 1.0]), radius=radius)
    p1 = ball.project(point)
    assert np.allclose(ball.project(p1), p1, atol=1e-12)
    # projections onto a convex set never increase pairwise distances
    q1 = ball.project(other)
    assert np.linalg.norm(p1 - q1) <= np.linalg.norm(point - other) + 1e-12


@settings(max_examples=200, deadline=None)
@given(point=vectors, other=vectors)
def test_box_projection_idempotent_and_nonexpansive(point, other):
    box = Box(lower=np.array([-2.0, -1.0, 0.0]), upper=np.array([2.0, 1.0, 3.0]))
    p1 = box.project(point)
    assert np.allclose(box.project(p1), p1, atol=1e-12)
    assert np.linalg.norm(p1 - box.project(other)) <= np.linalg.norm(point - other) + 1e-12


def test_gd_update_matches_manual_step():
    box = Box(lower=np.zeros(2), upper=np.full(2, 10.0))
    x = np.array([5.0, 5.0])
    g = np.array([1.0, -2.0])
    stepped = gd_update(x, g, 0.5, box)
    assert np.allclose(stepped, box.project(x - 0.5 * g))
    assert np.array_equal(gd_update(x, g, 0.0, box), x)


def test_gradient_estimate_coerces_and_flags():
    est = GradientEstimate([1, 2, 3])
    assert est.vector.dtype == float
    assert not est.clipped
    assert GradientEstimate(np.zeros(2), clipped=True).clipped


def test_smoothness_profile_rejects_negative_bounds():
    SmoothnessProfile(lipschitz=0.0, smoothness=0.0)
    with pytest.raises(ConfigurationError):
        SmoothnessProfile(lipschitz=-1.0, smoothness=0.0)
    with pytest.raises(ConfigurationError):
        SmoothnessProfile(lipschitz=1.0, smoothness=-0.5)


def _random_bracket(rng):
    """A function with one simple root r, and a bracket of it spanning up to six decades."""
    r = rng.normal() * 10 ** rng.uniform(-3, 3)
    f = [
        lambda x: x - r,
        lambda x: math.tanh(x - r),
        lambda x: math.atan(x - r) + 0.01 * (x - r),
        lambda x: (x - r) * ((x - r) ** 2 + 1.0),
    ][rng.integers(4)]
    lo = r - abs(rng.normal()) * 10 ** rng.uniform(-3, 3)
    hi = r + abs(rng.normal()) * 10 ** rng.uniform(-3, 3)
    return (f, hi, lo) if rng.random() < 0.5 else (f, lo, hi)


def test_brent_root_is_bit_equal_to_scipy_brentq(monkeypatch):
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(0)
    for _ in range(500):
        f, lo, hi = _random_bracket(rng)
        for xtol in (2e-12, 1e-14):
            assert brent_root(f, lo, hi, xtol=xtol) == brentq(f, lo, hi, xtol=xtol)

    # the call sites' own excess functions: the ridge path with its cap
    # binding (a rank-deficient matrix among them) and the hindsight reference
    # pulled to the boundary, with and without zero-curvature coordinates
    roots = []

    def checked(f, lo, hi, **kw):
        root = brent_root(f, lo, hi, **kw)
        assert root == brentq(f, lo, hi, **kw)
        roots.append(root)
        return root

    monkeypatch.setattr(recovery, "brent_root", checked)
    monkeypatch.setattr(env_quadratic, "brent_root", checked)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(6, 20))
        if seed % 5 == 0:
            matrix[:, 1:] = 0.0
        values = rng.normal(size=6)
        min_norm, *_ = np.linalg.lstsq(matrix, values, rcond=None)
        recovery._min_residual_on_cap(matrix, values, 0.5 * float(np.linalg.norm(min_norm)))
        diag = np.where(rng.random(8) < 0.3 * (seed % 2), 0.0, rng.uniform(0.1, 2.0, 8))
        f = env_quadratic.QuadraticFunction(diag=diag, linear=rng.normal(size=8) * 10.0, constant=0.0)
        env_quadratic.hindsight_optimum([f], Ball(center=np.zeros(8), radius=0.5))
    assert len(roots) == 40


def test_brent_root_errors_match_scipy_brentq():
    brentq = pytest.importorskip("scipy.optimize").brentq
    no_sign_change = (lambda x: x * x + 1.0, -1.0, 1.0)
    # the first step, a bisection, lands on 0.5, where f is NaN
    nan_inside = (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0)
    # a step function over 600 decades needs about 1000 halvings, not 100
    no_convergence = (lambda x: -1.0 if x < 0.1234 else 1.0, -1e300, 1e300)
    for case, error in ((no_sign_change, ValueError), (nan_inside, ValueError), (no_convergence, RuntimeError)):
        with pytest.raises(error):
            brentq(*case)
        with pytest.raises(error):
            brent_root(*case)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _special_vectors(n):
    """Zeros, overflowing and underflowing squares, and mixed magnitudes, all of length n."""
    return [
        np.zeros(n),
        np.full(n, 1e-170),  # every square underflows to 0
        np.full(n, 1e200),  # every square overflows to inf
        np.full(n, 1e154),  # squares just below the overflow threshold
        np.where(np.arange(n) % 2 == 0, 1e-160, 3.0),
        np.where(np.arange(n) % 3 == 0, -1e150, 1e-300),
    ]


@np.errstate(over="ignore")  # the 1e200 rows overflow on purpose
def test_reduction_helpers_are_bit_equal_to_the_numpy_calls_they_replace():
    """Each cheaper reduction on the round path gives numpy's public call, to the bit.

    The sizes are the ones the runs produce: d = 10 to 100 coordinates, m = 1
    to 36 rows, probe batches of up to d + 1 points. A numpy release that
    changes np.linalg.norm's kernel, or svd's ordering, fails this test.
    """
    rng = np.random.default_rng(0)

    # vector_norm == np.linalg.norm on contiguous vectors
    for n in range(1, 129):
        vectors = [rng.normal(size=n), rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)]
        for v in vectors + _special_vectors(n):
            assert _bits(vector_norm(v)) == _bits(np.linalg.norm(v)), (n, v[:3])
    assert vector_norm(np.full(50, 1e-170)) == 0.0
    assert vector_norm(np.full(50, 1e200)) == math.inf

    # svd(A)[0] == norm(A, 2), on raw and rescaled measurement matrices
    for d in (10, 20, 50, 100):
        for m in range(1, 37):
            matrix = rng.normal(size=(m, d))
            for a in (matrix, matrix * (1.0 / math.sqrt(m)), np.zeros((m, d))):
                assert _bits(np.linalg.svd(a, compute_uv=False)[0]) == _bits(np.linalg.norm(a, 2))

    # draw_matrix's zero-row test: (E * E).sum(axis=1) == 0.0 against norm(E, axis=1) == 0.0
    for d in (10, 50, 100):
        rows = [rng.normal(size=d), rng.integers(0, 2, size=d) * 2.0 - 1.0, *_special_vectors(d)]
        entries = np.stack(rows + [rng.normal(size=d) for _ in range(24)])
        squares = (entries * entries).sum(axis=1)
        norms = np.linalg.norm(entries, axis=1)
        assert _bits(np.sqrt(squares)) == _bits(norms)
        assert np.array_equal(squares == 0.0, norms == 0.0)
        assert (squares == 0.0).tolist()[1:4] == [False, True, True]  # zeros and 1e-170 read as zero

    # forward_differences' batch, rescale's factor, and the array-method reductions
    for d in (10, 50, 100):
        x = rng.normal(size=d)
        probes = x + rng.uniform(1e-6, 1e-3, size=(d + 1, 1)) * rng.normal(size=(d + 1, d))
        assert _bits(np.concatenate([x[None], probes])) == _bits(np.vstack([x, probes]))
        v = rng.normal(size=d)
        for count in (1, 5, 10, d):
            assert np.array_equal(np.abs(v).argpartition(-count), np.argpartition(np.abs(v), -count))
        assert _bits(np.abs(v).sum()) == _bits(np.sum(np.abs(v)))
        assert _bits((probes**2).sum(axis=1)) == _bits(np.sum(probes**2, axis=1))
    for m in range(1, 201):
        assert _bits(1.0 / math.sqrt(m)) == _bits(1.0 / np.sqrt(m))

    # the writers format Python scalars from tolist(), as they formatted numpy scalars
    values = np.concatenate([rng.normal(size=200) * 10.0 ** rng.uniform(-300, 300, size=200),
                             [0.0, -0.0, 1e-320, math.inf, -math.inf, math.nan]])
    for scalar, item in zip(values, values.tolist()):
        assert harness._fmt(scalar) == harness._fmt(item)
        assert f"{scalar:.2f}" == f"{item:.2f}"
