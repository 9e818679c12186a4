"""Feasible sets and the projected-step primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congo.core import (
    Ball,
    Box,
    ConfigurationError,
    GradientEstimate,
    SmoothnessProfile,
    gd_update,
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
