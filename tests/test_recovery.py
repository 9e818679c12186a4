"""Sparse recovery: greedy pursuit and the l1 solver.

The recovery examples follow one fixed construction: unit-magnitude sparse
signals against fresh Gaussian matrices, one rng per seed, so the success
counts below are frozen properties of the implementation.
"""

import dataclasses
import math

import numpy as np
import pytest

from congo import optimizers
from congo.recovery import (
    MAX_ITERATIONS,
    TOLERANCE,
    _largest,
    _min_residual_on_cap,
    _polish,
    _pursuit,
    _soft_threshold,
    basis_pursuit,
    cosamp,
    rescale,
)
from congo.scenario import find_preset, load_spec


def unit_sparse(rng, d, s):
    g = np.zeros(d)
    supp = rng.choice(d, s, replace=False)
    g[supp] = rng.choice([-1.0, 1.0], size=s)
    return g


def make_system(seed, d=20, s=3, m=12):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(m, d))
    g = unit_sparse(rng, d, s)
    scaled_matrix, scaled_values = rescale(matrix, matrix @ g)
    return scaled_matrix, scaled_values, g, rng


def test_rescale_divides_by_sqrt_m():
    matrix = np.ones((4, 3))
    values = np.full(4, 2.0)
    sm, sv = rescale(matrix, values)
    assert np.allclose(sm, 0.5)
    assert np.allclose(sv, 1.0)


def test_cosamp_noiseless_exact_recovery_rate():
    """d=20, s=3, m=12: at least 95 of 100 systems recover to 1e-6."""
    ok = 0
    for seed in range(100):
        matrix, values, g, _ = make_system(seed)
        x = cosamp(matrix, values, sparsity=3)
        ok += np.linalg.norm(x - g) <= 1e-6
    assert ok >= 95


def test_cosamp_noisy_recovery_tracks_noise_level():
    """Error stays within the 7.21x amplification cap and scales with the noise."""
    medians = {}
    within_cap = 0
    for noise in (0.01, 0.02, 0.04):
        errs = []
        for seed in range(100):
            matrix, values, g, rng = make_system(seed)
            e = rng.normal(size=12)
            e *= noise / np.linalg.norm(e)
            x = cosamp(matrix, values + e, sparsity=3)
            errs.append(np.linalg.norm(x - g))
        medians[noise] = float(np.median(errs))
        if noise == 0.01:
            within_cap = int(np.sum(np.array(errs) <= 7.21 * noise))
    assert within_cap >= 95
    assert medians[0.01] < medians[0.02] < medians[0.04]
    assert medians[0.04] <= 7.21 * 0.04


def test_cosamp_restart_escapes_taboo_support():
    # a system whose first pursuit stalls still ends at the best residual found
    matrix, values, g, _ = make_system(7)
    _, first_norm = _pursuit(matrix, values, 3, frozenset(), {})
    assert first_norm > TOLERANCE  # so cosamp restarts
    x = cosamp(matrix, values, sparsity=3)
    resid = np.linalg.norm(values - matrix @ x)
    assert resid <= first_norm
    assert np.count_nonzero(x) <= 3


def test_basis_pursuit_recovery_rate():
    ok = 0
    for seed in range(100):
        matrix, values, g, _ = make_system(seed, m=14)
        out = basis_pursuit(matrix, values, noise_level=1e-8, norm_cap=100.0)
        if out is not None and np.linalg.norm(out - g) <= 1e-3:
            ok += 1
    assert ok >= 90


def test_basis_pursuit_zero_measurements_recover_zero():
    matrix = np.random.default_rng(0).normal(size=(5, 8))
    out = basis_pursuit(matrix, np.zeros(5), 0.01, 1.0)
    assert out is not None
    assert np.linalg.norm(out) == pytest.approx(0.0, abs=1e-9)


def test_basis_pursuit_rejects_infeasible_systems():
    matrix = np.eye(3)
    values = np.full(3, 10.0)
    out = basis_pursuit(matrix, values, noise_level=0.01, norm_cap=0.5)
    assert out is None


def test_capped_recovery_survives_a_rank_deficient_matrix():
    # the cap binds and one singular value is zero: at lam = 0 the ridge
    # weights used to be 0 / 0, and the NaN crashed the root-finder
    matrix = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    values = np.array([1.0, 2.0])
    gap, point = _min_residual_on_cap(matrix, values, 0.1)
    assert gap == pytest.approx(math.sqrt(0.9**2 + 1.9**2))
    assert np.allclose(point, [0.1, 0.0, 0.0])
    assert basis_pursuit(matrix, values, 0.01, 0.1) is None
    assert np.allclose(basis_pursuit(matrix, values, 2.2, 0.1), [0.1, 0.0, 0.0])


# Verbatim copies of the CoSaMP and basis-pursuit loops before their numpy
# calls were trimmed (np.union1d, np.linalg.norm, a ball projection helper
# with a fresh zero centre). They pin the trimmed loops to the same bits.


def _ref_cosamp(matrix, values, s):
    m, d = matrix.shape
    x, resid_norm = _ref_pursuit(matrix, values, s, frozenset())
    taboo = set()
    restarts = 0
    while resid_norm > TOLERANCE and restarts < 2:
        taboo.update(np.flatnonzero(x).tolist())
        if len(taboo) >= d - s:
            break
        retry, retry_norm = _ref_pursuit(matrix, values, s, frozenset(taboo))
        if retry_norm < resid_norm:
            x, resid_norm = retry, retry_norm
        restarts += 1
    return x


def _ref_pursuit(matrix, values, s, taboo):
    m, d = matrix.shape
    x = np.zeros(d)
    residual = values.copy()
    resid_norm = float(np.linalg.norm(residual))
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
        omega = _largest(proxy, min(2 * s, d))
        merged = np.union1d(omega, np.flatnonzero(x))
        coef, *_ = np.linalg.lstsq(matrix[:, merged], values, rcond=None)
        candidate = np.zeros(d)
        candidate[merged] = coef
        keep = _largest(candidate, min(s, d))
        refit, *_ = np.linalg.lstsq(matrix[:, keep], values, rcond=None)
        x = np.zeros(d)
        x[keep] = refit
        residual = values - matrix @ x
        new_norm = float(np.linalg.norm(residual))
        stalled = stalled + 1 if new_norm >= resid_norm else 0
        resid_norm = new_norm
        if stalled >= 3:
            break
    return x, resid_norm


def _ref_basis_pursuit(matrix, values, noise_level, norm_cap):
    m, d = matrix.shape
    gap, gap_point = _min_residual_on_cap(matrix, values, norm_cap)
    if gap > noise_level + TOLERANCE:
        return None

    op_norm = float(np.linalg.norm(matrix, 2))
    if op_norm == 0.0:
        return np.zeros(d)

    step = 1.0 / op_norm
    z = np.zeros(d)
    z_bar = np.zeros(d)
    dual = np.zeros(m)
    for _ in range(MAX_ITERATIONS):
        ahead = dual + step * (matrix @ z_bar)
        dual = ahead - step * _ref_project_ball(ahead / step, values, noise_level)
        z_prev = z
        z = _soft_threshold(z - step * (matrix.T @ dual), step)
        z = _ref_project_ball(z, np.zeros(d), norm_cap)
        z_bar = 2.0 * z - z_prev

    slack = TOLERANCE
    candidates = []
    for candidate in (
        _polish(matrix, values, z),
        _ref_debias(matrix, values, z, correct=False),
        _ref_debias(matrix, values, z, correct=True),
        gap_point,
    ):
        if candidate is None:
            continue
        if float(np.linalg.norm(values - matrix @ candidate)) > noise_level + slack:
            continue
        if float(np.linalg.norm(candidate)) > norm_cap + slack:
            continue
        candidates.append(candidate)
    if not candidates:
        return None
    return min(candidates, key=lambda c: float(np.sum(np.abs(c))))


def _ref_debias(matrix, values, z, correct):
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
    if correct:
        return _polish(matrix, values, debiased)
    return debiased


def _ref_project_ball(point, center, radius):
    offset = point - center
    dist = float(np.linalg.norm(offset))
    if dist <= radius:
        return point
    if radius == 0.0:
        return center.copy()
    return center + offset * (radius / dist)


def _recorded_calls(monkeypatch, preset, optimizer, solver, rounds=25, m=None):
    """The arguments of every `solver` call `optimizer` makes in `rounds` rounds of seeds 0-1.

    m, if given, replaces the preset's measurement count.
    """
    spec = load_spec(find_preset(preset))
    cfg = next(c for c in spec.optimizers if c.name == optimizer)
    if m is not None:
        cfg = dataclasses.replace(cfg, m=m)
    original = getattr(optimizers, solver)
    calls = []

    def record(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(optimizers, solver, record)
    for seed in (0, 1):
        optimizers.run_online(cfg, spec.make_environment(), rounds, seed)
    monkeypatch.undo()
    assert len(calls) == 2 * rounds
    return calls


@pytest.mark.parametrize("preset", ["quadratic-noiseless", "quadratic-noisy-d50"])
def test_basis_pursuit_matches_the_reference_loop(preset, monkeypatch):
    for args in _recorded_calls(monkeypatch, preset, "congo-b", "basis_pursuit"):
        out, ref = basis_pursuit(*args), _ref_basis_pursuit(*args)
        assert (out is None) == (ref is None)
        if ref is not None:
            assert out.tobytes() == ref.tobytes()


# m = 8 puts the noisy preset (s = 5) below the recovery threshold, 2s > m,
# where the pursuit and both taboo restarts run and revisit supports
COSAMP_CASES = [
    pytest.param("quadratic-noiseless", None, id="quadratic-noiseless"),
    pytest.param("quadratic-noisy-d50", None, id="quadratic-noisy-d50"),
    pytest.param("quadratic-noisy-d50", 8, id="quadratic-noisy-d50-m8"),
]


@pytest.mark.parametrize("preset, m", COSAMP_CASES)
def test_cosamp_matches_the_reference_loop(preset, m, monkeypatch):
    for args in _recorded_calls(monkeypatch, preset, "congo-e", "cosamp", m=m):
        assert cosamp(*args).tobytes() == _ref_cosamp(*args).tobytes()
        # the residual norm steers the stall count and the restarts
        x, resid_norm = _pursuit(*args, frozenset(), {})
        ref_x, ref_norm = _ref_pursuit(*args, frozenset())
        assert x.tobytes() == ref_x.tobytes() and resid_norm == ref_norm


def test_cosamp_solves_each_column_sequence_once(monkeypatch):
    calls = _recorded_calls(monkeypatch, "quadratic-noisy-d50", "congo-e", "cosamp", m=8)
    original = np.linalg.lstsq
    solved = []

    def record(a, b, rcond=None):
        # a is matrix[:, cols]: its bytes name the column sequence
        solved.append((a.shape, a.tobytes()))
        return original(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", record)
    repeats = 0
    for args in calls:
        solved.clear()
        _ref_cosamp(*args)
        reference = list(solved)
        solved.clear()
        cosamp(*args)
        assert len(solved) == len(set(solved))
        assert set(solved) == set(reference)
        repeats += len(reference) - len(solved)
    # below the threshold the unshared loops repeat most of their solves
    assert repeats > len(calls)
