"""Sparse recovery: greedy pursuit and the l1 solver.

The recovery examples follow one fixed construction: unit-magnitude sparse
signals against fresh Gaussian matrices, one rng per seed, so the success
counts below are frozen properties of the implementation.
"""

import dataclasses
import importlib.metadata
import importlib.util
import math
import re
import tomllib
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError, _umath_linalg

from congo import optimizers, recovery
from congo.recovery import (
    MAX_ITERATIONS,
    TOLERANCE,
    _largest,
    _lstsq,
    _min_residual_on_cap,
    _polish,
    _pursuit,
    _singular_values,
    _soft_threshold,
    _thin_svd,
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
    original, original_kernel = np.linalg.lstsq, recovery._lstsq
    solved = []

    def record(a, b, rcond=None):
        # a is matrix[:, cols]: its bytes name the column sequence
        solved.append((a.shape, a.tobytes()))
        return original(a, b, rcond=rcond)

    def record_kernel(a, b):
        solved.append((a.shape, a.tobytes()))
        return original_kernel(a, b)

    # the reference loop solves through np.linalg.lstsq, cosamp through _lstsq
    monkeypatch.setattr(np.linalg, "lstsq", record)
    monkeypatch.setattr(recovery, "_lstsq", record_kernel)
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


def _count_largest(monkeypatch):
    """Count _largest calls, two per pursuit iteration, in cosamp and in the reference loop."""
    original = recovery._largest
    calls = []

    def counting(vector, count):
        calls.append(count)
        return original(vector, count)

    monkeypatch.setattr(recovery, "_largest", counting)
    monkeypatch.setitem(globals(), "_largest", counting)
    return calls


def test_cosamp_replays_cycles_instead_of_iterating_them(monkeypatch):
    calls = _recorded_calls(monkeypatch, "quadratic-noisy-d50", "congo-e", "cosamp", m=8)
    largest = _count_largest(monkeypatch)
    computed = reference = 0
    for args in calls:
        largest.clear()
        out = cosamp(*args)
        computed += len(largest)
        largest.clear()
        ref = _ref_cosamp(*args)
        reference += len(largest)
        assert out.tobytes() == ref.tobytes()
    # below the threshold most iterations repeat an earlier refit's cycle:
    # 1,135 of the reference loop's 3,150 are computed
    assert 2 * computed < reference


def test_pursuit_replays_a_period_two_cycle_to_the_budget(monkeypatch):
    # this system's pursuit alternates between two refit supports from its
    # third iteration on; one of the two steps lowers the residual norm, so the
    # loop stalls every other iteration, never three times in a row, and runs
    # its whole budget
    matrix, values, _, _ = make_system(19, m=6)
    largest = _count_largest(monkeypatch)
    ref_x, ref_norm = _ref_pursuit(matrix, values, 3, frozenset())
    assert len(largest) == 2 * MAX_ITERATIONS and ref_norm > TOLERANCE
    largest.clear()
    x, resid_norm = _pursuit(matrix, values, 3, frozenset(), {})
    # iterations 0-4 are computed; the fifth refit repeats the third's
    assert len(largest) == 2 * 5
    assert x.tobytes() == ref_x.tobytes() and resid_norm == ref_norm
    assert cosamp(matrix, values, 3).tobytes() == _ref_cosamp(matrix, values, 3).tobytes()


def _kernel_arguments(monkeypatch, solver, calls):
    """The (a, b) of every _lstsq call that recovery's `solver` makes on the argument tuples `calls`."""
    original = recovery._lstsq
    solves = []

    def record(a, b):
        solves.append((a, b))
        return original(a, b)

    monkeypatch.setattr(recovery, "_lstsq", record)
    for args in calls:
        getattr(recovery, solver)(*args)
    monkeypatch.undo()
    assert solves
    return solves


def _assert_kernels_match_numpy(solves):
    for a, b in solves:
        assert _lstsq(a, b).tobytes() == np.linalg.lstsq(a, b, rcond=None)[0].tobytes()
        assert _singular_values(a).tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()
        for ours, theirs in zip(_thin_svd(a), np.linalg.svd(a, full_matrices=False)):
            assert ours.tobytes() == theirs.tobytes()


KERNEL_CASES = [
    pytest.param("quadratic-noisy-d50", "congo-e", "cosamp", 8, id="congo-e-m8"),
    pytest.param("quadratic-noisy-d50", "congo-e", "cosamp", None, id="congo-e"),
    # the wide 24 x 50 solves of the polish and the capped ridge path
    pytest.param("quadratic-noiseless", "congo-b", "basis_pursuit", None, id="congo-b"),
]


@pytest.mark.parametrize("preset, optimizer, solver, m", KERNEL_CASES)
def test_lapack_kernels_match_numpy_linalg(preset, optimizer, solver, m, monkeypatch):
    calls = _recorded_calls(monkeypatch, preset, optimizer, solver, m=m)
    _assert_kernels_match_numpy(_kernel_arguments(monkeypatch, solver, calls))


def test_lapack_kernels_match_numpy_linalg_on_wide_supports(monkeypatch):
    # shaped like jackson-large-fixed's congo-e: d = 50, s = 10, m = 17, so a
    # merged support of up to 2s = 20 columns is wider than it is tall
    calls = [make_system(seed, d=50, s=10, m=17)[:2] + (10,) for seed in range(10)]
    solves = _kernel_arguments(monkeypatch, "cosamp", calls)
    assert any(a.shape[1] > a.shape[0] for a, _ in solves)
    _assert_kernels_match_numpy(solves)


def test_lapack_kernels_raise_linalgerror_like_numpy():
    matrix = np.ones((6, 4))
    matrix[2, 1] = np.nan
    values = np.ones(6)
    pairs = [
        (lambda: _lstsq(matrix, values), lambda: np.linalg.lstsq(matrix, values, rcond=None)),
        (lambda: _singular_values(matrix), lambda: np.linalg.svd(matrix, compute_uv=False)),
        (lambda: _thin_svd(matrix), lambda: np.linalg.svd(matrix, full_matrices=False)),
    ]
    for ours, theirs in pairs:
        with pytest.raises(LinAlgError):
            ours()
        with pytest.raises(LinAlgError):
            theirs()


def test_recovery_names_its_numpy_requirement(monkeypatch):
    # numpy 1.x has no single lstsq gufunc (it splits it into lstsq_m and lstsq_n)
    monkeypatch.delattr(_umath_linalg, "lstsq")
    spec = importlib.util.spec_from_file_location("congo._recovery_probe", recovery.__file__)
    with pytest.raises(ImportError, match=r"numpy>=2\.4"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_the_python_floor_is_not_below_numpys():
    # an install below numpy's own Python floor fails in the resolver
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    ours = tomllib.loads(pyproject.read_text())["project"]["requires-python"]
    theirs = importlib.metadata.metadata("numpy")["Requires-Python"]

    def floor(spec):
        (version,) = re.fullmatch(r">=\s*([\d.]+)", spec.strip()).groups()
        return tuple(int(part) for part in version.split("."))

    assert floor(ours) >= floor(theirs), (ours, theirs)
