"""Optimizer estimators, schedules, and the online descent loop."""

import math

import numpy as np
import pytest

from congo.core import Box, ConfigurationError, SmoothnessProfile
from congo.optimizers import (
    ALL_OPTIMIZERS,
    OptimizerConfig,
    StepSize,
    congo_step,
    gdsp_step,
    nsgd_step,
    postprocess,
    run_online,
)
from congo.sensing import ValueOracle, pointwise


class LinearEnv:
    """Fixed linear cost over a box; both the oracle and the gradient are exact."""

    def __init__(self, g, lower=-10.0, upper=10.0):
        self.g = np.asarray(g, dtype=float)
        d = self.g.shape[0]
        self.constraint_set = Box(lower=np.full(d, lower), upper=np.full(d, upper))
        self.start = np.zeros(d)

    @property
    def dim(self):
        return self.g.shape[0]

    def reset(self, seed):
        return self.start.copy()

    def begin_round(self, t):
        pass

    def incur(self, x):
        return float(self.g @ x)

    def oracle(self):
        return ValueOracle(pointwise(lambda x: float(self.g @ x)))

    def exact_gradient(self, x):
        return self.g.copy()

    def gradient_offset(self):
        return None

    def instability_correction(self, x):
        raise AssertionError("stable environment should never correct")


class BrokenOracleEnv(LinearEnv):
    """Oracle always fails; the known offset is the only usable signal."""

    def __init__(self, d, offset):
        super().__init__(np.zeros(d), lower=0.0, upper=10.0)
        self.start = np.full(d, 5.0)
        self.offset = float(offset)

    def oracle(self):
        return ValueOracle(pointwise(lambda x: float("nan")))

    def exact_gradient(self, x):
        return None

    def gradient_offset(self):
        return np.full(self.dim, self.offset)


class NaNGradientEnv(LinearEnv):
    """The exact gradient holds a NaN entry."""

    def exact_gradient(self, x):
        grad = self.g.copy()
        grad[0] = float("nan")
        return grad


class NaNFromThirdQueryEnv(LinearEnv):
    """Each round's oracle answers two points, then NaN from the third on."""

    def oracle(self):
        answered = []

        def fn(x):
            answered.append(x)
            return float(self.g @ x) if len(answered) < 3 else float("nan")

        return ValueOracle(pointwise(fn))


class FlakyCostEnv(LinearEnv):
    """Round 1 cost observation is unstable (NaN)."""

    def __init__(self, g):
        super().__init__(g, lower=0.0, upper=10.0)
        self.start = np.full(self.dim, 2.0)
        self._t = 0

    def begin_round(self, t):
        self._t = t

    def incur(self, x):
        if self._t == 1:
            return float("nan")
        return float(self.g @ x)

    def instability_correction(self, x):
        return self.constraint_set.project(x + 1.0)


class EscapingCorrectionEnv(FlakyCostEnv):
    """Round 1 is unstable, and its correction leaves the box."""

    def instability_correction(self, x):
        return x + 100.0


def profile(lipschitz=100.0, smoothness=1.0):
    return SmoothnessProfile(lipschitz=lipschitz, smoothness=smoothness)


def cfg_for(name, **kw):
    base = dict(schedule=StepSize(0.1), delta=1e-4, smoothness=profile())
    base.update(kw)
    return OptimizerConfig(name=name, **base)


def test_rate_schedules_are_one_indexed():
    assert StepSize(0.3).rate(1) == 0.3
    assert StepSize(0.3).rate(999) == 0.3
    inv = StepSize(1.0, decay=0.5)
    assert inv.rate(1) == pytest.approx(1.0 / 1.5)
    assert inv.rate(4) == pytest.approx(1.0 / 3.0)
    step = StepSize(1.0, period=25, factor=0.5)
    assert step.rate(1) == 1.0
    assert step.rate(25) == 1.0
    assert step.rate(26) == 0.5
    assert step.rate(51) == 0.25


def test_rate_schedule_validation():
    with pytest.raises(ConfigurationError):
        StepSize(-0.1)
    with pytest.raises(ConfigurationError):
        StepSize(1.0, decay=-1.0)
    with pytest.raises(ConfigurationError):
        StepSize(1.0, period=0, factor=0.5)
    with pytest.raises(ConfigurationError):
        StepSize(1.0, period=10, factor=0.0)


def test_optimizer_config_validation():
    with pytest.raises(ConfigurationError):
        cfg_for("newton")
    with pytest.raises(ConfigurationError):
        cfg_for("congo-e", delta=0.0)
    with pytest.raises(ConfigurationError):
        cfg_for("congo-e", m=0)
    with pytest.raises(ConfigurationError):
        cfg_for("congo-e", k=0)
    # the exact-gradient baseline never probes, so delta is unconstrained
    OptimizerConfig(name="gd", schedule=StepSize(0.1), delta=0.0)


def test_matrix_distribution_follows_the_optimizer():
    assert cfg_for("congo-e").matrix_distribution() == "gaussian"
    assert cfg_for("congo-z").matrix_distribution() == "rademacher"
    assert cfg_for("congo-b").matrix_distribution() == "gaussian"


def test_averaging_count_rules():
    assert cfg_for("congo-b", m=8).averaging_count() == 24
    assert cfg_for("congo-b", m=8, k=5).averaging_count() == 5
    assert cfg_for("gdsp", m=13).averaging_count() == 13
    assert cfg_for("sgdsp", m=4, k=9).averaging_count() == 9


def test_clip_cap_formulas():
    prof = SmoothnessProfile(lipschitz=6.0, smoothness=2.0)
    e = cfg_for("congo-e", delta=0.5, smoothness=prof)
    assert e.clip_cap() == pytest.approx(6.0 + (7.21 / 2.0) * 2.0 * 0.5)
    b = cfg_for("congo-b", delta=0.5, smoothness=prof)
    assert b.clip_cap() == pytest.approx(6.0 + 3.0 * 2.0 * 0.5)
    assert b.clip_cap() == 6.0 + b.noise_level()  # congo_step's basis-pursuit noise level
    for name in ("gd", "gdsp", "sgdsp", "nsgd"):
        assert cfg_for(name, delta=0.5, smoothness=prof).clip_cap() == math.inf


def test_postprocess_cap_is_inclusive():
    vec = np.array([3.0, 4.0])  # norm 5
    kept = postprocess(vec, 5.0, 2)
    assert not kept.clipped
    assert np.array_equal(kept.vector, vec)
    clipped = postprocess(vec, 4.999, 2)
    assert clipped.clipped
    assert np.array_equal(clipped.vector, np.zeros(2))


def test_postprocess_handles_none_and_bad_values():
    missing = postprocess(None, 1.0, 4)
    assert missing.clipped and np.array_equal(missing.vector, np.zeros(4))
    assert not postprocess(np.array([0.1, 0.2]), 1.0, 2).clipped
    assert postprocess(np.array([np.nan, 1.0]), math.inf, 2).clipped


def test_congo_step_recovers_sparse_linear_gradient():
    rng = np.random.default_rng(42)
    g = np.zeros(12)
    g[[2, 9]] = (1.5, -2.0)
    oracle = ValueOracle(pointwise(lambda x: float(g @ x)))
    cfg = cfg_for("congo-e", sparsity=2, m=8, delta=1e-6)
    estimate = congo_step(cfg, oracle, np.zeros(12), rng)
    assert oracle.queries == 9
    assert np.allclose(estimate, g, atol=1e-5)


def test_congo_b_step_uses_averaged_combined_queries():
    # combined probes carry zero-mean cross-row interference, so the
    # estimate is only exact in the k -> inf limit; a small k still has
    # to spend exactly k+1 queries and point at the right support
    rng = np.random.default_rng(2)
    g = np.zeros(10)
    g[[1, 4]] = (1.0, -1.0)
    oracle = ValueOracle(pointwise(lambda x: float(g @ x)))
    cfg = cfg_for("congo-b", sparsity=2, m=6, k=11, delta=1e-6)
    estimate = congo_step(cfg, oracle, np.zeros(10), rng)
    assert oracle.queries == 12
    assert estimate is not None
    top_two = set(np.argsort(np.abs(estimate))[-2:])
    assert top_two == {1, 4}
    assert estimate[1] > 0 > estimate[4]


def test_congo_b_interference_shrinks_with_averaging():
    g = np.zeros(10)
    g[[1, 4]] = (1.0, -1.0)
    rng = np.random.default_rng(2)
    oracle = ValueOracle(pointwise(lambda x: float(g @ x)))
    cfg = cfg_for("congo-b", sparsity=2, m=6, k=2000, delta=1e-6)
    estimate = congo_step(cfg, oracle, np.zeros(10), rng)
    assert oracle.queries == 2001
    assert np.linalg.norm(estimate - g) < 0.15


def test_gdsp_step_query_count():
    rng = np.random.default_rng(0)
    oracle = ValueOracle(pointwise(lambda x: float(np.sum(x))))
    cfg = cfg_for("gdsp", m=5)
    estimate = gdsp_step(cfg, oracle, np.zeros(7), rng)
    assert oracle.queries == 6
    assert estimate.shape == (7,)


def test_nsgd_step_is_exact_on_linear_functions():
    rng = np.random.default_rng(0)
    g = np.array([1.0, -2.0, 0.5])
    oracle = ValueOracle(pointwise(lambda x: float(g @ x)))
    estimate = nsgd_step(cfg_for("nsgd"), oracle, np.zeros(3), rng)
    assert oracle.queries == 4
    assert np.allclose(estimate, g, atol=1e-9)


def test_run_online_is_deterministic():
    env = LinearEnv(np.array([1.0, 0.0, -1.0, 0.0]))
    cfg = cfg_for("congo-e", sparsity=2, m=4)
    first = run_online(cfg, env, 10, seed=3)
    second = run_online(cfg, LinearEnv(np.array([1.0, 0.0, -1.0, 0.0])), 10, seed=3)
    assert [r.cost for r in first] == [r.cost for r in second]
    assert all(np.array_equal(a.x, b.x) for a, b in zip(first, second))


def test_run_online_iterates_stay_feasible_and_descend():
    env = LinearEnv(np.array([2.0, 0.0, 0.0]), lower=-1.0, upper=1.0)
    records = run_online(cfg_for("gd", schedule=StepSize(0.5)), env, 8, seed=0)
    assert len(records) == 8
    for r in records:
        assert env.constraint_set.contains(r.x, tol=1e-9)
        assert r.queries == 0
    # linear cost with a box: gd slides the first coordinate to the lower face
    assert records[-1].x[0] == pytest.approx(-1.0)
    assert records[0].grad_error == pytest.approx(0.0)


def test_run_online_offset_applies_on_clipped_rounds():
    env = BrokenOracleEnv(d=3, offset=1.0)
    records = run_online(cfg_for("congo-e", schedule=StepSize(1.0)), env, 3, seed=0)
    assert all(r.clipped for r in records)
    assert records[0].queries == 1  # the base query that came back NaN
    # estimate is zero but the known offset still drives descent: 5 -> 4 -> 3
    assert records[1].x[0] == pytest.approx(4.0)
    assert records[2].x[0] == pytest.approx(3.0)


@pytest.mark.parametrize(
    "cfg, env, queries",
    [
        # a recovered norm of 5 against a cap of 1
        (cfg_for("congo-e", m=4, smoothness=profile(1.0, 0.0)), LinearEnv([5.0, 0, 0, 0, 0, 0]), 5),
        # a cap of 0 leaves basis pursuit no point that fits the measurements
        (cfg_for("congo-b", m=4, k=5, smoothness=profile(0.0, 0.0)), LinearEnv([5.0, 0, 0, 0, 0, 0]), 6),
        (cfg_for("gd"), NaNGradientEnv([5.0, 0, 0, 0, 0, 0]), 0),
    ],
    ids=["congo-e-over-cap", "congo-b-infeasible", "gd-non-finite"],
)
def test_run_online_gate_zeroes_rejected_estimates(cfg, env, queries):
    records = run_online(cfg, env, 3, seed=0)
    assert all(r.clipped and r.queries == queries for r in records)
    assert all(np.array_equal(r.x, env.start) for r in records)  # no step was taken


@pytest.mark.parametrize("name", ["nsgd", "gdsp"])
def test_dense_estimators_stop_at_the_first_non_finite_query(name):
    env = NaNFromThirdQueryEnv(np.array([1.0, -1.0, 0.5, 2.0]))
    records = run_online(cfg_for(name, m=5), env, 2, seed=0)
    assert all(r.clipped and r.queries == 3 for r in records)
    assert np.array_equal(records[1].x, records[0].x)  # a clipped round takes no step


def test_run_online_handles_unstable_cost_rounds():
    env = FlakyCostEnv(np.array([0.0, 0.0]))
    records = run_online(cfg_for("nsgd"), env, 3, seed=0)
    assert np.isnan(records[0].cost)
    assert records[0].queries == 0 and records[0].clipped
    assert records[1].x[0] == pytest.approx(3.0)  # corrective bump, projected
    assert not np.isnan(records[1].cost)


def test_run_online_raises_when_a_correction_leaves_the_box():
    env = EscapingCorrectionEnv(np.array([0.0, 0.0]))
    with pytest.raises(RuntimeError, match="round 1: the instability correction left the feasible set"):
        run_online(cfg_for("nsgd"), env, 3, seed=0)


def test_run_online_normalized_steps_have_unit_length():
    env = LinearEnv(np.array([3.0, 4.0]))
    cfg = cfg_for("gd", schedule=StepSize(1.0), normalize_gradient=True)
    records = run_online(cfg, env, 2, seed=0)
    # eta=1 with a unit-normalized gradient moves the iterate by exactly 1
    assert np.allclose(records[1].x, -np.array([3.0, 4.0]) / 5.0, atol=1e-12)
    assert np.linalg.norm(records[1].x - records[0].x) == pytest.approx(1.0)


def test_run_online_argument_errors():
    no_grad = BrokenOracleEnv(d=2, offset=0.0)
    with pytest.raises(ConfigurationError):
        run_online(cfg_for("gd"), no_grad, 1, seed=0)


def test_optimizer_roster():
    assert ALL_OPTIMIZERS == ("congo-e", "congo-z", "congo-b", "gd", "gdsp", "sgdsp", "nsgd")
