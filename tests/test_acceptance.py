"""Acceptance battery: ten numbered criteria, each with pinned tolerances.

Every test prints one PASS/FAIL line through criterion_report (replayed in a
terminal section after the run). The gradient-error sweep is computed once in
a module fixture and shared by the criteria that read it; per-m timings are
kept so each criterion's runtime budget covers only its own work. The seed
grids run through run_experiment on os.cpu_count() forked workers; by the
determinism contract their results do not depend on the worker count.
"""

import functools
import os
import time

import numpy as np
import pytest

from congo.core import Ball, Box
from congo.env_jackson import SimConfig, Topology, simulate_window
from congo.env_quadratic import (
    QuadraticAdversary,
    QuadraticAdversaryConfig,
    hindsight_optimum,
    smoothness_bounds,
)
from congo.harness import ExperimentSpec, run_experiment
from congo.optimizers import ConstantRate, OptimizerConfig, run_online
from congo.recovery import cosamp, rescale
from congo.scenario import find_preset, load_spec
from congo.sensing import ValueOracle, draw_matrix, measure_single_row, pointwise, prescribe_m


def unit_sparse(rng, d, s):
    g = np.zeros(d)
    supp = rng.choice(d, s, replace=False)
    g[supp] = rng.choice([-1.0, 1.0], size=s)
    return g


def run_quadratic(name, seeds, T=100, d=50, s=5, R=50.0, sigma=0.0, delta=1e-5,
                  m=24, k=None, lr=0.1, s_given=None, env_extra=None):
    """All quadratic-battery runs share this shape; returns one RunResult per seed.

    s is the adversary's sparsity; s_given, the one the optimizer assumes and
    derives its smoothness bounds from, defaults to s.
    """
    s_given = s if s_given is None else s_given
    env_cfg = QuadraticAdversaryConfig(dimension=d, sparsity=s, radius=R, noise_sigma=sigma,
                                       **(env_extra or {}))
    cfg = OptimizerConfig(name=name, schedule=ConstantRate(lr), delta=delta, sparsity=s_given,
                          m=m, k=k, smoothness=smoothness_bounds(R, s_given))
    spec = ExperimentSpec(name=name, kind="quadratic",
                          make_environment=functools.partial(QuadraticAdversary, env_cfg),
                          optimizers=[cfg], horizon=T, seeds=tuple(seeds))
    return run_experiment(spec, jobs=os.cpu_count(), plot=False).runs


def mean_grad_error(name, seeds, **kw):
    # the quadratic adversary has an exact gradient every round, so no NaN
    return float(np.mean(np.concatenate([r.grad_errors for r in run_quadratic(name, seeds, **kw)])))


def mean_final_cost(name, seeds, **kw):
    # the sum of the costs, not cum_costs[-1]: nancumsum rounds differently
    return float(np.mean([float(np.sum(r.costs)) for r in run_quadratic(name, seeds, **kw)]))


@pytest.fixture(scope="module")
def error_sweep():
    """CONGO-E mean gradient error per measurement count, 50 seeds each, with timings.

    Only the counts that criteria 03 and 05 read: m = 11 and 12 are skipped.
    """
    errors, timings = {}, {}
    for m in [*range(6, 11), *range(13, 25)]:
        t0 = time.perf_counter()
        errors[m] = mean_grad_error("congo-e", range(50), m=m)
        timings[m] = time.perf_counter() - t0
    return errors, timings


def test_criterion_01_cosamp_noiseless_recovery(criterion_report):
    """d=50, s=5, m=24 Gaussian: >=95/100 recoveries to 1e-4 relative error."""
    t0 = time.perf_counter()
    ok = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(24, 50))
        g = unit_sparse(rng, 50, 5)
        scaled_matrix, scaled_values = rescale(matrix, matrix @ g)
        x = cosamp(scaled_matrix, scaled_values, sparsity=5)
        ok += np.linalg.norm(x - g) <= 1e-4 * np.linalg.norm(g)
    elapsed = time.perf_counter() - t0
    passed = ok >= 95 and elapsed < 5.0
    criterion_report(1, "sparse recovery oracle", passed,
                     f"{ok}/100 within 1e-4 relative, {elapsed:.2f}s < 5s")
    assert ok >= 95
    assert elapsed < 5.0


def test_criterion_02_single_row_measurement_bound(criterion_report):
    """Per-entry finite-difference error stays under (L/2) delta on random quadratics."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(5, 30))
        diag = rng.uniform(0.1, 3.0, size=d)
        b = rng.normal(size=d)
        hessian_norm = 2.0 * float(diag.max())
        x = rng.normal(size=d)
        delta = float(rng.uniform(1e-4, 1e-1))
        oracle = ValueOracle(pointwise(lambda z: float(z @ (diag * z) + b @ z)))
        matrix = draw_matrix(int(rng.integers(2, d + 1)), d, "gaussian", rng)
        y = measure_single_row(oracle, x, matrix, delta)
        err = np.abs(y - matrix @ (2.0 * diag * x + b))
        bound = 0.5 * hessian_norm * delta + 1e-12
        violations += int(np.sum(err > bound))
        worst = max(worst, float(np.max(err / bound)))
    elapsed = time.perf_counter() - t0
    passed = violations == 0 and elapsed < 1.0
    criterion_report(2, "measurement error bound", passed,
                     f"0 violations in 100 systems, worst ratio {worst:.3f}, {elapsed:.2f}s < 1s")
    assert violations == 0
    assert elapsed < 1.0


def test_criterion_03_gradient_error_comparison(criterion_report, error_sweep):
    """Sample-matched SPSA averaging sits near 31.64 while the sparse recovery is ~100x lower."""
    errors, timings = error_sweep
    t0 = time.perf_counter()
    gdsp = mean_grad_error("gdsp", range(50), k=25)  # 26 samples per round
    elapsed = (time.perf_counter() - t0) + timings[24]
    congo_e = errors[24]
    lo, hi = 31.64 * 0.7, 31.64 * 1.3
    passed = lo <= gdsp <= hi and congo_e < 0.1 * gdsp and elapsed < 120.0
    criterion_report(3, "gradient error comparison", passed,
                     f"GDSP {gdsp:.2f} in [{lo:.2f}, {hi:.2f}], CONGO-E {congo_e:.3f} "
                     f"< {0.1 * gdsp:.2f}, {elapsed:.0f}s < 120s")
    assert lo <= gdsp <= hi
    assert congo_e < 0.1 * gdsp
    assert elapsed < 120.0


def test_criterion_04_cost_orderings_across_panels(criterion_report):
    """Final mean cumulative costs keep the qualitative ordering in all three regimes."""
    t0 = time.perf_counter()
    panels = {}
    for label, d, sigma, delta, m, k_b in (
        ("noiseless-d50", 50, 0.0, 1e-5, 24, 72),
        ("noisy-d50", 50, 0.001, 0.05, 24, 72),
        ("noisy-d100", 100, 0.001, 0.05, 30, 180),
    ):
        kw = dict(seeds=range(50), d=d, R=100.0, sigma=sigma, delta=delta, m=m)
        panels[label] = {
            "gd": mean_final_cost("gd", **kw),
            "congo-e": mean_final_cost("congo-e", **kw),
            "congo-b": mean_final_cost("congo-b", k=k_b, **kw),
            "gdsp": mean_final_cost("gdsp", k=m, **kw),
        }
    elapsed = time.perf_counter() - t0

    left = panels["noiseless-d50"]
    left_ok = left["gd"] <= left["congo-e"] <= 1.10 * left["gd"] \
        and left["congo-e"] < left["congo-b"] < left["gdsp"]
    ratios = {}
    noisy_ok = True
    for label in ("noisy-d50", "noisy-d100"):
        p = panels[label]
        ratios[label] = p["congo-e"] / p["gd"]
        noisy_ok = noisy_ok and abs(ratios[label] - 1.0) <= 0.15 and p["congo-e"] < p["gdsp"]
    passed = left_ok and noisy_ok and elapsed < 600.0
    criterion_report(4, "cumulative cost orderings", passed,
                     f"E/GD {left['congo-e'] / left['gd']:.4f} <= 1.10 and E<B<GDSP; "
                     f"noisy E/GD {ratios['noisy-d50']:.4f}, {ratios['noisy-d100']:.4f} "
                     f"within 15%, {elapsed:.0f}s < 600s")
    assert left_ok
    assert noisy_ok
    assert elapsed < 600.0


def test_criterion_05_measurement_count_sweep(criterion_report, error_sweep):
    """Error collapses once m crosses the recovery threshold; the m=13..15 band is reported."""
    errors, _ = error_sweep
    low_band = float(np.mean([errors[m] for m in range(6, 11)]))
    high_band = float(np.mean([errors[m] for m in range(16, 25)]))
    ratio = high_band / low_band
    anomaly = ", ".join(f"m={m}: {errors[m]:.2f}" for m in (13, 14, 15))
    passed = ratio < 0.05
    criterion_report(5, "measurement count sweep", passed,
                     f"high-m error {100 * ratio:.2f}% of low-m (< 5%); reported {anomaly}")
    assert ratio < 0.05


def test_criterion_06_sublinear_regret(criterion_report):
    """Regret against the hindsight optimum grows sublinearly in the horizon."""
    t0 = time.perf_counter()
    d, s, R = 50, 5, 50.0
    prof = smoothness_bounds(R, s)
    means = {}
    for T in (100, 400, 1600):
        regrets = []
        for seed in range(20):
            env = QuadraticAdversary(QuadraticAdversaryConfig(dimension=d, sparsity=s, radius=R))
            cfg = OptimizerConfig(name="congo-e", schedule=ConstantRate(1.0 / np.sqrt(T)),
                                  delta=1e-5, sparsity=s, m=24, smoothness=prof)
            records = run_online(cfg, env, T, seed)
            _, best = hindsight_optimum(env.functions, env.constraint_set)
            regrets.append(float(np.sum([r.cost for r in records])) - best)
        means[T] = float(np.mean(regrets))
    slope = float(np.polyfit(np.log(list(means)), np.log(list(means.values())), 1)[0])
    elapsed = time.perf_counter() - t0
    passed = slope < 0.75 and all(v > 0 for v in means.values()) and elapsed < 900.0
    criterion_report(6, "sublinear regret", passed,
                     f"log-log slope {slope:.3f} < 0.75 over T in (100, 400, 1600), "
                     f"{elapsed:.0f}s < 900s")
    assert slope < 0.75
    assert all(v > 0 for v in means.values())
    assert elapsed < 900.0


def test_criterion_07_queueing_calibration(criterion_report):
    """Simulated sojourn times match M/M/1 and tandem closed forms within 15%."""
    t0 = time.perf_counter()
    cfg = SimConfig(initial_allocation=1.0)  # the windows use only its default spans
    single = Topology(num_queues=1, routes={"job1": (0,)})
    tandem = Topology(num_queues=2, routes={"job1": (0, 1)})
    mix = {"job1": 1.0}
    single_vals, tandem_vals = [], []
    for seed in range(30):
        rng = np.random.default_rng([seed, 1])
        single_vals.append(
            simulate_window(single, 0.5, mix, np.array([0.9]), cfg, rng).mean_latency
        )
        rng = np.random.default_rng([seed, 1])
        tandem_vals.append(
            simulate_window(tandem, 0.5, mix, np.array([0.9, 0.9]), cfg, rng).mean_latency
        )
    mm1 = float(np.mean(single_vals))
    two = float(np.mean(tandem_vals))
    elapsed = time.perf_counter() - t0
    passed = abs(mm1 / 2.0 - 1.0) <= 0.15 and abs(two / 4.0 - 1.0) <= 0.15 and elapsed < 30.0
    criterion_report(7, "queueing calibration", passed,
                     f"M/M/1 {mm1:.3f} vs 2.0, tandem {two:.3f} vs 4.0 (both within 15%), "
                     f"{elapsed:.1f}s < 30s")
    assert abs(mm1 / 2.0 - 1.0) <= 0.15
    assert abs(two / 4.0 - 1.0) <= 0.15
    assert elapsed < 30.0


def test_criterion_08_queueing_network_comparison(criterion_report):
    """On the congested 15-queue preset the sparse estimator beats both dense baselines."""
    t0 = time.perf_counter()
    spec = load_spec(find_preset("jackson-complex-fixed"))
    table = run_experiment(spec, output_dir=None, jobs=os.cpu_count(), plot=False)
    aggregate = table.aggregate()
    e_curve = aggregate["congo-e"][0]
    nsgd_curve = aggregate["nsgd"][0]
    sgdsp_curve = aggregate["sgdsp"][0]
    margins = nsgd_curve[19:] - e_curve[19:]  # rounds are 1-indexed
    violations = int(np.sum(margins <= 0.0))
    final_gap = float(sgdsp_curve[-1] - e_curve[-1])
    elapsed = time.perf_counter() - t0
    passed = violations == 0 and final_gap > 0.0 and elapsed < 1200.0
    criterion_report(8, "queueing network comparison", passed,
                     f"E<NSGD at all t>=20 (worst margin {float(margins.min()):+.1f}), "
                     f"E vs SGDSP at t=100 {final_gap:+.1f}, {elapsed:.0f}s < 1200s")
    assert violations == 0
    assert final_gap > 0.0
    assert elapsed < 1200.0


def test_criterion_09_invariants(criterion_report, tmp_path):
    """Projection laws, iterate feasibility, exact query budgets, reproducible CSVs."""
    t0 = time.perf_counter()

    # projection idempotence and non-expansiveness, 1000 random cases
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(1000):
        d = int(rng.integers(1, 12))
        if i % 2 == 0:
            cset = Ball(center=rng.normal(size=d), radius=float(rng.uniform(0.1, 5.0)))
        else:
            lower = rng.normal(size=d)
            cset = Box(lower=lower, upper=lower + rng.uniform(0.0, 4.0, size=d))
        p, q = rng.normal(size=d) * 10.0, rng.normal(size=d) * 10.0
        pp, qq = cset.project(p), cset.project(q)
        worst = max(worst, float(np.linalg.norm(cset.project(pp) - pp)))
        assert np.linalg.norm(cset.project(pp) - pp) <= 1e-12
        assert np.linalg.norm(pp - qq) <= np.linalg.norm(p - q) + 1e-12
        assert cset.contains(pp, tol=1e-12)

    # per-round query budgets, exact for every optimizer
    prof = smoothness_bounds(10.0, 2)
    T = 6
    expected = {"gd": 0, "congo-e": 6, "congo-z": 6, "congo-b": 5,
                "gdsp": 5, "sgdsp": 5, "nsgd": 13}
    budgets_ok = True
    for name, per_round in expected.items():
        env = QuadraticAdversary(QuadraticAdversaryConfig(dimension=12, sparsity=2, radius=10.0))
        cfg = OptimizerConfig(name=name, schedule=ConstantRate(0.05), delta=1e-4,
                              sparsity=2, m=5, k=4, smoothness=prof)
        records = run_online(cfg, env, T, seed=0)
        for r in records:
            assert env.constraint_set.contains(r.x, tol=1e-9)
        total = int(np.sum([r.queries for r in records]))
        budgets_ok = budgets_ok and total == per_round * T
        assert total == per_round * T, f"{name}: {total} != {per_round * T}"

    # byte-identical artifacts on re-run, independent of the worker count
    def spec():
        cfg = QuadraticAdversaryConfig(dimension=12, sparsity=2, radius=10.0)
        opts = [
            OptimizerConfig(name=n, schedule=ConstantRate(0.05), delta=1e-4,
                            sparsity=2, m=5, k=4, smoothness=prof)
            for n in ("gd", "congo-e", "gdsp")
        ]
        return ExperimentSpec(name="det", kind="quadratic",
                              make_environment=lambda: QuadraticAdversary(cfg),
                              optimizers=opts, horizon=5, seeds=(0, 1, 2))

    run_experiment(spec(), output_dir=tmp_path / "a", jobs=1, plot=False)
    run_experiment(spec(), output_dir=tmp_path / "b", jobs=3, plot=False)
    identical = (tmp_path / "a" / "raw.csv").read_bytes() == (tmp_path / "b" / "raw.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    passed = identical and budgets_ok
    criterion_report(9, "invariant suites", passed,
                     f"1000 projection cases (worst drift {worst:.1e}), exact query budgets, "
                     f"byte-identical CSVs, {elapsed:.0f}s")
    assert identical


def test_criterion_10_robustness_presets(criterion_report):
    """Approximate sparsity and overestimated sparsity both leave the method ahead."""
    t0 = time.perf_counter()

    # off-support mass at 1/d of the on-support scale
    env_extra = dict(fixed_constant=2.0, approx_scale=0.01)
    kw = dict(seeds=range(50), d=100, R=100.0, env_extra=env_extra)
    m = prescribe_m(5, 100)
    gd = mean_final_cost("gd", m=m, **kw)
    congo_e = mean_final_cost("congo-e", m=m, **kw)
    gdsp = mean_final_cost("gdsp", m=m, k=m, **kw)
    e_excess, gdsp_excess = congo_e - gd, gdsp - gd

    # sparsity overestimates: given s from 10 up to 20 against a true s of 10
    wrong_kw = dict(seeds=range(50), d=100, s=10, R=100.0,
                    env_extra=dict(fixed_constant=2.0))
    gd_wrong = mean_final_cost("gd", m=47, **wrong_kw)
    excesses = {
        s_given: mean_final_cost("congo-e", m=prescribe_m(s_given, 100), s_given=s_given,
                                 **wrong_kw) - gd_wrong
        for s_given in range(10, 21)
    }
    values = np.array(list(excesses.values()))
    # relative spread, floored at 1% of the baseline cost so a near-zero mean
    # excess (the estimator matching gd) reads as stable rather than dividing
    # by nothing
    spread = float((values.max() - values.min()) / max(abs(values.mean()), 0.01 * abs(gd_wrong)))
    elapsed = time.perf_counter() - t0
    passed = e_excess < gdsp_excess and spread < 0.25
    criterion_report(10, "robustness presets", passed,
                     f"approx-sparsity excess E {e_excess:.1f} < GDSP {gdsp_excess:.1f}; "
                     f"wrong-s spread {spread:.4f} < 0.25, {elapsed:.0f}s")
    assert e_excess < gdsp_excess
    assert spread < 0.25
