"""Acceptance battery: ten numbered criteria, each with pinned tolerances.

Every test prints one PASS/FAIL line through criterion_report (replayed in a
terminal section after the run). Criteria 03-06 and 10 run packaged presets,
so editing a preset moves its criterion. The gradient-error sweep is computed
once in a module fixture and shared by the criteria that read it; per-m
timings are kept so each criterion's runtime budget covers only its own work.
The seed grids run through run_experiment on os.cpu_count() processes, the
caller and its forked children; by the determinism contract their results do
not depend on the process count.
"""

import dataclasses
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
from congo.optimizers import OptimizerConfig, StepSize, run_online
from congo.recovery import cosamp, rescale
from congo.scenario import PRESET_ENV_VAR, find_preset, load_spec, load_sweep, parse_seed_list
from congo.sensing import ValueOracle, draw_matrix, measure_single_row, pointwise


def unit_sparse(rng, d, s):
    g = np.zeros(d)
    supp = rng.choice(d, s, replace=False)
    g[supp] = rng.choice([-1.0, 1.0], size=s)
    return g


def preset(name, seeds=None):
    """A packaged preset's spec, or a sweep preset's specs by swept value, on seeds if
    given (as --seeds sets them); a budget other than the bounds' fails, naming the preset."""
    path = find_preset(name)
    spec = load_spec(path)
    plan = load_sweep(path) if spec.sweep else None
    for one in plan.specs if plan else [spec]:
        if seeds is not None:
            one.seeds = parse_seed_list(seeds)
        if one.horizon != 100 or one.seeds != tuple(range(50)):
            pytest.fail(f"preset {name}: {one.horizon} rounds on {len(one.seeds)} seeds; the "
                        "criterion's bounds were set on 100 rounds on seeds 0-49")
    return dict(zip(plan.values, plan.specs)) if plan else spec


def run(spec, drop=(), **changes):
    """spec's grid without the optimizers named in drop; changes replace spec fields."""
    changes.setdefault("optimizers", [cfg for cfg in spec.optimizers if cfg.name not in drop])
    return run_experiment(dataclasses.replace(spec, **changes), jobs=os.cpu_count(), plot=False)


def mean_grad_error(runs):
    # the quadratic adversary has an exact gradient every round, so no NaN
    return float(np.mean(np.concatenate([r.grad_errors for r in runs])))


def mean_final_cost(runs):
    # the sum of the costs, not cum_costs[-1]: nancumsum rounds differently
    return float(np.mean([float(np.sum(r.costs)) for r in runs]))


def test_a_preset_off_the_calibrated_budget_fails_by_name(tmp_path, monkeypatch):
    text = find_preset("quadratic-noiseless").read_text().replace("rounds = 100", "rounds = 50")
    (tmp_path / "quadratic-noiseless.cfg").write_text(text)
    monkeypatch.setenv(PRESET_ENV_VAR, str(tmp_path))  # shadows the packaged preset
    with pytest.raises(pytest.fail.Exception, match="preset quadratic-noiseless: 50 rounds on 50"):
        preset("quadratic-noiseless")
    # the sweep ships seeds 0-19; criterion 10 runs it at 0-49
    with pytest.raises(pytest.fail.Exception, match="preset sweep-given-sparsity: 100 rounds on 20"):
        preset("sweep-given-sparsity")


@pytest.fixture(scope="module")
def error_sweep():
    """CONGO-E mean gradient error per measurement count, 50 seeds each, with timings.

    Only the counts that criteria 03 and 05 read: m = 11 and 12 are skipped.
    """
    errors, timings = {}, {}
    for m, spec in preset("sweep-measurement-rows").items():
        if m in (11, 12):
            continue
        t0 = time.perf_counter()
        errors[m] = mean_grad_error(run(spec).runs)
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
    base = preset("sweep-measurement-rows")[24]  # the error sweep's spec at m = 24
    gdsp_cfg = dataclasses.replace(base.optimizers[0], name="gdsp", k=25)  # 26 samples per round
    gdsp = mean_grad_error(run(base, optimizers=[gdsp_cfg]).runs)
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
    for label in ("noiseless", "noisy-d50", "noisy-d100"):
        table = run(preset(f"quadratic-{label}"), drop=("congo-z",))
        panels[label] = {name: mean_final_cost(table.runs_of(name)) for name in table.optimizers()}
    elapsed = time.perf_counter() - t0

    left = panels["noiseless"]
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
    base = preset("sweep-measurement-rows")[24]
    means = {}
    for T in (100, 400, 1600):
        cfg = dataclasses.replace(base.optimizers[0], schedule=StepSize(1 / np.sqrt(T)))
        regrets = []
        for r in run(base, optimizers=[cfg], horizon=T, seeds=tuple(range(20))).runs:
            # the round stream depends on the seed alone: replay it for the reference
            env = base.make_environment()
            env.reset(r.seed)
            for t in range(1, T + 1):
                env.begin_round(t)
            _, best = hindsight_optimum(env.functions, env.constraint_set)
            regrets.append(float(np.sum(r.costs)) - best)
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

    # per-round query budgets, exact for every optimizer, on a 12-dimension toy
    T = 6
    expected = {"gd": 0, "congo-e": 6, "congo-z": 6, "congo-b": 5,
                "gdsp": 5, "sgdsp": 5, "nsgd": 13}
    toy = QuadraticAdversaryConfig(dimension=12, sparsity=2, radius=10.0)
    configs = {name: OptimizerConfig(name=name, schedule=StepSize(0.05), delta=1e-4, sparsity=2,
                                     m=5, k=4, smoothness=smoothness_bounds(10.0, 2))
               for name in expected}
    budgets_ok = True
    for name, per_round in expected.items():
        env = QuadraticAdversary(toy)
        records = run_online(configs[name], env, T, seed=0)
        for r in records:
            assert env.constraint_set.contains(r.x, tol=1e-9)
        total = int(np.sum([r.queries for r in records]))
        budgets_ok = budgets_ok and total == per_round * T
        assert total == per_round * T, f"{name}: {total} != {per_round * T}"

    # byte-identical artifacts on re-run, independent of the process count
    spec = ExperimentSpec(name="det", kind="quadratic", horizon=5, seeds=(0, 1, 2),
                          make_environment=lambda: QuadraticAdversary(toy),
                          optimizers=[configs[n] for n in ("gd", "congo-e", "gdsp")])
    run_experiment(spec, output_dir=tmp_path / "a", jobs=1, plot=False)
    run_experiment(spec, output_dir=tmp_path / "b", jobs=3, plot=False)
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
    approx = run(preset("quadratic-approx-sparsity"))
    gd, congo_e, gdsp = (mean_final_cost(approx.runs_of(n)) for n in ("gd", "congo-e", "gdsp"))
    e_excess, gdsp_excess = congo_e - gd, gdsp - gd

    # sparsity overestimates: given s from 10 up to 20 against a true s of 10
    sweep = preset("sweep-given-sparsity", seeds="0-49")
    gd_wrong = mean_final_cost(run(sweep[10], drop=("congo-e",)).runs)  # gd ignores the given s
    excesses = {
        s_given: mean_final_cost(run(spec, drop=("gd",)).runs) - gd_wrong
        for s_given, spec in sweep.items()
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
