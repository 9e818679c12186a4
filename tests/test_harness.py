"""Experiment runner, CSV artifacts, and the SVG plot."""

import functools
import os
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from congo.core import Ball, Box, ConfigurationError
from congo.harness import (
    AGGREGATE_COLUMNS,
    RAW_COLUMNS,
    SWEEP_COLUMNS,
    ExperimentSpec,
    run_experiment,
    run_sweep,
)
from congo.env_quadratic import QuadraticAdversary, QuadraticAdversaryConfig, smoothness_bounds
from congo.optimizers import OptimizerConfig, StepSize, run_online
from congo.sensing import ValueOracle, pointwise


class TinyQuadEnv:
    """Deterministic strongly convex bowl over a ball; exact gradients available."""

    def __init__(self, d=4):
        self.constraint_set = Ball(center=np.zeros(d), radius=5.0)
        self._d = d

    @property
    def dim(self):
        return self._d

    def reset(self, seed):
        rng = np.random.default_rng([seed, 0])
        return self.constraint_set.project(rng.normal(size=self._d))

    def begin_round(self, t):
        pass

    def incur(self, x):
        return float(x @ x)

    def oracle(self):
        return ValueOracle(pointwise(lambda x: float(x @ x)))

    def exact_gradient(self, x):
        return 2.0 * np.asarray(x)

    def gradient_offset(self):
        return None

    def instability_correction(self, x):
        raise ConfigurationError("stable environment")


class NoGradientEnv(TinyQuadEnv):
    """Same bowl but the exact gradient is hidden; one NaN cost at round 2."""

    def __init__(self, d=3):
        super().__init__(d)
        self.constraint_set = Box(lower=np.zeros(d), upper=np.full(d, 9.0))
        self._t = 0

    def reset(self, seed):
        self._t = 0
        return np.full(self._d, 2.0)

    def begin_round(self, t):
        self._t = t

    def incur(self, x):
        if self._t == 2:
            return float("nan")
        return float(np.sum(x))

    def exact_gradient(self, x):
        return None

    def instability_correction(self, x):
        return self.constraint_set.project(np.asarray(x) + 0.5)


def opt(name, **kw):
    base = dict(schedule=StepSize(0.05), delta=1e-4, sparsity=2, m=3)
    base.update(kw)
    return OptimizerConfig(name=name, **base)


def quad_spec(optimizers, seeds=(0, 1), horizon=5):
    return ExperimentSpec(
        name="tiny",
        kind="quadratic",
        make_environment=TinyQuadEnv,
        optimizers=optimizers,
        horizon=horizon,
        seeds=seeds,
    )


def assert_no_child_left():
    # waitpid(-1) raises only when this process has no child at all, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_run_experiment_grid_and_artifacts(tmp_path):
    spec = quad_spec([opt("gd"), opt("congo-e"), opt("gdsp")])
    table = run_experiment(spec, output_dir=tmp_path)
    assert len(table.runs) == 6
    assert table.optimizers() == ["congo-e", "gd", "gdsp"]
    # results arrive sorted regardless of scheduling order
    keys = [(r.optimizer, r.seed) for r in table.runs]
    assert keys == sorted(keys)

    header, rows = read_csv(tmp_path / "raw.csv")
    assert header == list(RAW_COLUMNS)
    assert len(rows) == 3 * 2 * 5
    agg_header, agg_rows = read_csv(tmp_path / "aggregate.csv")
    assert agg_header == list(AGGREGATE_COLUMNS)
    assert len(agg_rows) == 3 * 5
    assert (tmp_path / "plot.svg").exists()


def test_aggregate_matches_independent_recomputation(tmp_path):
    spec = quad_spec([opt("gd"), opt("nsgd")], seeds=(0, 1, 2), horizon=4)
    table = run_experiment(spec, output_dir=tmp_path, plot=False)
    _, rows = read_csv(tmp_path / "raw.csv")
    _, agg_rows = read_csv(tmp_path / "aggregate.csv")

    cum = {}
    for name, seed, t, _, cum_cost, *_ in rows:
        cum.setdefault((name, int(t)), []).append(float(cum_cost))
    for name, t, mean_text, std_text in agg_rows:
        values = np.array(cum[(name, int(t))])
        assert float(mean_text) == pytest.approx(values.mean(), abs=1e-9)
        assert float(std_text) == pytest.approx(values.std(), abs=1e-9)  # ddof=0


def test_raw_csv_floats_round_trip_exactly(tmp_path):
    spec = quad_spec([opt("gd")], seeds=(0,), horizon=3)
    table = run_experiment(spec, output_dir=tmp_path, plot=False)
    run = table.runs[0]
    _, rows = read_csv(tmp_path / "raw.csv")
    for i, row in enumerate(rows):
        assert float(row[3]) == run.costs[i]
        assert float(row[4]) == run.cum_costs[i]
        assert row[7] in ("0", "1")


def test_rerun_is_byte_identical_across_jobs(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # 4 processes on any host
    spec = quad_spec([opt("congo-e"), opt("congo-z")], seeds=(0, 1, 2))
    run_experiment(spec, output_dir=tmp_path / "serial", jobs=1, plot=False)
    run_experiment(spec, output_dir=tmp_path / "forked", jobs=4, plot=False)
    serial = (tmp_path / "serial" / "raw.csv").read_bytes()
    forked = (tmp_path / "forked" / "raw.csv").read_bytes()
    assert serial == forked


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_results_equal_the_online_records_bit_for_bit(monkeypatch, jobs):
    # the acceptance battery reads its statistics from these arrays
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # jobs=2 forks a child on any host
    env_cfg = QuadraticAdversaryConfig(dimension=50, sparsity=5, radius=50.0)
    optimizers = [
        OptimizerConfig(name=name, schedule=StepSize(0.1), delta=1e-5, sparsity=5, m=24,
                        smoothness=smoothness_bounds(50.0, 5))
        for name in ("congo-e", "congo-b", "gdsp")
    ]
    spec = ExperimentSpec(
        name="quad",
        kind="quadratic",
        make_environment=functools.partial(QuadraticAdversary, env_cfg),
        optimizers=optimizers,
        horizon=5,
        seeds=(0, 1, 2),
    )
    table = run_experiment(spec, jobs=jobs, plot=False)
    assert [(r.optimizer, r.seed) for r in table.runs] == [
        (name, seed) for name in ("congo-b", "congo-e", "gdsp") for seed in (0, 1, 2)
    ]
    for run in table.runs:
        cfg = next(c for c in optimizers if c.name == run.optimizer)
        records = run_online(cfg, QuadraticAdversary(env_cfg), 5, run.seed)
        assert all(r.grad_error is not None for r in records)
        assert run.costs.tobytes() == np.array([r.cost for r in records]).tobytes()
        assert run.grad_errors.tobytes() == np.array([r.grad_error for r in records]).tobytes()
        assert run.queries.tobytes() == np.array([r.queries for r in records], dtype=int).tobytes()
        assert run.clipped.tobytes() == np.array([r.clipped for r in records], dtype=bool).tobytes()


# (--jobs, os.cpu_count(), seeds, children forked): 3 optimizers per seed
@pytest.mark.parametrize("jobs, cores, seeds, children", [
    (4, 2, (0, 1), 1),
    (2, 8, (0, 1), 1),
    (8, 8, (0,), 2),
    (4, 1, (0, 1), 0),
    (1, 8, (0, 1), 0),
])
def test_process_pool_never_exceeds_cores_or_runs(monkeypatch, jobs, cores, seeds, children):
    forks = []
    real_fork = os.fork

    def recording_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    table = run_experiment(quad_spec([opt("gd"), opt("congo-e"), opt("gdsp")], seeds=seeds), jobs=jobs)
    assert forks == [os.getpid()] * children  # the calling process plays runs too
    assert len(table.runs) == 3 * len(seeds)
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_that_raises_stops_the_experiment(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # jobs=2 forks a child on any host
    spec = ExperimentSpec(
        name="mixed",
        kind="quadratic",
        make_environment=NoGradientEnv,
        optimizers=[opt("gd"), opt("nsgd")],  # gd cannot run without exact gradients
        horizon=4,
        seeds=(0, 1),
    )
    with pytest.raises(ConfigurationError) as raised:
        run_experiment(spec, output_dir=tmp_path, jobs=jobs, plot=False)
    # the error comes back with its own type and message, whichever process raised it
    assert type(raised.value) is ConfigurationError
    assert str(raised.value) == "gd needs an environment with exact gradients"
    assert not (tmp_path / "raw.csv").exists()
    assert_no_child_left()


def wait_for(path, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path} never appeared")
        time.sleep(0.001)


@pytest.mark.parametrize("raiser", ["caller", "child"])
def test_an_error_in_either_process_stops_the_grid_and_reaps_every_child(tmp_path, monkeypatch, raiser):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # jobs=2 forks a child on any host
    caller, started = os.getpid(), tmp_path / "child-started"

    class FailingEnv(TinyQuadEnv):
        def reset(self, seed):
            if os.getpid() != caller:
                started.touch()
                if raiser == "child":
                    raise ConfigurationError("a child's run failed")
                time.sleep(0.2)  # still mid-run when the caller raises
            else:
                wait_for(started)  # the child has surely claimed a run
                if raiser == "caller":
                    raise ConfigurationError("the caller's run failed")
            return super().reset(seed)

    spec = quad_spec([opt("gd"), opt("congo-e")], seeds=(0, 1))
    spec.make_environment = FailingEnv
    with pytest.raises(ConfigurationError) as raised:
        run_experiment(spec, output_dir=tmp_path / "out", jobs=2)
    if raiser == "child":
        assert str(raised.value) == "a child's run failed"
        # the child's traceback rides along as the cause
        assert "in run process" in str(raised.value.__cause__) and "in reset" in str(raised.value.__cause__)
    else:
        assert str(raised.value) == "the caller's run failed"
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


def test_a_child_that_dies_without_reporting_fails_the_call(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # jobs=2 forks a child on any host
    caller, started = os.getpid(), tmp_path / "child-started"

    class DyingEnv(TinyQuadEnv):
        def reset(self, seed):
            if os.getpid() != caller:
                started.touch()
                os._exit(3)  # dies mid-run, as a killed child would
            wait_for(started)  # the child has surely claimed a run
            return super().reset(seed)

    spec = quad_spec([opt("gd"), opt("congo-e")], seeds=(0, 1))
    spec.make_environment = DyingEnv
    with pytest.raises(RuntimeError, match=r"^run process \d+ exited with status 3 before reporting its runs$"):
        run_experiment(spec, output_dir=tmp_path / "out", jobs=2)
    assert not (tmp_path / "out").exists()
    assert_no_child_left()


def test_more_processes_than_cores_play_each_run_once(monkeypatch):
    # 4 processes race for 800 one-round runs; a lost update of the shared claim
    # counter would play a run twice and drop another
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    spec = quad_spec([opt("gd"), opt("nsgd")], seeds=tuple(range(400)), horizon=1)
    start = time.monotonic()
    table = run_experiment(spec, jobs=4)
    assert time.monotonic() - start < 30.0
    assert [(r.optimizer, r.seed) for r in table.runs] == [
        (name, seed) for name in ("gd", "nsgd") for seed in range(400)
    ]
    assert_no_child_left()


def test_missing_gradient_and_nan_cost_columns(tmp_path):
    spec = ExperimentSpec(
        name="nangrid",
        kind="quadratic",
        make_environment=NoGradientEnv,
        optimizers=[opt("nsgd")],
        horizon=4,
        seeds=(0,),
    )
    run_experiment(spec, output_dir=tmp_path, plot=False)
    _, rows = read_csv(tmp_path / "raw.csv")
    assert all(row[6] == "" for row in rows)  # no exact gradient: empty, not zero
    nan_row = rows[1]
    assert nan_row[3] == "nan"
    assert nan_row[5] == "0" and nan_row[7] == "1"
    # cumulative cost skips the unstable round instead of absorbing the NaN
    assert float(rows[2][4]) == pytest.approx(float(rows[0][4]) + float(rows[2][3]))


def test_plot_is_wellformed_svg_with_a_full_legend(tmp_path):
    spec = quad_spec([opt("gd"), opt("congo-e"), opt("gdsp"), opt("nsgd"), opt("sgdsp")])
    run_experiment(spec, output_dir=tmp_path)
    root = ET.parse(tmp_path / "plot.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    texts = root.findall(f"{ns}text")
    labels = [el.text for el in texts]
    assert len(polylines) == 5
    # the legend labels are the only unanchored texts: one per optimizer, its bare name
    legend = [el.text for el in texts if "text-anchor" not in el.attrib]
    assert legend == ["congo-e", "gd", "gdsp", "nsgd", "sgdsp"]
    # each label's swatch has its curve's colour
    swatches = [el.get("stroke") for el in root.findall(f"{ns}line") if el.get("stroke-width") == "3"]
    assert swatches == [el.get("stroke") for el in polylines]
    assert "round" in labels and "mean cumulative cost" in labels
    bands = [el for el in root.findall(f"{ns}polygon")]
    assert len(bands) == 5


def test_plot_single_optimizer(tmp_path):
    spec = quad_spec([opt("gd")], seeds=(0,), horizon=3)
    run_experiment(spec, output_dir=tmp_path)
    root = ET.parse(tmp_path / "plot.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polyline")) == 1
    assert [el.text for el in root.findall(f"{ns}text") if "text-anchor" not in el.attrib] == ["gd"]


def test_spec_validation_errors():
    with pytest.raises(ConfigurationError):
        quad_spec([]).validate()
    with pytest.raises(ConfigurationError):
        quad_spec([opt("gd")], seeds=()).validate()
    with pytest.raises(ConfigurationError):
        quad_spec([opt("gd")], horizon=0).validate()
    with pytest.raises(ConfigurationError):
        quad_spec([opt("gd"), opt("gd")]).validate()
    with pytest.raises(ConfigurationError):
        run_experiment(quad_spec([opt("gd")]), jobs=0)


def test_duplicate_seeds_are_rejected(tmp_path):
    # one seed twice would write duplicate raw.csv rows and weigh it twice in aggregate.csv
    spec = quad_spec([opt("gd")], seeds=(0, 1, 0))
    with pytest.raises(ConfigurationError, match=r"\[experiment\] seeds: the list has duplicates"):
        run_experiment(spec, output_dir=tmp_path)
    assert not (tmp_path / "raw.csv").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_each_process_builds_one_environment(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # jobs=2 forks a child on any host
    log = tmp_path / "built"
    log.touch()

    def make():
        with log.open("a") as f:  # a file, so that a build in a child shows too
            f.write(f"{os.getpid()}\n")
        return TinyQuadEnv()

    spec = quad_spec([opt("gd"), opt("congo-e"), opt("gdsp")], seeds=(0, 1, 2))
    spec.make_environment = make
    table = run_experiment(spec, jobs=jobs)
    # built once, in this process; a forked child inherits its own copy
    assert log.read_text().split() == [str(os.getpid())]
    assert [(r.optimizer, r.seed) for r in table.runs] == [
        (name, seed) for name in ("congo-e", "gd", "gdsp") for seed in (0, 1, 2)
    ]


def test_run_sweep_writes_the_summary(tmp_path):
    spec_text = """
[experiment]
kind = quadratic
name = mini
rounds = 3
seeds = 0 1
optimizers = gd congo-e

[quadratic]
dimension = 10
sparsity = 2
radius = 5.0

[optimizer.defaults]
learning_rate = 0.1
delta = 1e-4
sparsity = 2
m = 6

[sweep]
parameter = m
values = 4 8
"""
    from congo.scenario import load_sweep

    path = tmp_path / "mini.cfg"
    path.write_text(spec_text)
    plan = load_sweep(path)
    results = run_sweep(plan, output_dir=tmp_path / "out")
    assert [value for value, _ in results] == [4, 8]
    header, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 4  # two values x two optimizers
    for row in rows:
        assert row[0] == "m"
        assert row[2] in ("gd", "congo-e")
        assert float(row[5]) == float(row[5])  # final cost parses
        assert float(row[3]) >= 0.0  # quadratic env has exact gradients
