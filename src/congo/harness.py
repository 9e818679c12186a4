"""Experiment runner: seed fan-out, CSV artifacts, and a static SVG plot.

run_experiment plays every (optimizer, seed) pair through the online loop,
collects per-round trajectories, and writes three artifacts: a raw CSV (one
row per optimizer/seed/round), an aggregate CSV (mean and std of cumulative
cost over seeds), and an SVG plot of the aggregate curves. Identical specs
reproduce byte-identical raw CSVs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .core import ConfigurationError
from .optimizers import OptimizerConfig, run_online

RAW_COLUMNS = ("optimizer", "seed", "round", "cost", "cum_cost", "queries", "grad_error", "clipped")
AGGREGATE_COLUMNS = ("optimizer", "round", "mean_cum_cost", "std_cum_cost")
SWEEP_COLUMNS = (
    "parameter",
    "value",
    "optimizer",
    "mean_grad_error",
    "std_grad_error",
    "mean_final_cum_cost",
)


@dataclass
class ExperimentSpec:
    """Everything run_experiment needs: environment factory, racers, budget."""

    name: str
    kind: str
    make_environment: Callable[[], object]
    optimizers: list[OptimizerConfig]
    horizon: int
    seeds: tuple[int, ...]
    sweep: tuple[str, tuple] | None = None

    def validate(self) -> None:
        if not self.optimizers:
            raise ConfigurationError("[experiment] optimizers: need at least one")
        if not self.seeds:
            raise ConfigurationError("[experiment] seeds: need at least one")
        if self.horizon < 1:
            raise ConfigurationError(f"[experiment] rounds: must be >= 1, got {self.horizon}")
        names = [cfg.name for cfg in self.optimizers]
        if len(set(names)) != len(names):
            raise ConfigurationError("[experiment] optimizers: duplicate optimizer name")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("[experiment] seeds: the list has duplicates")


@dataclass
class SweepPlan:
    name: str
    parameter: str
    values: tuple
    specs: list[ExperimentSpec]


@dataclass
class RunResult:
    """One optimizer/seed trajectory."""

    optimizer: str
    seed: int
    costs: np.ndarray
    cum_costs: np.ndarray
    queries: np.ndarray
    grad_errors: np.ndarray  # NaN where the environment has no exact gradient
    clipped: np.ndarray


@dataclass
class ResultTable:
    horizon: int
    runs: list[RunResult] = field(default_factory=list)

    def optimizers(self) -> list[str]:
        return sorted({run.optimizer for run in self.runs})

    def runs_of(self, optimizer: str) -> list[RunResult]:
        return [r for r in self.runs if r.optimizer == optimizer]

    def aggregate(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per optimizer: (mean, std) of the cumulative-cost curve over seeds.

        std is the population standard deviation (ddof=0), matching what an
        independent recomputation from the raw CSV produces with numpy
        defaults.
        """
        out = {}
        for name in self.optimizers():
            stack = np.stack([run.cum_costs for run in self.runs_of(name)])
            out[name] = (stack.mean(axis=0), stack.std(axis=0))
        return out


def run_experiment(
    spec: ExperimentSpec,
    output_dir: str | Path | None = None,
    jobs: int = 1,
    plot: bool = True,
) -> ResultTable:
    """Run the full (optimizer x seed) grid and write artifacts.

    A run that raises stops the grid: the error propagates and nothing is
    written. With output_dir set, writes raw.csv + aggregate.csv (+ plot.svg
    unless plot is False) into it. Runs fan out over min(jobs, os.cpu_count(),
    number of runs) forked worker processes. Each worker inherits the spec
    from the fork, so the spec is never pickled; only task indices go out and
    RunResults come back. Every process plays its runs on one environment,
    built once here and inherited by each worker. Tasks go out seed-major, so
    the optimizers of a seed follow each other and a quadratic adversary
    replays the seed's functions instead of drawing them again. Results are
    sorted by (optimizer, seed) whatever order they finished in.
    """
    spec.validate()
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    tasks = [(cfg, seed) for seed in spec.seeds for cfg in spec.optimizers]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    env = spec.make_environment()
    if workers == 1:
        results = [_play(spec, env, cfg, seed) for cfg, seed in tasks]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a 2-worker pool starts in about 20 ms instead of
        # 0.5 s, and workers inherit specs that could not be pickled (lambdas)
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_inherit,
            initargs=(spec, tasks, env),
        ) as pool:
            results = list(pool.map(_play_task, range(len(tasks))))
    table = ResultTable(horizon=spec.horizon, runs=sorted(results, key=lambda r: (r.optimizer, r.seed)))
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        emit_csv(table, output_dir / "raw.csv", output_dir / "aggregate.csv")
        if plot:
            emit_plot(table, output_dir / "plot.svg")
    return table


def _play(spec: ExperimentSpec, env, cfg: OptimizerConfig, seed: int) -> RunResult:
    """One optimizer/seed run, flattened into arrays.

    env is the process's one environment; run_online resets it to the seed,
    and an environment's reset leaves nothing of an earlier run behind.
    """
    records = run_online(cfg, env, spec.horizon, seed)
    costs = np.array([r.cost for r in records])
    return RunResult(
        optimizer=cfg.name,
        seed=seed,
        costs=costs,
        cum_costs=np.nancumsum(costs),
        queries=np.array([r.queries for r in records], dtype=int),
        grad_errors=np.array(
            [np.nan if r.grad_error is None else r.grad_error for r in records]
        ),
        clipped=np.array([r.clipped for r in records], dtype=bool),
    )


# the spec, task list and environment a forked worker inherited from run_experiment
_inherited: tuple[ExperimentSpec, list[tuple[OptimizerConfig, int]], object] | None = None


def _inherit(spec: ExperimentSpec, tasks: list[tuple[OptimizerConfig, int]], env) -> None:
    global _inherited
    _inherited = (spec, tasks, env)


def _play_task(index: int) -> RunResult:
    spec, tasks, env = _inherited
    cfg, seed = tasks[index]
    return _play(spec, env, cfg, seed)


def run_sweep(
    plan: SweepPlan,
    output_dir: str | Path | None = None,
    jobs: int = 1,
) -> list[tuple[object, ResultTable]]:
    """Run each sweep value's spec; write one summary CSV over all values."""
    results = [(value, run_experiment(spec, output_dir=None, jobs=jobs)) for value, spec in zip(plan.values, plan.specs)]
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        emit_sweep_csv(plan, results, output_dir / "sweep.csv")
    return results


def _fmt(value: float) -> str:
    """Full-precision decimal text; round-trips exactly through float()."""
    return repr(float(value))


def emit_csv(table: ResultTable, raw_path: str | Path, aggregate_path: str | Path) -> None:
    """Write the raw per-round rows and the per-round seed aggregate.

    Raw columns: optimizer, seed, round, cost, cum_cost, queries, grad_error,
    clipped — sorted by (optimizer, seed, round). grad_error stays empty when
    the environment offers no exact gradient; it is missing, not zero. An
    unstable round's cost is the text nan while cum_cost carries the running
    sum over the stable rounds. clipped is 1 or 0.
    """
    lines = [",".join(RAW_COLUMNS)]
    for run in table.runs:
        # one tolist per array: formatting Python scalars, not a numpy scalar per cell
        columns = zip(
            run.costs.tolist(),
            run.cum_costs.tolist(),
            run.queries.tolist(),
            run.grad_errors.tolist(),
            run.clipped.tolist(),
        )
        for t, (cost, cum_cost, queries, err, clipped) in enumerate(columns, start=1):
            err = "" if math.isnan(err) else _fmt(err)
            lines.append(
                f"{run.optimizer},{run.seed},{t},{_fmt(cost)},"
                f"{_fmt(cum_cost)},{int(queries)},{err},{int(clipped)}"
            )
    Path(raw_path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    agg_lines = [",".join(AGGREGATE_COLUMNS)]
    for name, (mean, std) in sorted(table.aggregate().items()):
        for t, (mu, sd) in enumerate(zip(mean.tolist(), std.tolist()), start=1):
            agg_lines.append(f"{name},{t},{_fmt(mu)},{_fmt(sd)}")
    Path(aggregate_path).write_text("\n".join(agg_lines) + "\n", encoding="utf-8")


def emit_sweep_csv(plan: SweepPlan, results, path: str | Path) -> None:
    """Per (value, optimizer): mean/std of gradient error and mean final cost."""
    lines = [",".join(SWEEP_COLUMNS)]
    for value, table in results:
        for name in table.optimizers():
            runs = table.runs_of(name)
            errs = np.concatenate([r.grad_errors for r in runs])
            errs = errs[~np.isnan(errs)]
            mean_err = _fmt(errs.mean()) if errs.size else ""
            std_err = _fmt(errs.std()) if errs.size else ""
            final = _fmt(np.mean([r.cum_costs[-1] for r in runs]))
            lines.append(f"{plan.parameter},{value},{name},{mean_err},{std_err},{final}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# fixed series palette; cycles past ten optimizers
_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_W, _H = 860, 520
_ML, _MR, _MT, _MB = 78, 24, 24, 56


def emit_plot(table: ResultTable, path: str | Path) -> None:
    """Standalone SVG: mean cumulative cost per optimizer with a ±1 std band."""
    aggregate = table.aggregate()
    # Python ints and floats: the coordinate arithmetic below runs on Python scalars
    rounds = list(range(1, table.horizon + 1))
    lo = min(float((mean - std).min()) for mean, std in aggregate.values())
    hi = max(float((mean + std).max()) for mean, std in aggregate.values())
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.04 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(t):
        return _ML + (t - 1) / max(table.horizon - 1, 1) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - lo) / (hi - lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="13">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    for tick in _ticks(lo, hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{_tick_label(tick)}</text>'
        )
    for tick in _ticks(1, table.horizon, prefer_int=True):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 20}" text-anchor="middle">{_tick_label(tick)}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>'
    )
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" text-anchor="middle">round</text>'
    )
    parts.append(
        f'<text x="20" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(_MT + _H - _MB) / 2:.0f})">mean cumulative cost</text>'
    )

    for idx, (name, (mean, std)) in enumerate(sorted(aggregate.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        upper = [f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(rounds, (mean + std).tolist())]
        lower = [f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(rounds[::-1], (mean - std)[::-1].tolist())]
        parts.append(
            f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>'
        )
        line = [f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(rounds, mean.tolist())]
        parts.append(
            f'<polyline points="{" ".join(line)}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _MT + 18 + idx * 18
        parts.append(
            f'<line x1="{_ML + 12}" y1="{ly - 4}" x2="{_ML + 40}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        # names are ALL_OPTIMIZERS entries, none of which needs XML escaping
        parts.append(f'<text x="{_ML + 46}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _ticks(lo: float, hi: float, count: int = 5, prefer_int: bool = False) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 step."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / count
    magnitude = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if raw <= step:
            break
    if prefer_int:
        step = max(1.0, round(step))
    first = np.ceil(lo / step) * step
    ticks = list(np.arange(first, hi + step / 2, step))
    return ticks or [lo]


def _tick_label(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"
