"""Which congo call sites the traced run wraps, and the per-layer metrics.

Every layer is named after the ``src/congo`` module that defines it. The
wrap points are the bindings the callers use (see tracer.py), all patched
from here, so ``src/`` is never edited. Timing metrics of a layer that a
workload never calls read 0, next to a ``calls`` count of 0.
"""

from __future__ import annotations

import math
import statistics

from tracer import Span, Target, self_times

# name -> (unit, better); the order here is the order printed
PER_LAYER = {
    "scenario.load_spec_ms": ("ms", "lower"),
    "env_jackson.simulate_window.calls": ("count", "lower"),
    "env_jackson.simulate_window.ms_p50": ("ms", "lower"),
    "env_jackson.simulate_window.ms_p90": ("ms", "lower"),
    "env_jackson.simulate_window.cpu_s": ("s", "lower"),
    "env_jackson.simulate_window.wait_s": ("s", "lower"),
    "env_jackson.departures": ("count", "higher"),
    "env_jackson.unstable_frac": ("ratio", "lower"),
    "env_quadratic.value.calls": ("count", "lower"),
    "env_quadratic.value.us_mean": ("us", "lower"),
    "env_quadratic.begin_round.us_mean": ("us", "lower"),
    "sensing.oracle.calls": ("count", "lower"),
    "sensing.oracle.self_us_mean": ("us", "lower"),
    "sensing.measure_single_row.self_ms": ("ms", "lower"),
    "sensing.measure_combined.self_ms": ("ms", "lower"),
    "sensing.draw_matrix.us_mean": ("us", "lower"),
    "recovery.cosamp.calls": ("count", "lower"),
    "recovery.cosamp.ms_p50": ("ms", "lower"),
    "recovery.cosamp.ms_p90": ("ms", "lower"),
    "recovery.cosamp.wait_s": ("s", "lower"),
    "recovery.basis_pursuit.calls": ("count", "lower"),
    "recovery.basis_pursuit.ms_p50": ("ms", "lower"),
    "recovery.basis_pursuit.ms_p90": ("ms", "lower"),
    "recovery.postprocess.clipped_frac": ("ratio", "lower"),
    "optimizers.run_online.self_ms_per_round": ("ms", "lower"),
    "optimizers.congo_step.ms_p50": ("ms", "lower"),
    "optimizers.gdsp_step.ms_p50": ("ms", "lower"),
    "optimizers.nsgd_step.ms_p50": ("ms", "lower"),
    "optimizers.queries_per_round": ("queries/round", "lower"),
    "optimizers.clipped_round_frac": ("ratio", "lower"),
    "optimizers.grad_error_mean": ("norm", "lower"),
    "core.gd_update.us_mean": ("us", "lower"),
    "harness.task_s_p50": ("s", "lower"),
    "harness.task_s_max": ("s", "lower"),
    "harness.parallel_eff": ("ratio", "higher"),
    "harness.emit_csv_ms": ("ms", "lower"),
    "harness.emit_plot_ms": ("ms", "lower"),
    "harness.raw_csv_bytes": ("bytes", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _run_summary(records) -> tuple[int, int, int, float, int]:
    """(rounds, queries, clipped rounds, summed grad error, rounds with one)."""
    errors = [r.grad_error for r in records if r.grad_error is not None]
    return (
        len(records),
        sum(r.queries for r in records),
        sum(1 for r in records if r.clipped),
        math.fsum(errors),
        len(errors),
    )


def targets(congo) -> list[Target]:
    """The call-site bindings of every traced layer; ``congo`` is the package."""
    cli, harness, opt = congo.cli, congo.harness, congo.optimizers
    return [
        Target(cli, "load_spec", "scenario.load_spec"),
        Target(cli, "run_experiment", "harness.run_experiment"),
        Target(harness, "run_online", "optimizers.run_online", _run_summary),
        Target(harness, "emit_csv", "harness.emit_csv"),
        Target(harness, "emit_plot", "harness.emit_plot"),
        Target(opt, "congo_step", "optimizers.congo_step"),
        Target(opt, "gdsp_step", "optimizers.gdsp_step"),
        Target(opt, "nsgd_step", "optimizers.nsgd_step"),
        Target(opt, "gd_update", "core.gd_update"),
        Target(opt, "draw_matrix", "sensing.draw_matrix"),
        Target(opt, "measure_single_row", "sensing.measure_single_row"),
        Target(opt, "measure_combined", "sensing.measure_combined"),
        Target(opt, "cosamp", "recovery.cosamp"),
        Target(opt, "basis_pursuit", "recovery.basis_pursuit"),
        Target(opt, "postprocess", "recovery.postprocess", lambda est: int(est.clipped)),
        Target(congo.sensing.ValueOracle, "__call__", "sensing.oracle"),
        Target(congo.env_quadratic.QuadraticFunction, "value", "env_quadratic.value"),
        Target(congo.env_quadratic.QuadraticAdversary, "begin_round", "env_quadratic.begin_round"),
        Target(congo.env_jackson, "simulate_window", "env_jackson.simulate_window", lambda obs: obs.departures),
    ]


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def metrics(spans: list[Span], wall_s: float, jobs: int, raw_csv_bytes: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of one traced ``congo run`` call of ``wall_s`` seconds.

    ``overhead_frac`` is measured by the caller: traced over untraced wall
    time of the same workload, minus 1.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = self_times(spans)

    def of(name):
        return by_name.get(name, [])

    def durations(name, scale=1.0):
        return [s.duration * scale for s in of(name)]

    windows = of("env_jackson.simulate_window")
    departures = [s.attrs for s in windows if s.attrs is not None]
    post = [s.attrs for s in of("recovery.postprocess") if s.attrs is not None]
    runs = [s for s in of("optimizers.run_online") if s.attrs is not None]
    rounds = sum(s.attrs[0] for s in runs)
    grad_n = sum(s.attrs[4] for s in runs)
    cosamp = of("recovery.cosamp")
    bp_ms = durations("recovery.basis_pursuit", 1e3)
    tasks = durations("optimizers.run_online")

    out = {
        "scenario.load_spec_ms": sum(durations("scenario.load_spec", 1e3)),
        "env_jackson.simulate_window.calls": len(windows),
        "env_jackson.simulate_window.ms_p50": _quantile([s.duration * 1e3 for s in windows], 0.5),
        "env_jackson.simulate_window.ms_p90": _quantile([s.duration * 1e3 for s in windows], 0.9),
        "env_jackson.simulate_window.cpu_s": math.fsum(s.cpu for s in windows),
        "env_jackson.simulate_window.wait_s": math.fsum(s.wait for s in windows),
        "env_jackson.departures": sum(departures),
        "env_jackson.unstable_frac": (sum(1 for d in departures if d == 0) / len(departures)) if departures else 0.0,
        "env_quadratic.value.calls": len(of("env_quadratic.value")),
        "env_quadratic.value.us_mean": _mean(durations("env_quadratic.value", 1e6)),
        "env_quadratic.begin_round.us_mean": _mean(durations("env_quadratic.begin_round", 1e6)),
        "sensing.oracle.calls": len(of("sensing.oracle")),
        "sensing.oracle.self_us_mean": _mean([own[s.sid] * 1e6 for s in of("sensing.oracle")]),
        "sensing.measure_single_row.self_ms": _mean([own[s.sid] * 1e3 for s in of("sensing.measure_single_row")]),
        "sensing.measure_combined.self_ms": _mean([own[s.sid] * 1e3 for s in of("sensing.measure_combined")]),
        "sensing.draw_matrix.us_mean": _mean(durations("sensing.draw_matrix", 1e6)),
        "recovery.cosamp.calls": len(cosamp),
        "recovery.cosamp.ms_p50": _quantile([s.duration * 1e3 for s in cosamp], 0.5),
        "recovery.cosamp.ms_p90": _quantile([s.duration * 1e3 for s in cosamp], 0.9),
        "recovery.cosamp.wait_s": math.fsum(s.wait for s in cosamp),
        "recovery.basis_pursuit.calls": len(bp_ms),
        "recovery.basis_pursuit.ms_p50": _quantile(bp_ms, 0.5),
        "recovery.basis_pursuit.ms_p90": _quantile(bp_ms, 0.9),
        "recovery.postprocess.clipped_frac": (sum(post) / len(post)) if post else 0.0,
        "optimizers.run_online.self_ms_per_round": (
            math.fsum(own[s.sid] for s in runs) * 1e3 / rounds if rounds else 0.0
        ),
        "optimizers.congo_step.ms_p50": _quantile(durations("optimizers.congo_step", 1e3), 0.5),
        "optimizers.gdsp_step.ms_p50": _quantile(durations("optimizers.gdsp_step", 1e3), 0.5),
        "optimizers.nsgd_step.ms_p50": _quantile(durations("optimizers.nsgd_step", 1e3), 0.5),
        "optimizers.queries_per_round": sum(s.attrs[1] for s in runs) / rounds if rounds else 0.0,
        "optimizers.clipped_round_frac": sum(s.attrs[2] for s in runs) / rounds if rounds else 0.0,
        "optimizers.grad_error_mean": math.fsum(s.attrs[3] for s in runs) / grad_n if grad_n else 0.0,
        "core.gd_update.us_mean": _mean(durations("core.gd_update", 1e6)),
        "harness.task_s_p50": _quantile(tasks, 0.5),
        "harness.task_s_max": max(tasks, default=0.0),
        "harness.parallel_eff": math.fsum(s.cpu for s in of("optimizers.run_online")) / (jobs * wall_s),
        "harness.emit_csv_ms": sum(durations("harness.emit_csv", 1e3)),
        "harness.emit_plot_ms": sum(durations("harness.emit_plot", 1e3)),
        "harness.raw_csv_bytes": raw_csv_bytes,
        "trace.overhead_frac": overhead_frac,
    }
    assert list(out) == list(PER_LAYER), "metric table and computed metrics disagree"
    return out
