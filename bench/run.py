#!/usr/bin/env python3
"""Benchmark of ``congo run`` on three frozen workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload quad-d50 --seed 0 --seconds 30 --trace 0

Each run calls the user's entry point in process,
``congo.cli.main(["run", <cfg>, "--seeds", ..., "--jobs", ..., "--out", <tmp>])``,
repeatedly for about ``--seconds`` seconds, checks every repeat's
artifacts, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, from one call per scenario seed at a time, cycling
through the workload's seed block; ``--trace 1`` alternates untraced and
traced calls on the whole block and reports the per-layer metrics of
layers.py. See README.md next to this file for the workloads, the metrics
and what each layer should move.

Every end-to-end timing is scaled to a fixed host speed by the reference
loop of refloop.py, run on the same thread just before and after it.

congo is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits non-zero before measuring anything. Artifacts go to
a temporary directory under ``.bench_tmp/`` that is removed at the end.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from refloop import REF_UNIT_S, reference
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TMP_ROOT = ROOT / ".bench_tmp"

# raw.csv header as the README documents it, kept apart from congo's own constant
RAW_COLUMNS = ["optimizer", "seed", "round", "cost", "cum_cost", "queries", "grad_error", "clipped"]

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 7

# reference units each set-up interpreter runs before and after its set-up
SETUP_REF_UNITS = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_run_frac": "ratio",
    "final_cum_cost": "cost",
}


@dataclass(frozen=True)
class Workload:
    """A frozen scenario file plus the seed block and ``--jobs`` of one run.

    ``ref_units`` reference units run between single-seed calls, on
    ``jobs`` threads, about a fifth of a call's time.
    """

    cfg: Path
    seeds_per_run: int
    jobs: int
    ref_units: int

    def seeds(self, seed: int) -> list[int]:
        """Benchmark seed n selects the n-th block of scenario seeds."""
        return list(range(seed * self.seeds_per_run, (seed + 1) * self.seeds_per_run))

    def roster(self) -> tuple[list[str], int]:
        """(optimizer names, rounds) as the scenario file declares them."""
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(self.cfg, encoding="utf-8")
        return parser["experiment"]["optimizers"].split(), int(parser["experiment"]["rounds"])


WORKLOADS = {
    "quad-d50": Workload(BENCH_DIR / "workloads" / "quad-d50.cfg", 10, 1, 12),
    "jackson-complex": Workload(BENCH_DIR / "workloads" / "jackson-complex.cfg", 4, 1, 12),
    "jackson-large-jobs2": Workload(BENCH_DIR / "workloads" / "jackson-large-jobs2.cfg", 4, 2, 24),
}

SETUP_CODE = """\
import sys, time
from refloop import reference
before = reference(int(sys.argv[2]))
start = time.perf_counter()
import congo
from congo.scenario import load_spec
load_spec(sys.argv[1]).make_environment()
took = time.perf_counter() - start
print(took, (before + reference(int(sys.argv[2]))) / 2)
"""


def import_congo():
    """Import congo from this checkout's src/, or exit non-zero."""
    package = ROOT / "src" / "congo"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark from a checkout of the repository")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import congo
    import congo.cli

    return congo


def setup_times(cfg: Path, repeats: int) -> list[tuple[float, float]]:
    """(seconds, reference unit seconds) for fresh interpreters to import congo,
    load the spec and build its environment; each interpreter runs the
    reference itself, since a child may run on another core than its parent."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(BENCH_DIR), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(cfg), str(SETUP_REF_UNITS)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        took, ref = map(float, done.stdout.split()[-2:])
        times.append((took, ref))
    return times


@dataclass
class Repeat:
    """One ``congo run`` call and what the output check found in its artifacts."""

    seeds: tuple[int, ...]
    wall_s: float
    runs_ok: int
    runs_expected: int
    final_cum_cost: float
    digest: str
    raw_csv_bytes: int
    problems: list[str]


def congo_run(congo, workload: Workload, seeds: list[int], out: Path) -> tuple[int, float, str]:
    argv = [
        "run", str(workload.cfg), "--seeds", ",".join(map(str, seeds)),
        "--jobs", str(workload.jobs), "--out", str(out),
    ]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = time.perf_counter()
        code = congo.cli.main(argv)
        wall = time.perf_counter() - start
    return code, wall, captured.getvalue()


def check_artifacts(out: Path, workload: Workload, seeds: list[int]) -> tuple[int, float, list[str]]:
    """(complete runs, congo-e's mean final cum_cost, problems) from raw.csv.

    A run is complete when raw.csv holds its rounds 1..R in order; a failed
    run leaves no rows. cum_cost must equal nancumsum(cost) of its run.
    """
    optimizers, rounds = workload.roster()
    problems = [f"{name} missing" for name in ("aggregate.csv", "plot.svg") if not (out / name).is_file()]
    with open(out / "raw.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != RAW_COLUMNS:
            return 0, math.nan, problems + ["raw.csv header differs from the documented columns"]
        rows: dict[tuple[str, int], list[list[str]]] = {}
        for row in reader:
            rows.setdefault((row[0], int(row[1])), []).append(row)
    expected = {(name, seed) for name in optimizers for seed in seeds}
    problems += [f"unexpected run {key} in raw.csv" for key in sorted(set(rows) - expected)]
    complete = 0
    finals = []
    for key in sorted(expected & set(rows)):
        run = rows[key]
        if [int(r[2]) for r in run] != list(range(1, rounds + 1)):
            problems.append(f"run {key}: rounds are not 1..{rounds}")
            continue
        costs = [float(r[3]) for r in run]
        cum = [float(r[4]) for r in run]
        if any(int(r[5]) < 0 for r in run) or any(r[7] not in ("0", "1") for r in run):
            problems.append(f"run {key}: bad queries or clipped value")
            continue
        running = 0.0
        for cost, reported in zip(costs, cum):
            running += 0.0 if math.isnan(cost) else cost
            if not math.isclose(running, reported, rel_tol=1e-12, abs_tol=1e-9):
                problems.append(f"run {key}: cum_cost {reported!r} is not nancumsum(cost) {running!r}")
                break
        else:
            complete += 1
            if key[0] == "congo-e":
                finals.append(cum[-1])
    if len(finals) != len(seeds):
        problems.append("congo-e did not complete every seed")
    return complete, statistics.fmean(finals) if finals else math.nan, problems


def one_repeat(congo, workload: Workload, seeds: list[int], out: Path) -> Repeat:
    code, wall, output = congo_run(congo, workload, seeds, out)
    key = tuple(seeds)
    expected = len(workload.roster()[0]) * len(seeds)
    if code != 0:
        return Repeat(key, wall, 0, expected, math.nan, "", 0, [f"congo run exited {code}: {output.strip()}"])
    if not (out / "raw.csv").is_file():
        return Repeat(key, wall, 0, expected, math.nan, "", 0, ["congo run wrote no raw.csv"])
    complete, final, problems = check_artifacts(out, workload, seeds)
    raw = (out / "raw.csv").read_bytes()
    return Repeat(key, wall, complete, expected, final, hashlib.sha256(raw).hexdigest(), len(raw), problems)


def repeat_until(seconds: float, minimum: int, step) -> list:
    """Call step() at least ``minimum`` times, then while one more fits in ``seconds``."""
    results, costs = [], []
    start = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - start + statistics.median(costs) <= seconds:
        t0 = time.perf_counter()
        results.append(step())
        costs.append(time.perf_counter() - t0)
    return results


def machine_info() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
    }


def recorded_digests(workload: str, kind: str) -> dict[str, str]:
    """Recorded raw.csv digests: ``kind`` "block" is keyed by benchmark seed
    (one call on the whole block), "seed" by scenario seed (one call each)."""
    path = BENCH_DIR / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(kind, {})


def digest_verdict(repeats: list, workload: str, seed: int, trace: bool) -> str:
    """One line comparing this run's raw.csv digests with the recorded ones."""
    found = {r.seeds: r.digest for r in repeats}
    if trace:
        recorded = recorded_digests(workload, "block").get(str(seed))
        digest = found[tuple(WORKLOADS[workload].seeds(seed))]
        if recorded is None:
            verdict = f"no digest recorded for seed {seed}"
        else:
            verdict = f"{'equals' if digest == recorded else 'differs from'} the digest recorded for seed {seed}"
        return f"raw.csv sha256 {digest or '-'} ({verdict}; information only)"
    recorded = recorded_digests(workload, "seed")
    same = sum(1 for (s,), d in found.items() if recorded.get(str(s)) == d)
    missing = sum(1 for (s,) in found if str(s) not in recorded)
    listing = ", ".join(f"{s}:{d[:12] or '-'}" for (s,), d in sorted(found.items()))
    return (f"raw.csv sha256 per scenario seed {listing} ({same} of {len(found)} equal the recorded digests, "
            f"{missing} not recorded; information only)")


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for (ru_maxrss is KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def measure(name: str, seed: int, seconds: float, trace: bool, tmp_dir: Path) -> dict:
    """Run one workload for about ``seconds`` seconds; return the result object."""
    workload = WORKLOADS[name]
    seeds = workload.seeds(seed)
    load_before = os.getloadavg()
    congo = import_congo()
    counter = itertools.count()

    def untraced() -> Repeat:
        return one_repeat(congo, workload, seeds, tmp_dir / f"run-{next(counter)}")

    if not trace:
        setup = setup_times(workload.cfg, SETUP_REPEATS)
        cycle = itertools.cycle(seeds)
        refs = [reference(workload.ref_units, workload.jobs)]

        def single_seed() -> Repeat:
            repeat = one_repeat(congo, workload, [next(cycle)], tmp_dir / f"run-{next(counter)}")
            refs.append(reference(workload.ref_units, workload.jobs))
            return repeat

        repeats = repeat_until(seconds, len(seeds), single_seed)
        # each call's reference: the mean of the loops just before and after it
        timed = [((before + after) / 2, r) for before, after, r in zip(refs, refs[1:], repeats)]
    else:
        setup = []
        tracer = None  # the last traced repeat's; earlier spans are dropped

        def pair() -> tuple[Repeat, Repeat]:
            nonlocal tracer
            plain = untraced()
            tracer = Tracer()
            with tracer.patched(layers.targets(congo)):
                traced = one_repeat(congo, workload, seeds, tmp_dir / f"run-{next(counter)}")
            return plain, traced

        traced_pairs = repeat_until(seconds, 1, pair)
        repeats = [p for pair_ in traced_pairs for p in pair_]

    problems = [p for r in repeats for p in r.problems]
    for key in sorted({r.seeds for r in repeats}):
        digests = {r.digest for r in repeats if r.seeds == key}
        if len(digests) > 1:
            problems.append(f"raw.csv of seeds {list(key)} differs between repeats: {len(digests)} distinct digests")
    attempted = sum(r.runs_expected for r in repeats)
    failed = attempted - sum(r.runs_ok for r in repeats)
    if failed:
        problems.append(f"{failed} of {attempted} runs failed")

    if trace:
        last = traced_pairs[-1][1]
        tracer.write(tmp_dir / "spans.csv")
        untraced_wall = statistics.median(p.wall_s for p, _ in traced_pairs)
        traced_wall = statistics.median(t.wall_s for _, t in traced_pairs)
        values = layers.metrics(
            tracer.spans, last.wall_s, workload.jobs, last.raw_csv_bytes, traced_wall / untraced_wall - 1.0
        )
        units = {key: unit for key, (unit, _) in layers.PER_LAYER.items()}
    else:
        # per scenario seed: its calls' wall time over their reference unit time
        calls: dict[int, list[tuple[float, float]]] = {}
        for ref, r in timed:
            calls.setdefault(r.seeds[0], []).append((r.wall_s, ref))
        per_seed = [math.fsum(w for w, _ in c) / math.fsum(ref for _, ref in c) * REF_UNIT_S
                    for c in calls.values()]
        finals = {r.seeds: r.final_cum_cost for r in reversed(repeats)}
        values = {
            "setup_s": statistics.median(s / ref * REF_UNIT_S for s, ref in setup),
            "wall_s": math.fsum(per_seed),
            "peak_rss_mb": peak_rss_mb(),
            "ok_run_frac": (attempted - failed) / attempted,
            "final_cum_cost": statistics.fmean(finals.values()),
        }
        units = END_TO_END

    info = machine_info()
    info["loadavg_before"] = load_before
    info["loadavg_after"] = os.getloadavg()
    print(f"machine: {json.dumps(info)}")
    print(f"workload {name}: seeds {seeds[0]}-{seeds[-1]}, jobs {workload.jobs}, {len(repeats)} calls, "
        f"wall_s {[round(r.wall_s, 3) for r in repeats]}")
    if not trace:
        unit_s = statistics.median([ref for ref, _ in timed] + [ref for _, ref in setup])
        unscaled = math.fsum(statistics.fmean(w for w, _ in c) for c in calls.values())
        print(f"measured, before scaling to the reference speed: wall_s {unscaled:.3f} (mean call per seed, summed), "
            f"setup_s {[round(s, 3) for s, _ in setup]}, "
            f"reference unit {unit_s * 1e3:.2f} ms (median; nominal {REF_UNIT_S * 1e3:g} ms)")
    print(digest_verdict(repeats, name, seed, trace))
    if trace and tracer.missing:
        print(f"not traced, binding missing: {', '.join(tracer.missing)}")
    for problem in problems:
        print(f"check failed: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=TMP_ROOT) as tmp:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    finally:
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
