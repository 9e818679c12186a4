"""Command-line exit codes, the modules a run imports, and the README's examples."""

import csv
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from congo import cli
from congo.cli import main
from congo.scenario import PRESET_ENV_VAR, find_preset, load_spec, load_sweep, packaged_preset_dir

JACKSON = """
[experiment]
kind = jackson
rounds = 2
seeds = 0
optimizers = congo-e

[topology]
queues = 2
route.a = 0 1

[workload]
rate = 2.0
mix = a:1.0

[simulation]
warmup_seconds = 1
measure_seconds = 2
initial_allocation = 4

[optimizer.defaults]
learning_rate = 0.1
delta = 0.5
sparsity = 1
m = 2
lipschitz = 6.0
smoothness = 1.0
"""

QUADRATIC = """
[experiment]
kind = quadratic
rounds = 2
seeds = 0
optimizers = congo-e

[quadratic]
dimension = 10
sparsity = 2
radius = 5.0

[optimizer.defaults]
learning_rate = 0.1
delta = 0.5
m = auto
"""

TWO_JOBS = JACKSON.replace("route.a = 0 1", "route.a = 0 1\nroute.b = 0")
WORKLOAD = "[workload]\nrate = 2.0\nmix = a:1.0\n"
RATE_SEGMENTS = "[workload]\nkind = variable-rate\nsegments = 1-1:2.0 2-2:0\nmix = a:1.0\n"
MIX_DRIFT = (
    "[workload]\nkind = variable-mix\nrate = 2.0\ninitial_mix = a:1.0\nfinal_mix = a:0.4\n"
    "start_round = 1\nend_round = 2\n"
)
OPT = "smoothness = 1.0"
SWEEP = QUADRATIC + "\n[sweep]\nparameter = m\nvalues = 4 6\n"

# spec errors that would otherwise surface only inside a run, or never: (spec,
# text of it to replace, its replacement, pattern the error message must match)
BAD_SPECS = {
    "zero-rate": (JACKSON, "rate = 2.0", "rate = 0", r"\[workload\] rate: must be finite and > 0"),
    "mix-short": (
        JACKSON, "mix = a:1.0", "mix = a:0.5", r"\[workload\] mix probabilities sum to 0.5"
    ),
    "mix-repeated-job": (
        TWO_JOBS, "mix = a:1.0", "mix = a:0.5 b:0.5 a:0.5",
        r"\[workload\] mix token 'a:0.5' names 'a' again",
    ),
    # job names are case-insensitive, as configparser folds the route.<job> keys
    "mix-repeated-job-other-case": (
        JACKSON, "mix = a:1.0", "mix = A:0.5 a:0.5",
        r"\[workload\] mix token 'a:0.5' names 'a' again",
    ),
    "mix-unknown-job": (
        JACKSON, "mix = a:1.0", "mix = b:1.0", r"\[workload\] mix references unknown job type 'b'"
    ),
    "fixed-support": (
        QUADRATIC, "radius = 5.0", "radius = 5.0\nfixed_support = true",
        r"\[quadratic\] fixed_support: unknown key",
    ),
    "start-fraction": (
        QUADRATIC, "radius = 5.0", "radius = 5.0\nstart_fraction = 0.5",
        r"\[quadratic\] start_fraction: unknown key",
    ),
    "recovery-tolerance": (
        JACKSON, OPT, OPT + "\nrecovery_tolerance = 0.01",
        r"\[optimizer\.defaults\] recovery_tolerance: unknown key",
    ),
    "recovery-max-iterations": (
        JACKSON, OPT, OPT + "\nrecovery_max_iterations = 20",
        r"\[optimizer\.defaults\] recovery_max_iterations: unknown key",
    ),
    # sparsity above the dimension fails named, before m = auto is prescribed
    "sparsity-over-dimension-auto-m": (
        QUADRATIC, "m = auto", "m = auto\nsparsity = 11",
        r"\[optimizer\.congo-e\] sparsity: need 1 <= sparsity <= dimension, got 11/10",
    ),
    "sparsity-over-dimension-given-m": (
        QUADRATIC, "m = auto", "m = 8\nsparsity = 11",
        r"\[optimizer\.congo-e\] sparsity: need 1 <= sparsity <= dimension, got 11/10",
    ),
    "sweep-delta": (
        SWEEP, "parameter = m", "parameter = delta",
        r"\[sweep\] parameter: 'delta' is not one of \('m', 'sparsity'\)",
    ),
    # sweep values parse like seeds
    "sweep-reversed-range": (
        SWEEP, "values = 4 6", "values = 3, 7-5", r"\[sweep\] values: bad token '7-5'"
    ),
    "sweep-duplicate": (
        SWEEP, "values = 4 6", "values = 4 4", r"\[sweep\] values: the list has duplicates"
    ),
    "sweep-negative": (
        SWEEP, "values = 4 6", "values = -4 6", r"\[sweep\] values: -4 is negative"
    ),
    "sweep-empty": (SWEEP, "values = 4 6", "values =", r"\[sweep\] values: the list is empty"),
    "zero-m": (JACKSON, "m = 2", "m = 0", r"\[optimizer\.congo-e\] m: must be >= 1, got 0"),
    "zero-k": (JACKSON, OPT, OPT + "\nk = 0", r"\[optimizer\.congo-e\] k: must be >= 1, got 0"),
    # the optimizer name picks the matrix distribution
    "distribution": (
        JACKSON, OPT, OPT + "\ndistribution = rademacher",
        r"\[optimizer\.defaults\] distribution: unknown key",
    ),
    "gd-on-jackson": (
        JACKSON, "optimizers = congo-e", "optimizers = congo-e gd", r"\[experiment\] optimizers: gd"
    ),
    "zero-segment-rate": (
        JACKSON, WORKLOAD, RATE_SEGMENTS, r"\[workload\] segments: rate of segment 2-2"
    ),
    "bad-final-mix": (
        JACKSON, WORKLOAD, MIX_DRIFT, r"\[workload\] final_mix probabilities sum to 0.4"
    ),
    "nan-weight": (
        JACKSON, "initial_allocation = 4", "initial_allocation = 4\nresource_weight = nan",
        r"\[simulation\] resource_weight: must be finite and >= 0",
    ),
    # numpy refuses a negative seed only once a run starts
    "negative-seed": (JACKSON, "seeds = 0", "seeds = -3", r"\[experiment\] seeds: -3 is negative"),
    # each non-finite value below loaded and then broke or silently changed the run
    "nan-delta": (
        JACKSON, "delta = 0.5", "delta = nan",
        r"\[optimizer\.congo-e\] delta: must be finite and > 0",
    ),
    "nan-learning-rate": (
        JACKSON, "learning_rate = 0.1", "learning_rate = nan",
        r"\[optimizer\.congo-e\] learning_rate: eta: must be finite and >= 0, got nan",
    ),
    "inf-step-factor": (
        JACKSON, "learning_rate = 0.1", "learning_rate = step:1.0:5:inf",
        r"\[optimizer\.congo-e\] learning_rate: factor: must be finite and > 0, got inf",
    ),
    "nan-inv-decay": (
        JACKSON, "learning_rate = 0.1", "learning_rate = inv:0.1:nan",
        r"\[optimizer\.congo-e\] learning_rate: decay: must be finite and >= 0, got nan",
    ),
    "nan-lipschitz": (
        JACKSON, "lipschitz = 6.0", "lipschitz = nan",
        r"\[optimizer\.congo-e\] lipschitz: must be finite and >= 0, got nan",
    ),
    "nan-smoothness": (
        JACKSON, "smoothness = 1.0", "smoothness = nan",
        r"\[optimizer\.congo-e\] smoothness: must be finite and >= 0, got nan",
    ),
    "nan-fixed-constant": (
        QUADRATIC, "radius = 5.0", "radius = 5.0\nfixed_constant = nan",
        r"\[quadratic\] fixed_constant: must be finite, got nan",
    ),
    # lipschitz and smoothness come as a pair; each case below once loaded with
    # one bound dropped or zeroed
    "smoothness-without-lipschitz": (
        QUADRATIC, "m = auto", "m = auto\nsmoothness = 123",
        r"\[optimizer\.congo-e\] lipschitz: missing required key \(smoothness is set",
    ),
    "auto-lipschitz-with-smoothness": (
        QUADRATIC, "m = auto", "m = auto\nlipschitz = auto\nsmoothness = 2.0",
        r"\[optimizer\.congo-e\] smoothness: 2\.0 would be ignored, because lipschitz = auto",
    ),
    "lipschitz-alone": (
        QUADRATIC, "m = auto", "m = auto\nlipschitz = 4.0",
        r"\[optimizer\.congo-e\] smoothness: missing required key \(lipschitz is set",
    ),
    "jackson-lipschitz-alone": (
        JACKSON, "smoothness = 1.0\n", "",
        r"\[optimizer\.congo-e\] smoothness: missing required key \(a jackson network",
    ),
    "jackson-no-bounds": (
        JACKSON, "lipschitz = 6.0\nsmoothness = 1.0\n", "",
        r"\[optimizer\.congo-e\] lipschitz: missing required key \(a jackson network",
    ),
    # each value below is checked only here: the per-round functions trust it
    "zero-rounds": (JACKSON, "rounds = 2", "rounds = 0", r"\[experiment\] rounds: must be >= 1, got 0"),
    "zero-sparsity-auto-m": (
        QUADRATIC, "m = auto", "m = auto\nsparsity = 0",
        r"\[optimizer\.congo-e\] sparsity: need 1 <= sparsity <= dimension, got 0/10",
    ),
    "zero-delta": (
        JACKSON, "delta = 0.5", "delta = 0",
        r"\[optimizer\.congo-e\] delta: must be finite and > 0, got 0\.0",
    ),
    "negative-smoothness": (
        JACKSON, OPT, "smoothness = -1",
        r"\[optimizer\.congo-e\] smoothness: must be finite and >= 0, got -1\.0",
    ),
    "negative-learning-rate": (
        JACKSON, "learning_rate = 0.1", "learning_rate = -0.1",
        r"\[optimizer\.congo-e\] learning_rate: eta: must be finite and >= 0, got -0\.1",
    ),
    "mix-negative": (
        TWO_JOBS, "mix = a:1.0", "mix = a:1.5 b:-0.5",
        r"\[workload\] mix probability for 'b': must be finite and >= 0, got -0\.5",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_specs_exit_2_before_any_run(case, tmp_path, capsys, monkeypatch):
    base, old, new, message = BAD_SPECS[case]
    assert old in base
    spec = tmp_path / f"{case}.cfg"
    spec.write_text(base.replace(old, new))
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("a run started"))
    assert main(["validate", str(spec)]) == 2
    assert main(["run", str(spec), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line in err:
        assert line.startswith("error: ") and re.search(message, line), line
    assert not (tmp_path / "run").exists()


# whole error lines: (spec, text to replace, its replacement, pattern of the full line)
FULL_LINES = {
    "zero-rate": (
        JACKSON, "rate = 2.0", "rate = 0",
        r"error: \[workload\] rate: must be finite and > 0, got 0\.0",
    ),
    "zero-segment-rate": (
        JACKSON, WORKLOAD, RATE_SEGMENTS,
        r"error: \[workload\] segments: rate of segment 2-2: must be finite and > 0, got 0\.0",
    ),
    "no-dimension": (
        QUADRATIC, "dimension = 10\n", "",
        r"error: \[quadratic\] dimension: missing required key",
    ),
    "unknown-simulation-key": (
        JACKSON, "warmup_seconds = 1", "warmup_second = 1",
        r"error: \[simulation\] warmup_second: unknown key \(known: correction_factor,"
        r" initial_allocation, initial_entry_allocation, lower_bound, measure_seconds,"
        r" resource_weight, upper_bound, warmup_seconds\)",
    ),
}


@pytest.mark.parametrize("case", sorted(FULL_LINES))
def test_bad_spec_error_lines_in_full(case, tmp_path, capsys):
    base, old, new, line = FULL_LINES[case]
    assert old in base
    spec = tmp_path / f"{case}.cfg"
    spec.write_text(base.replace(old, new))
    assert main(["validate", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(line, err[0]), err


def test_gd_on_jackson_makes_run_and_sweep_exit_2(tmp_path, capsys):
    spec = tmp_path / "gd-on-jackson.cfg"
    roster = JACKSON.replace("optimizers = congo-e", "optimizers = congo-e gd")
    spec.write_text(roster)
    assert main(["run", str(spec), "--out", str(tmp_path / "run"), "--no-plot"]) == 2
    spec.write_text(roster + "\n[sweep]\nparameter = m\nvalues = 1 2\n")
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 2
    assert "gd needs exact gradients" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "sweep").exists()

    spec.write_text(JACKSON)
    assert main(["run", str(spec), "--out", str(tmp_path / "ok"), "--no-plot"]) == 0
    assert len((tmp_path / "ok" / "raw.csv").read_text().splitlines()) == 1 + 2


def test_mixed_case_job_names_run_as_their_lower_case_spelling(tmp_path):
    spec, lower = tmp_path / "mixed.cfg", tmp_path / "lower.cfg"
    spec.write_text(JACKSON.replace("route.a = 0 1", "route.Web = 0 1").replace("a:1.0", "Web:1.0"))
    lower.write_text(JACKSON.replace("route.a = 0 1", "route.web = 0 1").replace("a:1.0", "web:1.0"))
    assert main(["validate", str(spec)]) == 0
    for path in (spec, lower):
        assert main(["run", str(path), "--out", str(tmp_path / path.stem), "--no-plot"]) == 0
    raw = (tmp_path / "mixed" / "raw.csv").read_bytes()
    assert len(raw.splitlines()) == 1 + 2
    assert raw == (tmp_path / "lower" / "raw.csv").read_bytes()


def test_empty_seeds_exit_2_and_write_nothing(tmp_path, capsys):
    spec, sweep = tmp_path / "spec.cfg", tmp_path / "sweep.cfg"
    spec.write_text(JACKSON)
    sweep.write_text(SWEEP)
    assert main(["run", str(spec), "--seeds", "", "--out", str(tmp_path / "run")]) == 2
    assert main(["sweep", str(sweep), "--seeds", " ", "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seeds: the list is empty"] * 2
    assert not (tmp_path / "run").exists() and not (tmp_path / "sweep").exists()


def test_empty_out_exit_2_and_write_nothing(tmp_path, capsys, monkeypatch):
    spec, sweep = tmp_path / "spec.cfg", tmp_path / "sweep.cfg"
    spec.write_text(JACKSON)
    sweep.write_text(SWEEP)
    monkeypatch.chdir(tmp_path)  # an empty --out once fell back to results/<name> here
    assert main(["run", str(spec), "--seeds", "0", "--out", ""]) == 2
    assert main(["sweep", str(sweep), "--out", " "]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --out: the path is empty"] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.cfg", "sweep.cfg"]


def test_a_spec_that_is_not_utf8_exits_2_and_lists_as_unreadable(tmp_path, capsys, monkeypatch):
    presets = tmp_path / "presets"
    presets.mkdir()
    spec = presets / "latin1.cfg"
    spec.write_bytes(SWEEP.replace("[experiment]\n", "[experiment]\nname = café\n").encode("latin-1"))
    out = ["--out", str(tmp_path / "out")]
    for argv in (["validate", str(spec)], ["run", str(spec), *out], ["sweep", str(spec), *out]):
        assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and len(set(err)) == 1
    assert err[0].startswith(f"error: {spec}: not a valid spec file (") and "decode byte 0xe9" in err[0]
    assert not (tmp_path / "out").exists()

    monkeypatch.setenv(PRESET_ENV_VAR, str(presets))
    assert main(["list-presets"]) == 0
    listed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["latin1", "unreadable", str(spec)] in listed


# sweeps whose base spec loads but whose swept specs do not: (text of SWEEP to
# replace, its replacement, pattern the error message must match)
BAD_SWEEP_VALUES = {
    "zero-m": ("values = 4 6", "values = 0 6", r"\[optimizer\.congo-e\] m: must be >= 1, got 0"),
    "sparsity-over-dimension": (
        "parameter = m\nvalues = 4 6", "parameter = sparsity\nvalues = 2 11",
        r"\[optimizer\.congo-e\] sparsity: need 1 <= sparsity <= dimension, got 11/10",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEP_VALUES))
def test_validate_rejects_what_sweep_rejects(case, tmp_path, capsys):
    old, new, message = BAD_SWEEP_VALUES[case]
    assert old in SWEEP
    spec = tmp_path / f"{case}.cfg"
    spec.write_text(SWEEP.replace(old, new))
    assert main(["validate", str(spec)]) == 2
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line in err:
        assert line.startswith("error: ") and re.search(message, line), line
    assert not (tmp_path / "sweep").exists()


# argv: comma-separated top-level packages, then the congo command line
RUN_AND_LIST_MODULES = """\
import sys
from congo.cli import main
assert main(sys.argv[2:]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] in sys.argv[1].split(",")))
"""


def last_line_of_fresh_run(code, *argv):
    """The last line that a fresh interpreter, with congo on its path, prints running code with argv."""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.splitlines()[-1]


def modules_after_run(base, packages, tmp_path, *flags):
    """The modules of packages that a fresh interpreter holds after one congo run of base."""
    spec = tmp_path / "spec.cfg"
    spec.write_text(base)
    return last_line_of_fresh_run(
        RUN_AND_LIST_MODULES, packages, "run", str(spec), "--out", str(tmp_path / "out"), *flags
    )


# argv: a Jackson spec, a quadratic spec, an output directory
RUN_EVERY_ROOT_FINDER = """\
import sys
import numpy as np
from congo.cli import main
from congo.core import Ball
from congo.env_quadratic import QuadraticFunction, hindsight_optimum
from congo.recovery import _min_residual_on_cap
jackson, quadratic, out = sys.argv[1:]
assert main(["run", jackson, "--out", out + "/jackson", "--no-plot"]) == 0
assert main(["run", quadratic, "--out", out + "/quadratic", "--no-plot"]) == 0
# the minimum-norm solution has norm sqrt(2), so the cap binds and the root-finder runs
gap, point = _min_residual_on_cap(np.eye(2), np.ones(2), 0.5)
assert abs(np.linalg.norm(point) - 0.5) < 1e-9
pull = QuadraticFunction(diag=np.zeros(2), linear=np.array([-1.0, 0.0]), constant=0.0)
x_star, _ = hindsight_optimum([pull], Ball(center=np.zeros(2), radius=3.0))
assert abs(x_star[0] - 3.0) < 1e-7
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_code_path_imports_scipy(tmp_path):
    # congo-e and congo-b runs, the capped ridge path and the hindsight
    # reference all find their roots with core.brent_root
    specs = []
    for name, text in (("jackson", JACKSON), ("quadratic", QUADRATIC.replace("congo-e", "congo-e congo-b"))):
        specs.append(tmp_path / f"{name}.cfg")
        specs[-1].write_text(text)
    assert last_line_of_fresh_run(RUN_EVERY_ROOT_FINDER, *map(str, specs), str(tmp_path / "out")) == "[]"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_serial_run_never_imports_the_process_pool(tmp_path, jobs):
    # two seeds, so --jobs 2 forks a child on a multi-core host: with os.fork,
    # not through multiprocessing
    flags = ("--seeds", "0-1", "--jobs", jobs)
    assert modules_after_run(JACKSON, "multiprocessing,concurrent", tmp_path, *flags) == "[]"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("base", [QUADRATIC, JACKSON], ids=["quadratic", "jackson"])
def test_a_plotted_run_loads_no_network_module(base, tmp_path, jobs):
    # a run writes its plot by hand, and forks its children without a
    # process pool, so nothing needs xml, http, email, ssl or socket
    flags = ("--seeds", "0-1", "--jobs", jobs)
    assert modules_after_run(base, "xml,http,email,ssl,socket", tmp_path, *flags) == "[]"


# a cut Jackson spec: two seeds of two optimizers, so --jobs 2 and 4 both fan out
FAN_OUT = JACKSON.replace("seeds = 0", "seeds = 0-1").replace("optimizers = congo-e", "optimizers = congo-e nsgd")


def test_raw_csv_is_byte_identical_across_jobs_and_leaves_no_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # --jobs 4 forks 3 children on any host
    spec = tmp_path / "spec.cfg"
    spec.write_text(FAN_OUT)
    raw = {}
    for jobs in (1, 2, 4):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", str(spec), "--out", str(out), "--jobs", str(jobs), "--no-plot"]) == 0
        with pytest.raises(ChildProcessError):  # no child is left, running or exited
            os.waitpid(-1, os.WNOHANG)
        raw[jobs] = (out / "raw.csv").read_bytes()
    assert raw[2] == raw[1] and raw[4] == raw[1]
    assert raw[1].count(b"\n") == 1 + 2 * 2 * 2  # header, then 2 optimizers x 2 seeds x 2 rounds


def test_sweep_rejects_no_plot(capsys):
    # a sweep writes no plot, so only run takes the flag
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "sweep-measurement-rows", "--no-plot"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-plot" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(path.stem for path in packaged_preset_dir().glob("*.cfg")))
def test_every_packaged_preset_plays_end_to_end(name, tmp_path):
    # cut to 2 rounds of seed 0; a sweep preset runs its base spec
    text, count = re.subn(
        r"^rounds = .*$", "rounds = 2", (packaged_preset_dir() / f"{name}.cfg").read_text(), flags=re.M
    )
    assert count == 1
    spec = tmp_path / f"{name}.cfg"
    spec.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(spec), "--seeds", "0", "--jobs", "1", "--out", str(out)]) == 0
    with open(out / "raw.csv", newline="") as fh:
        played = [(row["optimizer"], row["seed"], row["round"]) for row in csv.DictReader(fh)]
    names = sorted(cfg.name for cfg in load_spec(spec).optimizers)
    assert played == [(opt, "0", t) for opt in names for t in ("1", "2")]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands():
    """The lines of the sh block under the README's CLI heading, comments stripped."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run_and_write_what_the_readme_says(tmp_path, monkeypatch):
    commands = readme_cli_commands()
    packaged = {path.stem: path for path in packaged_preset_dir().glob("*.cfg")}
    # the presets the block names, in order of appearance, copied at 2 rounds
    # and 2 seeds into a user preset dir, which shadows the packaged ones
    named = list(dict.fromkeys(w for c in commands for w in shlex.split(c) if w in packaged))
    assert named
    presets = tmp_path / "presets"
    presets.mkdir()
    for name in named:
        text = packaged[name].read_text()
        for key, value in (("rounds", "2"), ("seeds", "0-1")):
            text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
            assert count == 1, (name, key)
        (presets / f"{name}.cfg").write_text(text)
    monkeypatch.setenv(PRESET_ENV_VAR, str(presets))
    monkeypatch.chdir(tmp_path)
    stand_in = shlex.quote(str(presets / f"{named[0]}.cfg"))
    for command in commands:
        command = command.replace("path/to/scenario.cfg", stand_in).replace("my-scenario.cfg", stand_in)
        program, *argv = shlex.split(command)
        assert program == "congo"
        shutil.rmtree("results", ignore_errors=True)
        assert main(argv) == 0, command
        # run: raw.csv, aggregate.csv and plot.svg (unless --no-plot) in --out,
        # default results/<name>; sweep: sweep.csv in results/<name>-sweep
        if argv[0] == "run":
            out = Path(argv[argv.index("--out") + 1]) if "--out" in argv \
                else Path("results", load_spec(find_preset(argv[1])).name)
            expected = ["aggregate.csv"] + ([] if "--no-plot" in argv else ["plot.svg"]) + ["raw.csv"]
        elif argv[0] == "sweep":
            out = Path("results", f"{load_sweep(find_preset(argv[1])).name}-sweep")
            expected = ["sweep.csv"]
        else:
            continue
        assert sorted(path.name for path in out.iterdir()) == expected, command
