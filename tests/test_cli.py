"""Command-line exit codes."""

from congo.cli import main

# gd needs an exact gradient, which the queueing environment cannot give, so
# every gd run fails while the congo-e runs complete
PARTLY_FAILING = """
[experiment]
kind = jackson
rounds = 2
seeds = 0
optimizers = congo-e gd

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


def test_failed_runs_make_run_and_sweep_exit_1(tmp_path, capsys):
    spec = tmp_path / "partly-failing.cfg"
    spec.write_text(PARTLY_FAILING)
    assert main(["run", str(spec), "--out", str(tmp_path / "run"), "--no-plot"]) == 1
    assert "warning: gd seed 0 failed" in capsys.readouterr().err
    raw = (tmp_path / "run" / "raw.csv").read_text().splitlines()
    assert len(raw) == 1 + 2  # header plus the congo-e rounds: artifacts are still written

    spec.write_text(PARTLY_FAILING + "\n[sweep]\nparameter = m\nvalues = 1 2\n")
    assert main(["sweep", str(spec), "--out", str(tmp_path / "sweep")]) == 1
    assert (tmp_path / "sweep" / "sweep.csv").is_file()

    spec.write_text(PARTLY_FAILING.replace("congo-e gd", "congo-e"))
    assert main(["run", str(spec), "--out", str(tmp_path / "ok"), "--no-plot"]) == 0
