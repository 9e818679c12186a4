"""Every binding that the benchmark's traced run wraps exists and is called.

``bench/layers.py`` names the call-site bindings it wraps (``targets``). A
renamed or moved binding does not stop the benchmark: ``bench/tracer.py``
skips it, names it in ``Tracer.missing``, and its layer then reads 0. This
test runs ``congo run`` under the tracer, as ``bench/run.py --trace 1`` does,
on the benchmark's three workloads cut to two rounds, and fails on such a
binding, or on a Jackson workload whose windows bypass the traced
``simulate_window``. The bench modules are only imported, never changed.
"""

from __future__ import annotations

import configparser
import sys
from pathlib import Path

import congo.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def _two_round_copy(name: str, tmp_path: Path, extra_optimizer: str | None = None) -> Path:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(BENCH / "workloads" / f"{name}.cfg", encoding="utf-8")
    experiment = parser["experiment"]
    experiment["rounds"] = "2"
    if extra_optimizer:
        experiment["optimizers"] += f" {extra_optimizer}"
    cfg = tmp_path / f"{name}.cfg"
    with open(cfg, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return cfg


def test_every_traced_binding_exists_and_records_a_span(tmp_path):
    targets = layers.targets(congo)
    # quad-d50 has no nsgd, the only caller of nsgd_step; jackson-complex's
    # network runs the simulator's event loop and jackson-large-jobs2's its
    # tree pass, and both must go through the traced simulate_window
    runs = [
        _two_round_copy("quad-d50", tmp_path, extra_optimizer="nsgd"),
        _two_round_copy("jackson-complex", tmp_path),
        _two_round_copy("jackson-large-jobs2", tmp_path),
    ]
    tracer = Tracer()
    names = {}
    with tracer.patched(targets):
        for cfg in runs:
            out = str(cfg.with_suffix(""))
            before = len(tracer.spans)
            assert congo.cli.main(["run", str(cfg), "--seeds", "0", "--jobs", "1", "--out", out]) == 0
            names[cfg.stem] = {s.name for s in tracer.spans[before:]}
    assert tracer.missing == []
    assert {t.name for t in targets} <= set().union(*names.values())
    for workload in ("jackson-complex", "jackson-large-jobs2"):
        assert "env_jackson.simulate_window" in names[workload], workload
