"""Smoke test of the benchmark at tiny sizes (two rounds, one seed per run).

    python3 -m pytest -q bench/smoke.py

The file name keeps it out of the repository's own test collection; name it
on the command line to run it.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
from refloop import reference  # noqa: E402
from tracer import Span, Target, Tracer, self_times  # noqa: E402


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Every workload cut to two rounds and one seed; one set-up per run."""
    workloads = {}
    for name, workload in run.WORKLOADS.items():
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(workload.cfg, encoding="utf-8")
        parser["experiment"]["rounds"] = "2"
        cfg = tmp_path / workload.cfg.name
        with open(cfg, "w", encoding="utf-8") as fh:
            parser.write(fh)
        workloads[name] = replace(workload, cfg=cfg, seeds_per_run=1, ref_units=1)
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_REF_UNITS", 1)
    return workloads


def checkout_files() -> set[Path]:
    skip = {"__pycache__", ".git", ".pytest_cache", ".hypothesis"}
    return {
        p for p in run.ROOT.rglob("*")
        if p.is_file() and not skip.intersection(p.relative_to(run.ROOT).parts)
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    before = checkout_files()
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and result["correct"], result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {k: unit for k, (unit, _) in layers.PER_LAYER.items()} if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    # artifacts went to the temporary directory only, which is gone again
    assert checkout_files() == before


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_span_self_time_is_within_its_duration(tiny, tmp_path):
    run.measure("jackson-large-jobs2", 0, 0.01, True, tmp_path)
    with open(tmp_path / "spans.csv", newline="", encoding="utf-8") as fh:
        spans = [
            Span(int(r["id"]), int(r["parent"]) if r["parent"] else None, int(r["thread"]), r["name"],
                 float(r["start_s"]), float(r["end_s"]), float(r["cpu_start_s"]), float(r["cpu_end_s"]))
            for r in csv.DictReader(fh)
        ]
    ids = {s.sid: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["scenario.load_spec", "harness.run_experiment"]
    # --jobs 2: runs execute on pool threads yet still hang under the harness span
    runs = [s for s in spans if s.name == "optimizers.run_online"]
    assert runs and all(ids[s.parent].name == "harness.run_experiment" for s in runs)
    assert all(s.parent is None or s.parent in ids for s in spans)
    for sid, own in self_times(spans).items():
        assert 0.0 <= own <= ids[sid].duration


def test_self_time_merges_overlapping_children():
    parent = Span(1, None, 1, "p", 0.0, 10.0, 0.0, 10.0)
    children = [
        Span(2, 1, 2, "c", 1.0, 5.0, 0.0, 4.0),  # two pool threads overlap on [3, 5]
        Span(3, 1, 3, "c", 3.0, 6.0, 0.0, 3.0),
        Span(4, 1, 1, "c", 8.0, 9.0, 0.0, 1.0),
    ]
    own = self_times([*children, parent])
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert [own[s.sid] for s in children] == [4.0, 3.0, 1.0]


def test_patched_wraps_restores_and_skips_missing_bindings():
    module = types.ModuleType("fake")
    module.double = lambda x: 2 * x
    original = module.double
    tracer = Tracer()
    with tracer.patched([Target(module, "double", "fake.double"), Target(module, "gone", "fake.gone")]):
        assert module.double(3) == 6
    assert module.double is original
    assert [s.name for s in tracer.spans] == ["fake.double"]
    assert tracer.missing == ["fake.gone"]


@pytest.mark.parametrize("threads", [1, 2])
def test_reference_reports_seconds_per_unit(threads):
    one, four = reference(1, threads), reference(4, threads)
    assert 0.0 < one < 1.0 and 0.0 < four < 1.0
