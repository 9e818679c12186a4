"""Spec-file parsing, preset resolution, and sweep expansion."""

import configparser
import dataclasses
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from congo.core import ConfigurationError
from congo.env_jackson import FixedWorkload, JacksonEnvironment, SimConfig
from congo.env_quadratic import QuadraticAdversary, QuadraticAdversaryConfig, smoothness_bounds
from congo.optimizers import StepSize
from congo.scenario import (
    _EXPERIMENT_KEYS,
    _OPTIMIZER_KEYS,
    _SWEEP_KEYS,
    PRESET_ENV_VAR,
    find_preset,
    list_presets,
    load_spec,
    load_sweep,
    packaged_preset_dir,
    parse_learning_rate,
    parse_seed_list,
)

QUAD_SPEC = """
[experiment]
kind = quadratic
name = demo
rounds = 40
seeds = 0-2
optimizers = gd congo-e congo-b

[quadratic]
dimension = 30
sparsity = 4
radius = 25.0
noise_sigma = 0.001

[optimizer.defaults]
learning_rate = 0.1
delta = 0.05
sparsity = 4
m = auto
lipschitz = auto
smoothness = auto

[optimizer.congo-b]
k = 18
delta = 0.1
"""

JACKSON_SPEC = """
[experiment]
kind = jackson
rounds = 10
seeds = 0 1
optimizers = congo-e nsgd

[topology]
queues = 3
route.alpha = 0 1
route.beta = 0 2 1

[workload]
kind = variable-rate
segments = 1-5:2.0 6-10:3.0
mix = alpha:0.25 beta:0.75

[simulation]
warmup_seconds = 1
measure_seconds = 2
correction_factor = 0.5
initial_allocation = 4
initial_entry_allocation = 7

[optimizer.defaults]
learning_rate = inv:0.7:0.5
delta = 0.5
sparsity = 2
m = 3
lipschitz = 6.0
smoothness = 1.0
normalize_gradient = yes
"""


def write(tmp_path, text, name="spec.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_seed_list_forms():
    assert parse_seed_list("0-4") == (0, 1, 2, 3, 4)
    assert parse_seed_list("0 1 2") == (0, 1, 2)
    assert parse_seed_list("3,7,10-12") == (3, 7, 10, 11, 12)


@pytest.mark.parametrize("bad", ["", "1 1", "5-2", "x", "1-2-3"])
def test_parse_seed_list_rejects(bad):
    with pytest.raises(ConfigurationError):
        parse_seed_list(bad)


def test_parse_learning_rate_forms():
    assert parse_learning_rate("0.25") == StepSize(0.25)
    assert parse_learning_rate("step:1.0:25:0.7") == StepSize(1.0, period=25, factor=0.7)
    assert parse_learning_rate("inv:0.7:0.5") == StepSize(0.7, decay=0.5)
    for bad in ("fast", "step:1.0:25", "inv:a:b", "0.1:0.2"):
        with pytest.raises(ConfigurationError):
            parse_learning_rate(bad)


def test_load_quadratic_spec_round_trip(tmp_path):
    spec = load_spec(write(tmp_path, QUAD_SPEC))
    assert spec.name == "demo"
    assert spec.kind == "quadratic"
    assert spec.horizon == 40
    assert spec.seeds == (0, 1, 2)
    assert [c.name for c in spec.optimizers] == ["gd", "congo-e", "congo-b"]

    env = spec.make_environment()
    assert isinstance(env, QuadraticAdversary)
    assert env.dim == 30
    assert env.cfg.noise_sigma == 0.001

    ce = spec.optimizers[1]
    assert ce.m == 17  # prescribe_m(4, 30) from m = auto
    auto = smoothness_bounds(25.0, 4)
    assert ce.smoothness.lipschitz == pytest.approx(auto.lipschitz)
    assert ce.delta == 0.05

    cb = spec.optimizers[2]
    assert cb.k == 18 and cb.delta == 0.1  # per-optimizer section overrides defaults


def test_load_jackson_spec_round_trip(tmp_path):
    spec = load_spec(write(tmp_path, JACKSON_SPEC, name="queue-demo.cfg"))
    assert spec.name == "queue-demo"  # falls back to the file stem
    assert spec.kind == "jackson"

    env = spec.make_environment()
    assert isinstance(env, JacksonEnvironment)
    start = env.reset(0)
    assert np.array_equal(start, [7.0, 4.0, 4.0])  # entry override on queue 0
    assert env.sim_cfg.correction_factor == 0.5
    assert env.schedule.at(6)[0] == 3.0

    for cfg in spec.optimizers:
        assert cfg.normalize_gradient
        assert cfg.schedule == StepSize(0.7, decay=0.5)


def test_spec_error_messages_name_the_field(tmp_path):
    no_exp = write(tmp_path, "[quadratic]\ndimension = 5\n", name="a.cfg")
    with pytest.raises(ConfigurationError, match=r"\[experiment\]"):
        load_spec(no_exp)

    bad_kind = QUAD_SPEC.replace("kind = quadratic", "kind = cubic")
    with pytest.raises(ConfigurationError, match="cubic"):
        load_spec(write(tmp_path, bad_kind, name="b.cfg"))

    bad_opt = QUAD_SPEC.replace("optimizers = gd congo-e congo-b", "optimizers = gd adam")
    with pytest.raises(ConfigurationError, match="adam"):
        load_spec(write(tmp_path, bad_opt, name="c.cfg"))

    dup = QUAD_SPEC.replace("optimizers = gd congo-e congo-b", "optimizers = gd gd")
    with pytest.raises(ConfigurationError, match="duplicate"):
        load_spec(write(tmp_path, dup, name="d.cfg"))

    typo = QUAD_SPEC.replace("delta = 0.05", "step_size = 0.05")
    with pytest.raises(ConfigurationError, match="step_size"):
        load_spec(write(tmp_path, typo, name="e.cfg"))

    stray = QUAD_SPEC + "\n[optimizer.nsgd]\nm = 2\n"
    with pytest.raises(ConfigurationError, match="nsgd"):
        load_spec(write(tmp_path, stray, name="f.cfg"))

    alien = QUAD_SPEC + "\n[plotting]\ncolor = red\n"
    with pytest.raises(ConfigurationError, match=r"\[plotting\]"):
        load_spec(write(tmp_path, alien, name="g.cfg"))

    no_lr = QUAD_SPEC.replace("learning_rate = 0.1\n", "")
    with pytest.raises(ConfigurationError, match="learning_rate"):
        load_spec(write(tmp_path, no_lr, name="h.cfg"))

    not_ini = write(tmp_path, "just some text\n", name="i.cfg")
    with pytest.raises(ConfigurationError, match="spec file"):
        load_spec(not_ini)

    # (spec, text to replace, its replacement, pattern the error message must match)
    named = [
        (QUAD_SPEC, "noise_sigma = 0.001", "noise_sgima = 0.1",
         r"\[quadratic\] noise_sgima: unknown key"),
        (QUAD_SPEC, "rounds = 40", "rounds = 40\ntpyo = 1", r"\[experiment\] tpyo: unknown key"),
        (QUAD_SPEC + "\n[sweep]\nparameter = m\nvalues = 5\n", "values = 5", "value = 5",
         r"\[sweep\] value: unknown key"),
        (QUAD_SPEC, "radius = 25.0", "radius = 0", r"\[quadratic\] radius: must be finite and > 0, got 0.0"),
        (QUAD_SPEC, "radius = 25.0", "radius = inf",
         r"\[quadratic\] radius: must be finite and > 0, got inf"),
        (QUAD_SPEC, "noise_sigma = 0.001", "noise_sigma = inf",
         r"\[quadratic\] noise_sigma: must be finite and >= 0, got inf"),
        (QUAD_SPEC, "sparsity = 4\nradius", "sparsity = 31\nradius",
         r"\[quadratic\] sparsity: need 1 <= sparsity <= dimension"),
        (JACKSON_SPEC, "mix = alpha", "rate = 2.0\nmix = alpha", r"\[workload\] rate: unknown key"),
        (JACKSON_SPEC, "measure_seconds = 2", "measure_seconds = 0",
         r"\[simulation\] measure_seconds: must be finite and > 0"),
        (JACKSON_SPEC, "warmup_seconds = 1", "warmup_seconds = inf",
         r"\[simulation\] warmup_seconds: must be finite"),
        (JACKSON_SPEC, "warmup_seconds = 1", "warmup_second = 1",
         r"\[simulation\] warmup_second: unknown key"),
        (JACKSON_SPEC, "warmup_seconds = 1", "warmup_seconds = 1\nupper_bound = 5\nlower_bound = 6",
         r"\[simulation\] lower_bound: 6.0 exceeds upper_bound 5.0"),
        (JACKSON_SPEC, "initial_allocation = 4", "initial_allocation = 100",
         r"\[simulation\] initial_allocation: 100.0 is outside \[lower_bound, upper_bound\]"),
        (JACKSON_SPEC, "initial_entry_allocation = 7", "initial_entry_allocation = 0.5",
         r"\[simulation\] initial_entry_allocation: 0.5 is outside"),
        (JACKSON_SPEC, "queues = 3", "queues = 0", r"\[topology\] queues: need at least one queue"),
        (JACKSON_SPEC, "route.beta = 0 2 1", "route.beta = 0 2 2 1",
         r"\[topology\] route.beta: visits queue 2 twice in a row"),
        (JACKSON_SPEC, "[experiment]", "[DEFAULT]\nnote = 1\n\n[experiment]",
         r"\[DEFAULT\] is not supported"),
        (JACKSON_SPEC, "route.beta = 0 2 1", "route.beta = 0 2 3",
         r"\[topology\] route.beta: queue 3 is out of range"),
        (JACKSON_SPEC, "correction_factor = 0.5", "correction_factor = 0.5\nresource_weight = nan",
         r"\[simulation\] resource_weight: must be finite and >= 0, got nan"),
        (JACKSON_SPEC, "correction_factor = 0.5", "correction_factor = 0.5\nresource_weight = -1",
         r"\[simulation\] resource_weight: must be finite and >= 0, got -1.0"),
        (JACKSON_SPEC, "correction_factor = 0.5", "correction_factor = 0",
         r"\[simulation\] correction_factor: must be finite and > 0, got 0.0"),
        (JACKSON_SPEC, "correction_factor = 0.5", "correction_factor = inf",
         r"\[simulation\] correction_factor: must be finite and > 0, got inf"),
        (QUAD_SPEC, "dimension = 30", "dimension = 0",
         r"\[quadratic\] sparsity: need 1 <= sparsity <= dimension, got 4/0"),
        (JACKSON_SPEC, "mix = alpha:0.25", "mix = alpha:nan",
         r"\[workload\] mix probability for 'alpha': must be finite and >= 0, got nan"),
        (JACKSON_SPEC, "correction_factor = 0.5", "correction_factor = 0.5\nlower_bound = -50",
         r"\[simulation\] lower_bound: must be finite and >= 0, got -50.0"),
        (JACKSON_SPEC, "correction_factor = 0.5", "correction_factor = 0.5\nupper_bound = inf",
         r"\[simulation\] upper_bound: must be finite and >= 0, got inf"),
    ]
    for i, (base, old, new, message) in enumerate(named):
        assert old in base
        with pytest.raises(ConfigurationError, match=message):
            load_spec(write(tmp_path, base.replace(old, new), name=f"named-{i}.cfg"))


def test_an_empty_name_falls_back_to_the_file_stem(tmp_path):
    text = JACKSON_SPEC.replace("kind = jackson", "kind = jackson\nname =")
    assert load_spec(write(tmp_path, text, name="stem.cfg")).name == "stem"


def test_an_empty_workload_kind_means_fixed(tmp_path):
    varying = "kind = variable-rate\nsegments = 1-5:2.0 6-10:3.0"
    assert varying in JACKSON_SPEC
    text = JACKSON_SPEC.replace(varying, "kind =\nrate = 2.0")
    env = load_spec(write(tmp_path, text)).make_environment()
    assert env.schedule == FixedWorkload(rate=2.0, mix={"alpha": 0.25, "beta": 0.75})


def test_readme_scenario_examples_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 2
    paths = [write(tmp_path, block, name=f"readme-{i}.cfg") for i, block in enumerate(blocks)]
    specs = [load_spec(path) for path in paths]
    assert [spec.kind for spec in specs] == ["quadratic", "jackson"]
    for spec in specs:
        spec.validate()
        spec.make_environment()
    # congo validate also loads the spec of each [sweep] value
    assert load_sweep(paths[0]).specs


def test_readme_examples_show_every_key():
    # the README promises the quadratic example "with every key it accepts"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parsers = []
    for block in re.findall(r"^```ini\n(.*?)^```", readme, flags=re.S | re.M):
        parsers.append(configparser.ConfigParser(interpolation=None))
        parsers[-1].read_string(block)
    quadratic, jackson = parsers

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    optimizer_keys = set()
    for section in quadratic.sections():
        if section.startswith("optimizer."):
            optimizer_keys.update(quadratic[section])
    assert optimizer_keys == _OPTIMIZER_KEYS
    assert set(quadratic["experiment"]) == _EXPERIMENT_KEYS
    assert set(quadratic["quadratic"]) == fields(QuadraticAdversaryConfig)
    assert set(quadratic["sweep"]) == _SWEEP_KEYS
    assert set(jackson["simulation"]) == fields(SimConfig)


def test_auto_bounds_refused_outside_the_quadratic(tmp_path):
    bad = JACKSON_SPEC.replace("lipschitz = 6.0", "lipschitz = auto")
    with pytest.raises(ConfigurationError, match="auto"):
        load_spec(write(tmp_path, bad))


def test_rate_segments_must_reach_the_last_round(tmp_path):
    short = JACKSON_SPEC.replace("rounds = 10", "rounds = 12")
    with pytest.raises(ConfigurationError, match=r"\[workload\] segments: end at round 10"):
        load_spec(write(tmp_path, short))
    gap = JACKSON_SPEC.replace("6-10:3.0", "7-10:3.0")
    with pytest.raises(ConfigurationError, match="without gaps"):
        load_spec(write(tmp_path, gap, name="gap.cfg"))


def test_overrides_apply_to_everything_but_gd(tmp_path):
    spec = load_spec(write(tmp_path, QUAD_SPEC), overrides={"m": 9})
    by_name = {c.name: c for c in spec.optimizers}
    assert by_name["congo-e"].m == 9
    assert by_name["congo-b"].m == 9
    assert by_name["gd"].m == 17  # untouched: nothing to sweep on the exact baseline
    with pytest.raises(ConfigurationError):
        load_spec(write(tmp_path, QUAD_SPEC, name="x.cfg"), overrides={"radius": 1.0})


def test_sweep_expansion(tmp_path):
    swept = QUAD_SPEC + "\n[sweep]\nparameter = m\nvalues = 5-7, 12\n"
    plan = load_sweep(write(tmp_path, swept))
    assert plan.parameter == "m"
    assert plan.values == (5, 6, 7, 12)
    assert [s.name for s in plan.specs] == ["demo-m-5", "demo-m-6", "demo-m-7", "demo-m-12"]
    for value, spec in zip(plan.values, plan.specs):
        assert {c.name: c for c in spec.optimizers}["congo-e"].m == value

    with pytest.raises(ConfigurationError, match="sweep"):
        load_sweep(write(tmp_path, QUAD_SPEC, name="plain.cfg"))

    bad_param = QUAD_SPEC + "\n[sweep]\nparameter = radius\nvalues = 1 2\n"
    with pytest.raises(ConfigurationError, match="radius"):
        load_spec(write(tmp_path, bad_param, name="bad.cfg"))


def test_find_preset_resolution_order(tmp_path, monkeypatch):
    monkeypatch.delenv(PRESET_ENV_VAR, raising=False)
    direct = write(tmp_path, QUAD_SPEC, name="direct.cfg")
    assert find_preset(str(direct)) == direct

    packaged = find_preset("quadratic-noiseless")
    assert packaged.name == "quadratic-noiseless.cfg"
    assert packaged.parent == packaged_preset_dir()

    monkeypatch.setenv(PRESET_ENV_VAR, str(tmp_path))
    shadow = write(tmp_path, QUAD_SPEC, name="quadratic-noiseless.cfg")
    assert find_preset("quadratic-noiseless") == shadow

    with pytest.raises(ConfigurationError, match="no-such-preset"):
        find_preset("no-such-preset")


def test_list_presets_covers_the_shipped_set(monkeypatch):
    monkeypatch.delenv(PRESET_ENV_VAR, raising=False)
    names = {name for name, _, _ in list_presets()}
    assert {
        "jackson-complex-fixed",
        "jackson-complex-varying-rate",
        "jackson-complex-varying-jobs",
        "jackson-large-fixed",
        "jackson-large-varying-rate",
        "jackson-large-varying-jobs",
        "quadratic-noiseless",
        "quadratic-noisy-d50",
        "quadratic-noisy-d100",
        "quadratic-approx-sparsity",
        "sweep-measurement-rows",
        "sweep-given-sparsity",
    } <= names


def test_every_shipped_preset_parses_and_validates(monkeypatch):
    monkeypatch.delenv(PRESET_ENV_VAR, raising=False)
    presets = list_presets()
    assert len(presets) >= 12
    for name, kind, path in presets:
        spec = load_spec(path)
        spec.validate()
        assert spec.kind == kind
        assert spec.horizon >= 1
        env = spec.make_environment()
        assert env.dim >= 1
        # specs are plain data, so a process can receive one
        twin = pickle.loads(pickle.dumps(spec)).make_environment()
        start = env.reset(0)
        assert np.array_equal(twin.reset(0), start)
        env.begin_round(1)
        twin.begin_round(1)
        assert twin.incur(start) == env.incur(start)


def test_readme_preset_table_names_every_packaged_preset():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Packaged presets", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `([^`]+)` \|", table, flags=re.M)
    assert sorted(named) == sorted(path.stem for path in packaged_preset_dir().glob("*.cfg"))
