"""Experiment spec files: sectioned key/value text into runnable specs.

A spec file declares an environment (random sparse quadratics or a queueing
network), the optimizers to race on it, and the round/seed budget. The same
format also carries an optional parameter sweep. Files are standard INI as
read by configparser; see the README for the field reference.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
import typing
from functools import partial
from importlib import resources
from pathlib import Path

from .core import ConfigurationError, SmoothnessProfile
from .env_jackson import (
    FixedWorkload,
    JacksonEnvironment,
    SimConfig,
    Topology,
    VariableMixWorkload,
    VariableRateWorkload,
    _check_mix,
)
from .env_quadratic import QuadraticAdversary, QuadraticAdversaryConfig, smoothness_bounds
from .harness import ExperimentSpec, SweepPlan
from .optimizers import (
    ALL_OPTIMIZERS,
    ConstantRate,
    InverseDecayRate,
    OptimizerConfig,
    StepDecayRate,
)
from .sensing import prescribe_m

PRESET_ENV_VAR = "CONGO_PRESET_DIR"

# optimizer keys a [sweep] section may rewrite
SWEEPABLE = ("m", "sparsity")

_WORKLOADS = {
    "fixed": FixedWorkload,
    "variable-rate": VariableRateWorkload,
    "variable-mix": VariableMixWorkload,
}

# the keys of the hand-read sections; [topology] takes queues and route.<job>,
# and [quadratic], [workload] and [simulation] take their dataclass's fields
_EXPERIMENT_KEYS = {"kind", "name", "rounds", "seeds", "optimizers"}
_SWEEP_KEYS = {"parameter", "values"}
# every optimizer-section key; the derived ones do not map one to one onto fields
_OPTIMIZER_KEYS = {
    "learning_rate",
    "delta",
    "sparsity",
    "m",
    "k",
    "lipschitz",
    "smoothness",
    "normalize_gradient",
}


def parse_seed_list(text: str) -> tuple[int, ...]:
    """Seeds as integers and inclusive ranges: '0-4', '0 1 2', '3,7,10-12'."""
    return _parse_int_list("seeds", text)


def _parse_int_list(key: str, text: str) -> tuple[int, ...]:
    """Distinct non-negative integers and inclusive first-last ranges; errors name key."""
    ints: list[int] = []
    for token in text.replace(",", " ").split():
        lo, sep, hi = token.partition("-")
        try:
            if sep and lo:  # plain negatives are never valid, so '-' means a range
                first, last = int(lo), int(hi)
                if last < first:
                    raise ValueError
                ints.extend(range(first, last + 1))
            else:
                ints.append(int(token))
        except ValueError:
            raise ConfigurationError(f"{key}: bad token {token!r} (want int or first-last)")
    if not ints:
        raise ConfigurationError(f"{key}: the list is empty")
    if len(set(ints)) != len(ints):
        raise ConfigurationError(f"{key}: the list has duplicates")
    # numpy seeds a generator only from non-negative integers, and m and sparsity are counts
    if min(ints) < 0:
        raise ConfigurationError(f"{key}: {min(ints)} is negative")
    return tuple(ints)


def parse_learning_rate(text: str):
    """'0.1' | 'step:eta0:period:factor' | 'inv:eta0:decay'."""
    parts = text.split(":")
    try:
        if parts[0] == "step" and len(parts) == 4:
            return StepDecayRate(float(parts[1]), int(parts[2]), float(parts[3]))
        if parts[0] == "inv" and len(parts) == 3:
            return InverseDecayRate(float(parts[1]), float(parts[2]))
        if len(parts) == 1:
            return ConstantRate(float(parts[0]))
    except ConfigurationError as exc:
        raise ConfigurationError(f"learning_rate: {exc}") from None
    except ValueError:
        pass
    raise ConfigurationError(
        f"learning_rate: bad value {text!r}"
        " (want a number, step:eta0:period:factor, or inv:eta0:decay)"
    )


def _parse_mix(section: str, text: str) -> dict[str, float]:
    mix: dict[str, float] = {}
    for token in text.replace(",", " ").split():
        name, sep, prob = token.partition(":")
        if not sep or not name:
            raise ConfigurationError(f"[{section}] mix token {token!r} is not name:probability")
        if name in mix:
            raise ConfigurationError(f"[{section}] mix token {token!r} names {name!r} again")
        try:
            mix[name] = float(prob)
        except ValueError:
            raise ConfigurationError(f"[{section}] mix probability {prob!r} is not a number")
    if not mix:
        raise ConfigurationError(f"[{section}] mix is empty")
    return mix


def _parse_segments(section: str, text: str) -> tuple[tuple[int, int, float], ...]:
    segments = []
    for token in text.replace(",", " ").split():
        span, sep, rate = token.rpartition(":")
        first, dash, last = span.partition("-")
        try:
            segments.append((int(first), int(last), float(rate)))
        except ValueError:
            raise ConfigurationError(f"[{section}] segment {token!r} is not first-last:rate")
    return tuple(segments)


def _parse_boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(text)
    return states[text.lower()]


# how a field of each annotated type is read: (parser, what a bad value is not)
_SCALARS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    float | None: (float, "a number"),
    bool: (_parse_boolean, "a boolean"),
    str | None: (str, "a string"),
}


class _Section:
    """Typed accessors over one section's key/value text with field-naming errors."""

    def __init__(self, name: str, data: dict[str, str]):
        self.name = name
        self._data = data

    @classmethod
    def of(cls, parser: configparser.ConfigParser, name: str) -> _Section:
        return cls(name, dict(parser[name]) if parser.has_section(name) else {})

    def keys(self):
        return self._data.keys()

    def reject_unknown(self, known: set[str]) -> None:
        for key in self._data:
            if key not in known:
                raise ConfigurationError(
                    f"[{self.name}] {key}: unknown key (known: {', '.join(sorted(known))})"
                )

    def raw(self, key: str, default: str | None = None) -> str | None:
        value = self._data.get(key, default)
        return value.strip() if isinstance(value, str) else value

    def require(self, key: str) -> str:
        if key not in self._data:
            raise ConfigurationError(f"[{self.name}] {key}: missing required key")
        return self._data[key].strip()

    def text(self, key: str, default: str) -> str:
        """The key's value; an unset or empty key gives default."""
        return self.raw(key) or default

    def floating(self, key: str) -> float:
        return self._typed(key, float, None)

    def integer(self, key: str, default: int | None = None) -> int:
        return self._typed(key, int, default)

    def into(self, cls, also=(), **given):
        """cls built from this section, naming the section in any error.

        Every field not in given reads the key of its name, parsed by the
        field's annotated type; an unset or empty key keeps the field's
        default. The section accepts those keys and the ones in also.
        """
        types = typing.get_type_hints(cls)
        reads = [f for f in dataclasses.fields(cls) if f.name not in given]
        self.reject_unknown({f.name for f in reads}.union(also))
        for f in reads:
            raw = self.raw(f.name)
            if raw:
                given[f.name] = self._parse(f.name, types[f.name], raw)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigurationError(f"[{self.name}] {f.name}: missing required key")
        return _build(self.name, cls, **given)

    def _typed(self, key: str, kind, default):
        raw = self.raw(key)
        if raw:
            return self._parse(key, kind, raw)
        if default is None:
            raise ConfigurationError(f"[{self.name}] {key}: missing required key")
        return default

    def _parse(self, key: str, kind, raw: str):
        if kind == dict[str, float]:
            return _parse_mix(self.name, raw)
        if kind == tuple[tuple[int, int, float], ...]:
            return _parse_segments(self.name, raw)
        parse, what = _SCALARS[kind]
        try:
            return parse(raw)
        except ValueError:
            raise ConfigurationError(f"[{self.name}] {key}: {raw!r} is not {what}")


def _build(section: str, cls, **fields):
    """cls(**fields), naming the spec section in any error it raises; cls may be a parser."""
    try:
        return cls(**fields)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[{section}] {exc}") from None


def _read_file(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: not a valid spec file ({exc})")
    return parser


def load_spec(path: str | Path, overrides: dict[str, object] | None = None) -> ExperimentSpec:
    """Parse one spec file into an ExperimentSpec ready for the harness.

    overrides maps sweepable optimizer keys to replacement values; they apply
    to every optimizer except the exact-gradient baseline, and auto-derived
    fields (m, smoothness bounds) recompute against the new values.
    """
    path = Path(path)
    parser = _read_file(path)
    if parser.defaults():
        raise ConfigurationError(
            f"{path}: [DEFAULT] is not supported: its keys would join every section"
        )
    if not parser.has_section("experiment"):
        raise ConfigurationError(f"{path}: missing [experiment] section")
    exp = _Section.of(parser, "experiment")
    exp.reject_unknown(_EXPERIMENT_KEYS)
    kind = exp.require("kind")
    if kind not in ("quadratic", "jackson"):
        raise ConfigurationError(f"[experiment] kind: {kind!r} is not quadratic or jackson")
    name = exp.text("name", path.stem)
    horizon = exp.integer("rounds")
    seeds = _build("experiment", parse_seed_list, text=exp.require("seeds"))
    opt_names = exp.require("optimizers").replace(",", " ").split()
    for opt in opt_names:
        if opt not in ALL_OPTIMIZERS:
            raise ConfigurationError(
                f"[experiment] optimizers: unknown optimizer {opt!r}"
                f" (known: {', '.join(ALL_OPTIMIZERS)})"
            )
    if kind == "jackson" and "gd" in opt_names:
        raise ConfigurationError(
            "[experiment] optimizers: gd needs exact gradients, and a jackson network has none"
        )

    if kind == "quadratic":
        make_env, dim, radius = _build_quadratic(parser)
    else:
        make_env, dim, radius = _build_jackson(parser, horizon)

    optimizers = [
        _build_optimizer(parser, opt, kind, dim, radius, overrides or {}) for opt in opt_names
    ]
    sweep = _read_sweep(parser) if parser.has_section("sweep") else None
    spec = ExperimentSpec(
        name=name,
        kind=kind,
        make_environment=make_env,
        optimizers=optimizers,
        horizon=horizon,
        seeds=seeds,
        sweep=sweep,
    )
    spec.validate()

    known = {"experiment", "quadratic", "topology", "workload", "simulation", "sweep"}
    for section in parser.sections():
        if section in known or section == "optimizer.defaults":
            continue
        if section.startswith("optimizer."):
            target = section[len("optimizer."):]
            if target not in opt_names:
                raise ConfigurationError(
                    f"[{section}] configures {target!r}, which is not in [experiment] optimizers"
                )
        else:
            raise ConfigurationError(f"unknown section [{section}]")
    return spec


def _build_quadratic(parser):
    if not parser.has_section("quadratic"):
        raise ConfigurationError("missing [quadratic] section")
    cfg = _Section.of(parser, "quadratic").into(QuadraticAdversaryConfig)
    return partial(QuadraticAdversary, cfg), cfg.dimension, cfg.radius


def _build_jackson(parser, horizon):
    if not parser.has_section("topology"):
        raise ConfigurationError("missing [topology] section")
    topo_sec = _Section.of(parser, "topology")
    num_queues = topo_sec.integer("queues")
    routes = {}
    for key in topo_sec.keys():
        if not key.startswith("route."):
            if key != "queues":
                raise ConfigurationError(
                    f"[topology] {key}: unknown key (known: queues, route.<job>)"
                )
            continue
        job = key[len("route."):]
        tokens = topo_sec.require(key).split()
        try:
            routes[job] = tuple(int(q) for q in tokens)
        except ValueError:
            raise ConfigurationError(f"[topology] {key}: route must be queue indices")
    topology = _build("topology", Topology, num_queues=num_queues, routes=routes)

    if not parser.has_section("workload"):
        raise ConfigurationError("missing [workload] section")
    work = _Section.of(parser, "workload")
    wkind = work.text("kind", "fixed")
    if wkind not in _WORKLOADS:
        raise ConfigurationError(
            f"[workload] kind: {wkind!r} is not fixed, variable-rate, or variable-mix"
        )
    schedule = work.into(_WORKLOADS[wkind], also=("kind",))
    if wkind == "variable-rate":
        last = schedule.segments[-1][1]
        if last < horizon:
            raise ConfigurationError(
                f"[workload] segments: end at round {last}, before the last round {horizon}"
            )
    # every mix the schedule returns is one of these or a blend of the two
    for key in ("initial_mix", "final_mix") if wkind == "variable-mix" else ("mix",):
        _check_mix(getattr(schedule, key), topology.job_names, f"[workload] {key}")

    sim_cfg = _Section.of(parser, "simulation").into(SimConfig)
    return partial(JacksonEnvironment, topology, schedule, sim_cfg), num_queues, None


def _build_optimizer(parser, opt_name, kind, dim, radius, overrides) -> OptimizerConfig:
    merged: dict[str, str] = {}
    for section in ("optimizer.defaults", f"optimizer.{opt_name}"):
        if parser.has_section(section):
            _Section.of(parser, section).reject_unknown(_OPTIMIZER_KEYS)
            merged.update((key, value.strip()) for key, value in parser[section].items())
    for key, value in overrides.items():
        if key not in SWEEPABLE:
            raise ConfigurationError(f"sweep parameter {key!r} is not one of {SWEEPABLE}")
        if opt_name != "gd":  # the exact-gradient baseline has nothing to sweep
            merged[key] = str(value)
    sec = _Section(f"optimizer.{opt_name}", merged)

    sparsity = sec.integer("sparsity", 1)
    if not 1 <= sparsity <= dim:
        raise ConfigurationError(
            f"[{sec.name}] sparsity: need 1 <= sparsity <= dimension, got {sparsity}/{dim}"
        )
    if sec.raw("m") == "auto":
        m = prescribe_m(sparsity, dim)
    else:
        m = sec.integer("m", 1)

    profile = _read_bounds(sec, kind, radius, sparsity)
    k = None if sec.raw("k", "") in ("", "auto") else sec.integer("k", 1)
    return sec.into(
        OptimizerConfig,
        also=_OPTIMIZER_KEYS,
        name=opt_name,
        schedule=_build(sec.name, parse_learning_rate, text=sec.require("learning_rate")),
        sparsity=sparsity,
        m=m,
        k=k,
        smoothness=profile,
    )


def _read_bounds(sec: _Section, kind: str, radius, sparsity: int) -> SmoothnessProfile:
    """lipschitz and smoothness as a pair: both numbers, or on a quadratic both auto or unset."""
    text = {key: sec.raw(key, "") for key in ("lipschitz", "smoothness")}
    derived = [key for key in text if text[key] in ("", "auto")]
    if not derived:
        return _build(sec.name, SmoothnessProfile, **{key: sec.floating(key) for key in text})
    if kind != "quadratic":
        for key in derived:
            if text[key] == "auto":
                raise ConfigurationError(
                    f"[{sec.name}] {key}: auto bounds exist only for the quadratic adversary"
                )
        raise ConfigurationError(
            f"[{sec.name}] {derived[0]}: missing required key"
            " (a jackson network has no auto bounds)"
        )
    if len(derived) == 2:
        return smoothness_bounds(radius, sparsity)
    (key,), (given,) = derived, set(text) - set(derived)
    if text[key] == "auto":
        raise ConfigurationError(
            f"[{sec.name}] {given}: {text[given]} would be ignored, because {key} = auto"
            " derives both bounds"
        )
    raise ConfigurationError(
        f"[{sec.name}] {key}: missing required key"
        f" ({given} is set, and the two bounds come as a pair)"
    )


def _read_sweep(parser) -> tuple[str, tuple[int, ...]]:
    sec = _Section.of(parser, "sweep")
    sec.reject_unknown(_SWEEP_KEYS)
    parameter = sec.require("parameter")
    if parameter not in SWEEPABLE:
        raise ConfigurationError(f"[sweep] parameter: {parameter!r} is not one of {SWEEPABLE}")
    return parameter, _build("sweep", _parse_int_list, key="values", text=sec.require("values"))


def load_sweep(path: str | Path) -> SweepPlan:
    """Expand a spec's [sweep] section into one ExperimentSpec per value."""
    path = Path(path)
    base = load_spec(path)
    if base.sweep is None:
        raise ConfigurationError(f"{path}: no [sweep] section to expand")
    parameter, values = base.sweep
    specs = [load_spec(path, overrides={parameter: value}) for value in values]
    for value, spec in zip(values, specs):
        spec.name = f"{base.name}-{parameter}-{value}"
    return SweepPlan(name=base.name, parameter=parameter, values=values, specs=specs)


def packaged_preset_dir() -> Path:
    return Path(resources.files("congo") / "presets")


def preset_search_dirs() -> list[Path]:
    """User preset dir (env var) first, then the presets shipped in the package."""
    dirs = []
    env_dir = os.environ.get(PRESET_ENV_VAR)
    if env_dir:
        dirs.append(Path(env_dir))
    dirs.append(packaged_preset_dir())
    return dirs


def find_preset(name: str) -> Path:
    """Resolve a spec argument: an existing path wins, then the preset dirs."""
    direct = Path(name)
    if direct.is_file():
        return direct
    tried = []
    for directory in preset_search_dirs():
        for candidate in (directory / name, directory / f"{name}.cfg"):
            if candidate.is_file():
                return candidate
            tried.append(str(candidate))
    raise ConfigurationError(f"no spec file or preset named {name!r} (tried: {', '.join(tried)})")


def list_presets() -> list[tuple[str, str, Path]]:
    """(name, kind, path) for every preset visible in the search dirs."""
    seen: dict[str, tuple[str, str, Path]] = {}
    for directory in preset_search_dirs():
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("*.cfg")):
            if path.stem in seen:  # user dir shadows the packaged preset
                continue
            try:
                spec_kind = _peek_kind(path)
            except (ConfigurationError, OSError):
                spec_kind = "unreadable"
            seen[path.stem] = (path.stem, spec_kind, path)
    return sorted(seen.values())


def _peek_kind(path: Path) -> str:
    parser = _read_file(path)
    if not parser.has_section("experiment"):
        return "invalid"
    return parser["experiment"].get("kind", "invalid").strip()
