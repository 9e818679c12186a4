"""Command-line entry point: run, sweep, validate, and list preset experiments."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import ConfigurationError
from .harness import run_experiment, run_sweep
from .scenario import PRESET_ENV_VAR, find_preset, list_presets, load_spec, load_sweep, parse_seed_list


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congo",
        description="Run compressed-gradient online optimization experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", help=f"spec file path or preset name (see {PRESET_ENV_VAR})")
        p.add_argument("--seeds", help="override the spec's seeds, e.g. 0-9 or 1,2,5")
        p.add_argument("--out", help="output directory (default results/<name>)")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for parallel runs, forked (default 1)")

    run_p = sub.add_parser("run", help="run one experiment spec")
    add_common(run_p)
    run_p.add_argument("--no-plot", action="store_true", help="skip the SVG plot")
    sweep_p = sub.add_parser("sweep", help="expand and run a spec's [sweep] section")
    add_common(sweep_p)
    sub.add_parser("list-presets", help="list shipped and user preset specs")
    val_p = sub.add_parser("validate", help="parse a spec and report problems")
    val_p.add_argument("spec")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list()
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _apply_overrides(specs, args, name: str) -> Path:
    """Give every spec the --seeds list; the output directory, results/<name> unless --out."""
    if args.seeds is not None:  # an empty --seeds is an error, not a fallback
        seeds = parse_seed_list(args.seeds)
        for spec in specs:
            spec.seeds = seeds
    if args.out is None:
        return Path("results") / name
    if not args.out.strip():  # as with --seeds, empty is an error, not the default
        raise ConfigurationError("--out: the path is empty")
    return Path(args.out)


def _cmd_run(args) -> int:
    spec = load_spec(find_preset(args.spec))
    out = _apply_overrides([spec], args, spec.name)
    table = run_experiment(spec, output_dir=out, jobs=args.jobs, plot=not args.no_plot)
    artifacts = ["raw.csv", "aggregate.csv"] + ([] if args.no_plot else ["plot.svg"])
    print(f"{spec.name}: {len(table.runs)} runs; wrote {', '.join(artifacts)} in {out}")
    return 0


def _cmd_sweep(args) -> int:
    plan = load_sweep(find_preset(args.spec))
    out = _apply_overrides(plan.specs, args, f"{plan.name}-sweep")
    run_sweep(plan, output_dir=out, jobs=args.jobs)
    print(f"{plan.name}: swept {plan.parameter} over {len(plan.values)} values; "
          f"wrote sweep.csv in {out}")
    return 0


def _cmd_validate(args) -> int:
    path = find_preset(args.spec)
    spec = load_spec(path)
    if spec.sweep:
        load_sweep(path)  # reject whatever `congo sweep` would
    sweep = f", sweep={spec.sweep[0]}x{len(spec.sweep[1])}" if spec.sweep else ""
    print(
        f"ok: {spec.name} (kind={spec.kind}, rounds={spec.horizon}, "
        f"seeds={len(spec.seeds)}, optimizers={','.join(c.name for c in spec.optimizers)}{sweep})"
    )
    return 0


def _cmd_list() -> int:
    presets = list_presets()
    if not presets:
        print("no presets found")
        return 0
    width = max(len(name) for name, _, _ in presets)
    for name, kind, path in presets:
        print(f"{name:<{width}}  {kind:<10}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
