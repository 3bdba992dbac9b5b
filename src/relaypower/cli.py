"""Command line front end: `relaypower run <scenario.yaml>`."""

from __future__ import annotations

import argparse
import sys

import yaml

from .experiments import SpecError, load_spec, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaypower",
        description="Relay power allocation experiments: solvers, Monte Carlo sweeps, CSV outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("spec_file", help="YAML scenario describing the experiment")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument(
        "--shards", type=int, default=1,
        help="reorder the fixed Monte Carlo batch schedule into this many interleaved shards; outputs never depend on it",
    )
    run.add_argument(
        "--frames-override", type=int, default=None,
        help="replace the scenario frame count (simulation kinds only)",
    )
    run.add_argument("--out-dir", default=".", help="directory for CSVs and the plot script")
    run.add_argument(
        "--print-config", action="store_true",
        help="print the fully resolved scenario, defaults included, and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_spec(args.spec_file)
        if args.print_config:
            resolved = spec.resolved()
            if args.seed is not None:
                resolved["seed"] = args.seed
            sys.stdout.write(yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False))
            return 0
        run_experiment(
            spec,
            args.out_dir,
            seed=args.seed,
            shards=args.shards,
            frames_override=args.frames_override,
        )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
