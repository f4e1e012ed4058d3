"""Command-line entry point for the experiment harness.

Every subcommand builds an ExperimentSpec of its kind and runs it; the
subcommands and their flags come from ``harness.KINDS``.  A JSON config file
(--config) may supply any flag under its long name (hyphens or underscores);
explicit command-line flags win.  The default output directory comes from
the CONDTEST_OUT_DIR environment variable.  Bad input ends with an
``error: ...`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .harness import (KINDS, ExperimentSpec, HarnessError, default_out_dir,
                      read_json_object, run_experiment)
from .oracles import OracleError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--runs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory (default: "
                        "$CONDTEST_OUT_DIR or ./condtest-out)")
    parser.add_argument("--config", help="JSON file mirroring the flags; "
                        "explicit flags win")
    parser.add_argument("--id", dest="experiment_id")


# ExperimentSpec field -> (flag, type, help); each subcommand offers the
# fields of its kind in harness.KINDS.
_FLAGS = {
    "n": ("--n", int, "dimension: the domain is {0,1}^n"),
    "N": ("--N", int, "domain size: the domain is [N]"),
    "eps": ("--eps", float, "distance parameter"),
    "tau": ("--tau", str, "distribution source (file or shorthand)"),
    "mu": ("--mu", str, "distribution source (file or shorthand)"),
    "grid_step": ("--grid-step", float, "grid step 1/k of the product search"),
    "n_list": ("--n-list", str, "comma-separated dimensions, e.g. 4,8,16"),
    "eps_list": ("--eps-list", str, "comma-separated distances, e.g. 0.3,0.5"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condtest",
        description="Conditional-sampling distribution testers: experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS.values():
        if kind.command is not None:
            p = sub.add_parser(kind.command, help=kind.help)
            for name in kind.fields:
                flag, cast, text = _FLAGS[name]
                p.add_argument(flag, type=cast, dest=name, help=text)
            _add_common(p)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        payload = read_json_object(args.config, "config")
        merged.update({k.replace("-", "_"): v for k, v in payload.items()})
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    merged = _merge_config(args)
    for key in ("n_list", "eps_list"):
        value = merged.get(key)
        if isinstance(value, str):
            cast = int if key == "n_list" else float
            try:
                merged[key] = tuple(cast(x) for x in value.split(","))
            except ValueError:
                raise HarnessError(f"bad {key.replace('_', '-')} {value!r}") from None
        elif isinstance(value, list):
            merged[key] = tuple(value)
        elif value is not None:
            raise HarnessError(f"{key.replace('_', '-')} must be a comma-separated string "
                               f"or a list, got {value!r}")
    merged = {k: v for k, v in merged.items() if v is not None}
    # The subcommand sets the kind.
    unknown = sorted(merged.keys() - {f.name for f in fields(ExperimentSpec) if f.name != "kind"})
    if unknown:
        raise HarnessError(f"unrecognized option in config or flags: {', '.join(unknown)}")
    kind = next(name for name, k in KINDS.items() if k.command == args.command)
    return ExperimentSpec(kind=kind, **merged)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        rows, summary = run_experiment(spec)
    except (HarnessError, OracleError, ValueError) as err:
        # ValueError covers distcore.DomainError and bad numeric input.
        print(f"error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(spec.out) if spec.out else default_out_dir()
    print(json.dumps(summary, indent=2, default=str))
    print(f"wrote {out_dir / spec.experiment_id}.csv and .json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
