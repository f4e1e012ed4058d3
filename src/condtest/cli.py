"""Command-line entry point for the experiment harness.

Every subcommand builds an ExperimentSpec of its kind and runs it; the
subcommands come from ``harness.KINDS`` and their flags from
``harness.FIELDS``.  A JSON config file (--config) may set the subcommand's
flags, each keyed by the spec field it sets (hyphens or underscores), and
nothing else; explicit flags win.  Bad input ends with an ``error: ...``
line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (FIELDS, KINDS, ExperimentSpec, HarnessError, out_dir,
                      read_json_object, run_experiment)
from .oracles import OracleError

# --config, the one flag that sets no spec field, as (rule, flag, type, help).
_CONFIG = (None, "--config", None, "JSON file mirroring the flags; explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condtest",
        description="Conditional-sampling distribution testers: experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS.values():
        if kind.command is not None:
            p = sub.add_parser(kind.command, help=kind.help)
            for name in kind.options + ("config",):
                _, flag, cast, text = FIELDS.get(name, _CONFIG)
                p.add_argument(flag, type=cast, dest=name, help=text)
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The spec of the subcommand's kind from its flags over its --config
    file, whose keys must be the subcommand's own flags."""
    flags = dict(vars(args))
    command, config = flags.pop("command"), flags.pop("config", None)
    payload = read_json_object(config, "config") if config else {}
    merged = {key.replace("-", "_"): value for key, value in payload.items()}
    unknown = sorted(merged.keys() - flags.keys())
    if unknown:
        raise HarnessError(f"unrecognized option in config or flags: {', '.join(unknown)}")
    merged.update((key, value) for key, value in flags.items() if value is not None)
    kind = next(name for name, k in KINDS.items() if k.command == command)
    return ExperimentSpec(kind=kind, **{k: v for k, v in merged.items() if v is not None})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        rows, summary = run_experiment(spec)
    except (HarnessError, OracleError, ValueError, MemoryError) as err:
        # ValueError covers distcore.DomainError and bad numeric input;
        # MemoryError an array too large to allocate.
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2, default=str))
    print(f"wrote {out_dir(spec) / spec.experiment_id}.csv and .json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
