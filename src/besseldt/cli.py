"""Command-line entry point.

One subcommand per experiment, its help the first paragraph of the runner's
docstring; common flags --config/--out/--seed.  Exit codes: 0 success, 1
config error (any ``ValueError``, or a config or output file that cannot be
read or written), 2 numerical-tolerance failure, 3 contract failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, ContractError, NumericsError
from .lab import EXPERIMENTS, emit_csv, parse_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besseldt",
        description="experiment drivers for the Bessel-Poisson "
                    "differential-transform suite")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in EXPERIMENTS.items():
        # the first paragraph of the runner's docstring (None under -OO)
        sp = sub.add_parser(name, help=(run.__doc__ or "").split("\n\n")[0])
        sp.add_argument("--config", help="path to key=value config file")
        sp.add_argument("--out", help="output CSV path")
        sp.add_argument("--seed", type=int, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not UTF-8: {exc}") from None
        else:
            text = f"experiment={args.command}"
        cfg = parse_config(text)
        if cfg.experiment != args.command:
            raise ConfigError(
                f"config names experiment {cfg.experiment!r} but the "
                f"subcommand is {args.command!r}")
        if args.seed is not None:
            cfg = replace(cfg, values={**cfg.values, "seed": args.seed})

        result = EXPERIMENTS[cfg.experiment](cfg)

        out = args.out or cfg.out or f"{cfg.experiment}.csv"
        try:
            emit_csv(out, result.meta, result.header, result.rows)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from None
        for key, val in result.summary.items():
            print(f"{key} = {val}")
        print(f"wrote {out} ({len(result.rows)} rows)")
        if result.tolerance_failures:
            for msg in result.tolerance_failures:
                print(f"tolerance failure: {msg}", file=sys.stderr)
            return 2
        if result.contract_failures:
            for msg in result.contract_failures:
                print(f"contract failure: {msg}", file=sys.stderr)
            return 3
        return 0
    except ValueError as exc:  # ConfigError and plain input validation
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
