"""Command-line batch runner.

Subcommands: phantom, synthesize, invert, evaluate, bench. Exit codes:
0 success, 2 configuration error (including unknown keys), 3 numerical
failure (a forward solve short of its tolerance within its cap on operator
applications, or a failed per-mode solve), 4 I/O error (including malformed field dumps and stage manifests).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .fieldio import LafFormatError
from .forward import ForwardError
from .inverse import ModeSolveError
from .manifest import ManifestError
from .pipeline import run_bench, run_evaluate, run_invert, run_phantom, run_synthesize
from .runconfig import ConfigError, config_from_dict, read_yaml

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatlayer",
        description="Synthesize scattered acoustic data and reconstruct the "
        "inhomogeneity coefficient from flat-layer measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, data: bool = False, recon: bool = False):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override noise seed")
        p.add_argument(
            "--freq",
            default=None,
            help="override frequency list, comma separated (e.g. 1,2,3)",
        )
        p.add_argument("--delta", type=float, default=None, help="override noise level")
        p.add_argument(
            "--method",
            choices=("tsvd", "tikhonov"),
            default=None,
            help="override regularizer method",
        )
        if data:
            p.add_argument("--data", required=True, help="synthesize output directory")
        if recon:
            p.add_argument("--recon", required=True, help="invert output directory")

    common(sub.add_parser("phantom", help="dump the exact coefficient"))
    common(sub.add_parser("synthesize", help="forward-solve and write data dumps"))
    common(sub.add_parser("invert", help="reconstruct from data dumps"), data=True)
    common(sub.add_parser("evaluate", help="accuracy and localization reports"), recon=True)
    bench = sub.add_parser("bench", help="timing sweep over transverse sizes")
    common(bench)
    bench.add_argument(
        "--n-list", default=None, help="comma-separated powers of two (e.g. 32,64,128)"
    )
    return parser


def _apply_overrides(data: dict, args: argparse.Namespace) -> dict:
    """data, a parsed config file, with the command line's overrides written in,
    so that they pass the checks the file's own values do."""
    def put(section: str, key: str, value):
        # a section that is not a mapping is left for the reader to reject
        if value is not None and isinstance(data.setdefault(section, {}), dict):
            data[section][key] = value

    put("noise", "seed", args.seed)
    put("noise", "delta", args.delta)
    put("regularizer", "method", args.method)
    if args.freq is not None:
        data["frequencies"] = [tok for tok in args.freq.split(",") if tok]
    return data


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = config_from_dict(_apply_overrides(read_yaml(args.config), args))
        out = Path(args.out)
        if args.command == "phantom":
            run_phantom(config, out)
        elif args.command == "synthesize":
            run_synthesize(config, out)
        elif args.command == "invert":
            run_invert(config, args.data, out)
        elif args.command == "evaluate":
            run_evaluate(config, args.recon, out)
        elif args.command == "bench":
            n_list = None
            if args.n_list:
                try:
                    n_list = [int(tok) for tok in args.n_list.split(",") if tok]
                except ValueError as exc:
                    raise ConfigError(f"bad --n-list {args.n_list!r}") from exc
            run_bench(config, n_list, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ForwardError, ModeSolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, LafFormatError, ManifestError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
