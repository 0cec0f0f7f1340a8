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
from .runconfig import ConfigError, load_config

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
        if data:
            p.add_argument("--data", required=True, help="synthesize output directory")
        if recon:
            p.add_argument("--recon", required=True, help="invert output directory")

    common(sub.add_parser("phantom", help="dump the exact coefficient"))
    common(sub.add_parser("synthesize", help="forward-solve and write data dumps"))
    common(sub.add_parser("invert", help="reconstruct from data dumps"), data=True)
    common(sub.add_parser("evaluate", help="accuracy and localization reports"), recon=True)
    common(sub.add_parser("bench", help="timing sweep over transverse sizes"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
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
            run_bench(config, out)
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
