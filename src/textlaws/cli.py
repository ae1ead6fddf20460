"""Command-line entry point: run the whole analysis from one config file."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import KEYS, STAGES, load_run_config
from .errors import TextlawsError


def _analysis_flag(key: str):
    """An argparse type: the reader of the flag's [analysis] key."""
    def parse(raw: str):
        try:
            return KEYS["analysis"][key](raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _stage_list(raw: str) -> tuple[str, ...]:
    """An argparse type: a comma-separated list of one or more known stages."""
    stages = tuple(s.strip() for s in raw.split(",") if s.strip())
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown stage(s): {', '.join(unknown)}")
    if not stages:
        raise argparse.ArgumentTypeError("no stage named")
    return stages


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analyze",
        description="Tokenize a text, build frequency dictionaries, compute "
                    "corpus indices and fit rank/length distribution models.",
    )
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", dest="output_dir", type=Path,
                        help="output directory (overrides the config)")
    parser.add_argument("--only", dest="stages", type=_stage_list,
                        help="comma-separated stages to emit: " + ",".join(STAGES))
    parser.add_argument("--basis", type=_analysis_flag("basis"),
                        help="length-distribution basis (overrides the config)")
    parser.add_argument("--threshold", type=_analysis_flag("threshold"),
                        help="concentration-index frequency threshold")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="analyze: %(message)s")
    args = build_parser().parse_args(argv)

    # each flag's dest is the RunConfig field it overrides
    flags = {name: value for name, value in vars(args).items()
             if name != "config" and value is not None}
    try:
        config = replace(load_run_config(args.config), **flags)
        # the analysis code, and numpy with it, loads only for a valid config
        from .pipeline import run_analysis

        run_analysis(config)
    except TextlawsError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
