#!/usr/bin/env python3
"""Print the SHA-256 of every bundle file of the benchmark's workloads.

Usage, from the repository root::

    python tools/bundle_digests.py --src src --seed 1 > change.txt
    python tools/bundle_digests.py --src ../parent/src --seed 1 > parent.txt
    diff parent.txt change.txt

The three perfbench workloads of the seed are generated into a temporary
directory by ``perfbench/corpus.make_workload``, and ``textlaws.cli.main``,
imported from the ``--src`` directory, analyses every text of each one in
this process.  Each bundle file gives one ``workload/text/file sha256``
line, in workload, text and file-name order.  So two source trees that
print the same lines write the same bytes on those workloads.  The exit
status is 1 if any run exits nonzero.
"""

from __future__ import annotations

import argparse
import logging
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from bundle import digests  # noqa: E402
from corpus import WORKLOADS, make_workload  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the textlaws package "
                             "(default: this checkout's src)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from textlaws import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"textlaws was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    logging.disable(logging.INFO)  # the runs' notices are not what is compared
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            work = Path(tmp) / name
            for text in make_workload(name, args.seed, work):
                out = work / "out" / text.config.stem
                code = cli.main(["--config", str(text.config), "--out", str(out)])
                if code:
                    print(f"{name}/{text.config.stem}: exit {code}", file=sys.stderr)
                    failed += 1
                    continue
                for file, digest in digests(out).items():
                    print(f"{name}/{text.config.stem}/{file} {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
