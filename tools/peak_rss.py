#!/usr/bin/env python3
"""Print the peak resident memory of one ``analyze`` run, and nothing else's.

Usage, from the repository root::

    python tools/peak_rss.py --workload wide_vocab --seed 7 --runs 3
    python tools/peak_rss.py --workload wide_vocab --seed 7 --src ../parent/src

The workload's inputs are generated by ``perfbench/corpus.make_workload``
in a child process of their own, and ``python -m textlaws`` analyses its
first text in another child, with the ``--src`` directory first on
``PYTHONPATH``.  Each run prints that child's ``ru_maxrss`` from
``os.wait4``, in MB of 1,024 KiB as perfbench reports it.

A child's ``ru_maxrss`` includes the high-water mark of the process that
spawned it (perfbench's ``peak_rss_mb`` includes perfbench's own input
generation), so this launcher imports no numpy and generates nothing
itself.  It prints its own high-water mark last: no reading can fall below
it.  The exit status is 1 if a child exits nonzero.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("novel_1m", "wide_vocab", "chapters")

GENERATE = (
    "import sys; from pathlib import Path\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from corpus import make_workload\n"
    "print(make_workload(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))[0].config)\n"
)


class ChildFailed(Exception):
    pass


def run(what: str, argv: list[str], log: Path, env: dict | None = None) -> tuple[float, str]:
    """A child's peak RSS in MB and its standard output; a nonzero exit raises.

    Its standard error goes to ``log``, and is shown only when it fails.
    """
    with open(log, "w+b") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code:
            err.seek(0)
            raise ChildFailed(f"{what} exited {code}:\n" + err.read().decode(errors="replace"))
    return usage.ru_maxrss / 1024, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=1, help="analyze runs (default: 1)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the textlaws package "
                             "(default: this checkout's src)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    path = str(args.src.resolve())
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    env = {**os.environ, "PYTHONPATH": path}
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "stderr.log"
        try:
            generate = [sys.executable, "-c", GENERATE, str(ROOT / "perfbench"),
                        args.workload, str(args.seed), tmp]
            peak, config = run("input generation", generate, log)
            print(f"generate {args.workload} seed {args.seed}: {peak:.1f} MB")
            peaks = []
            for k in range(args.runs):
                out = Path(tmp) / f"out{k}"
                peak, _ = run("analyze", [sys.executable, "-m", "textlaws", "--config",
                                          config.strip(), "--out", str(out)], log, env)
                peaks.append(peak)
                print(f"analyze run {k + 1}: {peak:.1f} MB")
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            return 1
    if args.runs > 1:
        print(f"analyze median: {statistics.median(peaks):.1f} MB")
    launcher = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"launcher: {launcher:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
