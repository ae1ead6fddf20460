#!/usr/bin/env python3
"""Replay every ``lm_fit`` call of the benchmark's workloads and the fixture.

Usage, from the repository root::

    python tools/fit_replay.py --src ../parent/src --seed 1 > parent.txt
    python tools/fit_replay.py --src src --seed 1 > change.txt
    python tools/fit_replay.py --compare parent.txt change.txt

A replay runs ``textlaws.cli.main``, imported from the ``--src`` directory,
on the fixture config and on every text of the three perfbench workloads of
the seed, as ``tools/bundle_digests.py`` does, and prints one tab-separated
line per ``lm_fit`` call the pipeline makes: workload, text, model, points,
iterations, accepted steps, model evaluations, the ``converged`` flag, and
the SSE and parameters as ``repr``.  A call that raises prints ``raised`` as
its flag and the message in place of the parameters.  The exit status is 1
if any run exits nonzero.

``--compare A B`` reads two replays of the same inputs and prints per-model
totals, A then B.  It flags every fit whose SSE in B is above A's
× (1 + 1e-9) and every fit that converged in A but not in B, and exits 1 if
it flags any.  So with the parent as A, a flag is a fit the change made worse.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "run.ini"
SSE_TOLERANCE = 1e-9
COUNTS = ("iterations", "accepted", "evaluations")


def replay_run(config: Path, out: Path, workload: str, text: str) -> tuple[int, list[str]]:
    """Exit code of one ``cli.main`` run and one line per ``lm_fit`` call it made."""
    from textlaws import cli, pipeline
    from textlaws.errors import TextlawsError
    from textlaws.fitting import models

    evaluations = 0
    lines = []

    def counted(model):
        def evaluate(p, x):
            nonlocal evaluations
            evaluations += 1
            return model.evaluate(p, x)
        return dataclasses.replace(model, evaluate=evaluate)

    def recorded(model_id, data, init=None):
        nonlocal evaluations
        evaluations = 0
        head = f"{workload}\t{text}\t{model_id}\t{len(data)}"
        try:
            result = fit(model_id, data, init=init)
        except TextlawsError as exc:
            lines.append(f"{head}\t-\t-\t{evaluations}\traised\tnan\t{str(exc)!r}")
            raise
        converged = "true" if result.converged else "false"
        lines.append(
            f"{head}\t{result.iterations}\t{len(result.sse_trace) - 1}\t{evaluations}"
            f"\t{converged}\t{result.sse!r}\t{result.params!r}"
        )
        return result

    fit, originals = pipeline.lm_fit, dict(models.MODELS)
    pipeline.lm_fit = recorded
    models.MODELS.update({name: counted(model) for name, model in originals.items()})
    try:
        code = cli.main(["--config", str(config), "--out", str(out)])
    finally:
        pipeline.lm_fit = fit
        models.MODELS.update(originals)
    return code, lines


def replay(seed: int) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from corpus import WORKLOADS, make_workload

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = [("fixture", FIXTURE.stem, FIXTURE, Path(tmp) / "fixture")]
        for name in WORKLOADS:
            work = Path(tmp) / name
            runs += [(name, t.config.stem, t.config, work / "out" / t.config.stem)
                     for t in make_workload(name, seed, work)]
        for workload, text, config, out in runs:
            code, lines = replay_run(config, out, workload, text)
            for line in lines:
                print(line)
            if code:
                print(f"{workload}/{text}: exit {code}", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


def read_replay(path: Path) -> dict[tuple[str, str, str, int], dict]:
    """The fits of one replay by (workload, text, model, call number)."""
    fits = {}
    calls = defaultdict(int)
    for line in path.read_text(encoding="utf-8").splitlines():
        workload, text, model, points, iterations, accepted, evaluations, flag, sse, _ = (
            line.split("\t")
        )
        key = (workload, text, model)
        calls[key] += 1
        fits[(*key, calls[key])] = {
            "points": int(points),
            "iterations": 0 if iterations == "-" else int(iterations),
            "accepted": 0 if accepted == "-" else int(accepted),
            "evaluations": int(evaluations),
            "converged": flag == "true",
            "sse": math.inf if flag == "raised" else float(sse),
        }
    return fits


def compare(path_a: Path, path_b: Path) -> tuple[list[str], list[str]]:
    """Per-model total lines and flag lines for replays A and B."""
    a, b = read_replay(path_a), read_replay(path_b)
    if a.keys() != b.keys():
        only = sorted(a.keys() ^ b.keys())
        raise ValueError(f"the replays hold different fits, first {only[0]}")
    totals = defaultdict(lambda: defaultdict(int))  # "best" and "worst" start at 0
    flags = []
    for key in a:
        fa, fb = a[key], b[key]
        total = totals[key[2]]
        total["fits"] += 1
        for side, fit in (("a", fa), ("b", fb)):
            for name in COUNTS:
                total[f"{name}_{side}"] += fit[name]
            total[f"converged_{side}"] += fit["converged"]
        if math.isfinite(fa["sse"]) and math.isfinite(fb["sse"]):
            total["lower" if fb["sse"] < fa["sse"] else
                  "higher" if fb["sse"] > fa["sse"] else "equal"] += 1
            if fa["sse"] > 0:
                change = fb["sse"] / fa["sse"] - 1
                total["worst"] = max(total["worst"], change)
                total["best"] = min(total["best"], change)
        name = "/".join(map(str, key))
        if fa["points"] != fb["points"]:
            flags.append(f"FLAG {name}: {fa['points']} points in A, {fb['points']} in B")
        if fb["sse"] > fa["sse"] * (1 + SSE_TOLERANCE):
            flags.append(f"FLAG {name}: SSE {fa['sse']!r} -> {fb['sse']!r}")
        if fa["converged"] and not fb["converged"]:
            flags.append(f"FLAG {name}: converged in A, not in B")
    lines = ["model\tfits\titerations\taccepted\tevaluations\tconverged"
             "\tsse lower/equal/higher in B\tsse B/A - 1 from .. to"]
    for model in sorted(totals):
        t = totals[model]
        cells = [f"{t[f'{n}_a']:,} -> {t[f'{n}_b']:,}" for n in (*COUNTS, "converged")]
        lines.append("\t".join([model, str(t["fits"]), *cells,
                                f"{t['lower']}/{t['equal']}/{t['higher']}",
                                f"{t['best']:.2g} .. {t['worst']:.2g}"]))
    return lines, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the textlaws package "
                             "(default: this checkout's src)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two replays instead of running one")
    args = parser.parse_args(argv)

    if args.compare:
        lines, flags = compare(*args.compare)
        print("\n".join(lines + flags))
        return 1 if flags else 0

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from textlaws import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"textlaws was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    logging.disable(logging.INFO)  # the runs' notices are not what is compared
    return replay(args.seed)


if __name__ == "__main__":
    sys.exit(main())
