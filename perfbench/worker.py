"""Child process that calls ``textlaws.cli.main`` in-process over a job.

Usage: ``python worker.py JOB.json``.  The job names the configs, the
textlaws source directory, an output root and a mode:

* ``batch``: one closed loop over the configs, one caller, each call timed.
* ``trace``: one warm-up call, then repeated pairs of passes until
  ``seconds`` have passed.  In a pair, each config is called untraced and
  then traced.  The traced pass of median wall time gives the per-layer
  metrics, its spans are written to ``trace_file``, and its untraced
  partner gives the tracing overhead.

Each call writes its bundle to ``<out>/<pass>/<config stem>``.  The result
file lists every bundle with its exit code so the caller can check them.
``reports.files_written`` and ``reports.bytes_written`` count the files the
traced pass left in its bundles.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_metrics


def call(main, config: str, out: Path) -> tuple[float, list]:
    """One timed call; its latency and ``[config, bundle, exit code]``."""
    bundle = out / Path(config).stem
    start = perf_counter()
    code = main(["--config", config, "--out", str(bundle)])
    return perf_counter() - start, [config, str(bundle), code]


def run_pass(main, configs: list[str], out: Path) -> tuple[float, list[float], list[list]]:
    """Call ``main`` once per config; returns loop time, latencies and bundles."""
    latencies, bundles = [], []
    start = perf_counter()
    for config in configs:
        latency, bundle = call(main, config, out)
        latencies.append(latency)
        bundles.append(bundle)
    return perf_counter() - start, latencies, bundles


def trace_pairs(cli, configs: list[str], out: Path, seconds: float) -> dict:
    # the first call in a process pays for heap growth and lazy set-up;
    # a warm-up call keeps that out of the first pair
    _, bundle = call(cli.main, configs[0], out / "warm-up")
    bundles = [bundle]
    repeats = []
    start = perf_counter()
    while not repeats or perf_counter() - start < seconds:
        k = len(repeats)
        tracer = Tracer()
        root = tracer.wrap(cli.main, layer="pipeline")
        untraced = 0.0
        traced = []
        # untraced and traced calls alternate, so drift in machine speed
        # reaches both halves of the overhead estimate alike
        for config in configs:
            latency, bundle = call(cli.main, config, out / f"r{k}-plain")
            untraced += latency
            bundles.append(bundle)
            tracer.run += 1
            tracer.install()
            try:
                _, bundle = call(root, config, out / f"r{k}-traced")
            finally:
                tracer.uninstall()
            traced.append(bundle)
        metrics = layer_metrics(tracer.spans, tracer.counts)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
        metrics["trace.untraced_wall_s"] = untraced
        written = [f for _, b, _ in traced if Path(b).is_dir() for f in Path(b).iterdir()]
        metrics["reports.files_written"] = len(written)
        metrics["reports.bytes_written"] = sum(f.stat().st_size for f in written)
        repeats.append((metrics, tracer))
        bundles += traced
    repeats.sort(key=lambda r: r[0]["trace.wall_s"])
    metrics, tracer = repeats[(len(repeats) - 1) // 2]
    return {"metrics": metrics, "repeats": len(repeats), "bundles": bundles, "spans": tracer.spans}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    sys.path.insert(0, job["src"])
    import textlaws.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"worker: textlaws imported from {cli.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    out = Path(job["out"])
    if job["mode"] == "batch":
        wall, latencies, bundles = run_pass(cli.main, job["configs"], out)
        result = {"wall_s": wall, "latencies": latencies, "bundles": bundles}
    else:
        result = trace_pairs(cli, job["configs"], out, job["seconds"])
        spans = result.pop("spans")
        Path(job["trace_file"]).write_text(
            json.dumps({"spans": spans, "metrics": result["metrics"]}), encoding="utf-8"
        )
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
