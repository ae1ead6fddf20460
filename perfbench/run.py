#!/usr/bin/env python3
"""textlaws benchmark: end-to-end runs of ``analyze`` on synthetic corpora.

Usage, from the repository root::

    python3 perfbench/run.py --workload novel_1m --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed (see corpus.py), then
analysed by the unmodified program from ``src/`` until ``--seconds`` have
passed (at least twice).  Every bundle is checked against the designed
counts and against the first bundle of the same input, byte for byte.

``--trace 0`` times untraced runs: ``analyze`` child processes for the
one-text workloads, and one worker process looping over ``cli.main`` for
``chapters``.  ``--trace 1`` runs the workload in-process through
worker.py with spans around every layer and reports per-layer metrics;
the spans of the reported pass are kept in ``.perfbench_out/``.  Inputs and
bundles are written under ``.perfbench_work/<workload>/`` and deleted.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed analyze run or bundle
check makes the exit status 1; a missing ``src/textlaws`` makes it 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from bundle import check_bundle, digests
from corpus import LM_MODELS, WORKLOADS, DesignedText, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
SETUP_SPAWNS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
}

LAYERS = ("config", "tokenizer", "lexicon", "indices", "distributions", "fitting", "reports")
PER_LAYER = {
    "config.load_run_config_s": "s",
    "tokenizer.tokenize_s": "s",
    "tokenizer.split_sentences_s": "s",
    "tokenizer.tokens": "count",
    "tokenizer.sentences": "count",
    "tokenizer.chars": "count",
    "lexicon.build_form_spectrum_s": "s",
    "lexicon.read_merge_rules_s": "s",
    "lexicon.apply_merge_rules_s": "s",
    "lexicon.read_lemma_map_s": "s",
    "lexicon.read_overrides_s": "s",
    "lexicon.lemmatize_s": "s",
    "lexicon.forms": "count",
    "lexicon.lemma_map_rows": "count",
    "lexicon.mapped_token_ratio": "ratio",
    "indices.corpus_profile_s": "s",
    "distributions.load_g2p_s": "s",
    "distributions.length_letters_s": "s",
    "distributions.length_phonemes_s": "s",
    "distributions.length_syllables_s": "s",
    "distributions.mean_syllable_series_s": "s",
    "distributions.filter_min_support_s": "s",
    "distributions.rank_frequency_s": "s",
    "distributions.coverage_curve_s": "s",
    "distributions.top_k_s": "s",
    "distributions.rank_rows": "count",
    **{
        f"fitting.lm_fit.{model}{suffix}": unit
        for model in LM_MODELS
        for suffix, unit in (("_s", "s"), (".iterations", "count"),
                             (".accepted_steps", "count"), (".points", "count"))
    },
    "fitting.segmented_loglog_fit_s": "s",
    "fitting.fit_coverage_s": "s",
    "fitting.model_eval_s": "s",
    "fitting.model_eval.calls": "count",
    "reports.emit_plot_data_s": "s",
    "reports.write_profile_s": "s",
    "reports.write_topk_s": "s",
    "reports.write_fits_s": "s",
    "reports.files_written": "count",
    "reports.bytes_written": "count",
    **{f"{layer}.self_s": "s" for layer in (*LAYERS, "pipeline")},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


class Checker:
    """Checks every bundle and compares it with the first one of its input."""

    def __init__(self, texts: list[DesignedText]):
        self.designed = {str(t.config): t for t in texts}
        self.reference: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, config: str, bundle: str, code: int) -> None:
        self.attempted += 1
        out = Path(bundle)
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            problems = check_bundle(out, self.designed[config])
        if not problems:
            reference = self.reference.setdefault(config, digests(out))
            if digests(out) != reference:
                problems = ["bundle differs from an earlier run on the same input"]
        # deleted while young: most of its data has not been written back yet,
        # so the deletion frees no disk blocks that the next run would wait on
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failures.append(f"{Path(config).stem} -> {out.parent.name}/{out.name}: {'; '.join(problems)}")


def settle() -> None:
    """Wait until the file deletions of earlier runs have reached the disk.

    An fsync commits the file-system journal, and with it the discards of
    the blocks that earlier deletions freed.  On some disks those take
    seconds and stall every file creation meanwhile, so they are waited for
    here, before anything is timed.  Only a one-byte marker is flushed: the
    inputs stay in the page cache and are deleted at the end while young,
    before write-back has given them disk blocks to discard.
    """
    with open(WORK / ".settle", "wb") as marker:
        marker.write(b".")
        marker.flush()
        os.fsync(marker.fileno())


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run a child to completion; wall seconds, its peak RSS in MB, exit code."""
    with open(log, "ab") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=log.parent,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def time_setup(work: Path) -> list[float]:
    """Seconds for a fresh interpreter to import the package and exit."""
    argv = [sys.executable, "-m", "textlaws", "--version"]
    samples = []
    for k in range(SETUP_SPAWNS + 1):
        wall, _, code = spawn(argv, work / "setup.log")
        if code != 0:
            raise BenchError(f"{' '.join(argv[1:])} exited {code}")
        if k:  # the first spawn fills the bytecode cache
            samples.append(wall)
    return samples


def run_worker(job: dict, work: Path, name: str) -> tuple[dict, float]:
    job_file = work / f"{name}.job.json"
    job["result"] = str(work / f"{name}.result.json")
    job_file.write_text(json.dumps(job), encoding="utf-8")
    _, rss, code = spawn([sys.executable, str(HERE / "worker.py"), str(job_file)], work / "worker.log")
    if code != 0:
        raise BenchError(f"worker exited {code}; see its log:\n" + tail(work / "worker.log"))
    return json.loads(Path(job["result"]).read_text("utf-8")), rss


def tail(log: Path, lines: int = 20) -> str:
    return "\n".join(log.read_text("utf-8", errors="replace").splitlines()[-lines:])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(name: str, texts: list[DesignedText], seconds: float, work: Path, checker: Checker) -> dict:
    """Untraced runs until ``seconds`` have passed; end-to-end metrics."""
    configs = [str(t.config) for t in texts]
    walls, rss, latencies = [], [], []
    start = perf_counter()
    while len(walls) < 2 or perf_counter() - start < seconds:
        out = work / f"run{len(walls)}"
        if WORKLOADS[name].texts == 1:
            wall, peak, code = spawn(
                [sys.executable, "-m", "textlaws", "--config", configs[0], "--out", str(out)],
                work / "analyze.log",
            )
            checker.check(configs[0], str(out), code)
            latencies.append(wall)
        else:
            result, peak = run_worker(
                {"mode": "batch", "src": str(SRC), "configs": configs, "out": str(out)}, work, out.name
            )
            for config, bundle, code in result["bundles"]:
                checker.check(config, bundle, code)
            wall = result["wall_s"]
            latencies += result["latencies"]
        walls.append(wall)
        rss.append(peak)
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "tokens_per_s": sum(t.N for t in texts) / wall,
        "peak_rss_mb": statistics.median(rss),
        "call_p50_ms": 1000 * percentile(latencies, 50),
        "call_p90_ms": 1000 * percentile(latencies, 90),
        "_runs": len(walls),
        "_calls": len(latencies),
    }


def trace(name: str, texts: list[DesignedText], seconds: float, work: Path, checker: Checker) -> dict:
    TRACES.mkdir(exist_ok=True)
    trace_file = TRACES / f"trace_{name}.json"
    result, _ = run_worker(
        {"mode": "trace", "src": str(SRC), "configs": [str(t.config) for t in texts],
         "out": str(work / "trace"), "seconds": seconds, "trace_file": str(trace_file)},
        work, "trace",
    )
    for config, bundle, code in result["bundles"]:
        checker.check(config, bundle, code)
    metrics = result["metrics"]
    metrics["_repeats"] = result["repeats"]
    metrics["_trace_file"] = str(trace_file.relative_to(ROOT))
    return metrics


def print_end_to_end(name: str, texts: list[DesignedText], metrics: dict, setup: list[float]) -> None:
    t = texts[0]
    print(f"== {name}: {len(texts)} text(s) x {t.N:,} tokens; first text F={t.F:,} V={t.V:,} "
          f"sentences={t.sentences:,}; lemma map {t.lemma_map_rows:,} rows")
    notes = {
        "setup_s": f"median of {len(setup)} spawns of python -m textlaws --version",
        "wall_s": f"median of {metrics['_runs']} runs",
        "tokens_per_s": f"{sum(x.N for x in texts):,} designed tokens / wall_s",
        "peak_rss_mb": "median ru_maxrss of the working child",
        "call_p50_ms": f"over {metrics['_calls']} analyze calls",
        "call_p90_ms": f"over {metrics['_calls']} analyze calls",
    }
    for key, unit in END_TO_END.items():
        print(f"  {key:<16} {metrics[key]:>14.4f} {unit:<9} {notes[key]}")


def print_per_layer(name: str, metrics: dict) -> None:
    print(f"== {name}: traced pass of median wall among {metrics['_repeats']}, "
          f"spans in {metrics['_trace_file']}")
    for key, unit in PER_LAYER.items():
        value = metrics.get(key, 0.0)
        if unit == "ratio":
            text = (f"{value:.6f} = {metrics['lexicon.mapped_tokens']:,} / "
                    f"{metrics['lexicon.tokens']:,} tokens")
        elif unit == "count":
            text = f"{value:,}"
        else:
            text = f"{value:.4f} {unit}"
        print(f"  {key:<40} {text}")
    layers = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in (*LAYERS, "pipeline"))
    print(f"  layer self times + pipeline.self_s = {layers:.4f} s; trace.wall_s = "
          f"{metrics['trace.wall_s']:.4f} s; untraced wall {metrics['trace.untraced_wall_s']:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "textlaws" / "__init__.py").is_file():
        print(f"benchmark: no textlaws sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)  # left by an interrupted run
    work.mkdir(parents=True)
    try:
        texts = make_workload(args.workload, args.seed, work / "input")
        settle()
        checker = Checker(texts)
        if args.trace:
            metrics = trace(args.workload, texts, args.seconds, work, checker)
            print_per_layer(args.workload, metrics)
            wanted = PER_LAYER
        else:
            setup = time_setup(work)
            metrics = measure(args.workload, texts, args.seconds, work, checker)
            metrics["setup_s"] = statistics.median(setup)
            print_end_to_end(args.workload, texts, metrics, setup)
            wanted = END_TO_END
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in checker.failures:
        print(f"benchmark: check failed: {failure}", file=sys.stderr)
    print(f"  error_rate = {len(checker.failures)} / {checker.attempted} analyze runs")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {key: {"value": metrics.get(key, 0.0), "unit": unit} for key, unit in wanted.items()},
    }))
    return 1 if checker.failures else 0


if __name__ == "__main__":
    sys.exit(main())
