"""Self-tests of the benchmark's own code.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import textlaws.cli as cli  # noqa: E402
import textlaws.pipeline as pipeline  # noqa: E402
from textlaws import (  # noqa: E402
    apply_merge_rules,
    build_form_spectrum,
    lemmatize,
    read_lemma_map,
    read_merge_rules,
    read_overrides,
    split_sentences,
    tokenize,
)
from textlaws.config import load_run_config  # noqa: E402

import run  # noqa: E402
from bundle import check_bundle  # noqa: E402
from corpus import WorkloadSpec, make_workload  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402

SMALL = {
    "lemmas": WorkloadSpec(3_000, 2_000, 1.05, 2, "lemmas"),
    "forms": WorkloadSpec(3_000, 4_000, 0.6, 1, "forms"),
}


@pytest.fixture(scope="module")
def small_texts(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return {basis: make_workload("test", 7, root / basis, spec) for basis, spec in SMALL.items()}


@pytest.mark.parametrize("basis", sorted(SMALL))
def test_designed_counts_match_a_textlaws_recount(small_texts, basis):
    for designed in small_texts[basis]:
        cfg = load_run_config(designed.config)
        text = cfg.text_path.read_text(encoding="utf-8")
        tokens = tokenize(text, cfg.tokenizer)
        forms = apply_merge_rules(build_form_spectrum(tokens), read_merge_rules(cfg.merge_rules_path))
        lemmas = lemmatize(forms, read_lemma_map(cfg.lemma_map_path), read_overrides(cfg.overrides_path))
        mapped = len(tokens) - lemmas.unmapped_tokens
        assert len(tokens) == designed.N
        assert len(forms.entries) == designed.F
        assert lemmas.vocabulary_size == designed.V
        assert len(split_sentences(text, cfg.tokenizer, tokens)) == designed.sentences
        assert mapped == designed.mapped_tokens
        assert designed.rank_total == (designed.N if basis == "forms" else mapped)


def test_same_seed_same_inputs(tmp_path):
    first = make_workload("test", 3, tmp_path / "a", SMALL["lemmas"])
    second = make_workload("test", 3, tmp_path / "b", SMALL["lemmas"])
    assert [replace(d, config=None) for d in first] == [replace(d, config=None) for d in second]
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture()
def bundle(small_texts, tmp_path):
    designed = small_texts["lemmas"][0]
    out = tmp_path / "bundle"
    assert cli.main(["--config", str(designed.config), "--out", str(out)]) == 0
    return out, designed


def test_bundle_check_accepts_a_good_bundle(bundle):
    assert check_bundle(*bundle) == []


def test_bundle_check_rejects_a_truncated_file(bundle):
    out, designed = bundle
    ranks = out / "rank_freq.dat"
    data = ranks.read_bytes()
    ranks.write_bytes(data[: len(data) // 2])
    problems = check_bundle(out, designed)
    assert any("rank_freq.dat" in p for p in problems)


def test_bundle_check_rejects_a_wrong_n(bundle):
    out, designed = bundle
    profile = json.loads((out / "profile.json").read_text("utf-8"))
    profile["N"] += 1
    (out / "profile.json").write_text(json.dumps(profile) + "\n", encoding="utf-8")
    problems = check_bundle(out, designed)
    assert any("profile.json N" in p for p in problems)


def span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 1]


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        span("pipeline.main", "pipeline", 0.0, 10.0, None),
        span("lexicon.a", "lexicon", 1.0, 4.0, 0),
        span("tokenizer.b", "tokenizer", 2.0, 3.0, 1),
        span("reports.c", "reports", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    metrics = layer_metrics(spans, Counter())
    assert metrics["pipeline.self_s"] == 3.0
    assert metrics["lexicon.a_s"] == 2.0
    assert metrics["trace.wall_s"] == 10.0
    assert sum(metrics[f"{layer}.self_s"] for layer in ("pipeline", "lexicon", "tokenizer", "reports")) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("pipeline.main", "pipeline", 0.0, 10.0, None),
        span("lexicon.a", "lexicon", 1.0, 4.0, 0),
        span("lexicon.b", "lexicon", 3.0, 6.0, 0),
    ]
    assert self_times(spans)[0] == 5.0


def test_traced_run_adds_up_and_restores_the_pipeline(bundle, tmp_path):
    _, designed = bundle
    originals = dict(vars(pipeline)), dict(vars(cli))
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.wrap(cli.main, layer="pipeline")
        assert root(["--config", str(designed.config), "--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.uninstall()
    assert (dict(vars(pipeline)), dict(vars(cli))) == originals
    metrics = layer_metrics(tracer.spans, tracer.counts)
    layers = sum(metrics[f"{layer}.self_s"] for layer in (*run.LAYERS, "pipeline"))
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["tokenizer.tokens"] == designed.N
    assert metrics["lexicon.forms"] == designed.F
    assert metrics["lexicon.mapped_token_ratio"] == designed.mapped_tokens / designed.N
    missing = [name for name, unit in run.PER_LAYER.items()
               if unit == "s" and name not in metrics and name != "trace.overhead_s"]
    assert missing == []


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
