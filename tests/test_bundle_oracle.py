"""The bundle of random valid inputs against a recount that shares no library code.

Texts are drawn over the tokenizer oracle's alphabet, after a few words,
some of which end sentences and some of which the lemma map, the merge
rules and the overrides name.  Configs and resources are drawn valid only,
so every run must exit 0.  Tokens and sentences are recounted by
``tokenizer_oracle``, forms and lemmas by the lexicon recount of the
acceptance suite.

Two relations check the bundle as a function of the counts, fits included:
a text of whole-sentence lines gives the same bytes in any line order, and
written twice it gives exactly twice the counts.
"""

import contextlib
import io
import json
import shutil
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from hypothesis import assume, given, settings, strategies as st

from textlaws.cli import main
from test_acceptance import oracle_lexicon
from test_tokenizer import tokenizer_configs
from tokenizer_oracle import (
    ORACLE_ALPHABET,
    split_sentences as oracle_split_sentences,
    tokenize as oracle_tokenize,
)

# forms the resources name; each is its own casefold
FORMS = ("т", "b", "аб", "ss")
# words that end a sentence, or not (after the abbreviation т), before a capital
WORDS = FORMS + ("Т.", "т.", "Ab!", "«Т", "ß…")
LEMMAS = ("x", "y", "z")
# shares whose splits tie exactly (0.5, 2, 0.5 over a count of 4) or only
# nearly (0.1 and 0.3 are not exact in binary)
SHARES = ("0", "0.1", "0.3", "0.5", "1", "2", "2.5", "3")

analysis_sections = st.fixed_dictionaries({
    "basis": st.sampled_from(["types", "tokens"]),
    "rank_basis": st.sampled_from(["lemmas", "forms"]),
    "count_basis": st.sampled_from(["lemmas", "forms"]),
    "word_length_basis": st.sampled_from(["tokens", "types"]),
    "threshold": st.integers(1, 5),
    "top_k": st.integers(1, 12),
})


def _merge_lines(rules):
    """Merge rules of ``(canonical, variants)``, each variant in one rule only."""
    seen, lines = set(), []
    for canonical, variants in rules:
        if variants := [v for v in sorted(variants) if v not in seen]:
            seen.update(variants)
            lines.append(f"{canonical}\t{','.join(variants)}\n")
    return "".join(lines)


def _lemma_lines(entries):
    """One row per plain form; two or three rows with shares per ambiguous one."""
    lines = []
    for form, lemmas in entries.items():
        if isinstance(lemmas, str):
            lines.append(f"{form}\t{lemmas}\n")
        else:
            lines += [f"{form}\t{lemma}\t{share}\n" for lemma, share in lemmas]
    return "".join(lines)


_ambiguous = st.lists(
    st.tuples(st.sampled_from(LEMMAS), st.sampled_from(SHARES)),
    min_size=2, max_size=3, unique_by=lambda row: row[0],
).filter(lambda rows: any(share != "0" for _, share in rows))
merge_rules = st.lists(
    st.tuples(st.sampled_from(FORMS), st.sets(st.sampled_from(FORMS), min_size=1)),
    max_size=3,
).map(_merge_lines)
resources = st.fixed_dictionaries({}, optional={
    "merges.tsv": merge_rules,
    "lemmas.tsv": st.dictionaries(
        st.sampled_from(FORMS), st.sampled_from(LEMMAS) | _ambiguous, min_size=1
    ).map(_lemma_lines),
    # counts above a form's count are cut to it once the forms are recounted
    "overrides.tsv": st.lists(
        st.tuples(st.sampled_from(FORMS), st.sampled_from(LEMMAS), st.integers(0, 3)),
        max_size=3,
    ),
})
RESOURCE_KEYS = {"merges.tsv": "merge_rules", "lemmas.tsv": "lemma_map",
                 "overrides.tsv": "overrides"}


def _override_lines(rows, forms):
    """The override rows, each count cut so that no form is pinned above its count."""
    left, lines = dict(forms), []
    for form, lemma, count in rows:
        count = min(count, left.get(form, 0))
        left[form] = left.get(form, 0) - count
        lines.append(f"{form}\t{lemma}\t{count}\n")
    return "".join(lines)


def _section(name, values):
    return f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())


def _tokenizer_section(tok_cfg):
    return _section("tokenizer", {
        "intra_token_chars": "".join(sorted(tok_cfg.intra_token_chars)),
        "sentence_terminators": "".join(sorted(tok_cfg.sentence_terminators)),
        "case_folding": str(tok_cfg.case_folding).lower(),
        "abbreviations": ",".join(sorted(tok_cfg.abbreviations)),
    })


def _read_plot(path):
    return [tuple(map(float, line.split())) for line in path.read_text().splitlines()]


@settings(max_examples=100, deadline=None)
@given(
    words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
    tail=st.text(alphabet=ORACLE_ALPHABET, max_size=120),
    tok_cfg=tokenizer_configs,
    analysis=analysis_sections,
    resources=resources,
)
def test_bundle_matches_an_independent_recount(words, tail, tok_cfg, analysis, resources):
    text = " ".join([*words, tail])
    tokens = oracle_tokenize(text, tok_cfg)
    sentences = oracle_split_sentences(text, tok_cfg, tokens)
    n = len(tokens)

    forms = dict(Counter(t.folded for t in tokens))
    merges = resources.get("merges.tsv", "")
    lemma_map = resources.get("lemmas.tsv")
    overrides = ""
    if "overrides.tsv" in resources:
        merged = dict(forms)
        oracle_lexicon(merged, merges)
        overrides = resources["overrides.tsv"] = _override_lines(resources["overrides.tsv"], merged)
    lemmas = oracle_lexicon(forms, merges, lemma_map or "", overrides)
    ranked = forms
    if lemma_map is not None and analysis["rank_basis"] == "lemmas":
        # an empty lemma lexicon cannot be ranked: that run fails on purpose
        assume(lemmas)
        ranked = lemmas

    body = "[paths]\ntext = corpus.txt\n" + "".join(
        f"{RESOURCE_KEYS[name]} = {name}\n" for name in resources
    )
    body += _tokenizer_section(tok_cfg) + _section("analysis", analysis)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in {"run.ini": body, "corpus.txt": text, **resources}.items():
            (root / name).write_text(content, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["--config", str(root / "run.ini"), "--out", str(root / "out"),
                         "--only", "profile,lengths,ranks"])
        assert code == 0, stderr.getvalue()
        out = root / "out"

        profile = json.loads((out / "profile.json").read_text(encoding="utf-8"))
        assert (profile["N"], profile["F"]) == (n, len(forms))
        assert profile["V"] == (len(lemmas) if lemma_map is not None else None)
        assert profile["mean_sentence_len_words"] == n / len(sentences)

        for unit in ("letters", "phonemes", "syllables"):
            shares = [y for _, y in _read_plot(out / f"lengths_{unit}.dat")]
            assert abs(sum(shares) - 1) <= 1e-5, unit

        # by count, descending, then by item
        order = sorted(ranked.items(), key=lambda item: (-item[1], item[0]))
        total = sum(ranked.values())
        rank_freq = _read_plot(out / "rank_freq.dat")
        assert rank_freq == [(r, c) for r, (_, c) in enumerate(order, start=1)]
        assert sum(c for _, c in rank_freq) == total
        assert _read_plot(out / "coverage.dat")[-1][1] == 1.0

        k = min(analysis["top_k"], len(order))
        topk = (out / "topk.tsv").read_text(encoding="utf-8").splitlines()
        assert topk == [
            f"{rank}\t{item}\t{100.0 * count / total:.4f}"
            for rank, (item, count) in enumerate(order[:k], start=1)
        ]


# each line starts with a capital and ends in a token and a period that no
# abbreviation takes, under a config where the period is a terminator and
# no intra-token char: so every line is whole sentences, whatever line
# comes before or after it
FIRST, LAST = "Він", "кінець."


def _line_config(tok_cfg):
    return replace(tok_cfg, intra_token_chars=tok_cfg.intra_token_chars - {"."},
                   sentence_terminators=tok_cfg.sentence_terminators | {"."})


# enough distinct forms per syllable count for the mean-syllable fits, with
# letters per syllable that are not exact in binary (5/3, 7/6, ...)
syllabic_words = st.lists(
    st.sampled_from(["а", "о", "ба", "ве", "ді", "ко", "лу", "ма", "не", "ро", "сті", "тра"]),
    min_size=1, max_size=6,
).map("".join)
sentence_lines = st.lists(
    st.tuples(st.lists(st.sampled_from(WORDS) | syllabic_words, max_size=16),
              st.text(alphabet=ORACLE_ALPHABET, max_size=30)).map(
        lambda line: " ".join([FIRST, *line[0], line[1], LAST])
    ),
    min_size=1, max_size=12,
)


def _run_bundle(root, body, files):
    """Write the config and its files into ``root`` and run it; the bundle's directory."""
    root.mkdir()
    for name, content in {"run.ini": body, **files}.items():
        (root / name).write_text(content, encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["--config", str(root / "run.ini"), "--out", str(root / "out")])
    assert code == 0, stderr.getvalue()
    return root / "out"


def _bundle_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@settings(max_examples=60, deadline=None)
@given(lines=sentence_lines, tok_cfg=tokenizer_configs, analysis=analysis_sections,
       resources=resources, data=st.data())
def test_line_order_leaves_the_bundle_unchanged(lines, tok_cfg, analysis, resources, data):
    tok_cfg = _line_config(tok_cfg)
    shuffled = data.draw(st.permutations(lines))
    text = "\n".join(lines) + "\n"
    # the merged form counts, which the overrides must not exceed
    forms = dict(Counter(t.folded for t in oracle_tokenize(text, tok_cfg)))
    oracle_lexicon(forms, resources.get("merges.tsv", ""))
    if "overrides.tsv" in resources:
        resources["overrides.tsv"] = _override_lines(resources["overrides.tsv"], forms)
    if "lemmas.tsv" in resources and analysis["rank_basis"] == "lemmas":
        # an empty lemma lexicon cannot be ranked
        assume(oracle_lexicon(forms, "", resources["lemmas.tsv"],
                              resources.get("overrides.tsv", "")))
    body = "[paths]\ntext = corpus.txt\n" + "".join(
        f"{RESOURCE_KEYS[name]} = {name}\n" for name in resources
    )
    body += _tokenizer_section(tok_cfg) + _section("analysis", analysis)
    with tempfile.TemporaryDirectory() as tmp:
        bundles = [
            _bundle_bytes(_run_bundle(Path(tmp) / name, body, {"corpus.txt": content, **resources}))
            for name, content in (("original", text), ("shuffled", "\n".join(shuffled) + "\n"))
        ]
    assert bundles[0] == bundles[1]


def test_fixture_line_order_leaves_the_bundle_unchanged(fixtures_dir, tmp_path):
    lines = (fixtures_dir / "corpus.txt").read_text(encoding="utf-8").splitlines()
    for name in ("original", "reversed"):
        shutil.copytree(fixtures_dir, tmp_path / name)
    (tmp_path / "reversed" / "corpus.txt").write_text(
        "\n".join(reversed(lines)) + "\n", encoding="utf-8"
    )
    bundles = []
    for name in ("original", "reversed"):
        root = tmp_path / name
        assert main(["--config", str(root / "run.ini"), "--out", str(root / "out")]) == 0
        bundles.append(_bundle_bytes(root / "out"))
    assert len(bundles[0]) == 15
    assert bundles[0] == bundles[1]


# fits of values that do not scale with the counts: shares and mean lengths
SHAPE_FITS = ("PhonemeGamma", "ShiftedMenzerath", "MeanSyllablePower", "MeanSyllableExp")
# files that hold only shares, lengths and ranks
SHAPE_FILES = ("coverage.dat", "lengths_letters.dat", "lengths_phonemes.dat",
               "lengths_syllables.dat", "mean_syllable.dat", "topk.tsv")


def assert_doubled(once, twice):
    """``twice``, the bundle of a text written twice, against ``once``'s.

    The counts are linear in the text only without a lemma map: its
    overrides pin absolute counts and its homonym splits round, so neither
    is used here.  Doubling is exact in binary floating point, and the fit
    loop's tests are relative, so the fits of shares are bit-identical and
    ZipfMandelbrot's amplitude and SSE scale exactly (its standard errors
    need not).
    """
    first, second = (json.loads((out / "profile.json").read_text("utf-8")) for out in (once, twice))
    assert (second["N"], second["F"]) == (2 * first["N"], first["F"])
    assert second["threshold"] == 2 * first["threshold"]
    for key in ("mean_word_len_letters", "mean_sentence_len_words", "V_at_threshold",
                "conc_text", "conc_vocab"):
        assert second[key] == first[key], key
    assert second["N_at_threshold"] == 2 * first["N_at_threshold"]
    assert (second["hapax_V1"], second["excl_vocab"], second["excl_text"]) == (0, 0, 0)

    ranks = [_read_plot(out / "rank_freq.dat") for out in (once, twice)]
    assert ranks[1] == [(r, 2 * c) for r, c in ranks[0]]
    for name in SHAPE_FILES:
        assert (once / name).exists() == (twice / name).exists(), name
        if (once / name).exists():
            assert (once / name).read_bytes() == (twice / name).read_bytes(), name

    fits = [json.loads((out / "fits.json").read_text("utf-8")) for out in (once, twice)]
    for model_id in SHAPE_FITS:
        assert _same(fits[1].get(model_id), fits[0].get(model_id)), model_id
        curve = f"fitcurve_{model_id}.dat"
        assert (once / curve).exists() == (twice / curve).exists(), model_id
        if (once / curve).exists():
            assert (once / curve).read_bytes() == (twice / curve).read_bytes(), model_id
    zm, zm2 = fits[0]["ZipfMandelbrot"], fits[1]["ZipfMandelbrot"]
    if "params" not in zm:
        assert _same(zm2, zm)
        return
    assert _same(zm2["params"], {**zm["params"], "A": 2 * zm["params"]["A"]})
    assert _same(zm2["sse"], 4 * zm["sse"])
    assert (zm2["iterations"], zm2["converged"]) == (zm["iterations"], zm["converged"])


def _same(a, b):
    """Equal as JSON values, where NaN equals NaN."""
    return json.dumps(a) == json.dumps(b)


FITS = "[fits]\nmodels = " + ",".join((*SHAPE_FITS, "ZipfMandelbrot")) + "\n"


@settings(max_examples=40, deadline=None)
@given(lines=sentence_lines, tok_cfg=tokenizer_configs, analysis=analysis_sections,
       merges=st.none() | merge_rules)
def test_text_written_twice_doubles_the_counts(lines, tok_cfg, analysis, merges):
    text = "\n".join(lines) + "\n"
    analysis = {**analysis, "rank_basis": "forms", "count_basis": "forms"}
    files = {} if merges is None else {"merges.tsv": merges}
    body = "[paths]\ntext = corpus.txt\n" + "".join(
        f"{RESOURCE_KEYS[name]} = {name}\n" for name in files
    )
    body += _tokenizer_section(_line_config(tok_cfg))
    with tempfile.TemporaryDirectory() as tmp:
        once, twice = (
            _run_bundle(Path(tmp) / name, body + _section("analysis", {
                **analysis, "threshold": k * analysis["threshold"]}) + FITS,
                {"corpus.txt": k * text, **files})
            for k, name in ((1, "once"), (2, "twice"))
        )
        assert_doubled(once, twice)


def test_fixture_written_twice_doubles_the_counts(fixtures_dir, tmp_path):
    text = (fixtures_dir / "corpus.txt").read_text(encoding="utf-8")
    outs = []
    for k in (1, 2):
        root = tmp_path / f"x{k}"
        root.mkdir()
        shutil.copy(fixtures_dir / "merges.tsv", root)
        (root / "corpus.txt").write_text(k * text, encoding="utf-8")
        (root / "run.ini").write_text(
            "[paths]\ntext = corpus.txt\nmerge_rules = merges.tsv\n"
            f"[analysis]\nthreshold = {10 * k}\nrank_basis = forms\ncount_basis = forms\n"
            + FITS, encoding="utf-8")
        assert main(["--config", str(root / "run.ini"), "--out", str(root / "out")]) == 0
        outs.append(root / "out")
    assert "params" in json.loads((outs[0] / "fits.json").read_text("utf-8"))["ZipfMandelbrot"]
    assert_doubled(*outs)
