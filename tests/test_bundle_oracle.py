"""The bundle of random valid inputs against a recount that shares no library code.

Texts are drawn over the tokenizer oracle's alphabet, after a few words,
some of which end sentences and some of which the lemma map, the merge
rules and the overrides name.  Configs and resources are drawn valid only,
so every run must exit 0.  Tokens and sentences are recounted by
``tokenizer_oracle``, forms and lemmas by the lexicon recount of the
acceptance suite.
"""

import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

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
resources = st.fixed_dictionaries({}, optional={
    "merges.tsv": st.lists(
        st.tuples(st.sampled_from(FORMS), st.sets(st.sampled_from(FORMS), min_size=1)),
        max_size=3,
    ).map(_merge_lines),
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
    body += _section("tokenizer", {
        "intra_token_chars": "".join(sorted(tok_cfg.intra_token_chars)),
        "sentence_terminators": "".join(sorted(tok_cfg.sentence_terminators)),
        "case_folding": str(tok_cfg.case_folding).lower(),
        "abbreviations": ",".join(sorted(tok_cfg.abbreviations)),
    })
    body += _section("analysis", analysis)
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
