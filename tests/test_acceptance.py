"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 7 needs the original source-edition corpus resources and
is skipped (not failed) when they are not supplied via environment
variables.
"""

import functools
import math
import os
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from textlaws import (
    FormLexicon,
    apply_merge_rules,
    build_form_spectrum,
    corpus_profile,
    coverage_curve,
    form_lengths,
    lemmatize,
    length_distribution,
    load_default_g2p,
    rank_frequency,
    read_lemma_map,
    read_merge_rules,
    read_overrides,
    split_sentences,
    tokenize,
)
from textlaws.cli import main as cli_main
from textlaws.config import DEFAULT_UK_VOWELS
from textlaws.fitting import (
    fit_coverage,
    lm_fit,
    model_eval,
    segmented_loglog_fit,
)
from textlaws.fitting.models import phoneme_gamma_norm, shifted_menzerath_norm
from length_counters import count_syllables


def criterion(number, name):
    """Print one PASS/FAIL line per criterion around the wrapped test."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                outcome = "SKIPPED" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"ACCEPTANCE {number} ({name}): {outcome}")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# Criterion 1: fit recovery, noiseless to 1e-6 relative and noisy medians
# within 5%, in under ten seconds.
# ---------------------------------------------------------------------------

RECOVERY_CASES = [
    # published shape parameters; scales without a published value are
    # constructed (power-law amplitude 1000, coverage intercept 0.2)
    ("PhonemeGamma", {"b": 0.6347, "alpha": 0.02579}, np.arange(1.0, 21.0)),
    ("ShiftedMenzerath", {"d": 5.805, "gamma": 2.245}, np.arange(0.0, 13.0)),
    ("MeanSyllablePower", {"M_inf": 1.984, "B": 1.464, "c": -1.119}, np.arange(1.0, 7.0)),
    ("ZipfMandelbrot", {"A": 25000.0, "b": 1.14, "C": 5.2}, np.arange(1.0, 1001.0)),
]


def _lm_params(model_id, x, y):
    return lm_fit(model_id, list(zip(x, y))).params


def _rank_column(x, y):
    """``y`` at the ranks ``x`` (consecutive), padded with NaN at the ranks below."""
    return np.concatenate((np.full(int(x[0]) - 1, np.nan), y))


def _fit_zipf_power(x, f):
    segments = segmented_loglog_fit(_rank_column(x, f), breakpoints=((0, 200),))
    return {"A": segments[0].A, "z": segments[0].z}


def _fit_log_coverage(x, t):
    segments = fit_coverage(_rank_column(x, t), breakpoints=((9, 200),))
    return {"k": segments[0].k, "T0": segments[0].T0}


# the per-interval fits, as the pipeline runs them, on one interval holding
# the whole grid: (name, truth, grid, curve, fit)
INTERVAL_CASES = [
    ("ZipfPower", {"A": 1000.0, "z": 0.999}, np.arange(1.0, 201.0),
     lambda p, x: p["A"] * x ** -p["z"], _fit_zipf_power),
    ("LogCoverage", {"k": 0.133, "T0": 0.2}, np.arange(10.0, 201.0),
     lambda p, x: p["k"] * np.log(x) + p["T0"], _fit_log_coverage),
]


@criterion(1, "fit recovery")
def test_criterion_1_fit_recovery():
    started = time.perf_counter()

    for model_id, truth, x in RECOVERY_CASES:
        y = model_eval(model_id, truth, x)
        result = lm_fit(model_id, list(zip(x, y)))
        assert result.converged, model_id
        for pname, pval in truth.items():
            rel = abs(result.params[pname] - pval) / abs(pval)
            assert rel <= 1e-6, (model_id, pname, rel)

    for model_id, truth, x, curve, fit in INTERVAL_CASES:
        fitted = fit(x, curve(truth, x))
        for pname, pval in truth.items():
            rel = abs(fitted[pname] - pval) / abs(pval)
            assert rel <= 1e-6, (model_id, pname, rel)

    # 1% multiplicative noise, 100 seeds, medians within 5%
    noisy_cases = [
        (model_id, truth, x, functools.partial(model_eval, model_id),
         functools.partial(_lm_params, model_id))
        for model_id, truth, x in RECOVERY_CASES
    ] + INTERVAL_CASES
    for model_id, truth, grid, curve, fit in noisy_cases:
        clean = curve(truth, grid)
        recovered = {name: [] for name in truth}
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = clean * (1.0 + 0.01 * rng.standard_normal(clean.size))
            params = fit(grid, noisy)
            for name in truth:
                recovered[name].append(params[name])
        for name, value in truth.items():
            median = float(np.median(recovered[name]))
            assert abs(median - value) / abs(value) <= 0.05, (model_id, name, median)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"recovery suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: derived normalization constants close the unit integral.
# ---------------------------------------------------------------------------

@criterion(2, "normalization")
def test_criterion_2_normalization_integrals():
    b, alpha = 0.6347, 0.02579
    a_const = phoneme_gamma_norm(b, alpha)
    integral, _ = quad(lambda p: a_const * p**b * math.exp(-alpha * p * p), 0, math.inf)
    assert abs(integral - 1.0) <= 1e-6

    d, rate = 5.805, 2.245
    b_const = shifted_menzerath_norm(d, rate)
    integral, _ = quad(lambda t: b_const * t**d * math.exp(-rate * t), 0, math.inf)
    assert abs(integral - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# Criterion 3: the density constants' gamma identities at 1e-10 relative.
# ---------------------------------------------------------------------------

@criterion(3, "gamma function")
def test_criterion_3_gamma_identities():
    # at unit rate the constants are 1 / Gamma(d + 1) and 2 / Gamma((b + 1) / 2)
    for n in range(2, 13):
        expected = 1.0 / math.factorial(n - 1)
        assert abs(shifted_menzerath_norm(float(n - 1), 1.0) - expected) / expected <= 1e-10
    expected = 2.0 / math.sqrt(math.pi)
    assert abs(phoneme_gamma_norm(0.0, 1.0) - expected) / expected <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 4: the shipped fixture profile equals an independent recount.
# ---------------------------------------------------------------------------

ORACLE_TOKEN_RE = re.compile(r"§?\w+(?:[-'’]\w+)*")


def oracle_lexicon(counts, merges="", lemmas="", overrides=""):
    """Merge and lemmatize folded-form ``counts`` by hand, from the three TSV texts.

    ``counts`` is changed in place into the merged form counts; the lemma
    counts are returned.  A lemma map row with a share is one of a form's
    several rows.
    """
    for line in merges.splitlines():
        canonical, variants = line.split("\t")
        for variant in variants.split(","):
            if variant != canonical and variant in counts:
                counts[canonical] = counts.get(canonical, 0) + counts.pop(variant)

    rows, ambiguous = {}, {}
    for line in lemmas.splitlines():
        fields = line.split("\t")
        if len(fields) == 2:
            rows[fields[0]] = fields[1]
        else:
            ambiguous.setdefault(fields[0], []).append((fields[1], Fraction(float(fields[2]))))

    pinned = {}
    for line in overrides.splitlines():
        form, lemma, count = line.split("\t")
        pinned.setdefault(form, []).append((lemma, int(count)))

    lemma_counts = {}
    for form, count in counts.items():
        if form in pinned:
            for lemma, c in pinned[form]:
                if c:
                    lemma_counts[lemma] = lemma_counts.get(lemma, 0) + c
        elif form in rows:
            lemma = rows[form]
            lemma_counts[lemma] = lemma_counts.get(lemma, 0) + count
        elif form in ambiguous:
            shares = ambiguous[form]
            ssum = sum(s for _, s in shares)
            quotas = [(lemma, count * s / ssum) for lemma, s in shares]
            parts = {lemma: math.floor(q) for lemma, q in quotas}
            leftover = count - sum(parts.values())
            ranked = sorted(quotas, key=lambda lq: (-(lq[1] - math.floor(lq[1])), lq[0]))
            for lemma, _ in ranked[:leftover]:
                parts[lemma] += 1
            for lemma, part in parts.items():
                if part:
                    lemma_counts[lemma] = lemma_counts.get(lemma, 0) + part
    return lemma_counts


def _oracle_profile(fixtures_dir, threshold):
    """Brute-force recount of every profile field, sharing no library code."""
    text = (fixtures_dir / "corpus.txt").read_text(encoding="utf-8")
    tokens = ORACLE_TOKEN_RE.findall(text)
    folded = [t.casefold() for t in tokens]
    n = len(folded)

    counts = {}
    for w in folded:
        counts[w] = counts.get(w, 0) + 1
    lemma_counts = oracle_lexicon(counts, *(
        (fixtures_dir / name).read_text(encoding="utf-8")
        for name in ("merges.tsv", "lemmas.tsv", "overrides.tsv")
    ))

    v = len(lemma_counts)
    hapax = sum(1 for c in lemma_counts.values() if c == 1)
    n_at = sum(c for c in lemma_counts.values() if c >= threshold)
    v_at = sum(1 for c in lemma_counts.values() if c >= threshold)
    letters = sum(sum(ch.isalpha() for ch in tok) for tok in tokens)
    sentence_count = sum(1 for line in text.splitlines() if line.strip())

    return {
        "N": n,
        "F": len(counts),
        "V": v,
        "variety": v / n,
        "density": n / v,
        "hapax_V1": hapax,
        "excl_vocab": hapax / v,
        "excl_text": hapax / n,
        "N_at_threshold": n_at,
        "V_at_threshold": v_at,
        "conc_text": n_at / n,
        "conc_vocab": v_at / v,
        "mean_word_len_letters": letters / n,
        "mean_sentence_len_words": n / sentence_count,
        "threshold": threshold,
    }


def _library_profile(fixtures_dir, threshold):
    text = (fixtures_dir / "corpus.txt").read_text(encoding="utf-8")
    tokens = tokenize(text)
    sentences = len(split_sentences(text))
    forms = apply_merge_rules(
        build_form_spectrum(tokens), read_merge_rules(fixtures_dir / "merges.tsv")
    )
    lemmas = lemmatize(
        forms,
        read_lemma_map(fixtures_dir / "lemmas.tsv"),
        read_overrides(fixtures_dir / "overrides.tsv"),
    )
    return corpus_profile(tokens, sentences, forms, lemmas, threshold=threshold,
                          count_basis="lemmas", word_length_basis="tokens")


@criterion(4, "oracle equivalence")
def test_criterion_4_fixture_matches_recount(fixtures_dir):
    profile = _library_profile(fixtures_dir, threshold=10)
    expected = _oracle_profile(fixtures_dir, threshold=10)
    assert profile.N == 1000
    for field, value in expected.items():
        assert getattr(profile, field) == value, field

    degenerate = _library_profile(fixtures_dir, threshold=1)
    assert degenerate.conc_text == 1.0
    assert degenerate.conc_vocab == 1.0
    assert degenerate.N_at_threshold == degenerate.N
    assert degenerate.V_at_threshold == degenerate.V


# ---------------------------------------------------------------------------
# Criterion 5: segmented power-law fit recovers three constructed regimes.
# ---------------------------------------------------------------------------

@criterion(5, "segmented rank fit")
def test_criterion_5_three_regime_recovery():
    slopes = (0.999, 1.05, 1.20)
    uppers = (200, 1000, 2000)
    counts = []
    amp = 100000.0
    prev = 1
    for z, hi in zip(slopes, uppers):
        if counts:
            amp = counts[-1] * prev ** z
        for r in range(prev, hi + 1):
            counts.append(amp * r ** (-z))
        prev = hi + 1
    segments = segmented_loglog_fit(
        counts, breakpoints=((10, 200), (200, 1000), (1000, None))
    )
    for segment, z in zip(segments, slopes):
        assert abs(segment.z - z) <= 1e-3, (segment.lo, segment.z, z)


# ---------------------------------------------------------------------------
# Criterion 6: distribution invariants over randomized lexicons.
# ---------------------------------------------------------------------------

@criterion(6, "distribution invariants")
def test_criterion_6_distribution_invariants():
    rng = random.Random(20060815)
    g2p = load_default_g2p()
    consonants = "бвгджзклмнпрстфхшщ"
    letters = consonants + "аеиіоу"
    for _ in range(100):
        entries = {}
        for _ in range(rng.randint(1, 60)):
            length = rng.randint(1, 8)
            if rng.random() < 0.15:
                form = "".join(rng.choice(consonants) for _ in range(length))
            else:
                form = "".join(rng.choice(letters) for _ in range(length))
            entries[form] = rng.randint(1, 99)
        lex = FormLexicon(dict(entries), sum(entries.values()))
        basis = rng.choice(("types", "tokens"))
        table = form_lengths(lex, g2p, DEFAULT_UK_VOWELS)

        for unit in ("letters", "syllables"):
            dist = length_distribution(lex, unit, table, basis)
            assert abs(sum(f for _, f in dist) - 1.0) <= 1e-9
            assert all(length >= 0 for length, _ in dist)

        if any(count_syllables(form) == 0 for form in entries):
            syllables = length_distribution(lex, "syllables", table, basis)
            assert syllables[0][0] == 0
            assert syllables[0][1] > 0

        values = coverage_curve(rank_frequency(lex)).tolist()
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Criterion 7 (conditional, not gating): source-edition reproduction.
# ---------------------------------------------------------------------------

@criterion(7, "source corpus reproduction")
def test_criterion_7_source_corpus_conditional(tmp_path):
    text_path = os.environ.get("TEXTLAWS_SOURCE_TEXT")
    lemmas_path = os.environ.get("TEXTLAWS_SOURCE_LEMMAS")
    if not text_path or not lemmas_path:
        pytest.skip(
            "conditional criterion: set TEXTLAWS_SOURCE_TEXT and "
            "TEXTLAWS_SOURCE_LEMMAS (plus optional TEXTLAWS_SOURCE_MERGES / "
            "TEXTLAWS_SOURCE_OVERRIDES) to run the reproduction check"
        )
    from pathlib import Path

    text = Path(text_path).read_text(encoding="utf-8")
    tokens = tokenize(text)
    sentences = len(split_sentences(text))
    forms = build_form_spectrum(tokens)
    merges_path = os.environ.get("TEXTLAWS_SOURCE_MERGES")
    if merges_path:
        forms = apply_merge_rules(forms, read_merge_rules(merges_path))
    overrides_path = os.environ.get("TEXTLAWS_SOURCE_OVERRIDES")
    overrides = read_overrides(overrides_path) if overrides_path else []
    lemmas = lemmatize(forms, read_lemma_map(lemmas_path), overrides)
    profile = corpus_profile(tokens, sentences, forms, lemmas, threshold=10,
                             count_basis="lemmas", word_length_basis="tokens")

    assert profile.N == 93885
    assert abs(profile.V - 9962) / 9962 <= 0.02
    assert abs(100.0 * profile.excl_vocab - 49.2) <= 1.5
    assert abs(profile.mean_word_len_letters - 4.83) <= 0.05


# ---------------------------------------------------------------------------
# Criterion 8: two pipeline runs produce byte-identical bundles.
# ---------------------------------------------------------------------------

@criterion(8, "determinism")
def test_criterion_8_byte_identical_runs(fixtures_dir, tmp_path):
    config = fixtures_dir / "run.ini"
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli_main(["--config", str(config), "--out", str(out1)]) == 0
    assert cli_main(["--config", str(config), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert names  # bundle is non-empty
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
