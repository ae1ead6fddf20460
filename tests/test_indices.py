import random
from dataclasses import asdict

import pytest

from textlaws import (
    LemmaMap,
    ValidationError,
    build_form_spectrum,
    corpus_profile,
    lemmatize,
    split_sentences,
    tokenize,
)


def identity_lemmas(forms):
    return lemmatize(forms, LemmaMap(rows={form: form for form in forms.entries}))


def profile_of(text, threshold=10):
    tokens = tokenize(text)
    sentences = len(split_sentences(text))
    forms = build_form_spectrum(tokens)
    return corpus_profile(
        tokens, sentences, forms, identity_lemmas(forms), threshold=threshold,
        count_basis="lemmas", word_length_basis="tokens",
    )


def test_hand_computed_tiny_corpus():
    profile = profile_of("a b a")
    assert profile.N == 3
    assert profile.F == 2
    assert profile.V == 2
    assert profile.variety == 2 / 3
    assert profile.density == 1.5
    assert profile.hapax_V1 == 1
    assert profile.excl_vocab == 1 / 2
    assert profile.excl_text == 1 / 3


def test_threshold_one_degeneracy():
    profile = profile_of("a b a b c", threshold=1)
    assert profile.N_at_threshold == profile.N
    assert profile.V_at_threshold == profile.V
    assert profile.conc_text == 1.0
    assert profile.conc_vocab == 1.0


def test_raising_threshold_never_raises_counts():
    text = " ".join(["а"] * 30 + ["б"] * 10 + ["в"] * 3 + ["г"])
    previous_n = previous_v = None
    for threshold in range(1, 35):
        profile = profile_of(text, threshold=threshold)
        if previous_n is not None:
            assert profile.N_at_threshold <= previous_n
            assert profile.V_at_threshold <= previous_v
        previous_n, previous_v = profile.N_at_threshold, profile.V_at_threshold


def test_variety_times_density_is_one():
    profile = profile_of("а б в а б а г ґ д е є ж")
    assert abs(profile.variety * profile.density - 1.0) < 1e-12


def test_mean_word_length_counts_letters_only():
    # "1848" has no letters, "так" has three: 6 letters over 3 tokens
    profile = profile_of("так 1848 так")
    assert profile.mean_word_len_letters == 2.0


def test_mean_sentence_length():
    profile = profile_of("Один два три. Чотири п'ять шість.")
    assert profile.mean_sentence_len_words == 3.0


def test_empty_corpus_rejected():
    with pytest.raises(ValidationError):
        profile_of("")


def test_count_basis_forms_flag():
    # two forms of one lemma: hapax differs between bases
    tokens = tokenize("стежка стежки стежка")
    forms = build_form_spectrum(tokens)
    lemmas = lemmatize(forms, LemmaMap(rows={"стежка": "стежка", "стежки": "стежка"}))
    sentences = len(split_sentences("стежка стежки стежка"))
    on_lemmas, on_forms = (
        corpus_profile(tokens, sentences, forms, lemmas, threshold=10,
                       count_basis=basis, word_length_basis="tokens")
        for basis in ("lemmas", "forms")
    )
    assert on_lemmas.hapax_V1 == 0
    assert on_forms.hapax_V1 == 1


def test_missing_lemmas_leaves_lemma_fields_unset():
    tokens = tokenize("a b a")
    forms = build_form_spectrum(tokens)
    profile = corpus_profile(
        tokens, len(split_sentences("a b a")), forms, None,
        threshold=10, count_basis="lemmas", word_length_basis="tokens",
    )
    assert profile.V is None
    assert profile.variety is None
    assert profile.hapax_V1 is None
    assert profile.N == 3
    assert profile.F == 2


def test_profile_matches_brute_force_recount():
    """Field-by-field comparison against an independent recount."""
    rng = random.Random(42)
    # zipfish synthetic: form index i gets weight ~ 1/(i+1)
    vocab = [f"слово{i}" for i in range(80)] + ["б", "ж", "1848"]
    weights = [1.0 / (i + 1) for i in range(len(vocab))]
    stream = rng.choices(vocab, weights=weights, k=500)
    sentences_src, words = [], []
    i = 0
    while i < len(stream):
        size = min(rng.randint(4, 9), len(stream) - i)
        chunk = stream[i:i + size]
        i += size
        if not chunk[0][0].isalpha():
            chunk[0] = "слово0"
        words += chunk
        sentences_src.append(chunk[0].capitalize() + " " + " ".join(chunk[1:]) + ".")
    text = "\n".join(sentences_src) + "\n"

    lemma_of = {form: f"лема{ord(form[-1]) % 7}" if form[0] == "с" else form for form in vocab}
    tokens = tokenize(text)
    forms = build_form_spectrum(tokens)
    lemmas = lemmatize(forms, LemmaMap(rows=dict(lemma_of)))
    sentences = len(split_sentences(text))
    threshold = 10
    profile = corpus_profile(tokens, sentences, forms, lemmas, threshold=threshold,
                             count_basis="lemmas", word_length_basis="tokens")

    # --- independent recount ---------------------------------------------
    # the sentences hold each word once, the first one capitalized
    folded = [w.casefold() for w in words]
    n = len(folded)
    form_counts = {}
    for w in folded:
        form_counts[w] = form_counts.get(w, 0) + 1
    lemma_counts = {}
    for w, c in form_counts.items():
        lemma = lemma_of[w]
        lemma_counts[lemma] = lemma_counts.get(lemma, 0) + c
    v = len(lemma_counts)
    hapax = sum(1 for c in lemma_counts.values() if c == 1)
    n_at = sum(c for c in lemma_counts.values() if c >= threshold)
    v_at = sum(1 for c in lemma_counts.values() if c >= threshold)
    letters = sum(sum(ch.isalpha() for ch in w) for w in words)

    assert profile.N == n
    assert profile.F == len(form_counts)
    assert profile.V == v
    assert profile.variety == v / n
    assert profile.density == n / v
    assert profile.hapax_V1 == hapax
    assert profile.excl_vocab == hapax / v
    assert profile.excl_text == hapax / n
    assert profile.N_at_threshold == n_at
    assert profile.V_at_threshold == v_at
    assert profile.conc_text == n_at / n
    assert profile.conc_vocab == v_at / v
    assert profile.mean_word_len_letters == letters / n
    assert profile.mean_sentence_len_words == n / len(sentences_src)


def test_word_length_basis_types():
    text = "аа аа б"
    tokens = tokenize(text)
    forms = build_form_spectrum(tokens)
    sentences = len(split_sentences(text))
    by_tokens, by_types = (
        corpus_profile(tokens, sentences, forms, identity_lemmas(forms), threshold=10,
                       count_basis="lemmas", word_length_basis=basis)
        for basis in ("tokens", "types")
    )
    assert by_tokens.mean_word_len_letters == pytest.approx(5 / 3)
    assert by_types.mean_word_len_letters == pytest.approx(3 / 2)


def test_profile_serialization_keys():
    profile = profile_of("a b a")
    assert list(asdict(profile)) == [
        "N", "F", "V", "variety", "density", "hapax_V1", "excl_vocab", "excl_text",
        "N_at_threshold", "V_at_threshold", "conc_text", "conc_vocab",
        "mean_word_len_letters", "mean_sentence_len_words", "threshold",
    ]
