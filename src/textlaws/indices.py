"""Scalar corpus statistics: size, richness, exclusiveness, concentration.

All indices derive from one text's token counts, its sentence count and
the lexicons built from them.
Hapax and concentration counts default to the lemma lexicon; a basis flag
recomputes them over word-forms for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import count_letters
from .errors import ValidationError
from .lexicon import FormLexicon, LemmaLexicon
from .tokenizer import Tokens

# lexicon feeding the hapax and concentration counts
COUNT_BASES = ("lemmas", "forms")
# what the mean word length averages over
WORD_LENGTH_BASES = ("tokens", "types")


@dataclass
class CorpusProfile:
    N: int
    F: int
    V: int | None
    variety: float | None
    density: float | None
    hapax_V1: int | None
    excl_vocab: float | None
    excl_text: float | None
    N_at_threshold: int | None
    V_at_threshold: int | None
    conc_text: float | None
    conc_vocab: float | None
    mean_word_len_letters: float
    mean_sentence_len_words: float | None
    threshold: int


def corpus_profile(
    tokens: Tokens,
    sentences: int,
    forms: FormLexicon,
    lemmas: LemmaLexicon | None = None,
    *,
    threshold: int,
    count_basis: str,
    word_length_basis: str,
) -> CorpusProfile:
    """Compute every scalar index from one corpus.

    ``sentences`` is the number of sentences, ``len(split_sentences(text))``.
    ``count_basis`` selects the lexicon feeding hapax and concentration
    counts ("lemmas" or "forms"); vocabulary size and its ratios always come
    from the lemma lexicon and are left unset when it is unavailable.
    ``word_length_basis`` averages letters per token over the running text
    ("tokens") or over distinct word-forms ("types").
    """
    if forms.total_tokens == 0 or not tokens:
        raise ValidationError("corpus is empty; all indices are undefined")
    if threshold < 1:
        raise ValidationError("threshold must be >= 1")
    if count_basis not in COUNT_BASES:
        raise ValidationError(f"unknown count basis {count_basis!r}")
    if word_length_basis not in WORD_LENGTH_BASES:
        raise ValidationError(f"unknown word length basis {word_length_basis!r}")

    n = forms.total_tokens
    f = len(forms.entries)

    if word_length_basis == "tokens":
        letters = sum(count_letters(s) * c for (s, _), c in tokens.counts.items())
        mean_word_len = letters / len(tokens)
    else:
        mean_word_len = sum(count_letters(form) for form in forms.entries) / f

    mean_sentence_len = n / sentences if sentences else None

    v = variety = density = None
    if lemmas is not None:
        v = lemmas.vocabulary_size
        if v == 0:
            variety = 0.0
            density = None
        else:
            variety = v / n
            density = n / v

    if count_basis == "forms":
        basis_entries = forms.entries
    else:
        basis_entries = lemmas.entries if lemmas is not None else None

    hapax = excl_vocab = excl_text = None
    n_at = v_at = conc_text = conc_vocab = None
    if basis_entries is not None and basis_entries:
        size = len(basis_entries)
        hapax = sum(1 for c in basis_entries.values() if c == 1)
        excl_vocab = hapax / size
        excl_text = hapax / n
        n_at = sum(c for c in basis_entries.values() if c >= threshold)
        v_at = sum(1 for c in basis_entries.values() if c >= threshold)
        conc_text = n_at / n
        conc_vocab = v_at / size

    return CorpusProfile(
        N=n,
        F=f,
        V=v,
        variety=variety,
        density=density,
        hapax_V1=hapax,
        excl_vocab=excl_vocab,
        excl_text=excl_text,
        N_at_threshold=n_at,
        V_at_threshold=v_at,
        conc_text=conc_text,
        conc_vocab=conc_vocab,
        mean_word_len_letters=mean_word_len,
        mean_sentence_len_words=mean_sentence_len,
        threshold=threshold,
    )
