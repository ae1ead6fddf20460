"""Corpus analysis toolkit: frequency dictionaries, indices, linguistic laws.

The pipeline tokenizes a text, builds word-form and lemma frequency
dictionaries, computes scalar corpus indices, derives length and
rank-frequency distributions, and fits the classical models (power-law
and shifted power-law rank laws, normalized length densities, logarithmic
coverage growth) by damped least squares or per-interval regression.
"""

from .distributions import (
    G2PRules,
    RankFrequencyList,
    count_letters,
    count_phonemes,
    count_syllables,
    coverage_curve,
    filter_min_support,
    form_lengths,
    length_distribution,
    load_default_g2p,
    mean_syllable_series,
    rank_frequency,
    read_g2p_rules,
    top_k,
)
from .errors import (
    DomainError,
    ResourceFormatError,
    TextlawsError,
    ValidationError,
)
from .indices import CorpusProfile, corpus_profile
from .lexicon import (
    FormLexicon,
    LemmaLexicon,
    LemmaMap,
    MergeRule,
    apply_merge_rules,
    build_form_spectrum,
    lemmatize,
    read_lemma_map,
    read_merge_rules,
    read_overrides,
)
from .tokenizer import (
    DEFAULT_CONFIG,
    TokenizerConfig,
    Tokens,
    split_sentences,
    tokenize,
)

__version__ = "0.1.0"
