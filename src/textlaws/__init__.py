"""Corpus analysis toolkit: frequency dictionaries, indices, linguistic laws.

The pipeline tokenizes a text, builds word-form and lemma frequency
dictionaries, computes scalar corpus indices, derives length and
rank-frequency distributions, and fits the classical models (power-law
and shifted power-law rank laws, normalized length densities, logarithmic
coverage growth) by damped least squares or per-interval regression.
"""

from importlib import import_module

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
    count_letters,
    split_sentences,
    tokenize,
)

__version__ = "0.1.0"

# the numpy-backed names, those of ``distributions``, resolved on access (PEP
# 562): importing the package, and so the command line's --version, --help
# and usage and config errors, loads no numpy
_LAZY = frozenset((
    "G2PRules",
    "RankFrequencyList",
    "coverage_curve",
    "filter_min_support",
    "form_lengths",
    "length_distribution",
    "load_default_g2p",
    "mean_syllable_series",
    "rank_frequency",
    "read_g2p_rules",
    "top_k",
))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".distributions", __name__), name)
