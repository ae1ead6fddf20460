"""Empirical distributions: length spectra, rank-frequency, coverage.

Length spectra give the fraction of word-forms per length in letters,
phonemes or syllables.  Syllables are counted as vowel nuclei, so forms
without a vowel (б, ж, в) have length zero and the syllable spectrum has
mass at the origin.  Phoneme counts come from ordered longest-match
rewrite rules over graphemes, shipped as data, matched as one compiled
pattern per rule set; a character no rule covers counts one phoneme.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ResourceFormatError, ValidationError
from .lexicon import FormLexicon, LemmaLexicon, data_rows

DEFAULT_UK_VOWELS = frozenset("аеиіоуяюєї")
# forms per joined pass of form_lengths; one pass over a whole wide lexicon
# raises the peak memory of a run
_SLICE_FORMS = 2048
# what a length spectrum weighs: each word-form once, or by its token count
LENGTH_BASES = ("types", "tokens")


def count_letters(form: str) -> int:
    """Number of alphabetic characters; digits and marks do not count."""
    return len(form) if form.isalpha() else sum(map(str.isalpha, form))


def count_syllables(form: str, vowels: frozenset[str] = DEFAULT_UK_VOWELS) -> int:
    """Number of vowel nuclei; zero for non-syllabic forms."""
    return sum(map(vowels.__contains__, form.casefold()))


@dataclass(frozen=True)
class G2PRules:
    """Ordered grapheme rewrite rules mapping onto phoneme-count deltas.

    At each position the longest matching grapheme wins (first rule listed
    on ties); a character no rule covers counts one phoneme.  Graphemes
    must be non-empty and hold no newline, and deltas must be non-negative.
    """

    rules: tuple[tuple[str, int], ...]
    # one alternation, longest grapheme first (listed order on ties)
    pattern: re.Pattern = field(init=False, repr=False, compare=False)
    # grapheme -> delta of the first rule listed for it
    deltas: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        deltas: dict[str, int] = {}
        for grapheme, delta in self.rules:
            if not grapheme or delta < 0:
                raise ValidationError(
                    f"rule {(grapheme, delta)!r}: empty grapheme or negative delta"
                )
            if "\n" in grapheme:
                # form_lengths matches over newline-joined forms
                raise ValidationError(f"rule {(grapheme, delta)!r}: grapheme holds a newline")
            deltas.setdefault(grapheme, delta)
        alternation = "|".join(map(re.escape, sorted(deltas, key=len, reverse=True)))
        object.__setattr__(self, "pattern", re.compile(alternation or "(?!)"))
        object.__setattr__(self, "deltas", deltas)


DEFAULT_G2P_RESOURCE = "uk_g2p.tsv"


def count_phonemes(form: str, rules: G2PRules) -> int:
    """Phonemes of the casefolded form, each character consumed once.

    Matches of the rule pattern add their deltas; each character between
    them adds one.
    """
    folded = form.casefold()
    graphemes = rules.pattern.findall(folded)
    unmatched = len(folded) - sum(map(len, graphemes))
    return sum(map(rules.deltas.__getitem__, graphemes)) + unmatched


def read_g2p_rules(path: str | Path) -> G2PRules:
    """Read rewrite rules from a TSV file of ``grapheme<TAB>delta`` lines."""
    rules = []
    for line_no, (grapheme, raw) in data_rows(path, "grapheme<TAB>delta"):
        try:
            delta = int(raw)
        except ValueError:
            raise ResourceFormatError(path, line_no, f"bad delta {raw!r}") from None
        if not grapheme or delta < 0:
            raise ResourceFormatError(path, line_no, "empty grapheme or negative delta")
        rules.append((grapheme.casefold(), delta))
    return G2PRules(tuple(rules))


def load_default_g2p() -> G2PRules:
    """Rules shipped with the package (Ukrainian digraphs and silent marks)."""
    source = resources.files("textlaws").joinpath(f"data/{DEFAULT_G2P_RESOURCE}")
    with resources.as_file(source) as path:
        return read_g2p_rules(path)


@dataclass(frozen=True, eq=False)
class RankFrequencyList:
    """A ranked spectrum as columns in rank order: the item at index i has rank i + 1.

    ``counts`` is an int64 array; ``ranks`` and ``total`` follow from it.
    """

    items: tuple[str, ...]
    counts: np.ndarray

    @property
    def ranks(self) -> np.ndarray:
        """The ranks 1..n as an int64 array."""
        return np.arange(1, len(self.counts) + 1, dtype=np.int64)

    @property
    def total(self) -> int:
        """The ranked token mass."""
        return int(self.counts.sum())

    @property
    def rows(self) -> tuple[tuple[int, str, int], ...]:
        """The ``(rank, item, count)`` rows, built on each read."""
        return tuple(zip(range(1, len(self.items) + 1), self.items, self.counts.tolist()))


def form_lengths(lex: FormLexicon, g2p: G2PRules, vowels: frozenset[str]) -> dict[str, list[int]]:
    """Each form's letters, phonemes and syllables: one column per unit, in entry order.

    The phonemes and syllables are counted over slices of the forms, each
    casefolded as one string of newline-ended forms and read as code points
    (``str.casefold`` maps each code point on its own, so the slice folds
    as its forms do).  A vowel or rule match belongs to the form whose
    newline comes next; no match runs past a newline, as no grapheme holds
    one.  The counts equal ``count_phonemes`` and ``count_syllables`` of each
    form.  A form holding a newline is rejected.
    """
    if not lex.entries:
        raise ValidationError("cannot build a length distribution from an empty lexicon")
    forms = list(lex.entries)
    vowel_points = [ord(v) for v in vowels if len(v) == 1 and v != "\n"]
    phonemes: list[int] = []
    syllables: list[int] = []
    for start in range(0, len(forms), _SLICE_FORMS):
        part = forms[start:start + _SLICE_FORMS]
        folded = "\n".join(part).casefold() + "\n"
        points = np.frombuffer(folded.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        ends = np.flatnonzero(points == 10)
        if ends.size != len(part):
            form = next(form for form in part if "\n" in form)
            raise ValidationError(f"word-form {form!r} holds a newline")
        at_vowel = np.flatnonzero(np.isin(points, vowel_points))
        syllables += np.bincount(np.searchsorted(ends, at_vowel), minlength=len(part)).tolist()
        # each form's folded length, then each match's delta in place of its characters
        counts = np.diff(ends, prepend=-1) - 1
        matches = [(m.start(), m.group()) for m in g2p.pattern.finditer(folded)]
        if matches:
            at, graphemes = zip(*matches)
            np.add.at(counts, np.searchsorted(ends, at),
                      [g2p.deltas[g] - len(g) for g in graphemes])
        phonemes += counts.tolist()
    return {
        "letters": [count_letters(form) for form in forms],
        "phonemes": phonemes,
        "syllables": syllables,
    }


def length_distribution(
    lex: FormLexicon, unit: str, table: dict[str, list[int]], basis: str
) -> tuple[tuple[int, float], ...]:
    """Fraction of word-forms (types) or token mass (tokens) per length.

    Returns (length, fraction) points.  The lengths are ``table[unit]``, a
    column of ``form_lengths``.
    """
    if basis not in LENGTH_BASES:
        raise ValidationError(f"unknown basis {basis!r}")
    weight_per_length: dict[int, int] = defaultdict(int)
    for length, count in zip(table[unit], lex.entries.values(), strict=True):
        weight_per_length[length] += count if basis == "tokens" else 1
    total = sum(weight_per_length.values())
    return tuple(
        (length, weight_per_length[length] / total)
        for length in sorted(weight_per_length)
    )


def mean_syllable_series(
    letters: list[int], syllables: list[int]
) -> tuple[tuple[int, float, int], ...]:
    """Mean syllable length (letters per syllable) by word length in syllables.

    Returns (syllables, mean, support) points; the mean is over the
    ``support`` distinct word-forms (columns of ``form_lengths``).
    Non-syllabic forms are excluded: with zero syllables their syllable
    length is unbounded.
    """
    sums: dict[int, float] = defaultdict(float)
    support: dict[int, int] = defaultdict(int)
    for n_letters, s in zip(letters, syllables, strict=True):
        if s == 0:
            continue
        sums[s] += n_letters / s
        support[s] += 1
    return tuple((s, sums[s] / support[s], support[s]) for s in sorted(sums))


def filter_min_support(series, min_support: int) -> tuple[tuple[int, float, int], ...]:
    """Drop series points backed by fewer than ``min_support`` word-forms."""
    return tuple(p for p in series if p[2] >= min_support)


def rank_frequency(lex: FormLexicon | LemmaLexicon) -> RankFrequencyList:
    """Items sorted by frequency (descending), ties by item; ranks from 1."""
    if not lex.entries:
        raise ValidationError("cannot rank an empty lexicon")
    # by item, then a stable sort by count keeps that order within each count
    ordered = sorted(lex.entries.items(), key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    counts = np.fromiter(map(itemgetter(1), ordered), dtype=np.int64, count=len(ordered))
    return RankFrequencyList(tuple(map(itemgetter(0), ordered)), counts)


def coverage_curve(rf: RankFrequencyList) -> np.ndarray:
    """Cumulative fraction of the ranked token mass up to each rank, one per rank.

    Each fraction is the same double as Python's ``acc / total`` while the
    cumulative counts stay below 2**53.
    """
    return np.cumsum(rf.counts) / rf.total


def top_k(rf: RankFrequencyList, k: int) -> list[tuple[int, str, float]]:
    """First k ranked items with their relative frequency in per cent."""
    if not 1 <= k <= len(rf.items):
        raise ValidationError(f"k={k} outside 1..{len(rf.items)}")
    total = rf.total
    return [
        (rank, item, 100.0 * count / total)
        for rank, item, count in zip(range(1, k + 1), rf.items, rf.counts[:k].tolist())
    ]
