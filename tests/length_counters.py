"""Per-form syllable and phoneme counters, the oracles ``form_lengths`` is tested against.

``form_lengths`` counts a whole lexicon over joined slices of its forms;
these count one form at a time, the first by a membership test per
character and the second by one ``findall`` of the rule pattern.  Both read
the casefolded form.
"""

from __future__ import annotations

from textlaws.config import DEFAULT_UK_VOWELS
from textlaws.distributions import G2PRules


def count_syllables(form: str, vowels: frozenset[str] = DEFAULT_UK_VOWELS) -> int:
    """Number of vowel nuclei; zero for non-syllabic forms."""
    return sum(map(vowels.__contains__, form.casefold()))


def count_phonemes(form: str, rules: G2PRules) -> int:
    """Phonemes of the casefolded form, each character consumed once.

    Matches of the rule pattern add their deltas; each character between
    them adds one.
    """
    folded = form.casefold()
    graphemes = rules.pattern.findall(folded)
    unmatched = len(folded) - sum(map(len, graphemes))
    return sum(map(rules.deltas.__getitem__, graphemes)) + unmatched
