"""Reference phoneme counter: the per-character rule walk ``count_phonemes`` replaced.

At each position it tries every rule, longest grapheme first, and takes the
first that starts there; a character no rule covers counts one.  It is slow
and kept only as the oracle that the compiled rule pattern in
``textlaws.distributions`` is tested against.  The walk is the old one line
for line, except that the longest-first order it used to read from
``G2PRules.by_length`` is sorted here and an uncovered character counts one
(``G2PRules`` no longer has a settable default).  It walks ``len(form)``
positions of the casefolded form, so it agrees with ``count_phonemes`` only
on text that casefolding leaves unchanged.
"""

from __future__ import annotations

from textlaws.distributions import G2PRules


def oracle_count_phonemes(form: str, rules: G2PRules) -> int:
    """Apply rewrite rules longest-match-first, consuming each letter once."""
    by_length = tuple(sorted(rules.rules, key=lambda r: -len(r[0])))
    total = 0
    i = 0
    n = len(form)
    folded = form.casefold()
    while i < n:
        for grapheme, delta in by_length:
            if folded.startswith(grapheme, i):
                total += delta
                i += len(grapheme)
                break
        else:
            total += 1
            i += 1
    return total
