"""Frequency dictionaries over word-forms and lemmas.

Word-forms are keyed by their case-folded surface.  Spelling variants of
one word (euphonic alternations such as в/у or і/й) can be merged under a
canonical form, and forms are mapped to lemmas through an ingested
tab-separated resource, with homonym splits resolved by frequency shares
or by explicit per-form count overrides.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType

from .errors import ResourceFormatError, ValidationError
from .tokenizer import Token


@dataclass
class FormLexicon:
    """Counts per distinct folded word-form; sum of counts == total_tokens."""

    entries: dict[str, int]
    total_tokens: int


@dataclass(frozen=True)
class MergeRule:
    canonical: str
    variants: tuple[str, ...]


@dataclass(frozen=True)
class LemmaMap:
    """form -> lemma routing; ambiguous forms carry per-lemma shares.

    Read-only, as ``read_lemma_map`` returns one map to every call that reads
    the same bytes: both mappings are ``MappingProxyType`` views of the dicts
    given (not copies of them).
    """

    rows: Mapping[str, str] = field(default_factory=dict)
    ambiguous: Mapping[str, tuple[tuple[str, float], ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rows", MappingProxyType(self.rows))
        object.__setattr__(self, "ambiguous", MappingProxyType(self.ambiguous))


@dataclass
class LemmaLexicon:
    """Counts per lemma; tokens whose form has no mapping are reported apart."""

    entries: dict[str, int]
    vocabulary_size: int
    unmapped_tokens: int = 0
    unmapped_forms: int = 0


def build_form_spectrum(tokens: list[Token]) -> FormLexicon:
    """Count tokens by folded form."""
    counts = Counter(map(attrgetter("folded"), tokens))
    return FormLexicon(dict(counts), len(tokens))


def validate_merge_rules(rules: list[MergeRule]) -> None:
    """Reject rule sets whose variant lists overlap."""
    seen: dict[str, int] = {}
    for idx, rule in enumerate(rules):
        if not rule.variants:
            raise ValidationError(f"merge rule #{idx + 1} has an empty variant list")
        for form in rule.variants:
            if form in seen:
                raise ValidationError(
                    f"form {form!r} appears in more than one merge rule"
                )
            seen[form] = idx


def apply_merge_rules(lex: FormLexicon, rules: list[MergeRule]) -> FormLexicon:
    """Sum the counts of each rule's variants into its canonical form.

    Total token mass is preserved; forms not named by any rule are left
    untouched.
    """
    validate_merge_rules(rules)
    entries = dict(lex.entries)
    for rule in rules:
        moved = 0
        for form in rule.variants:
            if form == rule.canonical:
                continue
            moved += entries.pop(form, 0)
        if moved:
            entries[rule.canonical] = entries.get(rule.canonical, 0) + moved
    return FormLexicon(entries, lex.total_tokens)


def _largest_remainder(total: int, shares: tuple[tuple[str, float], ...]) -> list[tuple[str, int]]:
    """Split an integer total across lemmas proportionally to their shares.

    Floors the exact quotas, then hands the leftover units to the largest
    fractional remainders (ties broken by lemma order) so the parts always
    sum back to the total.
    """
    weight_sum = sum(w for _, w in shares)
    if weight_sum <= 0:
        raise ValidationError("ambiguous-form shares must have a positive sum")
    quotas = [(lemma, total * w / weight_sum) for lemma, w in shares]
    parts = {lemma: math.floor(q) for lemma, q in quotas}
    leftover = total - sum(parts.values())
    by_remainder = sorted(quotas, key=lambda lq: (-(lq[1] - math.floor(lq[1])), lq[0]))
    for lemma, _ in by_remainder[:leftover]:
        parts[lemma] += 1
    return [(lemma, parts[lemma]) for lemma, _ in quotas]


def lemmatize(
    lex: FormLexicon,
    lemma_map: LemmaMap,
    overrides: list[tuple[str, str, int]] = (),
) -> LemmaLexicon:
    """Aggregate word-form counts into lemma counts.

    Unambiguous forms route their full count to the mapped lemma; ambiguous
    forms are split by shares with largest-remainder rounding.  An override
    pins exact counts for a form and replaces any map routing; whatever it
    leaves unpinned joins the unmapped report bucket, as do forms absent
    from the map entirely.
    """
    pinned: dict[str, list[tuple[str, int]]] = {}
    for form, lemma, count in overrides:
        if count < 0:
            raise ValidationError(f"override count for {form!r} is negative")
        pinned.setdefault(form, []).append((lemma, count))
    for form, splits in pinned.items():
        available = lex.entries.get(form, 0)
        total = sum(c for _, c in splits)
        if total > available:
            raise ValidationError(
                f"overrides for {form!r} sum to {total}, above its count {available}"
            )

    entries: dict[str, int] = {}
    unmapped_tokens = 0
    unmapped_forms = 0
    for form, count in lex.entries.items():
        if form in pinned:
            assigned = 0
            for lemma, c in pinned[form]:
                if c:
                    entries[lemma] = entries.get(lemma, 0) + c
                    assigned += c
            if assigned < count:
                unmapped_tokens += count - assigned
                unmapped_forms += 1
        elif form in lemma_map.rows:
            lemma = lemma_map.rows[form]
            entries[lemma] = entries.get(lemma, 0) + count
        elif form in lemma_map.ambiguous:
            for lemma, part in _largest_remainder(count, lemma_map.ambiguous[form]):
                if part:
                    entries[lemma] = entries.get(lemma, 0) + part
        else:
            unmapped_tokens += count
            unmapped_forms += 1
    return LemmaLexicon(entries, len(entries), unmapped_tokens, unmapped_forms)


def pattern_count(lex: FormLexicon, pattern: str, where: str = "suffix") -> tuple[int, int]:
    """Total occurrences and distinct forms matching a literal affix."""
    if not pattern:
        raise ValidationError("pattern must be non-empty")
    if where not in ("suffix", "prefix"):
        raise ValidationError(f"unknown pattern position {where!r}")
    match = str.endswith if where == "suffix" else str.startswith
    occurrences = 0
    distinct = 0
    for form, count in lex.entries.items():
        if match(form, pattern):
            occurrences += count
            distinct += 1
    return occurrences, distinct


# ---------------------------------------------------------------------------
# Resource file readers.  All files are UTF-8 TSV; blank lines and lines
# starting with '#' are skipped.
# ---------------------------------------------------------------------------

def data_lines(data: bytes):
    r"""Yield ``(line number, line)`` for each data line of a TSV resource.

    The bytes are decoded in one piece, so a bad byte raises a
    ``UnicodeDecodeError`` whose offset counts from the start of the file.
    Lines end as in text-mode ``open()``: at ``\n``, ``\r\n`` or a lone
    ``\r``.  Other Unicode line breaks (``\x85``, ``\u2028``, ``\x0c``) stay
    inside the line, so ``str.splitlines`` would not do.
    """
    lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            yield line_no, line


def read_merge_rules(path: str | Path) -> list[MergeRule]:
    """Read merge rules: one rule per line, ``canonical<TAB>var1,var2,...``."""
    rules = []
    for line_no, line in data_lines(Path(path).read_bytes()):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ResourceFormatError(path, line_no, "expected canonical<TAB>variants")
        canonical = fields[0].strip()
        variants = tuple(v.strip() for v in fields[1].split(",") if v.strip())
        if not canonical or not variants:
            raise ResourceFormatError(path, line_no, "empty canonical or variant list")
        rules.append(MergeRule(canonical, variants))
    validate_merge_rules(rules)
    return rules


# the SHA-256 of the last lemma map's bytes and the map parsed from them: runs
# in one process that share a map parse it once; a miss drops the old entry
# before parsing, so the memo never holds more than one map
_last_lemma_map: tuple[bytes, LemmaMap] | None = None


def read_lemma_map(path: str | Path) -> LemmaMap:
    """Read a lemma map: ``form<TAB>lemma[<TAB>share]``, one row per pair.

    A form with several rows is ambiguous; its shares may be fractions or
    absolute counts (they are normalized when the split is applied).  When
    the file's bytes equal those of the previous call, the map parsed then
    is returned again; a malformed file is parsed (and reported) every time.
    """
    # imported here, not at the top: hashlib loads OpenSSL (about 6 ms and
    # 3.5 MB), which start-up and runs without a lemma map need not pay
    import hashlib

    global _last_lemma_map
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).digest()
    if _last_lemma_map is not None and _last_lemma_map[0] == digest:
        return _last_lemma_map[1]
    _last_lemma_map = None
    lemma_map = _parse_lemma_map(path, data)
    _last_lemma_map = digest, lemma_map
    return lemma_map


def _parse_lemma_map(path: str | Path, data: bytes) -> LemmaMap:
    rows: dict[str, str] = {}            # the first row of each form
    shares: dict[str, float] = {}        # its share, where the row gives one
    more: dict[str, list[tuple[str, float]]] = {}   # the later rows of a form
    for line_no, line in data_lines(data):
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise ResourceFormatError(path, line_no, "expected form<TAB>lemma[<TAB>share]")
        form, lemma = fields[0].strip(), fields[1].strip()
        if not form or not lemma:
            raise ResourceFormatError(path, line_no, "empty form or lemma")
        share = 1.0
        if len(fields) == 3:
            try:
                share = float(fields[2])
            except ValueError:
                raise ResourceFormatError(path, line_no, f"bad share {fields[2]!r}") from None
            if share < 0:
                raise ResourceFormatError(path, line_no, "share must be non-negative")
        if form not in rows:
            rows[form] = lemma
            if len(fields) == 3:
                shares[form] = share
        elif lemma == rows[form] or any(lemma == seen for seen, _ in more.get(form, ())):
            raise ResourceFormatError(path, line_no, f"duplicate row for ({form}, {lemma})")
        else:
            more.setdefault(form, []).append((lemma, share))
    # a form with several rows is ambiguous: it leaves ``rows``
    ambiguous = {
        form: ((rows.pop(form), shares.get(form, 1.0)), *later) for form, later in more.items()
    }
    return LemmaMap(rows, ambiguous)


def read_overrides(path: str | Path) -> list[tuple[str, str, int]]:
    """Read homonym overrides: ``form<TAB>lemma<TAB>count``."""
    overrides = []
    for line_no, line in data_lines(Path(path).read_bytes()):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ResourceFormatError(path, line_no, "expected form<TAB>lemma<TAB>count")
        form, lemma = fields[0].strip(), fields[1].strip()
        try:
            count = int(fields[2])
        except ValueError:
            raise ResourceFormatError(path, line_no, f"bad count {fields[2]!r}") from None
        if not form or not lemma or count < 0:
            raise ResourceFormatError(path, line_no, "empty field or negative count")
        overrides.append((form, lemma, count))
    return overrides
