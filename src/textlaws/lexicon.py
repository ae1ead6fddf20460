"""Frequency dictionaries over word-forms and lemmas.

Word-forms are keyed by their case-folded surface.  Spelling variants of
one word (euphonic alternations such as в/у or і/й) can be merged under a
canonical form, and forms are mapped to lemmas through an ingested
tab-separated resource, with homonym splits resolved by frequency shares
or by explicit per-form count overrides.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .errors import ResourceFormatError, ValidationError
from .tokenizer import Tokens


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


def build_form_spectrum(tokens: Tokens) -> FormLexicon:
    """Tokens counted by folded form, in order of first occurrence.

    The lexicon's entries are ``tokens.forms`` itself, not a copy.
    """
    return FormLexicon(tokens.forms, len(tokens))


def _merge_rule_fault(rules: list[MergeRule]) -> tuple[int, str] | None:
    """The index of the first rule that is empty or names a variant again, and why."""
    seen: dict[str, int] = {}
    for idx, rule in enumerate(rules):
        if not rule.variants:
            return idx, f"merge rule #{idx + 1} has an empty variant list"
        for form in rule.variants:
            if form in seen:
                where = "twice in one" if seen[form] == idx else "in more than one"
                return idx, f"form {form!r} appears {where} merge rule"
            seen[form] = idx


def validate_merge_rules(rules: list[MergeRule]) -> None:
    """Reject rule sets with an empty variant list or overlapping ones."""
    if fault := _merge_rule_fault(rules):
        raise ValidationError(fault[1])


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

    Floors the quotas (share / sum * total), then hands the leftover units
    to the largest fractional remainders (ties broken by lemma order) so
    the parts always sum back to the total.  The quotas are exact: each
    float share is an integer over a power of two, so over the largest of
    those denominators all shares are integers.
    """
    if not 0 < sum(w for _, w in shares) < math.inf:
        raise ValidationError("ambiguous-form shares must have a positive finite sum")
    ratios = [w.as_integer_ratio() for _, w in shares]
    scale = max(d for _, d in ratios)
    weights = [n * (scale // d) for n, d in ratios]
    weight_sum = sum(weights)
    # (lemma, floor of the quota, remainder in units of 1 / weight_sum)
    quotas = [(lemma, *divmod(w * total, weight_sum)) for (lemma, _), w in zip(shares, weights)]
    parts = {lemma: whole for lemma, whole, _ in quotas}
    leftover = total - sum(parts.values())
    by_remainder = sorted(quotas, key=lambda q: (-q[2], q[0]))
    for lemma, _, _ in by_remainder[:leftover]:
        parts[lemma] += 1
    return [(lemma, parts[lemma]) for lemma, _, _ in quotas]


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
    rows, ambiguous = lemma_map.rows, lemma_map.ambiguous
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
        elif (lemma := rows.get(form)) is not None:
            entries[lemma] = entries.get(lemma, 0) + count
        elif (shares := ambiguous.get(form)) is not None:
            for lemma, part in _largest_remainder(count, shares):
                if part:
                    entries[lemma] = entries.get(lemma, 0) + part
        else:
            unmapped_tokens += count
            unmapped_forms += 1
    return LemmaLexicon(entries, len(entries), unmapped_tokens, unmapped_forms)


# ---------------------------------------------------------------------------
# Input files, the config and the text too, are decoded by decode_utf8.  The
# resources are TSV; blank lines and lines starting with '#' are skipped.
# ---------------------------------------------------------------------------

# characters per block that ``data_rows`` splits into lines at once: a list
# of every line of a wide lemma map would raise a run's peak memory
_BLOCK_CHARS = 1 << 16


def decode_utf8(path: str | Path, data: bytes) -> str:
    r"""A file's bytes as text, with text-mode ``open()``'s line ends.

    Decoded as UTF-8 in one piece, not "utf-8-sig" (whose error offsets skip
    a byte-order mark), so a bad byte is a ``ResourceFormatError`` at its line
    with its offset in the file.  One leading mark is dropped.  ``\r\n`` and
    ``\r`` become ``\n``; ``\x85``, ``\u2028`` and ``\x0c`` stay in a line.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        message = f"invalid UTF-8: {exc.reason} at byte {exc.start}"
        raise ResourceFormatError(path, line_no, message) from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _lines(text: str) -> Iterator[str]:
    """``text.split("\n")``, split one block of about ``_BLOCK_CHARS`` at a time."""
    start = 0
    while (cut := text.find("\n", start + _BLOCK_CHARS)) >= 0:
        yield from text[start:cut].split("\n")
        start = cut + 1
    yield from text[start:].split("\n")


def data_rows(path: str | Path, shape: str, text: str | None = None):
    """Yield ``(line number, fields)`` for each data line of a TSV resource.

    ``shape`` names the fields, a bracketed tail optional: ``"a<TAB>b[<TAB>c]"``.
    A line with too few or too many fails; ``text`` defaults to the file's
    decoded bytes.
    """
    if text is None:
        text = decode_utf8(path, Path(path).read_bytes())
    least, most = shape.partition("[")[0].count("<TAB>") + 1, shape.count("<TAB>") + 1
    for line_no, line in enumerate(_lines(text), start=1):
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            fields = line.split("\t")
            if not least <= len(fields) <= most:
                raise ResourceFormatError(path, line_no, f"expected {shape}")
            yield line_no, fields


def read_merge_rules(path: str | Path) -> list[MergeRule]:
    """Read merge rules, ``canonical<TAB>var1,var2,...``; a variant is named once."""
    rules, lines = [], []
    for line_no, (canonical, listed) in data_rows(path, "canonical<TAB>variants"):
        canonical = canonical.strip()
        variants = tuple(v.strip() for v in listed.split(",") if v.strip())
        if not canonical or not variants:
            raise ResourceFormatError(path, line_no, "empty canonical or variant list")
        rules.append(MergeRule(canonical, variants))
        lines.append(line_no)
    if fault := _merge_rule_fault(rules):
        raise ResourceFormatError(path, lines[fault[0]], fault[1])
    return rules


# the SHA-256 of the last lemma map's bytes and the map parsed from them: runs
# in one process that share a map parse it once; a miss drops the old entry
# before parsing, so the memo never holds more than one map
_last_lemma_map: tuple[bytes, LemmaMap] | None = None


def read_lemma_map(path: str | Path, forms: Iterable[str] = ()) -> LemmaMap:
    """Read a lemma map: ``form<TAB>lemma[<TAB>share]``, one row per pair.

    A form with several rows is ambiguous; its shares may be fractions or
    absolute counts (they are normalized when the split is applied).  When
    the file's bytes equal those of the previous call, the map parsed then
    is returned again; a malformed file is parsed (and reported) every time.
    A parse holds each string that equals one of ``forms`` (a lexicon's
    entries) as that object, so a text's forms are not held twice; the map
    compares equal to one read without them.
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
    text = decode_utf8(path, data)
    # the bytes are freed before the parser's peak
    del data
    lemma_map = _parse_lemma_map(path, text, forms)
    _last_lemma_map = digest, lemma_map
    return lemma_map


def _parse_lemma_map(path: str | Path, text: str, forms: Iterable[str]) -> LemmaMap:
    # one string per distinct form and lemma, the lexicon's own where it has one
    pool: dict[str, str] = {form: form for form in forms}
    rows: dict[str, str] = {}            # the first row of each form
    shares: dict[str, float] = {}        # its share, where the row gives one
    more: dict[str, list[tuple[str, float]]] = {}   # the later rows of a form
    last_line: dict[str, int] = {}       # the line of a form's last later row
    for line_no, fields in data_rows(path, "form<TAB>lemma[<TAB>share]", text):
        form, lemma = fields[0].strip(), fields[1].strip()
        if not form or not lemma:
            raise ResourceFormatError(path, line_no, "empty form or lemma")
        form, lemma = pool.setdefault(form, form), pool.setdefault(lemma, lemma)
        share = 1.0
        if len(fields) == 3:
            try:
                share = float(fields[2])
            except ValueError:
                share = math.nan
            if not math.isfinite(share):
                raise ResourceFormatError(path, line_no, f"bad share {fields[2]!r}")
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
            last_line[form] = line_no
    # a form with several rows is ambiguous: it leaves ``rows``
    ambiguous = {
        form: ((rows.pop(form), shares.get(form, 1.0)), *later) for form, later in more.items()
    }
    for form, split in ambiguous.items():
        if not 0 < sum(share for _, share in split) < math.inf:
            message = f"shares of {form!r} must have a positive finite sum"
            raise ResourceFormatError(path, last_line[form], message)
    return LemmaMap(rows, ambiguous)


def read_overrides(path: str | Path) -> list[tuple[str, str, int]]:
    """Read homonym overrides: ``form<TAB>lemma<TAB>count``."""
    overrides = []
    for line_no, (form, lemma, raw) in data_rows(path, "form<TAB>lemma<TAB>count"):
        form, lemma = form.strip(), lemma.strip()
        try:
            count = int(raw)
        except ValueError:
            raise ResourceFormatError(path, line_no, f"bad count {raw!r}") from None
        if not form or not lemma or count < 0:
            raise ResourceFormatError(path, line_no, "empty field or negative count")
        overrides.append((form, lemma, count))
    return overrides
