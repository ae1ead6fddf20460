"""Frequency dictionaries over word-forms and lemmas.

Word-forms are keyed by their case-folded surface.  Spelling variants of
one word (euphonic alternations such as в/у or і/й) can be merged under a
canonical form, and forms are mapped to lemmas through an ingested
tab-separated resource, with homonym splits resolved by frequency shares
or by explicit per-form count overrides.

The tab-separated resources are decoded and split into lines one block of
bytes at a time, so no file's whole text is held.  A lemma map is a hash
index over its file's bytes, which it keeps; the last map parsed is returned
again by a later read of the same bytes.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import accumulate, compress
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


# the hash of a lemma-map form, one name for every caller, so that a test can
# make forms collide; ``hash()`` is fixed within a process, as the memo is
_form_hash = hash


class LemmaRows(Mapping[str, str]):
    """A lemma map's unambiguous rows, form -> lemma, as a sorted hash index.

    Each indexed row is three numbers: the ``hash()`` of its form, the offset
    of its line in the bytes the index keeps, and the position of its lemma
    in one tuple of distinct lemma strings; no string per form is held.  A
    hash hit counts only where the line starts with the form's UTF-8 and a
    tab, so a lookup is exact whatever collides.  Rows whose line does not
    start that way (a form with whitespace around it in the file, or with a
    tab in it) are held apart, as strings.  Read-only; iteration decodes the
    forms, in no file order.
    """

    __slots__ = ("_data", "_hashes", "_offsets", "_ids", "_lemmas", "_loose")

    def __init__(self, data: bytes, hashes, offsets, ids, lemmas: tuple[str, ...],
                 loose: dict[str, int]):
        """The index of rows given in hash order: numpy arrays of their form
        hashes, line offsets in ``data`` and positions in ``lemmas``, with
        ``loose`` holding the position of each apart form's lemma."""
        import numpy as np

        self._data, self._hashes, self._lemmas, self._loose = data, hashes, lemmas, loose
        self._offsets = offsets.astype(np.min_scalar_type(len(data)))
        self._ids = ids.astype(np.min_scalar_type(len(lemmas)))

    @classmethod
    def of(cls, rows: Mapping[str, str]) -> LemmaRows:
        """The index of a form -> lemma mapping, over bytes of its own."""
        import numpy as np

        lemma_ids: dict[str, int] = {}
        loose: dict[str, int] = {}
        heads, hashes, ids = [], [], []
        for form, lemma in rows.items():
            lemma_id = lemma_ids.setdefault(lemma, len(lemma_ids))
            if "\t" in form:
                loose[form] = lemma_id
            else:
                heads.append(f"{form}\t".encode())
                hashes.append(_form_hash(form))
                ids.append(lemma_id)
        hashes = np.array(hashes, np.int64)
        order = np.argsort(hashes)
        offsets = np.fromiter(accumulate(map(len, heads), initial=0), np.int64, len(heads) + 1)
        return cls(b"".join(heads), hashes[order], offsets[:-1][order],
                   np.array(ids, np.int64)[order], tuple(lemma_ids), loose)

    def _lemma_id(self, form: str) -> int:
        """The position of ``form``'s lemma in the lemma tuple, or -1."""
        if "\t" not in form:
            head, h = f"{form}\t".encode(), _form_hash(form)
            at = int(self._hashes.searchsorted(h))
            while at < len(self._hashes) and self._hashes[at] == h:
                if self._data.startswith(head, self._offsets[at]):
                    return int(self._ids[at])
                at += 1
        return self._loose.get(form, -1)

    def _lemma_ids(self, forms: list[str]):
        """``_lemma_id`` of each form, as one int64 array.

        A form whose hash one row has is checked at that row's line; a form
        whose hash several rows share, or that a row held apart may name,
        goes through ``_lemma_id``.
        """
        import numpy as np

        hashes = np.fromiter(map(_form_hash, forms), np.int64, len(forms))
        # searched in hash order, which keeps each search near the last
        order = np.argsort(hashes)
        low, high = np.empty((2, len(forms)), np.int64)
        low[order] = self._hashes.searchsorted(hashes[order])
        high[order] = self._hashes.searchsorted(hashes[order], "right")
        single = high - low == 1
        if "\t" in "".join(forms):
            # a tab in a form would let its head match a line that holds more fields
            single &= ["\t" not in form for form in forms]
        # each head is made as it is checked: a list of them would raise the peak memory
        heads = (f"{form}\t".encode() for form in compress(forms, single.tolist()))
        at = np.flatnonzero(single)
        found = np.fromiter(map(self._data.startswith, heads, memoryview(self._offsets[low[at]])),
                            bool, len(at))
        ids = np.full(len(forms), -1, np.int64)
        ids[at[found]] = self._ids[low[at[found]]]
        again = np.flatnonzero(ids < 0 if self._loose else high - low > 1)
        for k in again.tolist():
            ids[k] = self._lemma_id(forms[k])
        return ids

    def __getitem__(self, form: str) -> str:
        lemma_id = self._lemma_id(form)
        if lemma_id < 0:
            raise KeyError(form)
        return self._lemmas[lemma_id]

    def __len__(self) -> int:
        return len(self._hashes) + len(self._loose)

    def __iter__(self) -> Iterator[str]:
        data = self._data
        for offset in memoryview(self._offsets):
            yield data[offset:data.index(b"\t", offset)].decode()
        yield from self._loose


@dataclass(frozen=True)
class LemmaMap:
    """form -> lemma routing; ambiguous forms carry per-lemma shares.

    Read-only, as ``read_lemma_map`` returns one map to every call that reads
    the same bytes: ``rows`` is a ``LemmaRows`` index (one is built from a
    mapping given), and ``ambiguous`` a ``MappingProxyType`` view of the dict
    given (not a copy of it).
    """

    rows: Mapping[str, str] = field(default_factory=dict)
    ambiguous: Mapping[str, tuple[tuple[str, float], ...]] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.rows, LemmaRows):
            object.__setattr__(self, "rows", LemmaRows.of(self.rows))
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
    from the map entirely.  Each lemma's count is an exact integer sum, and
    the lemma counts and the unmapped tokens add up to ``lex.total_tokens``.
    Lemmas come in the order of the first form that gives them a count.
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

    lemmas, ambiguous = lemma_map.rows._lemmas, lemma_map.ambiguous
    entries: dict[str, int] = {}
    unmapped_tokens = 0
    unmapped_forms = 0
    ids = lemma_map.rows._lemma_ids(list(lex.entries))
    for (form, count), lemma_id in zip(lex.entries.items(), memoryview(ids)):
        if form in pinned:
            parts = pinned[form]
            assigned = sum(c for _, c in parts)
            if assigned < count:
                unmapped_tokens += count - assigned
                unmapped_forms += 1
        elif lemma_id >= 0:
            # most forms end here: summed in place, with no parts to loop over
            lemma = lemmas[lemma_id]
            entries[lemma] = entries.get(lemma, 0) + count
            continue
        elif (shares := ambiguous.get(form)) is not None:
            parts = _largest_remainder(count, shares)
        else:
            unmapped_tokens += count
            unmapped_forms += 1
            continue
        for lemma, c in parts:
            if c:
                entries[lemma] = entries.get(lemma, 0) + c
    return LemmaLexicon(entries, len(entries), unmapped_tokens, unmapped_forms)


# ---------------------------------------------------------------------------
# The text and the config are decoded whole by decode_utf8.  The resources are
# TSV, decoded and split into lines a block at a time by data_rows; blank
# lines and lines starting with '#' are skipped.
# ---------------------------------------------------------------------------

# bytes per block that ``data_rows`` decodes and splits into lines at once,
# and that ``read_lemma_map`` compares with the kept map's bytes: the text of
# a wide lemma map, or a list of its every line, would raise a run's peak memory
_BLOCK_CHARS = 1 << 16


def _unify_line_ends(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
        message = f"invalid UTF-8: {exc.reason} at byte {exc.start}"
        raise ResourceFormatError(path, _line_at(data, exc.start), message) from None
    return _unify_line_ends(text.removeprefix("\ufeff"))


def _line_at(data: bytes, offset: int) -> int:
    """The number of the line that holds byte ``offset``, as text-mode ``open()`` counts lines."""
    head = data[:offset]
    return 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")


def _lines(path: str | Path, data: bytes) -> Iterator[tuple[int, str]]:
    """``(offset, line)`` for each line of ``decode_utf8(path, data).split("\n")``.

    ``offset`` is where the line's first byte is in ``data``, past a leading
    byte-order mark.  The bytes are decoded and split a block of about
    ``_BLOCK_CHARS`` bytes at a time.  A block ends just after a ``\n``
    byte, which no UTF-8 sequence and no ``\r\n`` pair straddles; a block
    that fails to decode is reported as ``decode_utf8`` reports the whole file.
    """
    start = 3 if data.startswith("\ufeff".encode()) else 0
    while True:
        # 0 when no line end is left: the last block runs to the end
        cut = data.find(b"\n", start + _BLOCK_CHARS) + 1
        block = data[start:cut or len(data)]
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError:
            decode_utf8(path, data)
            raise
        lines = _unify_line_ends(text).split("\n")
        # bytes.splitlines ends lines where text-mode open() does
        offsets = accumulate(map(len, block.splitlines(keepends=True)), initial=start)
        if not cut:
            yield from zip(offsets, lines)
            return
        # the block's text ends in "\n", after which its split gives one more ""
        yield from zip(offsets, lines[:-1])
        start = cut


def data_rows(path: str | Path, shape: str, data: bytes | None = None):
    """Yield ``(line number, offset, fields)`` for each data line of a TSV resource.

    ``shape`` names the fields, a bracketed tail optional: ``"a<TAB>b[<TAB>c]"``.
    A line with too few or too many fails; ``data`` defaults to the file's
    bytes, and ``offset`` is where the line starts in them.  They are decoded
    and split one block at a time, so a malformed row is reported ahead of a
    bad byte in a later block; a bad byte has the line and offset in the
    file that ``decode_utf8`` gives it.
    """
    if data is None:
        data = Path(path).read_bytes()
    least, most = shape.partition("[")[0].count("<TAB>") + 1, shape.count("<TAB>") + 1
    for line_no, (offset, line) in enumerate(_lines(path, data), start=1):
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            fields = line.split("\t")
            if not least <= len(fields) <= most:
                raise ResourceFormatError(path, line_no, f"expected {shape}")
            yield line_no, offset, fields


def read_merge_rules(path: str | Path) -> list[MergeRule]:
    """Read merge rules, ``canonical<TAB>var1,var2,...``; a variant is named once."""
    rules, lines = [], []
    for line_no, _, (canonical, listed) in data_rows(path, "canonical<TAB>variants"):
        canonical = canonical.strip()
        variants = tuple(v.strip() for v in listed.split(",") if v.strip())
        if not canonical or not variants:
            raise ResourceFormatError(path, line_no, "empty canonical or variant list")
        rules.append(MergeRule(canonical, variants))
        lines.append(line_no)
    if fault := _merge_rule_fault(rules):
        raise ResourceFormatError(path, lines[fault[0]], fault[1])
    return rules


# the bytes of the last lemma map and the map parsed from them: runs in one
# process that share a map parse it once; a miss drops the old entry before
# reading, so the memo never holds more than one map
_last_lemma_map: tuple[bytes, LemmaMap] | None = None


def _file_equals(path: str | Path, data: bytes) -> bool:
    """Whether the file holds ``data``, read one block at a time into no copy of it."""
    offset = 0
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK_CHARS):
            if not data.startswith(block, offset):
                return False
            offset += len(block)
    return offset == len(data)


def read_lemma_map(path: str | Path, forms: Iterable[str] = ()) -> LemmaMap:
    """Read a lemma map: ``form<TAB>lemma[<TAB>share]``, one row per pair.

    A form with several rows is ambiguous; its shares may be fractions or
    absolute counts (they are normalized when the split is applied).  The
    map's rows are an index over the file's bytes (``LemmaRows``).  The last
    map parsed is kept: when the file holds the same bytes at the next call,
    compared a block at a time, that map is returned again; a malformed file
    is parsed (and reported) every time.  A lemma that equals one of
    ``forms`` (a lexicon's entries) is held as that string, so a text's
    forms are not held twice; the map compares equal to one read without them.
    """
    global _last_lemma_map
    if _last_lemma_map is not None and _file_equals(path, _last_lemma_map[0]):
        return _last_lemma_map[1]
    _last_lemma_map = None
    data = Path(path).read_bytes()
    lemma_map = _parse_lemma_map(path, data, forms)
    _last_lemma_map = data, lemma_map
    return lemma_map


def _parse_lemma_map(path: str | Path, data: bytes, forms: Iterable[str]) -> LemmaMap:
    import numpy as np

    # per row, in file order: its form's hash, its line's offset, its lemma's position
    hashes, offsets, ids = array("q"), array("q"), array("i")
    lemma_ids: dict[str, int] = {}   # each distinct lemma, with its position
    shares: dict[int, float] = {}    # row -> its share, where the row gives one
    loose: dict[int, str] = {}       # row -> its form, where the line does not start with it
    fault = None
    try:
        for line_no, offset, fields in data_rows(path, "form<TAB>lemma[<TAB>share]", data):
            form, lemma = fields[0].strip(), fields[1].strip()
            if not form or not lemma:
                raise ResourceFormatError(path, line_no, "empty form or lemma")
            if len(fields) == 3:
                try:
                    share = float(fields[2])
                except ValueError:
                    share = math.nan
                if not math.isfinite(share):
                    raise ResourceFormatError(path, line_no, f"bad share {fields[2]!r}")
                if share < 0:
                    raise ResourceFormatError(path, line_no, "share must be non-negative")
                shares[len(ids)] = share
            if len(form) < len(fields[0]):
                loose[len(ids)] = form
            hashes.append(_form_hash(form))
            offsets.append(offset)
            ids.append(lemma_ids.setdefault(lemma, len(lemma_ids)))
    except ResourceFormatError as exc:
        # a repeated row above the faulty line is reported first
        fault = exc

    # one string per distinct lemma, the lexicon's own where it has one
    lemmas = list(lemma_ids)
    for form in filter(lemma_ids.__contains__, forms):
        lemmas[lemma_ids[form]] = form
    del lemma_ids

    def form_of(row: int) -> str:
        return loose.get(row) or data[offsets[row]:data.index(b"\t", offsets[row])].decode()

    # the rows of each form whose hash another row has, in file order
    order = np.argsort(np.frombuffer(hashes, np.int64))
    sorted_hashes = np.frombuffer(hashes, np.int64)[order]
    same = sorted_hashes[1:] == sorted_hashes[:-1]
    shared = np.zeros(len(order), bool)
    shared[1:] = same
    shared[:-1] |= same
    groups: dict[str, list[int]] = {}
    for row in sorted(order[shared].tolist()):
        groups.setdefault(form_of(row), []).append(row)
    repeated = None   # the first row that repeats a (form, lemma) pair
    for rows in groups.values():
        seen = set()
        for row in rows:
            if ids[row] in seen:
                repeated = min(repeated, row) if repeated is not None else row
                break
            seen.add(ids[row])
    if repeated is not None:
        message = f"duplicate row for ({form_of(repeated)}, {lemmas[ids[repeated]]})"
        raise ResourceFormatError(path, _line_at(data, offsets[repeated]), message)
    if fault is not None:
        raise fault

    # a form with several rows is ambiguous, in the order of its second row
    split = sorted((rows for rows in groups.values() if len(rows) > 1), key=lambda rows: rows[1])
    ambiguous = {}
    for rows in split:
        form = form_of(rows[0])
        ambiguous[form] = tuple((lemmas[ids[row]], shares.get(row, 1.0)) for row in rows)
        if not 0 < sum(share for _, share in ambiguous[form]) < math.inf:
            message = f"shares of {form!r} must have a positive finite sum"
            raise ResourceFormatError(path, _line_at(data, offsets[rows[-1]]), message)

    # the index holds the other rows whose line starts with their form
    indexed = np.ones(len(order), bool)
    indexed[[row for rows in split for row in rows]] = False
    indexed[list(loose)] = False
    indexed = indexed[order]
    order = order[indexed]
    apart = {form: ids[row] for row, form in loose.items() if form not in ambiguous}
    index = LemmaRows(data, sorted_hashes[indexed], np.frombuffer(offsets, np.int64)[order],
                      np.frombuffer(ids, np.intc)[order], tuple(lemmas), apart)
    return LemmaMap(index, ambiguous)


def read_overrides(path: str | Path) -> list[tuple[str, str, int]]:
    """Read homonym overrides: ``form<TAB>lemma<TAB>count``."""
    overrides = []
    for line_no, _, (form, lemma, raw) in data_rows(path, "form<TAB>lemma<TAB>count"):
        form, lemma = form.strip(), lemma.strip()
        try:
            count = int(raw)
        except ValueError:
            raise ResourceFormatError(path, line_no, f"bad count {raw!r}") from None
        if not form or not lemma or count < 0:
            raise ResourceFormatError(path, line_no, "empty field or negative count")
        overrides.append((form, lemma, count))
    return overrides
