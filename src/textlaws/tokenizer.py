"""Tokenization of running text into word-token counts and sentence ends.

A token is a maximal run of letters, digits and permitted internal
characters ("60-ий", "§136" and "м’ята" are single tokens); everything
between tokens is separator material and is never counted.

Only counts leave this module: the corpus profile and the fits need no
token's offset and no sentence's tokens.  A token never crosses
whitespace, so ``tokenize`` counts the whitespace-separated chunks of the
text and tokenizes each distinct chunk once, and ``split_sentences`` finds
where each sentence ends without locating the tokens.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError

DEFAULT_INTRA_CHARS = frozenset("-'’ʼ§" + "0123456789")
DEFAULT_TERMINATORS = frozenset(".!?…")

# Characters that join two word characters (never lead or trail a token).
_JOINER_CHARS = frozenset("-‐‑'’ʼ`")
# Closing quotes tolerated between a terminator and the sentence break.
_CLOSERS = frozenset("»\"'’”)]")
# Opening punctuation tolerated between the break and the next capital.
_OPENERS = frozenset("«\"“‘([—–-")

# ``str.split`` and ``\s`` split on the same characters, so a block cut at
# whitespace splits into the same chunks as the whole text
_SPACE = re.compile(r"\s")
# matched up to endpos: the text through the last whitespace before it
_THROUGH_LAST_SPACE = re.compile(r".*\s", re.DOTALL)
# characters per block that ``tokenize`` splits at once: only one block's
# chunk strings are alive at a time
_BLOCK_CHARS = 1 << 16


def _is_word_char(ch: str) -> bool:
    # letters (general category L*) and decimal digits (Nd)
    return ch.isalpha() or ch.isdecimal()


@dataclass(frozen=True)
class TokenizerConfig:
    """Character-class configuration for tokenize/split_sentences.

    Abbreviations are stored casefolded and match the token before a
    period case-insensitively, whether or not ``case_folding`` is on.
    A terminator must not be a word character: a token could hold it.
    """

    intra_token_chars: frozenset[str] = DEFAULT_INTRA_CHARS
    case_folding: bool = True
    sentence_terminators: frozenset[str] = DEFAULT_TERMINATORS
    abbreviations: frozenset[str] = frozenset()

    def __post_init__(self):
        if any(ch.isspace() for ch in self.intra_token_chars):
            raise ValidationError("intra_token_chars must not contain whitespace")
        if any(_is_word_char(ch) for ch in self.sentence_terminators):
            raise ValidationError("sentence_terminators must not contain letters or digits")
        object.__setattr__(
            self, "abbreviations", frozenset(a.casefold() for a in self.abbreviations)
        )


DEFAULT_CONFIG = TokenizerConfig()


@dataclass(frozen=True, slots=True)
class Tokens:
    """The token counts of one text.

    ``forms`` maps each folded form to its number of tokens, in order of
    first occurrence.  ``letters`` is ``count_letters`` of each token's
    surface, summed over the tokens.  ``n`` is the number of tokens, which
    ``len`` gives too.
    """

    forms: dict[str, int]
    letters: int
    n: int

    def __len__(self) -> int:
        return self.n


def _char_class(chars) -> str:
    return "".join(re.escape(ch) for ch in sorted(chars))


@lru_cache(maxsize=64)
def _patterns(cfg: TokenizerConfig) -> tuple[re.Pattern, re.Pattern]:
    """The token pattern and the sentence-boundary pattern of ``cfg``.

    Token: ``W`` (``[^\\W_]``) is a word character, ``J`` a joiner and
    ``E`` an extra (another intra-token mark such as the section sign).  A
    token is ``E?W+`` followed by any number of ``JW+``, ``EW+`` or, right
    after a word character, a lone ``E``: a joiner needs a word character
    after it, an extra one on either side.  ``[^\\W_]`` also admits
    numerals outside Nd (``²``, ``Ⅻ``, ``½``); ``_run_tokens`` splits runs
    that hold one.  The pattern never matches whitespace and looks at no
    character past its match, so it finds the same runs in a chunk as in
    the whole text.

    Boundary: a terminator, then closing quotes, then end of text or
    whitespace; group 1 is the character after the whitespace and opening
    marks ('' at end of text, None when no whitespace follows the closers).
    """
    joiners = cfg.intra_token_chars & _JOINER_CHARS
    extras = {
        ch for ch in cfg.intra_token_chars
        if ch not in joiners and not _is_word_char(ch)
    }
    word = f"[^\\W_{_char_class(extras)}]"
    if extras:
        extra = f"[{_char_class(extras)}]"
        marks = _char_class(joiners | extras)
        token = f"{extra}?{word}+(?:[{marks}]{word}+|(?<={word}){extra})*"
    elif joiners:
        token = f"{word}+(?:[{_char_class(joiners)}]{word}+)*"
    else:
        token = f"{word}+"

    if cfg.sentence_terminators:
        boundary = re.compile(
            f"[{_char_class(cfg.sentence_terminators)}]"
            f"(?=[{_char_class(_CLOSERS)}]*(?:\\Z|\\s[\\s{_char_class(_OPENERS)}]*(.?)))",
            re.DOTALL,
        )
    else:
        boundary = re.compile("(?!)")
    return re.compile(token), boundary


@lru_cache(maxsize=64)
def _edge_chars(cfg: TokenizerConfig) -> str:
    """The punctuation ``tokenize`` strips off a chunk's edges before its letters-only test.

    Closers, openers, terminators and ``,;:``, but no intra-token char: no
    character left here is a word character or can be part of a token, so
    a chunk whose stripped core is letters only holds that one token.
    """
    marks = _CLOSERS | _OPENERS | cfg.sentence_terminators | frozenset(",;:")
    return "".join(sorted(marks - cfg.intra_token_chars))


def count_letters(form: str) -> int:
    """Number of alphabetic characters; digits and marks do not count."""
    return len(form) if form.isalpha() else sum(map(str.isalpha, form))


def _folded(surface: str, cfg: TokenizerConfig) -> str:
    folded = surface.casefold() if cfg.case_folding else surface
    # a form that folding leaves unchanged keeps the surface's string
    return surface if folded == surface else folded


def _run_tokens(run: str, token: re.Pattern, cfg: TokenizerConfig) -> tuple:
    """``(offset in run, (surface, folded))`` of each token in one match.

    A numeral outside Nd that is not an intra-token char is no word
    character, so it is blanked and the run matched again.  The characters
    just outside a run are not word characters either, so the run can be
    matched on its own.
    """
    if not run.isalpha():
        blanked = "".join(
            c if _is_word_char(c) or c in cfg.intra_token_chars else " " for c in run
        )
        if blanked != run:
            return tuple((m.start(), (m[0], _folded(m[0], cfg))) for m in token.finditer(blanked))
    return ((0, (run, _folded(run, cfg))),)


class _Runs(dict):
    """``_run_tokens`` of each distinct run under one config, computed once."""

    def __init__(self, cfg: TokenizerConfig):
        super().__init__()
        self.cfg = cfg
        self.token = _patterns(cfg)[0]

    def __missing__(self, run: str) -> tuple:
        parts = self[run] = _run_tokens(run, self.token, self.cfg)
        return parts


def _blocks(text: str) -> Iterator[str]:
    """``text`` in consecutive pieces of about ``_BLOCK_CHARS``, each cut at whitespace."""
    start = 0
    while start < len(text):
        cut = _SPACE.search(text, start + _BLOCK_CHARS)
        end = cut.start() if cut else len(text)
        yield text[start:end]
        start = end


def tokenize(text: str, cfg: TokenizerConfig = DEFAULT_CONFIG) -> Tokens:
    """Count the word tokens of ``text``.

    The text is NFC-normalized first.  Word characters are letters (L*)
    and decimal digits (Nd); other numerals such as ``²``, ``Ⅻ`` or ``½``
    separate tokens like punctuation, so ``tokenize("x² Ⅻ ½")`` counts only
    ``x``.  A joiner (hyphen, apostrophe) stays inside a token only when
    flanked by letters/digits on both sides; other permitted marks (section
    sign) need a letter/digit neighbour on one side and may lead a token.
    Runs without any letter or digit yield no token.
    """
    text = unicodedata.normalize("NFC", text)
    runs = _Runs(cfg)
    edges = _edge_chars(cfg)
    chunks: Counter[str] = Counter()
    for block in _blocks(text):
        chunks.update(block.split())
    forms: dict[str, int] = {}
    letters = 0
    # chunks and the tokens in each come in order of first occurrence
    for chunk, n in chunks.items():
        word = chunk.strip(edges)
        if word.isalpha():
            # letters only, once edge punctuation is stripped: one run, and one token
            key = _folded(word, cfg)
            forms[key] = forms.get(key, 0) + n
            letters += len(word) * n
            continue
        for run in runs.token.findall(chunk):
            for _, (surface, key) in runs[run]:
                forms[key] = forms.get(key, 0) + n
                letters += count_letters(surface) * n
    return Tokens(forms, letters, sum(forms.values()))


def _is_upper(ch: str) -> bool:
    return unicodedata.category(ch) in ("Lu", "Lt")


def _last_surface(text: str, start: int, end: int, runs: _Runs) -> str | None:
    """Surface of the last token that ends at or before ``end``, scanning from ``start``.

    ``start`` must not fall inside a token.  The scan takes in the
    character at ``end``, so that a token holding it is seen and passed over.
    """
    surface = None
    for match in runs.token.finditer(text, start, end + 1):
        for offset, (candidate, _) in runs[match[0]]:
            if match.start() + offset + len(candidate) <= end:
                surface = candidate
    return surface


def _boundary_positions(
    text: str, cfg: TokenizerConfig, runs: _Runs
) -> Iterator[tuple[int, int]]:
    """Each position right after which a sentence ends, with where the next token starts.

    A terminator ends a sentence when, after optional closing quotes, it is
    followed by whitespace and an uppercase letter (opening quotes or a
    dash may precede the capital), or by end of text.  That capital is the
    first word character after the terminator, so the next token starts
    there or at the intra-token mark just before it (``len(text)`` at end
    of text); no later boundary falls between the two.  A period after a
    listed abbreviation never splits; the abbreviation is the last token
    that ends at or before the period, compared casefolded.  When the
    chunk is letters and then the period, those letters are that token;
    otherwise it is looked up in the period's chunk, and in the text before
    the chunk only when the chunk holds none.
    """
    plain_period = "." not in cfg.intra_token_chars
    # a chunk start, and the last token that ends at or before it
    floor, before_floor = 0, None
    previous = -1
    for match in _patterns(cfg)[1].finditer(text):
        i = match.start()
        # whitespace follows every terminator match, so it lies between the last one and i
        after, previous = previous + 1, i
        follower = match[1]
        if not follower:
            next_token = len(text)
        elif _is_upper(follower):
            next_token = match.start(1)
        else:
            continue
        if text[i] == "." and cfg.abbreviations:
            space = _THROUGH_LAST_SPACE.match(text, after, i)
            start = space.end() if space else after
            word = text[start:i]
            if plain_period and word.isalpha():
                # letters then a period that no token takes in: the letters are the token
                surface = word
            else:
                surface = _last_surface(text[start:i + 1], 0, i - start, runs)
            if surface is None:
                # candidates' chunks only move forward, so each stretch is scanned once
                surface = _last_surface(text, floor, start, runs) or before_floor
                floor, before_floor = start, surface
            if surface is not None and surface.casefold() in cfg.abbreviations:
                continue
        yield i, next_token


def _first_token(text: str, runs: _Runs) -> int:
    """Where the first token of ``text`` starts, or ``len(text)`` if it has none."""
    for match in runs.token.finditer(text):
        parts = runs[match[0]]
        # a run of numerals outside Nd holds no token
        if parts:
            return match.start() + parts[0][0]
    return len(text)


def split_sentences(
    text: str,
    cfg: TokenizerConfig = DEFAULT_CONFIG,
    tokens: Tokens | None = None,
) -> list[int]:
    """Where each sentence of ``text`` ends: its ``len`` is the sentence count.

    Each end is the position of the sentence's terminator in the
    NFC-normalized text, or the text's length for a last sentence without
    one.  Text without any terminator is a single sentence, and text
    without a token has none.  A boundary with no token since the last one
    ends no sentence.  ``tokens`` is not read; it stays for callers that
    pass a ``tokenize`` result by position.
    """
    text = unicodedata.normalize("NFC", text)
    runs = _Runs(cfg)
    ends = []
    # where the first token after the last boundary starts
    next_token = _first_token(text, runs)
    for pos, after_pos in _boundary_positions(text, cfg, runs):
        if next_token < pos:
            ends.append(pos)
        next_token = after_pos
    if next_token < len(text):
        ends.append(len(text))
    return ends
