"""Tokenization of running text into word tokens and sentence spans.

A token is a maximal run of letters, digits and permitted internal
characters ("60-ий", "§136" and "м’ята" are single tokens); everything
between tokens is separator material and is never emitted.  Offsets refer
to the NFC-normalized text, so slicing the normalized text at a token's
offset recovers its surface exactly.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .errors import ValidationError

DEFAULT_INTRA_CHARS = frozenset("-'’ʼ§" + "0123456789")
DEFAULT_TERMINATORS = frozenset(".!?…")

# Characters that join two word characters (never lead or trail a token).
_JOINER_CHARS = frozenset("-‐‑'’ʼ`")
# Closing quotes tolerated between a terminator and the sentence break.
_CLOSERS = frozenset("»\"'’”)]")
# Opening punctuation tolerated between the break and the next capital.
_OPENERS = frozenset("«\"“‘([—–-")


@dataclass(frozen=True)
class TokenizerConfig:
    """Character-class configuration for tokenize/split_sentences.

    Abbreviations are stored casefolded and match the token before a
    period case-insensitively, whether or not ``case_folding`` is on.
    """

    intra_token_chars: frozenset[str] = DEFAULT_INTRA_CHARS
    case_folding: bool = True
    sentence_terminators: frozenset[str] = DEFAULT_TERMINATORS
    abbreviations: frozenset[str] = frozenset()

    def __post_init__(self):
        if any(ch.isspace() for ch in self.intra_token_chars):
            raise ValidationError("intra_token_chars must not contain whitespace")
        object.__setattr__(
            self, "abbreviations", frozenset(a.casefold() for a in self.abbreviations)
        )


DEFAULT_CONFIG = TokenizerConfig()


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    folded: str
    char_offset: int


@dataclass(frozen=True, slots=True)
class SentenceSpan:
    start_token: int
    end_token: int  # exclusive


def _is_word_char(ch: str) -> bool:
    # letters (general category L*) and decimal digits (Nd)
    return ch.isalpha() or ch.isdecimal()


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
    that hold one.

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


def _token_fields(surface: str, cfg: TokenizerConfig) -> tuple[str, str]:
    folded = surface.casefold() if cfg.case_folding else surface
    # equal strings share one object across every token of the form
    return surface, surface if folded == surface else folded


def _run_tokens(run: str, token: re.Pattern, cfg: TokenizerConfig) -> tuple:
    """``(offset in run, surface, folded)`` of each token in one match.

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
            return tuple(
                (m.start(), *_token_fields(m[0], cfg)) for m in token.finditer(blanked)
            )
    return ((0, *_token_fields(run, cfg)),)


def tokenize(text: str, cfg: TokenizerConfig = DEFAULT_CONFIG) -> list[Token]:
    """Split text into word tokens.

    The text is NFC-normalized first.  Word characters are letters (L*)
    and decimal digits (Nd); other numerals such as ``²``, ``Ⅻ`` or ``½``
    separate tokens like punctuation, so ``tokenize("x² Ⅻ ½")`` gives only
    ``x``.  A joiner (hyphen, apostrophe) stays inside a token only when
    flanked by letters/digits on both sides; other permitted marks (section
    sign) need a letter/digit neighbour on one side and may lead a token.
    Runs without any letter or digit yield no token.
    """
    text = unicodedata.normalize("NFC", text)
    token = _patterns(cfg)[0]
    runs: dict[str, tuple] = {}
    tokens: list[Token] = []
    append = tokens.append
    for match in token.finditer(text):
        run = match[0]
        parts = runs.get(run)
        if parts is None:
            parts = runs[run] = _run_tokens(run, token, cfg)
        start = match.start()
        for offset, surface, folded in parts:
            append(Token(surface, folded, start + offset))
    return tokens


def _is_upper(ch: str) -> bool:
    return unicodedata.category(ch) in ("Lu", "Lt")


def _boundary_positions(
    text: str, tokens: list[Token], offsets: list[int], cfg: TokenizerConfig
) -> list[int]:
    """Text positions right after which a sentence ends.

    A terminator ends a sentence when, after optional closing quotes, it is
    followed by whitespace and an uppercase letter (opening quotes or a
    dash may precede the capital), or by end of text.  A period after a
    listed abbreviation never splits; the abbreviation is the last token
    that ends at or before the period, compared casefolded.
    """
    positions = []
    for match in _patterns(cfg)[1].finditer(text):
        follower = match[1]
        if follower and not _is_upper(follower):
            continue
        i = match.start()
        if text[i] == "." and cfg.abbreviations:
            k = bisect_right(offsets, i)
            if k and offsets[k - 1] + len(tokens[k - 1].surface) > i:
                k -= 1  # that token holds the period itself
            if k and tokens[k - 1].surface.casefold() in cfg.abbreviations:
                continue
        positions.append(i)
    return positions


def split_sentences(
    text: str,
    cfg: TokenizerConfig = DEFAULT_CONFIG,
    tokens: list[Token] | None = None,
) -> list[SentenceSpan]:
    """Partition the token stream of ``text`` into sentence spans.

    ``tokens`` may be passed to reuse an existing ``tokenize(text, cfg)``
    result; otherwise the text is tokenized here.  Spans cover every token
    with no overlap; text without any terminator is a single sentence.
    """
    text = unicodedata.normalize("NFC", text)
    if tokens is None:
        tokens = tokenize(text, cfg)
    if not tokens:
        return []
    offsets = list(map(attrgetter("char_offset"), tokens))
    spans: list[SentenceSpan] = []
    prev_end = 0
    for pos in _boundary_positions(text, tokens, offsets, cfg):
        k = bisect_left(offsets, pos)
        if k > prev_end:
            spans.append(SentenceSpan(prev_end, k))
            prev_end = k
    if prev_end < len(tokens):
        spans.append(SentenceSpan(prev_end, len(tokens)))
    return spans
