"""Reference tokenizer: the per-character scanner ``textlaws.tokenizer`` replaced.

It walks the text one character at a time and asks ``unicodedata`` about
each one.  It is slow and kept only as the oracle that the compiled
pattern in ``textlaws.tokenizer`` is tested against.  Word characters are
letters (L*) and decimal digits (Nd); see ``tokenize`` for the joiner and
section-sign rules and ``_boundary_positions`` for the sentence rules.
"""

from __future__ import annotations

import unicodedata
from bisect import bisect_left
from dataclasses import dataclass

from textlaws.tokenizer import DEFAULT_CONFIG, TokenizerConfig

# The alphabet the library is tested over against this oracle: letters of
# three scripts (ǅ is titlecase), joiners, the section sign, digits,
# numerals outside Nd, a combining acute, a byte order mark, terminators,
# closers and openers
ORACLE_ALPHABET = (
    "абТтAbßλǅ" "-‐‑'’ʼ`" "§" "019" "²Ⅻ½" "\u0301\ufeff" ".!?…" "»\"”)]" "«“‘([—–" " \n"
)

# General categories of word characters: letters (L*) and decimal digits.
_WORD_CATEGORIES = frozenset({"Lu", "Ll", "Lt", "Lm", "Lo", "Nd"})
# Characters that join two word characters (never lead or trail a token).
_JOINER_CHARS = frozenset("-‐‑'’ʼ`")
# Closing quotes tolerated between a terminator and the sentence break.
_CLOSERS = frozenset("»\"'’”)]")
# Opening punctuation tolerated between the break and the next capital.
_OPENERS = frozenset("«\"“‘([—–-")


@dataclass(frozen=True)
class Token:
    surface: str
    folded: str
    char_offset: int


@dataclass(frozen=True)
class SentenceSpan:
    start_token: int
    end_token: int  # exclusive


def _is_word_char(ch: str) -> bool:
    return unicodedata.category(ch) in _WORD_CATEGORIES


def tokenize(text: str, cfg: TokenizerConfig = DEFAULT_CONFIG) -> list[Token]:
    """Split text into word tokens.

    The text is NFC-normalized first.  A joiner (hyphen, apostrophe) stays
    inside a token only when flanked by letters/digits on both sides; other
    permitted marks (section sign) need a letter/digit neighbour on one side
    and may lead a token.  Runs without any letter or digit yield no token.
    """
    text = unicodedata.normalize("NFC", text)
    joiners = cfg.intra_token_chars & _JOINER_CHARS
    extras = {
        ch for ch in cfg.intra_token_chars
        if ch not in joiners and not _is_word_char(ch)
    }
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        leads = _is_word_char(ch) or (
            ch in extras and i + 1 < n and _is_word_char(text[i + 1])
        )
        if not leads:
            i += 1
            continue
        start = i
        i += 1
        while i < n:
            c = text[i]
            if _is_word_char(c):
                i += 1
            elif c in joiners and i + 1 < n and _is_word_char(text[i + 1]):
                i += 1
            elif c in extras and (
                _is_word_char(text[i - 1])
                or (i + 1 < n and _is_word_char(text[i + 1]))
            ):
                i += 1
            else:
                break
        surface = text[start:i]
        folded = surface.casefold() if cfg.case_folding else surface
        tokens.append(Token(surface, folded, start))
    return tokens


def _is_upper(ch: str) -> bool:
    return unicodedata.category(ch) in ("Lu", "Lt")


def _boundary_positions(text: str, tokens: list[Token], cfg: TokenizerConfig) -> list[int]:
    """Text positions right after which a sentence ends.

    A terminator ends a sentence when, after optional closing quotes, it is
    followed by whitespace and an uppercase letter (opening quotes or a
    dash may precede the capital), or by end of text.  A period directly
    after a listed abbreviation never splits.
    """
    positions = []
    tok_idx = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch not in cfg.sentence_terminators:
            continue
        while tok_idx < len(tokens) and tokens[tok_idx].char_offset + len(tokens[tok_idx].surface) <= i:
            tok_idx += 1
        # token immediately before the terminator, if any
        prev = tokens[tok_idx - 1] if tok_idx > 0 else None
        # abbreviations match case-insensitively (TokenizerConfig casefolds them)
        if ch == "." and prev is not None and prev.surface.casefold() in cfg.abbreviations:
            continue
        j = i + 1
        while j < n and text[j] in _CLOSERS:
            j += 1
        if j >= n:
            positions.append(i)
            continue
        if not text[j].isspace():
            continue
        while j < n and (text[j].isspace() or text[j] in _OPENERS):
            j += 1
        if j >= n or _is_upper(text[j]):
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
    spans: list[SentenceSpan] = []
    prev_end = 0
    for pos in _boundary_positions(text, tokens, cfg):
        k = _count_tokens_before(tokens, pos)
        if k > prev_end:
            spans.append(SentenceSpan(prev_end, k))
            prev_end = k
    if prev_end < len(tokens):
        spans.append(SentenceSpan(prev_end, len(tokens)))
    return spans


def _count_tokens_before(tokens: list[Token], pos: int) -> int:
    # offsets are strictly increasing, so bisect applies directly
    return bisect_left(tokens, pos, key=lambda t: t.char_offset)
