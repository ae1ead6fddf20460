import dataclasses
import os
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import textlaws
from textlaws import (
    DEFAULT_CONFIG,
    SentenceSpan,
    Token,
    TokenizerConfig,
    Tokens,
    ValidationError,
    split_sentences,
    tokenize,
)
from tokenizer_oracle import (
    split_sentences as oracle_split_sentences,
    tokenize as oracle_tokenize,
)

# alphabet mixing scripts, digits, joiners and separator punctuation
TEXT_ALPHABET = "абвгіїєщьюя ABCdef 0159-'’§.,!?…«»—\n\t"


def surfaces(text, cfg=None):
    return [t.surface for t in (tokenize(text, cfg) if cfg else tokenize(text))]


@pytest.mark.parametrize("raw", ["1848", "60-ий", "§136"])
def test_alphanumeric_sequences_are_single_tokens(raw):
    tokens = tokenize(raw)
    assert [t.surface for t in tokens] == [raw]


def test_empty_text_yields_no_tokens():
    assert list(tokenize("")) == []


def test_hand_tokenized_mixed_sentence():
    # oracle: hand tokenization of the sentence
    tokens = tokenize("Так, так — in die Stadt.")
    assert [t.surface for t in tokens] == ["Так", "так", "in", "die", "Stadt"]


def test_punctuation_only_runs_yield_no_token():
    assert list(tokenize("— ... !!! «»")) == []


def test_joiners_need_word_chars_on_both_sides():
    assert surfaces("в--в") == ["в", "в"]
    assert surfaces("слово- і -друге") == ["слово", "і", "друге"]
    assert surfaces("'quoted'") == ["quoted"]
    assert surfaces("м’ята") == ["м’ята"]


def test_attached_punctuation_is_stripped():
    assert surfaces("стежки, поля.") == ["стежки", "поля"]


def test_case_folding_key():
    token = tokenize("Стежки")[0]
    assert token.folded == "стежки"
    raw = tokenize("Стежки", TokenizerConfig(case_folding=False))[0]
    assert raw.folded == "Стежки"


def test_offsets_slice_back_to_surfaces():
    text = "Так, так — in die Stadt. §136 і 60-ий."
    norm = unicodedata.normalize("NFC", text)
    for t in tokenize(text):
        assert norm[t.char_offset:t.char_offset + len(t.surface)] == t.surface


@given(st.text(alphabet=TEXT_ALPHABET, max_size=80))
def test_round_trip_reconstruction(text):
    norm = unicodedata.normalize("NFC", text)
    tokens = tokenize(text)
    rebuilt = []
    pos = 0
    for t in tokens:
        assert t.char_offset >= pos
        rebuilt.append(norm[pos:t.char_offset])
        rebuilt.append(t.surface)
        pos = t.char_offset + len(t.surface)
    rebuilt.append(norm[pos:])
    assert "".join(rebuilt) == norm
    assert sum(len(t.surface) for t in tokens) <= len(norm)


@given(st.text(alphabet=TEXT_ALPHABET, max_size=80))
def test_offsets_strictly_monotone(text):
    offsets = [t.char_offset for t in tokenize(text)]
    assert all(a < b for a, b in zip(offsets, offsets[1:]))


@given(st.text(alphabet=TEXT_ALPHABET, max_size=80))
def test_tokenize_detokenized_is_idempotent(text):
    first = [t.surface for t in tokenize(text)]
    again = [t.surface for t in tokenize(" ".join(first))]
    assert again == first


@given(st.text(alphabet=TEXT_ALPHABET, max_size=80))
def test_every_token_has_letter_or_digit(text):
    for t in tokenize(text):
        assert any(ch.isalpha() or ch.isdigit() for ch in t.surface)


class TestSentences:
    def test_two_terminated_clauses(self):
        spans = split_sentences("A b. C d!")
        assert [(s.start_token, s.end_token) for s in spans] == [(0, 2), (2, 4)]

    def test_no_terminator_single_span(self):
        spans = split_sentences("просто слова без крапки")
        assert [(s.start_token, s.end_token) for s in spans] == [(0, 4)]

    def test_empty_text_no_spans(self):
        assert split_sentences("") == []

    def test_ten_sentence_paragraph_mean_matches_hand_count(self):
        # oracle: manual segmentation; lengths 2,3,4,2,5,3,2,4,3,2 = 30 tokens
        parts = [
            "Він пішов.", "Вона була тут!", "Ми йшли до міста?",
            "Так буде.", "Пан дав нам п'ять слів.", "День був довгий.",
            "Хто там?", "Стежка вела в поле.", "Вони не знали.", "Кінець настав.",
        ]
        text = " ".join(parts)
        tokens = tokenize(text)
        spans = split_sentences(text, tokens=tokens)
        assert len(spans) == 10
        lengths = [s.end_token - s.start_token for s in spans]
        assert lengths == [2, 3, 4, 2, 5, 3, 2, 4, 3, 2]
        assert len(tokens) / len(spans) == 3.0

    def test_abbreviation_suppresses_split(self):
        cfg = TokenizerConfig(abbreviations=frozenset({"м"}))
        spans = split_sentences("Жив у м. Львів. Він знав це.", cfg)
        assert len(spans) == 2

    @pytest.mark.parametrize("abbreviation, folding", [
        ("Т", True), ("т", False), ("Т", False),
    ])
    def test_abbreviations_match_case_insensitively(self, abbreviation, folding):
        cfg = TokenizerConfig(case_folding=folding, abbreviations=frozenset({abbreviation}))
        assert cfg.abbreviations == {"т"}
        spans = split_sentences("Жив у Т. Шевченка. Він знав це.", cfg)
        assert len(spans) == 2

    def test_lowercase_continuation_does_not_split(self):
        spans = split_sentences("п. іванов прийшов")
        assert len(spans) == 1

    def test_quoted_sentence_start_splits(self):
        spans = split_sentences("Він знав. «Може» — так.")
        assert len(spans) == 2

    @given(st.text(alphabet=TEXT_ALPHABET, max_size=120))
    def test_spans_partition_tokens(self, text):
        tokens = tokenize(text)
        spans = split_sentences(text, tokens=tokens)
        covered = 0
        for span in spans:
            assert span.start_token == covered
            assert span.end_token > span.start_token
            covered = span.end_token
        assert covered == len(tokens)


def test_numerals_outside_nd_separate_tokens():
    # ², Ⅻ and ½ are numerals (No, Nl) but not decimal digits (Nd)
    assert surfaces("x² Ⅻ ½") == ["x"]
    assert surfaces("x²y 1½ Ⅻ-а") == ["x", "y", "1", "а"]


# letters of three scripts (ǅ is titlecase), joiners, the section sign,
# digits, numerals outside Nd, a combining acute, a byte order mark,
# terminators, closers and openers
ORACLE_ALPHABET = (
    "абТтAbßλǅ" "-‐‑'’ʼ`" "§" "019" "²Ⅻ½" "\u0301\ufeff" ".!?…" "»\"”)]" "«“‘([—–" " \n"
)

tokenizer_configs = st.builds(
    TokenizerConfig,
    # intra chars may overlap the terminators (§, .) and be numerals (², Ⅻ)
    intra_token_chars=st.frozensets(st.sampled_from("-‐'’`§._²Ⅻ09а")),
    case_folding=st.booleans(),
    sentence_terminators=st.frozensets(st.sampled_from(".!?…§»«")),
    abbreviations=st.frozensets(st.sampled_from(["т", "Т", "ab", "AB", "ß", "ss"])),
)


def token_fields(tokens):
    return [(t.surface, t.folded, t.char_offset) for t in tokens]


@settings(max_examples=300)
@given(st.text(alphabet=ORACLE_ALPHABET, max_size=60), tokenizer_configs)
@example("a§ §1 a§§b a§§§b в--в м’ята x²y 1½ Ⅻ-а", DEFAULT_CONFIG)
@example("x²§ §² ²²a ½§", TokenizerConfig(intra_token_chars=frozenset("²§")))
def test_tokenize_matches_scanner_oracle(text, cfg):
    tokens, expected = tokenize(text, cfg), oracle_tokenize(text, cfg)
    assert token_fields(tokens) == token_fields(expected)
    # the columns themselves, not only the Tokens built from them
    assert tokens.surfaces == [t.surface for t in expected]
    assert tokens.folded == [t.folded for t in expected]
    assert tokens.offsets == [t.char_offset for t in expected]


@settings(max_examples=300)
@given(st.text(alphabet=ORACLE_ALPHABET, max_size=60), tokenizer_configs)
# the period ends the token "ab.", so the abbreviation is the "ab" before it
@example(
    "ab ab. Б ab. Б",
    TokenizerConfig(intra_token_chars=frozenset("."), abbreviations=frozenset({"ab"})),
)
@example(
    "Жив у Т. Шевченка. «Він» знав!» Так… ",
    TokenizerConfig(case_folding=False, abbreviations=frozenset({"т"})),
)
def test_split_sentences_matches_scanner_oracle(text, cfg):
    assert split_sentences(text, cfg) == oracle_split_sentences(text, cfg)


def test_tokens_is_a_read_only_sequence_of_columns():
    tokens = tokenize("Так, так — in die Stadt.")
    assert isinstance(tokens, Tokens)
    assert len(tokens) == 5
    assert tokens.surfaces == ["Так", "так", "in", "die", "Stadt"]
    assert tokens.folded == ["так", "так", "in", "die", "stadt"]
    assert tokens.offsets == [0, 5, 11, 14, 18]
    assert tokens[0] == Token("Так", "так", 0)
    assert tokens[-1] == Token("Stadt", "stadt", 18)
    with pytest.raises(IndexError):
        tokens[5]
    assert tokens[1:3] == Tokens(["так", "in"], ["так", "in"], [5, 11])
    assert list(tokens[1:3]) == [Token("так", "так", 5), Token("in", "in", 11)]
    assert list(tokens) == [tokens[i] for i in range(len(tokens))]
    assert Token("in", "in", 11) in tokens
    # the tokens of one surface share its strings
    again = tokenize("так так")
    assert again.surfaces[0] is again.surfaces[1] is again.folded[0] is again.folded[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tokens.offsets = []
    with pytest.raises(TypeError):
        tokens[0] = Token("а", "а", 0)
    empty = tokenize("")
    assert len(empty) == 0 and not empty
    assert empty == Tokens([], [], [])


def test_tokens_and_spans_are_frozen_slotted():
    records = [
        (Token("а", "а", 0), "char_offset"),
        (SentenceSpan(0, 1), "end_token"),
    ]
    for record, field in records:
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 2)


def test_import_compiles_no_token_pattern():
    code = (
        "import textlaws, textlaws.tokenizer as t\n"
        "before = t._patterns.cache_info().currsize\n"
        "textlaws.tokenize('а')\n"
        "print(before, t._patterns.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(textlaws.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == ["0", "1"]


def test_config_rejects_whitespace_intra_chars():
    with pytest.raises(ValidationError):
        TokenizerConfig(intra_token_chars=frozenset(" -"))
