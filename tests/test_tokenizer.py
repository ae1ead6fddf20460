import dataclasses
import os
import subprocess
import sys
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import textlaws
from textlaws import (
    DEFAULT_CONFIG,
    TokenizerConfig,
    Tokens,
    ValidationError,
    split_sentences,
    tokenize,
    tokenizer,
)
from tokenizer_oracle import (
    ORACLE_ALPHABET,
    split_sentences as oracle_split_sentences,
    tokenize as oracle_tokenize,
)

# alphabet mixing scripts, digits, joiners and separator punctuation
TEXT_ALPHABET = "абвгіїєщьюя ABCdef 0159-'’§.,!?…«»—\n\t"


def surface_counts(text, cfg=DEFAULT_CONFIG):
    """The token count of each surface of ``text``, in order of first occurrence."""
    return {surface: n for (surface, _), n in tokenize(text, cfg).counts.items()}


def sentence_lengths(text, cfg=DEFAULT_CONFIG):
    """The token count of each sentence: its end bisected into the oracle's token offsets."""
    offsets = [t.char_offset for t in oracle_tokenize(text, cfg)]
    lengths, start = [], 0
    for pos in split_sentences(text, cfg):
        end = bisect_left(offsets, pos)
        lengths.append(end - start)
        start = end
    return lengths


@pytest.mark.parametrize("raw", ["1848", "60-ий", "§136"])
def test_alphanumeric_sequences_are_single_tokens(raw):
    assert surface_counts(raw) == {raw: 1}


def test_empty_text_yields_no_tokens():
    tokens = tokenize("")
    assert tokens.counts == {} and len(tokens) == 0


def test_hand_tokenized_mixed_sentence():
    # oracle: hand tokenization of the sentence
    counts = surface_counts("Так, так — in die Stadt.")
    assert list(counts.items()) == [("Так", 1), ("так", 1), ("in", 1), ("die", 1), ("Stadt", 1)]


def test_punctuation_only_runs_yield_no_token():
    assert surface_counts("— ... !!! «»") == {}


def test_joiners_need_word_chars_on_both_sides():
    assert surface_counts("в--в") == {"в": 2}
    assert surface_counts("слово- і -друге") == {"слово": 1, "і": 1, "друге": 1}
    assert surface_counts("'quoted'") == {"quoted": 1}
    assert surface_counts("м’ята") == {"м’ята": 1}


def test_attached_punctuation_is_stripped():
    assert surface_counts("стежки, поля.") == {"стежки": 1, "поля": 1}


def test_case_folding_key():
    assert tokenize("Стежки стежки").counts == {("Стежки", "стежки"): 1, ("стежки", "стежки"): 1}
    raw = tokenize("Стежки", TokenizerConfig(case_folding=False))
    assert raw.counts == {("Стежки", "Стежки"): 1}


@given(st.text(alphabet=TEXT_ALPHABET, max_size=80))
def test_tokenize_detokenized_is_idempotent(text):
    first = tokenize(text).counts
    again = tokenize(" ".join(s for (s, _), n in first.items() for _ in range(n))).counts
    assert list(again.items()) == list(first.items())


@given(st.text(alphabet=TEXT_ALPHABET, max_size=80))
def test_every_token_has_letter_or_digit(text):
    for surface, _ in tokenize(text).counts:
        assert any(ch.isalpha() or ch.isdigit() for ch in surface)


class TestSentences:
    def test_two_terminated_clauses(self):
        assert sentence_lengths("A b. C d!") == [2, 2]

    def test_no_terminator_single_span(self):
        assert sentence_lengths("просто слова без крапки") == [4]

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
        assert sentence_lengths(text) == [2, 3, 4, 2, 5, 3, 2, 4, 3, 2]
        assert len(tokenize(text)) / len(split_sentences(text)) == 3.0

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
        lengths = sentence_lengths(text)
        assert all(lengths)
        assert sum(lengths) == len(tokenize(text))


def test_numerals_outside_nd_separate_tokens():
    # ², Ⅻ and ½ are numerals (No, Nl) but not decimal digits (Nd)
    assert surface_counts("x² Ⅻ ½") == {"x": 1}
    assert surface_counts("x²y 1½ Ⅻ-а") == {"x": 1, "y": 1, "1": 1, "а": 1}


tokenizer_configs = st.builds(
    TokenizerConfig,
    # intra chars may overlap the terminators (§, .) and be numerals (², Ⅻ)
    intra_token_chars=st.frozensets(st.sampled_from("-‐'’`§._²Ⅻ09а")),
    case_folding=st.booleans(),
    sentence_terminators=st.frozensets(st.sampled_from(".!?…§»«")),
    abbreviations=st.frozensets(st.sampled_from(["т", "Т", "ab", "AB", "ß", "ss"])),
)


@settings(max_examples=300)
@given(st.text(alphabet=ORACLE_ALPHABET, max_size=60), tokenizer_configs)
@example("a§ §1 a§§b a§§§b в--в м’ята x²y 1½ Ⅻ-а", DEFAULT_CONFIG)
@example("x²§ §² ²²a ½§", TokenizerConfig(intra_token_chars=frozenset("²§")))
def test_tokenize_matches_scanner_oracle(text, cfg):
    tokens, expected = tokenize(text, cfg), oracle_tokenize(text, cfg)
    expected_counts = Counter((t.surface, t.folded) for t in expected)
    assert list(tokens.counts.items()) == list(expected_counts.items())
    assert len(tokens) == len(expected)


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
    expected = oracle_split_sentences(text, cfg)
    # as many sentences, each with as many tokens
    assert sentence_lengths(text, cfg) == [s.end_token - s.start_token for s in expected]
    # a tokenize result passed by position is not read
    assert split_sentences(text, cfg, tokenize(text, cfg)) == split_sentences(text, cfg)


BLOCK_WORDS = "Він знав, що т. Б прийшов. «Так» — сказав він! М’ята, §136 і 60-ий x²y… "


def _cut_between(text, cut, before, after):
    """``text``, filler words, then ``before`` ending at ``cut`` and ``after`` from it."""
    need = cut - len(before) - len(text)
    return text + (BLOCK_WORDS * (need // len(BLOCK_WORDS) + 1))[:need] + before + after


def test_counts_across_block_cuts():
    # tokenize counts the text one block at a time; the oracle texts above
    # never reach a second block
    block = tokenizer._BLOCK_CHARS
    text = _cut_between("", block, "знав т.", " Бо")
    text = _cut_between(text, 2 * block - 100, "", " " + "«Так»—т.Б-ні," * (block // 12 + 20))
    run_end = len(text)
    text = _cut_between(text + " ", run_end + block, " він.", " «Так» — ні.")
    text = _cut_between(text, run_end + 2 * block, " знав т.", " — Б.")
    blocks = list(tokenizer._blocks(text))
    assert blocks[0].endswith(" т.") and blocks[1].startswith(" Бо")
    # a whitespace-free run longer than a block holds the second cut
    assert max(map(len, blocks[1].split())) > block
    assert blocks[2].endswith(" він.") and blocks[3].startswith(" «Так» —")
    assert blocks[3].endswith(" т.") and blocks[4] == " — Б."

    cfg = TokenizerConfig(abbreviations=frozenset({"т"}))
    tokens, expected = tokenize(text, cfg), oracle_tokenize(text, cfg)
    expected_counts = Counter((t.surface, t.folded) for t in expected)
    assert list(tokens.counts.items()) == list(expected_counts.items())
    assert len(tokens) == len(expected)
    assert len(split_sentences(text, cfg)) == len(oracle_split_sentences(text, cfg))


EDGE_TEXT = "«Слово», слово. 'слово' «м'ята» т.к. (слово;) —слово…"


@pytest.mark.parametrize("added, removed, expected", [
    pytest.param(".", "", {"Слово": 1, "слово.": 1, "слово": 3, "м'ята": 1, "т.к.": 1},
                 id="period"),
    pytest.param("", "", {"Слово": 1, "слово": 4, "м'ята": 1, "т": 1, "к": 1},
                 id="apostrophe"),
    pytest.param("", "'", {"Слово": 1, "слово": 4, "м": 1, "ята": 1, "т": 1, "к": 1},
                 id="no-apostrophe"),
    pytest.param("«", "", {"«Слово": 1, "слово": 4, "«м'ята": 1, "т": 1, "к": 1},
                 id="guillemet"),
])
def test_edge_punctuation_that_is_an_intra_token_char_stays(added, removed, expected):
    # tokenize strips edge punctuation off a chunk before its letters-only
    # test, but never a character that can be part of a token
    intra = DEFAULT_CONFIG.intra_token_chars - set(removed) | set(added)
    cfg = TokenizerConfig(intra_token_chars=intra)
    edges = set(tokenizer._edge_chars(cfg))
    assert not edges & intra and set(removed) <= edges
    assert surface_counts(EDGE_TEXT, cfg) == expected
    oracle_counts = Counter((t.surface, t.folded) for t in oracle_tokenize(EDGE_TEXT, cfg))
    assert list(tokenize(EDGE_TEXT, cfg).counts.items()) == list(oracle_counts.items())


def test_tokens_holds_the_counts_and_their_sum():
    tokens = tokenize("Так, так — in die Так.")
    assert isinstance(tokens, Tokens)
    assert list(tokens.counts.items()) == [
        (("Так", "так"), 2), (("так", "так"), 1), (("in", "in"), 1), (("die", "die"), 1),
    ]
    assert len(tokens) == tokens.n == 5
    # a form that folding leaves unchanged keeps one string for both fields
    [(surface, folded)] = tokenize("так так").counts
    assert surface is folded
    empty = tokenize("")
    assert len(empty) == 0 and not empty
    assert empty == Tokens({}, 0)


def test_tokens_is_frozen_slotted():
    tokens = tokenize("а")
    assert not hasattr(tokens, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        tokens.n = 2


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


@pytest.mark.parametrize("terminators", [".1", "!a", "Т", "٣"])
def test_config_rejects_word_char_terminators(terminators):
    # a token could hold its own terminator: "01" with terminator "1"
    with pytest.raises(ValidationError):
        TokenizerConfig(sentence_terminators=frozenset(terminators))
