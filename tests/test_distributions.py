import random

import pytest
from hypothesis import example, given, settings, strategies as st

from textlaws import (
    FormLexicon,
    G2PRules,
    ResourceFormatError,
    ValidationError,
    count_letters,
    count_phonemes,
    count_syllables,
    coverage_curve,
    filter_min_support,
    form_lengths,
    length_distribution,
    load_default_g2p,
    mean_syllable_series,
    rank_frequency,
    read_g2p_rules,
    top_k,
)
from textlaws.distributions import _SLICE_FORMS, DEFAULT_UK_VOWELS
from g2p_oracle import oracle_count_phonemes

lexicon_strategy = st.dictionaries(
    st.text(alphabet="абвгдежзиклмнопрстец", min_size=1, max_size=8),
    st.integers(min_value=1, max_value=99),
    min_size=1,
    max_size=40,
)


def lex_of(entries):
    return FormLexicon(dict(entries), sum(entries.values()))


def table_of(entries, vowels=DEFAULT_UK_VOWELS):
    return form_lengths(lex_of(entries), G2PRules(()), vowels)


def spectrum(entries, unit, basis):
    return length_distribution(lex_of(entries), unit, table_of(entries), basis)


def series_of(entries, vowels=DEFAULT_UK_VOWELS):
    table = table_of(entries, vowels)
    return mean_syllable_series(table["letters"], table["syllables"])


class TestSyllables:
    @pytest.mark.parametrize("form,expected", [
        ("ж", 0), ("б", 0), ("в", 0), ("з", 0), ("й", 0),
        ("і", 1), ("на", 1),
        ("перехресні", 4),   # е-е-е-і by hand
        ("стежка", 2),
    ])
    def test_vowel_nucleus_count(self, form, expected):
        assert count_syllables(form) == expected

    def test_case_insensitive(self):
        assert count_syllables("Іван") == 2

    def test_custom_vowel_set(self):
        assert count_syllables("aeb", frozenset("ae")) == 2


class TestPhonemes:
    def test_digraph_counts_once(self):
        rules = G2PRules((("дз", 1),))
        assert count_phonemes("дзвін", rules) == 4  # дз-в-і-н by hand

    def test_empty_form(self):
        assert count_phonemes("", load_default_g2p()) == 0

    @given(st.text(alphabet="абвгдилмнопрст", max_size=12))
    def test_identity_rules_count_letters(self, form):
        assert count_phonemes(form, G2PRules(())) == len(form)

    def test_default_rules_shch_and_soft_sign(self):
        g2p = load_default_g2p()
        assert count_phonemes("щастя", g2p) == 6   # щ=2 + а-с-т-я
        assert count_phonemes("день", g2p) == 3    # ь silent
        assert count_phonemes("м’ята", g2p) == 4   # apostrophe silent

    def test_longest_match_wins(self):
        rules = G2PRules((("д", 5), ("дж", 1)))
        assert count_phonemes("джаз", rules) == 3

    # lines end as in text-mode open(): "\n", "\r\n" or a lone "\r", but not
    # "\x85", "\u2028" or "\x0c", so a comment runs on past those
    @pytest.mark.parametrize("text", [
        pytest.param("# digraphs\nдж\t1\nь\t0\n", id="lf"),
        pytest.param("# digraphs\r\nдж\t1\r\nь\t0\r\n", id="crlf"),
        pytest.param("\nдж\t1\n  \t\n   # indented\nь\t0\n", id="blank-and-indented-comment"),
        pytest.param("# digraphs\rдж\t1\rь\t0\r", id="lone-cr"),
        pytest.param("# digraphs\x85ґ\t9\nдж\t1\nь\t0\n", id="nel-in-comment"),
        pytest.param("# digraphs\u2028ґ\t9\nдж\t1\nь\t0\n", id="ls-in-comment"),
        pytest.param("дж\t\x0c1\nь\t0\n", id="ff-in-field"),
    ])
    def test_rules_file_reader(self, tmp_path, text):
        path = tmp_path / "g2p.tsv"
        path.write_bytes(text.encode("utf-8"))
        rules = read_g2p_rules(path)
        assert rules.rules == (("дж", 1), ("ь", 0))
        # a bad line after the text is numbered as text-mode open() counts lines
        path.write_bytes((text + "bad\n").encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            line_count = sum(1 for _ in fh)
        with pytest.raises(ResourceFormatError) as err:
            read_g2p_rules(path)
        assert err.value.line_no == line_count

    @given(st.text(alphabet="абвдежзиклмнопрстьщ’", max_size=12))
    def test_phonemes_bounded_by_letters_for_small_deltas(self, form):
        rules = G2PRules((("дж", 1), ("дз", 1), ("ь", 0), ("’", 0)))
        assert count_phonemes(form, rules) <= len(form)

    @pytest.mark.parametrize("rule", [("", 1), ("а", -1)])
    def test_rules_reject_empty_grapheme_and_negative_delta(self, rule):
        # an empty grapheme matches without consuming, so counting never ended
        with pytest.raises(ValidationError, match="empty grapheme or negative delta"):
            G2PRules((("б", 1), rule))

    def test_rules_reject_a_newline_in_a_grapheme(self):
        # a match over form_lengths' joined forms would run into the next form
        with pytest.raises(ValidationError, match="holds a newline"):
            G2PRules((("б", 1), ("а\nб", 0)))

    def test_counts_the_whole_casefolded_form(self):
        # casefolding makes ß two characters and İ two (i + combining dot)
        assert count_phonemes("ßb", G2PRules((("ss", 1),))) == 2
        assert count_phonemes("İ", G2PRules(())) == 2
        # s matches each half of ss; b, which no rule covers, counts one
        assert count_phonemes("ßb", G2PRules((("s", 1),))) == 3

    def test_rules_compare_by_rules(self):
        rules = (("дж", 1), ("д", 2))
        assert G2PRules(rules) == G2PRules(rules)
        assert hash(G2PRules(rules)) == hash(G2PRules(rules))
        assert G2PRules(rules) != G2PRules(rules[:1])


# Characters casefolding leaves alone, among them regex metacharacters.
G2P_ALPHABET = "абдзж’.*|(\\"
assert G2P_ALPHABET.casefold() == G2P_ALPHABET

# graphemes of one to three characters drawn from a few letters, so rules
# overlap, share prefixes, tie on length and repeat with other deltas
g2p_rule_sets = st.builds(
    G2PRules,
    st.lists(
        st.tuples(
            st.text(alphabet="аджз.*|(", min_size=1, max_size=3),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=8,
    ).map(tuple),
)


@settings(max_examples=500)
@given(st.text(alphabet=G2P_ALPHABET, max_size=16), g2p_rule_sets)
@example("джз", G2PRules((("д", 5), ("дж", 1), ("жз", 2), ("дж", 3))))
@example(".*|(\\", G2PRules(((".", 1), ("*|", 0), (".*", 2))))
def test_count_phonemes_matches_rule_walk_oracle(form, rules):
    assert count_phonemes(form, rules) == oracle_count_phonemes(form, rules)


# Forms mixing scripts, digits, joiners, upper case and characters that
# casefolding expands (ß -> ss, İ -> i + combining dot).
MIXED_ALPHABET = "абвгґеєжиіїйоуьюяАБЄІЇabcsAEZßİ019'’ʼ-"
mixed_rule_sets = st.builds(
    G2PRules,
    st.lists(
        st.tuples(
            st.text(alphabet="абжіїaes’", min_size=1, max_size=3),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=6,
    ).map(tuple),
)


# More forms than one joined pass of form_lengths takes.  Each form ends in a
# stem that casefolding expands or that a rule matches whole, and the forms
# on either side of each slice edge end in ß, İ and дж.
EDGE_STEMS = ("ß", "İ", "дж", "сд", "жs", "ssİ")
EDGE_LEXICON = {
    f"{i}{EDGE_STEMS[i % len(EDGE_STEMS)]}": 1 for i in range(2 * _SLICE_FORMS + 3)
}
assert list(EDGE_LEXICON)[_SLICE_FORMS - 2:_SLICE_FORMS + 1] == ["2046ß", "2047İ", "2048дж"]


class TestFormLengths:
    @settings(max_examples=300)
    @example(
        EDGE_LEXICON,
        frozenset("isі\u0307"),
        G2PRules((("дж", 1), ("ss", 2), ("i\u0307", 0), ("сдж", 3), ("s", 3))),
    )
    @given(
        st.dictionaries(
            st.text(alphabet=MIXED_ALPHABET, min_size=1, max_size=10),
            st.integers(min_value=1, max_value=50),
            min_size=1,
            max_size=20,
        ),
        st.frozensets(st.sampled_from(MIXED_ALPHABET)),
        mixed_rule_sets,
    )
    def test_columns_match_per_form_counters(self, entries, vowels, rules):
        assert form_lengths(lex_of(entries), rules, vowels) == {
            "letters": [count_letters(form) for form in entries],
            "phonemes": [count_phonemes(form, rules) for form in entries],
            "syllables": [count_syllables(form, vowels) for form in entries],
        }

    @given(st.text(alphabet=MIXED_ALPHABET + "\u0301²Ⅻ", max_size=12),
           st.frozensets(st.sampled_from(MIXED_ALPHABET)))
    def test_counters_match_per_character_loops(self, form, vowels):
        assert count_letters(form) == sum(1 for ch in form if ch.isalpha())
        assert count_syllables(form, vowels) == sum(1 for ch in form.casefold() if ch in vowels)

    def test_form_holding_a_newline_rejected(self):
        with pytest.raises(ValidationError, match="holds a newline"):
            form_lengths(lex_of({"на": 1, "к\nіт": 2}), G2PRules(()), DEFAULT_UK_VOWELS)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ValidationError):
            form_lengths(lex_of({}), G2PRules(()), DEFAULT_UK_VOWELS)

    def test_columns_of_another_length_rejected(self):
        lex = lex_of({"на": 1, "кіт": 2})
        with pytest.raises(ValueError):
            length_distribution(lex, "letters", {"letters": [2]}, "types")
        with pytest.raises(ValueError):
            length_distribution(lex, "letters", {"letters": [2, 3, 1]}, "tokens")
        with pytest.raises(ValueError):
            mean_syllable_series([2, 3], [1])
        with pytest.raises(ValueError):
            mean_syllable_series([2], [1, 1])


class TestLengthDistribution:
    def test_types_basis(self):
        dist = spectrum({"a": 5, "bb": 5}, "letters", "types")
        assert dist == ((1, 0.5), (2, 0.5))

    def test_tokens_basis_weighting(self):
        dist = spectrum({"a": 9, "bb": 1}, "letters", "tokens")
        assert dist == ((1, 0.9), (2, 0.1))

    def test_matches_brute_force_histogram(self):
        # oracle: independent histogram over 200 synthetic forms
        rng = random.Random(3)
        entries = {}
        while len(entries) < 200:
            form = "".join(rng.choice("абвгде") for _ in range(rng.randint(1, 9)))
            entries.setdefault(form, rng.randint(1, 20))
        hist = {}
        for form in entries:
            hist[len(form)] = hist.get(len(form), 0) + 1
        dist = spectrum(entries, "letters", "types")
        assert dist == tuple(
            (length, hist[length] / 200) for length in sorted(hist)
        )

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValidationError):
            spectrum({"a": 1}, "letters", "x")

    @given(lexicon_strategy, st.sampled_from(["types", "tokens"]))
    def test_fractions_sum_to_one(self, entries, basis):
        dist = spectrum(entries, "letters", basis)
        assert abs(sum(f for _, f in dist) - 1.0) <= 1e-9
        lengths = [length for length, _ in dist]
        assert lengths == sorted(set(lengths))
        assert all(f >= 0 for _, f in dist)

    def test_syllable_mass_at_zero_for_vowelless_forms(self):
        dist = spectrum({"б": 3, "на": 2}, "syllables", "types")
        assert dist[0][0] == 0
        assert dist[0][1] > 0


class TestMeanSyllableSeries:
    def test_hand_mean(self):
        series = series_of({"на": 1, "кіт": 1})
        assert series == ((1, 2.5, 2),)

    def test_single_vowel_form(self):
        series = series_of({"і": 1})
        assert series == ((1, 1.0, 1),)

    def test_nonsyllabic_forms_excluded(self):
        series = series_of({"б": 5, "ж": 2})
        assert series == ()

    def test_matches_group_by_oracle(self):
        # oracle: independent group-by over 50 synthetic forms
        rng = random.Random(11)
        entries = {}
        while len(entries) < 50:
            form = "".join(rng.choice("бвкале") for _ in range(rng.randint(1, 8)))
            entries.setdefault(form, 1)
        groups = {}
        for form in entries:
            s = sum(ch in "ае" for ch in form)
            if s:
                groups.setdefault(s, []).append(len(form) / s)
        series = series_of(entries, vowels=frozenset("ае"))
        assert series == tuple(
            (s, sum(vals) / len(vals), len(vals)) for s, vals in sorted(groups.items())
        )

    def test_min_support_filter(self):
        series = series_of({"на": 1, "і": 1, "мала": 1, "тара": 1})
        kept = filter_min_support(series, 2)
        assert all(support >= 2 for _, _, support in kept)


class TestRankFrequency:
    def test_tie_break_is_lexicographic(self):
        rf = rank_frequency(lex_of({"b": 3, "a": 3, "c": 1}))
        assert rf.rows == ((1, "a", 3), (2, "b", 3), (3, "c", 1))

    def test_single_entry(self):
        rf = rank_frequency(lex_of({"тут": 4}))
        assert rf.rows == ((1, "тут", 4),)
        assert rf.total == 4

    def test_matches_sort_oracle(self):
        rng = random.Random(5)
        entries = {f"w{i}": max(1, int(200 / (i + 1))) for i in range(40)}
        rf = rank_frequency(lex_of(entries))
        expected = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [(item, f) for _, item, f in rf.rows] == expected
        assert [r for r, _, _ in rf.rows] == list(range(1, 41))

    @given(lexicon_strategy)
    def test_ranks_are_positions(self, entries):
        rf = rank_frequency(lex_of(entries))
        assert rf.ranks.dtype == rf.counts.dtype == "int64"
        assert rf.ranks.tolist() == list(range(1, len(entries) + 1))
        assert type(rf.total) is int and rf.total == sum(entries.values())
        assert rf.rows == tuple(zip(rf.ranks.tolist(), rf.items, rf.counts.tolist()))

    @given(lexicon_strategy)
    def test_rank_list_is_a_permutation(self, entries):
        rf = rank_frequency(lex_of(entries))
        assert sorted(f for _, _, f in rf.rows) == sorted(entries.values())
        freqs = [f for _, _, f in rf.rows]
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))
        expected = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [(item, f) for _, item, f in rf.rows] == expected

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rank_frequency(lex_of({}))

    def test_accepts_lemma_lexicon(self):
        from textlaws import LemmaLexicon

        lemmas = LemmaLexicon({"кіт": 4, "пес": 2}, 2, unmapped_tokens=3)
        rf = rank_frequency(lemmas)
        assert rf.rows == ((1, "кіт", 4), (2, "пес", 2))
        assert rf.total == 6  # unmapped mass stays outside the ranked list


class TestCoverage:
    def test_two_entry_curve(self):
        curve = coverage_curve(rank_frequency(lex_of({"a": 3, "b": 1})))
        assert curve.tolist() == [0.75, 1.0]

    def test_uniform_counts(self):
        curve = coverage_curve(rank_frequency(lex_of({"a": 1, "b": 1, "c": 1, "d": 1})))
        assert curve.tolist() == [0.25, 0.5, 0.75, 1.0]

    def test_matches_prefix_sum_oracle(self):
        rng = random.Random(9)
        entries = {f"w{i}": rng.randint(1, 50) for i in range(30)}
        rf = rank_frequency(lex_of(entries))
        total = sum(entries.values())
        acc, expected = 0, []
        for _, _, f in rf.rows:
            acc += f
            expected.append(acc / total)
        assert coverage_curve(rf).tolist() == expected

    @given(st.dictionaries(
        st.text(alphabet="абвгд", min_size=1, max_size=6),
        st.integers(min_value=1, max_value=10**12),
        min_size=1,
        max_size=60,
    ))
    def test_matches_python_division(self, entries):
        # the cumulative counts stay below 2**53, where the doubles agree exactly
        rf = rank_frequency(lex_of(entries))
        acc, expected = 0, []
        for count in sorted(entries.values(), reverse=True):
            acc += count
            expected.append(acc / rf.total)
        assert coverage_curve(rf).tolist() == expected

    @given(lexicon_strategy)
    def test_curve_non_decreasing_and_ends_at_one(self, entries):
        values = coverage_curve(rank_frequency(lex_of(entries))).tolist()
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert abs(values[-1] - 1.0) <= 1e-9
        # discrete concavity: increments never grow
        steps = [b - a for a, b in zip([0.0] + values, values)]
        assert all(a >= b - 1e-12 for a, b in zip(steps, steps[1:]))


class TestTopK:
    def test_hand_percentages(self):
        rf = rank_frequency(lex_of({"a": 6, "b": 3, "c": 1}))
        assert top_k(rf, 3) == [(1, "a", 60.0), (2, "b", 30.0), (3, "c", 10.0)]

    def test_full_table_sums_at_most_hundred(self):
        rf = rank_frequency(lex_of({"a": 5, "b": 4, "c": 2}))
        table = top_k(rf, 3)
        assert sum(pct for _, _, pct in table) <= 100.0 + 1e-9

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_out_of_range_k_rejected(self, k):
        rf = rank_frequency(lex_of({"a": 5, "b": 4, "c": 2}))
        with pytest.raises(ValidationError):
            top_k(rf, k)
