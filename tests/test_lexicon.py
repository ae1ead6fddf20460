import math
import os
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from textlaws import (
    FormLexicon,
    LemmaMap,
    MergeRule,
    ResourceFormatError,
    ValidationError,
    apply_merge_rules,
    build_form_spectrum,
    lemmatize,
    lexicon,
    read_lemma_map,
    read_merge_rules,
    read_overrides,
    tokenize,
)
from textlaws.cli import main

forms_strategy = st.dictionaries(
    st.text(alphabet="абвгдежзиклмнопрст", min_size=1, max_size=6),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=30,
)


def lex_of(entries):
    return FormLexicon(dict(entries), sum(entries.values()))


class TestFormSpectrum:
    def test_tiny_stream(self):
        lex = build_form_spectrum(tokenize("a b a"))
        assert lex.entries == {"a": 2, "b": 1}
        assert lex.total_tokens == 3

    def test_empty_stream(self):
        lex = build_form_spectrum(tokenize(""))
        assert lex.entries == {}
        assert lex.total_tokens == 0

    def test_counts_match_independent_hash_count(self):
        # oracle: plain dict increment over the same folded sequence
        rng = random.Random(7)
        vocab = [f"слово{i}" for i in range(60)]
        stream = [rng.choice(vocab) for _ in range(1000)]
        tokens = tokenize(" ".join(stream))
        assert len(tokens) == 1000
        expected = {}
        for w in stream:
            expected[w] = expected.get(w, 0) + 1
        lex = build_form_spectrum(tokens)
        assert lex.entries == expected
        assert lex.total_tokens == 1000


class TestMergeRules:
    def test_euphonic_pair(self):
        lex = apply_merge_rules(lex_of({"в": 10, "у": 5}), [MergeRule("в", ("в", "у"))])
        assert lex.entries == {"в": 15}
        assert lex.total_tokens == 15

    def test_empty_rule_set_is_identity(self):
        original = lex_of({"а": 3, "б": 2})
        merged = apply_merge_rules(original, [])
        assert merged.entries == original.entries

    def test_three_way_rule_preserves_sum(self):
        # oracle: total mass check
        lex = lex_of({"a": 4, "b": 7, "c": 2, "d": 1})
        merged = apply_merge_rules(lex, [MergeRule("a", ("a", "b", "c"))])
        assert merged.entries == {"a": 13, "d": 1}
        assert sum(merged.entries.values()) == sum(lex.entries.values())

    def test_overlapping_rules_name_the_collision(self):
        rules = [MergeRule("a", ("a", "b")), MergeRule("c", ("b", "c"))]
        with pytest.raises(ValidationError, match="'b'"):
            apply_merge_rules(lex_of({"a": 1}), rules)

    def test_variant_repeated_in_one_rule_says_so(self):
        with pytest.raises(ValidationError, match="'b' appears twice in one merge rule"):
            apply_merge_rules(lex_of({"a": 1}), [MergeRule("a", ("b", "c", "b"))])

    def test_canonical_absent_from_lexicon(self):
        merged = apply_merge_rules(lex_of({"у": 5}), [MergeRule("в", ("у",))])
        assert merged.entries == {"в": 5}

    @given(forms_strategy)
    def test_mass_conserved_and_entries_never_grow(self, entries):
        lex = lex_of(entries)
        names = sorted(entries)
        rules = [MergeRule(names[0], tuple(names[: max(1, len(names) // 2)]))]
        merged = apply_merge_rules(lex, rules)
        assert sum(merged.entries.values()) == lex.total_tokens
        assert len(merged.entries) <= len(lex.entries)


class TestLemmatize:
    def test_override_pins_homonym_split(self):
        lex = lex_of({"що": 1956})
        result = lemmatize(
            lex,
            LemmaMap(),
            [("що", "що_спол", 1360), ("що", "що_займ", 495), ("що", "що_частка", 101)],
        )
        assert result.entries == {"що_спол": 1360, "що_займ": 495, "що_частка": 101}
        assert result.vocabulary_size == 3
        assert result.unmapped_tokens == 0

    def test_empty_map_everything_unmapped(self):
        result = lemmatize(lex_of({"а": 3, "б": 2}), LemmaMap())
        assert result.vocabulary_size == 0
        assert result.unmapped_tokens == 5
        assert result.unmapped_forms == 2

    def test_shares_split_with_largest_remainder(self):
        lemma_map = LemmaMap(ambiguous={"як": (("як_a", 0.7), ("як_b", 0.3))})
        result = lemmatize(lex_of({"як": 10}), lemma_map)
        assert result.entries == {"як_a": 7, "як_b": 3}

    def test_remainder_ties_go_by_lemma_order(self):
        # exact quotas 2/3, 8/3 and 2/3 leave three equal remainders of 2/3
        lemma_map = LemmaMap(ambiguous={"x": (("x", 0.5), ("y", 2.0), ("z", 0.5))})
        assert lemmatize(lex_of({"x": 4}), lemma_map).entries == {"x": 1, "y": 3}

    @settings(max_examples=500)
    @given(
        st.integers(min_value=0, max_value=300),
        st.lists(
            st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.0, 2.5, 1e-300, 1e300]),
            min_size=2, max_size=4,
        ).filter(lambda shares: any(shares)),
    )
    def test_split_matches_exact_fractions(self, count, shares):
        rows = tuple(zip("abcd", shares))
        weight_sum = sum(Fraction(w) for _, w in rows)
        quotas = [(lemma, Fraction(w) * count / weight_sum) for lemma, w in rows]
        parts = {lemma: math.floor(q) for lemma, q in quotas}
        by_remainder = sorted(quotas, key=lambda lq: (-(lq[1] - math.floor(lq[1])), lq[0]))
        for lemma, _ in by_remainder[:count - sum(parts.values())]:
            parts[lemma] += 1
        assert lexicon._largest_remainder(count, rows) == list(parts.items())

    def test_rounding_preserves_totals_for_all_counts(self):
        # oracle: enumerate counts 1..100, the parts must always resum
        lemma_map = LemmaMap(ambiguous={"x": (("x_a", 0.7), ("x_b", 0.3))})
        for count in range(1, 101):
            result = lemmatize(lex_of({"x": count}), lemma_map)
            assert sum(result.entries.values()) == count

    def test_absolute_count_shares(self):
        lemma_map = LemmaMap(ambiguous={"як": (("як_a", 389.0), ("як_b", 125.0), ("як_c", 55.0))})
        result = lemmatize(lex_of({"як": 569}), lemma_map)
        assert result.entries == {"як_a": 389, "як_b": 125, "як_c": 55}

    def test_large_shares_split_without_overflow(self):
        lemma_map = LemmaMap(ambiguous={"як": (("як_a", 1e308), ("як_b", 1.0))})
        assert lemmatize(lex_of({"як": 3}), lemma_map).entries == {"як_a": 3}

    @pytest.mark.parametrize("shares", [(0.0, 0.0), (1e308, 1e308), (float("nan"), 1.0)])
    def test_shares_without_a_positive_finite_sum_rejected(self, shares):
        lemma_map = LemmaMap(ambiguous={"як": (("як_a", shares[0]), ("як_b", shares[1]))})
        with pytest.raises(ValidationError, match="positive finite sum"):
            lemmatize(lex_of({"як": 3}), lemma_map)

    def test_override_above_count_rejected(self):
        with pytest.raises(ValidationError, match="above"):
            lemmatize(lex_of({"а": 2}), LemmaMap(), [("а", "а", 3)])

    def test_partial_override_remainder_is_unmapped(self):
        result = lemmatize(lex_of({"як": 10}), LemmaMap(), [("як", "як_спол", 6)])
        assert result.entries == {"як_спол": 6}
        assert result.unmapped_tokens == 4

    @given(forms_strategy)
    def test_mapped_plus_unmapped_equals_n(self, entries):
        lex = lex_of(entries)
        names = sorted(entries)
        rows = {form: f"лема_{form}" for form in names[::2]}
        result = lemmatize(lex, LemmaMap(rows=rows))
        assert sum(result.entries.values()) + result.unmapped_tokens == lex.total_tokens

    @given(forms_strategy)
    def test_vocabulary_never_exceeds_distinct_map_lemmas(self, entries):
        lex = lex_of(entries)
        names = sorted(entries)
        # map every other form onto a handful of shared lemmas
        rows = {form: f"лема_{i % 3}" for i, form in enumerate(names[::2])}
        result = lemmatize(lex, LemmaMap(rows=rows))
        assert result.vocabulary_size <= len(set(rows.values()))

    def test_deterministic_across_input_order(self):
        entries = {"а": 4, "б": 2, "в": 9}
        lemma_map = LemmaMap(rows={"а": "а", "б": "б", "в": "в"})
        one = lemmatize(lex_of(entries), lemma_map)
        other = lemmatize(lex_of(dict(reversed(entries.items()))), lemma_map)
        assert one.entries == other.entries


class TestResourceFiles:
    def test_merge_rules_round_trip(self, tmp_path):
        path = tmp_path / "merges.tsv"
        path.write_text("в\tв,у\nі\tі,й\n", encoding="utf-8")
        rules = read_merge_rules(path)
        assert rules == [MergeRule("в", ("в", "у")), MergeRule("і", ("і", "й"))]

    def test_merge_rules_bad_line_number(self, tmp_path):
        path = tmp_path / "merges.tsv"
        path.write_text("в\tв,у\nbroken line\n", encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            read_merge_rules(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("text, line_no, message", [
        pytest.param("в\tв,у\nі\tі,у\n", 2, "form 'у' appears in more than one merge rule",
                     id="two-rules"),
        pytest.param("в\tв,у\nі\tі,й,і\n", 2, "form 'і' appears twice in one merge rule",
                     id="one-rule"),
        pytest.param("в\tв,у\n# a comment\nі\tі,й\n\nї\tї,в\n", 5,
                     "form 'в' appears in more than one merge rule", id="later-line"),
    ])
    def test_merge_rules_repeated_form_names_its_line(self, tmp_path, text, line_no, message):
        path = tmp_path / "merges.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            read_merge_rules(path)
        assert str(err.value) == f"{path}:{line_no}: {message}"

    def test_merge_rules_are_validated_where_applied(self, tmp_path, monkeypatch):
        path = tmp_path / "merges.tsv"
        path.write_text("в\tв,у\n", encoding="utf-8")

        def refuse(rules):
            raise ValidationError("validated")

        monkeypatch.setattr(lexicon, "validate_merge_rules", refuse)
        rules = read_merge_rules(path)
        with pytest.raises(ValidationError, match="validated"):
            apply_merge_rules(lex_of({"у": 1}), rules)

    def test_lemma_map_shares_and_rows(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text(
            "стежки\tстежка\nщо\tщо_спол\t0.7\nщо\tщо_займ\t0.3\n", encoding="utf-8"
        )
        lemma_map = read_lemma_map(path)
        assert lemma_map.rows == {"стежки": "стежка"}
        assert lemma_map.ambiguous == {"що": (("що_спол", 0.7), ("що_займ", 0.3))}

    def test_lemma_map_keeps_one_string_per_lemma(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text(
            "стежки\tстежка\nстежку\tстежка \nщо\tстежка\t1\nщо\tщо_займ\t1\n",
            encoding="utf-8",
        )
        lemma_map = read_lemma_map(path)
        assert lemma_map.rows["стежки"] is lemma_map.rows["стежку"]
        assert lemma_map.ambiguous["що"][0][0] is lemma_map.rows["стежки"]

    @pytest.mark.parametrize("shift", [-1, 0, 1, 2])
    def test_malformed_row_near_a_block_cut_keeps_its_line_number(self, tmp_path, shift):
        # data_rows decodes and splits the bytes one block at a time: the
        # first cut is just after the first "\n" at or past the block size
        rows = [f"ф{k:06d}\tлема\n".encode() for k in range(10**4)]
        width = len(rows[0])
        rows_to_cut = -(-(lexicon._BLOCK_CHARS + 1) // width)
        bad = rows_to_cut + 1 + shift
        rows[bad - 1] = b"x" * (width - 1) + b"\n"
        data = b"".join(rows[:bad + 3])
        assert data.find(b"\n", lexicon._BLOCK_CHARS) == width * rows_to_cut - 1
        path = tmp_path / "lemmas.tsv"
        path.write_bytes(data)
        with pytest.raises(ResourceFormatError) as err:
            read_lemma_map(path)
        assert str(err.value) == f"{path}:{bad}: expected form<TAB>lemma[<TAB>share]"

    def test_crlf_map_cut_after_a_line_end_pair(self, tmp_path, monkeypatch):
        # every cut of a CRLF file falls just after a "\r\n": a block that
        # kept the "\r" and lost the "\n" would add a blank line there
        rows = [f"ф{k:02d}\tлема{k % 7}" for k in range(30)]
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes("\n".join(rows).encode())
        crlf.write_bytes("\r\n".join(rows).encode())
        monkeypatch.setattr(lexicon, "_BLOCK_CHARS", 3)
        assert read_lemma_map(crlf) == read_lemma_map(lf)
        crlf.write_bytes("\r\n".join([*rows, "broken", *rows]).encode())
        with pytest.raises(ResourceFormatError) as err:
            read_lemma_map(crlf)
        assert str(err.value) == f"{crlf}:31: expected form<TAB>lemma[<TAB>share]"

    @pytest.mark.parametrize("text", [
        "", "\n", "a\tb", "a\tb\n", "\n\na\tb\n\n", "# x\n" * 5 + "a\tb",
    ])
    def test_block_lines_match_one_split(self, monkeypatch, text):
        for block in (1, 2, 3, 1 << 16):
            monkeypatch.setattr(lexicon, "_BLOCK_CHARS", block)
            assert list(lexicon._lines("x.tsv", text.encode())) == text.split("\n")

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.one_of(
            st.just(""),
            st.text(alphabet=" \t", max_size=2),
            st.text(alphabet="#aї ", max_size=4).map(lambda t: "#" + t),
            st.lists(st.text(alphabet="aїé€ 𝄞\ufeff", max_size=3), min_size=1, max_size=3)
              .map("\t".join),
        ), max_size=12),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12, max_size=12),
        bom=st.booleans(),
        bad=st.one_of(st.none(), st.tuples(st.sampled_from([b"\xff", b"\x80", b"\xd1"]),
                                           st.floats(0, 1))),
    )
    def test_block_reader_matches_a_whole_file_decode(self, lines, ends, bom, bad):
        data = ("\ufeff" * bom + "".join(map(str.__add__, lines, ends))).encode()
        if bad:
            at = round(bad[1] * len(data))
            data = data[:at] + bad[0] + data[at:]
        path, shape = "r.tsv", "a[<TAB>b<TAB>c]"
        # the oracle: the whole file decoded by decode_utf8, then split at "\n"
        try:
            text = lexicon.decode_utf8(path, data)
        except ResourceFormatError as exc:
            expected = str(exc)
        else:
            expected = [(n, line.split("\t")) for n, line in enumerate(text.split("\n"), 1)
                        if line.lstrip()[:1] not in ("", "#")]
        for block in (1, 2, 3, 7, 64):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lexicon, "_BLOCK_CHARS", block)
                try:
                    got = list(lexicon.data_rows(path, shape, data))
                except ResourceFormatError as exc:
                    got = str(exc)
            assert got == expected, block

    def test_lemma_map_bad_share(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("що\tщо\tx\n", encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            read_lemma_map(path)
        assert err.value.line_no == 1

    @pytest.mark.parametrize("share", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_lemma_map_share_must_be_finite(self, tmp_path, share):
        path = tmp_path / "lemmas.tsv"
        path.write_text(f"що\tщо_спол\t0.7\nщо\tщо_займ\t{share}\n", encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            read_lemma_map(path)
        assert str(err.value) == f"{path}:2: bad share {share!r}"

    def test_lemma_map_shares_of_a_form_must_not_all_be_zero(self, tmp_path):
        # rejected whether or not the form occurs, at the form's last row
        path = tmp_path / "lemmas.tsv"
        path.write_text("що\tщо_спол\t0\nстежки\tстежка\t0\nщо\tщо_займ\t0\n",
                        encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            read_lemma_map(path)
        assert str(err.value) == f"{path}:3: shares of 'що' must have a positive finite sum"

    def test_decoder_drops_one_byte_order_mark_and_counts_it_in_offsets(self, tmp_path):
        bom = "\ufeff".encode("utf-8")
        assert lexicon.decode_utf8(tmp_path, bom + b"a\r\nb\rc") == "a\nb\nc"
        assert lexicon.decode_utf8(tmp_path, bom + bom + b"a") == "\ufeffa"
        with pytest.raises(ResourceFormatError) as err:
            lexicon.decode_utf8(tmp_path, bom + b"a\r\n\xff")
        assert str(err.value) == f"{tmp_path}:2: invalid UTF-8: invalid start byte at byte 6"

    # lines end as in text-mode open(): "\n", "\r\n" or a lone "\r", but not
    # "\x85", "\u2028" or "\x0c", so a comment runs on past those
    @pytest.mark.parametrize("text, expected", [
        pytest.param("# comment\nяк\tяк_спол\t17\n", [("як", "як_спол", 17)], id="lf"),
        pytest.param("# comment\r\nяк\tяк_спол\t17\r\n", [("як", "як_спол", 17)], id="crlf"),
        pytest.param("\n \n\t# indented\nяк\tяк_спол\t17\n\n", [("як", "як_спол", 17)],
                     id="blank-and-indented-comment"),
        pytest.param("# comment\rяк\tяк_спол\t17\r", [("як", "як_спол", 17)], id="lone-cr"),
        pytest.param("# comment\r\r\nяк\tяк_спол\t17\n", [("як", "як_спол", 17)], id="cr-crlf"),
        pytest.param("# comment\x85як\tяк_спол\t17\n", [], id="nel-in-comment"),
        pytest.param("# comment\u2028як\tяк_спол\t17\n", [], id="ls-in-comment"),
        pytest.param("як\x0c\tяк_спол\t17\n", [("як", "як_спол", 17)], id="ff-in-field"),
    ])
    def test_overrides_reader(self, tmp_path, text, expected):
        path = tmp_path / "overrides.tsv"
        path.write_bytes(text.encode("utf-8"))
        assert read_overrides(path) == expected
        # a bad line after the text is numbered as text-mode open() counts lines
        path.write_bytes((text + "bad\n").encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            line_count = sum(1 for _ in fh)
        with pytest.raises(ResourceFormatError) as err:
            read_overrides(path)
        assert err.value.line_no == line_count

    @pytest.mark.parametrize("data, message", [
        pytest.param(b"bad\n\xff\n", "1: expected form<TAB>lemma<TAB>count", id="row-first"),
        pytest.param(b"\xff\nbad\n", "1: invalid UTF-8: invalid start byte at byte 0",
                     id="byte-first"),
    ])
    def test_a_fault_in_an_earlier_block_is_reported_first(self, tmp_path, monkeypatch,
                                                           data, message):
        monkeypatch.setattr(lexicon, "_BLOCK_CHARS", 1)
        path = tmp_path / "overrides.tsv"
        path.write_bytes(data)
        with pytest.raises(ResourceFormatError) as err:
            read_overrides(path)
        assert str(err.value) == f"{path}:{message}"

    def test_overrides_bad_count(self, tmp_path):
        path = tmp_path / "overrides.tsv"
        path.write_text("як\tяк_спол\tbad\n", encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            read_overrides(path)
        assert err.value.line_no == 1


@pytest.fixture
def parses(monkeypatch):
    """Paths the lemma-map parser is run on, starting from an empty memo."""
    calls = []
    parse = lexicon._parse_lemma_map

    def counted(path, *args):
        calls.append(path)
        return parse(path, *args)

    monkeypatch.setattr(lexicon, "_last_lemma_map", None)
    monkeypatch.setattr(lexicon, "_parse_lemma_map", counted)
    return calls


class TestLemmaMapReuse:
    MAP = "стежки\tстежка\nщо\tщо_спол\t0.7\nщо\tщо_займ\t0.3\n"

    def write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    def test_same_bytes_at_two_paths_parse_once(self, tmp_path, parses):
        first = read_lemma_map(self.write(tmp_path / "a.tsv", self.MAP))
        assert read_lemma_map(self.write(tmp_path / "b.tsv", self.MAP)) is first
        # another lexicon's forms do not make the same bytes parse again
        forms = build_form_spectrum(tokenize("що стежки")).entries
        assert read_lemma_map(tmp_path / "b.tsv", forms) is first
        assert parses == [tmp_path / "a.tsv"]

    def test_map_holds_the_lexicons_strings(self, tmp_path, parses, monkeypatch):
        path = self.write(tmp_path / "lemmas.tsv", self.MAP + "стежку\tстежка\nщо_спол\tщо\n")
        plain = read_lemma_map(path)
        monkeypatch.setattr(lexicon, "_last_lemma_map", None)
        forms = build_form_spectrum(tokenize("Стежки що стежку стежка нема")).entries
        shared = read_lemma_map(path, forms)
        assert len(parses) == 2
        assert shared == plain
        assert (shared.rows, shared.ambiguous) == (plain.rows, plain.ambiguous)
        held = {id(s) for s in (*shared.rows, *shared.rows.values(), *shared.ambiguous)}
        held |= {id(lemma) for split in shared.ambiguous.values() for lemma, _ in split}
        # each lexicon form the map names, as a form or as a lemma, is the lexicon's object
        assert [form for form in forms if id(form) in held] == ["стежки", "що", "стежку", "стежка"]

    def test_rewritten_file_is_parsed_again(self, tmp_path, parses):
        path = self.write(tmp_path / "lemmas.tsv", self.MAP)
        read_lemma_map(path)
        self.write(path, "стежки\tстежина\n")
        assert read_lemma_map(path) == LemmaMap(rows={"стежки": "стежина"})
        assert len(parses) == 2

    # the map spans 16-byte rows and 64-byte blocks; each edit keeps it well formed
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda data: data[:3] + b"x" + data[4:], id="byte-in-first-block"),
        pytest.param(lambda data: data[:-2] + b"x" + data[-1:], id="byte-in-last-block"),
        pytest.param(lambda data: data + b"\n", id="byte-appended"),
        pytest.param(lambda data: data[:-1], id="byte-cut"),
        pytest.param(lambda data: b"", id="emptied"),
    ])
    def test_changed_bytes_are_parsed_again(self, tmp_path, parses, monkeypatch, edit):
        monkeypatch.setattr(lexicon, "_BLOCK_CHARS", 64)
        text = "".join(f"ф{k:02d}\tлема{k:02d}\n" for k in range(40))
        path = self.write(tmp_path / "lemmas.tsv", text)
        first = read_lemma_map(path)
        assert read_lemma_map(path) is first
        path.write_bytes(edit(text.encode()))
        again = read_lemma_map(path)
        assert again is not first
        assert parses == [path, path]
        monkeypatch.setattr(lexicon, "_last_lemma_map", None)
        assert read_lemma_map(path) == again

    def test_malformed_map_reports_the_same_line_every_call(self, tmp_path, parses):
        path = self.write(tmp_path / "lemmas.tsv", "стежки\tстежка\nbroken\n")
        messages = []
        for _ in range(2):
            with pytest.raises(ResourceFormatError) as err:
                read_lemma_map(path)
            messages.append(str(err.value))
        assert messages == [f"{path}:2: expected form<TAB>lemma[<TAB>share]"] * 2
        assert len(parses) == 2

    def test_shared_map_is_read_only(self, tmp_path):
        lemma_map = read_lemma_map(self.write(tmp_path / "lemmas.tsv", self.MAP))
        with pytest.raises(TypeError):
            lemma_map.rows["нове"] = "нове"
        with pytest.raises(TypeError):
            lemma_map.ambiguous["що"] = (("що", 1.0),)
        with pytest.raises(FrozenInstanceError):
            lemma_map.rows = {}

    def test_two_chapters_in_one_process_parse_once(self, fixtures_dir, tmp_path, parses,
                                                     monkeypatch):
        words = (fixtures_dir / "corpus.txt").read_text(encoding="utf-8").split(" ")
        half = len(words) // 2
        configs = []
        for k, chapter in enumerate((words[:half], words[half:])):
            self.write(tmp_path / f"ch{k}.txt", " ".join(chapter))
            configs.append(self.write(
                tmp_path / f"ch{k}.ini",
                f"[paths]\ntext = ch{k}.txt\nlemma_map = {fixtures_dir / 'lemmas.tsv'}\n",
            ))
        for k, ini in enumerate(configs):
            assert main(["--config", str(ini), "--out", str(tmp_path / f"out{k}")]) == 0
        assert len(parses) == 1
        # the reused map gives the bundle a fresh parse gives
        monkeypatch.setattr(lexicon, "_last_lemma_map", None)
        assert main(["--config", str(configs[1]), "--out", str(tmp_path / "fresh")]) == 0
        assert len(parses) == 2
        for reused in sorted((tmp_path / "out1").iterdir()):
            assert reused.read_bytes() == (tmp_path / "fresh" / reused.name).read_bytes()

    def test_runs_load_no_hashlib(self, fixtures_dir, tmp_path):
        # hashlib loads OpenSSL (about 3.5 MB); the memo compares bytes instead
        code = (
            "import sys\n"
            "from textlaws.cli import main\n"
            "for out in sys.argv[2:]:\n"
            "    assert main(['--config', sys.argv[1], '--out', out]) == 0\n"
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(lexicon.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(fixtures_dir / "run.ini"),
             str(tmp_path / "miss"), str(tmp_path / "hit")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
