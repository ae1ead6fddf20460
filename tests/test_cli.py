import contextlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import textlaws
from textlaws import (
    ResourceFormatError,
    TokenizerConfig,
    ValidationError,
    cli,
    config,
    distributions,
    pipeline,
    reports,
    split_sentences,
)
from textlaws.cli import main
from textlaws.config import DEFAULT_UK_VOWELS, load_run_config
from textlaws.fitting import MODELS, model_eval
from textlaws.reports import emit_plot_data
from length_counters import count_phonemes, count_syllables

BUNDLE = [
    "profile.tsv", "profile.json",
    "lengths_letters.dat", "lengths_phonemes.dat", "lengths_syllables.dat",
    "rank_freq.dat", "coverage.dat", "mean_syllable.dat",
    "fits.tsv", "fits.json", "topk.tsv",
]


@pytest.fixture
def fixture_config(fixtures_dir):
    return fixtures_dir / "run.ini"


def config_with_models(fixture_config, tmp_path, models):
    """A copy of the fixture run in ``tmp_path`` whose ``[fits] models`` are ``models``."""
    for name in ("corpus.txt", "lemmas.tsv", "merges.tsv", "overrides.tsv"):
        shutil.copy(fixture_config.parent / name, tmp_path)
    ini = tmp_path / "run.ini"
    text = fixture_config.read_text(encoding="utf-8")
    ini.write_text(re.sub(r"(?m)^models = .*$", "models = " + ",".join(models), text),
                   encoding="utf-8")
    return ini


class TestEmitPlotData:
    def test_bit_exact_format(self, tmp_path):
        path = tmp_path / "series.dat"
        emit_plot_data([(1, 0.5), (2, 0.5)], path)
        assert path.read_bytes() == b"1 0.5\n2 0.5\n"

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "series.dat"
        emit_plot_data([(3, 0.12345678)], path)
        assert path.read_text() == "3 0.123457\n"

    @given(st.lists(st.tuples(*[st.one_of(
        st.integers(-10**12, 10**12),
        st.floats(),
        st.floats(-1e-300, 1e-300),
        st.integers(-2**63, 2**63 - 1).map(lambda v: np.array([v], dtype=np.int64).tolist()[0]),
    )] * 2), min_size=1, max_size=20))
    def test_template_matches_per_value_format(self, series):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.dat"
            emit_plot_data(series, path)
            expected = "".join(f"{x:.6g} {y:.6g}\n" for x, y in series)
            assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("extra", [-1, 0, 1, 4097])
    def test_series_over_several_slices_matches_per_value_format(self, tmp_path, extra):
        rng = np.random.default_rng(extra + 2)
        n = 2 * reports._PLOT_ROWS + extra
        ranks = np.arange(1, n + 1, dtype=np.int64)
        values = rng.lognormal(0.0, 4.0, n)
        path = tmp_path / "series.dat"
        emit_plot_data(np.column_stack((ranks, values)), path)
        expected = "".join(f"{x:.6g} {y:.6g}\n" for x, y in zip(ranks.tolist(), values.tolist()))
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("column", [
        pytest.param([0.0, 1.0, 2.0], id="zero"),
        pytest.param([999999.0, 3.0], id="999999"),
        pytest.param([1e6, 3.0], id="1e6"),
        pytest.param([-0.0, 3.0], id="negative-zero"),
        pytest.param([-3.0, 3.0], id="negative"),
        pytest.param([1.0, 2.5, 3.0], id="one-non-integral"),
        pytest.param([1.0, float("nan")], id="nan"),
        pytest.param([1.0, float("inf")], id="inf"),
    ])
    def test_integral_columns_match_the_six_digit_template(self, tmp_path, column):
        # an integral column in [0, 1e6) is written with %d, every other with %.6g
        path = tmp_path / "series.dat"
        series = np.column_stack((column, column[::-1]))
        emit_plot_data(series, path)
        expected = ("%.6g %.6g\n" * len(series)) % tuple(series.ravel().tolist())
        assert path.read_text(encoding="utf-8") == expected

    @given(st.lists(st.one_of(
        st.integers(0, 10**6 + 2).map(float),
        st.floats(-1e7, 1e7),
        st.sampled_from([-0.0, 0.0, 999999.0, 1e6, 0.5]),
    ), min_size=1, max_size=30), st.booleans())
    def test_random_columns_match_the_six_digit_template(self, column, integral_first):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.dat"
            ranks = np.arange(1, len(column) + 1, dtype=float)
            pair = (ranks, column) if integral_first else (column, ranks)
            series = np.column_stack(pair)
            emit_plot_data(series, path)
            expected = ("%.6g %.6g\n" * len(series)) % tuple(series.ravel().tolist())
            assert path.read_text(encoding="utf-8") == expected

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_plot_data([], tmp_path / "nothing.dat")


class TestConfig:
    def test_fixture_config_loads(self, fixture_config):
        cfg = load_run_config(fixture_config)
        assert cfg.text_path.name == "corpus.txt"
        assert cfg.threshold == 10
        assert cfg.zipf_breakpoints == ((1, 30), (30, 100), (100, None))

    def test_relative_paths_resolve_against_config_dir(self, fixture_config):
        cfg = load_run_config(fixture_config)
        assert cfg.text_path.parent == fixture_config.parent

    def test_missing_text_key(self, tmp_path, capsys):
        bad = tmp_path / "run.ini"
        bad.write_text("[analysis]\nthreshold = 5\n", encoding="utf-8")
        assert main(["--config", str(bad)]) == 2

    def test_config_that_is_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path)]) == 2
        assert "config file not found" in capsys.readouterr().err

    def test_unknown_model_rejected(self, tmp_path):
        bad = tmp_path / "run.ini"
        bad.write_text("[paths]\ntext = x.txt\n[fits]\nmodels = Nope\n", encoding="utf-8")
        with pytest.raises(Exception) as err:
            load_run_config(bad)
        assert "Nope" in str(err.value)

    @pytest.mark.parametrize("body, line_no", [
        pytest.param("[analysis]\ntop_k: zero\n", 4, id="colon-delimiter"),
        # a key known in [analysis] is unknown in [tokenizer]: the error names its own line
        pytest.param(
            "[analysis]\nthreshold = 5\n[tokenizer]\nthreshold = 3\n", 6, id="same-key-other-section"
        ),
        # interval models are fitted in closed form, so a start value would do nothing
        pytest.param("[fits]\ninit_ZipfPower = A=1,z=99\n", 4, id="init-ZipfPower"),
        pytest.param("[fits]\ninit_LogCoverage = k=5,T0=7\n", 4, id="init-LogCoverage"),
        # no vowel would leave every form without a syllable
        pytest.param("[analysis]\nvowels =\n", 4, id="empty-vowels"),
        pytest.param("[analysis]\ntop_k = 3\nvowels =   \n", 5, id="blank-vowels"),
        # only configparser's boolean words: a typo must not read as false
        pytest.param("[tokenizer]\ncase_folding = ture\n", 4, id="case-folding-typo"),
        pytest.param("[tokenizer]\nabbreviations = т\ncase_folding =\n", 5,
                     id="case-folding-blank"),
        pytest.param("[tokenizer]\nintra_token_chars = - '\n", 4, id="whitespace-intra-chars"),
        # a token could hold its own terminator
        pytest.param("[tokenizer]\nsentence_terminators = .1\n", 4, id="word-char-terminators"),
        # a start value the fit never reads would be ignored without a word
        pytest.param("[fits]\ninit_ZipfMandelbrot = A=20,b=1.1,C=4,Q=7\n", 4,
                     id="init-unknown-parameter"),
        pytest.param("[fits]\nmodels = ZipfMandelbrot\ninit_ZipfMandelbrot = A=20,b=1,A=30\n",
                     5, id="init-repeated-parameter"),
        pytest.param("[fits]\nzipf_breakpoints = 1:30,100:30\n", 4, id="empty-interval"),
        # only end leaves an interval open
        pytest.param("[fits]\nzipf_breakpoints = 10:200,1000:*\n", 4, id="star-bound"),
        pytest.param("[fits]\nmodels = ZipfMandelbrot\ncoverage_breakpoints = 2000:v\n", 5,
                     id="v-bound"),
        # a fit needs every start value, and a finite one
        pytest.param("[fits]\ninit_ZipfMandelbrot = A=20000\n", 4, id="init-partial"),
        pytest.param("[fits]\ninit_ZipfMandelbrot =\n", 4, id="init-empty"),
        pytest.param("[fits]\ninit_ZipfMandelbrot = A=20000,b=inf,C=4\n", 4, id="init-inf"),
        pytest.param("[fits]\ninit_ZipfMandelbrot = A=nan,b=1.1,C=4\n", 4, id="init-nan"),
        pytest.param("[fits]\ninit_ZipfMandelbrot = A=1e400,b=1.1,C=4\n", 4,
                     id="init-overflow"),
        # start values outside the model domain whatever the data: ranks start at 1
        pytest.param("[fits]\ninit_ZipfMandelbrot = A=20000,b=1.1,C=-1\n", 4,
                     id="init-ZipfMandelbrot-domain"),
        pytest.param("[fits]\ninit_ShiftedMenzerath = d=-3,gamma=1\n", 4,
                     id="init-ShiftedMenzerath-shape"),
        pytest.param("[fits]\ninit_PhonemeGamma = b=1,alpha=0\n", 4, id="init-PhonemeGamma-rate"),
        # MeanSyllableExp is not among the default models, so no fit would read this
        pytest.param("[fits]\ninit_MeanSyllableExp = A=1,b=1,c=1\n", 4, id="init-unlisted-model"),
    ])
    def test_bad_value_reports_its_line(self, tmp_path, body, line_no):
        bad = tmp_path / "run.ini"
        bad.write_text("[paths]\ntext = x.txt\n" + body, encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            load_run_config(bad)
        assert str(err.value).startswith(f"{bad}:{line_no}: ")

    @pytest.mark.parametrize("model_id", ["ZipfPower", "LogCoverage"])
    def test_interval_fit_start_values_exit_3(self, tmp_path, capsys, model_id):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[paths]\ntext = x.txt\n[fits]\ninit_{model_id} = A=1\n",
                       encoding="utf-8")
        assert main(["--config", str(ini)]) == 3
        message = f"{ini}:4: {model_id} is fitted per interval and takes no start values"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("body, line_no, message", [
        pytest.param("[analysis]\ntreshold = 0\n", 4, "unknown key 'treshold' in [analysis]",
                     id="misspelt-key"),
        pytest.param("[fits]\nmodel = ZipfMandelbrot\n", 4, "unknown key 'model' in [fits]",
                     id="fits-key"),
        pytest.param("[analysis]\ntop_k = 3\n[plots]\n", 5, "unknown section [plots]",
                     id="unknown-section"),
        pytest.param("[DEFAULT]\nthreshold = 3\n", 3, "unknown section [DEFAULT]",
                     id="defaults-section"),
    ])
    def test_unknown_section_or_key_names_its_line(self, tmp_path, body, line_no, message):
        bad = tmp_path / "run.ini"
        bad.write_text("[paths]\ntext = x.txt\n" + body, encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            load_run_config(bad)
        assert str(err.value) == f"{bad}:{line_no}: {message}"

    def test_misspelt_key_exits_3_before_the_run(self, fixtures_dir, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(pipeline, "run_analysis", lambda cfg: pytest.fail("the run started"))
        ini = tmp_path / "run.ini"
        ini.write_text(f"[paths]\ntext = {fixtures_dir / 'corpus.txt'}\n"
                       "[analysis]\ntreshold = 0\n", encoding="utf-8")
        assert main(["--config", str(ini)]) == 3
        assert f"{ini}:4: unknown key 'treshold'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line_no", [
        pytest.param("text = x.txt\n", 1, id="missing-header"),
        pytest.param("[paths]\ntext = x.txt\ntext = y.txt\n", 3, id="duplicate-key"),
        pytest.param("[paths]\ntext = x.txt\n[paths]\n", 3, id="duplicate-section"),
    ])
    def test_unparsable_config_reports_its_line(self, tmp_path, text, line_no):
        bad = tmp_path / "run.ini"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ResourceFormatError) as err:
            load_run_config(bad)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_non_utf8_config_names_its_line_and_byte(self, tmp_path, capsys, newline):
        head = newline.join(["[paths]", "text = x.txt", "[analysis]", "vowels = "]).encode()
        ini = tmp_path / "run.ini"
        ini.write_bytes(head + b"\xff" + newline.encode())
        assert main(["--config", str(ini)]) == 3
        assert capsys.readouterr().err == (
            f"analyze: {ini}:4: invalid UTF-8: invalid start byte at byte {len(head)}\n"
        )

    def test_config_with_a_byte_order_mark_loads(self, fixture_config, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_bytes("\ufeff".encode("utf-8") + fixture_config.read_bytes())

        def settings(ini):
            # paths resolve against each config's own directory
            cfg = load_run_config(ini)
            return {f.name: v.relative_to(ini.parent) if isinstance(v := getattr(cfg, f.name), Path)
                    else v for f in fields(cfg)}

        assert settings(ini) == settings(fixture_config)

    def test_tokenizer_keys_are_the_tokenizer_config_fields(self):
        assert set(config.KEYS["tokenizer"]) == {f.name for f in fields(TokenizerConfig)}

    @pytest.mark.parametrize("source", ["readme", "docstring"])
    def test_documented_schema_loads(self, tmp_path, source):
        if source == "readme":
            readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
            schema = re.search(r"Full schema.*?```ini\n(.*?)```", readme, re.S).group(1)
        else:
            block = config.__doc__.split("::\n", 1)[1]
            schema = "\n".join(line[4:] for line in block.splitlines())
        ini = tmp_path / "run.ini"
        ini.write_text(schema, encoding="utf-8")
        cfg = load_run_config(ini)
        assert cfg.vowels == DEFAULT_UK_VOWELS
        assert cfg.threshold == 10
        assert cfg.text_path == tmp_path / "corpus.txt"
        assert "#" not in "".join(cfg.tokenizer.abbreviations)

    def test_upper_case_vowels_load_casefolded(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[paths]\ntext = x.txt\n[analysis]\nvowels = АЕИІОУЯЮЄЇ\n",
                       encoding="utf-8")
        assert load_run_config(ini).vowels == DEFAULT_UK_VOWELS

    def test_abbreviations_match_without_case_folding(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[paths]\ntext = x.txt\n[tokenizer]\ncase_folding = false\nabbreviations = Т\n",
            encoding="utf-8",
        )
        tok = load_run_config(ini).tokenizer
        assert len(split_sentences("Жив у Т. Шевченка. Він знав це.", tok)) == 2


class TestPipeline:
    def test_full_bundle(self, fixture_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(fixture_config), "--out", str(out)]) == 0
        for name in BUNDLE:
            assert (out / name).exists(), name
        # one coverage point per ranked vocabulary item
        vocab_size = int(
            dict(
                line.split("\t")
                for line in (out / "profile.tsv").read_text().splitlines()
            )["V"]
        )
        assert len((out / "coverage.dat").read_text().splitlines()) == vocab_size
        assert len((out / "rank_freq.dat").read_text().splitlines()) == vocab_size

    def test_all_seven_models_fit_in_config_order(self, fixture_config, tmp_path):
        # the five least-squares models and the two per-interval fits, shuffled
        models = ["LogCoverage", "MeanSyllableExp", "ZipfMandelbrot", "PhonemeGamma",
                  "ZipfPower", "MeanSyllablePower", "ShiftedMenzerath"]
        ini = config_with_models(fixture_config, tmp_path, models)
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out)]) == 0
        fits = json.loads((out / "fits.json").read_text(encoding="utf-8"))
        assert list(fits) == models
        assert [m for m in models if "segments" in fits[m]] == ["LogCoverage", "ZipfPower"]
        assert [m for m in models if "params" in fits[m]] == [m for m in models if m in MODELS]
        curves = sorted(path.name for path in out.glob("fitcurve_*.dat"))
        assert curves == sorted(f"fitcurve_{m}.dat" for m in MODELS)

    def test_fit_curves_sampled_by_one_array_call(self, fixture_config, tmp_path, monkeypatch):
        calls = []

        def recording_eval(model_id, params, x):
            y = model_eval(model_id, params, x)
            calls.append((model_id, params, x, y))
            return y

        monkeypatch.setattr(pipeline, "model_eval", recording_eval)
        out = tmp_path / "out"
        assert main(["--config", str(fixture_config), "--out", str(out)]) == 0
        curves = sorted(path.name for path in out.glob("fitcurve_*.dat"))
        assert curves == sorted(f"fitcurve_{model_id}.dat" for model_id, *_ in calls)
        for model_id, params, x, y in calls:
            per_point = [(v, model_eval(model_id, params, v)) for v in x.tolist()]
            assert y.tolist() == [value for _, value in per_point]
            expected = tmp_path / f"{model_id}.dat"
            emit_plot_data(per_point, expected)
            assert (out / f"fitcurve_{model_id}.dat").read_bytes() == expected.read_bytes()

    def test_basis_override_changes_length_weighting(self, fixture_config, tmp_path):
        types_out, tokens_out = tmp_path / "types", tmp_path / "tokens"
        assert main(["--config", str(fixture_config), "--out", str(types_out)]) == 0
        assert main(
            ["--config", str(fixture_config), "--out", str(tokens_out), "--basis", "tokens"]
        ) == 0
        assert (
            (types_out / "lengths_letters.dat").read_bytes()
            != (tokens_out / "lengths_letters.dat").read_bytes()
        )

    def test_each_form_length_counted_once(self, fixture_config, tmp_path, monkeypatch):
        calls = []

        def recording(lex, g2p, vowels, lengths=distributions.form_lengths):
            table = lengths(lex, g2p, vowels)
            calls.append((lex, g2p, vowels, table))
            return table

        monkeypatch.setattr(distributions, "form_lengths", recording)
        out = tmp_path / "out"
        assert main(["--config", str(fixture_config), "--out", str(out)]) == 0
        assert len(calls) == 1
        lex, g2p, vowels, table = calls[0]
        assert len(lex.entries) == json.loads((out / "profile.json").read_text())["F"]
        assert table == {
            "letters": [distributions.count_letters(form) for form in lex.entries],
            "phonemes": [count_phonemes(form, g2p) for form in lex.entries],
            "syllables": [count_syllables(form, vowels) for form in lex.entries],
        }

    def test_minimal_config_degraded_mode(self, fixtures_dir, tmp_path):
        cfg = tmp_path / "minimal.ini"
        cfg.write_text(
            f"[paths]\ntext = {fixtures_dir / 'corpus.txt'}\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        profile = dict(
            line.split("\t") for line in (out / "profile.tsv").read_text().splitlines()
        )
        assert profile["N"] == "1000"
        assert profile["V"] == "NA"
        assert profile["variety"] == "NA"
        assert profile["F"] != "NA"
        # rank outputs fall back to word-forms
        assert (out / "rank_freq.dat").exists()

    def test_only_selects_stages(self, fixture_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(fixture_config), "--out", str(out), "--only", "profile"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["profile.json", "profile.tsv"]

    def test_single_model_selection(self, fixtures_dir, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[paths]\n"
            f"text = {fixtures_dir / 'corpus.txt'}\n"
            "[fits]\n"
            "models = ZipfMandelbrot\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "fits.json").read_text())
        assert list(report) == ["ZipfMandelbrot"]

    def test_partial_init_exits_3_before_the_run(self, fixtures_dir, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[paths]\n"
            f"text = {fixtures_dir / 'corpus.txt'}\n"
            "[fits]\n"
            "models = ZipfMandelbrot\n"
            "init_ZipfMandelbrot = A=1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 3
        message = f"{cfg}:5: ZipfMandelbrot: missing parameters ['b', 'C']\n"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_text_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[paths]\ntext = ghost.txt\n", encoding="utf-8")
        assert main(["--config", str(cfg)]) == 2
        assert "ghost.txt" in capsys.readouterr().err

    def test_malformed_resource_exits_3_with_line(self, fixtures_dir, tmp_path, capsys):
        broken = tmp_path / "lemmas.tsv"
        broken.write_text("добре\tдобрий\nbroken-line-without-tab\n", encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[paths]\n"
            f"text = {fixtures_dir / 'corpus.txt'}\n"
            f"lemma_map = {broken}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert ":2:" in err
        assert "lexicon" in err

    def test_unknown_stage_exits_2(self, fixture_config, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(fixture_config), "--only", "nope"])
        assert exc.value.code == 2
        assert "unknown stage(s): nope" in capsys.readouterr().err

    def test_empty_stage_list_is_a_usage_error(self, fixture_config, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(fixture_config), "--out", str(out), "--only", ","])
        assert exc.value.code == 2
        assert "no stage named" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_threshold_flag_is_a_usage_error(self, fixture_config, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(pipeline, "run_analysis", lambda cfg: pytest.fail("the run started"))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(fixture_config), "--out", str(out), "--threshold", "0"])
        assert exc.value.code == 2
        assert "threshold must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_basis_flag_prints_the_ini_message(self, fixture_config, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(fixture_config), "--basis", "lemmas"])
        assert exc.value.code == 2
        assert ("argument --basis: basis must be one of ['tokens', 'types'], got 'lemmas'"
                in capsys.readouterr().err)

    def test_unselected_lengths_stage_does_not_run(self, fixtures_dir, tmp_path):
        g2p = tmp_path / "bad.tsv"
        g2p.write_text("no-tab-here\n", encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[paths]\ntext = {fixtures_dir / 'corpus.txt'}\ng2p_rules = {g2p}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--only", "profile"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["profile.json", "profile.tsv"]

    def test_rerun_with_a_failing_fit_leaves_no_earlier_curve(self, fixture_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(fixture_config), "--out", str(out)]) == 0
        earlier = ("fitcurve_MeanSyllablePower.dat", "mean_syllable.dat")
        assert all((out / name).is_file() for name in earlier)
        # no form has a vowel: no mean-syllable series, so its fit has no points
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("бв гдж кл мн бв. " * 20 + "пр ст бв кл.", encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[paths]\ntext = {corpus}\n[fits]\nmodels = MeanSyllablePower,ZipfMandelbrot\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        fits = json.loads((out / "fits.json").read_text(encoding="utf-8"))
        assert "error" in fits["MeanSyllablePower"]
        assert "params" in fits["ZipfMandelbrot"]
        assert not any((out / name).exists() for name in earlier)
        assert (out / "fitcurve_ZipfMandelbrot.dat").is_file()

    def test_short_interval_keeps_the_others_in_the_report(self, fixture_config, tmp_path):
        # the fixture ranks fewer than 1,000 lemmas, so (1000, 2000] is empty
        ini = config_with_models(fixture_config, tmp_path, ["LogCoverage"])
        ini.write_text(re.sub(r"(?m)^coverage_breakpoints = .*$",
                              "coverage_breakpoints = 1:30,1000:2000",
                              ini.read_text(encoding="utf-8")), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out)]) == 0
        report = json.loads((out / "fits.json").read_text(encoding="utf-8"))
        fitted, short = report["LogCoverage"]["segments"]
        assert (fitted["lo"], fitted["hi"], fitted["n_points"]) == (1, 30, 29)
        assert "k" in fitted and "error" not in fitted
        error = "rank interval (1000, 2000] holds 0 points; need >= 3"
        assert short == {"lo": 1000, "hi": 2000, "n_points": 0, "error": error}
        rows = (out / "fits.tsv").read_text(encoding="utf-8").splitlines()
        assert rows[-2:] == ["LogCoverage\t1000:2000\tn_points\t0",
                             f"LogCoverage\t1000:2000\terror\t{error}"]

    def test_rerun_with_fewer_models_leaves_no_earlier_curve(self, fixture_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(fixture_config), "--out", str(out)]) == 0
        assert len(list(out.glob("fitcurve_*.dat"))) == 4
        ini = config_with_models(fixture_config, tmp_path, ["ZipfMandelbrot"])
        assert main(["--config", str(ini), "--out", str(out)]) == 0
        fits = json.loads((out / "fits.json").read_text(encoding="utf-8"))
        assert list(fits) == ["ZipfMandelbrot"]
        curves = [path.name for path in out.glob("fitcurve_*.dat")]
        assert curves == ["fitcurve_ZipfMandelbrot.dat"]

    def test_unselected_ranks_stage_does_not_run(self, fixtures_dir, tmp_path):
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_text("жодна-форма\tлема\n", encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[paths]\ntext = {fixtures_dir / 'corpus.txt'}\nlemma_map = {lemmas}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--only", "lengths"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "lengths_letters.dat", "lengths_phonemes.dat", "lengths_syllables.dat",
            "mean_syllable.dat",
        ]

    def test_empty_corpus_fails_with_stage_name(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[paths]\ntext = {empty}\n", encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"analyze: stage ingest: {empty}: no word tokens\n"

    @pytest.mark.parametrize("only", ["profile", "ranks", "lengths"])
    @pytest.mark.parametrize("overrides", [True, False], ids=["overrides", "no-overrides"])
    @pytest.mark.parametrize("text", ["", "— ... !!! «» ² ½"], ids=["empty", "punctuation"])
    def test_text_without_tokens_fails_in_ingest(self, fixtures_dir, tmp_path, capsys,
                                                 text, overrides, only):
        for name in ("lemmas.tsv", "merges.tsv", "overrides.tsv"):
            shutil.copy(fixtures_dir / name, tmp_path)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text, encoding="utf-8")
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[paths]\ntext = corpus.txt\nlemma_map = lemmas.tsv\nmerge_rules = merges.tsv\n"
            + ("overrides = overrides.tsv\n" if overrides else ""),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--config", str(ini), "--out", str(out), "--only", only]) == 1
        assert capsys.readouterr().err == f"analyze: stage ingest: {corpus}: no word tokens\n"
        assert not out.exists()

    def test_invalid_utf8_names_byte_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("добре ".encode("utf-8") + b"\xff\xfe word")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[paths]\ntext = {bad}\n", encoding="utf-8")
        assert main(["--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "ingest" in err
        assert f"{bad}:1: invalid UTF-8: invalid start byte at byte 11" in err

    def test_invalid_utf8_in_resource_names_absolute_byte_offset(self, fixtures_dir, tmp_path,
                                                                 capsys):
        rows = "".join(f"форма{i}\tлема{i}\n" for i in range(8000)).encode("utf-8")
        offset = 70_000  # past the first 64 KB
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_bytes(rows[:offset] + b"\xff" + rows[offset:])
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[paths]\ntext = {fixtures_dir / 'corpus.txt'}\nlemma_map = {lemmas}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "stage lexicon" in err
        line_no = rows[:offset].count(b"\n") + 1
        assert f"{lemmas}:{line_no}: invalid UTF-8: invalid start byte at byte {offset}" in err

    def test_lemma_map_with_a_byte_order_mark_gives_the_same_profile(self, fixtures_dir,
                                                                      tmp_path):
        profiles = []
        for mark in (b"", "\ufeff".encode("utf-8")):
            lemmas = tmp_path / f"lemmas{len(mark)}.tsv"
            lemmas.write_bytes(mark + (fixtures_dir / "lemmas.tsv").read_bytes())
            cfg = tmp_path / f"run{len(mark)}.ini"
            cfg.write_text(f"[paths]\ntext = {fixtures_dir / 'corpus.txt'}\n"
                           f"lemma_map = {lemmas}\n", encoding="utf-8")
            out = tmp_path / f"out{len(mark)}"
            assert main(["--config", str(cfg), "--out", str(out), "--only", "profile"]) == 0
            profiles.append((out / "profile.json").read_bytes())
        assert profiles[0] == profiles[1]

    @pytest.mark.parametrize("rows, line_no, message", [
        pytest.param("як\tяк\t0\nяк\tяк_2\t0\n", 2,
                     "shares of 'як' must have a positive finite sum", id="zero-shares"),
        pytest.param("як\tяк\t1e308\nяк\tяк_2\t1e308\n", 2,
                     "shares of 'як' must have a positive finite sum", id="overflowing-sum"),
        pytest.param("як\tяк\tnan\nяк\tяк_2\t1\n", 1, "bad share 'nan'", id="nan-share"),
        pytest.param("як\tяк\t1\nяк\tяк_2\tinf\n", 2, "bad share 'inf'", id="inf-share"),
    ])
    def test_unsplittable_shares_exit_3_at_their_line(self, fixtures_dir, tmp_path, capsys,
                                                      rows, line_no, message):
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_text(rows, encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[paths]\ntext = {fixtures_dir / 'corpus.txt'}\nlemma_map = {lemmas}\n",
                       encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"analyze: stage lexicon: {lemmas}:{line_no}: {message}"

    @pytest.mark.parametrize("key, stage", [
        ("text", "ingest"),
        ("lemma_map", "lexicon"),
        ("merge_rules", "lexicon"),
        ("overrides", "lexicon"),
        ("g2p_rules", "lengths"),
    ])
    def test_invalid_utf8_in_every_input_exits_3_at_its_line(self, fixtures_dir, tmp_path,
                                                             capsys, key, stage):
        inputs = {
            "text": (fixtures_dir / "corpus.txt").read_bytes(),
            "lemma_map": (fixtures_dir / "lemmas.tsv").read_bytes(),
            "merge_rules": (fixtures_dir / "merges.tsv").read_bytes(),
            "overrides": (fixtures_dir / "overrides.tsv").read_bytes(),
            "g2p_rules": distributions.resources.files("textlaws")
            .joinpath(f"data/{distributions.DEFAULT_G2P_RESOURCE}").read_bytes(),
        }
        data = inputs[key]
        offset = data.index(b"\n") + 1  # the first byte of line 2
        inputs[key] = data[:offset] + b"\xff" + data[offset:]
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[paths]\n" + "".join(f"{name} = {name}\n" for name in inputs),
                       encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"analyze: stage {stage}: {tmp_path / key}:2: "
            f"invalid UTF-8: invalid start byte at byte {offset}"
        )

    def test_out_naming_a_file_fails_in_its_stage(self, fixture_config, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n", encoding="utf-8")
        assert main(["--config", str(fixture_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "analyze: stage output: " in err and f"File exists: '{out}'" in err

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmPeak")
    def test_out_of_memory_is_a_stage_failure(self, fixtures_dir, tmp_path):
        import resource

        for name in ("run.ini", "corpus.txt", "lemmas.tsv", "merges.tsv", "overrides.tsv"):
            shutil.copy(fixtures_dir / name, tmp_path)
        argv = ["--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=str(Path(textlaws.__file__).parents[1]))
        # numpy and OpenBLAS reserve address space at import: the limit is set
        # 16 MB above the peak of a whole fixture run in a child of its own
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys\nfrom textlaws.cli import main\nassert main(sys.argv[1:]) == 0\n"
             "print(next(line.split()[1] for line in open('/proc/self/status')"
             " if line.startswith('VmPeak:')))\n", *argv],
            capture_output=True, text=True, env=env,
        )
        assert probe.returncode == 0, probe.stderr
        limit = (int(probe.stdout.split()[-1]) + 16 * 1024) * 1024
        shutil.rmtree(tmp_path / "out")
        # a text of 44 MB, which the child cannot read whole
        with (tmp_path / "corpus.txt").open("w", encoding="utf-8") as fh:
            for _ in range(40):
                fh.write("слово " * 100_000)
        proc = subprocess.run(
            [sys.executable, "-m", "textlaws", *argv], capture_output=True, text=True, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert (proc.returncode, proc.stderr) == (1, "analyze: stage ingest: out of memory\n")
        assert not (tmp_path / "out").exists()

    def test_topk_has_four_decimal_percentages(self, fixture_config, tmp_path):
        out = tmp_path / "out"
        main(["--config", str(fixture_config), "--out", str(out)])
        first = (out / "topk.tsv").read_text().splitlines()[0].split("\t")
        assert first[0] == "1"
        assert len(first[2].split(".")[1]) == 4

    def test_threshold_override(self, fixture_config, tmp_path):
        out = tmp_path / "out"
        main(["--config", str(fixture_config), "--out", str(out), "--threshold", "1"])
        profile = dict(
            line.split("\t") for line in (out / "profile.tsv").read_text().splitlines()
        )
        assert profile["conc_text"] == "1.0"
        assert profile["conc_vocab"] == "1.0"

    def test_two_runs_byte_identical(self, fixture_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(fixture_config), "--out", str(out1)]) == 0
        assert main(["--config", str(fixture_config), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_console_invocation_smoke(fixture_config, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "textlaws", "--config", str(fixture_config), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "profile.tsv").exists()


def test_readme_library_use_runs(fixtures_dir, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library use.*?```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(fixtures_dir)
    names = {}
    exec(snippet, names)
    assert names["profile"].N == 1000
    assert names["profile"].V is not None
    assert set(names["fit"].params) == {"A", "b", "C"}


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _numpy_loaded_after(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that prints, last, whether numpy was loaded."""
    code = "import atexit, sys\natexit.register(lambda: print('numpy', 'numpy' in sys.modules))\n" + code
    env = dict(os.environ, PYTHONPATH=str(Path(textlaws.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_import_loads_no_numpy():
    proc = _numpy_loaded_after("import textlaws\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy False"


@pytest.mark.parametrize("argv, exit_code", [
    pytest.param(["--version"], 0, id="version"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["--config", "x.ini", "--threshold", "0"], 2, id="bad-flag"),
    pytest.param(["--config", "no-such.ini"], 2, id="missing-config"),
])
def test_front_half_answers_without_numpy(tmp_path, argv, exit_code):
    # as python -m textlaws ARGV, from a directory that holds no config
    proc = _numpy_loaded_after(
        "import os, runpy\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"sys.argv[1:] = {argv!r}\n"
        "runpy.run_module('textlaws', run_name='__main__', alter_sys=True)\n"
    )
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy False"


# every name the package exported when it imported all of them eagerly
EXPORTS = {
    "distributions": ("G2PRules", "RankFrequencyList", "coverage_curve", "filter_min_support",
                      "form_lengths", "length_distribution", "load_default_g2p",
                      "mean_syllable_series", "rank_frequency", "read_g2p_rules", "top_k"),
    "errors": ("DomainError", "ResourceFormatError", "TextlawsError", "ValidationError"),
    "indices": ("CorpusProfile", "corpus_profile"),
    "lexicon": ("FormLexicon", "LemmaLexicon", "LemmaMap", "MergeRule", "apply_merge_rules",
                "build_form_spectrum", "lemmatize", "read_lemma_map", "read_merge_rules",
                "read_overrides"),
    "tokenizer": ("DEFAULT_CONFIG", "TokenizerConfig", "Tokens", "count_letters",
                  "split_sentences", "tokenize"),
}


@pytest.mark.parametrize("home, name", [
    pytest.param(home, name, id=name) for home, names in EXPORTS.items() for name in names
])
def test_exported_name_is_its_home_modules(home, name):
    expected = getattr(importlib.import_module(f"textlaws.{home}"), name)
    assert getattr(textlaws, name) is expected
    namespace = {}
    exec(f"from textlaws import {name}", namespace)
    assert namespace[name] is expected


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        textlaws.no_such_name


# the tokenizer oracle's adversarial alphabet (numerals outside Nd, a
# combining acute, a byte order mark, joiners, closers, openers) plus "_"
FUZZ_ALPHABET = (
    "абТтAbßλǅ" "-‐‑'’ʼ`" "§_" "019" "²Ⅻ½" "\u0301\ufeff" ".!?…" "»\"”)]" "«“‘([—–" " \n"
)
# each value strategy draws valid and invalid values alike
_counts = st.one_of(st.integers(-1, 40).map(str), st.sampled_from(["", "x", "1e3"]))
_choices = st.sampled_from(["types", "tokens", "lemmas", "forms", "", "nope"])
_bound = st.one_of(st.integers(-1, 40).map(str), st.sampled_from(["end", "", "x"]))
_intervals = st.lists(
    st.tuples(_bound, _bound).map(":".join) | st.sampled_from(["5", "1:2:3"]), max_size=3
).map(",".join)
_init_values = ["1", "0.5", "-2", "x", "nan"]
_inits = {
    f"{config.INIT_PREFIX}{model_id}": st.lists(
        st.tuples(st.sampled_from([*MODELS[model_id].param_names, "Q"]),
                  st.sampled_from(_init_values)).map("=".join),
        max_size=4,
    ).map(",".join)
    # every parameter once, so that some drawn inits reach the fits
    | st.tuples(*(st.sampled_from(_init_values).map(f"{name}={{}}".format)
                  for name in MODELS[model_id].param_names)).map(",".join)
    for model_id in MODELS
}
FUZZ_SECTIONS = {
    "tokenizer": {
        "intra_token_chars": st.text(alphabet="-'’§._²Ⅻ09а ", max_size=6),
        "sentence_terminators": st.text(alphabet=".!?…§»«", max_size=4),
        "case_folding": st.sampled_from(["true", "Off", "1", "ture", ""]),
        "abbreviations": st.lists(st.sampled_from(["т", "Т", "ab", "ß", ""]), max_size=3)
        .map(",".join),
    },
    "analysis": {
        "vowels": st.text(alphabet="аеиоAEyЯ ", max_size=5),
        **dict.fromkeys(("basis", "rank_basis", "count_basis", "word_length_basis"), _choices),
        **dict.fromkeys(("threshold", "top_k", "min_support"), _counts),
        "treshold": _counts,
    },
    "fits": {
        "models": st.lists(st.sampled_from([*MODELS, "Nope"]), max_size=3).map(",".join),
        **dict.fromkeys(("zipf_breakpoints", "coverage_breakpoints"), _intervals),
        **_inits,
    },
}


def _section(name, keys):
    """An optional INI section holding any subset of ``keys``."""
    return st.none() | st.fixed_dictionaries({}, optional=keys).map(
        lambda values: f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    )


_config_bodies = st.tuples(*(_section(name, keys) for name, keys in FUZZ_SECTIONS.items())).map(
    lambda sections: "".join(filter(None, sections))
)


def test_fuzz_draws_every_key_of_every_section():
    for section, keys in FUZZ_SECTIONS.items():
        missing = set(config.KEYS[section]) - set(keys)
        assert not missing, f"[{section}] keys the fuzz test never writes: {missing}"
    inits = {f"{config.INIT_PREFIX}{model_id}" for model_id in MODELS}
    assert inits <= set(FUZZ_SECTIONS["fits"])


# lemma-map rows of forms the fuzz text holds, with valid and invalid shares:
# each form gets one to three rows (lemmas x, y, z), so it is often ambiguous
_forms = st.sampled_from(["т", "b", "аб"])
_shares = st.none() | st.sampled_from(["1", "0", "0.5", "-1", "nan", "inf", "1e308", "x", ""])
_lemma_rows = st.lists(
    st.tuples(_forms, st.lists(_shares, min_size=1, max_size=3)), max_size=3
).map(lambda forms: "".join(
    "\t".join(field for field in (form, lemma, share) if field is not None) + "\n"
    for form, shares in forms for lemma, share in zip("xyz", shares)
))
_merge_rows = st.lists(
    st.tuples(_forms, st.lists(_forms, max_size=3).map(",".join))
    .map(lambda row: "\t".join(row) + "\n"),
    max_size=3,
).map("".join)
# the config key of each resource file
FUZZ_RESOURCES = {"lemmas.tsv": "lemma_map", "merges.tsv": "merge_rules"}


# about one example in eight holds a bad byte and stops at once, so 250
# keep more than 200 that run
@settings(max_examples=250, deadline=None)
# an ambiguous form of the text whose shares cannot split its count
@example(text="т", body="", resources={"lemmas.tsv": "т\tx\tnan\nт\ty\n"}, bad_byte=None,
         only=None)
@example(text="т", body="", resources={"lemmas.tsv": "т\tx\t0\nт\ty\t0\n"}, bad_byte=None,
         only=None)
@given(
    # some of the forms the lemma map names, then adversarial text
    text=st.tuples(st.sets(_forms), st.text(alphabet=FUZZ_ALPHABET, max_size=200))
    .map(lambda words: " ".join([*sorted(words[0]), words[1]])),
    body=_config_bodies,
    resources=st.fixed_dictionaries({}, optional={"lemmas.tsv": _lemma_rows,
                                                  "merges.tsv": _merge_rows}),
    # a byte that is never UTF-8, if anywhere: which of the files there are
    # (the config, the text, then the resources) and where in it
    bad_byte=st.integers(0, 4).flatmap(
        lambda k: st.tuples(st.integers(0, 3), st.integers(min_value=0)) if k == 4
        else st.none()),
    only=st.none() | st.lists(st.sampled_from([*config.STAGES, "nope"]), min_size=1,
                              unique=True).map(",".join),
)
def test_every_input_ends_in_a_documented_exit_code(text, body, resources, bad_byte, only):
    paths = "".join(f"{FUZZ_RESOURCES[name]} = {name}\n" for name in resources)
    inputs = {"run.ini": "[paths]\ntext = corpus.txt\n" + paths + body,
              "corpus.txt": text, **resources}
    inputs = {name: content.encode("utf-8") for name, content in inputs.items()}
    if bad_byte is not None:
        which, at = bad_byte
        name = [*inputs][which % len(inputs)]
        data = inputs[name]
        at %= len(data) + 1
        inputs[name] = data[:at] + b"\xff" + data[at:]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in inputs.items():
            (root / name).write_bytes(data)
        argv = ["--config", str(root / "run.ini"), "--out", str(root / "out")]
        if only is not None:
            argv += ["--only", only]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2, 3)
    if code:
        assert stderr.getvalue(), "a failed run must say why"
