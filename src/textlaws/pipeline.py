"""End-to-end analysis pipeline driven by one RunConfig.

Stages run in order (ingest, lexicon and output, which makes the output
directory, always; profile, lengths, ranks and fits only when selected,
with the lengths and ranks computed but not written when only the fits
need them) and write a deterministic bundle into the output directory.
A failing stage raises a ``StageFailure`` that names it and carries its
cause's exit code, and a stage that runs out of memory fails the same way;
a fit that merely fails to converge is recorded in the fits report and
does not affect the exit status.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from . import distributions as dist
from .config import RunConfig
from .errors import MissingTextError, TextlawsError, ValidationError
from .fitting import fit_coverage, lm_fit, model_eval, segmented_loglog_fit
from .fitting.segmented import LOG_COVERAGE, ZIPF_POWER
from .indices import corpus_profile
from .lexicon import (
    apply_merge_rules,
    build_form_spectrum,
    decode_utf8,
    lemmatize,
    read_lemma_map,
    read_merge_rules,
    read_overrides,
)
from .reports import emit_plot_data, write_fits, write_profile, write_topk
from .tokenizer import Tokens, split_sentences, tokenize

log = logging.getLogger("textlaws")


class StageFailure(TextlawsError):
    def __init__(self, stage: str, cause: TextlawsError | OSError):
        self.exit_code = getattr(cause, "exit_code", self.exit_code)
        super().__init__(f"stage {stage}: {cause}")


@contextmanager
def _stage(name: str):
    try:
        yield
    except (TextlawsError, OSError) as exc:
        raise StageFailure(name, exc) from exc
    except MemoryError:
        # the allocation that failed holds nothing, and the message needs little
        raise StageFailure(name, TextlawsError("out of memory")) from None


def _ingest(cfg: RunConfig) -> tuple[Tokens, int]:
    """The text's token counts and its sentence count; the text is freed on return."""
    # the bytes are freed once decoded, before the tokenizer's peak
    text = decode_utf8(cfg.text_path, cfg.text_path.read_bytes())
    tokens = tokenize(text, cfg.tokenizer)
    if not tokens:
        # no stage after this one has anything to count
        raise ValidationError(f"{cfg.text_path}: no word tokens")
    return tokens, len(split_sentences(text, cfg.tokenizer))


def run_analysis(cfg: RunConfig) -> None:
    """Write the bundle of ``cfg``'s stages; a missing text or failed stage raises."""
    if not cfg.text_path.is_file():
        raise MissingTextError(f"text file not found: {cfg.text_path}")
    with _stage("ingest"):
        tokens, sentences = _ingest(cfg)

    with _stage("lexicon"):
        forms = build_form_spectrum(tokens)
        if cfg.merge_rules_path is not None:
            rules = read_merge_rules(cfg.merge_rules_path)
            forms = apply_merge_rules(forms, rules)
            log.info("applied %d merge rules", len(rules))
        lemmas = None
        if cfg.lemma_map_path is not None:
            lemma_map = read_lemma_map(cfg.lemma_map_path, forms.entries)
            overrides = []
            if cfg.overrides_path is not None:
                overrides = read_overrides(cfg.overrides_path)
            lemmas = lemmatize(forms, lemma_map, overrides)
            if lemmas.unmapped_tokens:
                log.info(
                    "%d tokens across %d forms had no lemma mapping",
                    lemmas.unmapped_tokens, lemmas.unmapped_forms,
                )
        else:
            log.info("no lemma map configured: lemma statistics unavailable")

    out = cfg.output_dir
    with _stage("output"):
        out.mkdir(parents=True, exist_ok=True)

    if "profile" in cfg.stages:
        with _stage("profile"):
            profile = corpus_profile(
                tokens, sentences, forms, lemmas,
                threshold=cfg.threshold,
                count_basis=cfg.count_basis,
                word_length_basis=cfg.word_length_basis,
            )
            write_profile(profile, out)
    # the token counts have had their last reader; the later stages' peaks come without them
    del tokens

    if {"lengths", "fits"} & set(cfg.stages):
        with _stage("lengths"):
            g2p = (
                dist.read_g2p_rules(cfg.g2p_rules_path)
                if cfg.g2p_rules_path is not None
                else dist.load_default_g2p()
            )
            table = dist.form_lengths(forms, g2p, cfg.vowels)
            lengths = {
                unit: dist.length_distribution(forms, unit, table, cfg.basis) for unit in table
            }
            syllable_series = dist.mean_syllable_series(table["letters"], table["syllables"])
            if "lengths" in cfg.stages:
                for unit, distribution in lengths.items():
                    emit_plot_data(distribution, out / f"lengths_{unit}.dat")
                if syllable_series:
                    emit_plot_data(
                        [(s, m) for s, m, _ in syllable_series], out / "mean_syllable.dat"
                    )
                else:
                    log.info("no syllabic word-forms: mean_syllable.dat not written")
                    # one left by an earlier run would pass for this run's series
                    (out / "mean_syllable.dat").unlink(missing_ok=True)

    if {"ranks", "fits"} & set(cfg.stages):
        with _stage("ranks"):
            rank_lex = forms
            if cfg.rank_basis == "lemmas":
                if lemmas is not None:
                    rank_lex = lemmas
                else:
                    log.info("rank basis falls back to word-forms (no lemma lexicon)")
            rf = dist.rank_frequency(rank_lex)
            curve = dist.coverage_curve(rf)
            # the one float copy of the rank columns, for the plot file and the fit
            rank_points = np.stack((rf.ranks, rf.counts), axis=1, dtype=float)
            if "ranks" in cfg.stages:
                emit_plot_data(rank_points, out / "rank_freq.dat")
                emit_plot_data(np.column_stack((rf.ranks, curve)), out / "coverage.dat")
                k = min(cfg.top_k, len(rf.items))
                write_topk(dist.top_k(rf, k), out / "topk.tsv")

    if "fits" in cfg.stages:
        with _stage("fits"):
            # curves left by an earlier run would pass for this run's fits
            for stale in out.glob("fitcurve_*.dat"):
                stale.unlink()
            report = _run_fits(cfg, lengths, syllable_series, rf, rank_points, curve, out)
            write_fits(report, out)


def _run_fits(cfg, lengths, syllable_series, rf, rank_points, curve, out) -> dict[str, dict]:
    supported = dist.filter_min_support(syllable_series, cfg.min_support)
    mean_syllables = [(s, m) for s, m, _ in supported]
    datasets = {
        "PhonemeGamma": lengths["phonemes"],
        "ShiftedMenzerath": lengths["syllables"],
        "MeanSyllablePower": mean_syllables,
        "MeanSyllableExp": mean_syllables,
        "ZipfMandelbrot": rank_points,
    }
    # each call looks its fit up in this module, where the benchmark's tracer wraps it
    interval_fits = {
        ZIPF_POWER: lambda: segmented_loglog_fit(rf.counts, cfg.zipf_breakpoints),
        LOG_COVERAGE: lambda: fit_coverage(curve, cfg.coverage_breakpoints),
    }
    report: dict[str, dict] = {}
    for model_id in cfg.models:
        try:
            if model_id in interval_fits:
                report[model_id] = {"segments": [_entry(s) for s in interval_fits[model_id]()]}
            else:
                data = datasets[model_id]
                result = lm_fit(model_id, data, init=cfg.inits.get(model_id))
                report[model_id] = _entry(result, drop="sse_trace")
                if not result.converged:
                    log.info("fit %s did not converge", model_id)
                _emit_fit_curve(model_id, result, data, out)
        except TextlawsError as exc:
            log.info("fit %s skipped: %s", model_id, exc)
            report[model_id] = {"error": str(exc)}
    return report


def _entry(result, drop=None) -> dict:
    """A dataclass's fields but ``drop`` as a dict sharing their values.

    ``asdict`` would deep-copy each value, the ``sse_trace`` it is dropped for too.
    """
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name != drop}


def _emit_fit_curve(model_id, result, data, out) -> None:
    xs = np.asarray(data, dtype=float)[:, 0]
    try:
        ys = model_eval(model_id, result.params, xs)
    except TextlawsError as exc:
        # a diverged fit may leave parameters the model cannot evaluate
        log.info("fitted curve for %s not sampled: %s", model_id, exc)
        return
    emit_plot_data(np.column_stack((xs, ys)), out / f"fitcurve_{model_id}.dat")
