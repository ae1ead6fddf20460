"""Run configuration: a flat INI-style file with section headers.

Paths are resolved relative to the config file's directory.  Only the
text path is required; every other resource is optional and its absence
disables the dependent outputs with a logged notice.

Schema::

    [paths]
    text = corpus.txt            # required
    lemma_map = lemmas.tsv
    merge_rules = merges.tsv
    overrides = overrides.tsv
    g2p_rules = g2p.tsv          # default rules ship with the package
    output_dir = out

    [tokenizer]
    intra_token_chars = -'’ʼ§0123456789
    sentence_terminators = .!?…
    case_folding = true
    abbreviations = comma,separated,forms

    [analysis]
    vowels = аеиіоуяюєї
    threshold = 10
    basis = types                # types | tokens
    rank_basis = lemmas          # lemmas | forms
    count_basis = lemmas         # hapax/concentration basis: lemmas | forms
    word_length_basis = tokens   # tokens | types
    top_k = 20
    min_support = 5

    [fits]
    models = PhonemeGamma,ShiftedMenzerath,MeanSyllablePower,ZipfPower,ZipfMandelbrot,LogCoverage
    zipf_breakpoints = 10:200,200:1000,1000:end
    coverage_breakpoints = 10:200,200:2000,2000:end
    init_ZipfMandelbrot = A=20000,b=1.1,C=4
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .distributions import DEFAULT_UK_VOWELS
from .errors import ResourceFormatError, TextlawsError
from .fitting.models import MODELS
from .fitting.segmented import DEFAULT_COVERAGE_BREAKPOINTS, DEFAULT_ZIPF_BREAKPOINTS
from .tokenizer import TokenizerConfig

STAGES = ("profile", "lengths", "ranks", "fits")

DEFAULT_FIT_MODELS = (
    "PhonemeGamma",
    "ShiftedMenzerath",
    "MeanSyllablePower",
    "ZipfPower",
    "ZipfMandelbrot",
    "LogCoverage",
)


class MissingTextError(TextlawsError):
    """The required input text is not configured or does not exist."""


@dataclass
class RunConfig:
    text_path: Path
    output_dir: Path
    lemma_map_path: Path | None = None
    merge_rules_path: Path | None = None
    overrides_path: Path | None = None
    g2p_rules_path: Path | None = None
    tokenizer: TokenizerConfig = TokenizerConfig()
    vowels: frozenset[str] = DEFAULT_UK_VOWELS
    threshold: int = 10
    basis: str = "types"
    rank_basis: str = "lemmas"
    count_basis: str = "lemmas"
    word_length_basis: str = "tokens"
    top_k: int = 20
    min_support: int = 5
    models: tuple[str, ...] = DEFAULT_FIT_MODELS
    zipf_breakpoints: tuple[tuple[int, int | None], ...] = DEFAULT_ZIPF_BREAKPOINTS
    coverage_breakpoints: tuple[tuple[int, int | None], ...] = DEFAULT_COVERAGE_BREAKPOINTS
    inits: dict[str, dict[str, float]] = field(default_factory=dict)
    stages: tuple[str, ...] = STAGES

    def with_overrides(self, out=None, only=None, basis=None, threshold=None) -> "RunConfig":
        cfg = self
        if out is not None:
            cfg = replace(cfg, output_dir=Path(out))
        if only is not None:
            cfg = replace(cfg, stages=only)
        if basis is not None:
            cfg = replace(cfg, basis=basis)
        if threshold is not None:
            cfg = replace(cfg, threshold=threshold)
        return cfg


def _key_lines(text: str) -> dict[tuple[str, str], int]:
    """Line number of each ``key = value`` or ``key: value`` entry, by section."""
    lines: dict[tuple[str, str], int] = {}
    section = None
    # configparser splits lines on "\n" only, so count lines the same way
    for no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        header = re.match(r"\[(.+)\]", stripped)
        if header:
            section = header.group(1)
        elif stripped and stripped[0] not in "#;":
            key = re.split("[=:]", stripped, maxsplit=1)[0].strip()
            lines.setdefault((section, key), no)
    return lines


def _parse_breakpoints(raw: str, err, key: str):
    intervals = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo_hi = chunk.split(":")
        if len(lo_hi) != 2:
            raise err("fits", key, f"bad interval {chunk!r}")
        try:
            lo = int(lo_hi[0])
        except ValueError:
            raise err("fits", key, f"bad rank {lo_hi[0]!r}") from None
        hi_raw = lo_hi[1].strip().lower()
        if hi_raw in ("end", "v", "*"):
            hi = None
        else:
            try:
                hi = int(hi_raw)
            except ValueError:
                raise err("fits", key, f"bad rank {lo_hi[1]!r}") from None
        intervals.append((lo, hi))
    if not intervals:
        raise err("fits", key, "empty breakpoint list")
    return tuple(intervals)


def _parse_inits(parser, section, err) -> dict[str, dict[str, float]]:
    inits = {}
    for key in parser.options(section):
        if not key.startswith("init_"):
            continue
        model_id = key[len("init_"):]
        if model_id not in MODELS:
            raise err(section, key, f"unknown model {model_id!r}")
        values = {}
        for assign in parser.get(section, key).split(","):
            assign = assign.strip()
            if not assign:
                continue
            name, _, raw = assign.partition("=")
            try:
                values[name.strip()] = float(raw)
            except ValueError:
                raise err(section, key, f"bad init value {assign!r}") from None
        inits[model_id] = values
    return inits


def _choice(parser, section, key, default, allowed, err):
    value = parser.get(section, key, fallback=default).strip()
    if value not in allowed:
        raise err(section, key, f"{key} must be one of {sorted(allowed)}, got {value!r}")
    return value


def _intval(parser, section, key, default, err, minimum=1):
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise err(section, key, f"{key} must be an integer") from None
    if value < minimum:
        raise err(section, key, f"{key} must be >= {minimum}")
    return value


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise MissingTextError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.ParsingError as exc:
        line_no = exc.errors[0][0] if exc.errors else 0
        raise ResourceFormatError(path, line_no, "cannot parse config") from exc
    except configparser.MissingSectionHeaderError as exc:
        raise ResourceFormatError(path, exc.lineno, "missing section header") from exc

    key_lines = _key_lines(text)

    def err(section, key, message):
        return ResourceFormatError(path, key_lines.get((section, key), 0), message)

    base = path.parent

    def respath(section, key):
        raw = parser.get(section, key, fallback=None)
        if raw is None or not raw.strip():
            return None
        p = Path(raw.strip())
        return p if p.is_absolute() else base / p

    text_path = respath("paths", "text") if parser.has_section("paths") else None
    if text_path is None:
        raise MissingTextError(f"{path}: [paths] text is required")

    tok_kwargs = {}
    if parser.has_section("tokenizer"):
        raw = parser.get("tokenizer", "intra_token_chars", fallback=None)
        if raw is not None:
            tok_kwargs["intra_token_chars"] = frozenset(raw.strip())
        raw = parser.get("tokenizer", "sentence_terminators", fallback=None)
        if raw is not None:
            tok_kwargs["sentence_terminators"] = frozenset(raw.strip())
        raw = parser.get("tokenizer", "case_folding", fallback=None)
        if raw is not None:
            tok_kwargs["case_folding"] = raw.strip().lower() in ("1", "true", "yes", "on")
        raw = parser.get("tokenizer", "abbreviations", fallback=None)
        if raw is not None:
            tok_kwargs["abbreviations"] = frozenset(
                a.strip() for a in raw.split(",") if a.strip()
            )
    tokenizer = TokenizerConfig(**tok_kwargs)

    vowels = DEFAULT_UK_VOWELS
    if parser.has_option("analysis", "vowels"):
        vowels = frozenset(parser.get("analysis", "vowels").strip())

    fits = {}
    if parser.has_section("fits"):
        raw = parser.get("fits", "models", fallback=None)
        if raw is not None:
            fits["models"] = tuple(m.strip() for m in raw.split(",") if m.strip())
            for m in fits["models"]:
                if m not in MODELS:
                    raise err("fits", "models", f"unknown model {m!r}")
        for key in ("zipf_breakpoints", "coverage_breakpoints"):
            raw = parser.get("fits", key, fallback=None)
            if raw is not None:
                fits[key] = _parse_breakpoints(raw, err, key)
        fits["inits"] = _parse_inits(parser, "fits", err)

    return RunConfig(
        text_path=text_path,
        output_dir=respath("paths", "output_dir") or base / "out",
        lemma_map_path=respath("paths", "lemma_map"),
        merge_rules_path=respath("paths", "merge_rules"),
        overrides_path=respath("paths", "overrides"),
        g2p_rules_path=respath("paths", "g2p_rules"),
        tokenizer=tokenizer,
        vowels=vowels,
        threshold=_intval(parser, "analysis", "threshold", 10, err),
        basis=_choice(parser, "analysis", "basis", "types", {"types", "tokens"}, err),
        rank_basis=_choice(parser, "analysis", "rank_basis", "lemmas", {"lemmas", "forms"}, err),
        count_basis=_choice(parser, "analysis", "count_basis", "lemmas", {"lemmas", "forms"}, err),
        word_length_basis=_choice(
            parser, "analysis", "word_length_basis", "tokens", {"tokens", "types"}, err
        ),
        top_k=_intval(parser, "analysis", "top_k", 20, err),
        min_support=_intval(parser, "analysis", "min_support", 5, err, minimum=0),
        **fits,
    )
