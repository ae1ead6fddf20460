"""Run configuration: a flat INI-style file with section headers.

Paths are resolved relative to the config file's directory.  Only the
text path is required; every other resource is optional and its absence
disables the dependent outputs with a logged notice.  An unknown section
or key is an error that names its line.

Schema (configparser keeps an inline ``# ...`` as part of the value, so
comments go on lines of their own)::

    [paths]
    # required
    text = corpus.txt
    lemma_map = lemmas.tsv
    merge_rules = merges.tsv
    overrides = overrides.tsv
    # default rules ship with the package
    g2p_rules = g2p.tsv
    output_dir = out

    [tokenizer]
    intra_token_chars = -'’ʼ§0123456789
    sentence_terminators = .!?…
    case_folding = true
    abbreviations = comma,separated,forms

    [analysis]
    vowels = аеиіоуяюєї
    threshold = 10
    # types | tokens
    basis = types
    # lemmas | forms
    rank_basis = lemmas
    # hapax/concentration basis: lemmas | forms
    count_basis = lemmas
    # tokens | types
    word_length_basis = tokens
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

from .distributions import DEFAULT_UK_VOWELS, LENGTH_BASES
from .errors import ResourceFormatError, TextlawsError, ValidationError
from .fitting.models import MODELS
from .fitting.segmented import DEFAULT_COVERAGE_BREAKPOINTS, DEFAULT_ZIPF_BREAKPOINTS
from .indices import COUNT_BASES, WORD_LENGTH_BASES
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

# allowed values of each [analysis] choice key (RunConfig holds the defaults)
CHOICES = {
    "basis": LENGTH_BASES,
    "rank_basis": ("lemmas", "forms"),
    "count_basis": COUNT_BASES,
    "word_length_basis": WORD_LENGTH_BASES,
}
# least value of each [analysis] integer key
MINIMUMS = {"threshold": 1, "top_k": 1, "min_support": 0}

# [paths] key -> RunConfig field
PATHS = {
    "text": "text_path",
    "output_dir": "output_dir",
    "lemma_map": "lemma_map_path",
    "merge_rules": "merge_rules_path",
    "overrides": "overrides_path",
    "g2p_rules": "g2p_rules_path",
}
BREAKPOINT_KEYS = ("zipf_breakpoints", "coverage_breakpoints")
INIT_PREFIX = "init_"


def _chars(raw: str) -> frozenset[str]:
    return frozenset(raw.strip())


def _names(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _flag(raw: str) -> bool:
    words = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return words[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(words)}, got {raw.strip()!r}") from None


# how each [tokenizer] key, a TokenizerConfig field, is read
TOKENIZER_VALUES = {
    "intra_token_chars": _chars,
    "sentence_terminators": _chars,
    "case_folding": _flag,
    "abbreviations": lambda raw: frozenset(_names(raw)),
}

# every key the loader reads, by section; [fits] also takes INIT_PREFIX + model
KNOWN_KEYS = {
    "paths": PATHS,
    "tokenizer": TOKENIZER_VALUES,
    "analysis": ("vowels", *CHOICES, *MINIMUMS),
    "fits": ("models", *BREAKPOINT_KEYS),
}


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


def analysis_value(key: str, raw: str):
    """One [analysis] choice or integer value, checked; ValueError says why not."""
    raw = raw.strip()
    if key in CHOICES:
        if raw not in CHOICES[key]:
            raise ValueError(f"{key} must be one of {sorted(CHOICES[key])}, got {raw!r}")
        return raw
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{key} must be an integer") from None
    if value < MINIMUMS[key]:
        raise ValueError(f"{key} must be >= {MINIMUMS[key]}")
    return value


def _key_lines(text: str) -> dict[tuple[str, str | None], int]:
    """Line number of each ``key = value`` or ``key: value`` entry, by section.

    A section's header line is filed under the key None.
    """
    lines: dict[tuple[str, str | None], int] = {}
    section = None
    # configparser splits lines on "\n" only, so count lines the same way
    for no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        header = re.match(r"\[(.+)\]", stripped)
        if header:
            section = header.group(1)
            lines.setdefault((section, None), no)
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
        if hi is not None and hi <= lo:
            raise err("fits", key, f"bad interval {chunk!r}: need lo < hi")
        intervals.append((lo, hi))
    if not intervals:
        raise err("fits", key, "empty breakpoint list")
    return tuple(intervals)


def _parse_inits(parser, section, err) -> dict[str, dict[str, float]]:
    inits = {}
    for key in parser.options(section):
        if not key.startswith(INIT_PREFIX):
            continue
        model_id = key.removeprefix(INIT_PREFIX)
        if model_id not in MODELS:
            raise err(section, key, f"unknown model {model_id!r}")
        if model_id in ("ZipfPower", "LogCoverage"):
            # per-interval regressions in closed form: a start value would do nothing
            raise err(section, key, f"{model_id} is fitted per interval and takes no start values")
        names = MODELS[model_id].param_names
        values = {}
        for assign in parser.get(section, key).split(","):
            assign = assign.strip()
            if not assign:
                continue
            name, _, raw = assign.partition("=")
            name = name.strip()
            if name not in names or name in values:
                problem = "repeated" if name in values else "unknown"
                raise err(section, key, f"{problem} parameter {name!r}; "
                                        f"{model_id} takes {', '.join(names)}")
            try:
                values[name] = float(raw)
            except ValueError:
                raise err(section, key, f"bad init value {assign!r}") from None
        inits[model_id] = values
    return inits


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise MissingTextError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    # no defaults section: a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.MissingSectionHeaderError as exc:
        raise ResourceFormatError(path, exc.lineno, "missing section header") from exc
    except configparser.ParsingError as exc:
        line_no = exc.errors[0][0] if exc.errors else 0
        raise ResourceFormatError(path, line_no, "cannot parse config") from exc
    except configparser.DuplicateSectionError as exc:
        raise ResourceFormatError(path, exc.lineno, f"duplicate section [{exc.section}]") from exc
    except configparser.DuplicateOptionError as exc:
        raise ResourceFormatError(
            path, exc.lineno, f"duplicate key {exc.option!r} in [{exc.section}]"
        ) from exc

    key_lines = _key_lines(text)

    def err(section, key, message):
        return ResourceFormatError(path, key_lines.get((section, key), 0), message)

    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise err(section, None, f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in KNOWN_KEYS[section] and not (
                section == "fits" and key.startswith(INIT_PREFIX)
            ):
                raise err(section, key, f"unknown key {key!r} in [{section}]")

    base = path.parent

    def respath(key):
        raw = parser.get("paths", key, fallback=None)
        if raw is None or not raw.strip():
            return None
        p = Path(raw.strip())
        return p if p.is_absolute() else base / p

    paths = {name: respath(key) for key, name in PATHS.items()}
    if paths["text_path"] is None:
        raise MissingTextError(f"{path}: [paths] text is required")
    paths["output_dir"] = paths["output_dir"] or base / "out"

    # one key at a time, so TokenizerConfig's own checks fail on that key's line
    tokenizer = TokenizerConfig()
    for key, read in TOKENIZER_VALUES.items():
        if parser.has_option("tokenizer", key):
            try:
                tokenizer = replace(tokenizer, **{key: read(parser.get("tokenizer", key))})
            except (ValueError, ValidationError) as exc:
                raise err("tokenizer", key, str(exc)) from None

    analysis = {}
    if parser.has_option("analysis", "vowels"):
        # forms are casefolded before their vowels are counted, so the set is too
        analysis["vowels"] = _chars(parser.get("analysis", "vowels").casefold())
        if not analysis["vowels"]:
            raise err("analysis", "vowels", "vowels must not be empty")
    for key in (*CHOICES, *MINIMUMS):
        raw = parser.get("analysis", key, fallback=None)
        if raw is not None:
            try:
                analysis[key] = analysis_value(key, raw)
            except ValueError as exc:
                raise err("analysis", key, str(exc)) from None

    fits = {}
    if parser.has_section("fits"):
        raw = parser.get("fits", "models", fallback=None)
        if raw is not None:
            fits["models"] = _names(raw)
            for m in fits["models"]:
                if m not in MODELS:
                    raise err("fits", "models", f"unknown model {m!r}")
        for key in BREAKPOINT_KEYS:
            raw = parser.get("fits", key, fallback=None)
            if raw is not None:
                fits[key] = _parse_breakpoints(raw, err, key)
        fits["inits"] = _parse_inits(parser, "fits", err)

    return RunConfig(**paths, tokenizer=tokenizer, **analysis, **fits)
