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
    # no letter or digit
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
    # lo:hi rank intervals; only end leaves one open to the last rank
    zipf_breakpoints = 10:200,200:1000,1000:end
    coverage_breakpoints = 10:200,200:2000,2000:end
    # each of the model's parameters once, with a finite value in its domain
    init_ZipfMandelbrot = A=20000,b=1.1,C=4
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

# no numpy here, nor in what this imports: the command line answers --version,
# --help and usage and config errors with this module, and loads the analysis
# modules only for a valid config
from .errors import MissingTextError, ResourceFormatError, ValidationError
from .lexicon import decode_utf8
from .tokenizer import TokenizerConfig

STAGES = ("profile", "lengths", "ranks", "fits")

DEFAULT_UK_VOWELS = frozenset("аеиіоуяюєї")
# what a length spectrum weighs: each word-form once, or by its token count
LENGTH_BASES = ("types", "tokens")
# lexicon feeding the hapax and concentration counts
COUNT_BASES = ("lemmas", "forms")
# what the mean word length averages over
WORD_LENGTH_BASES = ("tokens", "types")
DEFAULT_ZIPF_BREAKPOINTS = ((10, 200), (200, 1000), (1000, None))
DEFAULT_COVERAGE_BREAKPOINTS = ((10, 200), (200, 2000), (2000, None))

DEFAULT_FIT_MODELS = ("PhonemeGamma", "ShiftedMenzerath", "MeanSyllablePower",
                      "ZipfPower", "ZipfMandelbrot", "LogCoverage")

# [paths] key -> RunConfig field; each path is resolved against the config's directory
PATHS = {
    "text": "text_path",
    "output_dir": "output_dir",
    "lemma_map": "lemma_map_path",
    "merge_rules": "merge_rules_path",
    "overrides": "overrides_path",
    "g2p_rules": "g2p_rules_path",
}
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


def _choice(key: str, allowed: tuple[str, ...], raw: str) -> str:
    if raw.strip() not in allowed:
        raise ValueError(f"{key} must be one of {sorted(allowed)}, got {raw.strip()!r}")
    return raw.strip()


def _at_least(key: str, least: int, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{key} must be an integer") from None
    if value < least:
        raise ValueError(f"{key} must be >= {least}")
    return value


def _vowels(raw: str) -> frozenset[str]:
    # forms are casefolded before their vowels are counted, so the set is too
    if not (vowels := _chars(raw.casefold())):
        raise ValueError("vowels must not be empty")
    return vowels


def _models(raw: str) -> tuple[str, ...]:
    from .fitting.models import MODELS
    from .fitting.segmented import INTERVAL_FITS

    for m in (models := _names(raw)):
        if m not in MODELS and m not in INTERVAL_FITS:
            raise ValueError(f"unknown model {m!r}")
    return models


def _rank(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"bad rank {raw!r}") from None


def _breakpoints(raw: str) -> tuple[tuple[int, int | None], ...]:
    intervals = []
    for chunk in _names(raw):
        lo_hi = chunk.split(":")
        if len(lo_hi) != 2:
            raise ValueError(f"bad interval {chunk!r}")
        lo = _rank(lo_hi[0])
        hi = None if lo_hi[1].strip().lower() == "end" else _rank(lo_hi[1])
        if hi is not None and hi <= lo:
            raise ValueError(f"bad interval {chunk!r}: need lo < hi")
        intervals.append((lo, hi))
    if not intervals:
        raise ValueError("empty breakpoint list")
    return tuple(intervals)


def _inits(model_id: str, raw: str) -> dict[str, float]:
    import numpy as np

    from .fitting.models import MODELS, _as_param_array
    from .fitting.segmented import INTERVAL_FITS

    if model_id in INTERVAL_FITS:
        # per-interval regressions in closed form: a start value would do nothing
        raise ValueError(f"{model_id} is fitted per interval and takes no start values")
    if model_id not in MODELS:
        raise ValueError(f"unknown model {model_id!r}")
    names = MODELS[model_id].param_names
    values = {}
    for assign in _names(raw):
        name, _, value = assign.partition("=")
        name = name.strip()
        if name not in names or name in values:
            problem = "repeated" if name in values else "unknown"
            raise ValueError(f"{problem} parameter {name!r}; {model_id} takes {', '.join(names)}")
        try:
            values[name] = float(value)
        except ValueError:
            raise ValueError(f"bad init value {assign!r}") from None
    # every parameter, each with a finite value
    params = _as_param_array(MODELS[model_id], values)
    # x = 1, the first rank, lies in every model's data domain: start values
    # that fail here fail whatever the data (a shape <= -1, a rate <= 0, C <= -1)
    if not MODELS[model_id].params_in_domain(params, np.ones(1)):
        raise ValueError(f"{model_id}: start values outside the model domain")
    return values


# every key the loader reads, by section, with its reader: raw string -> value,
# or ValueError with the message users see; [fits] also takes INIT_PREFIX + model
KEYS = {
    "paths": dict.fromkeys(PATHS, str.strip),
    "tokenizer": {
        "intra_token_chars": _chars,
        "sentence_terminators": _chars,
        "case_folding": _flag,
        "abbreviations": lambda raw: frozenset(_names(raw)),
    },
    "analysis": {
        "vowels": _vowels,
        "basis": partial(_choice, "basis", LENGTH_BASES),
        "rank_basis": partial(_choice, "rank_basis", ("lemmas", "forms")),
        "count_basis": partial(_choice, "count_basis", COUNT_BASES),
        "word_length_basis": partial(_choice, "word_length_basis", WORD_LENGTH_BASES),
        "threshold": partial(_at_least, "threshold", 1),
        "top_k": partial(_at_least, "top_k", 1),
        "min_support": partial(_at_least, "min_support", 0),
    },
    "fits": {
        "models": _models,
        "zipf_breakpoints": _breakpoints,
        "coverage_breakpoints": _breakpoints,
    },
}


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


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.is_file():
        raise MissingTextError(f"config file not found: {path}")
    text = decode_utf8(path, path.read_bytes())
    # no defaults section: a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str
    try:
        parser.read_string(text, source=str(path))
    except configparser.MissingSectionHeaderError as exc:
        raise ResourceFormatError(path, exc.lineno, "missing section header") from exc
    except configparser.ParsingError as exc:
        raise ResourceFormatError(path, exc.errors[0][0], "cannot parse config") from exc
    except configparser.DuplicateSectionError as exc:
        raise ResourceFormatError(path, exc.lineno, f"duplicate section [{exc.section}]") from exc
    except configparser.DuplicateOptionError as exc:
        message = f"duplicate key {exc.option!r} in [{exc.section}]"
        raise ResourceFormatError(path, exc.lineno, message) from exc

    key_lines = _key_lines(text)
    base = path.parent
    fields, inits, tokenizer = {}, {}, TokenizerConfig()
    for section in parser.sections():
        if section not in KEYS:
            line_no = key_lines.get((section, None), 0)
            raise ResourceFormatError(path, line_no, f"unknown section [{section}]")
        for key, raw in parser.items(section):
            read = KEYS[section].get(key)
            if read is None and section == "fits" and key.startswith(INIT_PREFIX):
                read = partial(_inits, key.removeprefix(INIT_PREFIX))
            try:
                if read is None:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                value = read(raw)
                if section == "tokenizer":
                    # one key at a time, so TokenizerConfig's own check fails on this line
                    tokenizer = replace(tokenizer, **{key: value})
                elif section == "paths":
                    fields[PATHS[key]] = base / value if value else None
                elif key in KEYS[section]:
                    fields[key] = value
                else:
                    inits[key.removeprefix(INIT_PREFIX)] = value
            except (ValueError, ValidationError) as exc:
                line_no = key_lines.get((section, key), 0)
                raise ResourceFormatError(path, line_no, str(exc)) from None

    models = fields.get("models", DEFAULT_FIT_MODELS)
    for model_id in inits:
        if model_id not in models:
            line_no = key_lines.get(("fits", INIT_PREFIX + model_id), 0)
            message = f"{model_id} is not in [fits] models, so no fit reads its start values"
            raise ResourceFormatError(path, line_no, message)
    if fields.get("text_path") is None:
        raise MissingTextError(f"{path}: [paths] text is required")
    fields["output_dir"] = fields.get("output_dir") or base / "out"
    return RunConfig(**fields, tokenizer=tokenizer, inits=inits)
