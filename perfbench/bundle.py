"""Check one analyze bundle against the counts its input was designed with."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from corpus import ALL_MODELS, LM_MODELS, DesignedText

LENGTH_FILES = ("lengths_letters.dat", "lengths_phonemes.dat", "lengths_syllables.dat")
EXPECTED_FILES = (
    "profile.tsv", "profile.json", *LENGTH_FILES, "mean_syllable.dat",
    "rank_freq.dat", "coverage.dat", "topk.tsv", "fits.tsv", "fits.json",
    *(f"fitcurve_{model}.dat" for model in LM_MODELS),
)


def _points(path: Path) -> list[tuple[float, float]]:
    points = []
    for line in path.read_text("utf-8").splitlines():
        x, y = line.split()
        points.append((float(x), float(y)))
    return points


def check_bundle(out: Path, designed: DesignedText) -> list[str]:
    """Every way the bundle in ``out`` differs from the design; empty if none."""
    problems = []
    for name in EXPECTED_FILES:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif not path.read_bytes().endswith(b"\n"):
            problems.append(f"{name}: empty or truncated (no final newline)")
    if problems:
        return problems
    try:
        profile = json.loads((out / "profile.json").read_text("utf-8"))
        fits = json.loads((out / "fits.json").read_text("utf-8"))
        lengths = {name: _points(out / name) for name in LENGTH_FILES}
        ranks = _points(out / "rank_freq.dat")
        coverage = _points(out / "coverage.dat")
    except ValueError as exc:
        return [f"unparsable bundle file: {exc}"]

    expected = {
        "N": designed.N,
        "F": designed.F,
        "V": designed.V,
        "mean_sentence_len_words": designed.mean_sentence_len,
    }
    for key, value in expected.items():
        if profile.get(key) != value:
            problems.append(f"profile.json {key} = {profile.get(key)!r}, designed {value!r}")
    for name, points in lengths.items():
        mass = sum(y for _, y in points)
        if abs(mass - 1.0) > 1e-3:
            problems.append(f"{name}: fractions sum to {mass}, not 1")
    total = sum(f for _, f in ranks)
    if total != designed.rank_total:
        problems.append(f"rank_freq.dat: frequencies sum to {total:g}, designed {designed.rank_total}")
    if not coverage or coverage[-1][1] != 1.0:
        problems.append("coverage.dat: last ordinate is not 1")
    missing = [model for model in ALL_MODELS if model not in fits]
    if missing:
        problems.append(f"fits.json: no entry for {', '.join(missing)}")
    return problems


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file in a bundle, for the byte-identity check."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
