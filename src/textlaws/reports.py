"""Deterministic report writers: plot data, TSV and JSON bundles.

Plot files carry two space-separated columns at six significant digits;
percentages are written with four decimals.  All files end with a newline
and are UTF-8, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .indices import CorpusProfile

# rows per formatted slice of a plot file: one text of a whole wide rank
# spectrum would raise a run's peak memory
_PLOT_ROWS = 4096


def emit_plot_data(series, path: str | Path) -> None:
    """Write an ``x y`` file, one point per line, no header.

    ``series`` is a sequence of (x, y) pairs or an (n, 2) array.  One ``%``
    template formats every value as ``f"{v:.6g}"`` would: ints format
    through ``float`` either way.  The rows are formatted and written
    ``_PLOT_ROWS`` at a time.
    """
    points = np.asarray(series, dtype=float)
    if not points.size:
        raise ValidationError(f"refusing to write an empty plot file: {path}")
    with open(path, "w", encoding="utf-8") as out:
        for start in range(0, len(points), _PLOT_ROWS):
            part = points[start:start + _PLOT_ROWS]
            out.write(("%.6g %.6g\n" * len(part)) % tuple(part.ravel().tolist()))


def _scalar_str(value, float_format) -> str:
    """One TSV cell; ``float_format`` renders floats (``repr`` keeps every digit)."""
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float_format(value)
    return str(value)


def write_profile(profile: CorpusProfile, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    record = asdict(profile)
    tsv = "".join(f"{key}\t{_scalar_str(value, repr)}\n" for key, value in record.items())
    (out_dir / "profile.tsv").write_text(tsv, encoding="utf-8")
    (out_dir / "profile.json").write_text(
        json.dumps(record, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )


def write_topk(rows, path: str | Path) -> None:
    """Rows of (rank, item, per cent); percentages at four decimals."""
    lines = [f"{rank}\t{item}\t{pct:.4f}" for rank, item, pct in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_fits(report: dict[str, dict], out_dir: str | Path) -> None:
    """Write fits.tsv (model / segment / key / value) and nested fits.json.

    Each entry's keys are written in their order: a dict as ``key.name`` rows
    (``param.name`` for ``params``), ``segments`` per interval, a scalar as is.
    """
    out_dir = Path(out_dir)
    fmt = "{:.10g}".format
    lines = ["model\tsegment\tkey\tvalue"]
    for model_id, entry in report.items():
        for key, value in entry.items():
            if key == "segments":
                for seg in value:
                    tag = f"{seg['lo']}:{seg['hi']}"
                    lines += [f"{model_id}\t{tag}\t{name}\t{_scalar_str(v, fmt)}"
                              for name, v in seg.items() if name not in ("lo", "hi")]
            elif isinstance(value, dict):
                prefix = "param" if key == "params" else key
                lines += [f"{model_id}\t\t{prefix}.{name}\t{_scalar_str(v, fmt)}"
                          for name, v in value.items()]
            else:
                lines.append(f"{model_id}\t\t{key}\t{_scalar_str(value, fmt)}")
    (out_dir / "fits.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "fits.json").write_text(
        json.dumps(report, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )
