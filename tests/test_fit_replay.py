"""Self-test of ``tools/fit_replay.py`` on the fixture config alone."""

import importlib.util
from pathlib import Path

import pytest

from textlaws import pipeline
from textlaws.fitting import MODELS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_replay.py"
spec = importlib.util.spec_from_file_location("fit_replay", TOOL)
fit_replay = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fit_replay)


@pytest.fixture(scope="module")
def fixture_replay(tmp_path_factory):
    models, fit = dict(MODELS), pipeline.lm_fit
    out = tmp_path_factory.mktemp("replay") / "out"
    code, lines = fit_replay.replay_run(fit_replay.FIXTURE, out, "fixture", "run")
    assert MODELS == models and pipeline.lm_fit is fit
    return code, lines


def test_replay_prints_one_line_per_fit_and_restores_the_package(fixture_replay):
    code, lines = fixture_replay
    assert code == 0
    rows = [line.split("\t") for line in lines]
    assert [row[2] for row in rows] == [
        "PhonemeGamma", "ShiftedMenzerath", "MeanSyllablePower", "ZipfMandelbrot"
    ]
    for _, _, _, points, iterations, accepted, evaluations, flag, sse, params in rows:
        assert int(points) >= 3 and int(evaluations) >= int(accepted) >= 1
        assert int(iterations) >= int(accepted)
        assert flag == "true" and float(sse) >= 0 and params.startswith("{")


def test_compare_flags_a_worse_or_unconverged_fit(fixture_replay, tmp_path):
    _, lines = fixture_replay
    a = tmp_path / "a.txt"
    a.write_text("\n".join(lines) + "\n", encoding="utf-8")
    totals, flags = fit_replay.compare(a, a)
    assert flags == []
    assert [row.split("\t")[0] for row in totals[1:]] == sorted(
        ["PhonemeGamma", "ShiftedMenzerath", "MeanSyllablePower", "ZipfMandelbrot"]
    )

    worse = [line.split("\t") for line in lines]
    worse[0][8] = repr(float(worse[0][8]) * (1 + 1e-8))
    worse[1][7] = "false"
    worse[2][8] = repr(float(worse[2][8]) * (1 + 1e-10))  # within the tolerance
    b = tmp_path / "b.txt"
    b.write_text("\n".join("\t".join(row) for row in worse) + "\n", encoding="utf-8")
    _, flags = fit_replay.compare(a, b)
    assert len(flags) == 2
    assert "PhonemeGamma" in flags[0] and "SSE" in flags[0]
    assert "ShiftedMenzerath" in flags[1] and "converged in A, not in B" in flags[1]
    # the reverse direction flags neither: B is the reference side there
    assert fit_replay.compare(b, a)[1] == []
