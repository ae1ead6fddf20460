"""Golden digests: the fixture bundle's bytes are the behaviour contract.

``tests/golden.sha256`` holds the SHA-256 of the five fixture inputs and of
every file the fixture config writes, one ``<digest>  <name>`` line each,
under a header naming the Python and numpy versions it was made with.  A
digest may change only together with a CHANGES.md entry that says why.

The same digests must come out under each OpenBLAS setting below, run in a
subprocess: the fit loop makes no BLAS or LAPACK call, so neither the BLAS
kernel nor its thread count may reach the bundle.  numpy's own SIMD level
still can, through ``np.exp``, ``np.log`` and ``np.power``, so it is not
varied here.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import textlaws
from textlaws.cli import main

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden.sha256"
INPUTS = ("corpus.txt", "lemmas.tsv", "merges.tsv", "overrides.tsv", "run.ini")
# each changed the fit bytes while the fit loop called BLAS and LAPACK
BLAS_SETTINGS = {
    "one-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
}


def _versions() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}"


def current_digests(out: Path) -> dict[str, str]:
    """Digest of each fixture input and of each file of a fresh bundle in ``out``."""
    if main(["--config", str(TESTS / "fixtures" / "run.ini"), "--out", str(out)]) != 0:
        raise RuntimeError("fixture run failed")
    return bundle_digests(out)


def bundle_digests(out: Path) -> dict[str, str]:
    """Digest of each fixture input and of each file of the bundle in ``out``."""
    files = [TESTS / "fixtures" / name for name in INPUTS] + sorted(out.iterdir())
    return {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
    }


def read_golden() -> tuple[str, dict[str, str]]:
    header, digests = [], {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header.append(line.lstrip("# "))
        elif line.strip():
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return " / ".join(header), digests


def write_golden(digests: dict[str, str]) -> None:
    lines = [
        "# SHA-256 of the tests/fixtures/run.ini inputs and bundle",
        f"# made under {_versions()}",
    ]
    lines += [f"{digest}  {name}" for name, digest in digests.items()]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")


def differences(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return [
        f"{name}: expected {expected.get(name, '(absent)')}, got {actual.get(name, '(absent)')}"
        for name in sorted(expected.keys() | actual.keys())
        if expected.get(name) != actual.get(name)
    ]


def test_fixture_bundle_matches_golden_digests(tmp_path):
    header, expected = read_golden()
    actual = current_digests(tmp_path / "out")
    assert len([n for n in expected if n.startswith("out/")]) == 15
    diffs = differences(expected, actual)
    assert not diffs, (
        f"golden digests differ ({header}; running {_versions()}):\n" + "\n".join(diffs)
    )


def _linked_to_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.parametrize("setting", BLAS_SETTINGS.values(), ids=BLAS_SETTINGS)
def test_fixture_bundle_matches_golden_digests_under_blas_setting(setting, tmp_path):
    if not _linked_to_openblas():
        pytest.skip("numpy is not linked to OpenBLAS")
    out = tmp_path / "out"
    env = dict(os.environ, **setting, PYTHONPATH=str(Path(textlaws.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-m", "textlaws",
         "--config", str(TESTS / "fixtures" / "run.ini"), "--out", str(out)],
        env=env, capture_output=True, check=True,
    )
    diffs = differences(read_golden()[1], bundle_digests(out))
    assert not diffs, f"golden digests differ under {setting}:\n" + "\n".join(diffs)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        write_golden(current_digests(Path(tmp) / "out"))
    print(f"wrote {GOLDEN}")
