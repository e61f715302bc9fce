"""Canonical reports are byte-identical to the committed goldens.

Every ``verify`` suite runs at seed 0 at a small size, and the curvature
table of sp(4) on the standard representation is rendered through the CLI.
A change that moves any digit of a report fails here.  When such a move is
intended, regenerate the goldens with

    PYTHONPATH=src python tests/test_report_bytes.py

and say in CHANGES.md why the digits moved.
"""

import pathlib

import pytest

from chernpatch import cli, suites

GOLDEN = pathlib.Path(__file__).parent / "golden"

SIZES = {
    "partition": {"samples": 200},
    "vanishing": {"samples": 256},
    "patch": {"samples": 10},
    "nilpotent": {"samples": 20},
    "springer": {"samples": 8},
    "classify": {"samples": 10},
    "bridge": {"samples": 6},
    "pifiber": {"samples": 10},
    "extension": {"samples": 10},
    "patched": {"samples": 10},
    "quadrature": {"samples": 120},
    "schubert": {},
}

CURVATURE = ["curvature", "--group", "sp4", "--rep", "std"]


def _suite_text(name):
    return suites.render_report(suites.run_suite(name, seed=0, **SIZES[name]))


def _curvature_text(tmp_path):
    out = tmp_path / "curvature.json"
    assert cli.main(["--out", str(out)] + CURVATURE) == 0
    return out.read_text(encoding="utf-8").rstrip("\n")


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_report_matches_golden(name):
    golden = (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")
    assert _suite_text(name) == golden.rstrip("\n")


def test_curvature_report_matches_golden(tmp_path):
    golden = (GOLDEN / "curvature_sp4_std.json").read_text(encoding="utf-8")
    assert _curvature_text(tmp_path) == golden.rstrip("\n")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(suites.SUITES):
        (GOLDEN / f"verify_{name}.json").write_text(
            _suite_text(name) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "curvature_sp4_std.json").write_text(
            _curvature_text(pathlib.Path(tmp)) + "\n", encoding="utf-8")
