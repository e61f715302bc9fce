"""Every demo runs to the end."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.name.startswith("04_"):
        # the raw curvature is not a pullback; its Chern forms are
        assert out.count("pullback? False") == 1
        assert out.count("pullback? True") == 2
    if path.name.startswith("05_"):
        # each quadrature recovers its weight; the exact degree is 2
        for w in (2, 1, -1, -3):
            assert f"weight {w:>2}: quadrature = {w:+.6f}  (exact {w})" in out
        assert "exact tangent degree of the projective line: 2\n" in out
