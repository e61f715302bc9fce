"""Every demo except 05 runs to the end.  Demo 05 integrates a Chern form on
a fine sphere grid, which the quadrature suite already covers."""

import pathlib
import runpy

import pytest

DEMOS = sorted(p for p in (pathlib.Path(__file__).parent.parent / "demos").glob("*.py")
               if not p.name.startswith("05_"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.name.startswith("04_"):
        # the raw curvature is not a pullback; its Chern forms are
        assert out.count("pullback? False") == 1
        assert out.count("pullback? True") == 2
