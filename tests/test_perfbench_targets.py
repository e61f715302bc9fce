"""The benchmark harness wraps chernpatch functions by name; a refactor that
drops or renames one breaks the benchmark, so tier-1 imports its tracer."""

import pathlib
import sys


def test_tracer_targets_exist_and_are_unwrapped():
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    assert tracer.left_replaced() == []
