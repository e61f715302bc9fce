"""The benchmark harness wraps chernpatch functions by name and calls them
with the arguments of its workloads; a refactor that drops, renames or
changes the signature of one breaks the benchmark, so tier-1 imports its
tracer and runs one tiny traced pass of each workload."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))
try:
    import run
    import tracer
    import workloads
finally:
    sys.path.pop(0)


def test_tracer_targets_exist_and_are_unwrapped():
    assert tracer.left_replaced() == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_tiny_traced_pass_is_correct(name):
    wl = workloads.WORKLOADS[name]
    seeds = workloads.pass_seeds(0, 0)
    with tracer.Tracer() as t:
        _, _, verdicts, _ = run.run_pass(wl, seeds, wl.tiny, tracer=t)
    assert run.wrong(verdicts) == []
    assert tracer.left_replaced() == []
