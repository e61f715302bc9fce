"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is printed once with its unit,
that the verdict gate catches a negative control that passes, and that the
traced run leaves no wrapper installed.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (imports chernpatch from the checkout's src/)
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    for name, wl in workloads.WORKLOADS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            wl._replace(sizes=wl.tiny))


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), keys
    return dict(pairs)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_printed_once_with_its_unit(tiny, capsys, workload,
                                                 trace, section):
    run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
              "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    out = json.loads(last, object_pairs_hook=_no_duplicates)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = run.load_spec()[section]
    assert list(out["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def _springer_not_corrupted(objs, seeds, sizes):
    return [workloads._suite("springer", expect=False, seed=seeds[1],
                             tol=1e-9, samples=sizes["springer"])]


def _raw_replaced_by_c1(objs, seeds, sizes):
    return [workloads._descent_check("raw-curvature", objs["chern"][1], objs,
                                     False)]


@pytest.mark.parametrize("workload,step,flipped", [
    ("exact", "springer_corrupt", _springer_not_corrupted),
    ("descent", "raw", _raw_replaced_by_c1),
])
def test_gate_catches_flipped_negative_control(tiny, monkeypatch, workload,
                                               step, flipped):
    wl = workloads.WORKLOADS[workload]
    monkeypatch.setitem(wl.steps, step, flipped)
    _, verdicts = run.run_untraced(workload, 5, 0)
    out = run.result([], {}, verdicts)
    assert not out["correct"]
    assert out["failed"] == 1
    assert [v.name for v in run.wrong(verdicts)] == [
        "springer" if workload == "exact" else "raw-curvature"]


def test_no_wrapper_left_after_traced_run(tiny):
    spec = run.load_spec()
    _, _, problems = run.run_traced("charts", 4, spec)
    assert problems == []
    assert tracer.left_replaced() == []


def test_wrappers_removed_when_a_pass_raises():
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert tracer.left_replaced()
            1 / 0
    assert tracer.left_replaced() == []
