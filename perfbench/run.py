"""chernpatch verifier benchmark.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; chernpatch is imported from its
src/ directory.  One client, closed loop: each check starts when the
previous one returns.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, from untraced passes; with
--trace 1 they are its per-layer metrics, from a traced pass (see
tracer.py), and the spans are written to .bench_trace/.

attempted and failed count verdicts: every suite report must pass, the
c1 and c2 descent checks must pass, and the two negative controls (raw
curvature in descent, corrupted springer pairs in exact) must fail.
"""

import os

# Every matrix is at most 6x6; BLAS threads would only contend for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 4        # fewest timed passes in a run
SETUP_PROBES = 7      # fresh processes timing import plus object building
# Untraced (False) and traced (True) passes of a traced run, interleaved so
# that a change of machine speed hits both kinds alike.
TRACE_ORDER = (False, True, False, True, False)
WARMUP_INDEX = 10**6  # pass index of the untimed warm-up pass (tiny sizes)


def _import_chernpatch():
    if not (SRC / "chernpatch" / "__init__.py").is_file():
        sys.exit(f"run.py: no chernpatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chernpatch
    if Path(chernpatch.__file__).resolve().parent != SRC / "chernpatch":
        sys.exit(f"run.py: imported chernpatch from {chernpatch.__file__}, "
                 f"not from {SRC}")


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _identity(fn):
    return fn


def run_pass(workload, seeds, sizes, tracer=None):
    """One pass: build fresh objects, run every step, time the steps.

    Returns (wall seconds, {step: seconds}, verdicts, {step: call counts}).
    A step that raises yields one wrong verdict and the pass goes on."""
    wrap = _identity
    if tracer is not None:
        wrap = lambda fn: tracer.counted(fn, tracer_mod.EVALUATOR)  # noqa: E731
    objs = workload.build(seeds, sizes, wrap)
    phases, verdicts, step_calls = {}, [], {}
    t_pass = time.perf_counter()
    for step, fn in workload.steps.items():
        before = Counter(tracer.calls) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"phase.{step}"):
                    verdicts += fn(objs, seeds, sizes)
            else:
                verdicts += fn(objs, seeds, sizes)
        except Exception:  # a crashing check is a failed check, not a stop
            traceback.print_exc()
            verdicts.append(workloads.Verdict(step, True, False, []))
        phases[step] = time.perf_counter() - t0
        if tracer is not None:
            step_calls[step] = tracer.calls - before
    return time.perf_counter() - t_pass, phases, verdicts, step_calls


def wrong(verdicts):
    return [v for v in verdicts if v.passed != v.expect]


def headroom(verdicts):
    """min over positive-tolerance checks that must pass of log10(tol/res).

    A residual of exactly 0 puts no limit on the headroom and is skipped."""
    digits = [math.log10(tol / res)
              for v in verdicts if v.expect
              for res, tol in v.residuals if tol > 0 and res > 0]
    return min(digits) if digits else float("nan")


def setup_seconds(name, seed):
    """Seconds a fresh process needs to import chernpatch and build objects."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name,
                          str(seed)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def run_untraced(name, seed, seconds):
    """A warm-up pass, then seconds / pass_s timed passes with the set-up
    probes spread between them, so that both sample the same stretch of
    machine speed.

    Each pass and each probe is normalised to reference speed by the
    calibrations taken just before and after it (see speed.py)."""
    workload = workloads.WORKLOADS[name]
    passes = max(MIN_PASSES, round(seconds / workload.pass_s))
    # slot i runs the probes j with j * passes // SETUP_PROBES == i
    probe_slots = [j * passes // SETUP_PROBES for j in range(SETUP_PROBES)]
    run_pass(workload, workloads.pass_seeds(seed, WARMUP_INDEX), workload.tiny)
    raw = {"passes": [], "probes": [], "calibrations": [speed.calibrate()]}
    walls, setups, verdicts, rooms = [], [], [], []
    for index in range(passes):
        for _ in range(probe_slots.count(index)):
            probe = setup_seconds(name, seed)
            raw["calibrations"].append(speed.calibrate())
            raw["probes"].append(probe)
            setups.append(probe * speed.factor(*raw["calibrations"][-2:]))
        wall, _, got, _ = run_pass(workload, workloads.pass_seeds(seed, index),
                                   workload.sizes)
        raw["calibrations"].append(speed.calibrate())
        raw["passes"].append(wall)
        walls.append(wall * speed.factor(*raw["calibrations"][-2:]))
        verdicts += got
        rooms.append(headroom(got))
    print("measured:", json.dumps(raw), flush=True)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "residual_headroom_digits": statistics.median(rooms),
    }
    return metrics, verdicts


def _per_layer_value(metric, name, base, traced, step_calls):
    """Value of one per-layer metric named in BENCHMARK.json."""
    a, b = traced
    if metric.startswith("phase."):
        wl, step, unit = metric.split(".")[1:]
        if (wl not in workloads.WORKLOADS or unit != "s"
                or step not in workloads.WORKLOADS[wl].steps):
            raise KeyError(metric)
        if wl != name:
            return 0.0
        return statistics.median(p[step] for p in base["phases"])
    if metric == "trace.overhead_ratio":
        return (statistics.median([a["wall"], b["wall"]])
                / statistics.median(base["walls"]))
    if metric == "exterior.jacobian.dual_hit_ratio":
        tries = a["tracer"].calls["dual.seed"]
        fallbacks = a["tracer"].calls["exterior.SmoothMap._fd_jacobian"]
        return (tries - fallbacks) / tries if tries else 0.0
    if metric == "siegel.evaluator_calls_per_form_eval":
        ev = tracer_mod.EVALUATOR
        steps = [c for c in step_calls.values() if c[ev]]
        evals = sum(c["exterior.VForm.evaluate"] for c in steps)
        return sum(c[ev] for c in steps) / evals if evals else 0.0
    prefix, _, kind = metric.rpartition(".")
    if prefix not in tracer_mod.target_names():
        raise KeyError(metric)
    if kind == "calls":
        return a["tracer"].calls[prefix]
    if kind == "self_s":
        return (a["tracer"].self_s[prefix] + b["tracer"].self_s[prefix]) / 2
    raise KeyError(metric)


def run_traced(name, seed, spec, span_dir=None):
    """A warm-up pass, then untraced and traced passes in turn, all at the
    inputs of pass 0.  Returns (metrics, verdicts, problems), where problems
    names every count or headroom that did not repeat."""
    workload = workloads.WORKLOADS[name]
    sizes = workload.sizes
    seeds = workloads.pass_seeds(seed, 0)
    run_pass(workload, workloads.pass_seeds(seed, WARMUP_INDEX), workload.tiny)
    base = {"walls": [], "phases": [], "rooms": []}
    traced, verdicts = [], []
    cal = [speed.calibrate()]
    for traced_pass in TRACE_ORDER:
        tracer = tracer_mod.Tracer() if traced_pass else None
        with tracer or contextlib.nullcontext():
            wall, phases, got, step_calls = run_pass(workload, seeds, sizes,
                                                     tracer)
        cal.append(speed.calibrate())
        f = speed.factor(cal[-2], cal[-1])
        verdicts += got
        if traced_pass:
            traced.append({"tracer": tracer, "wall": wall * f,
                           "room": headroom(got), "step_calls": step_calls})
        else:
            base["walls"].append(wall * f)
            base["phases"].append({k: v * f for k, v in phases.items()})
            base["rooms"].append(headroom(got))
    problems = tracer_mod.left_replaced()
    a, b = traced
    for key in sorted(set(a["tracer"].calls) | set(b["tracer"].calls)):
        if a["tracer"].calls[key] != b["tracer"].calls[key]:
            problems.append(f"{key}.calls {a['tracer'].calls[key]} != "
                            f"{b['tracer'].calls[key]}")
    rooms = base["rooms"] + [a["room"], b["room"]]
    if len({repr(r) for r in rooms}) != 1:
        problems.append(f"residual_headroom_digits {rooms}")
    if span_dir is not None:
        span_dir.mkdir(exist_ok=True)
        with open(span_dir / f"{name}-seed{seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for label, t in zip("ab", traced):
                t["tracer"].write_spans(fh, label)
    metrics = {m["name"]: _per_layer_value(m["name"], name, base, traced,
                                           a["step_calls"])
               for m in spec["per_layer"]}
    return metrics, verdicts, problems


def result(spec_metrics, metrics, verdicts, problems=()):
    """The result object; wrong verdicts and problems are printed first."""
    bad = wrong(verdicts)
    for v in bad:
        print(f"wrong verdict: {v.name} expected "
              f"{'pass' if v.expect else 'fail'}", flush=True)
    for p in problems:
        print(f"not repeatable: {p}", flush=True)
    return {"correct": not bad and not problems,
            "attempted": len(verdicts), "failed": len(bad),
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]}
                        for m in spec_metrics}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.trace:
        metrics, verdicts, problems = run_traced(
            args.workload, args.seed, spec, span_dir=ROOT / ".bench_trace")
        out = result(spec["per_layer"], metrics, verdicts, problems)
    else:
        metrics, verdicts = run_untraced(args.workload, args.seed,
                                         args.seconds)
        out = result(spec["end_to_end"], metrics, verdicts)
    print(json.dumps(out))


_import_chernpatch()
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    main()
