"""Spans and call counts around the public functions of each chernpatch layer.

The wrappers are installed from the benchmark on module or class attributes
and restored afterwards; nothing inside chernpatch knows about them.  Spans
are kept in memory (id, name, start, end, parent) and written out once the
traced pass is over.  A span's self time is its duration minus the time
covered by its child spans.
"""

import contextlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

from chernpatch import (charts, connections, dual, exterior, hcrepr,
                        invariants, liecore, schubert, siegel, strata)


_ESV = "invariants.elementary_symmetric_value"


def _esv_name(args, kwargs):
    """Split the characteristic-polynomial calls by exact or float input."""
    return _ESV + (".exact" if np.asarray(args[0]).dtype == object
                   else ".float")


# (owner, attribute, metric prefix, kind).  kind "span" records a span and a
# call count; "count" only counts, for functions too small or too frequent
# for a span.  A callable prefix picks the name per call.
TARGETS = [
    (liecore, "group_factor_fine", "liecore.group_factor_fine", "span"),
    (liecore.ParabolicData, "split", "liecore.ParabolicData.split", "span"),
    (liecore, "cartan_split", "liecore.cartan_split", "span"),
    (liecore, "algebra_coords", "liecore.algebra_coords", "span"),
    (scipy.linalg, "logm", "scipy.logm", "span"),
    (scipy.linalg, "expm", "scipy.expm", "span"),
    (charts.GroupChart, "mc_coeff", "charts.GroupChart.mc_coeff", "span"),
    (charts, "p1_chern_number", "charts.p1_chern_number", "span"),
    (charts, "curvature_bridge_residual",
     "charts.curvature_bridge_residual", "span"),
    (hcrepr.CanonicalExtension, "alg", "hcrepr.CanonicalExtension.alg",
     "span"),
    (hcrepr.CanonicalExtension, "__call__",
     "hcrepr.CanonicalExtension.__call__", "span"),
    (siegel, "section_mc", "siegel.section_mc", "span"),
    (siegel.SiegelModel, "omega_XY", "siegel.SiegelModel.omega_XY", "span"),
    (siegel.SiegelModel, "omega_patched", "siegel.SiegelModel.omega_patched",
     "span"),
    (dual, "seed", "dual.seed", "count"),
    (exterior.SmoothMap, "jacobian", "exterior.SmoothMap.jacobian", "span"),
    (exterior.SmoothMap, "_fd_jacobian", "exterior.SmoothMap._fd_jacobian",
     "count"),
    (exterior.SmoothMap, "value", "exterior.SmoothMap.value", "count"),
    (exterior.VForm, "evaluate", "exterior.VForm.evaluate", "span"),
    (exterior, "pifiber_check", "exterior.pifiber_check", "span"),
    (invariants, "elementary_symmetric_value", _esv_name, "span"),
    (invariants, "springer_check", "invariants.springer_check", "span"),
    (invariants, "chern_forms", "invariants.chern_forms", "span"),
    (strata.FlagTubeModel, "B", "strata.FlagTubeModel.B", "span"),
    (strata.FlagTubeModel, "partition_weights",
     "strata.FlagTubeModel.partition_weights", "span"),
    (strata, "family_vanishing_check", "strata.family_vanishing_check",
     "span"),
    (connections.InvariantConnection, "omega0",
     "connections.InvariantConnection.omega0", "span"),
    (connections.InvariantConnection, "curvature0",
     "connections.InvariantConnection.curvature0", "span"),
    (connections, "make_invariant_connection",
     "connections.make_invariant_connection", "span"),
    (schubert, "ring_multiply", "schubert.ring_multiply", "span"),
    (schubert, "generation_check", "schubert.generation_check", "span"),
    (schubert, "tangent_chern", "schubert.tangent_chern", "span"),
    # chern_number looks the tangent bundle up in this table, which holds
    # the function as it was at import, not the module attribute.
    (schubert._BUNDLES, "tangent", "schubert.tangent_chern", "span"),
]

# The evaluator the benchmark hands to SiegelModel.form_from_evaluator.
EVALUATOR = "siegel.evaluator"


def target_names():
    """Every metric prefix a traced pass can report."""
    names = {EVALUATOR}
    for _, _, name, _ in TARGETS:
        if name is _esv_name:
            names.update({_ESV + ".exact", _ESV + ".float"})
        else:
            names.add(name)
    return names


def _get(owner, attr):
    """The attribute, or the entry of a dict, without binding it."""
    if isinstance(owner, dict):
        return owner[attr]
    return inspect.getattr_static(owner, attr)


def _label(owner, attr):
    if isinstance(owner, dict):
        return f"table entry {attr!r}"
    return f"{owner.__name__}.{attr}"


_ORIGINALS = [(owner, attr, _get(owner, attr))
              for owner, attr, _, _ in TARGETS]


class Tracer:
    """Records calls and spans while its wrappers are installed."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.spans = []        # (id, name, start, end, parent id or None)
        self._stack = []       # [id, child seconds] of the open spans
        self._saved = []       # (owner, attribute, original, was own attr)

    # recording -------------------------------------------------------

    def _open(self, name):
        self.calls[name] += 1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append([sid, 0.0])
        return sid, time.perf_counter()

    def _close(self, sid, name, start):
        end = time.perf_counter()
        _, child = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans[sid] = (sid, name, start, end,
                           parent[0] if parent is not None else None)

    @contextlib.contextmanager
    def span(self, name):
        """A named span that is not a function call."""
        sid, start = self._open(name)
        try:
            yield
        finally:
            self._close(sid, name, start)

    def spanned(self, fn, name):
        def wrapper(*args, **kwargs):
            nm = name(args, kwargs) if callable(name) else name
            sid, start = self._open(nm)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, nm, start)
        return wrapper

    def counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # installing ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer wrappers already installed")
        for owner, attr, name, kind in TARGETS:
            original = _get(owner, attr)
            own = isinstance(owner, dict) or attr in vars(owner)
            self._saved.append((owner, attr, original, own))
            make = self.spanned if kind == "span" else self.counted
            if isinstance(owner, dict):
                owner[attr] = make(original, name)
            else:
                setattr(owner, attr, make(original, name))

    def restore(self):
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write_spans(self, fh, label):
        """Write the recorded spans to fh as JSON lines, times in seconds
        from the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        for sid, name, start, end, parent in self.spans:
            fh.write(json.dumps({"pass": label, "id": sid, "name": name,
                                 "start": start - t0, "end": end - t0,
                                 "parent": parent}) + "\n")


def left_replaced():
    """Wrapped attributes that no longer hold their original value."""
    return [_label(owner, attr) for owner, attr, original in _ORIGINALS
            if _get(owner, attr) is not original]
