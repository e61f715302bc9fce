"""Named verification suites with deterministic JSON-friendly reports.

Each suite draws its randomness from a seeded generator and returns a
plain dict: same config, same report, byte for byte once serialized with
sorted keys.  No timestamps, no environment probes.

Every check is _check(name, residuals, tol or floor), the package's one
reduction of residuals: a sequence of arrays or numbers, one per stack or a
single one (a stack whose residuals are large hands over np.max(np.abs(.))).
max_residual is their largest |entry| by np.max, 0.0 for an empty sequence,
and the check passes when it is <= tol or, for a negative control, > floor;
a NaN entry makes it NaN, which fails both.
"""

import json

import numpy as np

from . import charts, connections, exterior as ext, hcrepr, invariants as inv
from . import liecore, schubert, siegel, strata
from .errors import ConditionViolation, PreconditionFailed

__all__ = ["SUITES", "run_suite", "render_report", "default_model",
           "model_from_dict"]

SCHEMA = 1


def model_from_dict(d):
    """FlagTubeModel from {"strata": [...], "flags": [...], "eps0"}."""
    if not isinstance(d, dict):
        raise PreconditionFailed(f"a model must be a JSON object, got {d!r}")
    strata._reject_unknown_keys(d, {"strata", "flags", "eps0"}, "model")
    if not d.get("flags"):
        raise PreconditionFailed("a flag model needs at least one flag")
    eps0 = d.get("eps0", 1.0)
    if isinstance(eps0, bool) or not isinstance(eps0, (int, float)):
        raise PreconditionFailed(f"eps0 must be a number, got {eps0!r}")
    return strata.FlagTubeModel(strata=d.get("strata", []), flags=d["flags"],
                                eps0=eps0)


def default_model():
    """Three-stratum flag used by the partition and vanishing suites."""
    return model_from_dict({
        "strata": [{"name": "Z", "dimC": 0}, {"name": "Y", "dimC": 1},
                   {"name": "X", "dimC": 3}],
        "flags": [["Z", "Y", "X"]], "eps0": 1.0})


def _forest_model():
    """Forest with a length-4 flag and a branching second flag."""
    return model_from_dict({
        "strata": [{"name": "A", "dimC": 0}, {"name": "B", "dimC": 1},
                   {"name": "C", "dimC": 2}, {"name": "D", "dimC": 4},
                   {"name": "E", "dimC": 3}],
        "flags": [["A", "B", "C", "D"], ["A", "B", "E"]], "eps0": 1.0})


def _check(name, residuals, tol=None, floor=None):
    """The check of the module docstring.  Entries are read as complex
    arrays, exact for counts, Fractions and floats: numpy's integer loops
    would map more of its library into memory."""
    residual = float(np.max([np.max(np.abs(np.asarray(r, complex)), initial=0.0)
                             for r in residuals], initial=0.0))
    bound, ok = ({"tol": tol}, residual <= tol) if floor is None else (
        {"floor": floor}, residual > floor)
    return {"name": name, "max_residual": residual, **bound, "pass": ok}


def _finish(name, seed, tol, samples, checks, extra=None):
    rep = {"schema": SCHEMA, "suite": name, "seed": int(seed),
           "tol": tol, "samples": int(samples), "checks": checks,
           "pass": all(c["pass"] for c in checks)}
    if extra:
        rep.update(extra)
    return rep


# individual suites -----------------------------------------------------


def suite_partition(seed=0, tol=1e-12, samples=10000, model=None,
                    corrupt=False):
    """Partition weights telescope to 1 at random points of a forest, drawn
    in bulk, one stack per chain; corrupt drops the top stratum's weight."""
    rng = np.random.default_rng(seed)
    model = model or _forest_model()
    lens = np.array([len(f) for f in model.flags])
    fi = rng.integers(len(lens), size=samples)
    L = rng.integers(1, lens[fi] + 1)
    u = rng.uniform(0.0, 1.5, (samples, lens.max() - 1))
    # one group per (flag, length); the residual is a max, blind to order
    key = fi * (lens.max() + 1) + L
    residuals = []
    for k in np.unique(key).tolist():
        f, n = divmod(k, lens.max() + 1)
        chain = model.flags[f][:n]
        w = model.partition_weights(chain, u[key == k, :n - 1]
                                    * model.eps(chain[-1]))
        total = sum(w.T[:-1] if corrupt else w.T)
        residuals.append(np.max(np.abs(total - 1.0)))
    name = "weights-sum-to-one" + ("-with-dropped-weight" if corrupt else "")
    return _finish("partition", seed, tol, samples,
                   [_check(name, residuals, tol)])


def suite_vanishing(seed=0, tol=0.0, samples=10000, model=None,
                    corrupt=False):
    """Exhaustive support-separation grid check on a three-step flag;
    corrupt collapses the eps-family to the eps of the flag's first stratum."""
    model = model or default_model()
    flag = model.flags[0]
    if corrupt:
        model = strata.FlagTubeModel(
            [{"name": Y, "dimC": model.dimC[flag[0]]} for Y in model.names],
            model.flags, model.eps0)
    if len(flag) < 3:
        # with 2 strata no pair (n' < n <= m < m') exists to check
        raise PreconditionFailed(
            f"vanishing needs a first flag of at least 3 strata, got {flag}")
    per_axis = round(samples ** (1.0 / (len(flag) - 1)))
    if per_axis < 2:
        raise PreconditionFailed(
            f"vanishing needs at least 2 grid points per axis, "
            f"samples={samples} gives {per_axis}")
    grid = np.linspace(0.0, 1.1 * model.eps(flag[0]), per_axis)
    report = strata.family_vanishing_check(model, flag, grid)
    checks = [_check("tube-support-separation"
                     + ("-with-collapsed-eps" if corrupt else ""),
                     [len(report["violations"])], tol)]
    return _finish("vanishing", seed, tol, samples, checks,
                   {"grid_points": per_axis ** (len(flag) - 1),
                    "pairs_checked": report["checked"]})


_PATCH_PARTS, _PATCH_DIM = 3, 2  # patch: 3 End(C^2)-valued 1-forms a sample
_PATCH_STACK = 64  # patch: samples of one chart dimension a stack at most
_SHIFT_DIM = 4  # matrix size of the commuting pairs of nilpotent, springer


def _random_weights(m, rng):
    """(c0, c1, c2) of all but the last of the _PATCH_PARTS quadratic weights,
    from one draw: row i holds c0, c1 (m,) and c2 (m, m) of weight i."""
    c = rng.uniform(-1, 1, (_PATCH_PARTS - 1, 1 + m + m * m))
    return c[:, 0], c[:, 1:1 + m], c[:, 1 + m:].reshape(-1, m, m)


def _random_affine_form(m, rng):
    """(A, B), (m, d, d) and (m, m, d, d), of the End(C^d)-valued 1-form
    A_i + sum_k x_k B_ik, from one draw: row i holds A_i, then B_i / 0.4."""
    d = _PATCH_DIM
    c = rng.uniform(-1, 1, (m, (1 + m) * d * d))
    return c[:, :d * d].reshape(m, d, d), 0.4 * c[:, d * d:].reshape(m, m, d, d)


def _weights(coeffs, xs):
    """(f, df), (S, P, parts) and (S, P, parts, m), of the quadratic weights
    of S samples at their (S, P, m) points: f_i = c0 + 0.3 c1.x + 0.1 x.c2.x
    for all but the last, which is 1 - the others; gradients in closed form."""
    c0, c1, c2 = (c[:, None] for c in coeffs)
    col = xs[..., None]                      # each x as an (m, 1) column
    c2x = (c2 @ col[:, :, None])[..., 0]     # (S, P, parts - 1, m)
    f = c0 + 0.3 * (c1 @ col)[..., 0] + 0.1 * (c2x @ col)[..., 0]
    df = 0.3 * c1 + 0.1 * ((c2 + c2.swapaxes(-1, -2)) @ col[:, :, None])[..., 0]
    return (np.concatenate([f, 1.0 - f.sum(axis=-1, keepdims=True)], -1),
            np.concatenate([df, -df.sum(axis=-2, keepdims=True)], -2))


def _affine_values(A, B, xs):
    """omega_i = A_i + sum_k x_k B_ik, (S, P, m, d, d) a form, at the (S, P, m)
    points xs of S samples, from their stacked draws A and B."""
    return [A[:, i, None] + np.einsum("spk,sikrc->spirc", xs, B[:, i])
            for i in range(_PATCH_PARTS)]


def _affine_curvatures(B, values):
    """Omega_i = d omega_i + 1/2 [omega_i, omega_i] at the _affine_values."""
    a, b = ext._index_cols(B.shape[2], 2).T
    return [(B[:, i, b, a] - B[:, i, a, b])[:, None]   # d omega_i, constant
            + ext.bracket_pairs(np.asarray(om, complex))
            for i, om in enumerate(values)]


def _patch_combination(coeffs, A, B):
    """omega = sum_i f_i omega_i of S samples of one chart dimension m, as a
    VForm on (R, m) rows that come sample by sample, R / S to a sample."""
    S, m = len(A), A.shape[2]

    def combined(rows):
        xs = rows.reshape(S, -1, m)
        f = _weights(coeffs, xs)[0][..., None, None, None]
        return np.concatenate(sum(f[:, :, i] * om for i, om in
                                  enumerate(_affine_values(A, B, xs))))

    return ext.VForm(m, 1, combined)


def _patch_residual(group, corrupt):
    """max |formula - oracle| of one chart dimension's samples, one stack."""
    *coeffs, A, B, xs = (np.array(a) for a in zip(*group))
    f, df = map(np.concatenate, _weights(coeffs, xs))
    values = _affine_values(A, B, xs)
    formula = ext.combination_curvature(zip(
        f.T, (0.0 * df if corrupt else df).swapaxes(0, 1),
        map(np.concatenate, values),
        map(np.concatenate, _affine_curvatures(B, values))))
    oracle = ext.curvature_form(_patch_combination(coeffs, A, B)).func(
        np.concatenate(xs))
    return float(np.max(np.abs(formula - oracle)))


def suite_patch(seed=0, tol=1e-6, samples=100, nvars=4, corrupt=False):
    """Curvature of omega = sum_i f_i omega_i, for quadratic weights f_i
    summing to 1 and affine 1-forms omega_i: the product rule of
    ext.combination_curvature, with each df_i and Omega_i in closed form,
    against ext.curvature_form of omega, coefficient by coefficient at three
    points per sample.  The samples are drawn one at a time and grouped by
    chart dimension m; a group is one stack, run as it fills to
    _PATCH_STACK samples or at the end.  corrupt drops df_i."""
    rng = np.random.default_rng(seed)
    groups, residuals = {}, []
    for _ in range(samples):
        m = int(rng.integers(2, nvars + 1))
        coeffs = _random_weights(m, rng)
        A, B = zip(*[_random_affine_form(m, rng) for _ in range(_PATCH_PARTS)])
        group = groups.setdefault(m, [])
        group.append((*coeffs, A, B, rng.uniform(-0.5, 0.5, (3, m))))
        if len(group) == _PATCH_STACK:
            residuals.append(_patch_residual(groups.pop(m), corrupt))
    residuals += [_patch_residual(group, corrupt) for group in groups.values()]
    name = "combination-identity" + ("-with-dropped-dw" if corrupt else "")
    return _finish("patch", seed, tol, samples, [_check(name, residuals, tol)])


def _commuting_pairs(rng, count, dim=4, corrupt=False):
    """Integer stacks (M, N, det), (count, dim, dim) and (count,), of random
    pairs x = M / det, n = N / det with n nilpotent and [x, n] = 0, via a
    shared flag moved by an integer s with unit diagonal.

    Each kind of draw is one call for the whole stack, in this order: the
    eigenvalues of x0, (count, dim), sorted per row; the entries of n0 above
    the diagonal between equal eigenvalues, placed row-major; the
    off-diagonal entries of s, (count, dim (dim - 1)).  Then, round by
    round, the rows whose float det s, within 1e-9 of an integer, is below
    0.5 are redrawn together, in row order; the stacked inv.adjugate then
    confirms det s != 0.  M = s x0 adj(s), N = s n0 adj(s), all three
    negated where det s < 0.  corrupt: n0 is the square-zero [[1, 1], [-1,
    -1]] on the least and greatest eigenvalues of x0, moving its spectrum.
    """
    eye = np.eye(dim, dtype=np.int64)
    rows, cols = np.nonzero(eye == 0)
    vals = np.sort(rng.integers(-3, 4, (count, dim)))
    slots = np.triu(vals[:, :, None] == vals[:, None], 1)
    n0 = np.zeros((count, dim, dim), dtype=np.int64)
    n0[slots] = rng.integers(-2, 3, np.count_nonzero(slots))
    s = np.tile(eye, (count, 1, 1))
    redraw = np.arange(count)
    while redraw.size:
        s[redraw[:, None], rows, cols] = rng.integers(-2, 3,
                                                      (redraw.size, rows.size))
        redraw = redraw[np.abs(np.linalg.det(s[redraw])) < 0.5]
    if corrupt:
        n0[:] = 0
        n0[:, [[0], [-1]], [0, -1]] = [[1, 1], [-1, -1]]
    adj, det = inv.adjugate(s)
    if not det.all():
        raise PreconditionFailed("a kept flag matrix s is singular")
    # det > 0, as a Fraction's denominator: 0 / det is 0.0, not -0.0
    adj = adj * np.sign(det)[:, None, None]
    return s @ (vals[:, :, None] * eye) @ adj, s @ n0 @ adj, np.abs(det)


def suite_nilpotent(seed=0, tol=1e-9, samples=500, corrupt=False):
    """Elementary symmetric invariants ignore commuting nilpotent shifts.

    The exact check compares e_k(M) with e_k(M + N), M and N the (samples,
    4, 4) integer stacks of _commuting_pairs: e_k(M) = det^k e_k(x) with
    det != 0, so it fails exactly where e_k(x) != e_k(x + n).  M / det is
    float(Fraction), both below 2^53.  Four stacked characteristic
    polynomials in all.  corrupt: a non-commuting shift."""
    rng = np.random.default_rng(seed)
    M, N, det = _commuting_pairs(rng, samples, _SHIFT_DIM, corrupt)
    a = inv.elementary_symmetric_values(M)
    b = inv.elementary_symmetric_values(M + N)
    exact_bad = np.count_nonzero(np.array(a) != b)
    x, n = M / det[:, None, None], N / det[:, None, None]
    a = inv.elementary_symmetric_values(x)
    b = inv.elementary_symmetric_values(x + n)
    tag = "-with-corrupted-pair" if corrupt else ""
    checks = [_check("exact-invariance-failures" + tag, [exact_bad], 0.0),
              _check("float-invariance" + tag, [np.array(a) - b], tol)]
    return _finish("nilpotent", seed, tol, samples, checks)


def _shift_invariants(x):
    """e_1, ..., e_d of each matrix of a (..., d, d) stack, stacked on a
    leading axis, from one characteristic polynomial."""
    return np.stack(inv.elementary_symmetric_values(x)[1:])


def suite_springer(seed=0, tol=1e-9, samples=50, corrupt=False):
    """Invariant-polynomial evaluation through nilpotent perturbations: one
    springer_check of e_1, ..., e_4 together on the (samples, 4, 4) float
    stacks M / det, N / det.  corrupt: a triangular shift, no preconditions
    checked."""
    rng = np.random.default_rng(seed)
    if corrupt:
        draws = rng.standard_normal((samples, 2, _SHIFT_DIM, _SHIFT_DIM))
        x, n = draws[:, 0], np.triu(draws[:, 1], 1)
        residual = _shift_invariants(x + n) - _shift_invariants(x)
    else:
        M, N, det = _commuting_pairs(rng, samples, _SHIFT_DIM)
        x, n = M / det[:, None, None], N / det[:, None, None]
        residual = inv.springer_check(_shift_invariants, x, n, tol=1e-6)
    name = "invariance-with-corrupted-pair" if corrupt else "invariance"
    return _finish("springer", seed, tol, samples,
                   [_check(name, [residual], tol)])


def suite_classify(seed=0, samples=100):
    """Acceptance of model connections, rejection of perturbed tables."""
    rng = np.random.default_rng(seed)
    spec = liecore.sp2nR(1)
    rep = hcrepr.builtin_representation(spec, "det^2")
    nom = connections.nomizu_connection(spec, rep)  # raises if rejected
    accepted = 1
    # flat example: the standard representation restricted to K extends
    # to the whole group, so its inclusion is a Lie algebra homomorphism;
    # lamC reads complex coordinates, so the values are given in them
    rep_std = hcrepr.Representation(
        spec, "std-restriction", 2,
        lambda kc: np.asarray(kc, dtype=complex),
        lambda kc: np.asarray(kc, dtype=complex))
    basis = liecore.algebra_basis(spec)
    M, Minv = spec.complex_coords
    values = [M @ b @ Minv for b in basis]
    try:
        if connections.make_invariant_connection(spec, rep_std, values).is_flat():
            accepted += 1
    except ConditionViolation:
        pass
    # perturbing an element with a K part breaks (1); one in p breaks (2) alone
    kpart = liecore.cartan_split(basis)[0].any(axis=(1, 2))
    vals = np.repeat(nom.values[None], samples, axis=0)
    in_k = np.zeros(samples, dtype=bool)
    for s in range(samples):
        i = int(rng.integers(len(basis)))
        vals[s, i] += 0.1 * (rng.standard_normal(vals[s, i].shape)
                             + 1j * rng.standard_normal(vals[s, i].shape))
        in_k[s] = kpart[i]
    bad = ~(connections.condition_residuals(spec, rep, vals)
            <= connections.TOL)
    rejected = int(bad.any(axis=1).sum())
    correct_condition = int(np.sum(np.where(in_k, bad[:, 0],
                                            bad[:, 1] & ~bad[:, 0])))
    checks = [_check("model-connections-accepted", [2 - accepted], 0.0),
              _check("perturbations-rejected", [samples - rejected], 0.0),
              _check("violated-condition-identified",
                     [samples - correct_condition], 0.0)]
    return _finish("classify", seed, 1e-9, samples, checks)


def suite_bridge(seed=0, tol=1e-6, samples=20):
    """Chart-level curvature against the algebraic curvature tensor."""
    rng = np.random.default_rng(seed)
    checks = []
    # (group, representation, half-width of the sampled chart box, check)
    for spec, rep, half, name in (
            (liecore.sp2nR(1), "det^2", 0.4, "sp2-nomizu"),
            (liecore.sp2nR(2), "std", 0.2, "sp4-nomizu")):
        conn = connections.nomizu_connection(
            spec, hcrepr.builtin_representation(spec, rep))
        dim = len(liecore.algebra_basis(spec))
        pts = [rng.uniform(-half, half, dim) for _ in range(samples)]
        checks.append(_check(name, [charts.curvature_bridge_residual(
            spec, conn, pts, rng=rng)], tol))
    return _finish("bridge", seed, tol, samples, checks)


_PIFIBER_BOX = ([-0.5, -0.3, -0.3, 0.02, -0.3, 1 / 40],
                [0.5, 0.3, 0.3, 0.2, 0.3, 1 / 17])
_PATCHED_BOX = ([-0.5, -0.3, -0.3, 0.02, -0.3, 0.005],
                [0.5, 0.3, 0.3, 0.5, 0.3, 0.12])


def _model_tube_points(model, rng, samples, box):
    """Chart points of the plane-stratum tube, drawn as d = (x11, x12, x22,
    r_Z, y12, r_Y) uniform in box."""
    d = rng.uniform(*box, (samples, 6))
    return model.chart_points(d[:, [3, 5]], d[:, [0, 1, 2, 4]]).tolist()


_STACK = 16


def _stacks(m, pts):
    """(slice of its rows, ChartPoint stack) over runs of at most _STACK
    points of pts: the cap bounds the stacked layers' temporaries, which
    grow by 5.5 (patched) to 9 KB (pifiber) a point (tracemalloc)."""
    for a in range(0, len(pts), _STACK):
        yield slice(a, a + _STACK), m.points(pts[a:a + _STACK])


def suite_pifiber(seed=0, tol=1e-6, samples=10):
    """Vertical contraction of an induced-connection curvature, stack by
    stack, on the vertical vectors of all points from one call."""
    rng = np.random.default_rng(seed)
    m = siegel.SiegelModel("std")
    pts = _model_tube_points(m, rng, samples, _PIFIBER_BOX)
    verts = ext.vertical_vectors(m.projection_map(), pts) if samples else []
    residuals = [ext.vertical_contraction(
        [(m.curvature_induced_nomizu(stack), 2)], verts[rows], rng)
        for rows, stack in _stacks(m, pts)]
    return _finish("pifiber", seed, tol, samples,
                   [_check("induced-curvature-vertical", residuals, tol)])


def _mixed_tube_points(model, rng, samples):
    """Plane-stratum tube points with r_Z in its transition band (both weights
    active): d = ((r_Z, r_Y) / eps_X, y12 / sqrt(y11 y22), x11, x12, x22)."""
    d = rng.uniform([0.55, 0.1, -0.02, -1, -1, -1],
                    [0.7, 0.45, 0.02, 1, 1, 1], (samples, 6))
    x = model.chart_points(d[:, :2] * model.model.eps("X"), d[:, [3, 4, 5, 2]])
    x[:, 4] *= np.sqrt(x[:, 3] * x[:, 5])
    return x.tolist()


_RAW_FLOOR = 1e-3      # the raw curvature's contraction must exceed this
_ORACLE_TOL = 1e-8     # structure equation against one central difference
_ORACLE_POINTS = 3     # the first points also go through the difference oracle


def suite_descent(seed=0, tol=1e-10, samples=40):
    """The patched curvature is not a pullback from the plane stratum, but
    its Chern forms c1, c2 are: vertical contractions at mixed-tube points.

    The vertical vectors of all points are one call.  Per stack of points,
    the curvature (from the structure equation), c1 and c2, and the three
    contractions are one call each; each point draws for its contractions
    in turn.  The raw curvature is the negative control: it passes only
    while its contraction exceeds 1e-3.  At the first points of the first
    stack (named in the report) the induced and patched curvatures are
    compared with ext.curvature_form of their connections, one central
    difference per form on those points.
    """
    rng = np.random.default_rng(seed)
    m = siegel.SiegelModel("std")
    fd_induced, fd_patched = (ext.curvature_form(m.form_from_evaluator(ev))
                              for ev in (m.omega_induced_nomizu,
                                         m.omega_patched))
    pts = _mixed_tube_points(m, rng, samples)
    verts = ext.vertical_vectors(m.projection_map(), pts) if samples else []
    k = min(_ORACLE_POINTS, samples)
    contractions, oracle = [], []
    for n, (rows, p) in enumerate(_stacks(m, pts)):
        curv = m.curvature_patched(p)
        if n == 0:
            oracle = [value - fd.func(np.asarray(pts[:k])) for value, fd in (
                (m.curvature_induced_nomizu(p[:k]), fd_induced),
                (curv[:k], fd_patched))]
        es = inv.chern_coefficients(curv, 6, 2)
        contractions.append(ext.vertical_contraction(
            [(curv, 2), (es[1], 2), (es[2], 4)], verts[rows], rng))
    raw, c1, c2 = np.reshape(contractions, (-1, 3)).T
    checks = [_check("chern-c1-vertical", c1, tol),
              _check("chern-c2-vertical", c2, tol),
              _check("raw-curvature-not-vertical", raw, floor=_RAW_FLOOR),
              _check("structure-equation-vs-differences", oracle, _ORACLE_TOL)]
    return _finish("descent", seed, tol, samples, checks,
                   {"oracle_points": list(range(k))})


def suite_extension(seed=0, tol=1e-8, samples=50):
    """Canonical-extension homomorphism, nesting compatibility, and the
    Klingen Levi factor's commuting with the hermitian part."""
    rng = np.random.default_rng(seed)
    spec = liecore.sp2nR(2)
    rep = hcrepr.builtin_representation(spec, "std")
    pdS = liecore.parabolic_data(spec, 2)
    extS = hcrepr.canonical_extension(rep, pdS)
    # all pairs (q1, q2) of random parabolic elements as one stack
    c = 0.3 * rng.standard_normal((samples, 2, len(pdS.basis_q)))
    q = liecore.exp_grp(spec, liecore.from_coords(
        np.moveaxis(c, -1, 0)[..., None, None], pdS.basis_q))
    q1, q2 = q[:, 0], q[:, 1]
    nest = hcrepr.extension_compat_check(rep, 1, 2, samples=samples, rng=rng)
    # extK(g_l) of a Klingen element commutes with extK.alg on Lie(G_h)
    pdK = liecore.parabolic_data(spec, 1)
    c = 0.3 * rng.standard_normal((samples, len(pdK.basis_q)))
    k = liecore.exp_grp(spec, liecore.from_coords(
        np.moveaxis(c, -1, 0)[..., None, None], pdK.basis_q))
    g_l = liecore.group_factor_fine(pdK, k)
    extK = hcrepr.canonical_extension(rep, pdK)
    lam, H = extK(g_l)[:, None], extK.alg(np.array(pdK.basis_h))
    checks = [_check("homomorphism-on-parabolic",
                     [extS(q1 @ q2) - extS(q1) @ extS(q2)], tol),
              _check("nested-levi-agreement", [nest["levi_residual"]], tol),
              _check("relative-extension-agreement",
                     [nest["relative_residual"]], tol),
              _check("klingen-levi-commutes", [lam @ H - H @ lam], tol)]
    return _finish("extension", seed, tol, samples, checks)


def suite_patched_model(seed=0, tol=1e-10, samples=40, corrupt=False):
    """Recursion, chain and localized forms of the patched connection at one
    tangent vector a stack, along (x11, y12), where all four chain terms
    are nonzero; corrupt drops the chain (Z, Y, X) from the chain form."""
    rng = np.random.default_rng(seed)
    m = siegel.SiegelModel("std")
    if corrupt:
        weights = m.model.chain_form_weights
        m.model.chain_form_weights = lambda x: [
            (c, w) for c, w in weights(x) if c != ("Z", "Y", "X")]
    rec_chain, local = [], []
    pts = _model_tube_points(m, rng, samples, _PATCHED_BOX)
    for _, p in _stacks(m, pts):
        v = siegel.TangentVector(p.mc[:, [0, 4]])   # split once per stratum
        a = m.system.patched(p.control, v)
        b = m.system.chain_form(p.control, v)
        c, _, w = m.system.localized(p.control, v)
        rec_chain.append(np.max(np.abs(a - b)))
        local.append(np.max(np.abs(w[:, None, None, None] * a - c)))
    tag = "-with-dropped-chain" if corrupt else ""
    checks = [_check("recursion-equals-chain" + tag, rec_chain, tol),
              _check("localization", local, tol)]
    return _finish("patched", seed, tol, samples, checks)


def suite_quadrature(seed=0, tol=1e-3, samples=160):
    """Sphere quadrature of the first Chern form on the projective line."""
    val = charts.p1_chern_number(weight=2, n=samples)
    return _finish("quadrature", seed, tol, samples,
                   [_check("degree-two-integral", [val - 2.0], tol)],
                   {"value": float(val)})


def suite_schubert(seed=0):
    """Exact identities of LG(2) and LG(3), the duals of H_2 and H_3: c_d of
    S* + S (roots s and -s), d > 0, pairs to 0 with all of degree dim - d,
    and that of S* + S* (the wrong sign) must not; the Betti numbers are the
    coefficients of prod (1 + t^k); c_1, c_2 of S* must not generate LG(3)."""
    sc, rows = schubert, []
    for n, want in ((2, [1, 1, 1, 1]), (3, [1, 1, 1, 2, 1, 1, 1])):
        mono = sc.monomials(lg := sc.parse_space(f"lg:{n}"))
        relation, wrong_sign = ([
            sc.integrate(lg, sc.ring_multiply(c[d], m))
            for d in range(1, lg.dim + 1) for m in mono[lg.dim - d]]
            for c in (sc.chern_classes(lg._replace(roots={"sub-dual": [
                r + [sign * x for x in r] for r in lg.roots["sub-dual"]]}),
                "sub-dual") for sign in (-1, 1)))
        rows.append((relation, [b - w for b, w in zip(sc.betti(lg), want)],
                     [not sc.generation_check(lg)["generates"]],
                     [sc.chern_number(lg, "tangent", {lg.dim: 1}) - 2 ** n],
                     [not any(wrong_sign)]))
    return _finish("schubert", seed, 0.0, 0, [*map(_check, (
        "lagrangian-relation", "betti-product", "generation",
        "euler-characteristic", "negative-control-wrong-sign"), zip(*rows),
        [0.0] * 5), _check("negative-control-not-generating", [
            sc.generation_check(lg, [("sub-dual", 1), ("sub-dual", 2)])[
                "generates"]], 0.0)])


SUITES = {
    "partition": suite_partition,
    "vanishing": suite_vanishing,
    "patch": suite_patch,
    "nilpotent": suite_nilpotent,
    "springer": suite_springer,
    "classify": suite_classify,
    "bridge": suite_bridge,
    "pifiber": suite_pifiber,
    "descent": suite_descent,
    "extension": suite_extension,
    "patched": suite_patched_model,
    "quadrature": suite_quadrature,
    "schubert": suite_schubert,
}


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise PreconditionFailed(f"unknown suite {name!r}")
    return SUITES[name](**kwargs)


def render_report(report):
    """Canonical serialization: sorted keys, stable float formatting."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
