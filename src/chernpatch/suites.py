"""Named verification suites with deterministic JSON-friendly reports.

Each suite draws its randomness from a seeded generator and returns a
plain dict: same config, same report, byte for byte once serialized with
sorted keys.  No timestamps, no environment probes.
"""

import json

import numpy as np

from . import charts, connections, exterior as ext, hcrepr, invariants as inv
from . import liecore, schubert, siegel, strata
from .errors import ConditionViolation, PreconditionFailed

__all__ = ["SUITES", "run_suite", "render_report", "default_model",
           "model_from_dict", "spec_from_dict"]

SCHEMA = 1


def spec_from_dict(d):
    """GroupSpec from {"family": ..., "n" or "p","q", "scalar": "f64"}."""
    if d.get("scalar", "f64") != "f64":
        raise PreconditionFailed(f"unsupported scalar {d['scalar']!r}: only 'f64'")
    fam = d["family"]
    if fam == "sp2nR":
        return liecore.sp2nR(int(d["n"]))
    if fam == "su_pq":
        return liecore.su_pq(int(d["p"]), int(d["q"]))
    if fam == "su2":
        return liecore.su2()
    if fam == "u":
        return liecore.u_n(int(d["n"]))
    if fam == "so2":
        return liecore.so2()
    raise PreconditionFailed(f"unknown group family {fam!r}")


def model_from_dict(d):
    """FlagTubeModel from {"strata": [...], "flags": [...], "eps0", "profile"};
    the one profile is "exp"."""
    if d.get("profile", "exp") != "exp":
        raise PreconditionFailed(f"unknown bump profile {d['profile']!r}: only 'exp'")
    return strata.FlagTubeModel(
        strata=d["strata"], flags=d["flags"], eps0=float(d.get("eps0", 1.0)))


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


def _random_model_point(model, rng):
    flag = model.flags[rng.integers(len(model.flags))]
    L = int(rng.integers(1, len(flag) + 1))
    chain = flag[:L]
    top_eps = model.eps(chain[-1])
    r = tuple(float(rng.uniform(0.0, 1.5 * top_eps)) for _ in range(L - 1))
    return model.point(chain, r)


def _check(name, residual, tol):
    residual = float(residual)
    return {"name": name, "max_residual": residual, "tol": tol,
            "pass": residual <= tol}


def _finish(name, seed, tol, samples, checks, extra=None):
    rep = {"schema": SCHEMA, "suite": name, "seed": int(seed),
           "tol": tol, "samples": int(samples), "checks": checks,
           "pass": all(c["pass"] for c in checks)}
    if extra:
        rep.update(extra)
    return rep


# individual suites -----------------------------------------------------


def suite_partition(seed=0, tol=1e-12, samples=10000, model=None):
    """Partition weights telescope to 1 at random points of a forest."""
    rng = np.random.default_rng(seed)
    model = model or _forest_model()
    worst = 0.0
    for _ in range(samples):
        x = _random_model_point(model, rng)
        total = sum(model.partition_weights(x).values())
        worst = max(worst, abs(total - 1.0))
    return _finish("partition", seed, tol, samples,
                   [_check("weights-sum-to-one", worst, tol)])


def suite_vanishing(seed=0, tol=0.0, samples=10000, model=None):
    """Exhaustive support-separation grid check on a three-step flag."""
    model = model or default_model()
    flag = model.flags[0]
    per_axis = max(2, round(samples ** (1.0 / (len(flag) - 1))))
    grid = np.linspace(0.0, 1.1 * model.eps(flag[0]), per_axis)
    report = strata.family_vanishing_check(model, flag, grid)
    checks = [_check("tube-support-separation",
                     len(report["violations"]), tol)]
    return _finish("vanishing", seed, tol, samples, checks,
                   {"grid_points": per_axis ** (len(flag) - 1),
                    "pairs_checked": report["checked"]})


def _random_poly_scalar(m, rng):
    c0 = rng.uniform(-1, 1)
    c1 = rng.uniform(-1, 1, m)
    c2 = rng.uniform(-1, 1, (m, m))

    def f(x):
        lin = sum(c1[i] * x[i] for i in range(m))
        quad = sum(c2[i][j] * x[i] * x[j]
                   for i in range(m) for j in range(m))
        return c0 + 0.3 * lin + 0.1 * quad

    return f


def _random_poly_one_form(m, d, rng):
    AB = [(rng.uniform(-1, 1, (d, d)), rng.uniform(-1, 1, (m, d, d)))
          for _ in range(m)]

    def coeffs(x):
        return np.array(
            [[[A[r][c] + sum(0.4 * x[k] * B[k][r][c] for k in range(m))
               for c in range(d)] for r in range(d)] for A, B in AB],
            dtype=object)

    return ext.VForm(m, 1, ext.SmoothMap(m, coeffs))


def suite_patch(seed=0, tol=1e-6, samples=100, nvars=4, nparts=3, dim=2):
    """Curvature of a weighted combination against the expansion identity."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        m = int(rng.integers(2, nvars + 1))
        fs = [_random_poly_scalar(m, rng) for _ in range(nparts - 1)]

        def last(x, fs=fs):
            return 1.0 - sum(f(x) for f in fs)

        weights = [ext.SmoothMap(m, f) for f in fs + [last]]
        omegas = [_random_poly_one_form(m, dim, rng) for _ in range(nparts)]
        direct, formula = ext.patch_combination_curvature(weights, omegas)
        pts = [rng.uniform(-0.5, 0.5, m) for _ in range(3)]
        worst = max(worst, ext.form_distance(direct, formula, pts, rng=rng))
    return _finish("patch", seed, tol, samples,
                   [_check("combination-identity", worst, tol)])


def _commuting_pair(rng, dim=4, exact=True):
    """Random (x, n) with n nilpotent and [x, n] = 0, via a shared flag.

    The flag is moved by an integer matrix s with unit diagonal, redrawn
    while det s = 0: x = s x0 adj(s) / det s in integers, one Fraction per
    entry.  By Cayley-Hamilton, adj(s) = (-1)^(d-1) (s^(d-1) + c_1 s^(d-2)
    + ... + c_(d-1) I) and det s = (-1)^d c_d for det(tI - s) = sum c_k t^(d-k).
    """
    from fractions import Fraction
    vals = [int(rng.integers(-3, 4)) for _ in range(dim)]
    vals.sort()
    x = np.zeros((dim, dim), dtype=object)
    n = x.copy()
    for i in range(dim):
        x[i, i] = vals[i]
        for j in range(i + 1, dim):
            if vals[i] == vals[j]:
                n[i, j] = int(rng.integers(-2, 3))
    while True:
        rows = [[int(rng.integers(-2, 3)) if i != j else 1 for j in range(dim)]
                for i in range(dim)]
        cs = inv._berkowitz(rows)
        det = (-1) ** dim * cs[dim]
        if det != 0:
            break
    s = np.array(rows, dtype=object)
    eye = np.eye(dim, dtype=object)
    adj = eye
    for c in cs[1:dim]:
        adj = s @ adj + c * eye
    adj = (-1) ** (dim - 1) * adj

    def conj(a):
        return [[Fraction(v, det) for v in row] for row in (s @ a @ adj).tolist()]

    x, n = conj(x), conj(n)
    if exact:
        return (np.array(x, dtype=object), np.array(n, dtype=object))
    return (np.array([[float(v) for v in row] for row in x]),
            np.array([[float(v) for v in row] for row in n]))


def suite_nilpotent(seed=0, tol=1e-9, samples=500, dim=4):
    """Elementary symmetric invariants ignore commuting nilpotent shifts."""
    rng = np.random.default_rng(seed)
    exact_bad = 0
    worst = 0.0
    for t in range(samples):
        x, n = _commuting_pair(rng, dim, exact=True)
        a = inv.elementary_symmetric_values(x)
        b = inv.elementary_symmetric_values(x + n)
        exact_bad += sum(a[k] != b[k] for k in range(1, dim + 1))
        xf = np.array([[float(v) for v in row] for row in x])
        nf = np.array([[float(v) for v in row] for row in n])
        a = inv.elementary_symmetric_values(xf)
        b = inv.elementary_symmetric_values(xf + nf)
        for k in range(1, dim + 1):
            worst = max(worst, abs(a[k] - b[k]))
    checks = [_check("exact-invariance-failures", exact_bad, 0.0),
              _check("float-invariance", worst, tol)]
    return _finish("nilpotent", seed, tol, samples, checks)


def suite_springer(seed=0, tol=1e-9, samples=50, dim=4, corrupt=False):
    """Invariant-polynomial evaluation through nilpotent perturbations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        if corrupt:
            x = rng.standard_normal((dim, dim))
            n = np.triu(rng.standard_normal((dim, dim)), 1)
            for k in range(1, dim + 1):
                f = inv.elementary_symmetric(dim, k)
                worst = max(worst, abs(f(x + n) - f(x)))
        else:
            x, n = _commuting_pair(rng, dim, exact=False)
            for k in range(1, dim + 1):
                f = inv.elementary_symmetric(dim, k)
                worst = max(worst, abs(inv.springer_check(f, x, n, tol=1e-6)))
    name = "invariance-with-corrupted-pair" if corrupt else "invariance"
    return _finish("springer", seed, tol, samples,
                   [_check(name, worst, tol)])


def suite_classify(seed=0, tol=1e-9, samples=100):
    """Acceptance of model connections, rejection of perturbed tables."""
    rng = np.random.default_rng(seed)
    spec = liecore.su_pq(1, 1)
    rep = hcrepr.builtin_representation(spec, "weight:2")
    accepted = 0
    for maker in (connections.nomizu_connection,):
        try:
            maker(spec, rep)
            accepted += 1
        except ConditionViolation:
            pass
    # flat example: the standard representation restricted to K extends
    # to the whole group, so its inclusion is a Lie algebra homomorphism
    rep_std = hcrepr.Representation(
        spec, "std-restriction", 2,
        lambda kc: np.asarray(kc, dtype=complex),
        lambda kc: np.asarray(kc, dtype=complex))
    try:
        hom = [np.asarray(b, dtype=complex)
               for b in liecore.algebra_basis(spec)]
        flat = connections.flat_connection_from_hom(spec, rep_std, hom)
        if flat.is_flat():
            accepted += 1
    except ConditionViolation:
        pass
    nom = connections.nomizu_connection(spec, rep)
    basis = liecore.algebra_basis(spec)
    kidx = [i for i, b in enumerate(basis)
            if np.allclose(liecore.cartan_split(spec, b)[1], 0)]
    rejected = 0
    correct_condition = 0
    for _ in range(samples):
        vals = [v.copy() for v in nom.values]
        i = int(rng.integers(len(basis)))
        pert = 0.1 * (rng.standard_normal(vals[i].shape)
                      + 1j * rng.standard_normal(vals[i].shape))
        vals[i] = vals[i] + pert
        expect = 1 if i in kidx else 2
        try:
            connections.make_invariant_connection(spec, rep, vals)
        except ConditionViolation as e:
            rejected += 1
            if expect in e.conditions:
                correct_condition += 1
    checks = [_check("model-connections-accepted", 2 - accepted, 0.0),
              _check("perturbations-rejected", samples - rejected, 0.0),
              _check("violated-condition-identified",
                     samples - correct_condition, 0.0)]
    return _finish("classify", seed, tol, samples, checks)


def suite_bridge(seed=0, tol=1e-6, samples=20):
    """Chart-level curvature against the algebraic curvature tensor."""
    rng = np.random.default_rng(seed)
    checks = []
    spec1 = liecore.su_pq(1, 1)
    rep1 = hcrepr.builtin_representation(spec1, "weight:2")
    conn1 = connections.nomizu_connection(spec1, rep1)
    d1 = len(liecore.algebra_basis(spec1))
    pts = [rng.uniform(-0.4, 0.4, d1) for _ in range(samples)]
    r1 = charts.curvature_bridge_residual(spec1, conn1, pts, rng=rng)
    checks.append(_check("su11-nomizu", r1, tol))
    spec2 = liecore.sp2nR(2)
    rep2 = hcrepr.builtin_representation(spec2, "std")
    conn2 = connections.nomizu_connection(spec2, rep2)
    d2 = len(liecore.algebra_basis(spec2))
    pts2 = [rng.uniform(-0.2, 0.2, d2) for _ in range(samples)]
    r2 = charts.curvature_bridge_residual(spec2, conn2, pts2, rng=rng)
    checks.append(_check("sp4-nomizu", r2, tol))
    return _finish("bridge", seed, tol, samples, checks)


def _model_tube_points(rng, samples):
    """Sample chart points in the plane-stratum tube of the rank-2 model."""
    pts = []
    for _ in range(samples):
        pts.append([float(rng.uniform(-0.5, 0.5)),
                    float(rng.uniform(-0.3, 0.3)),
                    float(rng.uniform(-0.3, 0.3)),
                    float(1.0 / rng.uniform(0.02, 0.2)),
                    float(rng.uniform(-0.3, 0.3)),
                    float(rng.uniform(17.0, 40.0))])
    return pts


def suite_pifiber(seed=0, tol=1e-6, samples=10):
    """Vertical contraction of an induced-connection curvature."""
    rng = np.random.default_rng(seed)
    m = siegel.SiegelModel("std")
    form = m.form_from_evaluator(m.omega_induced_nomizu)
    curv = ext.curvature_form(form)
    pts = _model_tube_points(rng, samples)
    rpt = ext.pifiber_check(curv, m.projection_map(), pts, tol=tol, rng=rng)
    return _finish("pifiber", seed, tol, samples,
                   [_check("induced-curvature-vertical",
                           rpt["max_vertical_contraction"], tol)])


def suite_extension(seed=0, tol=1e-8, samples=50):
    """Canonical-extension homomorphism and nesting compatibility."""
    rng = np.random.default_rng(seed)
    spec = liecore.sp2nR(2)
    rep = hcrepr.builtin_representation(spec, "std")
    extS = hcrepr.canonical_extension(rep, 2)
    pdS = liecore.parabolic_data(spec, (2,))
    hom_res = 0.0

    def rand_parabolic():
        c = 0.3 * rng.standard_normal(len(pdS.basis_q))
        return liecore.exp_grp(spec, liecore.from_coords(c, pdS.basis_q))

    for _ in range(samples):
        q1 = rand_parabolic()
        q2 = rand_parabolic()
        hom_res = max(hom_res, float(np.max(np.abs(
            extS(q1 @ q2) - extS(q1) @ extS(q2)))))
    nest = hcrepr.extension_compat_check(rep, 1, 2, samples=samples, rng=rng)
    checks = [_check("homomorphism-on-parabolic", hom_res, tol),
              _check("nested-levi-agreement", nest["levi_residual"], tol),
              _check("relative-extension-agreement",
                     nest["relative_residual"], tol)]
    return _finish("extension", seed, tol, samples, checks)


def suite_patched_model(seed=0, tol=1e-10, samples=40):
    """Recursion, chain and localized forms of the patched connection."""
    rng = np.random.default_rng(seed)
    m = siegel.SiegelModel("std")
    rec_chain = 0.0
    local = 0.0
    for _ in range(samples):
        x = [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.3, 0.3)),
             float(rng.uniform(-0.3, 0.3)), float(1.0 / rng.uniform(0.02, 0.5)),
             float(rng.uniform(-0.3, 0.3)), float(1.0 / rng.uniform(0.005, 0.12))]
        p = m.point(x)
        for mc in p.mc[:2]:
            a = m.omega_patched(p, mc)
            b = m.omega_patched_chain(p, mc)
            c, _, w = m.omega_patched_localized(p, mc)
            rec_chain = max(rec_chain, float(np.max(np.abs(a - b))))
            local = max(local, float(np.max(np.abs(w * a - c))))
    checks = [_check("recursion-equals-chain", rec_chain, tol),
              _check("localization", local, tol)]
    return _finish("patched", seed, tol, samples, checks)


def suite_quadrature(seed=0, tol=1e-3, samples=160):
    """Sphere quadrature of the first Chern form on the projective line."""
    val = charts.p1_chern_number(weight=2, n=samples)
    return _finish("quadrature", seed, tol, samples,
                   [_check("degree-two-integral", abs(val - 2.0), tol)],
                   {"value": float(val)})


def suite_schubert(seed=0, tol=0.0, samples=0):
    """Exact ring identities and generation of small dual spaces."""
    sc = schubert
    checks = []
    s1 = sc.sigma(2, 2, (1,))
    ok = sc.pieri_multiply(s1, 1) == (sc.sigma(2, 2, (2,))
                                      + sc.sigma(2, 2, (1, 1)))
    checks.append(_check("sigma1-squared", 0 if ok else 1, 0.0))
    acc = sc.sigma(2, 2)
    for _ in range(4):
        acc = sc.ring_multiply(acc, s1)
    checks.append(_check("sigma1-fourth-integral",
                         abs(sc.integrate_class(acc) - 2), 0.0))
    top = sc.tangent_chern("gr:2,4").graded_piece(4)
    checks.append(_check("euler-characteristic",
                         abs(sc.integrate_class(top) - 6), 0.0))
    checks.append(_check("c1-squared-p2",
                         abs(sc.chern_number("p:2", "tangent", {1: 2}) - 9),
                         0.0))
    gen_bad = 0
    for space in ("p:1", "p:2", "p:3", "p:4", "gr:2,4"):
        if not sc.generation_check(space)["generates"]:
            gen_bad += 1
    checks.append(_check("generation", gen_bad, 0.0))
    neg = sc.generation_check("gr:2,4",
                              generators=[sc.sigma(2, 2, (2,))])
    checks.append(_check("negative-control-not-generating",
                         1 if neg["generates"] else 0, 0.0))
    return _finish("schubert", seed, tol, samples, checks)


SUITES = {
    "partition": suite_partition,
    "vanishing": suite_vanishing,
    "patch": suite_patch,
    "nilpotent": suite_nilpotent,
    "springer": suite_springer,
    "classify": suite_classify,
    "bridge": suite_bridge,
    "pifiber": suite_pifiber,
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
