"""Torus localization on compact duals, against independent oracles: closed
forms for projective spaces, Grassmannians and the quadric LG(2, 4), the
Gaussian binomials, and a table of Chern numbers written by the Schubert
ring (Giambelli, Pieri and Newton's identities) that the engine replaced."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from chernpatch import cli
from chernpatch import schubert as sc
from chernpatch.errors import PreconditionFailed

GOLDEN = pathlib.Path(__file__).parent / "golden" / "dual_chern_numbers.json"


def _partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def _monomial(part):
    mono = {}
    for p in part:
        mono[p] = mono.get(p, 0) + 1
    return mono


def _pairing(space, cls, degree):
    """Integrals of cls against every monomial of the given degree."""
    return {sc.integrate(space, sc.ring_multiply(cls, m))
            for m in sc.monomials(space)[degree]}


def _classes(space):
    space = sc.parse_space(space)
    return (space, sc.chern_classes(space, "quotient"),
            sc.chern_classes(space, "sub-dual"))


def _combine(*terms):
    """Sum of coefficient * class over (coefficient, class) terms."""
    return tuple(sum(c * v[p] for c, v in terms)
                 for p in range(len(terms[0][1])))


def test_pieri_square_of_hyperplane():
    # sigma_1^2 = sigma_2 + sigma_11 in Gr(2, 4)
    gr, q, s = _classes("gr:2,4")
    rel = _combine((1, sc.ring_multiply(q[1], q[1])), (-1, q[2]), (-1, s[2]))
    assert _pairing(gr, rel, 2) == {0}
    assert _pairing(gr, _combine((1, rel), (1, s[2])), 2) != {0}


def test_pieri_truncation_gr24():
    # sigma_11 * sigma_2 = 0 in Gr(2, 4): the only candidate shape (3, 1)
    # does not fit in the 2x2 box
    gr, q, s = _classes("gr:2,4")
    assert sc.integrate(gr, sc.ring_multiply(s[2], q[2])) == 0


def test_poincare_pairing():
    # the top special classes are the point class: sigma_m^k = sigma_(1^k)^m
    # = 1 on Gr(k, k + m), and h^d h^(n - d) = 1 on P^n
    for k, n in [(1, 2), (1, 5), (2, 4), (2, 5), (3, 6), (2, 6)]:
        m = n - k
        assert sc.chern_number(f"gr:{k},{n}", "quotient", {m: k}) == 1
        assert sc.chern_number(f"gr:{k},{n}", "sub-dual", {k: m}) == 1
    # on Gr(2, 4) the middle degree is dual to itself: sigma_2 and sigma_11
    gr, q, s = _classes("gr:2,4")
    assert [[sc.integrate(gr, sc.ring_multiply(a, b)) for b in (q[2], s[2])]
            for a in (q[2], s[2])] == [[1, 0], [0, 1]]


def test_degree_of_gr24():
    assert sc.chern_number("gr:2,4", "quotient", {1: 4}) == 2


def test_parse_space():
    assert sc.parse_space("p:3").dim == 3
    assert len(sc.parse_space("p:3").cofactor) == 4
    assert sc.parse_space("gr:2,5").dim == 6
    assert sc.parse_space("lg:3").dim == 6
    assert len(sc.parse_space("lg:3").cofactor) == 8
    assert sc.parse_space(" GR:2,5").name == "gr:2,5"
    gr = sc.parse_space("gr:2,4")
    assert sc.parse_space(gr) is gr
    for bad in ["gr:5,2", "gr:2,2", "p:0", "lg:0", "gr:2", "p:1,2", "lg:x",
                "fl:1,2,3", "p3", (2, 5)]:
        with pytest.raises(PreconditionFailed):
            sc.parse_space(bad)


def test_tangent_classes_projective():
    # c(T) = (1 + h)^(n + 1), c(Q) = 1 / (1 - h), c(S*) = 1 + h, and h^n = 1
    # on P^n: every top Chern number is a product of binomials
    for n in range(1, 7):
        coeff = {"tangent": lambda i: math.comb(n + 1, i) if i <= n else 0,
                 "quotient": lambda i: int(i <= n),
                 "sub-dual": lambda i: int(i <= 1)}
        for bundle, c in coeff.items():
            for part in _partitions(n):
                got = sc.chern_number(f"p:{n}", bundle, _monomial(part))
                assert got == math.prod(map(c, part)), (n, bundle, part)


def test_tangent_classes_grassmannians():
    # c_1(T Gr(k, n)) = n sigma_1, and c_top integrates to the Euler
    # number, the count C(n, k) of torus-fixed points
    for n in range(4, 8):
        for k in range(2, n - 1):
            gr, q, _ = _classes(f"gr:{k},{n}")
            c1 = sc.tangent_chern(gr)[1]
            assert _pairing(gr, _combine((1, c1), (-n, q[1])),
                            gr.dim - 1) == {0}, (k, n)
            assert sc.chern_number(gr, "tangent", {gr.dim: 1}) \
                == math.comb(n, k), (k, n)


def test_tangent_first_class_gr24():
    gr, q, _ = _classes("gr:2,4")
    c1 = sc.tangent_chern(gr)[1]
    assert _pairing(gr, _combine((1, c1), (-4, q[1])), 3) == {0}
    assert _pairing(gr, _combine((1, c1), (-3, q[1])), 3) != {0}


def _gaussian_binomial(n, k):
    """Coefficients of the q-binomial [n choose k]_q."""
    num, den = [1], [1]
    for i in range(k):
        num = _poly_mul(num, [1] + [0] * (n - i - 1) + [-1])
        den = _poly_mul(den, [1] + [0] * i + [-1])
    out = []
    for d in range(len(num) - len(den) + 1):   # exact division by den
        c = num[d]
        out.append(c)
        for j, v in enumerate(den):
            num[d + j] -= c * v
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 6), (2, 7),
                                 (3, 7)])
def test_grassmannian_betti_numbers_are_gaussian_binomials(k, n):
    assert sc.betti(f"gr:{k},{n}") == _gaussian_binomial(n, k)
    assert sum(sc.betti(f"gr:{k},{n}")) == math.comb(n, k)


def test_lg24_is_the_quadric_threefold():
    # c(T Q^3) = (1 + h)^5 / (1 + 2h) and h^3 = 2: c1 = 3h, c2 = 4h^2,
    # c3 = 2h^3
    assert sc.betti("lg:2") == [1, 1, 1, 1]
    for mono, want in [({1: 3}, 54), ({1: 1, 2: 1}, 24), ({3: 1}, 4)]:
        assert sc.chern_number("lg:2", "tangent", mono) == want
    assert sc.chern_number("lg:2", "sub-dual", {1: 3}) == 2


def test_lg36_chern_numbers_and_betti():
    # Euler number 2^3; c_1 = 4 sigma_1 and the degree is 16; the Betti
    # numbers are the coefficients of (1 + q)(1 + q^2)(1 + q^3)
    assert sc.chern_number("lg:3", "tangent", {6: 1}) == 8
    assert sc.chern_number("lg:3", "tangent", {1: 6}) == 4 ** 6 * 16
    assert sc.chern_number("lg:3", "sub-dual", {1: 6}) == 16
    assert sc.betti("lg:3") == _poly_mul(_poly_mul([1, 1], [1, 0, 1]),
                                         [1, 0, 0, 1])


def test_lagrangian_quotient_is_the_dual_subbundle():
    for mono in ({1: 3}, {1: 1, 2: 1}):
        assert sc.chern_number("lg:2", "quotient", mono) \
            == sc.chern_number("lg:2", "sub-dual", mono)


def test_parent_table_of_chern_numbers(capsys):
    # 171 top Chern numbers of P^1..P^4, Gr(2,4), Gr(2,5) and Gr(3,6),
    # written by the Schubert ring; the CLI prints each of them
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(table) == 171
    for row in table:
        mono = {}
        for f in row["monomial"].split("*"):
            i, e = re.fullmatch(r"c(\d+)(?:\^(\d+))?", f).groups()
            mono[int(i)] = int(e or 1)
        assert sc.chern_number(row["space"], row["bundle"], mono) \
            == row["value"], row
        assert cli.main(["dual", "--space", row["space"], "--bundle",
                         row["bundle"], "--monomial", row["monomial"]]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == row["value"]


def test_chern_numbers():
    assert sc.chern_number("p:1", "tangent", {1: 1}) == 2
    assert sc.chern_number("p:2", "tangent", {1: 2}) == 9
    assert sc.chern_number("p:2", "tangent", {2: 1}) == 3
    assert sc.chern_number("gr:2,4", "tangent", {1: 4}) == 512
    assert sc.chern_number("gr:2,4", "tangent", {4: 1}) == 6


def test_chern_number_degree_mismatch_rejected():
    with pytest.raises(PreconditionFailed):
        sc.chern_number("p:2", "tangent", {1: 1})
    with pytest.raises(PreconditionFailed):
        sc.chern_number("p:2", "tangent", {1: 3, 0: -1})


def test_unknown_bundle_rejected():
    with pytest.raises(PreconditionFailed):
        sc.chern_number("p:1", "mystery", {1: 1})


def test_generation():
    for space in ("p:1", "p:2", "p:3", "gr:2,4", "gr:2,5", "gr:3,6", "lg:2",
                  "lg:3"):
        rpt = sc.generation_check(space)
        assert rpt["generates"], rpt
        assert rpt["span_rank"] == rpt["betti_total"] == sum(sc.betti(space))


def test_generation_negative_control():
    rpt = sc.generation_check("gr:2,4", generators=[("quotient", 2)])
    assert not rpt["generates"]
    assert rpt["span_rank"] < rpt["betti_total"]
    # c_1 alone generates P^n, but not Gr(2, 4), whose H^4 has rank 2
    assert sc.generation_check("p:4", generators=[("sub-dual", 1)])["generates"]
    assert not sc.generation_check(
        "gr:2,4", generators=[("quotient", 1)])["generates"]
    with pytest.raises(PreconditionFailed):
        sc.generation_check("gr:2,4", generators=[("quotient", 0)])


def test_import_does_not_load_sympy():
    # a fresh interpreter, since another test may have loaded sympy here
    code = "import sys, chernpatch; print('sympy' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sc.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("space,count", [
    ("lg:30", "1073741824"), ("gr:15,30", "155117520"), ("lg:11", "2048"),
    ("p:5000", "at least 5001")])
def test_parse_space_refuses_too_many_fixed_points(space, count, monkeypatch,
                                                   capsys):
    # the count comes first: no fixed point is listed before the refusal
    def no_listing(*args, **kwargs):
        raise AssertionError("a fixed point was listed")

    monkeypatch.setattr(sc, "combinations", no_listing)
    monkeypatch.setattr(sc, "product", no_listing)
    assert cli.main(["dual", "--space", space, "--monomial", "c1"]) == 2
    err = capsys.readouterr().err
    assert f"{space} has {count} torus-fixed points" in err
    assert str(sc._MAX_POINTS) in err


def test_fixed_point_cap_admits_the_golden_spaces_and_lg10():
    spaces = {row["space"] for row in json.loads(GOLDEN.read_text())}
    for space in sorted(spaces) + ["lg:10", "gr:5,10"]:
        dual = sc.parse_space(space)
        assert len(dual.cofactor) <= sc._MAX_POINTS
        assert dual.dim <= sc._MAX_DIM
    assert len(sc.parse_space("lg:10").cofactor) == sc._MAX_POINTS
    assert sc.parse_space("lg:10").dim == 55
    assert sc.parse_space("p:64").dim == sc._MAX_DIM


@pytest.mark.parametrize("space", ["p:200", "p:1023", "p:65", "gr:2,45"])
def test_parse_space_refuses_a_dimension_over_the_cap(space, monkeypatch,
                                                      capsys):
    # few enough fixed points, but a dimension over 64: refused before any
    # fixed point is listed
    def no_listing(*args, **kwargs):
        raise AssertionError("a fixed point was listed")

    monkeypatch.setattr(sc, "combinations", no_listing)
    assert cli.main(["dual", "--space", space, "--monomial", "c1"]) == 2
    err = capsys.readouterr().err
    assert f"{space} has dimension" in err
    assert f"more than the cap of {sc._MAX_DIM}" in err
