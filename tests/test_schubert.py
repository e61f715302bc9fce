"""Torus localization on the compact duals LG(n), against independent
oracles: closed forms for the degree, the tangent Chern numbers and the
Betti numbers of LG(n), the quadric LG(2) and the relations of its ring."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from chernpatch import cli
from chernpatch import schubert as sc
from chernpatch.errors import PreconditionFailed


def _pairing(space, cls, degree):
    """Integrals of cls against every monomial of the given degree."""
    return {sc.integrate(space, sc.ring_multiply(cls, m))
            for m in sc.monomials(space)[degree]}


def _combine(*terms):
    """Sum of coefficient * class over (coefficient, class) terms."""
    return tuple(sum(c * v[p] for c, v in terms)
                 for p in range(len(terms[0][1])))


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _lg_degree(n):
    """The degree of LG(n) in its Plucker embedding, d = n(n + 1) / 2:
    2^(d - n) d! prod_i (i - 1)! / (2i - 1)!, a closed form of its own."""
    d = n * (n + 1) // 2
    return 2 ** (d - n) * math.factorial(d) * math.prod(
        Fraction(math.factorial(i - 1), math.factorial(2 * i - 1))
        for i in range(1, n + 1))


@pytest.mark.parametrize("n,degree", [(1, 1), (2, 2), (3, 16), (4, 768)])
def test_lg_chern_numbers_match_closed_forms(n, degree, capsys):
    # c_1(S*)^d is the degree; T = Sym^2 S* has c_1(T) = (n + 1) c_1(S*);
    # c_d(T) is the Euler number, the 2^n fixed points; the Betti numbers
    # are the coefficients of (1 + t)(1 + t^2)...(1 + t^n).  At n = 1 these
    # are the projective line's: tangent c_1 = 2, sub-dual c_1 = 1.
    d = n * (n + 1) // 2
    assert _lg_degree(n) == degree
    for bundle, mono, value in [("sub-dual", f"c1^{d}", degree),
                                ("tangent", f"c1^{d}", (n + 1) ** d * degree),
                                ("tangent", f"c{d}", 2 ** n)]:
        got = sc.chern_number(f"lg:{n}", bundle, cli._parse_monomial(mono))
        assert got == value, (bundle, mono)
        assert cli.main(["dual", "--space", f"lg:{n}", "--bundle", bundle,
                         "--monomial", mono]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == value
    betti = [1]
    for k in range(1, n + 1):
        betti = _poly_mul(betti, [1] + [0] * (k - 1) + [1])
    assert sc.betti(f"lg:{n}") == betti


def test_pieri_square_of_hyperplane():
    # sigma_1^2 = 2 sigma_2 on LG(n), sigma_i = c_i(S*): the relation
    # c(S) c(S*) = 1 in degree 2, and the Pieri rule of Hiller and Boe
    for n in (2, 3):
        lg = sc.parse_space(f"lg:{n}")
        s = sc.chern_classes(lg, "sub-dual")
        c1sq = sc.ring_multiply(s[1], s[1])
        assert _pairing(lg, _combine((1, c1sq), (-2, s[2])), lg.dim - 2) \
            == {0}
        assert _pairing(lg, _combine((1, c1sq), (-1, s[2])), lg.dim - 2) \
            != {0}


def test_poincare_pairing():
    # the point class of LG(n) is sigma_(n, ..., 1) = c_1 c_2 ... c_n of S*
    for n in range(1, 5):
        assert sc.chern_number(f"lg:{n}", "sub-dual",
                               dict.fromkeys(range(1, n + 1), 1)) == 1, n
    # on LG(3) the middle degree, of rank 2, is dual to itself: by the
    # relations c_1^2 = 2 c_2, c_2^2 = 2 c_1 c_3 and c_3^2 = 0,
    # (c_1 c_2)^2 = 2 c_2^3 = 4 c_1 c_2 c_3 = 4
    lg = sc.parse_space("lg:3")
    s = sc.chern_classes(lg, "sub-dual")
    basis = (s[3], sc.ring_multiply(s[1], s[2]))
    assert [[sc.integrate(lg, sc.ring_multiply(a, b)) for b in basis]
            for a in basis] == [[0, 1], [1, 4]]


def test_parse_space():
    assert sc.parse_space("lg:1").dim == 1
    assert sc.parse_space("lg:3").dim == 6
    assert len(sc.parse_space("lg:3").cofactor) == 8
    assert sc.parse_space(" LG:3").name == "lg:3"
    lg = sc.parse_space("lg:2")
    assert sc.parse_space(lg) is lg
    assert sorted(lg.roots) == ["sub-dual", "tangent"]
    for bad in ["p:2", "gr:2,4", "lg:0", "lg:x", "fl:1,2,3", "lg:1,2", "lg3",
                "p:1", (2, 5)]:
        with pytest.raises(PreconditionFailed, match="lg:n"):
            sc.parse_space(bad)


def test_tangent_classes_grassmannians():
    # c_1(T LG(n)) = (n + 1) sigma_1, since T = Sym^2 S*, and c_top
    # integrates to the Euler number 2^n, the count of torus-fixed points
    for n in range(1, 5):
        lg = sc.parse_space(f"lg:{n}")
        c1, s1 = sc.tangent_chern(lg)[1], sc.chern_classes(lg, "sub-dual")[1]
        assert _pairing(lg, _combine((1, c1), (-n - 1, s1)),
                        lg.dim - 1) == {0}, n
        assert _pairing(lg, _combine((1, c1), (-n, s1)), lg.dim - 1) \
            != {0}, n
        assert sc.chern_number(lg, "tangent", {lg.dim: 1}) == 2 ** n


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


def test_chern_numbers():
    assert sc.chern_number("lg:1", "tangent", {1: 1}) == 2
    assert sc.chern_number("lg:1", "sub-dual", {1: 1}) == 1
    assert sc.chern_number("lg:2", "sub-dual", {1: 1, 2: 1}) == 1
    assert sc.chern_number("lg:2", "tangent", {1: 1, 2: 1}) == 24
    assert sc.chern_number("lg:3", "sub-dual", {3: 2}) == 0


def test_chern_number_degree_mismatch_rejected():
    with pytest.raises(PreconditionFailed):
        sc.chern_number("lg:2", "tangent", {1: 1})
    with pytest.raises(PreconditionFailed):
        sc.chern_number("lg:2", "tangent", {1: 4, 0: -1})


def test_unknown_bundle_rejected():
    # the quotient is S* through the symplectic form: one name, sub-dual
    for bundle in ("mystery", "quotient"):
        with pytest.raises(PreconditionFailed, match="sub-dual.*tangent"):
            sc.chern_number("lg:1", bundle, {1: 1})


def test_generation():
    for n in range(1, 5):
        rpt = sc.generation_check(f"lg:{n}")
        assert rpt["generates"], rpt
        assert rpt["span_rank"] == rpt["betti_total"] == 2 ** n


def test_generation_negative_control():
    rpt = sc.generation_check("lg:3", generators=[("sub-dual", 1),
                                                  ("sub-dual", 2)])
    assert not rpt["generates"]
    assert (rpt["span_rank"], rpt["betti_total"]) == (7, 8)
    # c_1 alone generates LG(2) over Q (c_1^2 = 2 c_2), c_2 alone does not
    assert sc.generation_check("lg:2", [("sub-dual", 1)])["generates"]
    assert not sc.generation_check("lg:2", [("sub-dual", 2)])["generates"]
    with pytest.raises(PreconditionFailed):
        sc.generation_check("lg:2", generators=[("sub-dual", 0)])


@pytest.mark.parametrize("space", ["lg:3"])
def test_generation_check_builds_each_tower_once(space, monkeypatch):
    # one tower of the dual subbundle, however many of its classes are
    # generators
    calls = []
    total_chern = sc._total_chern

    def counted(space, bundle):
        calls.append(bundle)
        return total_chern(space, bundle)

    monkeypatch.setattr(sc, "_total_chern", counted)
    assert sc.generation_check(space)["generates"]
    assert calls == ["sub-dual"]


def test_import_does_not_load_sympy():
    # a fresh interpreter, since another test may have loaded sympy here
    code = "import sys, chernpatch; print('sympy' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sc.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("space,count", [
    ("lg:30", "1073741824"), ("lg:11", "2048"),
    ("lg:5000", "at least 2^1024")])
def test_parse_space_refuses_too_many_fixed_points(space, count, monkeypatch,
                                                   capsys):
    # the count comes first: no fixed point is listed before the refusal
    def no_listing(*args, **kwargs):
        raise AssertionError("a fixed point was listed")

    monkeypatch.setattr(sc, "product", no_listing)
    assert cli.main(["dual", "--space", space, "--monomial", "c1"]) == 2
    err = capsys.readouterr().err
    assert f"{space} has {count} torus-fixed points" in err
    assert f"more than the cap of {sc._MAX_POINTS}" in err


def test_fixed_point_cap_admits_lg10():
    # LG(10, 20) has exactly the cap of fixed points, and dimension 55
    lg = sc.parse_space("lg:10")
    assert len(lg.cofactor) == sc._MAX_POINTS
    assert lg.dim == 55


@pytest.mark.parametrize("argv,names", [
    (["--space", "p:2"], ["lg:n"]), (["--space", "gr:2,4"], ["lg:n"]),
    (["--space", "lg:2", "--bundle", "quotient"], ["sub-dual", "tangent"])],
    ids=["p:2", "gr:2,4", "quotient"])
def test_cli_dual_refuses_another_space_or_bundle_by_name(argv, names,
                                                         capsys):
    # P^n and Gr(k, n) are the duals of no group the package builds, and the
    # quotient of LG(n) is its sub-dual bundle
    assert cli.main(["dual", *argv, "--monomial", "c1^3"]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
