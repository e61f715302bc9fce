import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from chernpatch import schubert as sc
from chernpatch.errors import PreconditionFailed


def test_pieri_square_of_hyperplane():
    s1 = sc.sigma(2, 2, (1,))
    sq = sc.ring_multiply(s1, s1)
    assert sq.coeffs == {(2,): 1, (1, 1): 1}


def test_pieri_truncation_gr24():
    # sigma_11 * sigma_2 = 0 in Gr(2, 4): the only candidate shape (3, 1)
    # does not fit in the 2x2 box
    a = sc.sigma(2, 2, (1, 1))
    b = sc.sigma(2, 2, (2,))
    assert sc.ring_multiply(a, b).coeffs == {}
    assert sc.lr_multiply(a, b).coeffs == {}


def test_giambelli_matches_lr_small_boxes():
    for k, m in [(2, 2), (2, 3), (3, 3)]:
        parts = sc.partitions_in_box(k, m)
        for lam, mu in itertools.product(parts, parts):
            g = sc.ring_multiply(sc.sigma(k, m, lam), sc.sigma(k, m, mu))
            t = sc.lr_multiply(sc.sigma(k, m, lam), sc.sigma(k, m, mu))
            assert g.coeffs == t.coeffs, (lam, mu)


def test_associativity_instance():
    a = sc.sigma(2, 3, (1,))
    b = sc.sigma(2, 3, (2, 1))
    c = sc.sigma(2, 3, (1, 1))
    left = sc.ring_multiply(sc.ring_multiply(a, b), c)
    right = sc.ring_multiply(a, sc.ring_multiply(b, c))
    assert left.coeffs == right.coeffs


def test_poincare_pairing():
    k, m = 2, 3
    for lam in sc.partitions_in_box(k, m):
        padded = (list(lam) + [0] * k)[:k]
        comp = tuple(p for p in sorted((m - p for p in padded), reverse=True)
                     if p)
        prod = sc.ring_multiply(sc.sigma(k, m, lam), sc.sigma(k, m, comp))
        assert sc.integrate_class(prod) == 1


def test_degree_of_gr24():
    s1 = sc.sigma(2, 2, (1,))
    p = sc.ring_multiply(sc.ring_multiply(s1, s1), sc.ring_multiply(s1, s1))
    assert sc.integrate_class(p) == 2


def test_parse_space():
    assert sc.parse_space("p:3") == (1, 3)
    assert sc.parse_space("gr:2,5") == (2, 3)
    assert sc.parse_space((2, 5)) == (2, 3)
    with pytest.raises(PreconditionFailed):
        sc.parse_space("gr:5,2")


def test_tangent_classes_projective():
    # c(T P^n) = (1 + sigma_1)^(n+1), so c_i = C(n+1, i) sigma_i
    for n in range(1, 7):
        c = sc.tangent_chern(f"p:{n}")
        assert c.coeffs == {((i,) if i else ()): math.comb(n + 1, i)
                            for i in range(n + 1)}, n


def test_tangent_classes_grassmannians():
    # c_1(T Gr(k, n)) = n sigma_1, and c_top integrates to the Euler
    # number, the count C(n, k) of torus-fixed points
    for n in range(4, 8):
        for k in range(2, n - 1):
            c = sc.tangent_chern(f"gr:{k},{n}")
            assert c.graded_piece(1).coeffs == {(1,): n}, (k, n)
            top = c.graded_piece(k * (n - k))
            assert sc.integrate_class(top) == math.comb(n, k), (k, n)


def test_tangent_first_class_gr24():
    c = sc.tangent_chern("gr:2,4")
    assert c.graded_piece(1).coeffs == {(1,): 4}


def test_chern_numbers():
    assert sc.chern_number("p:1", "tangent", {1: 1}) == 2
    assert sc.chern_number("p:2", "tangent", {1: 2}) == 9
    assert sc.chern_number("p:2", "tangent", {2: 1}) == 3
    assert sc.chern_number("gr:2,4", "tangent", {1: 4}) == 512
    assert sc.chern_number("gr:2,4", "tangent", {4: 1}) == 6


def test_chern_number_degree_mismatch_rejected():
    with pytest.raises(PreconditionFailed):
        sc.chern_number("p:2", "tangent", {1: 1})


def test_unknown_bundle_rejected():
    with pytest.raises(PreconditionFailed):
        sc.chern_number("p:1", "mystery", {1: 1})


def test_generation():
    for space in ("p:1", "p:2", "p:3", "gr:2,4"):
        rpt = sc.generation_check(space)
        assert rpt["generates"], rpt


def test_generation_negative_control():
    rpt = sc.generation_check("gr:2,4", generators=[sc.sigma(2, 2, (2,))])
    assert not rpt["generates"]
    assert rpt["span_rank"] < rpt["betti_total"]


def test_non_integral_coefficient_rejected():
    with pytest.raises(PreconditionFailed):
        sc.sigma(2, 2, (1,)).scale(0.5)
    with pytest.raises(PreconditionFailed):
        sc.SchubertClass(2, 2, {(1,): 2.7})
    with pytest.raises(PreconditionFailed):
        sc.sigma(2, 2, (1,)).scale(Fraction(3, 2))
    assert sc.sigma(2, 2, (1,)).scale(Fraction(4, 2)).coeffs == {(1,): 2}


def test_tangent_chern_rejects_inexact_division(monkeypatch):
    # power sums that belong to no bundle: on P^2, c_2 = (c_1 p_1 - p_2) / 2
    # is then not integral, and must raise rather than truncate
    power_sums = sc._power_sums

    def skewed(c, rank, top):
        p = power_sums(c, rank, top)
        p[2] = p[2] + sc.sigma(c.k, c.m, (2,))
        return p

    monkeypatch.setattr(sc, "_power_sums", skewed)
    with pytest.raises(PreconditionFailed):
        sc.tangent_chern("p:2")


def test_import_does_not_load_sympy():
    # a fresh interpreter, since another test may have loaded sympy here
    code = "import sys, chernpatch; print('sympy' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(sc.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_unit_class_repr():
    assert repr(sc.sigma(2, 2)) == "1"
    assert repr(sc.sigma(2, 2).scale(3)) == "3"
