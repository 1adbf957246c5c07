import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgcorona.core import matrix, new_signed_graph
from sgcorona.corona import neighbourhood_corona
from sgcorona.coronal import char_poly
from sgcorona.polys import (IntPolynomial, RationalFn, poly_divexact,
                            poly_gcd, real_root_pairs, squarefree_factors,
                            taylor_shift)
from sgcorona.spectra import charpoly_A_corona

X = IntPolynomial.x()


def test_normalization_strips_trailing_zeros():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial((0, 0)).is_zero
    assert IntPolynomial(()).is_zero


def test_immutable():
    p = X + 1
    with pytest.raises(AttributeError):
        p.coeffs = (5,)


def test_arithmetic():
    assert (X + 1) * (X - 1) == X**2 - 1
    assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1
    assert (X**2 - 1) - (X**2) == IntPolynomial((-1,))
    p = 2 * X**2 + 3
    assert p(2) == 11
    assert p(Fraction(1, 2)) == Fraction(7, 2)
    # composition through call
    assert (X**2)(X + 1) == (X + 1) ** 2


def test_shift_and_derivative():
    assert (X + 1).shift(2) == X**3 + X**2
    assert (X**3 + 2 * X).derivative() == 3 * X**2 + 2
    assert IntPolynomial((4,)).derivative().is_zero


def test_divexact():
    num = (X - 3) * (X**2 + X + 7)
    assert poly_divexact(num, X - 3) == X**2 + X + 7
    with pytest.raises(ValueError):
        poly_divexact(X**2 + 1, X - 1)
    with pytest.raises(ValueError, match="fractional"):
        poly_divexact(X + 1, 2 * X + 2)  # the quotient is 1/2


def test_gcd_primitive():
    g = poly_gcd((X - 1) * (X + 2), (X - 1) * (X - 5))
    assert g == X - 1
    # content is dropped, result has positive leading coefficient
    g = poly_gcd(2 * (X + 1), 4 * (X + 1) ** 2)
    assert g == X + 1
    assert poly_gcd(IntPolynomial((6,)), IntPolynomial((4,))) == \
        IntPolynomial((1,))


def test_squarefree_factorization():
    p = (X - 1) ** 3 * (X + 2)
    c, parts = squarefree_factors(p)
    assert c == 1
    assert sorted(parts, key=lambda t: t[1]) == [(X + 2, 1), (X - 1, 3)]
    c, parts = squarefree_factors(2 * X**2)
    assert c == 2 and parts == [(X, 2)]


def test_taylor_shift():
    p = X**3 - 2 * X + 5
    q = taylor_shift(p, -3)  # q(x) = p(x - 3)
    for t in (-2, 0, 1, 7):
        assert q(t) == p(t - 3)


def test_real_roots_with_multiplicity():
    pairs = real_root_pairs(X**3 - 3 * X - 2)
    assert [m for _, m in pairs] == [2, 1]
    assert abs(pairs[0][0] + 1) < 1e-10
    assert abs(pairs[1][0] - 2) < 1e-10


def test_real_roots_irrational():
    # 4x^2 - 4x - 32 has roots (1 +- sqrt(33))/2
    pairs = real_root_pairs(4 * X**2 - 4 * X - 32)
    lo, hi = (1 - math.sqrt(33)) / 2, (1 + math.sqrt(33)) / 2
    assert abs(pairs[0][0] - lo) < 1e-10
    assert abs(pairs[1][0] - hi) < 1e-10


def test_real_roots_rejects_complex():
    with pytest.raises(ValueError):
        real_root_pairs(X**2 + 1)
    with pytest.raises(ValueError):
        real_root_pairs((X**2 + 1) * (X - 2) * (X + 1))


def test_real_roots_zero_root():
    pairs = real_root_pairs(X**3 - X)
    got = [r for r, _ in pairs]
    assert abs(got[0] + 1) < 1e-10
    assert abs(got[1]) < 1e-10
    assert abs(got[2] - 1) < 1e-10


# A corona whose A-characteristic polynomial is squarefree of degree 56,
# with two eigenvalues only 1.4e-4 apart.
D56_G1 = (8, [(0, 1, 1), (0, 4, -1), (1, 5, -1), (1, 6, 1), (1, 7, -1),
              (2, 7, 1), (3, 4, -1), (3, 5, -1), (3, 7, 1), (4, 6, 1),
              (5, 7, -1)])
D56_G2 = (6, [(0, 1, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1), (1, 2, -1),
              (1, 3, 1), (1, 5, 1), (2, 5, 1), (4, 5, 1)])


def test_isolation_degree_56_pair():
    g1, g2 = new_signed_graph(*D56_G1), new_signed_graph(*D56_G2)
    f = charpoly_A_corona(g1, g2)
    pairs = real_root_pairs(f)
    assert [m for _, m in pairs] == [1] * 56
    cor, _ = neighbourhood_corona(g1, g2)
    assert f == char_poly(matrix(cor, "A"))
    oracle = np.linalg.eigvalsh(matrix(cor, "A").astype(float))
    assert np.max(np.abs(np.array([r for r, _ in pairs]) - oracle)) < 1e-9


def test_isolation_roots_on_dyadic_grid():
    p = IntPolynomial((1,))
    for k in range(1, 21):
        p = p * (X - k)
    assert real_root_pairs(p) == [(float(k), 1) for k in range(1, 21)]


def test_isolation_separates_close_rational_roots():
    big = 10**7
    pairs = real_root_pairs((big * X - big) * (big * X - big - 1))
    assert [m for _, m in pairs] == [1, 1]
    assert abs(pairs[0][0] - 1.0) < 1e-13
    assert abs(pairs[1][0] - (1.0 + 1e-7)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(-300, 300)),
                min_size=1, max_size=9),
       st.integers(1, 50))
def test_isolation_linear_products(factors, c):
    roots = sorted({Fraction(b, a) for a, b in factors})
    p = IntPolynomial((1,))
    for r in roots:
        p = p * IntPolynomial((-r.numerator, r.denominator))
    got = real_root_pairs(p)
    assert [m for _, m in got] == [1] * len(roots)
    assert all(abs(g - float(r)) < 1e-12 for (g, _), r in zip(got, roots))
    with pytest.raises(ValueError):
        real_root_pairs(p * (X**2 + c))


def test_isolation_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(1, 12)
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = rng.randint(-3, 3)
        lam = sympy.Symbol("lam")
        cp = sympy.Poly(sympy.Matrix(mat).charpoly(lam).as_expr(), lam)
        oracle = {}
        for r in cp.real_roots():
            v = float(r.evalf(30))
            oracle[v] = oracle.get(v, 0) + 1
        got = real_root_pairs(IntPolynomial(cp.all_coeffs()[::-1]))
        assert [m for _, m in got] == [oracle[v] for v in sorted(oracle)]
        assert all(abs(g - v) < 1e-12
                   for (g, _), v in zip(got, sorted(oracle)))


def test_rational_fn_reduces():
    r = RationalFn((X**2 - 1), (X - 1) * (X + 3))
    assert r == RationalFn(X + 1, X + 3)
    assert r != RationalFn(X + 1, X - 3)


def test_str_forms():
    assert str(X**2 - 3 * X - 2) == "x^2 - 3*x - 2"
    assert str(RationalFn(IntPolynomial((2,)), X - 1)) == "(2) / (x - 1)"
