import random

import numpy as np
import pytest

from sgcorona import coronal
from sgcorona.core import MAX_NODES, canonical_marking, co_regularity, \
    matrix, new_signed_graph
from sgcorona.coronal import (char_poly, closed_form_coronal,
                              coronal_generic, coronal_A_net_regular,
                              coronal_A_star, coronal_L_coregular,
                              coronal_L_star, coronal_Q_coregular,
                              coronal_Q_star, coronal_of_graph,
                              coronal_with_char_poly,
                              has_eigenvector_marking, star_shape)
from sgcorona.generate import random_offset_circulant, random_star
from sgcorona.polys import IntPolynomial, RationalFn

X = IntPolynomial.x()


def c3():
    return new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def test_char_poly_frozen():
    assert char_poly(matrix(c3(), "A")) == X**3 - 3 * X - 2
    assert char_poly(matrix(new_signed_graph(2, [(0, 1, 1)]), "A")) == \
        X**2 - 1
    assert char_poly(np.zeros((2, 2), dtype=int)) == X**2


def fl_reference(m, marks=None):
    """Faddeev-LeVerrier over python integers, with the adjugate:
    M_1 = I, c_k = -tr(m M_k)/k, M_{k+1} = m M_k + c_k I, and
    adj(xI - m) = sum_k M_{k+1} x^(n-1-k), so marks^T adj(xI - m)
    marks accumulates one integer per step.  Returns (char poly,
    coronal numerator or None)."""
    a = np.array([[int(v) for v in row] for row in np.asarray(m).tolist()],
                 dtype=object).reshape(np.shape(m))
    n = a.shape[0]
    ident = np.identity(n, dtype=object)
    mu = None
    if marks is not None:
        mu = np.array([int(v) for v in marks], dtype=object).reshape(n)
    coeffs_hi, num_hi = [1], []
    mk = ident
    for k in range(1, n + 1):
        if mu is not None:
            num_hi.append(int(mu @ mk @ mu))
        am = a @ mk
        q, r = divmod(-int(np.trace(am)), k)
        assert r == 0, "trace step must divide exactly"
        coeffs_hi.append(q)
        mk = am + q * ident
    assert not np.any(mk), "recurrence must terminate at the zero matrix"
    num = IntPolynomial(num_hi[::-1]) if mu is not None else None
    return IntPolynomial(coeffs_hi[::-1]), num


def test_char_poly_rejects_bad_input():
    with pytest.raises(ValueError):
        char_poly(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        char_poly(np.array([[0.5]]))
    for bad in ([[2**63]], [[-2**63 - 1]], [[2**70, 0], [0, 1]],
                np.array([[1e30]]), np.array([[np.inf]]),
                np.array([[np.nan]]), [["1"]], np.array([[1j]])):
        with pytest.raises(ValueError):
            char_poly(bad)
    # the int64 bound holds only up to MAX_NODES; a broadcast view
    # keeps the oversized input from being allocated
    with pytest.raises(ValueError, match="larger"):
        char_poly(np.broadcast_to(np.int8(0), (MAX_NODES + 1,) * 2))
    with pytest.raises(ValueError):
        coronal_generic(np.array([[2**62]]), [2**31])
    assert char_poly(np.zeros((0, 0), dtype=int)) == IntPolynomial((1,))
    # entries at the ends of int64 are in range
    lo, hi = -2**63, 2**63 - 1
    assert char_poly(np.array([[lo]])) == X - lo
    m = np.array([[lo, hi], [hi, 0]])
    assert char_poly(m) == fl_reference(m)[0] == X**2 - lo * X - hi * hi


def test_char_poly_matches_reference():
    rng = np.random.default_rng(23)
    cases = [np.zeros((0, 0), dtype=np.int64), np.array([[7]]),
             np.array([[-10**6]])]
    for _ in range(300):
        n = int(rng.integers(1, 13))
        big = int(rng.choice([1, 30, 10**6]))
        m = rng.integers(-big, big + 1, size=(n, n))
        cases.append(m + m.T if rng.random() < 0.5 else m)
    largest = 0
    for m in cases:
        want = fl_reference(m)[0]
        assert char_poly(m) == want, m.tolist()
        largest = max(largest, *map(abs, want.coeffs))
    # no single prime below 2^25 holds such coefficients: a real CRT
    assert largest > 2**25
    for n in range(1, 8):
        assert char_poly(np.ones((n, n), dtype=int)) == X**(n - 1) * (X - n)
    d = rng.integers(-10**12, 10**12, size=8)
    want = IntPolynomial((1,))
    for v in d.tolist():
        want = want * (X - v)
    assert char_poly(np.diag(d)) == want


def test_coronal_numerator_matches_adjugate():
    # det(xI - M) - det(xI - M - mu mu^T) = mu^T adj(xI - M) mu
    rng = np.random.default_rng(29)
    for n in range(13):
        for _ in range(4):
            m = rng.integers(-2, 3, size=(n, n))
            mu = rng.choice([-1, 1], size=n)
            want = fl_reference(m, mu)
            assert coronal._faddeev_leverrier(m, mu) == want
            assert coronal_generic(m, mu) == RationalFn(want[1], want[0])


def test_char_poly_stacks_stay_bounded(monkeypatch):
    # a 60-node matrix with entries up to 1e4 needs dozens of primes;
    # they run in batches, so no array handed to matmul may hold more
    # than the stack limit
    rng = np.random.default_rng(31)
    m = rng.integers(-10**4, 10**4 + 1, size=(60, 60))
    sizes = []

    def spy(*args, _f=np.matmul, **kw):
        sizes.append(max(np.size(x) for x in args))
        return _f(*args, **kw)

    monkeypatch.setattr(np, "matmul", spy)
    got = char_poly(m)
    monkeypatch.undo()
    assert max(sizes) <= coronal._STACK_ENTRIES
    assert len(sizes) > 59  # more than one batch of primes
    assert got == fl_reference(m)[0]


def test_generic_coronal_frozen():
    g = new_signed_graph(2, [(0, 1, 1)])
    assert coronal_generic(matrix(g, "A"), canonical_marking(g)) == \
        RationalFn(IntPolynomial((2,)), X - 1)
    assert coronal_of_graph(c3(), "A") == \
        RationalFn(IntPolynomial((3,)), X - 2)
    # single node, no edges
    one = new_signed_graph(1, [])
    assert coronal_of_graph(one, "A") == RationalFn(IntPolynomial((1,)), X)


def test_closed_forms_frozen():
    assert coronal_A_net_regular(3, 2) == \
        RationalFn(IntPolynomial((3,)), X - 2)
    assert coronal_A_star(2, 1) == \
        RationalFn(4 + 3 * X, X**2 - 2)
    assert coronal_Q_coregular(4, 2, -1) == \
        RationalFn(IntPolynomial((4,)), X - 1)
    assert coronal_L_coregular(4, 2, -1) == \
        RationalFn(IntPolynomial((4,)), X - 3)


def test_star_L_and_Q_differ_by_the_mark_term():
    # legs = 2, negative center mark
    q = coronal_Q_star(2, -1)
    l = coronal_L_star(2, -1)
    assert q == RationalFn(3 * X - 9, X**2 - 3 * X)
    assert l == RationalFn(3 * X - 1, X**2 - 3 * X)
    assert q != l


def test_closed_forms_match_generic_on_structured_instances():
    rng = random.Random(5)
    for _ in range(40):
        g = random_offset_circulant(rng, rng.randint(1, 7))
        k = has_eigenvector_marking(g)
        reg = co_regularity(g)
        assert k is not None  # one sign per offset keeps marking constant
        mu = canonical_marking(g)
        for kind, form in (("A", coronal_A_net_regular(g.n, k)),
                           ("Q", coronal_Q_coregular(g.n, reg.r, k)),
                           ("L", coronal_L_coregular(g.n, reg.r, k))):
            assert form == coronal_generic(matrix(g, kind), mu), \
                (kind, g.edges())
    for _ in range(40):
        g = random_star(rng, rng.randint(1, 7))
        legs, mc = star_shape(g)
        mu = canonical_marking(g)
        for kind, form in (("A", coronal_A_star(legs, mc)),
                           ("Q", coronal_Q_star(legs, mc)),
                           ("L", coronal_L_star(legs, mc))):
            assert form == coronal_generic(matrix(g, kind), mu), \
                (kind, g.edges())


def test_coronal_with_char_poly_divides():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 5)
        edges = [(u, v, rng.choice((1, -1)))
                 for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.6]
        g = new_signed_graph(n, edges)
        for kind in ("A", "L", "Q"):
            m = matrix(g, kind)
            cor, f, dfac = coronal_with_char_poly(m, canonical_marking(g))
            assert dfac * cor.den == f
            assert f == char_poly(m)


def test_family_detection():
    assert has_eigenvector_marking(c3()) == 2
    # net degree varies on a path, no eigenvector marking
    path = new_signed_graph(3, [(0, 1, 1), (1, 2, 1)])
    assert has_eigenvector_marking(path) is None
    star = new_signed_graph(4, [(0, 1, 1), (0, 2, -1), (0, 3, 1)])
    assert star_shape(star) == (3, -1)
    assert star_shape(c3()) is None
    # the 2-star read with its center, not as a path
    assert star_shape(new_signed_graph(3, [(1, 0, 1), (1, 2, 1)])) == (2, 1)


def test_closed_form_dispatcher():
    name, form = closed_form_coronal(c3(), "A")
    assert name == "net_regular"
    assert form == coronal_of_graph(c3(), "A")
    star = new_signed_graph(3, [(0, 1, 1), (0, 2, -1)])
    name, form = closed_form_coronal(star, "Q")
    assert name == "star"
    assert form == coronal_of_graph(star, "Q")
    path = new_signed_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert closed_form_coronal(path, "A") is None
