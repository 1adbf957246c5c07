"""Property-based checks tying the modules together."""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from sgcorona.census import corona_balance_criterion, edge_census_direct, \
    edge_census_formula, triad_census_direct
from sgcorona.core import is_balanced, is_connected, matrix, \
    new_signed_graph, switch
from sgcorona.corona import neighbourhood_corona
from sgcorona.coronal import char_poly
from sgcorona.graphio import parse_graph, render_graph
from sgcorona.polys import IntPolynomial, poly_divexact, poly_gcd
from test_census import brute_triads


@st.composite
def signed_graphs(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                               max_size=len(pairs)))
        edges = [(u, v, draw(st.sampled_from((1, -1))))
                 for u, v in chosen]
    return new_signed_graph(n, edges)


@st.composite
def int_polys(draw, max_deg=6):
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=1,
                           max_size=max_deg + 1))
    return IntPolynomial(tuple(coeffs))


@given(signed_graphs(max_n=7))
def test_graph_file_round_trip(g):
    h = parse_graph(render_graph(g))
    assert h.n == g.n and h.edges() == g.edges()


@given(signed_graphs(), st.lists(st.sampled_from((1, -1)), min_size=5,
                                 max_size=5))
def test_switching_preserves_balance_and_char_polys(g, signs):
    s = signs[:g.n] + [1] * max(0, g.n - len(signs))
    sw = switch(g, s)
    assert is_balanced(sw) == is_balanced(g)
    for kind in ("A", "L", "Q"):
        assert char_poly(matrix(sw, kind)) == char_poly(matrix(g, kind))


@settings(max_examples=40, deadline=None)
@given(signed_graphs(max_n=4), signed_graphs(max_n=4))
def test_corona_shape_and_edge_count(g1, g2):
    cor, lay = neighbourhood_corona(g1, g2)
    assert cor.n == g1.n * (g2.n + 1) == lay.total
    assert cor.m == g1.m + g1.n * g2.m + 2 * g1.m * g2.n


@settings(max_examples=40, deadline=None)
@given(signed_graphs(max_n=4), signed_graphs(max_n=4))
def test_edge_census_formula_is_exact(g1, g2):
    cor, _ = neighbourhood_corona(g1, g2)
    assert edge_census_formula(g1, g2) == edge_census_direct(cor)


@settings(deadline=None)
@given(signed_graphs(min_n=0, max_n=9))
def test_triad_census_matches_brute_force(g):
    assert triad_census_direct(g) == brute_triads(g)


@settings(max_examples=40, deadline=None)
@given(signed_graphs(max_n=4), signed_graphs(max_n=4))
def test_balance_criterion_agrees_with_certificate(g1, g2):
    cor, _ = neighbourhood_corona(g1, g2)
    assert corona_balance_criterion(g1, g2) == is_balanced(cor)


@settings(max_examples=30, deadline=None)
@given(signed_graphs(max_n=3), signed_graphs(max_n=3))
def test_corona_trace_identities(g1, g2):
    """Coefficient of x^(N-1) in the characteristic polynomial is minus
    the trace: zero for A, -2m for L and Q."""
    cor, _ = neighbourhood_corona(g1, g2)
    n, m = cor.n, cor.m
    fa = char_poly(matrix(cor, "A"))
    assert fa.coeffs[n - 1] == 0 if n >= 1 else True
    for kind in ("L", "Q"):
        f = char_poly(matrix(cor, kind))
        assert f.coeffs[n - 1] == -2 * m


@settings(max_examples=30, deadline=None)
@given(signed_graphs(max_n=3), signed_graphs(max_n=3))
def test_connected_corona_singular_laplacian_iff_balanced(g1, g2):
    cor, _ = neighbourhood_corona(g1, g2)
    assume(is_connected(cor))
    f = char_poly(matrix(cor, "L"))
    assert (f.coeffs[0] == 0) == is_balanced(cor)


@given(int_polys(), int_polys())
def test_gcd_divides_both(p, q):
    assume(not p.is_zero or not q.is_zero)
    g = poly_gcd(p, q)
    for h in (p, q):
        if not h.is_zero:
            poly_divexact(h, g)  # raises if not exact


@given(int_polys(), st.integers(-4, 4))
def test_polynomial_evaluation_basics(p, t):
    assert (IntPolynomial.x() - t)(t) == 0
    assert p(0) == (p.coeffs[0] if p.coeffs else 0)
    assert p(Fraction(t)) == p(t)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.data())
def test_char_poly_matches_numpy_on_random_symmetric(n, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n, max_size=n))
    m = np.array(rows)
    m = m + m.T
    f = char_poly(m)
    coeffs = np.poly(m.astype(float))[::-1]  # low-first
    assert np.allclose(np.array(f.coeffs, dtype=float), coeffs, atol=1e-6)
