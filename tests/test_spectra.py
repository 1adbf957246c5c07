import itertools
import math
import random

import numpy as np
import pytest

from sgcorona.core import matrix, new_signed_graph
from sgcorona.corona import neighbourhood_corona
from sgcorona.coronal import char_poly
from sgcorona.generate import (random_offset_circulant,
                               random_regular_circulant,
                               random_signed_graph, random_star)
from sgcorona.polys import IntPolynomial
from sgcorona.spectra import (Spectrum, charpoly_A_corona, charpoly_L_corona,
                              charpoly_Q_corona, check_cospectral,
                              corona_spectrum, eig_symmetric, real_roots)

X = IntPolynomial.x()


def c3():
    return new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def p2():
    return new_signed_graph(2, [(0, 1, 1)])


# ---------------------------------------------------------------------------
# Spectrum container

def test_spectrum_clusters_close_values():
    s = Spectrum.from_values([1.0, 1.0 + 1e-9, 2.0, 1.0 - 1e-9])
    assert s.pairs == ((1.0, 3), (2.0, 1))
    assert s.order == 4
    assert s.values == (1.0, 1.0, 1.0, 2.0)


def test_spectrum_validates():
    with pytest.raises(ValueError):
        Spectrum([(2.0, 1), (1.0, 1)])  # not increasing
    with pytest.raises(ValueError):
        Spectrum([(1.0, 0)])
    with pytest.raises(AttributeError):
        Spectrum([(1.0, 1)]).pairs = ()


def test_spectrum_isclose():
    a = Spectrum([(0.0, 2), (1.0, 1)])
    b = Spectrum.from_values([1e-10, -1e-10, 1.0])
    assert a.isclose(b)
    assert not a.isclose(Spectrum([(0.0, 1), (1.0, 2)]))


def test_spectrum_str():
    assert str(Spectrum([(-1.0, 2), (2.0, 1)])) == "{-1^(2), 2}"


# ---------------------------------------------------------------------------
# eigensolver

def test_eig_symmetric_small_frozen():
    assert np.allclose(eig_symmetric(np.array([[0., 1.], [1., 0.]])).values,
                       [-1.0, 1.0])
    assert eig_symmetric(np.zeros((4, 4))).pairs == ((0.0, 4),)
    assert eig_symmetric(matrix(c3(), "A")).isclose(
        Spectrum([(-1.0, 2), (2.0, 1)]))
    assert eig_symmetric(matrix(p2(), "L")).isclose(
        Spectrum([(0.0, 1), (2.0, 1)]))


def test_eig_symmetric_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_symmetric(np.zeros((2, 3)))


def test_eig_symmetric_invariants_random():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 25)
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                m[i, j] = m[j, i] = rng.randint(-5, 5)
        vals = np.array(eig_symmetric(m).values)
        assert abs(vals.sum() - np.trace(m)) < 1e-9
        assert abs((vals ** 2).sum() - (m * m).sum()) < 1e-8


def test_real_roots_spectrum():
    s = real_roots(X**3 - 3 * X - 2)
    assert s.isclose(Spectrum([(-1.0, 2), (2.0, 1)]))
    with pytest.raises(ValueError):
        real_roots(X**2 + 1)


def test_real_roots_keeps_close_simple_roots_apart():
    # two simple roots 1e-7 apart are not one double root
    s = real_roots((10**7 * X - 10**7) * (10**7 * X - 10**7 - 1))
    assert [m for _, m in s.pairs] == [1, 1]
    assert s.isclose(Spectrum([(1.0, 1), (1.0000001, 1)]), 1e-12)
    # repeated roots keep their exact multiplicities
    s = corona_spectrum(c3(), p2(), "A", "theorem")
    assert s.multiplicity_of(-1.0) == 3
    assert s.multiplicity_of(math.sqrt(3)) == 2
    assert s.multiplicity_of(-math.sqrt(3)) == 2


# ---------------------------------------------------------------------------
# exact assemblies

def test_charpoly_A_frozen_pair():
    f = charpoly_A_corona(c3(), p2())
    cor, _ = neighbourhood_corona(c3(), p2())
    assert f == char_poly(matrix(cor, "A"))
    assert f.degree == 9 and f.is_monic


def test_charpolys_match_built_corona_random():
    rng = random.Random(17)
    k1, e3 = new_signed_graph(1, []), new_signed_graph(3, [])
    c4 = new_signed_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    # (g1, regular g1, g2): a 1-node base, an edgeless 0-regular base,
    # a C4 copy factor whose A-coronal 4/(x - 2) leaves a cofactor, and a
    # K1 copy factor
    pinned = [(k1, k1, p2()), (e3, e3, c3()), (c3(), c3(), c4),
              (p2(), p2(), k1)]
    drawn = ((random_signed_graph(rng, rng.randint(1, 4)),
              random_regular_circulant(rng, rng.randint(1, 4)),
              random_signed_graph(rng, rng.randint(1, 4)))
             for _ in range(40))
    for g1, g1r, g2 in itertools.chain(pinned, drawn):
        cor, _ = neighbourhood_corona(g1, g2)
        assert charpoly_A_corona(g1, g2) == char_poly(matrix(cor, "A"))
        corr, _ = neighbourhood_corona(g1r, g2)
        assert charpoly_Q_corona(g1r, g2) == char_poly(matrix(corr, "Q"))
        assert charpoly_L_corona(g1r, g2) == char_poly(matrix(corr, "L"))


def test_assembly_on_zero_node_factors():
    # with either factor empty the corona is the base factor
    k0 = new_signed_graph(0, [])
    assert charpoly_A_corona(k0, p2()) == 1
    assert charpoly_A_corona(c3(), k0) == char_poly(matrix(c3(), "A"))
    assert charpoly_Q_corona(c3(), k0) == X**3 - 6 * X**2 + 9 * X - 4


def test_QL_assembly_requires_regular_base():
    path = new_signed_graph(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="regular"):
        charpoly_Q_corona(path, p2())
    with pytest.raises(ValueError, match="regular"):
        charpoly_L_corona(path, p2())
    with pytest.raises(ValueError, match="regular"):
        corona_spectrum(path, p2(), "Q", "theorem")


# ---------------------------------------------------------------------------
# closed-form spectra

def test_closed_form_star_on_single_node_base():
    # a K1 base has no edges, so the corona is K1 beside a 4-leg star:
    # the base eigenvalue 0 gives 0 and the star's {-2, 0^(3), 2}
    k1 = new_signed_graph(1, [])
    star = new_signed_graph(5, [(0, j, 1) for j in range(1, 5)])
    got = corona_spectrum(k1, star, "A", "closed_form")
    assert got.isclose(Spectrum([(-2.0, 1), (0.0, 4), (2.0, 1)]), 1e-12)


def test_closed_form_net_regular_on_single_node_base():
    # a zero base eigenvalue decouples M_0 into 0 and the copy spectrum
    k1 = new_signed_graph(1, [])
    got = corona_spectrum(k1, c3(), "A", "closed_form")
    assert got.isclose(Spectrum([(-1.0, 2), (0.0, 1), (2.0, 1)]), 1e-12)


def test_closed_form_matches_theorem_on_families():
    rng = random.Random(31)
    for _ in range(15):
        g1 = random_regular_circulant(rng, rng.randint(1, 4))
        g2c = random_offset_circulant(rng, rng.randint(1, 4))
        g2s = random_star(rng, rng.randint(1, 3))
        g1a = random_signed_graph(rng, rng.randint(1, 4))
        for g2 in (g2c, g2s):
            for kind in ("A", "Q", "L"):
                fast = corona_spectrum(g1, g2, kind, "closed_form")
                exact = corona_spectrum(g1, g2, kind, "theorem")
                assert fast.isclose(exact, 1e-6), \
                    (kind, g1.edges(), g2.edges())
            # the A route needs no regular base
            fast = corona_spectrum(g1a, g2, "A", "closed_form")
            exact = corona_spectrum(g1a, g2, "A", "theorem")
            assert fast.isclose(exact, 1e-6), (g1a.edges(), g2.edges())


def test_closed_form_solves_nothing_larger_than_a_factor(monkeypatch):
    # a large copy factor must not cost one (n2+1)-square matrix per
    # base eigenvalue: no eigenproblem handed to LAPACK may hold more
    # entries than the larger factor's matrix
    rng = random.Random(47)
    pairs = [(random_signed_graph(rng, 8), random_star(rng, 100), "A"),
             (random_regular_circulant(rng, 8),
              random_offset_circulant(rng, 60), "Q"),
             (random_regular_circulant(rng, 8),
              random_offset_circulant(rng, 60), "L")]
    want = [corona_spectrum(g1, g2, kind, "numeric")
            for g1, g2, kind in pairs]
    sizes = []
    for name in ("eigvalsh", "eigh"):
        def spy(a, *args, _f=getattr(np.linalg, name), **kw):
            sizes.append(np.size(a))
            return _f(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, spy)
    for (g1, g2, kind), exp in zip(pairs, want):
        sizes.clear()
        got = corona_spectrum(g1, g2, kind, "closed_form")
        assert got.order == exp.order
        assert got.isclose(exp, 1e-8), kind
        assert max(sizes) <= max(g1.n, g2.n) ** 2, (kind, sizes)


def test_dispatcher_tokens():
    a = corona_spectrum(c3(), p2(), "A", "proposition")
    b = corona_spectrum(c3(), p2(), "A", "closed_form")
    assert a.isclose(b, 0.0)
    with pytest.raises(ValueError, match="method"):
        corona_spectrum(c3(), p2(), "A", "magic")
    with pytest.raises(ValueError, match="matrix kind"):
        corona_spectrum(c3(), p2(), "D", "numeric")


def test_dispatcher_rejects_out_of_family_copy_factor():
    path = new_signed_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    with pytest.raises(ValueError, match="family"):
        corona_spectrum(c3(), path, "A", "proposition")


def test_check_cospectral():
    a = matrix(c3(), "A")
    one_neg = new_signed_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
    b = matrix(one_neg, "A")
    assert check_cospectral(a, a)
    assert not check_cospectral(a, b)  # {-1,-1,2} vs {-2,1,1}
    assert not check_cospectral(a, np.zeros((2, 2)))
