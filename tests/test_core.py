import tracemalloc

import numpy as np
import pytest

from sgcorona.core import (CoRegularity, SignedGraph, canonical_marking,
                           co_regularity, connected_components,
                           degree_profile, is_balanced, is_connected, matrix,
                           negated, new_signed_graph, relabel, switch,
                           switching_certificate)
from sgcorona.coronal import char_poly


def c3():
    return new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def p2neg():
    return new_signed_graph(2, [(0, 1, -1)])


def test_construction_validation():
    with pytest.raises(ValueError, match="self-loop"):
        new_signed_graph(3, [(1, 1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        new_signed_graph(3, [(0, 1, 1), (1, 0, -1)])
    with pytest.raises(ValueError, match="out of range"):
        new_signed_graph(2, [(0, 2, 1)])
    with pytest.raises(ValueError, match="sign"):
        new_signed_graph(2, [(0, 1, 2)])


def test_adjacency_checks_allocate_no_second_int64_matrix():
    for bad in ([[0, 2], [2, 0]], [[0, -2], [-2, 0]]):
        with pytest.raises(ValueError, match="entries"):
            SignedGraph(2, bad)
    assert SignedGraph(0, np.zeros((0, 0))).n == 0
    n = 1024
    adj = np.triu(np.random.default_rng(7).choice((-1, 1), size=(n, n)), 1)
    adj = adj + adj.T
    tracemalloc.start()
    try:
        SignedGraph(n, adj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * adj.nbytes


def test_edges_and_m():
    g = new_signed_graph(4, [(2, 0, -1), (1, 3, 1)])
    assert g.m == 2
    assert g.edges() == [(0, 2, -1), (1, 3, 1)]


def test_adjacency_is_locked():
    g = c3()
    with pytest.raises(ValueError):
        g.adj[0, 1] = 5


def test_matrices():
    g = new_signed_graph(3, [(0, 1, 1), (1, 2, -1)])
    a = matrix(g, "A")
    assert a.tolist() == [[0, 1, 0], [1, 0, -1], [0, -1, 0]]
    d = matrix(g, "D")
    assert d.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    assert (matrix(g, "L") == d - a).all()
    assert (matrix(g, "Q") == d + a).all()
    with pytest.raises(ValueError):
        matrix(g, "B")


def test_canonical_marking():
    assert canonical_marking(new_signed_graph(2, [])).tolist() == [1, 1]
    assert canonical_marking(p2neg()).tolist() == [-1, -1]
    # mixed star: center sees one negative edge
    g = new_signed_graph(3, [(0, 1, 1), (0, 2, -1)])
    assert canonical_marking(g).tolist() == [-1, 1, -1]


def test_degree_profile_and_coregularity():
    g = new_signed_graph(3, [(0, 1, 1), (0, 2, -1)])
    prof = degree_profile(g)
    assert prof.deg.tolist() == [2, 1, 1]
    assert prof.pos_deg.tolist() == [1, 1, 0]
    assert prof.neg_deg.tolist() == [1, 0, 1]
    assert prof.sdeg.tolist() == [0, 1, -1]
    assert co_regularity(g) == CoRegularity(None, None)
    assert co_regularity(c3()) == CoRegularity(2, 2)
    assert co_regularity(p2neg()) == CoRegularity(1, -1)


def test_balance_small_cases():
    assert is_balanced(c3())
    assert is_balanced(p2neg())  # no cycle at all
    one_neg = new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])
    assert not is_balanced(one_neg)
    two_neg = new_signed_graph(3, [(0, 1, -1), (1, 2, -1), (0, 2, 1)])
    assert is_balanced(two_neg)


def test_switching_certificate_positivizes():
    g = new_signed_graph(4, [(0, 1, -1), (1, 2, -1), (2, 3, 1), (0, 3, 1)])
    s = switching_certificate(g)
    assert s is not None
    sw = switch(g, s)
    assert all(sign == 1 for _, _, sign in sw.edges())
    assert switching_certificate(
        new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, -1)])) is None


def test_switching_preserves_balance_and_spectrum():
    g = new_signed_graph(4, [(0, 1, -1), (1, 2, 1), (2, 3, -1), (0, 3, 1),
                             (0, 2, 1)])
    sw = switch(g, [1, -1, -1, 1])
    assert is_balanced(sw) == is_balanced(g)
    assert char_poly(matrix(sw, "A")) == char_poly(matrix(g, "A"))
    assert char_poly(matrix(sw, "L")) == char_poly(matrix(g, "L"))


def test_negated():
    g = new_signed_graph(2, [(0, 1, 1)])
    assert negated(g).edges() == [(0, 1, -1)]


def test_relabel():
    g = new_signed_graph(3, [(0, 1, 1), (1, 2, -1)])
    h = relabel(g, [2, 0, 1])  # node i gets new label perm[i]
    assert h.edges() == [(0, 1, -1), (0, 2, 1)]
    assert char_poly(matrix(h, "A")) == char_poly(matrix(g, "A"))


def test_connectivity():
    g = new_signed_graph(4, [(0, 1, 1), (2, 3, -1)])
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3]]
    assert not is_connected(g)
    assert is_connected(c3())
