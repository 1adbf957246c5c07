import random

import numpy as np
import pytest

from sgcorona.core import matrix, new_signed_graph
from sgcorona.corona import (CoronaLayout, corona_block_matrix,
                             neighbourhood_corona)
from sgcorona.generate import random_signed_graph


def test_layout_indexing():
    lay = CoronaLayout(3, 2)
    assert lay.total == 9
    assert [lay.base_index(i) for i in range(3)] == [0, 1, 2]
    assert lay.copy_index(0, 0) == 3
    assert lay.copy_index(2, 0) == 5
    assert lay.copy_index(0, 1) == 6
    assert lay.copy_index(2, 1) == 8


def test_sizes_and_edge_count():
    g1 = new_signed_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    g2 = new_signed_graph(2, [(0, 1, 1)])
    cor, lay = neighbourhood_corona(g1, g2)
    assert cor.n == 9
    # m1 + n1*m2 + 2*m1*n2
    assert cor.m == 3 + 3 * 1 + 2 * 3 * 2
    assert all(s == 1 for _, _, s in cor.edges())


def test_cross_edge_sign_uses_copy_owner_mark():
    """Path 0-1 (positive), 1-2 (negative): markings are +1, -1, -1.
    A base neighbour u attaches to copy b with sign
    sign(u,b) * mark1(b) * mark2(j), so the mark at the copy owner
    decides, not the mark at the attaching node."""
    g1 = new_signed_graph(3, [(0, 1, 1), (1, 2, -1)])
    g2 = new_signed_graph(1, [])  # single positive-marked node
    cor, lay = neighbourhood_corona(g1, g2)
    a = cor.adj
    # node 0 -> copy of 1: +1 * mark1(1) = -1
    assert a[lay.base_index(0), lay.copy_index(1, 0)] == -1
    # node 1 -> copy of 0: +1 * mark1(0) = +1
    assert a[lay.base_index(1), lay.copy_index(0, 0)] == 1
    # node 1 -> copy of 2: -1 * mark1(2) = +1
    assert a[lay.base_index(1), lay.copy_index(2, 0)] == 1
    # node 2 -> copy of 1: -1 * mark1(1) = +1
    assert a[lay.base_index(2), lay.copy_index(1, 0)] == 1


def test_copy_mark_scales_cross_signs():
    # copy factor = negative edge, marks (-1, -1): cross signs flip
    g1 = new_signed_graph(2, [(0, 1, 1)])
    g2 = new_signed_graph(2, [(0, 1, -1)])
    cor, lay = neighbourhood_corona(g1, g2)
    a = cor.adj
    for owner, attacher in ((0, 1), (1, 0)):
        for j in range(2):
            assert a[lay.base_index(attacher),
                     lay.copy_index(owner, j)] == -1


def test_copies_carry_g2_signs():
    g1 = new_signed_graph(2, [(0, 1, -1)])
    g2 = new_signed_graph(3, [(0, 1, 1), (1, 2, -1)])
    cor, lay = neighbourhood_corona(g1, g2)
    a = cor.adj
    for owner in range(2):
        assert a[lay.copy_index(owner, 0), lay.copy_index(owner, 1)] == 1
        assert a[lay.copy_index(owner, 1), lay.copy_index(owner, 2)] == -1
        assert a[lay.copy_index(owner, 0), lay.copy_index(owner, 2)] == 0


def test_no_edges_between_distinct_copies():
    g1 = new_signed_graph(2, [(0, 1, 1)])
    g2 = new_signed_graph(2, [(0, 1, 1)])
    cor, lay = neighbourhood_corona(g1, g2)
    a = cor.adj
    for j in range(2):
        for k in range(2):
            assert a[lay.copy_index(0, j), lay.copy_index(1, k)] == 0


def test_block_matrix_identity_random():
    rng = random.Random(11)
    for _ in range(60):
        g1 = random_signed_graph(rng, rng.randint(1, 5))
        g2 = random_signed_graph(rng, rng.randint(1, 5))
        cor, _ = neighbourhood_corona(g1, g2)
        for kind in ("A", "D", "L", "Q"):
            assert np.array_equal(matrix(cor, kind),
                                  corona_block_matrix(g1, g2, kind)), \
                (kind, g1.edges(), g2.edges())


def test_isolated_base_node_keeps_its_copy_dangling():
    g1 = new_signed_graph(2, [])  # no base edges -> no cross edges
    g2 = new_signed_graph(2, [(0, 1, -1)])
    cor, lay = neighbourhood_corona(g1, g2)
    assert cor.m == 2  # just the two copy edges


def test_corona_bounds_the_product_before_allocating(monkeypatch):
    g = new_signed_graph(100, [])

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated a matrix")

    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(ValueError, match="10100 nodes"):
        neighbourhood_corona(g, g)
