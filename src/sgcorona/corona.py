"""Neighbourhood corona product of two signed graphs.

The product of a base graph on n1 nodes with a copy factor on n2 nodes
keeps the base, attaches one copy of the factor per base node, and
joins every neighbour u of base node b to every node of copy b.  The
cross edge {u, v_j of copy b} carries the sign

    sign(u, b) * mark1(b) * mark2(v_j)

with canonical marks computed on the original factors.  This is the
sign pattern of the block matrix below (the mark of the base factor is
applied at the copy owner b), and the product of two all-positive
graphs stays all-positive.

Node layout: base node i keeps index i; node v_j of copy i lives at
n1 + j*n1 + i, so the blocks W_j = {v_j of every copy} are contiguous
and the adjacency is literally a 2x2 block matrix of Kronecker
products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_NODES, SignedGraph, canonical_marking, matrix

__all__ = ["CoronaLayout", "neighbourhood_corona", "corona_block_matrix"]


@dataclass(frozen=True)
class CoronaLayout:
    """Index bookkeeping for the corona node ordering."""

    n1: int
    n2: int

    @property
    def total(self) -> int:
        return self.n1 * (self.n2 + 1)

    def base_index(self, i: int) -> int:
        return i

    def copy_index(self, owner: int, j: int) -> int:
        """Index of node v_j in the copy attached to base node owner."""
        return self.n1 + j * self.n1 + owner


def neighbourhood_corona(g1: SignedGraph, g2: SignedGraph):
    """Build the corona explicitly, edge by edge.

    Returns (graph, layout), or raises ValueError for an empty factor
    or a product over MAX_NODES nodes.  Edge count m1 + n1*m2 + 2*m1*n2
    and node count n1*(n2+1) follow from the construction and are
    asserted here.
    """
    if g1.n < 1 or g2.n < 1:
        raise ValueError("both factors need at least one node")
    lay = CoronaLayout(g1.n, g2.n)
    if lay.total > MAX_NODES:
        raise ValueError(f"the corona would have {lay.total} nodes, over "
                         f"the limit of {MAX_NODES}")
    mu1 = canonical_marking(g1)
    mu2 = canonical_marking(g2)
    n = lay.total
    adj = np.zeros((n, n), dtype=np.int64)
    adj[: g1.n, : g1.n] = g1.adj
    for b in range(g1.n):
        idx = np.array([lay.copy_index(b, j) for j in range(g2.n)])
        adj[np.ix_(idx, idx)] = g2.adj
        col = g1.adj[:, b]
        if not col.any():
            continue
        for j in range(g2.n):
            c = lay.copy_index(b, j)
            sgn = col * int(mu1[b] * mu2[j])
            adj[: g1.n, c] = sgn
            adj[c, : g1.n] = sgn
    g = SignedGraph(n, adj)
    assert g.m == g1.m + g1.n * g2.m + 2 * g1.m * g2.n
    return g, lay


def corona_block_matrix(g1: SignedGraph, g2: SignedGraph,
                        which: str) -> np.ndarray:
    """Assemble a corona matrix from Kronecker blocks, without building
    the corona itself.

    A  =  [[ A1,               kron(mu2^T, A1 @ phi1) ],
           [ kron(mu2, phi1 @ A1), kron(A2, I_n1)     ]]

    D  =  diag( (n2+1) * D1,  kron(D2, I_n1) + kron(I_n2, D1) )

    and L = D - A, Q = D + A.  Must equal the matrix of the built
    corona entrywise; the test suite enforces this with zero tolerance.
    """
    kind = which.upper()
    n1, n2 = g1.n, g2.n
    a1 = matrix(g1, "A")
    a2 = matrix(g2, "A")
    mu1 = canonical_marking(g1)
    mu2 = canonical_marking(g2)
    phi1 = np.diag(mu1)
    eye1 = np.identity(n1, dtype=np.int64)
    eye2 = np.identity(n2, dtype=np.int64)
    cross = np.kron(mu2.reshape(1, n2), a1 @ phi1)
    amat = np.block([[a1, cross],
                     [cross.T, np.kron(a2, eye1)]])
    if kind == "A":
        return amat
    d1 = matrix(g1, "D")
    d2 = matrix(g2, "D")
    zeros = np.zeros((n1, n1 * n2), dtype=np.int64)
    dmat = np.block([[(n2 + 1) * d1, zeros],
                     [zeros.T, np.kron(d2, eye1) + np.kron(eye2, d1)]])
    if kind == "D":
        return dmat
    if kind == "L":
        return dmat - amat
    if kind == "Q":
        return dmat + amat
    raise ValueError(f"unknown matrix kind {which!r}")
