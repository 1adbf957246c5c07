"""Signed graph data model and structural queries.

A signed graph is a finite simple undirected graph whose edges carry a
sign in {+1, -1}.  It is stored as a dense symmetric integer adjacency
matrix with entries in {-1, 0, +1} and a zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignedGraph",
    "DegreeProfile",
    "CoRegularity",
    "new_signed_graph",
    "canonical_marking",
    "degree_profile",
    "co_regularity",
    "matrix",
    "is_balanced",
    "switching_certificate",
    "switch",
    "negated",
    "relabel",
    "connected_components",
    "is_connected",
    "MAX_NODES",
]

# the largest graph any command builds or reads: its dense int64
# adjacency takes 128 MB
MAX_NODES = 4096


class SignedGraph:
    """Immutable signed graph on nodes 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        mat = np.array(adj, dtype=np.int64)
        n = int(n)
        if mat.shape != (n, n):
            raise ValueError(f"adjacency must be {n}x{n}, got {mat.shape}")
        if not np.array_equal(mat, mat.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diagonal(mat) != 0):
            raise ValueError("self-loops are not allowed")
        if np.any(np.abs(mat) > 1):
            raise ValueError("adjacency entries must be -1, 0 or +1")
        mat.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", mat)

    def __setattr__(self, name, value):
        raise AttributeError("SignedGraph is immutable")

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(np.count_nonzero(self.adj)) // 2

    def edges(self):
        """List of (u, v, sign) triples with u < v."""
        out = []
        iu, iv = np.nonzero(np.triu(self.adj))
        for u, v in zip(iu.tolist(), iv.tolist()):
            out.append((u, v, int(self.adj[u, v])))
        return out

    def __eq__(self, other):
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    __hash__ = None

    def __repr__(self):
        return f"SignedGraph(n={self.n}, m={self.m})"


def new_signed_graph(n: int, edges) -> SignedGraph:
    """Build a signed graph from an edge list of (u, v, sign) triples.

    Rejects self-loops, duplicate unordered pairs, out-of-range indices
    and signs outside {+1, -1}.
    """
    if n < 0:
        raise ValueError("node count must be non-negative")
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v, s in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge index out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if s not in (1, -1):
            raise ValueError(f"edge sign must be +1 or -1, got {s!r}")
        if adj[u, v] != 0:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u, v] = adj[v, u] = s
    return SignedGraph(n, adj)


def canonical_marking(g: SignedGraph) -> np.ndarray:
    """Node marks: product of incident edge signs, +1 when isolated."""
    neg = np.count_nonzero(g.adj == -1, axis=1)
    return np.where(neg % 2 == 0, 1, -1).astype(np.int64)


@dataclass(frozen=True)
class DegreeProfile:
    deg: np.ndarray
    pos_deg: np.ndarray
    neg_deg: np.ndarray
    sdeg: np.ndarray


def degree_profile(g: SignedGraph) -> DegreeProfile:
    pos = np.count_nonzero(g.adj == 1, axis=1).astype(np.int64)
    neg = np.count_nonzero(g.adj == -1, axis=1).astype(np.int64)
    return DegreeProfile(deg=pos + neg, pos_deg=pos, neg_deg=neg,
                         sdeg=pos - neg)


@dataclass(frozen=True)
class CoRegularity:
    """Common degree r and common net degree k, when they exist."""

    r: int | None
    k: int | None


def co_regularity(g: SignedGraph) -> CoRegularity:
    if g.n == 0:
        return CoRegularity(r=None, k=None)
    prof = degree_profile(g)
    r = int(prof.deg[0]) if np.all(prof.deg == prof.deg[0]) else None
    k = int(prof.sdeg[0]) if np.all(prof.sdeg == prof.sdeg[0]) else None
    return CoRegularity(r=r, k=k)


def matrix(g: SignedGraph, which: str) -> np.ndarray:
    """One of the four standard matrices, as a fresh integer array.

    A: signed adjacency; D: diagonal of total degrees; L: D - A;
    Q: D + A.
    """
    kind = which.upper()
    if kind == "A":
        return np.array(g.adj, dtype=np.int64)
    deg = degree_profile(g).deg
    d = np.diag(deg).astype(np.int64)
    if kind == "D":
        return d
    if kind == "L":
        return d - g.adj
    if kind == "Q":
        return d + g.adj
    raise ValueError(f"unknown matrix kind {which!r}")


def switching_certificate(g: SignedGraph):
    """A node vector s in {-1,+1}^n with s[u]*s[v]*sign(uv) = +1 on
    every edge, or None when no such vector exists (unbalanced graph).

    Breadth-first per component: the root gets +1, each child gets its
    parent's value times the tree edge sign, and every remaining edge
    is checked against the assignment.
    """
    s = np.zeros(g.n, dtype=np.int64)
    for root in range(g.n):
        if s[root] != 0:
            continue
        s[root] = 1
        queue = [root]
        while queue:
            u = queue.pop()
            for v in np.nonzero(g.adj[u])[0].tolist():
                want = int(s[u]) * int(g.adj[u, v])
                if s[v] == 0:
                    s[v] = want
                    queue.append(v)
                elif s[v] != want:
                    return None
    return s


def is_balanced(g: SignedGraph) -> bool:
    """True when every cycle has a positive sign product."""
    return switching_certificate(g) is not None


def switch(g: SignedGraph, s) -> SignedGraph:
    """Switching by a node vector s: adj'[u,v] = s[u]*adj[u,v]*s[v]."""
    vec = np.asarray(s, dtype=np.int64)
    if vec.shape != (g.n,) or np.any(np.abs(vec) != 1):
        raise ValueError("switching vector must be a length-n array of +-1")
    return SignedGraph(g.n, g.adj * np.outer(vec, vec))


def negated(g: SignedGraph) -> SignedGraph:
    """Flip the sign of every edge."""
    return SignedGraph(g.n, -g.adj)


def relabel(g: SignedGraph, perm) -> SignedGraph:
    """Rename nodes; perm[i] is the new label of node i."""
    p = np.asarray(perm, dtype=np.int64)
    if sorted(p.tolist()) != list(range(g.n)):
        raise ValueError("not a permutation of 0..n-1")
    inv = np.argsort(p)
    return SignedGraph(g.n, g.adj[np.ix_(inv, inv)])


def connected_components(g: SignedGraph):
    """List of components, each a sorted list of node indices."""
    seen = np.zeros(g.n, dtype=bool)
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop()
            for v in np.nonzero(g.adj[u])[0].tolist():
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def is_connected(g: SignedGraph) -> bool:
    return len(connected_components(g)) <= 1
