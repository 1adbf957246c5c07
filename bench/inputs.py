"""Seeded inputs and independent oracles for the benchmark.

Graphs are generated here, not by ``sgcorona.generate``, so a change to
the program can never change what the benchmark feeds it.  The oracles
build the corona matrices with numpy straight from the definition and
diagonalise them with ``numpy.linalg.eigvalsh``; they share no code
with the program's own routes.

A graph is a pair ``(n, edges)`` with edges ``(u, v, sign)``, u < v.
"""

from __future__ import annotations

import hashlib

import numpy as np


def graph_text(g) -> str:
    n, edges = g
    lines = [str(n)] + [f"{u} {v} {'+' if s > 0 else '-'}"
                        for u, v, s in edges]
    return "\n".join(lines) + "\n"


def parse_text(text: str):
    """Inverse of graph_text, for reading back files the program wrote."""
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    n = int(rows[0][0])
    edges = []
    for r in rows[1:]:
        s = -1 if len(r) > 2 and r[2].startswith("-") else 1
        u, v = sorted((int(r[0]), int(r[1])))
        edges.append((u, v, s))
    return n, sorted(edges)


def adjacency(g) -> np.ndarray:
    n, edges = g
    a = np.zeros((n, n), dtype=np.int64)
    for u, v, s in edges:
        a[u, v] = a[v, u] = s
    return a


# ---------------------------------------------------------------------------
# generators

def random_graph(rng, n: int):
    """Half of the n(n-1)/2 possible edges (rounded down), chosen
    uniformly, signs a fair coin.  The fixed edge count keeps the work
    per size steady from seed to seed."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = sorted(rng.sample(pairs, len(pairs) // 2))
    return n, [(u, v, rng.choice((1, -1))) for u, v in chosen]


def circulant(rng, n: int, offsets: int, sign_per_offset: bool):
    """Connected circulant on n nodes: offset 1 plus offsets-1 distinct
    offsets drawn from 2..(n-1)//2, so every node has degree exactly
    2*offsets.  With one sign per offset class the canonical marking is
    constant and the net degree is an adjacency eigenvalue on it (the
    closed-form families); with one sign per edge the graph is only
    regular."""
    chosen = [1] + sorted(rng.sample(range(2, (n - 1) // 2 + 1),
                                     offsets - 1))
    edges = {}
    for d in chosen:
        sign = rng.choice((1, -1))
        for u in range(n):
            v = (u + d) % n
            s = sign if sign_per_offset else rng.choice((1, -1))
            edges[(min(u, v), max(u, v))] = s
    return n, sorted((u, v, s) for (u, v), s in edges.items())


def star(rng, legs: int):
    """Star with node 0 at the centre and independent leg signs."""
    return legs + 1, [(0, i, rng.choice((1, -1))) for i in range(1, legs + 1)]


# ---------------------------------------------------------------------------
# oracles

def _marks(a: np.ndarray) -> np.ndarray:
    neg = np.count_nonzero(a == -1, axis=1)
    return np.where(neg % 2 == 0, 1, -1)


def corona_adjacency(g1, g2) -> np.ndarray:
    """Neighbourhood corona from its definition: the base, one copy of
    the factor per base node b, and every base neighbour u of b joined
    to node v_j of copy b with sign(u, b) * mark1(b) * mark2(v_j).
    Node v_j of copy b sits at n1 + j*n1 + b, the program's documented
    layout, so written graph files can be compared entrywise."""
    a1, a2 = adjacency(g1), adjacency(g2)
    n1, n2 = len(a1), len(a2)
    mu1, mu2 = _marks(a1), _marks(a2)
    # int8 keeps the benchmark's own memory well under the program's
    # on products of hundreds of nodes, where peak_rss_mb is read
    a = np.zeros((n1 * (n2 + 1), n1 * (n2 + 1)), dtype=np.int8)
    a[:n1, :n1] = a1
    for b in range(n1):
        copy = n1 + np.arange(n2) * n1 + b
        a[np.ix_(copy, copy)] = a2
        for j, c in enumerate(copy):
            a[:n1, c] = a1[:, b] * mu1[b] * mu2[j]
            a[c, :n1] = a[:n1, c]
    return a


def edges_of(a: np.ndarray):
    """The graph of an adjacency matrix, in the form parse_text returns."""
    us, vs = np.nonzero(np.triu(a))
    return len(a), [(int(u), int(v), int(a[u, v])) for u, v in zip(us, vs)]


def digest(g) -> str:
    return hashlib.sha256(repr(g).encode()).hexdigest()


def matrix_of(a: np.ndarray, kind: str) -> np.ndarray:
    a = a.astype(np.int64)
    d = np.diag(np.abs(a).sum(axis=1))
    return {"a": a, "l": d - a, "q": d + a}[kind]


def spectrum(a: np.ndarray, kind: str) -> np.ndarray:
    return np.linalg.eigvalsh(matrix_of(a, kind).astype(np.float64))


def is_balanced(a: np.ndarray) -> bool:
    """Two-colouring search: balanced iff nodes take values s with
    s[u] * s[v] = sign(uv) on every edge."""
    n = len(a)
    s = np.zeros(n, dtype=np.int64)
    for root in range(n):
        if s[root]:
            continue
        s[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for v in np.nonzero(a[u])[0]:
                want = s[u] * a[u, v]
                if s[v] == 0:
                    s[v] = want
                    stack.append(v)
                elif s[v] != want:
                    return False
    return True
