"""Edge counts, triangle counts, and balance for corona products.

The closed formulas here never build the corona; they combine
statistics of the two factors.  Every formula is validated against
direct enumeration on the built product by the test suite and the
verify harness.

All cross terms follow the sign law of the corona construction: a
cross edge from base node u into the copy owned by its neighbour b,
landing on a copy node of mark t, has sign sign(ub) * mark1(b) * t.
So the formulas classify each (base edge, owner) incidence by
sign(e) * mark(owner), never by the endpoint marks alone; the two
agree only when every base edge has sign(uv) = mark(u) * mark(v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SignedGraph, canonical_marking, is_balanced

__all__ = [
    "EdgeCensus",
    "TriadCensus",
    "PatternCounts",
    "edge_census_direct",
    "edge_census_formula",
    "triad_census_direct",
    "triad_census_formula",
    "total_triads_formula",
    "edge_mark_breakdown",
    "inconsistent_edges",
    "corona_balance_criterion",
]


@dataclass(frozen=True)
class EdgeCensus:
    total: int
    positive: int
    negative: int


@dataclass(frozen=True)
class TriadCensus:
    """Triangle counts by number of negative edges (0 through 3)."""

    t0: int
    t1: int
    t2: int
    t3: int

    @property
    def total(self) -> int:
        return self.t0 + self.t1 + self.t2 + self.t3


@dataclass(frozen=True)
class PatternCounts:
    """Counts keyed by an unordered +- pattern of two attributes."""

    pp: int = 0
    pm: int = 0
    mm: int = 0

    @property
    def total(self) -> int:
        return self.pp + self.pm + self.mm


def edge_census_direct(g: SignedGraph) -> EdgeCensus:
    pos = int(np.count_nonzero(g.adj == 1)) // 2
    neg = int(np.count_nonzero(g.adj == -1)) // 2
    return EdgeCensus(total=pos + neg, positive=pos, negative=neg)


def edge_mark_breakdown(g: SignedGraph, sign: int) -> PatternCounts:
    """Edges with the given sign, split by their endpoint marks."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    mu = canonical_marking(g)
    counts = [0, 0, 0]
    for u, v, s in g.edges():
        if s == sign:
            counts[int(mu[u] < 0) + int(mu[v] < 0)] += 1
    return PatternCounts(*counts)


def _owner_sign_split(g: SignedGraph):
    """Counts of (node, incident edge) pairs with sign(e)*mark(node)
    equal to +1 resp. -1.  Their sum is 2m."""
    mu = canonical_marking(g)
    bp = bm = 0
    for u, v, s in g.edges():
        bp += int(s * mu[u] > 0) + int(s * mu[v] > 0)
        bm += int(s * mu[u] < 0) + int(s * mu[v] < 0)
    return bp, bm


def edge_census_formula(g1: SignedGraph, g2: SignedGraph) -> EdgeCensus:
    """Edge census of the corona from factor statistics alone.

    Base and copy edges keep their signs.  A cross edge from base node
    u into copy b (u adjacent to b) lands on a factor node of mark t
    with sign sign(ub) * mark1(b) * t, so the positive cross count is
    (pairs with sign*ownermark = +) * (plus-marked factor nodes) plus
    the complementary product.
    """
    e1 = edge_census_direct(g1)
    e2 = edge_census_direct(g2)
    mu2 = canonical_marking(g2)
    n2p = int(np.count_nonzero(mu2 > 0))
    n2m = g2.n - n2p
    bp, bm = _owner_sign_split(g1)
    pos = e1.positive + g1.n * e2.positive + bp * n2p + bm * n2m
    neg = e1.negative + g1.n * e2.negative + bp * n2m + bm * n2p
    return EdgeCensus(total=pos + neg, positive=pos, negative=neg)


def triad_census_direct(g: SignedGraph) -> TriadCensus:
    """Enumerate all triangles and bucket them by negative-edge count."""
    a = g.adj
    t = [0, 0, 0, 0]
    for u in range(g.n):
        au = a[u]
        for v in range(u + 1, g.n):
            if a[u, v] == 0:
                continue
            ks = np.nonzero((au != 0) & (a[v] != 0))[0]
            ks = ks[ks > v]
            if ks.size == 0:
                continue
            base = int(a[u, v] < 0)
            negs = base + (au[ks] < 0).astype(np.int64) + (a[v][ks] < 0)
            for cnt in negs.tolist():
                t[cnt] += 1
    return TriadCensus(*t)


def _wedge_split(g: SignedGraph):
    """Count (edge {u,v}, common neighbour b) incidences, split by edge
    sign and by the pattern of (sign(ub)*mark(b), sign(vb)*mark(b))."""
    mu = canonical_marking(g)
    a = g.adj
    pos = [0, 0, 0]
    neg = [0, 0, 0]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            s = a[u, v]
            if s == 0:
                continue
            bucket = pos if s > 0 else neg
            for b in np.nonzero((a[u] != 0) & (a[v] != 0))[0].tolist():
                x = int(a[u, b] * mu[b])
                y = int(a[v, b] * mu[b])
                bucket[int(x < 0) + int(y < 0)] += 1
    return PatternCounts(*pos), PatternCounts(*neg)


def triad_census_formula(g1: SignedGraph, g2: SignedGraph) -> TriadCensus:
    """Triad census of the corona from factor statistics alone."""
    t1 = triad_census_direct(g1)
    t2 = triad_census_direct(g2)
    mu2 = canonical_marking(g2)
    n1 = g1.n
    n2p = int(np.count_nonzero(mu2 > 0))
    n2m = g2.n - n2p
    e2p = edge_mark_breakdown(g2, 1)
    e2m = edge_mark_breakdown(g2, -1)
    bp, bm = _owner_sign_split(g1)
    w1p, w1m = _wedge_split(g1)
    # Cross triangles come in two shapes: (base node, factor edge) with
    # two cross edges of sign t*mark2(endpoint), and (base edge, common
    # neighbour, factor node) with two cross edges flipped together by
    # the factor node's mark.  Flipping t or the factor mark swaps the
    # pattern pp <-> mm.
    a0 = t1.t0 + n1 * t2.t0 \
        + bp * e2p.pp + bm * e2p.mm + n2p * w1p.pp + n2m * w1p.mm
    a1 = t1.t1 + n1 * t2.t1 \
        + bp * (e2p.pm + e2m.pp) + bm * (e2p.pm + e2m.mm) \
        + n2p * (w1p.pm + w1m.pp) + n2m * (w1p.pm + w1m.mm)
    a2 = t1.t2 + n1 * t2.t2 \
        + bp * (e2p.mm + e2m.pm) + bm * (e2p.pp + e2m.pm) \
        + n2p * (w1p.mm + w1m.pm) + n2m * (w1p.pp + w1m.pm)
    a3 = t1.t3 + n1 * t2.t3 \
        + bp * e2m.mm + bm * e2m.pp + n2p * w1m.mm + n2m * w1m.pp
    return TriadCensus(a0, a1, a2, a3)


def total_triads_formula(g1: SignedGraph, g2: SignedGraph) -> int:
    """Total triangle count of the corona, sign-free.

    Triangles are: those of the base, those inside copies, one per
    (ordered adjacent base pair, factor edge), and one per (base edge,
    common neighbour, factor node).
    """
    t1 = triad_census_direct(g1).total
    t2 = triad_census_direct(g2).total
    a = g1.adj
    common = 0
    for u in range(g1.n):
        for v in range(u + 1, g1.n):
            if a[u, v] != 0:
                common += int(np.count_nonzero((a[u] != 0) & (a[v] != 0)))
    return t1 + g1.n * t2 + g2.m * 2 * g1.m + g2.n * common


def inconsistent_edges(g: SignedGraph):
    """Edges whose sign differs from the product of their endpoint
    marks, i.e. sign(uv)*mark(u)*mark(v) = -1."""
    mu = canonical_marking(g)
    return [(u, v, s) for u, v, s in g.edges() if s * mu[u] * mu[v] < 0]


def corona_balance_criterion(g1: SignedGraph, g2: SignedGraph) -> bool:
    """Whether the corona is balanced, decided without building it.

    An unbalanced factor makes the corona unbalanced (both factors
    appear as induced subgraphs).  For balanced factors, switch the
    corona by mark1 on the base and mark2 inside every copy: all cross
    edges copy the switched sign of their base edge, so cycles project
    to closed base walks whose contribution is positive, and the cycle
    sign reduces to the product of sign*mark*mark over its copy edges.
    Hence the corona is unbalanced iff the copy factor has an edge with
    sign(uv)*mark(u)*mark(v) = -1 and the base has at least one edge to
    hang the witnessing triangle on.  Inconsistent base edges never
    matter.  Must agree with is_balanced on the built corona; the
    verify harness enforces this.
    """
    if not (is_balanced(g1) and is_balanced(g2)):
        return False
    if g1.m == 0:
        return True
    return not inconsistent_edges(g2)
