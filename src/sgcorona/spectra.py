"""Spectra of corona products, three independent ways.

1. numeric: build the corona and diagonalize its matrix with LAPACK
   (numpy's eigvalsh), the floating-point oracle.
2. theorem: assemble the characteristic polynomial exactly from the
   factors' data and isolate its real roots by exact integer Descartes
   bisection (polys.real_root_pairs), so this route shares no floating
   point with the numeric one.  With the copy factor's coronal p/q in
   lowest terms, cofactor d = charpoly/q, r the base degree (0 for A;
   Q and L require a regular base) and B = X1 - rI for X = A, Q or L,

     charpoly = d(x-r)^n1 * det( q(x-r) ((x - n2 r)I - X1) - p(x-r) B^2 )

   The matrix is G(B) for one quadratic G with coefficients in Z[x], so
   the determinant is the resultant of charpoly(B) with G: the product
   of G(b) over the eigenvalues b of B.  It runs over integer
   polynomials, so the result is exact and must equal char_poly of the
   built corona coefficientwise.
3. closed form: for a copy factor in a closed-form coronal family
   (other copy factors raise ValueError), the theorem assembly splits
   into one factor per base eigenvalue a, the characteristic polynomial
   of a symmetric matrix M_a (see _closed_form_spectrum).  In an
   eigenbasis of the copy factor's matrix each M_a reduces to a small
   arrowhead, so one eigh of that matrix and one batched eigvalsh over
   the arrowheads give the spectrum without the corona.
"""

from __future__ import annotations

import numpy as np

from .core import SignedGraph, canonical_marking, co_regularity, matrix
from .corona import neighbourhood_corona
from .coronal import char_poly, closed_form_coronal, coronal_with_char_poly
from .polys import IntPolynomial, poly_divexact, real_root_pairs, taylor_shift

__all__ = [
    "Spectrum",
    "eigenvalues",
    "eig_symmetric",
    "real_roots",
    "charpoly_A_corona",
    "charpoly_Q_corona",
    "charpoly_L_corona",
    "corona_spectrum",
    "check_cospectral",
]

CLUSTER_TOL = 1e-6


class Spectrum:
    """Sorted real eigenvalues with multiplicities."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = tuple((float(v), int(m)) for v, m in pairs)
        for (a, ma), (b, _) in zip(pairs, pairs[1:]):
            if not a < b:
                raise ValueError("values must be strictly increasing")
        if any(m < 1 for _, m in pairs):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    @classmethod
    def from_pairs(cls, pairs, cluster_tol: float = CLUSTER_TOL):
        """Merge (value, multiplicity) pairs, clustering values whose
        gap is at most cluster_tol; each cluster's representative is
        the multiplicity-weighted mean."""
        items = sorted((float(v), int(m)) for v, m in pairs)
        merged = []
        for v, m in items:
            if merged and v - merged[-1][0][-1] <= cluster_tol:
                merged[-1][0].append(v)
                merged[-1][1].append(m)
            else:
                merged.append(([v], [m]))
        out = []
        for vals, mults in merged:
            tot = sum(mults)
            rep = sum(v * m for v, m in zip(vals, mults)) / tot
            out.append((rep + 0.0, tot))
        return cls(out)

    @classmethod
    def from_values(cls, values, cluster_tol: float = CLUSTER_TOL):
        return cls.from_pairs(((v, 1) for v in values), cluster_tol)

    @property
    def order(self) -> int:
        return sum(m for _, m in self.pairs)

    @property
    def values(self):
        """Flattened tuple, each eigenvalue repeated per multiplicity."""
        out = []
        for v, m in self.pairs:
            out.extend([v] * m)
        return tuple(out)

    def multiplicity_of(self, value: float, tol: float = CLUSTER_TOL) -> int:
        return sum(m for v, m in self.pairs if abs(v - value) <= tol)

    def isclose(self, other: "Spectrum", tol: float = 1e-8) -> bool:
        if self.order != other.order:
            return False
        return all(abs(a - b) <= tol
                   for a, b in zip(self.values, other.values))

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.pairs == other.pairs

    def __str__(self):
        parts = []
        for v, m in self.pairs:
            s = f"{v:.6g}"
            parts.append(s if m == 1 else f"{s}^({m})")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self):
        return f"Spectrum({list(self.pairs)})"


def eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix; raises ValueError
    when m is not square and symmetric (eigvalsh reads only one
    triangle, so both are checked here)."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.max(np.abs(a), initial=0.0)
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + scale)):
        raise ValueError("matrix must be symmetric")
    return np.linalg.eigvalsh(a)


def eig_symmetric(m, cluster_tol: float = CLUSTER_TOL) -> Spectrum:
    """Numeric spectrum of a symmetric matrix; raises ValueError when m
    is not square and symmetric."""
    return Spectrum.from_values(eigenvalues(m), cluster_tol)


def real_roots(p: IntPolynomial) -> Spectrum:
    """All real roots of p as a Spectrum; raises ValueError when the
    polynomial is not real-rooted (a misassembled input).

    The multiplicities are exact: the roots come from pairwise coprime
    squarefree factors, so no two are equal and none may be clustered,
    however close they lie."""
    return Spectrum.from_pairs(real_root_pairs(p), cluster_tol=0.0)


# ---------------------------------------------------------------------------
# exact theorem assembly

def _corona_char_poly(g1: SignedGraph, g2: SignedGraph, kind: str,
                      r: int) -> IntPolynomial:
    """Shared engine for X = A, Q or L with base degree r (0 for A):
    d(x-r)^n1 * det G(B), where B = X1 - rI and G(z) = c2 z^2 + c1 z +
    c0 with c2 = -p(x-r), c1 = -q(x-r), c0 = q(x-r) (x - (n2+1) r).

    det G(B) is the product of G(b) over the eigenvalues b of B, the
    resultant of chi_B with G (Cohen 1993, section 3.3).  Horner on
    chi_B modulo G in Z[x][z] ends with c2^j * chi_B = a z + b (mod G)
    for j = n1 - 1, so det G(B) = (c0 a^2 - c1 a b + c2 b^2) / c2^j.
    """
    chi = char_poly(matrix(g1, kind))
    if g1.n == 0 or g2.n == 0:
        return chi  # with either factor empty the corona is g1
    cor, _, dfac = coronal_with_char_poly(matrix(g2, kind),
                                          canonical_marking(g2))
    p, q, dfac = (taylor_shift(f, -r) for f in (cor.num, cor.den, dfac))
    c2, c1 = -p, -q
    c0 = q.shift(1) - (g2.n + 1) * r * q
    chi_b = taylor_shift(chi, r).coeffs
    one = IntPolynomial((1,))
    a, b, scale = one, chi_b[-2] * one, one
    for e in reversed(chi_b[:-2]):
        scale = scale * c2
        a, b = c2 * b - c1 * a, e * scale - c0 * a
    det = poly_divexact(c0 * a * a - c1 * a * b + c2 * b * b, scale)
    out = det * dfac**g1.n
    assert out.is_monic and out.degree == g1.n * (g2.n + 1)
    return out


def charpoly_A_corona(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Exact adjacency characteristic polynomial of the corona."""
    return _corona_char_poly(g1, g2, "A", 0)


def _require_regular(g1: SignedGraph) -> int:
    r = co_regularity(g1).r
    if r is None:
        raise ValueError("base graph must be regular for the Q and L "
                         "characteristic polynomial assemblies")
    return r


def charpoly_Q_corona(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Exact signless-Laplacian characteristic polynomial of the
    corona; requires a regular base graph."""
    return _corona_char_poly(g1, g2, "Q", _require_regular(g1))


def charpoly_L_corona(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Exact Laplacian characteristic polynomial of the corona;
    requires a regular base graph."""
    return _corona_char_poly(g1, g2, "L", _require_regular(g1))


# ---------------------------------------------------------------------------
# closed-form spectra

def _closed_form_spectrum(g1: SignedGraph, g2: SignedGraph,
                          kind: str) -> Spectrum:
    """Eigenvalues of M_a = [[a + n2 r, (a - r) mu2^T], [(a - r) mu2,
    X2 + r I]] for each eigenvalue a of X1, with a's multiplicity.  X is
    A, Q or L, mu2 the copy factor's marking and r the base degree (0
    for A).  Switching copy b by mark1(b) gives each eigenvector of X1
    an invariant block of the corona matrix, and det(xI - M_a) is one
    factor of the theorem assembly.  Raises ValueError unless the copy
    factor is in a closed_form_coronal family.

    M_a is reduced before it is solved: in an eigenbasis of X2 the part
    of each eigenspace orthogonal to mu2 decouples (eigenvalue l + r for
    every a, n1 times per dimension), and the s main eigenspaces leave
    a (1 + s) x (1 + s) arrowhead per a.  So the cost is one eigh of X2
    and one batched eigvalsh of small blocks, never k copies of M_a."""
    r = 0 if kind == "A" else _require_regular(g1)
    if closed_form_coronal(g2, kind) is None:
        raise ValueError("no closed-form spectrum family applies to the "
                         "copy factor (need a net-regular factor with an "
                         "eigenvector marking, co-regular for Q and L, "
                         "or a star)")
    spec1 = eig_symmetric(matrix(g1, kind))
    lam, vecs = np.linalg.eigh(matrix(g2, kind).astype(np.float64))
    w = vecs.T @ canonical_marking(g2)
    # eigenspaces of X2: runs of eigenvalues closer than CLUSTER_TOL
    cuts = np.flatnonzero(np.diff(lam) > CLUSTER_TOL) + 1
    pairs, main_l, main_c = [], [], []
    for run in np.split(np.arange(g2.n), cuts):
        l = float(lam[run].mean()) + r
        c = float(np.linalg.norm(w[run]))
        dim = run.size
        # |mu2| = sqrt(n2); rounding leaves non-main projections ~1e-13
        if c > 1e-8 * np.sqrt(g2.n):
            main_l.append(l)
            main_c.append(c)
            dim -= 1
        if dim:
            pairs.append((l, g1.n * dim))
    a = np.array([v for v, _ in spec1.pairs])
    blocks = np.zeros((a.size, len(main_l) + 1, len(main_l) + 1))
    blocks[:, 0, 0] = a + g2.n * r
    blocks[:, 0, 1:] = np.outer(a - r, main_c)
    blocks[:, 1:, 0] = blocks[:, 0, 1:]
    idx = np.arange(1, len(main_l) + 1)
    blocks[:, idx, idx] = main_l
    vals = np.linalg.eigvalsh(blocks)
    pairs.extend((v, m) for (_, m), row in zip(spec1.pairs, vals)
                 for v in row)
    return Spectrum.from_pairs(pairs)


def corona_spectrum(g1: SignedGraph, g2: SignedGraph, kind: str,
                    method: str = "numeric") -> Spectrum:
    """Spectrum of the corona's A, L or Q matrix.

    method 'numeric' diagonalizes the built corona, 'theorem' isolates
    the roots of the exactly assembled characteristic polynomial, and
    'closed_form' (alias 'proposition') solves one small eigenproblem
    per base eigenvalue, raising ValueError when the copy factor is in
    no closed_form_coronal family.  Every method
    raises ValueError when a factor has no nodes.
    """
    kind = kind.upper()
    if kind not in ("A", "L", "Q"):
        raise ValueError(f"unknown matrix kind {kind!r}")
    if g1.n < 1 or g2.n < 1:
        raise ValueError("both factors need at least one node")
    if method == "numeric":
        cor, _ = neighbourhood_corona(g1, g2)
        return eig_symmetric(matrix(cor, kind))
    if method == "theorem":
        fn = {"A": charpoly_A_corona, "Q": charpoly_Q_corona,
              "L": charpoly_L_corona}[kind]
        return real_roots(fn(g1, g2))
    if method in ("closed_form", "proposition"):
        return _closed_form_spectrum(g1, g2, kind)
    raise ValueError(f"unknown method {method!r}")


def check_cospectral(m1, m2, tol: float = 1e-8) -> bool:
    """Whether two symmetric matrices have the same spectrum within an
    entrywise tolerance on the sorted eigenvalue lists."""
    a = np.asarray(m1)
    b = np.asarray(m2)
    if a.shape != b.shape:
        return False
    va = eigenvalues(a)
    vb = eigenvalues(b)
    return bool(np.all(np.abs(va - vb) <= tol))
