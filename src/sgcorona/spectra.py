"""Spectra of corona products, three independent ways.

1. numeric: build the corona and diagonalize its matrix with LAPACK
   (numpy's eigvalsh), the floating-point oracle.
2. theorem: assemble the characteristic polynomial exactly from the
   factors' data and isolate its real roots by exact integer Descartes
   bisection (polys.real_root_pairs), so this route shares no floating
   point with the numeric one.  With the copy factor's
   coronal p/q in lowest terms and cofactor d = charpoly/q, the three
   assemblies are

     A:  d(x)^n1 * det( q(x) (xI - A1) - p(x) A1^2 )
     Q:  d(x-r)^n1 * det( q(x-r) ((x - n2 r)I - Q1) - p(x-r)(Q1 - rI)^2 )
     L:  d(x-r)^n1 * det( q(x-r) ((x - n2 r)I - L1) - p(x-r)(L1 - rI)^2 )

   where r is the base degree (Q and L require a regular base).  The
   determinants run over integer polynomials, so the result is exact
   and must equal char_poly of the built corona coefficientwise.
3. closed form: when the copy factor is net-regular with an
   eigenvector marking, each base eigenvalue contributes a quadratic
   pair; when it is a star, a cubic triple.  These run in floating
   point off the factors' spectra.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SignedGraph, canonical_marking, co_regularity, matrix
from .corona import neighbourhood_corona
from .coronal import (coronal_with_char_poly, has_eigenvector_marking,
                      star_shape)
from .polys import IntPolynomial, poly_matrix_det, real_root_pairs, taylor_shift

__all__ = [
    "Spectrum",
    "eig_symmetric",
    "real_roots",
    "charpoly_A_corona",
    "charpoly_Q_corona",
    "charpoly_L_corona",
    "spectrum_A_net_regular",
    "spectrum_A_star",
    "spectrum_Q_coregular",
    "spectrum_Q_star",
    "spectrum_L_coregular",
    "spectrum_L_star",
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


def _eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.  eigvalsh reads only
    one triangle, so squareness and symmetry are checked here."""
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
    return Spectrum.from_values(_eigvalsh(m), cluster_tol)


def real_roots(p: IntPolynomial) -> Spectrum:
    """All real roots of p as a Spectrum; raises ValueError when the
    polynomial is not real-rooted (a misassembled input).

    The multiplicities are exact: the roots come from pairwise coprime
    squarefree factors, so no two are equal and none may be clustered,
    however close they lie."""
    return Spectrum.from_pairs(real_root_pairs(p), cluster_tol=0.0)


# ---------------------------------------------------------------------------
# exact theorem assembly

def _corona_char_poly(base_mat: np.ndarray, g2: SignedGraph, kind: str,
                      shift: int, scalar_offset: int,
                      quad_mat: np.ndarray) -> IntPolynomial:
    """Shared engine: cofactor(x-shift)^n1 * det( q(x-shift) *
    ((x - scalar_offset) I - base_mat) - p(x-shift) * quad_mat )."""
    cor, _, dfac = coronal_with_char_poly(matrix(g2, kind),
                                          canonical_marking(g2))
    p, q = cor.num, cor.den
    if shift != 0:
        p = taylor_shift(p, -shift)
        q = taylor_shift(q, -shift)
        dfac = taylor_shift(dfac, -shift)
    n1 = base_mat.shape[0]
    qx = q.shift(1) - scalar_offset * q
    rows = []
    for i in range(n1):
        row = []
        for j in range(n1):
            e = (-int(base_mat[i, j])) * q + (-int(quad_mat[i, j])) * p
            if i == j:
                e = e + qx
            row.append(e)
        rows.append(row)
    det = poly_matrix_det(rows)
    out = det * dfac**n1
    assert out.is_monic and out.degree == n1 * (g2.n + 1)
    return out


def charpoly_A_corona(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Exact adjacency characteristic polynomial of the corona."""
    a1 = matrix(g1, "A")
    return _corona_char_poly(a1, g2, "A", shift=0, scalar_offset=0,
                             quad_mat=a1 @ a1)


def _require_regular(g1: SignedGraph) -> int:
    r = co_regularity(g1).r
    if r is None:
        raise ValueError("base graph must be regular for the Q and L "
                         "characteristic polynomial assemblies")
    return r


def charpoly_Q_corona(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Exact signless-Laplacian characteristic polynomial of the
    corona; requires a regular base graph."""
    r = _require_regular(g1)
    q1 = matrix(g1, "Q")
    b = q1 - r * np.identity(g1.n, dtype=np.int64)
    return _corona_char_poly(q1, g2, "Q", shift=r,
                             scalar_offset=g2.n * r, quad_mat=b @ b)


def charpoly_L_corona(g1: SignedGraph, g2: SignedGraph) -> IntPolynomial:
    """Exact Laplacian characteristic polynomial of the corona;
    requires a regular base graph."""
    r = _require_regular(g1)
    l1 = matrix(g1, "L")
    b = l1 - r * np.identity(g1.n, dtype=np.int64)
    return _corona_char_poly(l1, g2, "L", shift=r,
                             scalar_offset=g2.n * r, quad_mat=b @ b)


# ---------------------------------------------------------------------------
# closed-form spectra

def _quadratic_pairs(spec1: Spectrum, pole: float, n2: int, shift: float):
    """Per base eigenvalue a, the two roots of
    (x - n2*shift - a)(x - pole) - n2 (a - shift)^2."""
    out = []
    for alpha, m in spec1.pairs:
        s = pole + n2 * shift + alpha
        disc = math.sqrt((pole - n2 * shift - alpha) ** 2
                         + 4 * n2 * (alpha - shift) ** 2)
        out.append(((s - disc) / 2, m))
        out.append(((s + disc) / 2, m))
    return out


def _shifted_tail(spec2: Spectrum, pole_source: float, shift: float,
                  n1: int, p: int, pole: float):
    """Copy-factor eigenvalues other than pole_source, shifted, each
    with multiplicity n1; the pole itself with multiplicity n1*(p-1)."""
    got_p = spec2.multiplicity_of(pole_source)
    if got_p != p:
        raise ValueError(f"stated pole multiplicity {p} but the factor "
                         f"spectrum carries {got_p}")
    out = []
    for beta, m in spec2.pairs:
        if abs(beta - pole_source) <= CLUSTER_TOL:
            continue
        out.append((beta + shift, m * n1))
    if p > 1:
        out.append((pole, n1 * (p - 1)))
    return out


def spectrum_A_net_regular(spec1: Spectrum, n2: int, k: int, p: int,
                           spec2: Spectrum) -> Spectrum:
    """Corona adjacency spectrum when the copy factor is net-regular
    with an eigenvector marking: per base eigenvalue a the roots
    (a + k +- sqrt((a-k)^2 + 4 n2 a^2))/2, the remaining copy
    eigenvalues each n1 times, and k itself n1*(p-1) times."""
    n1 = spec1.order
    vals = _quadratic_pairs(spec1, pole=float(k), n2=n2, shift=0.0)
    vals += _shifted_tail(spec2, pole_source=float(k), shift=0.0,
                          n1=n1, p=p, pole=float(k))
    return Spectrum.from_pairs(vals)


def _real_cubic_roots(coeffs):
    roots = np.roots(coeffs)
    if np.max(np.abs(roots.imag)) > 1e-6:
        raise ValueError("cubic factor produced non-real roots")
    return [float(r) for r in np.sort(roots.real)]


def spectrum_A_star(spec1: Spectrum, legs: int, mark_center: int) -> Spectrum:
    """Corona adjacency spectrum when the copy factor is a star with
    the given leg count: eigenvalue 0 with multiplicity n1*(legs-1)
    plus, per base eigenvalue a, the roots of
    x^3 - a x^2 - ((legs+1) a^2 + legs) x + legs*a*(1 - 2 a mark)."""
    n1 = spec1.order
    vals = []
    if legs > 1:
        vals.append((0.0, n1 * (legs - 1)))
    for alpha, m in spec1.pairs:
        cubic = [1.0,
                 -alpha,
                 -((legs + 1) * alpha * alpha + legs),
                 legs * alpha * (1.0 - 2.0 * alpha * mark_center)]
        for r in _real_cubic_roots(cubic):
            vals.append((r, m))
    return Spectrum.from_pairs(vals)


def spectrum_Q_coregular(spec1: Spectrum, r1: int, n2: int, r2: int, k2: int,
                         p: int, spec2: Spectrum) -> Spectrum:
    """Corona signless-Laplacian spectrum for a regular base and a
    co-regular copy factor with eigenvector marking.  The coronal pole
    sits at r1 + r2 + k2; copy eigenvalues shift by r1."""
    n1 = spec1.order
    pole = float(r1 + r2 + k2)
    vals = _quadratic_pairs(spec1, pole=pole, n2=n2, shift=float(r1))
    vals += _shifted_tail(spec2, pole_source=float(r2 + k2), shift=float(r1),
                          n1=n1, p=p, pole=pole)
    return Spectrum.from_pairs(vals)


def spectrum_L_coregular(spec1: Spectrum, r1: int, n2: int, r2: int, k2: int,
                         p: int, spec2: Spectrum) -> Spectrum:
    """Laplacian counterpart; the pole sits at r1 + r2 - k2."""
    n1 = spec1.order
    pole = float(r1 + r2 - k2)
    vals = _quadratic_pairs(spec1, pole=pole, n2=n2, shift=float(r1))
    vals += _shifted_tail(spec2, pole_source=float(r2 - k2), shift=float(r1),
                          n1=n1, p=p, pole=pole)
    return Spectrum.from_pairs(vals)


def _star_cubic_pairs(spec1: Spectrum, r1: int, legs: int, mu_term: float):
    """Roots of (x - (legs+1) r1 - a)(x - r1)(x - r1 - legs - 1)
    - ((legs+1)(x - r1) - (legs^2+1) + mu_term) (a - r1)^2, per base
    eigenvalue a."""
    out = []
    big_a = float(legs + 1)
    for alpha, m in spec1.pairs:
        s2 = (alpha - r1) ** 2
        aa = big_a * r1 + alpha
        bb = float(r1)
        cc = r1 + big_a
        c3 = 1.0
        c2 = -(aa + bb + cc)
        c1 = aa * bb + aa * cc + bb * cc - big_a * s2
        c0 = -(aa * bb * cc) + (big_a * r1 + legs * legs + 1 - mu_term) * s2
        for r in _real_cubic_roots([c3, c2, c1, c0]):
            out.append((r, m))
    return out


def spectrum_Q_star(spec1: Spectrum, r1: int, legs: int,
                    mark_center: int) -> Spectrum:
    """Corona signless-Laplacian spectrum for a regular base and a star
    copy factor: eigenvalue 1 + r1 with multiplicity n1*(legs-1) plus a
    cubic triple per base eigenvalue."""
    n1 = spec1.order
    vals = [(float(1 + r1), n1 * (legs - 1))] if legs > 1 else []
    vals += _star_cubic_pairs(spec1, r1, legs, mu_term=2.0 * legs * mark_center)
    return Spectrum.from_pairs(vals)


def spectrum_L_star(spec1: Spectrum, r1: int, legs: int,
                    mark_center: int) -> Spectrum:
    """Laplacian counterpart of spectrum_Q_star (the mark term enters
    with the opposite sign, mirroring the coronal)."""
    n1 = spec1.order
    vals = [(float(1 + r1), n1 * (legs - 1))] if legs > 1 else []
    vals += _star_cubic_pairs(spec1, r1, legs,
                              mu_term=-2.0 * legs * mark_center)
    return Spectrum.from_pairs(vals)


# ---------------------------------------------------------------------------
# front end

def _closed_form_spectrum(g1: SignedGraph, g2: SignedGraph,
                          kind: str) -> Spectrum:
    kind = kind.upper()
    k2 = has_eigenvector_marking(g2)
    shape = star_shape(g2)
    if kind == "A":
        spec1 = eig_symmetric(matrix(g1, "A"))
        if k2 is not None:
            spec2 = eig_symmetric(matrix(g2, "A"))
            return spectrum_A_net_regular(spec1, g2.n, k2,
                                          spec2.multiplicity_of(k2), spec2)
        if shape is not None:
            return spectrum_A_star(spec1, *shape)
        raise ValueError("no closed-form spectrum family applies to the "
                         "copy factor (need eigenvector marking or a star)")
    r1 = _require_regular(g1)
    spec1 = eig_symmetric(matrix(g1, kind))
    reg2 = co_regularity(g2)
    if k2 is not None and reg2.r is not None:
        spec2 = eig_symmetric(matrix(g2, kind))
        pole_src = reg2.r + k2 if kind == "Q" else reg2.r - k2
        fn = spectrum_Q_coregular if kind == "Q" else spectrum_L_coregular
        return fn(spec1, r1, g2.n, reg2.r, k2,
                  spec2.multiplicity_of(pole_src), spec2)
    if shape is not None:
        fn = spectrum_Q_star if kind == "Q" else spectrum_L_star
        return fn(spec1, r1, *shape)
    raise ValueError("no closed-form spectrum family applies to the copy "
                     "factor (need co-regular with eigenvector marking, or "
                     "a star)")


def corona_spectrum(g1: SignedGraph, g2: SignedGraph, kind: str,
                    method: str = "numeric") -> Spectrum:
    """Spectrum of the corona's A, L or Q matrix.

    method 'numeric' diagonalizes the built corona, 'theorem' isolates
    the roots of the exactly assembled characteristic polynomial, and
    'closed_form' (alias 'proposition') applies the per-family
    formulas, raising ValueError when no family matches.  Every method
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
    va = _eigvalsh(a)
    vb = _eigvalsh(b)
    return bool(np.all(np.abs(va - vb) <= tol))
