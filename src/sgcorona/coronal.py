"""Characteristic polynomials and signed coronals.

The coronal of a symmetric integer matrix M with mark vector mu is the
rational function mu^T (xI - M)^{-1} mu.  It is computed exactly: the
Faddeev-LeVerrier recurrence runs in int64 modulo primes just below
2^25, as many as Hadamard's bound on the coefficients needs, and CRT
rebuilds the integer characteristic polynomials.  The coronal's
numerator mu^T adj(xI - M) mu is det(xI - M) - det(xI - M - mu mu^T),
and the coronal is numerator over det(xI - M) in lowest terms.

The six closed forms cover net-regular graphs with a constant marking
and stars with arbitrary leg signs; each is an exact RationalFn equal
to the generic computation on any valid instance (enforced by tests).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import (MAX_NODES, SignedGraph, canonical_marking, co_regularity,
                   degree_profile, matrix)
from .polys import IntPolynomial, RationalFn, poly_divexact

__all__ = [
    "char_poly",
    "coronal_generic",
    "coronal_of_graph",
    "coronal_A_net_regular",
    "coronal_A_star",
    "coronal_Q_coregular",
    "coronal_Q_star",
    "coronal_L_coregular",
    "coronal_L_star",
    "closed_form_coronal",
    "star_shape",
    "has_eigenvector_marking",
]


# The primes run in batches, so that no int64 stack of the recurrence
# holds more entries than this, unless one prime's matrices alone do.
_STACK_ENTRIES = 1 << 16


def _as_int64(x) -> np.ndarray:
    a = np.asarray(x)
    if a.dtype.kind == "f":
        ok = np.all((a == np.round(a)) & (a >= -2.0**63) & (a < 2.0**63))
    else:
        ok = a.dtype.kind in "bi" or a.dtype.kind == "u" and not (
            a.size and a.max() >= 2**63)
    if not ok:
        raise ValueError("matrix entries must be integers within int64")
    return a.astype(np.int64, copy=False)


@functools.cache
def _primes(count: int) -> tuple:
    """The count largest primes below 2^25, descending; a cached half
    is extended.  Below 2^25, n (p-1)^2 < 2^63 for n <= MAX_NODES, so
    no int64 sum of products in the recurrence overflows."""
    out = list(_primes(count // 2)) if count > 1 else []
    q = out[-1] if out else 1 << 25
    while len(out) < count:
        q -= 1
        if q % 2 and all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            out.append(q)
    return tuple(out)


@functools.cache
def _moduli(count: int, n: int):
    """The primes shaped (count, 1, 1) and the inverses of 1..n modulo
    each, shaped (n, count, 1, 1); read-only, as every caller shares
    them."""
    ps = _primes(count)
    inv = [[pow(k, -1, q) for q in ps] for k in range(1, n + 1)]
    out = (np.array(ps, dtype=np.int64).reshape(count, 1, 1),
           np.array(inv, dtype=np.int64).reshape(n, count, 1, 1))
    for a in out:
        a.setflags(write=False)
    return out


def _fl_residues(mats: np.ndarray, p: np.ndarray,
                 inv: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier modulo each prime p, on every matrix at once:
    residues (prime, matrix, k) of e_k = tr(m M_k)/k = -c_k.

    M_{k+1} = m M_k - e_k I keeps the entries of M_k in (-p, p) and
    those of m in [0, p), so every matmul sum stays below n (p-1)^2."""
    b, (g, n) = p.shape[0], mats.shape[:2]
    a = mats % p[..., None]
    am = a.copy()
    out = np.empty((b, g, n), dtype=np.int64)
    for k in range(n):
        diag = am.reshape(b, g, n * n)[..., ::n + 1]
        e = np.add.reduce(diag, axis=2, keepdims=True) * inv[k] % p
        out[..., k:k + 1] = e
        if k + 1 < n:
            diag -= e
            am = np.matmul(a, am)
            am %= p[..., None]
    return out


def _char_polys(mats: np.ndarray) -> list:
    """Exact det(xI - M) for each matrix M of an int64 stack."""
    g, n = mats.shape[:2]
    if n == 0:
        return [IntPolynomial((1,))] * g
    # c_k is a sum of C(n, k) principal minors, each at most the product
    # of its rows' 2-norms (Hadamard), so |c_k| <= prod_i (1 + |row_i|),
    # never more than (1 + rho)^n for rho the largest absolute row sum.
    # The product of the primes must pass twice that, with a bit to
    # spare for rounding; each prime exceeds 2^24.9, because the
    # ~130,000 primes in (2^24.9, 2^25) outnumber what n <= MAX_NODES
    # and int64 entries can ask for.  Float64 squares cannot overflow.
    f = mats.astype(np.float64)
    bits = np.log2(1 + np.sqrt(np.einsum("gij,gij->gi", f, f))).sum(1).max()
    count = int((bits + 2) / 24.9) + 1
    p, inv = _moduli(count, n)
    per = max(1, _STACK_ENTRIES // (g * n * n))
    res = np.concatenate([_fl_residues(mats, p[i:i + per], inv[:, i:i + per])
                          for i in range(0, count, per)])
    # CRT into symmetric residues, one prime at a time
    ps, res = _primes(count), res.reshape(count, g * n).tolist()
    e, m = res[0], ps[0]
    for q, r in zip(ps[1:], res[1:]):
        t = pow(m, -1, q)
        e = [x + m * ((y - x) * t % q) for x, y in zip(e, r)]
        m *= q
    c = [m - x if 2 * x > m else -x for x in e]
    return [IntPolynomial(c[i * n:(i + 1) * n][::-1] + [1]) for i in range(g)]


def _faddeev_leverrier(m, marks=None):
    """Exact char poly of m, plus (optionally) the numerator of the
    coronal for the given mark vector.

    The recurrence M_1 = I, c_k = -tr(m M_k)/k, M_{k+1} = m M_k + c_k I
    gives det(xI - m) = x^n + c_1 x^(n-1) + ... + c_n.  It runs in int64
    modulo as many primes as Hadamard's bound on the coefficients needs,
    one batched matmul per step, and CRT rebuilds the coefficients
    (Cohen 1993, section 2.2).  The numerator needs no adjugate: by the
    matrix determinant lemma, marks^T adj(xI - m) marks = det(xI - m) -
    det(xI - m - marks marks^T), and both matrices share one stack.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > MAX_NODES:
        raise ValueError(f"matrix is larger than {MAX_NODES}x{MAX_NODES}")
    a = _as_int64(a)
    if marks is None:
        return _char_polys(a[None])[0], None
    mu = _as_int64(marks).reshape(n)
    if n and max(-int(a.min()), int(a.max())) + \
            max(-int(mu.min()), int(mu.max()))**2 >= 2**63:
        raise ValueError("matrix plus marks outer product must fit in int64")
    f, g = _char_polys(np.array([a, a + np.multiply.outer(mu, mu)]))
    return f, f - g


def char_poly(m) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - m), monic of degree n.

    Raises ValueError when m is not square, has more than MAX_NODES
    rows, or has entries that are not integers within int64."""
    f, _ = _faddeev_leverrier(m)
    return f


def coronal_generic(m, marks) -> RationalFn:
    """Exact coronal marks^T (xI - m)^{-1} marks, fully reduced."""
    f, num = _faddeev_leverrier(m, marks)
    return RationalFn(num, f)


def coronal_with_char_poly(m, marks):
    """(coronal, char poly, cofactor) where char poly = cofactor *
    coronal denominator.  The cofactor collects the poles cancelled in
    the reduction; theorem assembly needs it."""
    f, num = _faddeev_leverrier(m, marks)
    cor = RationalFn(num, f)
    dfac = poly_divexact(f, cor.den)
    return cor, f, dfac


def coronal_of_graph(g: SignedGraph, kind: str) -> RationalFn:
    """Coronal of one of the graph's matrices under its canonical
    marking."""
    return coronal_generic(matrix(g, kind), canonical_marking(g))


# ---------------------------------------------------------------------------
# closed forms

def coronal_A_net_regular(n: int, k: int) -> RationalFn:
    """Adjacency coronal n/(x - k) of a net-regular graph whose
    canonical marking is an eigenvector (constant per component
    suffices): A mu = k mu makes mu a (k, mu)-eigenpair."""
    return RationalFn(IntPolynomial((n,)), IntPolynomial((-k, 1)))


def coronal_A_star(n: int, mark_center: int) -> RationalFn:
    """Adjacency coronal of a star with n legs:
    ((n+1)x + 2n*mark_center) / (x^2 - n)."""
    if n < 1:
        raise ValueError("a star needs at least one leg")
    _check_mark(mark_center)
    return RationalFn(IntPolynomial((2 * n * mark_center, n + 1)),
                      IntPolynomial((-n, 0, 1)))


def coronal_Q_coregular(n: int, r: int, k: int) -> RationalFn:
    """Signless-Laplacian coronal n/(x - r - k) for an r-regular,
    net-k-regular graph with eigenvector marking."""
    return RationalFn(IntPolynomial((n,)), IntPolynomial((-(r + k), 1)))


def coronal_Q_star(n: int, mark_center: int) -> RationalFn:
    """Signless-Laplacian coronal of a star with n legs:
    ((n+1)x - (n^2+1) + 2n*mark_center) / (x (x - (n+1)))."""
    if n < 1:
        raise ValueError("a star needs at least one leg")
    _check_mark(mark_center)
    num = IntPolynomial((2 * n * mark_center - (n * n + 1), n + 1))
    den = IntPolynomial((0, -(n + 1), 1))
    return RationalFn(num, den)


def coronal_L_coregular(n: int, r: int, k: int) -> RationalFn:
    """Laplacian coronal n/(x - r + k) for an r-regular, net-k-regular
    graph with eigenvector marking."""
    return RationalFn(IntPolynomial((n,)), IntPolynomial((-(r - k), 1)))


def coronal_L_star(n: int, mark_center: int) -> RationalFn:
    """Laplacian coronal of a star with n legs:
    ((n+1)x - (n^2+1) - 2n*mark_center) / (x (x - (n+1))).

    Note the minus sign on the mark term; it is the mirror of the
    signless form, as the generic oracle confirms on every instance.
    """
    if n < 1:
        raise ValueError("a star needs at least one leg")
    _check_mark(mark_center)
    num = IntPolynomial((-(n * n + 1) - 2 * n * mark_center, n + 1))
    den = IntPolynomial((0, -(n + 1), 1))
    return RationalFn(num, den)


def _check_mark(mark: int):
    if mark not in (1, -1):
        raise ValueError("mark must be +1 or -1")


# ---------------------------------------------------------------------------
# family detection

def has_eigenvector_marking(g: SignedGraph):
    """Net degree k when the canonical marking satisfies A mu = k mu,
    else None.  This is the exact condition under which the net-regular
    and co-regular closed forms hold."""
    reg = co_regularity(g)
    if reg.k is None:
        return None
    mu = canonical_marking(g)
    if np.array_equal(g.adj @ mu, reg.k * mu):
        return reg.k
    return None


def star_shape(g: SignedGraph):
    """(legs, center mark) when the graph is a star with at least one
    leg, else None."""
    if g.n < 2 or g.m != g.n - 1:
        return None
    deg = degree_profile(g).deg
    centers = np.nonzero(deg == g.n - 1)[0]
    if centers.size == 0:
        return None
    center = int(centers[0])
    others = [u for u in range(g.n) if u != center]
    if any(deg[u] != 1 for u in others):
        return None
    return g.n - 1, int(canonical_marking(g)[center])


def closed_form_coronal(g: SignedGraph, kind: str):
    """Dispatch to the matching closed form, or None when no family
    applies.  Returns (name, RationalFn)."""
    kind = kind.upper()
    k = has_eigenvector_marking(g)
    reg = co_regularity(g)
    if kind == "A":
        if k is not None:
            return "net_regular", coronal_A_net_regular(g.n, k)
        shape = star_shape(g)
        if shape is not None:
            return "star", coronal_A_star(*shape)
        return None
    if kind in ("Q", "L"):
        if k is not None and reg.r is not None:
            form = coronal_Q_coregular if kind == "Q" else coronal_L_coregular
            return "coregular", form(g.n, reg.r, k)
        shape = star_shape(g)
        if shape is not None:
            form = coronal_Q_star if kind == "Q" else coronal_L_star
            return "star", form(*shape)
        return None
    raise ValueError(f"unknown matrix kind {kind!r}")
