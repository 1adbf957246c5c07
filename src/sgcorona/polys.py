"""Exact integer polynomial arithmetic.

All polynomial work stays over the integers (rationals only at
evaluation points), so characteristic-polynomial identities can be
checked coefficient by coefficient.  Floating point enters exactly
once, when an isolated root is converted for reporting.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "IntPolynomial",
    "RationalFn",
    "poly_gcd",
    "poly_divexact",
    "squarefree_factors",
    "taylor_shift",
    "real_root_pairs",
    "real_roots",
]


class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    Coefficients are stored lowest degree first with no trailing zeros.
    The zero polynomial has an empty coefficient tuple and degree -1.
    Instances are immutable; all operators return new polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def x(cls) -> "IntPolynomial":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == IntPolynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        out = IntPolynomial((1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, float, complex,
        and even IntPolynomial (composition)."""
        res = 0
        for c in reversed(self.coeffs):
            res = res * x + c
        return res

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by x**k."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPolynomial":
        """Divide out the content and normalise to a positive leading
        coefficient.  Zero polynomial maps to itself."""
        if self.is_zero:
            return self
        c = self.content()
        if self.lc < 0:
            c = -c
        return IntPolynomial([x // c for x in self.coeffs])

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


def poly_divexact(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Quotient a/b, requiring the division to be exact over Z.

    Raises ValueError when b does not divide a.  This doubles as a
    cheap internal consistency check wherever divisibility is a
    mathematical guarantee.  Long division stays in the integers: when
    b divides a in Z[x], every step's quotient is an integer.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return IntPolynomial()
    da, db = a.degree, b.degree
    if da < db:
        raise ValueError("not divisible: degree too small")
    rem = list(a.coeffs)
    quot = [0] * (da - db + 1)
    blc = b.coeffs[-1]
    for k in range(da - db, -1, -1):
        q, r = divmod(rem[db + k], blc)
        if r:
            raise ValueError("not divisible: fractional quotient")
        quot[k] = q
        if q:
            for i, bc in enumerate(b.coeffs):
                rem[i + k] -= q * bc
    if any(rem):
        raise ValueError("not divisible: nonzero remainder")
    return IntPolynomial(quot)


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    # lazy pseudo-remainder: scale by lc(b) before each elimination step
    da, db = a.degree, b.degree
    if da < db:
        return a
    rem = list(a.coeffs)
    blc = b.coeffs[-1]
    for k in range(da - db, -1, -1):
        coef = rem[db + k]
        for i in range(len(rem)):
            rem[i] *= blc
        if coef:
            for i, bc in enumerate(b.coeffs):
                rem[i + k] -= coef * bc
        assert rem[db + k] == 0
    return IntPolynomial(rem[:db] if db > 0 else ())


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd via a primitive pseudo-remainder sequence.

    The result is primitive with positive leading coefficient; the gcd
    of two constants is therefore 1 (integer content is handled by the
    callers that care about it)."""
    a = a.primitive_part()
    b = b.primitive_part()
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    while not b.is_zero:
        r = _pseudo_rem(a, b).primitive_part()
        a, b = b, r
    return a


def squarefree_factors(p: IntPolynomial):
    """Yun decomposition.

    Returns (c, factors) where factors is a list of (g, m) pairs with
    p == c * prod(g**m), each g squarefree and primitive with positive
    leading coefficient, distinct g pairwise coprime, and c an integer.
    The reconstruction is verified by exact division, so a faulty run
    cannot return silently.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return p.coeffs[0], []
    work = p.primitive_part()
    a = poly_gcd(work, work.derivative())
    b = poly_divexact(work, a)
    c = poly_divexact(work.derivative(), a)
    d = c - b.derivative()
    factors = []
    m = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            factors.append((g, m))
        b = poly_divexact(b, g)
        c = poly_divexact(d, g) if not d.is_zero else IntPolynomial()
        d = c - b.derivative()
        m += 1
    prod = IntPolynomial((1,))
    for g, mult in factors:
        prod = prod * g**mult
    const = poly_divexact(p, prod)
    if const.degree != 0:
        raise ValueError("squarefree reconstruction failed")
    return const.coeffs[0], factors


def taylor_shift(p: IntPolynomial, c: int) -> IntPolynomial:
    """Return p(x + c) by repeated synthetic division at c."""
    if p.is_zero:
        return p
    cs = list(p.coeffs)
    out = []
    while cs:
        d = len(cs) - 1
        if d == 0:
            out.append(cs[0])
            cs = []
            continue
        q = [0] * d
        q[d - 1] = cs[d]
        for k in range(d - 1, 0, -1):
            q[k - 1] = cs[k] + c * q[k]
        out.append(cs[0] + c * q[0])
        cs = q
    return IntPolynomial(out)


class RationalFn:
    """Ratio of integer polynomials kept fully reduced.

    Invariants: gcd(num, den) constant, the integer content of the pair
    is 1, and den has a positive leading coefficient.  Zero is stored
    as 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if not isinstance(num, IntPolynomial):
            num = IntPolynomial(num)
        if not isinstance(den, IntPolynomial):
            den = IntPolynomial(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = IntPolynomial(), IntPolynomial((1,))
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
            c = math.gcd(num.content(), den.content())
            if c > 1:
                num = IntPolynomial([x // c for x in num.coeffs])
                den = IntPolynomial([x // c for x in den.coeffs])
            if den.lc < 0:
                num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def __eq__(self, other):
        if isinstance(other, RationalFn):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, x):
        d = self.den(x)
        if isinstance(x, int):
            return Fraction(self.num(x), d)
        return self.num(x) / d

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFn({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# real root isolation: Descartes bisection (Collins & Akritas 1976)


def _root_exponent(p: IntPolynomial) -> int:
    """A k >= 1 with every root of p strictly inside (-2**k, 2**k).

    Fujiwara's bound 2 * max |a_(d-i) / a_d| ** (1/i) with each ratio
    rounded up to a power of two; the rounding makes it strict."""
    d, lc_bits = p.degree, abs(p.lc).bit_length()
    e = 0
    for i in range(1, d + 1):
        excess = abs(p.coeffs[d - i]).bit_length() - lc_bits + 1
        e = max(e, -(-excess // i))
    return e + 1


def _descartes(q: IntPolynomial) -> int:
    """Sign variations of (x+1)**d * q(1/(x+1)).  This bounds the number
    of roots of q in (0, 1) from above with the same parity, so 0 and 1
    are exact counts."""
    r = taylor_shift(IntPolynomial(q.coeffs[::-1]), 1)
    signs = [c > 0 for c in r.coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sign_at(p: IntPolynomial, x: Fraction) -> int:
    """Exact sign of p at a rational point (all-integer Horner)."""
    cs = p.coeffs
    if not cs:
        return 0
    a, b = x.numerator, x.denominator
    val = cs[-1]
    bp = 1
    for c in reversed(cs[:-1]):
        bp *= b
        val = val * a + c * bp
    return (val > 0) - (val < 0)


def _bisect(p: IntPolynomial, lo: Fraction, hi: Fraction, slo: int,
            tol: Fraction) -> float:
    while hi - lo > tol:
        mid = (lo + hi) / 2
        sm = _sign_at(p, mid)
        if sm == 0:
            return float(mid)
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def _roots_squarefree(f: IntPolynomial, tol: Fraction):
    """All real roots of a squarefree polynomial, as floats.

    The roots are mapped into (0, 1) and the interval is halved
    recursively: a Descartes count of 0 drops a piece, a count of 1
    isolates one root, which is then refined by bisection.  A root on a
    cut point shows as a zero constant term of the right half and is
    reported exactly; Descartes counts cover open intervals, so neither
    half counts it again.  Non-real roots are never found, which the
    caller sees as a shortfall against the degree.
    """
    if f.degree <= 0:
        return []
    if f.degree == 1:
        return [float(Fraction(-f.coeffs[0], f.coeffs[1]))]
    k = _root_exponent(f)

    def point(c: int, j: int) -> Fraction:
        # cut point c of (-2**k, 2**k) split into 2**j equal pieces
        return Fraction(c << (k + 1), 1 << j) - (1 << k)

    # q(t) = f(2**(k+1) t - 2**k) has the roots of f, mapped into (0, 1)
    q = taylor_shift(f, -(1 << k))
    q = IntPolynomial([a << (k + 1) * i for i, a in enumerate(q.coeffs)])
    exact, isolated = [], []
    # (c, j, q): the roots of q in (0, 1) are those of f between
    # point(c, j) and point(c + 1, j)
    stack = [(0, 0, q)]
    while stack:
        c, j, q = stack.pop()
        count = _descartes(q)
        if count == 1:
            isolated.append((c, j))
        if count <= 1:
            continue
        d = q.degree
        left = IntPolynomial([a << (d - i) for i, a in enumerate(q.coeffs)])
        right = taylor_shift(left, 1)
        if right[0] == 0:
            exact.append(point(2 * c + 1, j + 1))
        stack.append((2 * c, j + 1, left))
        stack.append((2 * c + 1, j + 1, right))
    # refine on f with its cut-point roots divided out, so that no end
    # of an isolating interval is a root
    rest = f
    for r in exact:
        rest = poly_divexact(rest, IntPolynomial((-r.numerator,
                                                  r.denominator)))
    roots = [float(r) for r in exact]
    for c, j in isolated:
        lo, hi = point(c, j), point(c + 1, j)
        roots.append(_bisect(rest, lo, hi, _sign_at(rest, lo), tol))
    return sorted(roots)


def real_root_pairs(p: IntPolynomial, tol: float = 1e-13):
    """All real roots of p with multiplicities, sorted ascending.

    Returns a list of (root, multiplicity) pairs.  Raises ValueError if
    the root count falls short of the degree, which flags a polynomial
    that is not real-rooted (symmetric-matrix characteristic
    polynomials always are).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    ftol = Fraction(tol)
    _, factors = squarefree_factors(p)
    pairs = []
    for fac, mult in factors:
        for r in _roots_squarefree(fac, ftol):
            pairs.append((r, mult))
    pairs.sort(key=lambda t: t[0])
    if sum(m for _, m in pairs) != p.degree:
        raise ValueError("real root count does not match the degree")
    return pairs


def real_roots(p: IntPolynomial, tol: float = 1e-13):
    """Flattened real roots (each repeated per multiplicity)."""
    out = []
    for r, m in real_root_pairs(p, tol):
        out.extend([r] * m)
    return out
