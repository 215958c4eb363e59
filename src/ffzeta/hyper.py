"""Zeta series of hypersurfaces from operator determinants.

Two closely related constructions.  Mod p: the map h -> psi_q(f^{q-1} h)
is stable on the span of monomials of degree <= d that every variable
divides, and det(I - MT) on that span gives Z(X,T)^{(+-1)} for the affine
hypersurface f = 0.  Mod p^m: lift f to the Galois ring, raise it to
(q-1)p^{m-1}, act on all monomials of degree <= d p^{m-1}, and an
alternating product of det(I - q^i M T) gives the zeta function of the
part of the hypersurface with all coordinates nonzero, relative to the
zeta function of the full torus.  Every factor comes from the one
characteristic polynomial P(T) = det(I - MT), as det(I - q^i M T) =
P(q^i T).

The full power f^{(q-1)p^{m-1}} is never expanded.  With q = p^e and
G = f^{(p-1)p^{m-1}} (m = 1 for the mod-p operator), it is the product of
the G^{p^i}, i < e, and G^{p^i} = sigma^i(G)(x^{p^i}) mod p^m for sigma
the Frobenius acting on coefficients.  Since psi_p(a(x^p) b) =
a psi_p(b), psi_q o f^{(q-1)p^{m-1}} is the composite of the maps
h -> psi_p(sigma^i(G) h).  So M is sigma^{e-1}(A) ... sigma(A) A, with A
the matrix of h -> psi_p(G h) on the same basis (Dwork's splitting of
Frobenius, as in Lauder and Wan, "Counting points on varieties over
finite fields of small characteristic", 2008), and the expanded power
has degree (p-1)p^{m-1}d, not (q-1)p^{m-1}d.

The mod-p determinant and the mod-p^m series provably land in the prime
subring even though the matrices live over F_q or its Galois-ring
extension; that containment is checked, never assumed.  Series
arithmetic is written once, over any context with add/mul/neg/inv:
Galois-ring codes, or Z/N for TruncatedSeries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyBasis, InvariantViolation, RingNotField,
                     SizeLimit, StabilityViolation)
from .fq import make_galois_ring
from .linalg import charpoly_reverse, SquareMatrix
from .poly import poly_pow

_MAX_BASIS = 10 ** 5    # largest monomial basis an operator matrix may use
_MAX_NVARS = 6          # most variables the hypersurface routines accept


# ---------------------------------------------------------------------------
# truncated power series


def _series_mul(ctx, a, b):
    """Product of two coefficient lists of equal length, truncated to it,
    over any context with add/mul/neg/inv."""
    B = len(a) - 1
    out = [0] * (B + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(B + 1 - i):
            y = b[j]
            if y:
                out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return out


def _series_inv(ctx, a):
    B = len(a) - 1
    b0 = ctx.inv(a[0])
    out = [b0] + [0] * B
    for k in range(1, B + 1):
        s = 0
        for j in range(1, k + 1):
            if a[j] and out[k - j]:
                s = ctx.add(s, ctx.mul(a[j], out[k - j]))
        out[k] = ctx.neg(ctx.mul(b0, s))
    return out


def _series_pow(ctx, a, k):
    base = a if k >= 0 else _series_inv(ctx, a)
    k = abs(k)
    out = [1] + [0] * (len(a) - 1)
    while k:
        if k & 1:
            out = _series_mul(ctx, out, base)
        base = _series_mul(ctx, base, base)
        k >>= 1
    return out


class _Residues:
    """Z/N with the add/mul/neg/inv of a field or Galois-ring context, so
    TruncatedSeries shares the series code; N need not be a prime power,
    and inv raises ValueError on a non-unit."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return a * b % self.n

    def neg(self, a):
        return -a % self.n

    def inv(self, a):
        return pow(a, -1, self.n)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_B of a power series mod a fixed integer."""

    modulus: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(c % self.modulus for c in self.coeffs))

    @classmethod
    def from_list(cls, modulus, coeffs, order):
        c = list(coeffs[:order + 1])
        c += [0] * (order + 1 - len(c))
        return cls(modulus, tuple(c))

    @classmethod
    def one(cls, modulus, order):
        return cls.from_list(modulus, [1], order)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def _compat(self, other):
        if self.modulus != other.modulus or self.order != other.order:
            raise ValueError("series moduli or truncation orders differ")

    def __mul__(self, other):
        self._compat(other)
        ctx = _Residues(self.modulus)
        return TruncatedSeries(
            self.modulus, tuple(_series_mul(ctx, self.coeffs, other.coeffs)))

    def inverse(self):
        ctx = _Residues(self.modulus)
        return TruncatedSeries(
            self.modulus, tuple(_series_inv(ctx, self.coeffs)))

    def pow(self, k):
        ctx = _Residues(self.modulus)
        return TruncatedSeries(
            self.modulus, tuple(_series_pow(ctx, self.coeffs, k)))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if k and not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("T" if c == 1 else "%d*T" % c)
            else:
                parts.append("T^%d" % k if c == 1 else "%d*T^%d" % (c, k))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# monomial bases


def _graded_lex(vectors):
    return sorted(vectors, key=lambda u: (sum(u), tuple(-x for x in u)))


def _basis_caps(n, size):
    if n > _MAX_NVARS:
        raise SizeLimit("%d variables exceeds the cap %d" % (n, _MAX_NVARS))
    if size > _MAX_BASIS:
        raise SizeLimit("basis of size %d exceeds the cap %d"
                        % (size, _MAX_BASIS))


def _monomials(n, bound):
    """Exponent vectors of all monomials in n variables of total degree
    <= bound, graded lex."""
    vecs = []
    # u_1 + 1, u_1 + u_2 + 2, ... are n distinct values in 1..bound+n, and
    # every such choice arises exactly once
    for stops in itertools.combinations(range(1, bound + n + 1), n):
        u = [stops[0] - 1]
        for a, b in zip(stops, stops[1:]):
            u.append(b - a - 1)
        vecs.append(tuple(u))
    return _graded_lex(vecs)


def rd_basis(n, d):
    """The graded-lex tuple of exponent vectors u with all u_i >= 1 and
    total degree <= d; there are C(d, n) of them."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < n:
        raise EmptyBasis("no monomial of degree <= %d is divisible by all "
                         "%d variables" % (d, n))
    _basis_caps(n, math.comb(d, n))
    # x^u is x_1...x_n times a monomial of degree <= d - n; the shift keeps
    # the graded-lex order
    basis = tuple(tuple(x + 1 for x in u) for u in _monomials(n, d - n))
    if len(basis) != math.comb(d, n):
        raise InvariantViolation("basis size is not C(%d, %d)" % (d, n))
    return basis


def rmd_basis(n, d, p, m):
    """The graded-lex tuple of exponent vectors of all monomials of total
    degree <= d*p^(m-1); there are C(d*p^(m-1) + n, n) of them."""
    if n < 1:
        raise ValueError("need at least one variable")
    if m < 1:
        raise ValueError("precision m must be >= 1")
    bound = d * p ** (m - 1)
    if bound < 0:
        raise EmptyBasis("negative degree bound")
    _basis_caps(n, math.comb(bound + n, n))
    basis = tuple(_monomials(n, bound))
    if len(basis) != math.comb(bound + n, n):
        raise InvariantViolation("basis size is not C(%d, %d)"
                                 % (bound + n, n))
    return basis


# ---------------------------------------------------------------------------
# operator matrices


def _operator_matrix(ctx, power, basis, p):
    """Matrix of h -> psi_p(power * h) on the basis, column convention.
    Column u reads only the terms x^v of the power with v = -u mod p, the
    ones whose product with x^u psi_p keeps."""
    index = {u: i for i, u in enumerate(basis)}
    classes = {}
    for v, c in power.terms.items():
        classes.setdefault(tuple(x % p for x in v), []).append((v, c))
    cols = []
    for u in basis:
        col = [0] * len(basis)
        for v, c in classes.get(tuple(-x % p for x in u), ()):
            w = tuple((a + b) // p for a, b in zip(v, u))
            at = index.get(w)
            if at is None:
                raise StabilityViolation(
                    "image monomial %r escaped the span" % (w,))
            col[at] = c
        cols.append(col)
    return SquareMatrix.from_columns(ctx, cols)


def _frobenius_product(A):
    """sigma^{e-1}(A) ... sigma(A) A, where sigma is the Frobenius of A's
    context acting on every entry."""
    ctx, n = A.ctx, A.n
    if ctx.e == 1:
        return A
    codes, at = np.unique(np.array(A.to_rows()).ravel(), return_inverse=True)
    M = A
    for _ in range(ctx.e - 1):
        codes = np.array([ctx.frob(int(c)) for c in codes], codes.dtype)
        M = SquareMatrix.from_rows(ctx, codes[at].reshape(n, n)) @ M
    return M


def _shape(f, n, d):
    """The number of variables n and the degree bound d of an operator
    matrix, each defaulting to f's and checked against it."""
    if n is None:
        n = f.nvars
    elif n != f.nvars:
        raise ValueError("polynomial has %d variables, not %d"
                         % (f.nvars, n))
    deg = f.degree()
    if d is None:
        d = deg
    if d < deg:
        raise ValueError("degree bound %d is below deg f = %d" % (d, deg))
    return n, d


def hyper_matrix_mod_p(f, n=None, d=None):
    """Matrix of h -> psi_q(f^{q-1} h) on the all-variables-divide basis
    of degree <= d, over F_q, as the product of the e Frobenius twists of
    the matrix of h -> psi_p(f^{p-1} h)."""
    ctx = f.ctx
    if ctx.m != 1:
        raise RingNotField("the mod-p operator works over a field")
    n, d = _shape(f, n, d)
    basis = rd_basis(n, d)
    power = poly_pow(f, ctx.p - 1)
    return _frobenius_product(_operator_matrix(ctx, power, basis, ctx.p))


def hyper_matrix_mod_pm(f_lift, n=None, d=None, m=None):
    """Matrix of h -> psi_q(f_lift^{(q-1)p^{m-1}} h) on all monomials of
    degree <= d*p^{m-1}, over the Galois ring Z_p^m extension, as the
    product of the e Frobenius twists of the matrix of
    h -> psi_p(f_lift^{(p-1)p^{m-1}} h)."""
    ctx = f_lift.ctx
    if m is None:
        m = ctx.m
    elif m != ctx.m:
        raise ValueError("lift lives mod p^%d, not p^%d" % (ctx.m, m))
    n, d = _shape(f_lift, n, d)
    if d < 0:
        raise EmptyBasis("cannot build a basis for the zero polynomial")
    basis = rmd_basis(n, d, ctx.p, m)
    power = poly_pow(f_lift, (ctx.p - 1) * ctx.p ** (m - 1))
    return _frobenius_product(_operator_matrix(ctx, power, basis, ctx.p))


# ---------------------------------------------------------------------------
# zeta series


def _zeta_mod_p_parts(f, n, B, d):
    """zeta_mod_p with its working: the operator matrix M, the det
    factors as (exponent, coefficients) pairs, and the series."""
    if B is not None and B < 1:  # checked before any matrix is built
        raise ValueError("truncation order must be >= 1")
    M = hyper_matrix_mod_p(f, n, d)
    if n is None:
        n = f.nvars
    P = charpoly_reverse(M)
    vals = f.ctx.prime_subring(P, "determinant")
    if B is None:
        B = M.n
    series = TruncatedSeries.from_list(f.ctx.p, vals, B)
    if n % 2:
        return M, [(-1, vals)], series.inverse()
    return M, [(1, vals)], series


def zeta_mod_p(f, n=None, B=None, d=None):
    """Zeta function of the affine hypersurface f = 0, reduced mod p and
    truncated at order B."""
    return _zeta_mod_p_parts(f, n, B, d)[2]


def torus_zeta(n, q, B, pm):
    """Zeta function of the n-torus (all coordinates nonzero), mod pm,
    truncated at order B: prod_{i=0..n} (1 - q^i T)^{(-1)^(n-i+1) C(n,i)}.
    Once q^i = 0 mod pm, every later factor is exactly 1 and is skipped.

    n = 0 returns the constant series 1 (empty product convention)."""
    if B < 1:
        raise ValueError("truncation order must be >= 1")
    if n < 0:
        raise ValueError("torus dimension must be >= 0")
    out = TruncatedSeries.one(pm, B)
    if n == 0:
        return out
    for i in range(n + 1):
        qi = pow(q, i, pm)
        if qi == 0:
            break
        expo = math.comb(n, i) * (-1) ** (n - i + 1)
        base = TruncatedSeries.from_list(pm, [1, -qi], B)
        out = out * base.pow(expo)
    return out


def _zeta_mod_pm_parts(f, m, B, d):
    """zeta_mod_pm with its working: the operator matrix M, the det
    factors det(I - q^i M T) as (exponent, coefficients) pairs, the torus
    zeta and the series."""
    if B is not None and B < 1:  # checked before any matrix is built
        raise ValueError("truncation order must be >= 1")
    ctx = f.ctx
    if m is None:
        m = ctx.m
    if ctx.m == m:
        ring = ctx
        flift = f
    elif ctx.m == 1:
        ring = make_galois_ring(ctx, m)
        flift = f.lift_to(ring)
    else:
        raise ValueError("polynomial precision p^%d does not match m=%d"
                         % (ctx.m, m))
    n = f.nvars
    M = hyper_matrix_mod_pm(flift, n, d, m)
    if B is None:
        B = M.n
    pm = ring.pm
    q = ring.q
    # det(I - c M T) = P(cT) for P(T) = det(I - M T), so one charpoly
    # gives every factor
    P = charpoly_reverse(M)
    factors = []
    acc = [1] + [0] * B
    for i in range(n + 1):
        det = [ring.mul(pow(q, i * k, pm), c) for k, c in enumerate(P)]
        expo = math.comb(n, i) * (-1) ** (n + i)
        factors.append((expo, det))
        det = (det + [0] * B)[:B + 1]
        acc = _series_mul(ring, acc, _series_pow(ring, det, expo))
    vals = ring.prime_subring(acc, "zeta")
    relative = TruncatedSeries.from_list(pm, vals, B)
    torus = torus_zeta(n, q, B, pm)
    return M, factors, torus, torus * relative


def zeta_mod_pm(f, m=None, B=None, d=None):
    """Zeta function of the part of the hypersurface f = 0 with all
    coordinates nonzero, computed mod p^m and truncated at order B.

    f may live over F_q (it is then lifted coefficient-wise) or over a
    Galois ring, in which case it is itself taken as the lift and m must
    agree with the ring precision.
    """
    return _zeta_mod_pm_parts(f, m, B, d)[3]
