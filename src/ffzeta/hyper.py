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

A basis is an (N, n) int64 array of exponent vectors in graded-lex order,
cut from the box [0, bound]^n by one sort once its size N, the operator
dimension, has passed the operator cap.

A is assembled on arrays, by residue class: column u meets only the terms
x^v of G with v = -u mod p, at row (v + u)/p, so the term-column pairs of
every class are formed at once, their rows found by a sorted search among
the packed basis monomials, and all digit planes written in one scatter.

P(T) provably lands in the prime subring Z/p^m even though M lives over
F_q or its Galois-ring extension: sigma(M) = A M' and M = M' A, for
M' = sigma^{e-1}(A) ... sigma(A), have one characteristic polynomial, so
sigma fixes its coefficients.  That containment is checked, never
assumed, before any series work.  Every series, these and the exact
zero-dimensional zeta, is a product of powers of polynomials in T with
one division at the end, expanded on lists by _product_series.

zeta_mod_p and zeta_mod_pm read P only to T^B, which for small B comes
from traces (see `linalg`); the working the CLI prints keeps all of P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (EmptyBasis, InvariantViolation, RingNotField,
                     SizeLimit, StabilityViolation)
from .fq import make_galois_ring
from .linalg import _operator_cap, charpoly_reverse, SquareMatrix
from .poly import _pack, poly_pow

_MAX_NVARS = 6          # most variables the hypersurface routines accept


# ---------------------------------------------------------------------------
# truncated power series


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_B of a power series mod a fixed integer."""

    modulus: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(c % self.modulus for c in self.coeffs))

    @property
    def order(self):
        return len(self.coeffs) - 1

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


def _product_series(modulus, B, factors):
    """c_0..c_B of the product of a(T)^k over the (k, a) pairs of
    `factors`, a a coefficient list, as a list mod `modulus`, or exact when
    it is None, where every constant term must be 1.  Powers come by
    repeated squaring on lists cut at T^B, and a product reads the nonzero
    terms of its sparser side only, so polynomials of degrees D and E cost
    O(D*E).  The k > 0 factors form a numerator, the rest a denominator,
    which divides once, at the end, by its nonzero terms; its constant term
    must be a unit (ValueError otherwise)."""
    def cut(a):     # reduced, cut at T^B, without trailing zeros
        a = [c if modulus is None else c % modulus for c in a[:B + 1]]
        while len(a) > 1 and not a[-1]:
            a.pop()
        return a

    def mul(a, b):
        if sum(map(bool, a)) > sum(map(bool, b)):
            a, b = b, a
        out = [0] * min(len(a) + len(b) - 1, B + 1)
        for i, x in enumerate(a):
            if x:
                end = i + len(b)
                out[i:end] = [u + x * v for u, v in zip(out[i:end], b)]
        return cut(out)

    num = den = [1]
    for k, a in factors:
        if modulus is None and a[0] != 1:
            raise ValueError("an exact series needs constant terms 1")
        a, part = cut(a), [1]
        for bit in bin(abs(k))[2:]:      # left to right
            part = mul(part, part)
            if bit == "1":
                part = mul(part, a)
        if k > 0:
            num = mul(num, part)
        else:
            den = mul(den, part)
    inv = 1 if modulus is None else pow(den[0], -1, modulus)
    terms = [(j, c) for j, c in enumerate(den) if j and c]
    out = []
    for k, y in enumerate(num + [0] * (B + 1 - len(num))):
        x = inv * (y - sum(c * out[k - j] for j, c in terms if j <= k))
        out.append(x if modulus is None else x % modulus)
    return out


# ---------------------------------------------------------------------------
# monomial bases


def _monomial_rows(n, bound):
    """The (N, n) int64 array of the exponent vectors of all monomials in
    n variables of total degree <= bound, graded lex: by degree, then the
    first exponent largest first, and so on.  The caps are checked before
    any row is listed; the rows are cut from the box [0, bound]^n, which
    under the operator cap holds at most 6^6 of them."""
    if n > _MAX_NVARS:
        raise SizeLimit("%d variables exceeds the cap %d" % (n, _MAX_NVARS))
    size = math.comb(bound + n, n)
    _operator_cap(size)
    box = np.indices((bound + 1,) * n, dtype=np.int64).reshape(n, -1).T
    rows = box[box.sum(axis=1) <= bound]
    # np.lexsort's last key is its first: degree, then -u_1, -u_2, ...
    rows = rows[np.lexsort(np.vstack((-rows[:, ::-1].T, rows.sum(axis=1))))]
    if len(rows) != size:
        raise InvariantViolation("basis size is not C(%d, %d)"
                                 % (bound + n, n))
    return rows


def rd_basis(n, d):
    """The graded-lex (N, n) int64 array of exponent vectors u with all
    u_i >= 1 and total degree <= d; there are N = C(d, n) of them."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < n:
        raise EmptyBasis("no monomial of degree <= %d is divisible by all "
                         "%d variables" % (d, n))
    # x^u is x_1...x_n times a monomial of degree <= d - n; the shift keeps
    # the graded-lex order
    return _monomial_rows(n, d - n) + 1


def rmd_basis(n, d, p, m):
    """The graded-lex (N, n) int64 array of exponent vectors of all
    monomials of total degree <= d*p^(m-1); there are
    N = C(d*p^(m-1) + n, n) of them."""
    if n < 1:
        raise ValueError("need at least one variable")
    if m < 1:
        raise ValueError("precision m must be >= 1")
    bound = d * p ** (m - 1)
    if bound < 0:
        raise EmptyBasis("negative degree bound")
    return _monomial_rows(n, bound)


# ---------------------------------------------------------------------------
# operator matrices


def _operator(f, basis):
    """M = sigma^{e-1}(A) ... sigma(A) A, for A the matrix of
    h -> psi_p(G h) on the basis, an (N, n) array of exponents,
    G = f^{(p-1)p^{m-1}}, and sigma the Frobenius of f's context acting
    on every entry; column convention.
    Column u of A reads only the terms x^v of G with v = -u mod p, the ones
    whose product with x^u psi_p keeps, at row w = (v + u) / p.  With the
    columns sorted by the class of -u, each term meets the run of its own
    class; the rows of all those pairs are found among the sorted basis
    keys, and as v = p w - u no entry gets two terms, so one scatter
    writes every plane.  An image outside the basis raises, naming the
    least one of the first column that has one."""
    ctx = f.ctx
    p, (N, n) = ctx.p, basis.shape
    power = poly_pow(f, (p - 1) * p ** (ctx.m - 1))
    # every v + u stays below 2^63 on int64; past it (a power of a
    # monomial over a huge prime field) exponents are Python integers
    top = max(map(max, power.terms), default=0) + int(basis.max())
    dt = np.int64 if top < 2 ** 63 else object
    V = np.array(list(power.terms), dtype=dt).reshape(-1, n)
    U = basis.astype(dt)
    vclass = _pack(V % p, [p] * n)
    uclass = _pack(-U % p, [p] * n)
    by_class = np.argsort(uclass)
    runs = uclass[by_class]
    lo = np.searchsorted(runs, vclass, "left")
    count = np.searchsorted(runs, vclass, "right") - lo
    # pair i of term t, the i-th of its run, takes column by_class[lo_t + i]
    term = np.repeat(np.arange(len(V)), count)
    col = by_class[np.repeat(lo + count - np.cumsum(count), count)
                   + np.arange(len(term))]
    W = (V[term] + U[col]) // p
    radix = (np.maximum(U.max(axis=0, initial=0), W.max(axis=0, initial=0))
             + 1).tolist()
    keys, wkeys = _pack(U, radix), _pack(W, radix)
    order = np.argsort(keys)
    row = order[np.minimum(np.searchsorted(keys[order], wkeys), N - 1)]
    miss = np.flatnonzero(keys[row] != wkeys)
    if len(miss):
        first = miss[np.argmin(col[miss])]
        raise StabilityViolation("image monomial %r escaped the span"
                                 % (tuple(W[first].tolist()),))
    coeffs = ctx._to_planes(list(power.terms.values()), N)
    A = M = SquareMatrix.zeros(ctx, N)
    A.planes[:, row, col] = coeffs[:, term]
    planes = A.planes
    for _ in range(ctx.e - 1):
        planes = ctx._frob_planes(planes)
        M = SquareMatrix(ctx, A.n, planes) @ M
    return M


def _degree_bound(f, d):
    """The degree bound d of an operator matrix, defaulting to deg f and
    checked against it."""
    deg = f.degree()
    if d is None:
        d = deg
    if d < deg:
        raise ValueError("degree bound %d is below deg f = %d" % (d, deg))
    return d


def hyper_matrix_mod_p(f, d=None):
    """Matrix of h -> psi_q(f^{q-1} h) on the all-variables-divide basis
    of degree <= d, over F_q, as the product of the e Frobenius twists of
    the matrix of h -> psi_p(f^{p-1} h)."""
    if f.ctx.m != 1:
        raise RingNotField("the mod-p operator works over a field")
    d = _degree_bound(f, d)
    return _operator(f, rd_basis(f.nvars, d))


def hyper_matrix_mod_pm(f_lift, d=None):
    """Matrix of h -> psi_q(f_lift^{(q-1)p^{m-1}} h) on all monomials of
    degree <= d*p^{m-1}, over the Galois ring Z_p^m extension, as the
    product of the e Frobenius twists of the matrix of
    h -> psi_p(f_lift^{(p-1)p^{m-1}} h)."""
    ctx = f_lift.ctx
    d = _degree_bound(f_lift, d)
    if d < 0:
        raise EmptyBasis("cannot build a basis for the zero polynomial")
    return _operator(f_lift, rmd_basis(f_lift.nvars, d, ctx.p, ctx.m))


# ---------------------------------------------------------------------------
# zeta series


def _zeta_parts(M, ring, n, B, twists, extra, full):
    """The operator matrix M, the det factors det(I - q^i M T) = P(q^i T)
    for P(T) = det(I - M T) and i < twists, each to the power
    C(n, i)(-1)^{n+i}, as (exponent, coefficients) pairs, and the series of
    their product with the `extra` factors, truncated at B (M.n when None).
    P stops at T^B unless `full`.  P lies in Z/p^m, as sigma(M) = A M' and
    M = M' A have one charpoly for M' = sigma^{e-1}(A) ... sigma(A); that
    is checked before any series work."""
    pm, q = ring.pm, ring.q
    P = ring.prime_subring(charpoly_reverse(M, None if full else B),
                           "determinant")
    factors = [(math.comb(n, i) * (-1) ** (n + i),
                [pow(q, i * k, pm) * c % pm for k, c in enumerate(P)])
               for i in range(twists)]
    # taken as one product, so that its dense inverse meets only
    # polynomials
    series = _product_series(pm, M.n if B is None else B, factors + extra)
    return M, factors, TruncatedSeries(pm, tuple(series))


def _zeta_mod_p_parts(f, n, B, d, full=True):
    """zeta_mod_p with its working: the affine zeta is P(T)^{(-1)^n}, the
    one factor of i = 0 with no torus factors."""
    if B is not None and B < 1:  # checked before any matrix is built
        raise ValueError("truncation order must be >= 1")
    if n is not None and n != f.nvars:
        raise ValueError("polynomial has %d variables, not %d"
                         % (f.nvars, n))
    M = hyper_matrix_mod_p(f, d)
    return _zeta_parts(M, f.ctx, f.nvars, B, 1, [], full)


def zeta_mod_p(f, n=None, B=None, d=None):
    """Zeta function of the affine hypersurface f = 0, reduced mod p and
    truncated at order B."""
    return _zeta_mod_p_parts(f, n, B, d, full=False)[2]


def torus_zeta(n, q, B, pm):
    """Zeta function of the n-torus (all coordinates nonzero), mod pm,
    truncated at order B: prod_{i=0..n} (1 - q^i T)^{(-1)^(n-i+1) C(n,i)}.
    Once q^i = 0 mod pm, every later factor is exactly 1 and is skipped."""
    if B < 1:
        raise ValueError("truncation order must be >= 1")
    if n < 0:
        raise ValueError("torus dimension must be >= 0")
    return TruncatedSeries(pm, tuple(_product_series(
        pm, B, _torus_factors(n, q, pm))))


def _torus_factors(n, q, pm):
    """The factors of torus_zeta as (exponent, coefficients) pairs, up to
    the first i with q^i = 0 mod pm."""
    factors = []
    for i in range(n + 1):
        qi = pow(q, i, pm)
        if qi == 0:
            break
        factors.append((math.comb(n, i) * (-1) ** (n - i + 1), [1, -qi]))
    return factors


def _zeta_mod_pm_parts(f, m, B, d, full=True):
    """zeta_mod_pm with its working: the torus part is the product of the
    n + 1 factors P(q^i T) and the torus zeta."""
    if B is not None and B < 1:  # checked before any matrix is built
        raise ValueError("truncation order must be >= 1")
    ctx = f.ctx
    if m is None:
        m = ctx.m
    if ctx.m == m:
        flift = f
    elif ctx.m == 1:
        flift = f.lift_to(make_galois_ring(ctx, m))
    else:
        raise ValueError("polynomial precision p^%d does not match m=%d"
                         % (ctx.m, m))
    ring, n = flift.ctx, f.nvars
    M = hyper_matrix_mod_pm(flift, d)
    return _zeta_parts(M, ring, n, B, n + 1,
                       _torus_factors(n, ring.q, ring.pm), full)


def zeta_mod_pm(f, m=None, B=None, d=None):
    """Zeta function of the part of the hypersurface f = 0 with all
    coordinates nonzero, computed mod p^m and truncated at order B.

    f may live over F_q (it is then lifted coefficient-wise) or over a
    Galois ring, in which case it is itself taken as the lift and m must
    agree with the ring precision.
    """
    return _zeta_mod_pm_parts(f, m, B, d, full=False)[2]
