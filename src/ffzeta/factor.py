"""Univariate factorization over F_q by fixed-space splitting.

Each of the three operators built in `zerodim` fixes a subspace of
R = F_q[x]/(f) whose dimension r is the number of distinct irreducible
factors of f.  `factorize` builds one operator matrix and one kernel, for f
itself, and refines f with them (Berlekamp, Math. Comp. 24, 1970): every
piece is cut by its gcd with each splitter in turn, until there are r
pieces.  For a basis b_1..b_r the splitters are b_1, then b_1 - c*b_j and
b_j for each j, then b_k - c*b_l for each later pair k < l, with c in
F_q^*.  The cuts are coprime and f has r distinct irreducibles, so r
pieces are exactly its primary components (prime powers), and each
piece's root is taken at once: p-th roots while its derivative vanishes,
then one division by gcd(g, g').

The refinement reaches r pieces for all three operators and any basis.
`_coprime_split` cuts a piece by whether the whole primary part g_i^e_i of
f divides the splitter h, and each fixed space has a basis in which
g_i^e_i divides h exactly when the i-th coordinate c_i of h is 0:
- Frobenius: by the Chinese remainder theorem R is the product of the
  rings F_q[x]/(g_i^e_i), and h^q = h there only for constant h, as
  prod_c (h - c) = h^q - h has pairwise coprime factors; so h is a
  constant c_i on the i-th component.
- Niederreiter's operator (AAECC 4, 1993) fixes the span of the
  (f/g_i)*g_i' mod f, so h = sum_i c_i (f/g_i) g_i'.  Every term but the
  i-th is divisible by g_i^e_i, and the i-th, c_i g_i^(e_i-1)
  (f/g_i^e_i) g_i', is not unless c_i = 0, as g_i' is prime to g_i.
- psi fixes x times Niederreiter's space, and x is a unit when f(0) != 0.
The coordinate columns of b_1..b_r are linearly independent, so no two
components have proportional columns, and for some pair k < l one of b_k,
b_l or b_k - c*b_l vanishes on one of them and not on the other.  For
Frobenius kernel_basis makes b_1 = 1, which vanishes nowhere, so the pairs
with b_1 already suffice; Niederreiter's and psi's b_1 can vanish on some
components.

The gcd of a piece with a fixed vector need not be a clean cut when f has
repeated factors: for the differential operators it can pick up stray
copies of the repeated primes.  `_coprime_split` repairs that by
saturating, so every cut splits a piece into two exactly complementary
monic pieces, each a product of primary components.
"""

from __future__ import annotations

from .errors import InternalCheckError, InvariantViolation, QTooLarge
from .linalg import SquareMatrix, kernel_basis
from .poly import (Factorization, SparsePoly, dense_deriv, dense_divmod,
                   dense_gcd, dense_mul, dense_trim)
from .zerodim import OperatorKind, op_matrix

# largest field order accepted, since splitting loops over all of F_q
_MAX_FACTOR_Q = 64


def _fixed_space(f, kind):
    """Dense basis, ordered by free column, of the fixed space of the
    chosen operator on F_q[x]/(f)."""
    M = op_matrix(f, kind)
    return kernel_basis(M - SquareMatrix.identity(f.ctx, M.n))


def admissible_basis(f, kind=OperatorKind.FROBENIUS):
    """Polynomials of degree < deg f spanning the fixed space of the
    chosen operator on F_q[x]/(f)."""
    return [SparsePoly.from_dense(f.ctx, v) for v in _fixed_space(f, kind)]


def _dense_sub_scaled(ctx, a, b, c):
    """a - c*b on dense lists."""
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        if y:
            out[i] = ctx.sub(out[i], ctx.mul(c, y))
    return dense_trim(out)


def _coprime_split(ctx, g, h):
    """Split monic g as s * t where t collects exactly the primary parts
    of g that divide h and s the rest; None when the cut is trivial."""
    w = dense_gcd(ctx, g, h)
    if len(w) <= 1 or len(w) == len(g):
        return None
    u, _ = dense_divmod(ctx, g, w)
    # pull out of g the full power of every irreducible dividing u; what
    # is left is the product of the primary parts contained in h
    rem = list(g)
    s = [1]
    w = dense_gcd(ctx, rem, u)
    while len(w) > 1:
        rem, r = dense_divmod(ctx, rem, w)
        if r:
            raise InvariantViolation("gcd does not divide its argument")
        s = dense_mul(ctx, s, w)
        w = dense_gcd(ctx, rem, w)
    if len(s) <= 1 or len(rem) <= 1:
        return None
    return s, rem


def _splitters(ctx, basis):
    """b_1, then b_1 - c*b_j for c = 1..q-1 and b_j for each later vector
    b_j of a fixed-space basis, then b_k - c*b_l for each later pair k < l.
    The basis vectors are linearly independent, so none of these is zero;
    b_l is not repeated, as a splitter cuts no piece a second time."""
    yield basis[0]
    for k, h1 in enumerate(basis):
        for h2 in basis[k + 1:]:
            for c in range(1, ctx.q):
                yield _dense_sub_scaled(ctx, h1, h2, c)
            if k == 0:
                yield h2


def _refine(ctx, g, basis):
    """The len(basis) coprime pieces of monic g: every piece is cut by its
    gcd with each splitter in turn, until there are as many pieces as
    basis vectors; any other count raises."""
    r = len(basis)
    pieces = [g]
    for h in _splitters(ctx, basis):
        if len(pieces) >= r:
            break
        pieces = [part for piece in pieces
                  for part in _coprime_split(ctx, piece, h) or (piece,)]
    if len(pieces) != r:
        raise InternalCheckError(
            "%d coprime pieces from a fixed space of dimension %d"
            % (len(pieces), r))
    return pieces


def _prime_power_root(ctx, g):
    """The monic irreducible h of a monic g = h^k: while g' = 0, g is a
    p-th power, and a -> a^(q/p) inverts a -> a^p on F_q; then p does not
    divide k, and as gcd(h, h') = 1, gcd(g, g') = h^(k-1)."""
    while not dense_deriv(ctx, g):
        g = [ctx.pow(c, ctx.q // ctx.p) for c in g[::ctx.p]]
    h, rem = dense_divmod(ctx, g, dense_gcd(ctx, g, dense_deriv(ctx, g)))
    if rem:
        raise InvariantViolation("gcd(g, g') does not divide g")
    return h


def _factor_cap(q):
    """Refuse a field of more than _MAX_FACTOR_Q elements; it reads q
    only, so it can run before the field is built."""
    if q > _MAX_FACTOR_Q:
        raise QTooLarge("scalar enumeration over %d elements exceeds the "
                        "cap %d" % (q, _MAX_FACTOR_Q))


def factorize(f, kind=OperatorKind.FROBENIUS):
    """Complete factorization of monic univariate f into irreducibles,
    driven by the fixed space of the chosen operator.

    One fixed space, of f itself, cuts f into as many pieces as it has
    dimensions, the number of distinct irreducible factors, for every
    kind; each piece is then one primary component, whose root is taken
    at once.
    """
    ctx = f.ctx
    _factor_cap(ctx.q)
    # the operator refuses f past its caps before any dense list of f
    basis = _fixed_space(f, kind)
    r = len(basis)
    factors = []
    for g in _refine(ctx, f.to_dense(), basis):
        root = _prime_power_root(ctx, g)
        mult, rem = divmod(len(g) - 1, len(root) - 1)
        if rem:
            raise InvariantViolation("root degree does not divide degree")
        factors.append((root, mult))
    distinct = len({tuple(root) for root, _ in factors})
    if distinct != r:
        raise InternalCheckError("%d distinct factors from a fixed space "
                                 "of dimension %d" % (distinct, r))
    return Factorization(1, tuple((SparsePoly.from_dense(ctx, root), mult)
                                  for root, mult in factors))
