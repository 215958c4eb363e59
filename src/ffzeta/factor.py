"""Univariate factorization over F_q by fixed-space splitting.

Each of the three operators built in `zerodim` fixes a subspace of
F_q[x]/(f) whose dimension is the number of distinct irreducible factors
of f, and any two independent fixed vectors separate at least two of those
factors through gcds.  The worklist here refines f into primary components
(prime powers) using such gcds, then takes each component's root: p-th
roots while its derivative vanishes, then one division by gcd(g, g').

The gcd of f with a fixed vector need not be a clean cut when f has
repeated factors: for the differential operators every bucket gcd picks up
stray copies of the repeated primes.  `_coprime_split` repairs that by
saturating, so a successful refinement always cuts the component into two
exactly complementary monic pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, InvariantViolation, QTooLarge
from .linalg import SquareMatrix, kernel_basis
from .poly import (SparsePoly, dense_deriv, dense_divmod, dense_gcd,
                   dense_mul, render_poly)
from .zerodim import OperatorKind, op_matrix

# largest field order accepted, since splitting loops over all of F_q
_MAX_FACTOR_Q = 64


@dataclass(frozen=True)
class Factorization:
    """Unit times a product of powers of distinct monic irreducibles."""

    unit: int
    factors: tuple

    def __post_init__(self):
        for g, mult in self.factors:
            if mult < 1:
                raise ValueError("multiplicity %d < 1" % mult)
            if not g.is_monic_uni():
                raise ValueError("factor %r is not monic" % g)

    def expand(self):
        if not self.factors:
            raise ValueError("empty factorization has no context")
        ctx = self.factors[0][0].ctx
        out = SparsePoly.constant(ctx, 1, 1)
        for g, mult in self.factors:
            out = out * g ** mult
        return out.scale(self.unit)

    def __str__(self):
        if not self.factors:
            return str(self.unit)
        parts = []
        if self.unit != 1:
            parts.append(str(self.unit))
        for g, mult in self.factors:
            text = "(%s)" % render_poly(g)
            parts.append(text if mult == 1 else "%s^%d" % (text, mult))
        return " * ".join(parts)


def factor_sort_key(item):
    dense = item[0].to_dense()
    return (len(dense), tuple(reversed(dense)))


def admissible_basis(f, kind=OperatorKind.FROBENIUS):
    """Polynomials of degree < deg f spanning the fixed space of the
    chosen operator on F_q[x]/(f)."""
    M = op_matrix(f, kind)
    fixed = M - SquareMatrix.identity(f.ctx, M.n)
    return [SparsePoly.from_dense(f.ctx, v) for v in kernel_basis(fixed)]


def _dense_sub_scaled(ctx, a, b, c):
    """a - c*b on dense lists."""
    out = list(a) + [0] * max(0, len(b) - len(a))
    if c:
        for i, y in enumerate(b):
            if y:
                out[i] = ctx.sub(out[i], ctx.mul(c, y))
    while out and out[-1] == 0:
        out.pop()
    return out


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


def _refine(ctx, g, basis):
    """First successful coprime cut of g from pairs (b_1, b_j) of its
    fixed-space basis, at least two vectors; None when every pair stalls.
    kernel_basis gives each vector its own degree (its free column), so
    no two are dependent."""
    h1 = basis[0]
    for h2 in basis[1:]:
        for c in range(ctx.q):
            cut = _coprime_split(ctx, g, _dense_sub_scaled(ctx, h1, h2, c))
            if cut:
                return cut
        cut = _coprime_split(ctx, g, h2)
        if cut:
            return cut
    return None


def _prime_power_root(ctx, g):
    """The monic irreducible h of a monic g = h^k: while g' = 0, g is a
    p-th power; then p does not divide k, and as gcd(h, h') = 1,
    gcd(g, g') = h^(k-1)."""
    while not dense_deriv(ctx, g):
        g = [ctx.pth_root(c) for c in g[::ctx.p]]
    h, rem = dense_divmod(ctx, g, dense_gcd(ctx, g, dense_deriv(ctx, g)))
    if rem:
        raise InvariantViolation("gcd(g, g') does not divide g")
    return h


def factorize(f, kind=OperatorKind.FROBENIUS):
    """Complete factorization of monic univariate f into irreducibles,
    driven by the fixed space of the chosen operator.

    Each component gets its own fixed space, which either certifies it as
    a prime power (dimension one) or is guaranteed to cut it further.
    """
    ctx = f.ctx
    if ctx.q > _MAX_FACTOR_Q:
        raise QTooLarge("scalar enumeration over %d elements exceeds the "
                        "cap %d" % (ctx.q, _MAX_FACTOR_Q))
    queue = [f]
    terminal = []
    while queue:
        g = queue.pop()
        basis = [h.to_dense() for h in admissible_basis(g, kind)]
        if len(basis) == 1:
            terminal.append(g)
            continue
        cut = _refine(ctx, g.to_dense(), basis)
        if cut is None:
            raise InternalCheckError(
                "component with several factors resisted every "
                "splitting pair from its own fixed space")
        queue.extend(SparsePoly.from_dense(ctx, h) for h in cut)
    factors = []
    for g in terminal:
        root = _prime_power_root(ctx, g.to_dense())
        mult, r = divmod(g.degree(), len(root) - 1)
        if r:
            raise InvariantViolation("root degree does not divide degree")
        factors.append((SparsePoly.from_dense(ctx, root), mult))
    factors.sort(key=factor_sort_key)
    return Factorization(1, tuple(factors))
