"""Zeta functions of zero-dimensional affine varieties V(f), f univariate
over F_q.

The coordinate ring R = F_q[x]/(f) has basis 1, x, ..., x^(d-1).  Three
semilinear/linear operators on R tie the arithmetic of f to linear algebra:

  * Frobenius        h -> h^q
  * Niederreiter     h -> psi_q(hasse_{q-1}(f^(q-1) * h)), computed as
                     the slice g[q-1::q] of g = f^(q-1) * h: the Hasse
                     binomials C(qk + q-1, q-1) that psi_q keeps are 1 mod p
  * PsiMul           h -> psi_q(f^(q-1) * h), needs f(0) != 0

Each has det(I - M*T) congruent mod p to 1/Z(V(f), T), and the fixed space
of Frobenius (equivalently of the others) has dimension equal to the number
of distinct irreducible factors.  Counting fixed points of Frobenius powers
pins down the whole degree profile of f, hence the exact zeta function,
without ever factoring f.

Niederreiter and PsiMul divide f(x^q) by f in about q*d*(d+1) field steps,
which a cap bounds before f(x^q) is listed; Frobenius takes log q squarings.

The profile comes out of a closed-form inverse.  With s_i distinct
irreducible factors of degree i, the fixed space of the j-th Frobenius
power has dimension k_j = sum_i gcd(i, j) s_i.  Since gcd(i, j) =
sum_{k | i, k | j} phi(k), the sums t_k = sum_{k | i} s_i satisfy
k_j = sum_{k | j} phi(k) t_k, so by Moebius inversion

  t_j = sum_{k | j} mu(j/k) k_k / phi(j),   s_i = sum_{i | k <= d} mu(k/i) t_k.

Each k_j is d - rank(M^j - I) for the Frobenius matrix M.  The d powers
are stacked as one (L, d, d, d) plane array, I comes off plane 0's
diagonal, and one elimination (`linalg._stack_ranks`) returns all d ranks:
about e^2 d^4 / 3 digit products over F_(p^e).  A cap on e^2 d^4 refuses
a profile before its Frobenius matrix is built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (ConstantInput, InvariantViolation, MultivariateInput,
                     NonIntegralSolution, NotMonic, RingNotField, SizeLimit,
                     ZeroConstantTerm)
from .linalg import (SquareMatrix, _operator_cap, _stack_ranks,
                     charpoly_reverse)
from .poly import (_product_series, dense_divmod, dense_mod, dense_mulmod,
                   dense_powmod)

_MAX_DIVISION_STEPS = 10 ** 5   # most steps q*d*(d+1) of f(x^q) / f

# most digit products, e^2 d^4, of the degree profile's elimination on the
# d powers of the Frobenius matrix: F_2 stops at d = 120 (about 2 s and
# 80 MB), F_4 at 84, F_16 at 60.  A product on Python-integer planes
# (large p) counts as 10, as it costs about ten int64 ones, so F_(10^9+7)
# stops at d = 67
_MAX_PROFILE_WORK = 120 ** 4


class OperatorKind(enum.Enum):
    FROBENIUS = "frobenius"
    NIEDERREITER = "niederreiter"
    PSI_MUL = "psi"


def _check_operator(f, kind):
    """Every refusal of op_matrix(f, kind), raised before any of its work."""
    if f.nvars != 1:
        raise MultivariateInput(
            "zero-dimensional routines need univariate input")
    if f.ctx.m != 1:
        raise RingNotField("zero-dimensional routines need a field")
    q, d = f.ctx.q, f.degree()
    if d < 1:
        raise ConstantInput("f must be nonconstant")
    # R = F_q[x]/(f) has dimension deg f
    _operator_cap(d, f.ctx.e)
    if not f.is_monic_uni():
        raise NotMonic("f must be monic")
    if kind == OperatorKind.PSI_MUL and not f.constant_term():
        raise ZeroConstantTerm("psi-multiplication operator needs f(0) != 0")
    # every coefficient c has c^q = c, so f^q = f(x^q), and f^(q-1) is one
    # exact division by f, of q*d*(d+1) steps
    if kind != OperatorKind.FROBENIUS and \
            q * d * (d + 1) > _MAX_DIVISION_STEPS:
        raise SizeLimit("f(x^q)/f over F_%d, deg f = %d, takes %d steps, "
                        "past the cap %d" % (q, d, q * d * (d + 1),
                                             _MAX_DIVISION_STEPS))


def op_matrix(f, kind):
    """Matrix of the chosen operator on R = F_q[x]/(f) in the power basis;
    column j is the image of x^j."""
    _check_operator(f, kind)
    ctx = f.ctx
    q = ctx.q
    fd = f.to_dense()
    d = len(fd) - 1
    cols = []
    if kind == OperatorKind.FROBENIUS:
        # x^(jq) = x^((j-1)q) * x^q, so one modular power serves every column
        xq = dense_powmod(ctx, [0, 1], q, fd)
        col = [1]
        for j in range(d):
            if j:
                col = dense_mulmod(ctx, col, xq, fd)
            cols.append(col + [0] * (d - len(col)))
    else:
        fxq = [0] * (q * d + 1)
        fxq[::q] = fd
        fq1, rem = dense_divmod(ctx, fxq, fd)
        if rem:
            raise InvariantViolation("f does not divide f(x^q)")
        # Lucas: C(qk+q-1, q-1) = 1 mod p, so psi_q(hasse_{q-1}(g)) = g[q-1::q]
        start = q - 1 if kind == OperatorKind.NIEDERREITER else 0
        for j in range(d):
            h = dense_mod(ctx, ([0] * j + fq1)[start::q], fd)
            cols.append(h + [0] * (d - len(h)))
    return SquareMatrix.from_columns(ctx, cols)


def degree_profile(f):
    """Vector s with s[i-1] = number of distinct irreducible factors of
    degree i, recovered from fixed-space dimensions of Frobenius powers."""
    _profile_cap(f)
    return _profile(op_matrix(f, OperatorKind.FROBENIUS))


def _profile_cap(f):
    """Refuse the degree profile of f past _MAX_PROFILE_WORK, before its
    Frobenius matrix is built."""
    _check_operator(f, OperatorKind.FROBENIUS)
    ctx, d = f.ctx, f.degree()
    work = ctx.e ** 2 * d ** 4 * (1 if ctx._dtype_ok(d) else 10)
    if work > _MAX_PROFILE_WORK:
        raise SizeLimit("the degree profile of deg f = %d over F_%d takes "
                        "%d digit products, past the cap %d"
                        % (d, ctx.q, work, _MAX_PROFILE_WORK))


def _profile(M):
    """degree_profile from the Frobenius matrix M: k_j = d - rank(M^j - I)
    for j = 1..d, all d ranks from one elimination on the stacked powers."""
    ctx = M.ctx
    d = M.n
    powers = [M.planes]
    P = M
    for _ in range(d - 1):
        P = P @ M
        powers.append(P.planes)
    stack = np.stack(powers, axis=1)
    diag = np.arange(d)
    stack[0, :, diag, diag] = (stack[0, :, diag, diag] - 1) % ctx.pm
    ks = [d - r for r in _stack_ranks(ctx, stack).tolist()]
    s = _solve_gcd_system(ks)
    if any(v < 0 for v in s) or sum(i * v for i, v in enumerate(s, 1)) > d:
        raise InvariantViolation("degree profile %s is impossible for "
                                 "degree %d" % (list(s), d))
    return tuple(s)


def _mobius_phi(d):
    """Lists mu and phi of 0..d (index 0 unused), by a prime sieve."""
    mu = [1] * (d + 1)
    phi = list(range(d + 1))
    for p in range(2, d + 1):
        if phi[p] != p:
            continue  # composite: a smaller prime already lowered phi[p]
        for k in range(p, d + 1, p):
            phi[k] -= phi[k] // p
            mu[k] = -mu[k]
        for k in range(p * p, d + 1, p * p):
            mu[k] = 0
    return mu, phi


def _solve_gcd_system(ks):
    """The integer s with sum_i gcd(i, j) s_i = ks[j-1] for j = 1..d, by
    the Moebius inversion in the module docstring; raises
    NonIntegralSolution when the rational solution is not integral."""
    d = len(ks)
    mu, phi = _mobius_phi(d)
    t = [0] * (d + 1)
    for j in range(1, d + 1):
        acc = sum(mu[j // k] * ks[k - 1]
                  for k in range(1, j + 1) if j % k == 0)
        t[j], r = divmod(acc, phi[j])
        if r:
            raise NonIntegralSolution(
                "fixed-space counts %s: phi(%d) = %d does not divide %d"
                % (list(ks), j, phi[j], acc))
    return [sum(mu[k // i] * t[k] for k in range(i, d + 1, i))
            for i in range(1, d + 1)]


@dataclass(frozen=True)
class FactoredZeta:
    """(1 - T^i)^e factors as (i, e) pairs.  The zeta of V(f) has
    e = -s_i < 0, one per irreducible degree in f, and prints as 1/(...);
    its inverse, with every e > 0, is only expanded."""

    factors: tuple

    def expand(self, B):
        """Exact integer series coefficients c_0..c_B."""
        return _product_series(None, B, [(e, [1] + [0] * (i - 1) + [-1])
                                         for i, e in self.factors])

    def __str__(self):
        if not self.factors:
            return "1"
        parts = []
        for period, expo in self.factors:
            base = "1-T" if period == 1 else "1-T^%d" % period
            e = -expo
            parts.append("(%s)" % base if e == 1 else "(%s)^%d" % (base, e))
        return "1/(%s)" % "".join(parts)


def _zeta_from_profile(s):
    return FactoredZeta(tuple((i + 1, -v) for i, v in enumerate(s) if v))


def zerodim_zeta(f):
    """Exact zeta function of V(f) from the degree profile: one pole factor
    1/(1-T^i)^(s_i) per degree i with s_i > 0."""
    return _zeta_from_profile(degree_profile(f))


def congruence_charpoly(f, kind):
    """det(I - M*T) for the chosen operator; the coefficients provably lie
    in the prime field, and one outside it raises
    CoefficientOutsidePrimeField."""
    return f.ctx.prime_subring(charpoly_reverse(op_matrix(f, kind)),
                               "charpoly")
