"""Ground truth by brute force.

Everything the congruence machinery claims is checked against this module:
points are counted by enumerating every candidate tuple over F_{q^k}, exact
zeta series coefficients come from the exp-of-power-sums recurrence run in
exact integer arithmetic, and univariate factorizations come from a sieve
of irreducibles plus trial division.  None of it shares code with the
operator path beyond field construction and arithmetic; the tests check
the irreducibility test that certifies a field's modulus against the sieve.

Enumeration runs on the 1-D tables of the extension field F_Q, Q = q^k
(log/antilog, and for odd p the carry-free addition of fq.VectorKit);
`fq` alone decides which fields carry them, and a count over a field
without them is refused before any work.  The count takes the grid of the
first n-1 coordinates in chunks of rows: the coefficients of the last
variable become (rows, 1) columns, built from the logs of each row's
outer monomials, and one Horner pass over a (rows x orbits) array
evaluates the last variable at once at one value per orbit of the
Frobenius x -> x^q on F_Q.  f has its coefficients in F_q, which the
Frobenius fixes, and the Frobenius permutes the grid of the other
coordinates, affine or torus; so the number of grid points where
f(., x_n) vanishes is the same for x_n and x_n^q, and each zero in the
column of a representative counts once per element of its orbit.  Only
the sum over the whole grid has this symmetry, not the sum over one
chunk.  Exponents are first folded below Q, since x^Q = x on F_Q, and a
polynomial that folds to a constant is answered without enumeration and
without building F_Q.  The work is Q^(n-1) times the number of orbits,
about Q^n / k point evaluations of one table lookup per exponent of x_n
present in f; _MAX_ENUM caps the grid Q^n.  The sieve and trial division
run on the same tables over extension fields and on int64 arithmetic mod
p over prime fields, with their own division.  functools.cache keeps the
orbits per (Q, q, k, domain), the embedding of F_q in F_Q per pair of
fields and the irreducibles per field and degree: shared, so read-only.

One variable with deg f <= k is counted from the factors instead: a
monic irreducible g has deg g roots in F_Q when deg g | k and none
otherwise, so N_k sums deg g over the distinct factors of f with deg g | k,
leaving out g = x on the torus.  Trial division then sieves degrees up to
k/2, fewer than 2 sqrt(Q) rows against the Q points it replaces.  Near
deg f = 2k the sieve lists about Q rows, each a whole coefficient row, and
costs more time and memory than enumeration, so past deg f = k the count
enumerates.  Both routes sit behind the same refusals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (InvariantViolation, NonIntegralCoefficient,
                     RingNotField, TooLarge)
from .fq import make_field
from .poly import Factorization, SparsePoly

_MAX_ENUM = 10 ** 9     # largest grid q^(kn) an enumeration covers, before
                        # the cut to one value of x_n per Frobenius orbit
_MAX_SIEVE = 10 ** 7    # largest q^D the irreducible sieve may cover
_CHUNK = 1 << 16        # entries of one (outer points x orbits) Horner array


# ---------------------------------------------------------------------------
# embeddings F_q -> F_{q^k}


def _find_root(kit, coeffs):
    """Least root, in the field of `kit`, of a polynomial {exponent:
    coefficient} with prime-subfield coefficients."""
    roots = np.flatnonzero(_horner_vec(kit, coeffs, kit.log) == 0)
    if not len(roots):
        # F_q embeds in every F_(q^k), so the modulus always has a root
        raise InvariantViolation("modulus has no root in the extension")
    return int(roots[0])


@functools.cache
def _embedding(small, big):
    """Powers of the image of t under the least-root embedding, a tuple, or
    None when coefficient codes carry over unchanged (prime base field)."""
    if small.e == 1 or big is small:
        return None
    root = _find_root(big.vector_kit(), {j: int(c) for j, c in
                                          enumerate(small.modulus) if c})
    powers = [1]
    for _ in range(small.e - 1):
        powers.append(big.mul(powers[-1], root))
    return tuple(powers)


def _embed_coeff(small, big, rpows, a):
    if rpows is None:
        return a
    acc = 0
    for dgt, rp in zip(small.coeffs(a), rpows):
        if dgt:
            acc = big.add(acc, big.mul(dgt, rp))
    return acc


# ---------------------------------------------------------------------------
# point counting


@dataclass(frozen=True)
class CountVector:
    """N_1..N_K for one polynomial and one domain (affine or torus)."""

    q: int
    nvars: int
    domain: str
    counts: tuple

    def __post_init__(self):
        for k, nk in enumerate(self.counts, 1):
            qk = self.q ** k
            bound = qk ** self.nvars if self.domain == "affine" \
                else (qk - 1) ** self.nvars
            if not 0 <= nk <= bound:
                raise ValueError("impossible count N_%d = %d" % (k, nk))


def _horner_vec(kit, coeffs, xlog):
    """Values of the polynomial {exponent: coefficient} at the points whose
    logs are xlog.  A coefficient is a scalar or a (rows, 1) column of
    codes; with columns, row r of the (rows, len(xlog)) result uses entry r
    of each column.  Horner steps from each exponent present to the next
    one down, and last to 0, each in one lookup: log x^g = g log x mod
    (Q-1), with log 0 = 2(Q-1) kept."""
    zero = int(kit.log[0])

    def times_power(y, g):
        # the logs are int32, and g log x < 2Q^2 needs int64
        glog = xlog if g == 1 else np.where(
            xlog == zero, zero, g * xlog.astype(np.int64) % (zero // 2))
        return kit.exp[kit.log[y] + glog]

    exps = sorted(coeffs, reverse=True)
    top = coeffs[exps[0]]
    y = np.broadcast_to(top, np.shape(top)[:1] + xlog.shape)
    for hi, lo in zip(exps, exps[1:]):
        y = kit.add(times_power(y, hi - lo), coeffs[lo])
    # no step of 0: x^0 = 1 also at x = 0
    return times_power(y, exps[-1]) if exps[-1] else y


def _count_cap(q, k, n):
    """Refuse a count of n variables over F_(q^k) unless n >= 0, k >= 1
    and the grid q^(kn) is within _MAX_ENUM; it reads integers only, so it
    can run before any field is built."""
    if n < 0:
        # before q^(kn), which would be a float
        raise ValueError("number of variables must be >= 0")
    if k < 1:
        raise ValueError("extension degree k must be >= 1, got %d" % k)
    # q >= 2, so k*n past the cap's bit length decides before q^(k*n),
    # which could be huge, is formed
    if k * n >= _MAX_ENUM.bit_length() or q ** (k * n) > _MAX_ENUM:
        raise TooLarge("q^(k*n) for q = %d, k = %d, n = %d exceeds the "
                       "enumeration cap %d" % (q, k, n, _MAX_ENUM))


def count_points(f, k=1, domain="affine"):
    """Number of F_{q^k}-rational points of {f = 0} in the affine space or
    the torus (all coordinates nonzero): from the trial factorization of f
    when f is univariate of degree <= k (after folding exponents below
    q^k), otherwise by enumeration."""
    ctx, n = f.ctx, f.nvars
    # first, as the fold below reads Q - 1
    _count_cap(ctx.q, k, n)
    if domain not in ("affine", "torus"):
        raise ValueError("domain must be 'affine' or 'torus'")
    if ctx.m != 1:
        raise RingNotField("point counting needs field coefficients")
    # the answers up to the field's construction need only Q
    Q = ctx.q ** k
    terms = {}
    for u, c in f.terms.items():
        # x^u = x^((u-1) mod (Q-1) + 1) on F_Q for u >= 1, and an
        # evaluation costs a lookup per exponent of x_n present in f
        v = tuple((e - 1) % (Q - 1) + 1 if e else 0 for e in u)
        terms[v] = ctx.add(terms.get(v, 0), c)
    terms = {u: c for u, c in terms.items() if c}
    if not terms:
        # f is zero as a function on F_Q^n (x^2 + x on F_2, say)
        return Q ** n if domain == "affine" else (Q - 1) ** n
    if list(terms) == [(0,) * n]:
        # a nonzero constant function vanishes nowhere, also at the one
        # point of F_Q^0, the empty tuple
        return 0
    big = ctx if k == 1 else make_field(ctx.p, ctx.e * k)
    kit = big.vector_kit()
    if kit is None:
        raise TooLarge("F_%d is too large to tabulate for counting" % big.q)
    if n == 1 and max(terms)[0] <= k:
        # N_k from the factors (see above); x is the one monic irreducible
        # with g(0) = 0, and the torus leaves it out
        fac = trial_factorize(SparsePoly(ctx, 1, terms))
        return sum(g.degree() for g, _ in fac.factors
                   if k % g.degree() == 0
                   and (domain == "affine" or g.constant_term()))
    # the embedding is additive, so the folded sums embed term by term
    rpows = _embedding(ctx, big)
    terms = {u: _embed_coeff(ctx, big, rpows, c) for u, c in terms.items()}
    lo = 0 if domain == "affine" else 1
    return _count_vectorized(big, kit, terms, n, lo, ctx.q, k)


@functools.cache
def _frobenius_orbits(Q, q, k, lo):
    """One representative per orbit of x -> x^q on F_Q, Q = q^k, as logs,
    and the size of each orbit; lo = 1 leaves out 0, else 0 is its own
    orbit with log 2(Q-1).  The orbits of the units are the cosets of the
    logs mod Q-1 under l -> ql, each represented by its least log.  Built
    once per argument tuple and shared, so both arrays are read-only."""
    # logs are int32, as in the tables; int8 holds a count of at most k
    # steps, since q^k = Q is below 2^31
    ell = np.arange(Q - lo, dtype=np.int32)
    # on the affine domain the last slot is 0, which the steps leave alone
    ell[Q - 1:] = 2 * (Q - 1)
    cur = ell.astype(np.int64)
    units = cur[:Q - 1]
    least = ell.copy()
    fixed = np.ones(Q - lo, dtype=np.int8)
    for _ in range(k - 1):
        # cur = q^j l mod Q-1; q * cur < Q^2 fits int64
        units *= q
        units %= Q - 1
        np.minimum(least, cur, out=least)
        fixed += cur == ell
    # the steps j < k with q^j l = l are the multiples of the orbit size
    rep = least == ell
    logs, sizes = ell[rep], k // fixed[rep]
    if sizes.sum() != Q - lo or (k % sizes).any():
        raise InvariantViolation("Frobenius orbits of F_%d do not partition "
                                 "it into sizes dividing %d" % (Q, k))
    logs.flags.writeable = sizes.flags.writeable = False
    return logs, sizes


def _count_vectorized(big, kit, terms, n, lo, q, k):
    Q = big.q
    xlog, sizes = _frobenius_orbits(Q, q, k, lo)
    # split off the last variable: {outer exponents: {last exponent: c}}
    groups = {}
    for u, c in terms.items():
        groups.setdefault(u[:n - 1], {})[u[n - 1]] = c
    side = Q - lo
    outer = side ** (n - 1)
    rows = max(1, _CHUNK // len(xlog))
    count = 0
    for start in range(0, outer, rows):
        # one row per outer point, the last coordinate running fastest
        idx = np.arange(start, min(start + rows, outer), dtype=np.int64)
        vals = [idx // side ** (n - 2 - i) % side + lo for i in range(n - 1)]
        # log x_i mod (Q-1), so log 0 = 2(Q-1) reads as 0 and x_i = 0 is
        # flagged apart
        logs = [kit.log[v].astype(np.int64) % (Q - 1) for v in vals]
        cols = {}
        for exps, last in groups.items():
            # log of the outer monomial; each term is at most (Q-1)^2, and
            # later table indices at most 4(Q-1), so _MAX_ENUM and the table
            # caps keep (n-1)(Q-1)^2 + 4(Q-1) below 2^63
            w = np.zeros(len(idx), dtype=np.int64)
            dead = np.zeros(len(idx), dtype=bool)
            for e, lg, v in zip(exps, logs, vals):
                if e:
                    w += e * lg
                    dead |= v == 0
            w %= Q - 1
            w[dead] = 2 * (Q - 1)
            w = w[:, None]
            for j, c in last.items():
                cols[j] = kit.add(cols.get(j, 0), kit.exp[w + kit.log[c]])
        y = _horner_vec(kit, cols, xlog)
        # zeros are few, so weighting each one is cheaper than per-column
        # sums; the orbit of a zero is its column
        count += int(sizes[np.flatnonzero(y == 0) % len(xlog)].sum())
    return count


def count_vector(f, K, domain="affine"):
    # the largest field first, so that a refused count fails at once
    counts = [count_points(f, k, domain) for k in range(K, 0, -1)]
    return CountVector(f.ctx.q, f.nvars, domain, tuple(counts[::-1]))


def zeta_coeffs_exact(counts, B):
    """Series coefficients of exp(sum N_k T^k / k) through T^B, computed
    exactly; the result provably has nonnegative integer entries, and a
    coefficient that is not one raises NonIntegralCoefficient."""
    if isinstance(counts, CountVector):
        counts = counts.counts
    if len(counts) < B:
        raise ValueError("need counts through N_%d" % B)
    c = [1]
    for m in range(1, B + 1):
        s = 0
        for k in range(1, m + 1):
            s += counts[k - 1] * c[m - k]
        v, r = divmod(s, m)
        if r or v < 0:
            raise NonIntegralCoefficient(
                "coefficient %d of the zeta series is %s/%d" % (m, s, m))
        c.append(v)
    return c


# ---------------------------------------------------------------------------
# irreducibles by sieve, factorization by trial division


def _monic_digit_rows(q, d):
    """(q^d, d+1) array: all monic degree-d coefficient rows, little-endian."""
    idx = np.arange(q ** d, dtype=np.int64)
    rows = np.empty((q ** d, d + 1), dtype=np.int64)
    for i in range(d):
        rows[:, i] = (idx // q ** i) % q
    rows[:, d] = 1
    return rows


def _field_tables(ctx):
    """None for a prime field, whose rows reduce by int64 % p; otherwise
    the field's tables."""
    if ctx.e == 1:
        if ctx.p >= 1 << 31:
            raise TooLarge("p = %d is too large for int64 products" % ctx.p)
        return None
    kit = ctx.vector_kit()
    if kit is None:
        raise TooLarge("F_%d is too large to tabulate for the sieve" % ctx.q)
    return kit


def _batch_mul_fixed(ctx, kit, rows, fixed):
    """Product of every row polynomial with one fixed dense polynomial;
    kit is _field_tables(ctx)."""
    n, la = rows.shape
    out = np.zeros((n, la + len(fixed) - 1), dtype=np.int64)
    logs = None if kit is None else kit.log[rows]
    for j, c in enumerate(fixed):
        if not c:
            continue
        acc = out[:, j:j + la]
        if kit is None:
            acc += rows * c
            acc %= ctx.p
        else:
            acc[:] = kit.add(acc, kit.exp[logs + kit.log[c]])
    return out


def _row_indices(q, rows, d):
    """Little-endian index of each monic degree-d row."""
    acc = np.zeros(len(rows), dtype=np.int64)
    for i in range(d - 1, -1, -1):
        acc = acc * q + rows[:, i]
    return acc


@functools.cache
def _irreducible_rows(ctx, d):
    """Sorted coefficient rows of the monic irreducibles of degree d >= 1,
    sieved by the products of those of lower degree from this same cache;
    shared, so read-only."""
    kit = _field_tables(ctx)
    q = ctx.q
    comp = np.zeros(q ** d, dtype=bool)
    for ell in range(1, d // 2 + 1):
        # d - ell >= ell, so the irreducibles of degree ell, fewer than
        # q^ell, are the shorter of the two lists to loop over
        monics = _monic_digit_rows(q, d - ell)
        for row in _irreducible_rows(ctx, ell):
            prod = _batch_mul_fixed(ctx, kit, monics, row.tolist())
            comp[_row_indices(q, prod, d)] = True
    # rows come in index order, which weights c_{d-1} most: already the
    # tuple order (c_{d-1}, ..., c_0) of the sort
    rows = _monic_digit_rows(q, d)[~comp]
    rows.flags.writeable = False
    return rows


def irreducibles_up_to(field, D):
    """All monic irreducibles of degree <= D over the field, sorted by
    degree then by coefficient tuple (c_{d-1}, ..., c_0)."""
    if field.q ** D > _MAX_SIEVE:
        raise TooLarge("sieve size q^D = %d over cap" % field.q ** D)
    return [SparsePoly.from_dense(field, row.tolist())
            for d in range(1, D + 1) for row in _irreducible_rows(field, d)]


def _batch_remainders(ctx, kit, a, rows, ell):
    """Division of the fixed polynomial `a` by every monic row of degree
    ell: a divisibility mask, and one quotient row per divisor.  kit is
    _field_tables(ctx)."""
    # column r divides by row r, so that each step reads one whole row
    rem = np.repeat(np.array(a, dtype=np.int64)[:, None], len(rows), axis=1)
    low = rows[:, :ell].T
    logs = None if kit is None else kit.log[low]
    for i in range(len(a) - 1, ell - 1, -1):
        # the divisor is monic, so row i, which no later step touches, is
        # the quotient's coefficient of x^(i - ell)
        acc = rem[i - ell:i]
        if kit is None:
            acc -= rem[i] * low
            acc %= ctx.p
        else:
            acc[:] = kit.sub(acc, kit.exp[kit.log[rem[i]] + logs])
    return ~rem[:ell].any(axis=0), rem[ell:].T


def trial_factorize(f):
    """Factor a univariate polynomial by dividing out sieve irreducibles in
    increasing order.  Independent of the operator machinery."""
    if f.nvars != 1:
        raise ValueError("trial factorization needs univariate input")
    if f.ctx.m != 1:
        raise RingNotField("trial factorization needs a field")
    ctx = f.ctx
    dense = f.to_dense()
    if len(dense) <= 1:
        raise ValueError("cannot factor a constant")
    unit = dense[-1]
    inv = ctx.inv(unit)
    rem = [ctx.mul(c, inv) for c in dense]
    half = (len(rem) - 1) // 2
    if half >= 1 and ctx.q ** half > _MAX_SIEVE:
        raise TooLarge("degree %d needs a sieve past the cap" % (len(rem) - 1))
    factors = []
    for ell in range(1, half + 1):
        if 2 * ell > len(rem) - 1:
            break
        # the sieve grows one degree at a time, only as far as rem needs
        kit, rows = _field_tables(ctx), _irreducible_rows(ctx, ell)
        divides, quo = _batch_remainders(ctx, kit, rem, rows, ell)
        rows, quo = rows[divides], quo[divides]
        # distinct irreducibles, so each row divides what is left once the
        # rows before it are divided out: one batch division of each
        # quotient by the rows not yet done gives the next quotient
        mult = 0
        while len(rows):
            rem = quo[0].tolist()
            mult += 1
            divides, quo = _batch_remainders(ctx, kit, rem, rows, ell)
            if not divides[0]:
                factors.append((SparsePoly.from_dense(ctx, rows[0].tolist()),
                                mult))
                mult = 0
                rows, quo = rows[1:], quo[1:]
    if len(rem) > 1:
        factors.append((SparsePoly.from_dense(ctx, rem), 1))
    return Factorization(unit, tuple(factors))
