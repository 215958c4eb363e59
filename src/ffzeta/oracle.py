"""Ground truth by brute force.

Everything the congruence machinery claims is checked against this module:
points are counted by enumerating every candidate tuple over F_{q^k}, or
in one variable as the degree of gcd(f, x^(q^k) - x), exact zeta series
coefficients come from the exp-of-power-sums recurrence run in exact
integer arithmetic, and univariate factorizations come from distinct-
and equal-degree splitting on this module's own polynomial arithmetic.
None of it shares code with the operator path beyond field construction
and arithmetic; the tests check the irreducibility test that certifies a
field's modulus against a plain sieve of irreducibles.

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
present in f; _MAX_ENUM caps the grid Q^n.  functools.cache keeps the
orbits per (Q, q, k, domain) and the embedding of F_q in F_Q per pair of
fields: shared, so read-only.

One variable is counted from a Frobenius chain instead when g, f folded
below Q, has degree <= K, the largest k asked for: k itself for
count_points, K for count_vector.  x^Q - x is the product of the x - a
over F_Q, so N_k = deg gcd(g, x^Q - x), less 1 on the torus when g(0) = 0.
x^(q^k) mod g is the q-th power of x^(q^(k-1)) mod g, log q squarings, so
the chain to K costs K log q products mod g of at most K^2 scalar steps
each, with K log2 q <= 30 under _MAX_ENUM.  f = g mod x^Q - x, so when deg
f <= K the counts of a vector share the one chain of f; a larger f gets a
chain per distinct g, and past deg g = K, where the chain's squares grow
with deg g and the enumeration does not, the count enumerates.  The chain
runs on the scalar ops of F_q, with its own division, product, power and
monic gcd, and reads no table, so it also counts over an F_Q without
tables, which only the enumeration refuses.

Factorization runs on the same arithmetic: squarefree parts, then
distinct-degree and equal-degree splitting (Cantor and Zassenhaus, Math.
Comp. 36, 1981; von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 14), with random splitters from a fixed seed; _MAX_FACTOR caps its
cost d^3 e^2 log q before any work.  irreducibles_up_to lists the monic
irreducibles by a plain sieve; _MAX_SIEVE caps its q^D.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import (InvariantViolation, NonIntegralCoefficient,
                     RingNotField, TooLarge)
from .fq import make_field
from .poly import Factorization, SparsePoly

_MAX_ENUM = 10 ** 9     # largest grid q^(kn) an enumeration covers, before
                        # the cut to one value of x_n per Frobenius orbit
_MAX_SIEVE = 10 ** 5    # largest q^D the irreducible sieve may cover
# largest cost d^3 e^2 log q of a factorization
_MAX_FACTOR = 10 ** 6
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
    the torus (all coordinates nonzero): from a Frobenius chain when f is
    univariate of degree <= k after folding exponents below q^k, otherwise
    by enumeration."""
    return _count(f, k, domain, k, {})


def _count(f, k, domain, K, chains):
    """count_points(f, k, domain), one variable taking the chain route up
    to degree K; `chains` keeps each chain's counts by its polynomial, for
    the other counts of one vector."""
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
    if n == 1 and max(terms)[0] <= K:
        # (see above) f = g mod x^Q - x, so f itself serves every k of a
        # vector when deg f <= K; 0 is a root when g(0) = 0
        g = f if f.degree() <= K else SparsePoly(ctx, 1, terms)
        g = _monic(ctx, g.to_dense())
        if len(chains.get(g, ())) < k:
            chains[g] = _root_counts(ctx, g, k)
        return chains[g][k - 1] - (domain == "torus" and not g[0])
    big = ctx if k == 1 else make_field(ctx.p, ctx.e * k)
    kit = big.vector_kit()
    if kit is None:
        raise TooLarge("F_%d is too large to tabulate for counting" % big.q)
    # the embedding is additive, so the folded sums embed term by term
    rpows = _embedding(ctx, big)
    terms = {u: _embed_coeff(ctx, big, rpows, c) for u, c in terms.items()}
    lo = 0 if domain == "affine" else 1
    return _count_vectorized(big, kit, terms, n, lo, ctx.q, k)


# ---------------------------------------------------------------------------
# dense univariate arithmetic on little-endian lists of F_q codes: the
# Frobenius chain of the counts, and the factorization below


def _monic(ctx, a):
    inv = ctx.inv(a[-1])
    return tuple(ctx.mul(c, inv) for c in a)


def _strip(a):
    while a and not a[-1]:
        a.pop()
    return a


def _sub(ctx, a, b):
    return _strip([ctx.sub(u, v) for u, v in
                   itertools.zip_longest(a, b, fillvalue=0)])


def _divmod(ctx, a, g):
    """Quotient and remainder of a by the monic g, the remainder's zero
    leading coefficients dropped."""
    a, d = list(a), len(g) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j in range(d):
                if g[j]:
                    a[i - d + j] = ctx.sub(a[i - d + j], ctx.mul(c, g[j]))
    # no later step touches a[i], the quotient's coefficient of x^(i - d)
    return a[d:], _strip(a[:d])


def _rem(ctx, a, g):
    return _divmod(ctx, a, g)[1]


def _mul(ctx, a, b):
    prod = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b):
                if e:
                    prod[i + j] = ctx.add(prod[i + j], ctx.mul(c, e))
    return prod


def _pow_mod(ctx, a, e, g):
    """a^e mod g for e >= 1, squaring from the top bit down."""
    out = a
    for bit in bin(e)[3:]:
        out = _rem(ctx, _mul(ctx, out, out), g)
        if bit == "1":
            out = _rem(ctx, _mul(ctx, out, a), g)
    return out


def _gcd(ctx, a, b):
    """Monic gcd of the monic a and b."""
    while b:
        b = _monic(ctx, b)
        a, b = b, _rem(ctx, a, b)
    return a


def _root_counts(ctx, g, K):
    """Roots of the monic g in F_(q^k), k = 1..K: deg gcd(g, x^(q^k) - x),
    as x^(q^k) - x is the product of the x - a over F_(q^k).  Each
    x^(q^k) mod g is the q-th power of the one before."""
    x = _rem(ctx, [0, 1], g)
    h, out = x, []
    for _ in range(K):
        h = _pow_mod(ctx, h, ctx.q, g)
        out.append(len(_gcd(ctx, g, _sub(ctx, h, x))) - 1)
    return out


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
    # the largest field first, so that a refused count fails at once, and
    # each chain is built at the largest k it serves
    chains = {}
    counts = [_count(f, k, domain, K, chains) for k in range(K, 0, -1)]
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
# irreducibles by sieve, factorization by Cantor-Zassenhaus


def irreducibles_up_to(field, D):
    """All monic irreducibles of degree <= D over the field, sorted by
    degree then by coefficient tuple (c_{d-1}, ..., c_0): each degree
    strikes out the products of the irreducibles of at most half its
    degree with every monic cofactor."""
    if field.q ** D > _MAX_SIEVE:
        raise TooLarge("sieve size q^D = %d over cap" % field.q ** D)
    out = []
    for d in range(1, D + 1):
        composite = set()
        for g in out:
            if 2 * len(g) - 2 > d:
                break
            for top in itertools.product(range(field.q),
                                         repeat=d - len(g) + 1):
                composite.add(tuple(_mul(field, g, top[::-1] + (1,))))
        # product() runs the last entry fastest: read as (c_{d-1}, ...,
        # c_0), that is the sort order
        out += [top[::-1] + (1,) for top in itertools.product(
            range(field.q), repeat=d) if top[::-1] + (1,) not in composite]
    return [SparsePoly.from_dense(field, g) for g in out]


def _squarefree(ctx, f):
    """Pairs (g, m), f = prod g^m for the monic f, each g monic and
    squarefree and the g coprime (Yun's gcds with f').  What the gcds leave
    has f' = 0, so it is r(x^p), and r's coefficients are p-th powers:
    a = (a^(q/p))^p."""
    p = ctx.p
    c = _gcd(ctx, f, _strip([ctx.mul(i % p, a) for i, a in
                             enumerate(f)][1:]))
    w = _divmod(ctx, f, c)[0]
    out, m = [], 1
    while len(w) > 1:
        y = _gcd(ctx, w, c)
        z = _divmod(ctx, w, y)[0]
        if len(z) > 1:
            out.append((z, m))
        w, c, m = y, _divmod(ctx, c, y)[0], m + 1
    if len(c) > 1:
        root = [ctx.pow(a, ctx.q // p) for a in c[::p]]
        out += [(g, k * p) for g, k in _squarefree(ctx, root)]
    return out


def _distinct_degree(ctx, g):
    """Pairs (ell, h) for the squarefree monic g, h the product of its
    irreducible factors of degree ell: gcd(g, x^(q^ell) - x) once those of
    lower degree are divided out."""
    x = h = [0, 1]
    out, ell = [], 0
    while 2 * ell + 2 < len(g):
        ell += 1
        h = _pow_mod(ctx, h, ctx.q, g)
        part = _gcd(ctx, g, _sub(ctx, h, x))
        if len(part) > 1:
            out.append((ell, part))
            g = _divmod(ctx, g, part)[0]
            h = _rem(ctx, h, g)
    if len(g) > 1:
        out.append((len(g) - 1, g))
    return out


def _equal_degree(ctx, g, ell, rng):
    """The irreducible factors of the squarefree monic g, all of degree
    ell.  For a random a below g, gcd(g, a^((q^ell - 1)/2) - 1) for odd q,
    or gcd(g, a + a^2 + ... + a^(2^(e ell - 1))) for q = 2^e, splits g with
    probability at least 1/2."""
    if len(g) - 1 == ell:
        return [g]
    while True:
        a = _strip([rng.randrange(ctx.q) for _ in range(len(g) - 1)])
        if ctx.p == 2:
            # the trace to F_2; in characteristic 2, _sub adds
            b = power = a
            for _ in range(ctx.e * ell - 1):
                power = _rem(ctx, _mul(ctx, power, power), g)
                b = _sub(ctx, b, power)
        else:
            b = _sub(ctx, _pow_mod(ctx, a, (ctx.q ** ell - 1) // 2, g), [1])
        h = _gcd(ctx, g, b)
        if 1 < len(h) < len(g):
            return (_equal_degree(ctx, h, ell, rng)
                    + _equal_degree(ctx, _divmod(ctx, g, h)[0], ell, rng))


def trial_factorize(f):
    """Factor a univariate polynomial over a field on this module's own
    arithmetic: squarefree parts, then distinct-degree and equal-degree
    splitting (Cantor and Zassenhaus), the splitters drawn from a fixed
    seed.  Factorization sorts the factors, so the result is canonical.
    Independent of the operator machinery."""
    if f.nvars != 1:
        raise ValueError("trial factorization needs univariate input")
    if f.ctx.m != 1:
        raise RingNotField("trial factorization needs a field")
    ctx, d = f.ctx, f.degree()
    if d < 1:
        raise ValueError("cannot factor a constant")
    # up to d/2 powers x^(q^ell) mod f, each of log q products of d^2
    # scalar steps, and a scalar product in F_(p^e) of up to e^2 digit
    # ones; a linear f takes no power
    cost = d ** 3 * (ctx.q - 1).bit_length() * ctx.e ** 2
    if d > 1 and cost > _MAX_FACTOR:
        raise TooLarge("factoring deg f = %d over F_%d costs d^3 e^2 log q "
                       "= %d, past the cap %d" % (d, ctx.q, cost, _MAX_FACTOR))
    dense, rng = f.to_dense(), random.Random(0)
    factors = [(SparsePoly.from_dense(ctx, h), m)
               for g, m in _squarefree(ctx, _monic(ctx, dense))
               for ell, part in _distinct_degree(ctx, g)
               for h in _equal_degree(ctx, part, ell, rng)]
    return Factorization(dense[-1], tuple(factors))
