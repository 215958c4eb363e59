"""Reference arithmetic written for the benchmark's checks.

Nothing here imports ffzeta: these are the independent computations that the
workload checks compare the program's answers with.  Everything is plain
Python on small inputs, so it is slow but obviously right.
"""

import itertools
import math


def mobius(k):
    out = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


def necklace_defects(counts):
    """Indices k (1-based) where sum_{j|k} mu(k/j) N_j is negative or not
    divisible by k.  That sum is k times the number of closed points of
    degree k, so every count sequence of a variety has none."""
    bad = []
    for k in range(1, len(counts) + 1):
        s = sum(mobius(k // j) * counts[j - 1]
                for j in range(1, k + 1) if k % j == 0)
        if s < 0 or s % k:
            bad.append(k)
    return bad


# ---------------------------------------------------------------------------
# integer power series truncated at order B


def series_mul(a, b, B, mod=None):
    out = [0] * (B + 1)
    for i, x in enumerate(a[:B + 1]):
        if x:
            for j, y in enumerate(b[:B + 1 - i]):
                out[i + j] += x * y
    return [c % mod for c in out] if mod else out


def series_inv(a, B, mod=None):
    """Inverse of a series with constant term 1."""
    if (a[0] % mod if mod else a[0]) != 1:
        raise ValueError("constant term must be 1")
    a = list(a[:B + 1]) + [0] * (B + 1 - len(a[:B + 1]))
    out = [1] + [0] * B
    for k in range(1, B + 1):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, k + 1))
        if mod:
            out[k] %= mod
    return out


def series_pow(a, e, B, mod=None):
    base = a if e >= 0 else series_inv(a, B, mod)
    out = [1] + [0] * B
    for _ in range(abs(e)):
        out = series_mul(out, base, B, mod)
    return out


def torus_series(n, q, B, mod):
    """prod_{i=0..n} (1 - q^i T)^{(-1)^(n-i+1) C(n,i)} through T^B, in
    integers, then reduced mod `mod`."""
    out = [1] + [0] * B
    if n == 0:
        return out
    for i in range(n + 1):
        expo = math.comb(n, i) * (-1) ** (n - i + 1)
        out = series_mul(out, series_pow([1, -q ** i], expo, B), B)
    return [c % mod for c in out]


def exact_zeta(counts, B):
    """Coefficients of exp(sum N_k T^k / k) through T^B, by Newton's
    identity c_m = (1/m) sum_k N_k c_{m-k}."""
    c = [1]
    for m in range(1, B + 1):
        s = sum(counts[k - 1] * c[m - k] for k in range(1, m + 1))
        if s % m:
            raise ValueError("non-integral zeta coefficient")
        c.append(s // m)
    return c


# ---------------------------------------------------------------------------
# finite fields from a modulus


class PlainField:
    """F_{p^e} = F_p[t]/(modulus) with elements coded as base-p digit
    integers (digit i is the coefficient of t^i), the code convention the
    program uses too.  Full tables, so only for small orders."""

    def __init__(self, p, modulus):
        self.p = p
        self.e = len(modulus) - 1
        self.q = p ** self.e
        self.modulus = tuple(modulus)
        q = self.q
        digits = [self._digits(a) for a in range(q)]
        self.add_t = [[self._code([(x + y) % p for x, y in zip(da, db)])
                       for db in digits] for da in digits]
        self.mul_t = [[self._code(self._mul_digits(da, db)) for db in digits]
                      for da in digits]

    def _digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.e)]

    def _code(self, ds):
        return sum(d * self.p ** i for i, d in enumerate(ds))

    def _mul_digits(self, da, db):
        p, e = self.p, self.e
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                conv[i + j] += x * y
        for top in range(2 * e - 2, e - 1, -1):
            c = conv[top] % p
            if c:
                for i, mc in enumerate(self.modulus):
                    conv[top - e + i] -= c * mc
        return [c % p for c in conv[:e]]

    def poly_mul(self, a, b):
        """Product of dense coefficient lists (constant term first)."""
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = self.add_t[out[i + j]][self.mul_t[x][y]]
        return out


def least_irreducible(p, k):
    """Least monic irreducible of degree k <= 3 over F_p, found as the
    first cubic, quadratic or linear polynomial without a root in F_p."""
    if k > 3:
        raise ValueError("root test decides irreducibility only up to 3")
    for low in itertools.product(range(p), repeat=k):
        mod = low + (1,)
        if k == 1 or all(sum(c * x ** i for i, c in enumerate(mod)) % p
                         for x in range(p)):
            return mod
    raise ValueError("no irreducible found")


def count_plain(p, k, terms, n, domain="affine"):
    """Points of {f = 0} over F_{p^k}, for f with coefficients in F_p, by
    evaluating f at every point with the field tables above."""
    F = PlainField(p, least_irreducible(p, k))
    add, mul = F.add_t, F.mul_t
    lo = 0 if domain == "affine" else 1
    maxdeg = max(max(u) for u in terms)
    powers = []
    for x in range(F.q):
        row = [1]
        for _ in range(maxdeg):
            row.append(mul[row[-1]][x])
        powers.append(row)
    count = 0
    for point in itertools.product(range(lo, F.q), repeat=n):
        acc = 0
        for u, c in terms.items():
            v = c % p
            for x, e in zip(point, u):
                v = mul[v][powers[x][e]]
            acc = add[acc][v]
        count += acc == 0
    return count
