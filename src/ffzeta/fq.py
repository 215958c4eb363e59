"""Finite fields F_q = F_p[t]/(h(t)) and Galois rings (Z/p^m)[t]/(H(t)).

Elements are plain ints ("codes").  A field element a_0 + a_1*t + ... +
a_{e-1}*t^{e-1} is encoded as the integer a_0 + a_1*p + ... + a_{e-1}*p^{e-1};
ring elements use base p^m digits instead.  Keeping elements as ints makes
them hashable, comparable and cheap, and lets hot paths run on lookup
tables or numpy arrays of codes.

For p = 2 the code is the bit-packed coefficient vector, so addition is XOR
at any size.  A field tabulates itself once, in O(q) numpy work, with one
set of 1-D tables (a VectorKit: discrete log / antilog, and for odd p a
carry-free digit packing for addition); up to q = 2^14 it does so at
construction and scalar ops read list copies, above that on the first
vector_kit() call, for the brute-force oracle.  The caps below are the
one place that decides which fields carry tables: the oracle asks
vector_kit() and refuses what gets None.  Without tables, Z/p^m and
prime fields use integer arithmetic, and the rest the generic digit one.

Caches: make_field keeps a field per modulus as given and per canonical
modulus, make_galois_ring a ring per (field, m), _vector_kit a VectorKit
per field, and sigma is a cached property.  Shared arrays are read-only.

The modulus h is certified irreducible by `poly.dense_is_irreducible`
(Ben-Or's gcd form of Rabin's test) over the prime field, so fields carry
no polynomial arithmetic of their own; the default h is the least monic
irreducible of degree e in coefficient order.

Arrays of elements are stored as digit "planes": an (L, ...) int64 array
whose slice c holds the degree-c digits, reduced mod p (fields) or mod p^m
(rings).  The product of two plane stacks applies one numpy operation per
plane pair (np.matmul for matrices, np.convolve for polynomials,
np.multiply elementwise), sums the pairs into 2L-1 planes and folds the
high ones back through the modulus, which keeps the heavy loops inside
numpy while staying exact.  When a product or its fold could exceed int64,
the planes hold Python integers instead.

The Frobenius sigma (a -> a^p on a field, its lift fixing Z/p^m on a
Galois ring) is linear over Z/p^m on the digits: sigma(sum a_i t^i) =
sum a_i sigma(t)^i.  So both contexts apply it as one (L, L) digit matrix,
built once from sigma(t), to a single code or to a whole plane stack.

A field is the Galois ring with m = 1: FiniteField subclasses GaloisRing,
is its own residue field, and adds only its tables and their fast paths,
each falling back to GaloisRing's arithmetic.  So code written against
the ring runs unchanged on fields; `pm` is the base of the digits and `e`
their number in either.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (CoefficientOutsidePrimeField, CompositeP,
                     InvariantViolation, ReducibleModulus, TooLarge)
from .poly import dense_is_irreducible

_P2_VECTOR_CAP = 1 << 22        # tabulate fields with p = 2 up to this order
_ODD_VECTOR_CAP = 5 * 10 ** 4   # and fields with odd p up to this one
_LIST_CAP = 1 << 14             # up to here at construction, with list copies


# Miller-Rabin with these bases is exact below _MR_BOUND, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017); a
# number at or above it with no factor among the bases is refused
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_BOUND:
        raise TooLarge("primality is undecided at or above the "
                       "deterministic Miller-Rabin bound %d" % _MR_BOUND)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, k):
    """The largest r with r^k <= n, by Newton's method on integers from
    2^ceil(bits/k), which lies above the root."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _lex_least_modulus(p, e):
    """Least monic irreducible of degree e, ordering coefficient tuples
    (c_{e-1}, ..., c_0) ascending."""
    if e == 1:
        return (0, 1)
    base = make_field(p)
    for j in range(p ** e):
        c = [(j // p ** i) % p for i in range(e)]
        if c[0] == 0:
            continue            # divisible by t
        if dense_is_irreducible(base, c + [1]):
            return tuple(c + [1])
    raise ReducibleModulus("no irreducible of degree %d over F_%d" % (e, p))


def _reduction_rows(modulus, L, mod):
    """Rows expressing t^L .. t^{2L-2} in the basis 1..t^{L-1}, mod `mod`."""
    if L == 1:
        return ()
    base_row = [(-modulus[i]) % mod for i in range(L)]
    rows = [tuple(base_row)]
    cur = base_row
    for _ in range(L - 2):
        nxt = [0] + cur[:-1]
        top = cur[-1]
        if top:
            nxt = [(nxt[i] + top * base_row[i]) % mod for i in range(L)]
        rows.append(tuple(nxt))
        cur = nxt
    return tuple(rows)


def _gf2_mul_int(a, b, mod_int, k):
    """Product in F_{2^k} on bit-packed codes; mod_int includes the t^k bit."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= mod_int
    return r


def _gf2_mul_vec(arr, scalar, mod_int, k):
    """Vectorized product of an int64 code array by a fixed code."""
    acc = np.zeros_like(arr)
    i = 0
    while scalar:
        if scalar & 1:
            acc ^= arr << i
        scalar >>= 1
        i += 1
    for bit in range(2 * k - 2, k - 1, -1):
        mask = (acc >> bit) & 1
        acc ^= mask * (mod_int << (bit - k))
    return acc


def _factorize_int(n):
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _digit_product(ctx, x, y):
    """Codes of x[i] * y[j] for code arrays x and y, shape (len(x), len(y))."""
    planes = ctx._mul_planes(np.multiply, ctx._to_planes(x[:, None], 1),
                             ctx._to_planes(y[None, :], 1))
    return ctx._from_planes(planes)


class GaloisRing:
    """Context for (Z/p^m)[t]/(H(t)), H the trivial lift of the modulus of
    the residue field `field`: q^m elements, whose codes have e digits in
    base pm = p^m, multiplied modulo H.  The one generic context for every
    m >= 1, with integer arithmetic for e = 1 and digit arithmetic
    otherwise, which fields run past their table caps and are tested
    against, and the digit planes that vectorised products run on.
    Construct through make_galois_ring; a field is the subclass
    FiniteField, the case m = 1, which is its own residue field."""

    _mod_int = None                 # the modulus as a bit mask, base 2 only

    def __init__(self, field, m):
        self.field = field
        self.p, self.e, self.q, self.m = field.p, field.e, field.q, m
        self.pm = pm = field.p ** m
        self.size = pm ** field.e
        self.modulus = tuple(c % pm for c in field.modulus)
        self.reduction = _reduction_rows(self.modulus, self.e, pm)
        self._bpow = [pm ** i for i in range(self.e)]
        if pm == 2:
            self._mod_int = sum(b << i for i, b in enumerate(self.modulus))

    # -- identity ----------------------------------------------------------

    def __repr__(self):
        if self.m == 1:
            return "GF(%d)" % self.q
        return "GR(%d^%d, %d)" % (self.p, self.m, self.e)

    def __eq__(self, other):
        return (isinstance(other, GaloisRing) and other.p == self.p
                and other.m == self.m and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    # -- element codecs ----------------------------------------------------

    def encode(self, coeffs):
        code = 0
        for i, c in enumerate(coeffs):
            code += (c % self.pm) * self._bpow[i]
        return code

    def coeffs(self, code):
        return tuple((code // b) % self.pm for b in self._bpow)

    def prime_subring(self, codes, what):
        """The codes as a list.  Constants are exactly the codes below pm,
        whose higher digits are zero; any other code means a congruence
        guarantee was violated, and raises."""
        vals = list(codes)
        for c in vals:
            if not 0 <= c < self.pm:
                raise CoefficientOutsidePrimeField(
                    "%s coefficient %d is not in the prime subring"
                    % (what, c))
        return vals

    def to_field(self, a):
        """Reduction mod p onto the residue field."""
        return self.field.encode(c % self.p for c in self.coeffs(a))

    def from_field(self, a):
        """Trivial (digit-preserving) lift."""
        return self.encode(self.field.coeffs(a))

    def is_unit(self, a):
        return self.to_field(a) != 0

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a, b):
        pm = self.pm
        if self.e == 1:
            return (a + b) % pm
        code = 0
        for bp in self._bpow:
            code += (((a // bp) + (b // bp)) % pm) * bp
        return code

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        pm = self.pm
        if self.e == 1:
            return -a % pm
        code = 0
        for bp in self._bpow:
            code += ((-(a // bp)) % pm) * bp
        return code

    def mul(self, a, b):
        L, pm = self.e, self.pm
        if L == 1:
            return a * b % pm
        if pm == 2:
            return _gf2_mul_int(a, b, self._mod_int, L)
        da = self.coeffs(a)
        db = self.coeffs(b)
        conv = [0] * (2 * L - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        out = [c % pm for c in conv[:L]]
        for jj in range(len(conv) - 1, L - 1, -1):
            top = conv[jj] % pm
            if top:
                row = self.reduction[jj - L]
                for i in range(L):
                    out[i] = (out[i] + top * row[i]) % pm
        return self.encode(out)

    def inv(self, a):
        """Inverse of a unit: the residue-field inverse a^(q-2), lifted by
        Newton's iteration x -> x(2 - ax), which doubles its p-adic
        precision."""
        if not self.is_unit(a):
            raise ZeroDivisionError("%d is not a unit in %r" % (a, self))
        x = self.from_field(self.field.pow(self.to_field(a), self.q - 2))
        two = 2 % self.pm
        prec = 1
        while prec < self.m:
            x = self.mul(x, self.sub(two, self.mul(a, x)))
            prec *= 2
        return x

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    # -- Frobenius ---------------------------------------------------------

    @functools.cached_property
    def _sigma(self):
        """The (L, L) digit matrix S of the Frobenius sigma, built on first
        use and read-only: column i holds the digits of sigma(t)^i, so S
        times the digits of a are those of sigma(a) = sum a_i sigma(t)^i.
        sigma(t) is the root of the modulus H that reduces to t^p mod p,
        simple since H mod p is separable; Newton's iteration from t^p
        doubles its p-adic precision, and over a field t^p is the root."""

        def value(coeffs, x):
            acc = 0
            for c in reversed(coeffs):
                acc = self.add(self.mul(acc, x), c)
            return acc

        powers = [1]
        if self.e > 1:
            H = self.modulus
            dH = [i * c % self.pm for i, c in enumerate(H)][1:]
            x = self.pow(self.pm, self.p)   # the code pm is t
            prec = 1
            while prec < self.m:
                x = self.sub(x, self.mul(value(H, x),
                                         self.inv(value(dH, x))))
                prec *= 2
            if value(H, x) != 0:
                raise InvariantViolation("sigma(t) = %d is not a root of "
                                         "the modulus of %r" % (x, self))
            for _ in range(self.e - 1):
                powers.append(self.mul(powers[-1], x))
        sigma = np.array([self.coeffs(s) for s in powers], dtype=np.int64).T
        sigma.flags.writeable = False
        return sigma

    def _frob_planes(self, planes):
        """sigma on every element of a plane stack: one sum of L digit
        products per plane, which the planes' own dtype bound covers."""
        return np.tensordot(self._sigma, planes, 1) % self.pm

    def frob(self, a):
        """sigma(a): a -> a^p on a field, and on a Galois ring the lift of
        that map which fixes Z/p^m."""
        planes = self._frob_planes(self._to_planes([a], 1))
        return int(self._from_planes(planes)[0])

    def pth_root(self, a):
        """The inverse of frob, sigma^(e-1); on a field a -> a^(p^(e-1))."""
        for _ in range(self.e - 1):
            a = self.frob(a)
        return a

    # -- digit planes ------------------------------------------------------

    def _dtype_ok(self, n):
        """Whether int64 planes are exact for products whose planes sum at
        most n products of digits per plane pair (n = 1 elementwise, the
        size for n x n matrices).  A product plane sums at most L*n
        products of digits below pm, and _fold adds to it up to L-1 high
        planes times reduction-row entries below pm."""
        L = self.e
        high = L * max(n, 1) * (self.pm - 1) ** 2
        return high * (1 + (L - 1) * (self.pm - 1)) < 2 ** 62

    def _to_planes(self, codes, n):
        """The (L, ...) planes of an array of codes, int64 when _dtype_ok(n)
        and Python integers otherwise; codes past int64 split as Python
        integers."""
        dt = np.int64 if self._dtype_ok(n) else object
        arr = np.asarray(codes, dtype=dt if self.size <= 2 ** 63 else object)
        return np.stack([arr // b % self.pm for b in self._bpow]).astype(
            dt, copy=False)

    def _from_planes(self, planes):
        acc = np.zeros(planes.shape[1:], dtype=planes.dtype
                       if self.size <= 2 ** 63 else object)
        for c in range(self.e - 1, -1, -1):
            acc = acc * self.pm + planes[c]
        return acc

    def _fold(self, conv):
        """Reduce a (2L-1, ...) plane stack through the modulus to its
        first L planes, in place."""
        L = self.e
        for j in range(L, conv.shape[0]):
            row = self.reduction[j - L]
            for i in range(L):
                if row[i]:
                    conv[i] += row[i] * conv[j]
        low = conv[:L]
        low %= self.pm
        return low

    def _mul_planes(self, op, A, B):
        """The plane stack of the product of A and B, where op multiplies
        one plane of A by one plane of B over the integers.  The first
        product seeds the buffer, so with one plane the whole product is
        one op and one reduction."""
        L = self.e
        prod = op(A[0], B[0])
        conv = prod[None]
        if L > 1:
            conv = np.zeros((2 * L - 1,) + prod.shape, prod.dtype)
            conv[0] = prod
        for c1 in range(L):
            for c2 in range(L):
                if c1 or c2:
                    conv[c1 + c2] += op(A[c1], B[c2])
        return self._fold(conv)


class VectorKit:
    """Numpy tables of one field, indexed by codes.

    With g a generator, log[g^i] = i and log[0] = 2(q-1); exp holds g^i for
    i < 2(q-1) and 0 from there on, so exp[log[a] + log[b]] = a*b with no
    branch for zero.  For odd p, wide[a] packs the digits of a in base
    2p-1, where the digit sums of two codes never carry, and red reduces
    each digit of such a sum mod p, so red[wide[a] + wide[b]] = a + b;
    for p = 2 addition is XOR.  FiniteField keeps list copies up to
    q = 2^14 for its scalar ops."""

    __slots__ = ("p", "exp", "log", "neg", "wide", "red")

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.red[self.wide[a] + self.wide[b]]

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.red[self.wide[a] + self.wide[self.neg[b]]]


class FiniteField(GaloisRing):
    """Context for F_q, q = p^e: the Galois ring with m = 1, its own
    residue field, whose scalar ops read table copies where it has them and
    GaloisRing's arithmetic elsewhere.  Construct through make_field."""

    def __init__(self, p, e, modulus):
        self.p, self.e, self.q, self.modulus = p, e, p ** e, modulus
        super().__init__(self, 1)
        # the kit's tables as Python lists, which scalar ops read; every
        # field up to _LIST_CAP is under both table caps
        self._exp = self._log = self._neg = self._wide = self._red = None
        if self.q <= _LIST_CAP:
            kit = self.vector_kit()
            cycle = kit.exp[:self.q - 1].tolist()
            # doubled by concatenation, so both halves share the ints
            self._exp = cycle + cycle + [0] * (2 * self.q - 1)
            self._log = kit.log.tolist()
            if p != 2:
                self._neg = kit.neg.tolist()
                self._wide = kit.wide.tolist()
                self._red = kit.red.tolist()

    # -- scalar arithmetic on the tables -----------------------------------

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._red is None:
            return super().add(a, b)
        return self._red[self._wide[a] + self._wide[b]]

    def sub(self, a, b):
        if self.p == 2:
            return a ^ b
        if self._red is None:
            return super().sub(a, b)
        return self._red[self._wide[a] + self._wide[self._neg[b]]]

    def neg(self, a):
        if self.p == 2:
            return a
        if self._neg is None:
            return super().neg(a)
        return self._neg[a]

    def mul(self, a, b):
        if self._log is None:
            return super().mul(a, b)
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if self._log is None or a == 0:
            return super().inv(a)
        return self._exp[self.q - 1 - self._log[a]]

    # -- tables ------------------------------------------------------------

    def vector_kit(self):
        """The field's numpy tables (a VectorKit), built on first use, or
        None if the field is too large to tabulate."""
        cap = _P2_VECTOR_CAP if self.p == 2 else _ODD_VECTOR_CAP
        return _vector_kit(self) if self.q <= cap else None

    def _find_generator(self):
        q = self.q
        if q == 2:
            return 1
        primes = list(_factorize_int(q - 1))
        for g in range(2, q):
            if all(self.pow(g, (q - 1) // ell) != 1 for ell in primes):
                return g
        raise RuntimeError("no generator found for %r" % self)


@functools.cache
def _vector_kit(field):
    """The VectorKit of a field in O(q) numpy work, O((2p-1)^e) for `red`,
    built once per field and shared, so its tables are read-only.  Not a
    cached_property: on CPython 3.11 that turns the field's attributes
    into a dict, which slows each of its scalar ops."""
    q, p, e = field.q, field.p, field.e
    g = field._find_generator()
    # int32 holds every entry and index, 4(q-1) < 2^24 under the caps
    exp = np.zeros(4 * q - 3, dtype=np.int32)
    exp[0] = 1
    n = 1
    while n < q - 1:
        # g^(i+n) = g^i * g^n doubles the known powers
        k = min(n, q - 1 - n)
        step = GaloisRing.mul(field, int(exp[n - 1]), g)
        head = exp[:k].astype(np.int64)
        if p == 2:
            exp[n:n + k] = _gf2_mul_vec(head, step, field._mod_int, e)
        else:
            exp[n:n + k] = _digit_product(field, head, np.array([step]))[:, 0]
        n += k
    exp[q - 1:2 * (q - 1)] = exp[:q - 1]
    kit = VectorKit()
    kit.p = p
    kit.exp = exp
    kit.log = np.empty(q, dtype=np.int32)
    kit.log[exp[:q - 1]] = np.arange(q - 1, dtype=np.int32)
    kit.log[0] = 2 * (q - 1)
    kit.neg = kit.wide = kit.red = None
    if p != 2:
        digits = field._to_planes(np.arange(q), 1)
        wbase = (2 * p - 1) ** np.arange(e)
        sums = np.arange((2 * p - 1) ** e)
        kit.neg = field._from_planes(-digits % p)
        kit.wide = wbase @ digits
        # one digit at a time: a stack of all e digits of every sum
        # would take e times the memory of the table
        kit.red = np.zeros_like(sums)
        for w, b in zip(wbase.tolist(), field._bpow):
            kit.red += sums // w % (2 * p - 1) % p * b
    for table in (kit.exp, kit.log, kit.neg, kit.wide, kit.red):
        if table is not None:
            table.flags.writeable = False
    return kit


def split_prime_power(q):
    """(p, e) with q = p^e, or ValueError if q is not a prime power."""
    if q >= 2:
        for e in range(q.bit_length(), 0, -1):
            p = _iroot(q, e)
            if p ** e == q and _is_prime(p):
                return p, e
    raise ValueError("%d is not a prime power" % q)


def make_field(p, e=1, modulus=None):
    """Build (or fetch) the context for F_{p^e}.

    With modulus=None the modulus is the least monic irreducible of degree e,
    ordering coefficient tuples (c_{e-1}, ..., c_0) ascending.  A supplied
    modulus must be monic of degree e and irreducible over F_p, or
    ReducibleModulus is raised.
    """
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    # a hashable key: parse_modulus gives a list
    return _field(p, e, None if modulus is None else tuple(modulus))


@functools.cache
def _field(p, e, modulus):
    """make_field, cached by the given modulus; a hit skips _is_prime."""
    if not _is_prime(p):
        raise CompositeP("p = %d is not prime" % p)
    if modulus is None:
        mod = _lex_least_modulus(p, e)
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != e + 1 or mod[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree %d" % e)
        if not dense_is_irreducible(make_field(p), list(mod)):
            raise ReducibleModulus("modulus %s is reducible over F_%d"
                                   % (list(mod), p))
    return _canonical_field(p, e, mod)


_canonical_field = functools.cache(FiniteField)


@functools.cache
def make_galois_ring(field, m):
    """Galois ring over `field` of precision m; the field itself at m = 1."""
    if m < 1:
        raise ValueError("precision must be >= 1")
    return field if m == 1 else GaloisRing(field, m)
