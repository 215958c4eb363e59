"""Sparse multivariate polynomials with coefficients in a field or Galois
ring context.

Terms are a dict mapping exponent tuples to nonzero coefficient codes, so a
polynomial in n variables over F_q costs O(#terms) regardless of degree.
Next to the sparse type live its rendering, the `Factorization` value
type, which alone orders factors, its one product and its powers, the
package's one univariate polynomial
arithmetic: dense kernels on little-endian code lists (products, division,
gcd, modular powers, the irreducibility test) that the factorization and
zero-dimensional pipelines run on, and that `fq` runs to certify a field's
modulus, and the package's one series expansion, which every zeta series
runs.  The univariate psi_q acts on dense lists in `zerodim`; the
multivariate psi_q is applied inside `hyper`'s operator matrix.

The sparse product runs on arrays: each exponent vector is packed into one
mixed-radix key, variable i in a radix that no exponent of the result
reaches (deg_{x_i} a + deg_{x_i} b + 1 for a * b, k deg_{x_i} f + 1 for
every f^j, j <= k, of a power), so adding keys multiplies monomials; the
coefficients are the context's digit planes.  A product is an outer sum of
keys, one plane product, a sort of the keys and a sum over each run of
equal keys; `*` and the squarings of f^k share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MultivariateInput, SizeLimit

_MAX_WORK = 15 * 10 ** 5  # most term pairs one sparse product may take


class SparsePoly:
    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx, nvars, terms=None):
        self.ctx = ctx
        self.nvars = nvars
        if terms:
            self.terms = {u: c for u, c in terms.items() if c}
        else:
            self.terms = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, ctx, c, nvars=1):
        return cls(ctx, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, ctx, nvars=1):
        return cls.constant(ctx, 1, nvars)

    @classmethod
    def from_dense(cls, ctx, coeffs):
        """Univariate polynomial from a little-endian coefficient list."""
        return cls(ctx, 1, {(i,): c for i, c in enumerate(coeffs) if c})

    # -- shape -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(u) for u in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def is_constant(self):
        return self.degree() <= 0

    def to_dense(self):
        if self.nvars != 1:
            raise MultivariateInput("dense form needs a univariate input")
        d = self.degree()
        out = [0] * (d + 1) if d >= 0 else []
        for (i,), c in self.terms.items():
            out[i] = c
        return out

    def lead_uni(self):
        """Leading coefficient of a univariate polynomial, read from its
        top term."""
        if self.nvars != 1:
            raise MultivariateInput("leading coefficient needs a univariate "
                                    "input")
        return self.terms.get((self.degree(),), 0)

    def is_monic_uni(self):
        return self.lead_uni() == 1

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.ctx != other.ctx or self.nvars != other.nvars:
            raise ValueError("mixed polynomial contexts")

    def __mul__(self, other):
        """The product on packed keys, variable i in radix
        deg_{x_i} self + deg_{x_i} other + 1, which no exponent of the
        product reaches; SizeLimit guards its work."""
        self._check(other)
        radix = [a + b + 1 for a, b in zip(_degrees(self), _degrees(other))]
        return _unpack(self.ctx, self.nvars, radix, _capped_product(
            self.ctx, _packed(self, radix), _packed(other, radix)))

    def scale(self, c):
        mul = self.ctx.mul
        out = SparsePoly(self.ctx, self.nvars)
        out.terms = {u: v for u, v in
                     ((u, mul(cv, c)) for u, cv in self.terms.items()) if v}
        return out

    def __pow__(self, k):
        return poly_pow(self, k)

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.ctx == other.ctx
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return "<poly %s>" % render_poly(self)

    # -- context changes ---------------------------------------------------

    def lift_to(self, ring):
        """Trivial coefficient-wise lift of a polynomial over ring.field."""
        out = SparsePoly(ring, self.nvars)
        out.terms = {u: ring.from_field(c) for u, c in self.terms.items()}
        return out


# ---------------------------------------------------------------------------
# rendering (kept next to the data type; the CLI parser is its inverse)


def var_names(nvars):
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return ["x%d" % (i + 1) for i in range(nvars)]


def _render_coeff(ctx, code):
    """Text of one coefficient; (needs_parens, text)."""
    if ctx.e == 1:
        return False, str(code)
    cs = ctx.coeffs(code)
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else "%d*" % c
            parts.append(head + ("t" if i == 1 else "t^%d" % i))
    if not parts:
        return False, "0"
    return (len(parts) > 1 or "t" in parts[0]), "+".join(parts)


def render_poly(f):
    if f.is_zero():
        return "0"
    names = var_names(f.nvars)
    keys = sorted(f.terms, key=lambda u: (sum(u),) + u, reverse=True)
    out = []
    for u in keys:
        mono = "*".join(
            n if ui == 1 else "%s^%d" % (n, ui)
            for n, ui in zip(names, u) if ui)
        parens, ctext = _render_coeff(f.ctx, f.terms[u])
        if not mono:
            piece = "(%s)" % ctext if parens else ctext
        elif f.terms[u] == 1:
            piece = mono
        else:
            head = "(%s)" % ctext if parens else ctext
            piece = head + "*" + mono
        out.append(piece)
    return " + ".join(out)


@dataclass(frozen=True)
class Factorization:
    """Unit times a product of powers of distinct monic irreducibles; the
    factors sort by degree, then by coefficients from the top."""

    unit: int
    factors: tuple

    def __post_init__(self):
        for g, mult in self.factors:
            if mult < 1:
                raise ValueError("multiplicity %d < 1" % mult)
            if not g.is_monic_uni():
                raise ValueError("factor %r is not monic" % g)
        object.__setattr__(self, "factors", tuple(sorted(
            self.factors, key=lambda item: (item[0].degree(),
                                            item[0].to_dense()[::-1]))))

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


# ---------------------------------------------------------------------------
# dense univariate kernels (little-endian code lists); these carry the hot
# paths of the factorization and zero-dimensional suites


def dense_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def dense_mul(ctx, a, b):
    if not a or not b:
        return []
    mul, add = ctx.mul, ctx.add
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return dense_trim(out)


def dense_divmod(ctx, a, b):
    """Quotient and remainder; b nonzero, coefficients in a field."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], dense_trim(a)
    inv_lead = ctx.inv(b[-1])
    mul, sub = ctx.mul, ctx.sub
    q = [0] * (da - db + 1)
    for i in range(da, db - 1, -1):
        c = a[i]
        if not c:
            continue
        coef = mul(c, inv_lead)
        q[i - db] = coef
        for j in range(db + 1):
            a[i - db + j] = sub(a[i - db + j], mul(coef, b[j]))
    return q, dense_trim(a[:db])


def dense_mod(ctx, a, b):
    return dense_divmod(ctx, a, b)[1]


def dense_monic(ctx, a):
    if not a:
        return []
    if a[-1] == 1:
        return list(a)
    inv = ctx.inv(a[-1])
    return [ctx.mul(c, inv) for c in a]


def dense_gcd(ctx, a, b):
    a, b = dense_trim(list(a)), dense_trim(list(b))
    while b:
        a, b = b, dense_mod(ctx, a, b)
    return dense_monic(ctx, a)


def dense_deriv(ctx, a):
    # the integer i embeds as the degree-0 code i mod pm
    out = [ctx.mul(a[i], i % ctx.pm) for i in range(1, len(a))]
    return dense_trim(out)


def dense_mulmod(ctx, a, b, f):
    return dense_mod(ctx, dense_mul(ctx, a, b), f)


def dense_powmod(ctx, a, n, f):
    r = [1]
    a = dense_mod(ctx, a, f)
    while n:
        if n & 1:
            r = dense_mulmod(ctx, r, a, f)
        a = dense_mulmod(ctx, a, a, f)
        n >>= 1
    return r


def dense_is_irreducible(ctx, f):
    """Ben-Or's form of Rabin's test: a monic f of degree e over F_q is
    irreducible iff gcd(x^(q^i) - x mod f, f) = 1 for 1 <= i <= e/2, since
    x^(q^i) - x is the product of the monic irreducibles of degree
    dividing i.  Over F_2 the test runs on f packed into one int."""
    e = len(f) - 1
    if e < 1:
        return False
    if ctx.size == 2:
        return _gf2_is_irreducible(int("".join(map(str, reversed(f))), 2))
    xqi = [0, 1]
    for _ in range(e // 2):
        xqi = dense_powmod(ctx, xqi, ctx.q, f)
        diff = xqi + [0] * (2 - len(xqi))
        diff[1] = ctx.sub(diff[1], 1)
        if len(dense_gcd(ctx, f, dense_trim(diff))) > 1:
            return False
    return True


def _gf2_mod(a, b):
    """a mod b for polynomials over F_2 packed into ints (bit i the
    coefficient of x^i): shifted XORs of b clear the top bits of a."""
    db = b.bit_length()
    while (s := a.bit_length() - db) >= 0:
        a ^= b << s
    return a


def _gf2_is_irreducible(f):
    """Ben-Or's test over F_2 on the packed f.  Read in base 4, the binary
    digits of x^(2^i) move bit j to bit 2j, which over F_2 is the square
    x^(2^(i+1))."""
    xqi = 2                         # x
    for _ in range((f.bit_length() - 1) // 2):
        xqi = _gf2_mod(int(bin(xqi)[2:], 4), f)
        a, b = f, xqi ^ 2
        while b:
            a, b = b, _gf2_mod(a, b)
        if a != 1:
            return False
    return True


def dense_translate(ctx, a, c):
    """Coefficients of f(x + c)."""
    out = []
    for coef in reversed(a):
        # out <- out * (x + c) + coef
        shifted = [0] + out
        for i in range(len(out)):
            shifted[i] = ctx.add(shifted[i], ctx.mul(out[i], c))
        out = shifted
        out[0] = ctx.add(out[0], coef)
    return dense_trim(out)


# ---------------------------------------------------------------------------
# products and powers on packed keys


def _degrees(f):
    """The largest exponent of each variable in f, 0 for the zero
    polynomial."""
    return [max(col) for col in zip(*f.terms)] if f.terms else [0] * f.nvars


def _pack(rows, radix):
    """The mixed-radix keys of exponent vectors whose entry i lies below
    radix[i], the first variable weighing most: int64 while the radix
    product stays below 2^63, so that no key or exponent can wrap, and
    Python integers past it."""
    dt = np.int64 if math.prod(radix) < 2 ** 63 else object
    exps = np.array(rows, dtype=dt).reshape(len(rows), len(radix))
    keys = np.zeros(len(rows), dtype=dt)
    for i, r in enumerate(radix):
        keys = keys * r + exps[:, i]
    return keys


def _packed(f, radix):
    """f as (keys, planes): its packed exponents and its coefficients'
    digit planes."""
    return (_pack(list(f.terms), radix),
            f.ctx._to_planes(list(f.terms.values()), 1))


def _unpack(ctx, n, radix, packed):
    """The SparsePoly in n variables of a (keys, planes) pair packed in
    `radix`."""
    keys, planes = packed
    exps = np.empty((len(keys), n), dtype=keys.dtype)
    for i in range(n - 1, -1, -1):
        exps[:, i] = keys % radix[i]
        keys = keys // radix[i]
    out = SparsePoly(ctx, n)
    out.terms = dict(zip(map(tuple, exps.tolist()),
                         ctx._from_planes(planes).tolist()))
    return out


def _capped_product(ctx, a, b):
    """The product of two polynomials held as (keys, planes),
    refused before it starts when its work, the number of term pairs,
    passes _MAX_WORK, which also bounds its number of terms and its
    transient arrays (work keys and work entries per plane)."""
    (ka, pa), (kb, pb) = a, b
    work = len(ka) * len(kb)
    if work > _MAX_WORK:
        raise SizeLimit("a product of %d term pairs exceeds the cap %d"
                        % (work, _MAX_WORK))
    if not work:
        return ka[:0], pa[:, :0]
    keys = (ka[:, None] + kb[None, :]).ravel()
    planes = ctx._mul_planes(np.multiply, pa[:, :, None], pb[:, None, :])
    # a run's exact sum does not depend on its order, so no stable sort
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    # a key sums at most min(|a|, |b|) reduced products, one per term of
    # the shorter factor, each below pm; int64 planes have (pm - 1)^2 <
    # 2^62 (_dtype_ok(1)), so such a sum stays below 2^62 for factors of
    # fewer than 2^31 terms, far past _MAX_WORK
    sums = np.add.reduceat(planes.reshape(ctx.e, work)[:, order], starts,
                           axis=1) % ctx.pm
    keep = (sums != 0).any(axis=0)
    return keys[starts][keep], sums[:, keep]


def poly_pow(f, k):
    """f**k by repeated squaring on packed keys (see the module
    docstring); SizeLimit guards the work of each product."""
    if k < 0:
        raise ValueError("negative power of a polynomial")
    ctx, n = f.ctx, f.nvars
    if not k:
        return SparsePoly.one(ctx, n)
    radix = [k * deg + 1 for deg in _degrees(f)]
    base = _packed(f, radix)
    out = _pack([(0,) * n], radix), ctx._to_planes([1], 1)
    while k:
        if k & 1:
            out = _capped_product(ctx, out, base)
        k >>= 1
        if k:
            base = _capped_product(ctx, base, base)
    return _unpack(ctx, n, radix, out)


# ---------------------------------------------------------------------------
# series in T on coefficient lists


def _product_series(modulus, B, factors):
    """c_0..c_B of the product of a(T)^k over the (k, a) pairs of
    `factors`, a a coefficient list, as a list mod `modulus`, or exact when
    it is None, where every constant term must be 1.  A power (1 + uT)^|k|
    is its binomial sum over j <= min(|k|, B) of C(|k|, j) u^j T^j, in as
    many steps whatever the size of k; other powers come by repeated
    squaring on lists cut at T^B.  A product reads the nonzero terms of
    its sparser side only, so polynomials of degrees D and E cost O(D*E).
    The k > 0 powers form a numerator, the rest a denominator, which
    divides once, at the end, by its nonzero terms; its constant term must
    be a unit (ValueError otherwise)."""
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
        if a[0] == 1 and len(a) == 2:
            # C(|k|, j) = C(|k|, j-1) (|k| - j + 1) / j, an exact division
            c = uj = 1
            for j in range(1, min(abs(k), B) + 1):
                c, uj = c * (abs(k) - j + 1) // j, uj * a[1]
                if modulus is not None:
                    uj %= modulus
                part.append(c * uj)
            part = cut(part)
        else:
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
