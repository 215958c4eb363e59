"""Shared corpus generators; every test seeds its own RNG for reproducibility."""

import random
import sys
from itertools import combinations, product

from ffzeta import SquareMatrix, make_field, split_prime_power
from ffzeta.poly import SparsePoly, dense_mod


def field(q):
    return make_field(*split_prime_power(q))


# (p, e, m, sizes): F_2, F_9, F_{2^10}, Z/8, Z/25, GR(4, 2), GR(9, 2);
# Z/32749^2 on int64 planes at n = 4 and on Python integers at n = 5; and
# F_p with p = 2^31 - 1
CHARPOLY_CONTEXTS = [(2, 1, 1, range(8)), (3, 2, 1, range(8)),
                     (2, 10, 1, range(8)), (2, 1, 3, range(8)),
                     (5, 1, 2, range(8)), (2, 2, 2, range(8)),
                     (3, 2, 2, range(8)), (32749, 1, 2, (4, 5)),
                     (2147483647, 1, 1, range(7))]


def rand_monic(ctx, rng, d, nonzero_const=False):
    """Random monic univariate of degree d over ctx."""
    coeffs = [rng.randrange(ctx.q) for _ in range(d)] + [1]
    if nonzero_const:
        coeffs[0] = rng.randrange(1, ctx.q)
    return SparsePoly.from_dense(ctx, coeffs)


def rand_poly_uni(ctx, rng, d):
    """Random nonzero univariate of degree <= d (not necessarily monic)."""
    while True:
        coeffs = [rng.randrange(ctx.q) for _ in range(d + 1)]
        if any(coeffs):
            return SparsePoly.from_dense(ctx, coeffs)


def rand_poly_mv(ctx, rng, nvars, d, density=0.6):
    """Random nonzero polynomial in nvars variables, total degree <= d."""
    while True:
        terms = {}
        for u in product(range(d + 1), repeat=nvars):
            if sum(u) <= d and rng.random() < density:
                c = rng.randrange(ctx.q)
                if c:
                    terms[u] = c
        if terms:
            return SparsePoly(ctx, nvars, terms)


def product_reference(ctx, a, b):
    """The product of two term dicts over ctx, a loop over their term
    pairs: the reference for the product on packed keys."""
    terms = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = tuple(x + y for x, y in zip(u, v))
            s = ctx.add(terms.get(w, 0), ctx.mul(cu, cv))
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
    return terms


def poly_pow_reference(f, k):
    """f**k by repeated squaring, each product a product_reference: the
    reference for the packed-key power."""
    ctx = f.ctx
    out, base = {(0,) * f.nvars: 1}, dict(f.terms)
    while k:
        if k & 1:
            out = product_reference(ctx, out, base)
        k >>= 1
        if k:
            base = product_reference(ctx, base, base)
    return SparsePoly(ctx, f.nvars, out)


def monomials_reference(n, bound):
    """Exponent vectors of all monomials in n variables of total degree
    <= bound, graded lex, listed as combinations and sorted by
    (degree, -u): the reference for the basis builder."""
    vecs = []
    # u_1 + 1, u_1 + u_2 + 2, ... are n distinct values in 1..bound+n, and
    # every such choice arises exactly once
    for stops in combinations(range(1, bound + n + 1), n):
        u = [stops[0] - 1]
        for a, b in zip(stops, stops[1:]):
            u.append(b - a - 1)
        vecs.append(tuple(u))
    return sorted(vecs, key=lambda u: (sum(u), tuple(-x for x in u)))


def matrix_from_rows(ctx, rows):
    """The SquareMatrix with the given row lists of codes."""
    return SquareMatrix.from_columns(ctx, [list(col) for col in zip(*rows)])


def mul_by_x_matrix(f):
    """Matrix of multiplication by x on F_q[x]/(f): column j is
    x^(j+1) mod f."""
    ctx = f.ctx
    fd = f.to_dense()
    d = len(fd) - 1
    cols = []
    for j in range(d):
        h = dense_mod(ctx, [0] * (j + 1) + [1], fd)
        cols.append(h + [0] * (d - len(h)))
    return SquareMatrix.from_columns(ctx, cols)


def count_calls(monkeypatch, names):
    """Wrap the named ffzeta functions with call counters, in every package
    module that holds a reference to them; returns the live counts."""
    counts = dict.fromkeys(names, 0)
    for modname, mod in list(sys.modules.items()):
        if modname != "ffzeta" and not modname.startswith("ffzeta."):
            continue
        for name in names:
            fn = mod.__dict__.get(name)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    return counts


def count_scalar_reference(f, k, domain="affine"):
    """Independent point count: plain nested loops, scalar arithmetic only.

    Deliberately shares no code with the library's vectorized counter."""
    ctx = f.ctx
    big = make_field(ctx.p, ctx.e * k) if ctx.e * k > 1 else ctx
    if ctx.q == big.q or ctx.e == 1:
        # prime-subfield constants keep their integer codes
        embed = {a: a for a in range(ctx.q)}
    else:
        # the library's subfield embedding is trusted here only as a map;
        # recompute it from first principles: t_small -> generator power
        # such that the small modulus vanishes
        embed = {0: 0}
        mod = [c % ctx.p for c in ctx.modulus]
        for cand in range(big.q):
            acc = 0
            for c in reversed(mod):
                acc = big.add(big.mul(acc, cand), c % big.p)
            if acc == 0:
                break
        else:
            raise AssertionError("no embedding root found")
        for a in range(ctx.q):
            code = 0
            for i, c in enumerate(ctx.coeffs(a)):
                term = c % big.p
                for _ in range(i):
                    term = big.mul(term, cand)
                code = big.add(code, term)
            embed[a] = code
    points = range(1, big.q) if domain == "torus" else range(big.q)
    total = 0
    for pt in product(points, repeat=f.nvars):
        acc = 0
        for u, c in f.terms.items():
            val = embed[c]
            for x, e in zip(pt, u):
                for _ in range(e):
                    val = big.mul(val, x)
            acc = big.add(acc, val)
        if acc == 0:
            total += 1
    return total
