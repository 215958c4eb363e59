"""Exact linear algebra over field and Galois ring contexts.

A SquareMatrix stores its entries as the context's digit planes, an
(L, n, n) array (see `fq`); a matrix product is the context's plane
product with np.matmul.

charpoly_reverse returns det(I - M*T).  Read as a directed graph, the
support of M (the nonzeros of any plane) splits into strongly connected
components; permuted to their order M is block triangular, so det(I - M*T)
is the product over the diagonal blocks, exactly over any commutative
ring.  A one-node block with diagonal entry a contributes 1 - a*T, so a
transient node, one no cycle passes through, drops out.  The components
come from the reachability matrix, found by Warshall's algorithm on the
boolean support: O(n^3) bit operations in numpy, with no float product,
so no BLAS call and no thread beyond the caller's.

Each block of size k costs O(k^3): a Hessenberg reduction (Cohen, A
Course in Computational Algebraic Number Theory, 2.2.9) followed by the
Hessenberg recurrence for the characteristic polynomial.  Over a Galois
ring each column pivots on its entry of least p-adic valuation, so every
multiplier is an exact quotient and the similarity stays integral
(Caruso, Roe and Vaccon, "Characteristic polynomials of p-adic
matrices", ISSAC 2017); one algorithm serves fields and rings.  It has two
kernels.  The plane kernel runs on the digit planes, about 25 numpy calls
a column; each of its plane products sums at most k <= n digit products
per plane pair, and so does the convolution of the block charpolys, at
most min(k, n - k) + 1 <= n: the bound `_dtype_ok(n)` that sizes the
matrix's planes, int64 or Python integers, covers both.  The scalar
kernel runs the same steps on lists of codes through the context's
scalar ops, with no per-call overhead, and skips zero entries and
multipliers, and the rest of the recurrence at a zero subdiagonal
product.  A block takes the scalar kernel when k = 1, where it gives
1 - aT, or nothing for a transient node, and when k <= _SCALAR_BLOCK = 16
and the context's scalar ops are cheap: e = 1, one integer operation mod
p^m, or a field with list tables (q <= 2^14).  On dense random blocks the
scalar kernel is the faster one up to k = 16 over F_p for p near 10^6,
the first context to cross over, 20 over F_25, 24 over F_2, F_3, Z/4 and
Z/27, and 32 over F_16; over a Galois ring with e > 1 and a field past
the tables, whose scalar ops run on digits, it loses from k = 8.  Larger
blocks and those contexts keep the plane kernel.

Kernels and ranks require a field.  kernel_basis is a scalar Gauss-Jordan
elimination, which the factorizer runs once, on the operator of f.
_stack_ranks finds the ranks of a whole (L, k, n, n) stack of matrices in
one forward elimination, column by column for all k at once: per column
one elementwise plane product on the trailing columns of the rows below
the ranks, about e^2 k n^3 / 3 digit products in all, k scalar inverses
per column, and a few dozen numpy calls per column whatever k is.  Its
elementwise products need only `_dtype_ok(1)`, which the stack's own
dtype implies.

charpoly_reverse(M, B), B < n, returns c_0..c_B only; while B <= 16 it
reads them from traces (as in Lauder and Wan, MSRI Publ. 44, 2008), which
add over the blocks, with no components and no Hessenberg reduction.
Newton's identities k c_k = -sum_{i<=k} c_{k-i} tr(M^i) run over the
Galois ring of precision N = m + v_p(B!), as step k loses v_p(k) digits
and c_k is exact mod p^(N - v_p(k!)).  M's digits lift unchanged, since the determinant is a
polynomial in the entries and so any lift has the same det(I - MT) mod
p^m.  tr(M^(a+b)) sums the entries of M^a o (M^b)^T, so B traces take
ceil(B/2) - 1 products; each sums n digit products per plane pair, and a
trace n values below p^N at a time, so the lifted ring's `_dtype_ok(n)`
must hold, or the full charpoly runs and is cut at B.  zeta_mod_p,
zeta_mod_pm and verify pass their B; the CLI's modp and modpm print all
of P, so take the full charpoly.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import InvariantViolation, RingNotField, SizeLimit
from .fq import _iroot, make_galois_ring

# the operator cap bounds e^2 n^3 by _MAX_OPERATOR^3: dimension n <= 600
# over a prime field, 377 over F_4 and F_9, 238 over F_16
_MAX_OPERATOR = 600

# most products, ceil(B/2) - 1, a truncated charpoly takes on traces, so
# B <= 16: at n = 153 over GF(4) and GR(2^2, 2) that costs 0.6 to 0.9 of
# a Hessenberg charpoly
_MAX_TRACE_PRODUCTS = 7

# the largest block the scalar charpoly takes where the context's scalar
# ops are cheap: the least measured crossover (see the module docstring)
_SCALAR_BLOCK = 16


def _operator_cap(size, e):
    """Refuse an operator of dimension `size` over F_(p^e), or its Galois
    ring, before it is built: the hypersurface assembly, Warshall and
    Hessenberg cost O(size^3) digit-plane work, and each plane product
    takes e^2 plane pairs, so e^2 size^3 is bounded.  `modp -B 2` on a
    dense f near the cap takes 0.8 s over F_3 (dimension 595) and 1.3 s
    over F_4 (351) and F_16 (231); at dimension 561 F_16 took 25 s.  A
    univariate operator has dimension deg f."""
    if e * e * size ** 3 > _MAX_OPERATOR ** 3:
        raise SizeLimit("operator dimension %d exceeds the cap %d"
                        % (size, _iroot(_MAX_OPERATOR ** 3 // (e * e), 3)))


class SquareMatrix:
    __slots__ = ("ctx", "n", "planes")

    def __init__(self, ctx, n, planes):
        self.ctx = ctx
        self.n = n
        self.planes = planes

    @classmethod
    def zeros(cls, ctx, n):
        dt = np.int64 if ctx._dtype_ok(n) else object
        return cls(ctx, n, np.zeros((ctx.e, n, n), dtype=dt))

    @classmethod
    def identity(cls, ctx, n):
        M = cls.zeros(ctx, n)
        M.planes[0] += np.eye(n, dtype=M.planes.dtype)
        return M

    @classmethod
    def from_columns(cls, ctx, cols):
        n = len(cols)
        planes = ctx._to_planes(cols, n).reshape(ctx.e, n, n)
        return cls(ctx, n, planes.transpose(0, 2, 1).copy())

    def to_rows(self):
        return self.ctx._from_planes(self.planes).tolist()

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix) and self.ctx == other.ctx
                and self.n == other.n
                and np.array_equal(self.planes, other.planes))

    def __sub__(self, other):
        return SquareMatrix(self.ctx, self.n,
                            (self.planes - other.planes) % self.ctx.pm)

    def __matmul__(self, other):
        return SquareMatrix(self.ctx, self.n, self.ctx._mul_planes(
            np.matmul, self.planes, other.planes))

    def __repr__(self):
        return "SquareMatrix(%r, %s)" % (self.ctx, self.to_rows())


def charpoly_reverse(M, B=None):
    """Coefficients c_0..c_n of det(I - M*T), c_0 = 1, or with B only
    c_0..c_min(B, n), as the product of det(I - M_bb*T) over the diagonal
    blocks of M, one block per strongly connected component of its
    support, multiplied with the plane product.  Each block runs the
    scalar or the plane Hessenberg kernel, by its size and the context;
    a block whose charpoly is 1, such as a transient node, drops out.  A
    short truncation reads traces instead (see the module docstring)."""
    ctx = M.ctx
    n = M.n
    if B is not None:
        if B < 0:
            raise ValueError("truncation order must be >= 0")
        if B < n and (B + 1) // 2 - 1 <= _MAX_TRACE_PRODUCTS:
            # precision m + v_p(B!), by Legendre's formula
            ring = make_galois_ring(ctx.field, ctx.m + sum(
                B // ctx.p ** i for i in range(1, B.bit_length() + 1)))
            if ring._dtype_ok(n):
                return _charpoly_traces(M, ring, B)
    planes = M.planes
    label = _components((planes != 0).any(axis=0))
    sizes = np.bincount(label, minlength=n)
    chi = None
    for root in np.flatnonzero(sizes):
        block = np.flatnonzero(label == root)
        H = planes[:, block[:, None], block]
        if len(block) == 1 or (len(block) <= _SCALAR_BLOCK
                               and ctx._cheap_scalars):
            part = _charpoly_scalar(ctx, ctx._from_planes(H).tolist())
            if not any(part[1:]):
                continue                # a transient node, or nilpotent
            part = ctx._to_planes(part, n)
        else:
            part = _charpoly_hessenberg(ctx, H)
        chi = part if chi is None else ctx._mul_planes(np.convolve, chi, part)
    out = [1] if chi is None else _coefficients(ctx, chi)
    out += [0] * (n + 1 - len(out))
    if out[0] != 1:
        raise InvariantViolation("det(I - M*T) has constant term %d"
                                 % out[0])
    return out if B is None else out[:B + 1]


def _charpoly_traces(M, ring, B):
    """c_0..c_B of det(I - M*T), 0 <= B < n, by Newton's identities over
    `ring`, M's ring lifted to precision N = m + v_p(B!).  Step k divides
    by k = p^v u: digitwise by p^v, which must divide every digit, and by
    u through its inverse mod p^N."""
    pN = ring.pm
    h = (B + 1) // 2
    power = [None, M.planes]
    for _ in range(h - 1):
        power.append(ring._mul_planes(np.matmul, power[-1], M.planes))
    tr = np.zeros((ring.e, B + 1), dtype=np.int64)
    for k in range(1, B + 1):
        if k <= h:
            tr[:, k] = power[k].trace(axis1=1, axis2=2)
        else:
            rows = ring._mul_planes(np.multiply, power[h],
                                    power[k - h].transpose(0, 2, 1))
            tr[:, k] = (rows.sum(axis=2) % pN).sum(axis=1)
    tr %= pN
    c = np.zeros((ring.e, B + 1), dtype=np.int64)
    c[0, 0] = 1
    for k in range(1, B + 1):
        # k c_k = -(c_{k-1} tr(M) + ... + c_0 tr(M^k))
        s = -ring._mul_planes(np.matmul, c[:, None, k - 1::-1],
                              tr[:, 1:k + 1])[:, 0] % pN
        pv = math.gcd(k, ring.p ** k.bit_length())         # p^v_p(k)
        if (s % pv).any():
            raise InvariantViolation("the Newton sum of step %d is not "
                                     "divisible by %d" % (k, pv))
        c[:, k] = s // pv * pow(k // pv, -1, pN) % pN
    return _coefficients(M.ctx, c % M.ctx.pm)


def _components(support):
    """A label per node of the directed graph with boolean adjacency
    matrix `support`, equal for two nodes exactly when they lie in one
    strongly connected component: the least node of the component.  The
    reachability matrix comes from Warshall's algorithm on boolean arrays,
    which, unlike a float matrix product, calls no BLAS and so starts no
    threads."""
    n = len(support)
    reach = support | np.eye(n, dtype=bool)
    for k in range(n):
        # paths through nodes < k, then through node k as well
        reach |= reach[:, k, None] & reach[k]
    mutual = reach & reach.T
    return mutual.argmax(axis=1) if n else np.zeros(0, dtype=np.intp)


def _coefficients(ctx, chi):
    return [int(v) for v in ctx._from_planes(chi)]


def _charpoly_hessenberg(ctx, H):
    """The (L, k+1) planes of det(I - H*T) for the (L, k, k) planes H,
    which it overwrites: a Hessenberg reduction, then the Hessenberg
    recurrence for det(xI - H), reversed.

    Column k pivots on the entry of least p-adic valuation v below the
    diagonal and clears the rest with c = (entries / p^v) * unit^-1, which
    is exact in a chain ring; the similarity is a permutation and a
    unit-triangular matrix, so no precision is lost over Z/p^m either."""
    n = H.shape[1]
    mod = ctx.pm
    for k in range(n - 2):
        # the valuation of an entry, capped at m, is the number of s <= m
        # with every digit divisible by p^s
        val = np.zeros(n - k - 1, dtype=np.int64)
        for s in range(1, ctx.m + 1):
            val += (H[:, k + 1:, k] % ctx.p ** s == 0).all(axis=0)
        r = k + 1 + int(np.argmin(val))
        v = int(val[r - k - 1])
        if v == ctx.m:
            continue                    # the column is zero below h_kk
        if r != k + 1:
            H[:, [k + 1, r]] = H[:, [r, k + 1]]
            H[:, :, [k + 1, r]] = H[:, :, [r, k + 1]]
        unit = int(ctx._from_planes(H[:, k + 1, k] // ctx.p ** v))
        c = ctx._mul_planes(np.multiply, H[:, k + 2:, k] // ctx.p ** v,
                            ctx._to_planes(ctx.inv(unit), n))
        # rows j > k+1 lose c_j times row k+1; column k+1 gains the
        # columns j > k+1 weighted by c_j
        H[:, k + 2:, k:] = (H[:, k + 2:, k:] - ctx._mul_planes(
            np.multiply, c[:, :, None], H[:, k + 1:k + 2, k:])) % mod
        H[:, :, k + 1] = (H[:, :, k + 1] + ctx._mul_planes(
            np.matmul, H[:, :, k + 2:], c[:, :, None])[:, :, 0]) % mod
    # chi_k = det(xI - H[:k, :k]) = x chi_{k-1}
    #   - sum_{i<k} h_{i,k-1} h_{i+1,i} ... h_{k-1,k-2} chi_i;
    # at step k row i of Y holds chi_i times that product of subdiagonal
    # entries, which is empty for i = k-1
    Y = np.zeros((ctx.e, n + 1, n + 1), dtype=H.dtype)
    Y[0, 0, 0] = 1
    chi = Y[:, 0].copy()
    for k in range(1, n + 1):
        tot = ctx._mul_planes(np.matmul, H[:, None, :k, k - 1],
                              Y[:, :k, :k])[:, 0]
        chi = np.roll(chi, 1, axis=1)   # x chi_{k-1}, of degree k <= n
        chi[:, :k] = (chi[:, :k] - tot) % mod
        if k < n:
            Y[:, :k, :k] = ctx._mul_planes(np.multiply, Y[:, :k, :k],
                                           H[:, k, k - 1, None, None])
            Y[:, k] = chi
    return chi[:, ::-1]


def _eliminate(ctx, row, c, pivot, start):
    """row[j] -= c * pivot[j] for j >= start, in place: one integer
    operation an entry when e = 1, else the context's ops on the nonzeros
    of pivot."""
    if ctx.e == 1:
        pm = ctx.pm
        row[start:] = [(v - c * w) % pm
                       for v, w in zip(row[start:], pivot[start:])]
    else:
        sub, mul = ctx.sub, ctx.mul
        row[start:] = [sub(v, mul(c, w)) if w else v
                       for v, w in zip(row[start:], pivot[start:])]


def _charpoly_scalar(ctx, H):
    """c_0..c_k of det(I - H*T) for the k x k rows of codes H, which it
    overwrites: the reduction and recurrence of _charpoly_hessenberg on
    scalars, skipping zeros.  The p^v of an entry is the gcd of p^m and
    its digits, so over a field the pivot is the first nonzero entry, and
    a zero column has p^v = p^m."""
    n = len(H)
    e, pm = ctx.e, ctx.pm
    mul, add, sub = ctx.mul, ctx.add, ctx.sub
    for k in range(n - 2):
        col = [row[k] for row in H[k + 1:]]
        pv = [math.gcd(pm, a) if e == 1 else
              math.gcd(pm, *ctx.coeffs(a)) if a else pm for a in col]
        v = min(pv)
        if v == pm:
            continue                    # the column is zero below h_kk
        r = pv.index(v)
        if v > 1:
            col = [ctx.encode([d // v for d in ctx.coeffs(a)]) for a in col]
        if r:
            H[k + 1], H[k + 1 + r] = H[k + 1 + r], H[k + 1]
            for row in H:
                row[k + 1], row[k + 1 + r] = row[k + 1 + r], row[k + 1]
            col[0], col[r] = col[r], col[0]
        # rows j > k+1 lose c_j = (h_jk / p^v) / (h_(k+1)k / p^v) times
        # row k+1; column k+1 gains the columns j > k+1 weighted by c_j
        inv = ctx.inv(col[0])
        cs = [mul(a, inv) for a in col[1:]]
        for j, c in enumerate(cs, k + 2):
            if c:
                _eliminate(ctx, H[j], c, H[k + 1], k)
        if not any(cs):
            continue
        if e == 1:
            for row in H:
                row[k + 1] = (row[k + 1] + sum(map(
                    operator.mul, cs, row[k + 2:]))) % pm
        else:
            nz = [(j, c) for j, c in enumerate(cs, k + 2) if c]
            for row in H:
                acc = row[k + 1]
                for j, c in nz:
                    if row[j]:
                        acc = add(acc, mul(c, row[j]))
                row[k + 1] = acc
    # chi_k = det(xI - H[:k, :k]) = x chi_{k-1} - sum_{i<k} w_i chi_i,
    # w_i = h_{i,k-1} h_{i+1,i} ... h_{k-1,k-2}, zero below the first zero
    # subdiagonal entry; Y[d] holds the x^d coefficients of chi_d, chi_{d+1}..
    Y = [[1]]
    for k in range(1, n + 1):
        w = [0] * k
        t = 1
        for i in range(k - 1, -1, -1):
            w[i] = t * H[i][k - 1] % pm if e == 1 else mul(t, H[i][k - 1])
            if i == 0:
                break
            t = t * H[i][i - 1] % pm if e == 1 else mul(t, H[i][i - 1])
            if not t:
                break
        top = max((i for i in range(k) if w[i]), default=-1)
        chi = [0] + [y[-1] for y in Y]  # x chi_{k-1}
        for d in range(top + 1):
            if e == 1:
                chi[d] = (chi[d] - sum(map(operator.mul, w[d:top + 1],
                                           Y[d]))) % pm
            else:
                chi[d] = sub(chi[d], functools.reduce(
                    add, map(mul, w[d:top + 1], Y[d]), 0))
        for y, c in zip(Y, chi):
            y.append(c)
        Y.append([1])
    return [y[-1] for y in reversed(Y)]


def _stack_ranks(ctx, A):
    """The rank of every matrix of the (L, k, n, n) plane stack A over a
    field, by one forward elimination of all k at once, which
    overwrites the stack.  Column by column each matrix swaps its first row
    at or below its rank with a nonzero entry there up to its rank, and the
    rows below lose multiples of it on the trailing columns, through one
    elementwise plane product; a matrix with no such row keeps its rank."""
    if ctx.m != 1:
        raise RingNotField("ranks need field coefficients")
    k, n = A.shape[1:3]
    rank = np.zeros(k, dtype=np.intp)
    mats = np.arange(k)
    rows = np.arange(n)
    for col in range(n):
        top = int(rank.min())
        # the rows of A[:, :, top:] below each matrix's rank, nonzero at col
        live = (A[:, :, top:, col] != 0).any(axis=0) \
            & (rows[top:] >= rank[:, None])
        has = live.any(axis=1)
        r = np.minimum(rank, n - 1)     # the pivot row, where there is one
        rank += has
        if col == n - 1 or not has.any():
            continue                    # no trailing columns, or no pivot
        sel = np.where(has, top + live.argmax(axis=1), r)
        A[:, mats, r], A[:, mats, sel] = A[:, mats, sel], A[:, mats, r]
        pivot = ctx._from_planes(A[:, mats, r, col]).tolist()
        inv = [ctx.inv(a) if h else 0 for a, h in zip(pivot, has.tolist())]
        # the multipliers of the rows below the pivot, zero elsewhere
        below = A[:, :, top:, col] * (rows[top:] > r[:, None])
        c = ctx._mul_planes(np.multiply, below,
                            ctx._to_planes(inv, 1)[:, :, None])
        A[:, :, top:, col + 1:] = (A[:, :, top:, col + 1:] - ctx._mul_planes(
            np.multiply, c[:, :, :, None],
            A[:, mats, r, None, col + 1:])) % ctx.pm
    return rank


def kernel_basis(M):
    """Basis of ker(M) over a field, from the reduced row echelon form by
    Gauss-Jordan elimination; vectors are ordered by their free column."""
    ctx = M.ctx
    if ctx.m != 1:
        raise RingNotField("kernels need field coefficients")
    n = M.n
    rows = M.to_rows()
    pivots = []
    r = 0
    for col in range(n):
        for sel in range(r, n):
            if rows[sel][col]:
                break
        else:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = ctx.inv(rows[r][col])
        rows[r] = [ctx.mul(v, inv) for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                _eliminate(ctx, rows[i], rows[i][col], rows[r], col)
        pivots.append(col)
        r += 1
        if r == n:
            break
    pivot_set = set(pivots)
    basis = []
    for col in range(n):
        if col in pivot_set:
            continue
        v = [0] * n
        v[col] = 1
        for rr, pc in enumerate(pivots):
            v[pc] = ctx.neg(rows[rr][col])
        basis.append(v)
    return basis
