"""Exact linear algebra over field and Galois ring contexts.

A SquareMatrix stores its entries as the context's digit planes, an
(L, n, n) array (see `fq`); a matrix product is the context's plane
product with np.matmul.

charpoly_reverse uses the Berkowitz vector recurrence, which needs no
divisions and is therefore valid over rings with zero divisors; it returns
det(I - M*T) directly.  Kernels and inverses require a field.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation, RingNotField, SingularMatrix


class SquareMatrix:
    __slots__ = ("ctx", "n", "planes")

    def __init__(self, ctx, n, planes):
        self.ctx = ctx
        self.n = n
        self.planes = planes

    @classmethod
    def zeros(cls, ctx, n):
        dt = np.int64 if ctx._dtype_ok(n) else object
        return cls(ctx, n, np.zeros((ctx.digits, n, n), dtype=dt))

    @classmethod
    def identity(cls, ctx, n):
        M = cls.zeros(ctx, n)
        M.planes[0] += np.eye(n, dtype=M.planes.dtype)
        return M

    @classmethod
    def from_rows(cls, ctx, rows):
        n = len(rows)
        return cls(ctx, n, ctx._to_planes(np.array(rows).reshape(n, n), n))

    @classmethod
    def from_columns(cls, ctx, cols):
        n = len(cols)
        codes = np.array(cols).T.reshape(n, n)
        return cls(ctx, n, ctx._to_planes(codes, n))

    def entry(self, i, j):
        return int(self.ctx._from_planes(self.planes[:, i, j]))

    def to_rows(self):
        return self.ctx._from_planes(self.planes).tolist()

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix) and self.ctx == other.ctx
                and self.n == other.n
                and np.array_equal(self.planes, other.planes))

    def __add__(self, other):
        return SquareMatrix(self.ctx, self.n,
                            (self.planes + other.planes) % self.ctx.pm)

    def __sub__(self, other):
        return SquareMatrix(self.ctx, self.n,
                            (self.planes - other.planes) % self.ctx.pm)

    def __matmul__(self, other):
        return SquareMatrix(self.ctx, self.n, self.ctx._mul_planes(
            np.matmul, self.planes, other.planes))

    def pow(self, j):
        if j < 0:
            raise ValueError("negative matrix power")
        out = SquareMatrix.identity(self.ctx, self.n)
        base = self
        while j:
            if j & 1:
                out = out @ base
            base = base @ base if j > 1 else base
            j >>= 1
        return out

    def __repr__(self):
        return "SquareMatrix(%r, %s)" % (self.ctx, self.to_rows())


def charpoly_reverse(M):
    """Coefficients c_0..c_n of det(I - M*T), c_0 = 1, by the Berkowitz
    recurrence (division-free, so valid over Z/p^m contexts too)."""
    ctx = M.ctx
    n = M.n
    if n == 0:
        return [1]
    A = M.planes
    L = ctx.digits
    mod = ctx.pm
    dt = A.dtype
    cur = np.zeros((L, 2), dtype=dt)
    cur[0, 0] = 1
    cur[:, 1] = (-A[:, 0, 0]) % mod
    for k in range(1, n):
        a = A[:, k, k]
        R = A[:, k, :k]
        C = A[:, :k, k]
        Asub = A[:, :k, :k]
        q = np.zeros((L, k + 2), dtype=dt)
        q[0, 0] = 1
        q[:, 1] = (-a) % mod
        w = C
        for i in range(k):
            dot = ctx._mul_planes(np.matmul, R.reshape(L, 1, k),
                                  w.reshape(L, k, 1))
            q[:, i + 2] = (-dot.reshape(L)) % mod
            if i < k - 1:
                w = ctx._mul_planes(np.matmul, Asub,
                                    w.reshape(L, k, 1)).reshape(L, k)
        cur = ctx._mul_planes(np.convolve, q, cur)[:, :k + 2]
    out = [int(v) for v in ctx._from_planes(cur)]
    if out[0] != 1:
        raise InvariantViolation("det(I - M*T) has constant term %d"
                                 % out[0])
    return out


def _reduce_rows(ctx, rows, ncols):
    """Gauss-Jordan over a field: bring the first ncols columns of the row
    lists to reduced row echelon form in place; returns the pivot
    columns, one per leading row."""
    n = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
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
                c = rows[i][col]
                rows[i] = [ctx.sub(v, ctx.mul(c, w))
                           for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    return pivots


def kernel_basis(M):
    """Basis of ker(M) over a field, from the reduced row echelon form;
    vectors are ordered by their free column."""
    ctx = M.ctx
    if ctx.m != 1:
        raise RingNotField("kernels need field coefficients")
    n = M.n
    rows = M.to_rows()
    pivots = _reduce_rows(ctx, rows, n)
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


def invert(M):
    """Inverse of a matrix over a field; raises SingularMatrix."""
    ctx = M.ctx
    if ctx.m != 1:
        raise RingNotField("inversion implemented over fields only")
    n = M.n
    rows = [list(r) + [1 if i == j else 0 for j in range(n)]
            for i, r in enumerate(M.to_rows())]
    if len(_reduce_rows(ctx, rows, n)) < n:
        raise SingularMatrix("matrix is singular")
    return SquareMatrix.from_rows(ctx, [row[n:] for row in rows])

