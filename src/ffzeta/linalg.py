"""Exact linear algebra over field and Galois ring contexts.

A SquareMatrix stores its entries as numpy "planes": an (L, n, n) int64
array whose slice c holds the degree-c digits of every entry, reduced mod p
(fields) or mod p^m (rings).  Products then run as integer matrix products
per plane pair followed by a reduction of the high planes through the
context's modulus, which keeps the heavy loops inside numpy while staying
exact.  When a product or its reduction could exceed int64 for the
matrix size, the planes hold Python integers instead.

charpoly_reverse uses the Berkowitz vector recurrence, which needs no
divisions and is therefore valid over rings with zero divisors; it returns
det(I - M*T) directly.  Kernels and inverses require a field.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation, RingNotField, SingularMatrix


def _dtype_ok(ctx, n):
    """Whether int64 planes are exact for n x n matrices.  A plane of a
    product sums at most L*n products of digits below mod, and _fold adds
    to it up to L-1 high planes times reduction-row entries below mod."""
    L = ctx.digits
    mod = ctx.char_mod
    high = L * max(n, 1) * (mod - 1) ** 2
    return high * (1 + (L - 1) * (mod - 1)) < 2 ** 62


def _to_planes(ctx, codes, n):
    base = ctx.base
    arr = np.asarray(codes, dtype=np.int64 if _dtype_ok(ctx, n) else object)
    planes = np.stack([(arr // base ** c) % base for c in range(ctx.digits)])
    return planes


def _from_planes(ctx, planes):
    base = ctx.base
    acc = np.zeros_like(planes[0])
    for c in range(ctx.digits - 1, -1, -1):
        acc = acc * base + planes[c]
    return acc


def _fold(ctx, conv):
    """Reduce a (2L-1, ...) plane stack through the modulus to (L, ...)."""
    L = ctx.digits
    mod = ctx.char_mod
    if L == 1:
        return conv % mod
    out = conv[:L].copy()
    for j in range(conv.shape[0] - 1, L - 1, -1):
        row = ctx.reduction[j - L]
        top = conv[j]
        for i in range(L):
            if row[i]:
                out[i] = out[i] + row[i] * top
    return out % mod


def _mul_planes(ctx, A, B):
    """Plane product; works for matrix @ matrix and matrix @ vector."""
    L = ctx.digits
    conv = [None] * (2 * L - 1)
    for c1 in range(L):
        for c2 in range(L):
            prod = A[c1] @ B[c2]
            c = c1 + c2
            conv[c] = prod if conv[c] is None else conv[c] + prod
    return _fold(ctx, np.stack(conv))


class SquareMatrix:
    __slots__ = ("ctx", "n", "planes")

    def __init__(self, ctx, n, planes):
        self.ctx = ctx
        self.n = n
        self.planes = planes

    @classmethod
    def zeros(cls, ctx, n):
        dt = np.int64 if _dtype_ok(ctx, n) else object
        return cls(ctx, n, np.zeros((ctx.digits, n, n), dtype=dt))

    @classmethod
    def identity(cls, ctx, n):
        M = cls.zeros(ctx, n)
        M.planes[0] += np.eye(n, dtype=M.planes.dtype)
        return M

    @classmethod
    def from_rows(cls, ctx, rows):
        n = len(rows)
        return cls(ctx, n, _to_planes(ctx, np.array(rows).reshape(n, n), n))

    @classmethod
    def from_columns(cls, ctx, cols):
        n = len(cols)
        codes = np.array(cols).T.reshape(n, n)
        return cls(ctx, n, _to_planes(ctx, codes, n))

    def entry(self, i, j):
        return int(_from_planes(self.ctx, self.planes[:, i, j]))

    def to_rows(self):
        return _from_planes(self.ctx, self.planes).tolist()

    def copy(self):
        return SquareMatrix(self.ctx, self.n, self.planes.copy())

    def __eq__(self, other):
        return (isinstance(other, SquareMatrix) and self.ctx == other.ctx
                and self.n == other.n
                and np.array_equal(self.planes, other.planes))

    def __add__(self, other):
        return SquareMatrix(self.ctx, self.n,
                            (self.planes + other.planes) % self.ctx.char_mod)

    def __sub__(self, other):
        return SquareMatrix(self.ctx, self.n,
                            (self.planes - other.planes) % self.ctx.char_mod)

    def __matmul__(self, other):
        return SquareMatrix(self.ctx, self.n,
                            _mul_planes(self.ctx, self.planes, other.planes))

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

    def reduce_mod_p(self):
        """Entrywise reduction of a ring matrix to the residue field."""
        ctx = self.ctx
        if ctx.m == 1:
            return self.copy()
        return SquareMatrix(ctx.field, self.n, self.planes % ctx.p)

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
    mod = ctx.char_mod
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
            dot = _mul_planes(ctx, R.reshape(L, 1, k), w.reshape(L, k, 1))
            q[:, i + 2] = (-dot.reshape(L)) % mod
            if i < k - 1:
                w = _mul_planes(ctx, Asub, w.reshape(L, k, 1)).reshape(L, k)
        conv = [None] * (2 * L - 1)
        for c1 in range(L):
            for c2 in range(L):
                prod = np.convolve(q[c1], cur[c2])
                c = c1 + c2
                conv[c] = prod if conv[c] is None else conv[c] + prod
        cur = _fold(ctx, np.stack(conv))[:, :k + 2]
    out = [int(v) for v in _from_planes(ctx, cur)]
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

