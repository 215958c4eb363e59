import random
from itertools import permutations

import numpy as np
import pytest

from conftest import field
from ffzeta import (SingularMatrix, SquareMatrix, charpoly_reverse, fq,
                    kernel_basis, make_field, make_galois_ring)
from ffzeta.linalg import invert


def rand_matrix(ctx, rng, n):
    return SquareMatrix.from_rows(
        ctx, [[rng.randrange(ctx.size) for _ in range(n)] for _ in range(n)])


def matmul_scalar(ctx, A, B):
    """Row-list product through ctx.add and ctx.mul only."""
    n = len(A)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = ctx.add(out[i][j], ctx.mul(A[i][k], B[k][j]))
    return out


def det_one_minus_mt_leibniz(ctx, M):
    """Sign-expanded determinant of I - M*T over ctx[T]; O(n!) reference."""
    n = M.n
    entries = [[[(1 if i == j else 0), ctx.neg(M.entry(i, j))]
                for j in range(n)] for i in range(n)]
    out = [0] * (n + 1)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        prod = [1]
        for i in range(n):
            a, b = entries[i][perm[i]]
            nxt = [0] * (len(prod) + 1)
            for k, c in enumerate(prod):
                nxt[k] = ctx.add(nxt[k], ctx.mul(c, a))
                nxt[k + 1] = ctx.add(nxt[k + 1], ctx.mul(c, b))
            prod = nxt
        for k, c in enumerate(prod):
            v = ctx.neg(c) if inversions % 2 else c
            out[k] = ctx.add(out[k], v)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_charpoly_reverse_matches_leibniz(q):
    ctx = field(q)
    rng = random.Random(q)
    for n in range(1, 6):
        for _ in range(8):
            M = rand_matrix(ctx, rng, n)
            got = charpoly_reverse(M)
            want = det_one_minus_mt_leibniz(ctx, M)
            want += [0] * (len(got) - len(want))
            assert got == want


def test_charpoly_reverse_over_ring_matches_leibniz():
    ring = make_galois_ring(field(2), 3)
    rng = random.Random(8)
    for n in (2, 3, 4):
        for _ in range(6):
            M = rand_matrix(ring, rng, n)
            got = charpoly_reverse(M)
            want = det_one_minus_mt_leibniz(ring, M)
            want += [0] * (len(got) - len(want))
            assert got == want


def test_matmul_reduction_past_int64_matches_scalar_ring():
    # the plane products fit int64 here, but their reduction through the
    # modulus did not, and every entry of A @ A came out wrong
    ring = make_galois_ring(make_field(101, 2), 4)
    rng = random.Random(0)
    rows = [[rng.randrange(ring.size) for _ in range(6)] for _ in range(6)]
    A = SquareMatrix.from_rows(ring, rows)
    assert (A @ A).to_rows() == matmul_scalar(ring, rows, rows)


@pytest.mark.parametrize("p,e,m", [
    (101, 2, 4),          # p^m about 10^8
    (46337, 2, 2),        # p^m just below 2^31
    (2147483647, 1, 1),   # the field F_p, p = 2^31 - 1
    (2, 6, 8),            # e = 6: five high planes fold back
    (7, 3, 5),
])
def test_matmul_and_charpoly_match_scalar_ring(p, e, m):
    ring = make_galois_ring(make_field(p, e), m)
    rng = random.Random(p + e + m)
    top = [[ring.size - 1] * 6 for _ in range(6)]  # every digit maximal
    assert SquareMatrix.from_rows(ring, top).pow(2).to_rows() == \
        matmul_scalar(ring, top, top)
    for n in (2, 5):
        A = rand_matrix(ring, rng, n)
        B = rand_matrix(ring, rng, n)
        assert (A @ B).to_rows() == \
            matmul_scalar(ring, A.to_rows(), B.to_rows())
    for n in (3, 4):
        M = rand_matrix(ring, rng, n)
        got = charpoly_reverse(M)
        want = det_one_minus_mt_leibniz(ring, M)
        assert got == want + [0] * (len(got) - len(want))
    # the elementwise plane product the table builders use
    xs = np.array([rng.randrange(ring.size) for _ in range(7)] + [top[0][0]])
    ys = np.array([rng.randrange(ring.size) for _ in range(5)] + [top[0][0]])
    assert fq._digit_product(ring, xs, ys).tolist() == \
        [[ring.mul(int(x), int(y)) for y in ys] for x in xs]


def test_charpoly_constant_coefficient_is_one():
    for ctx in (field(3), make_galois_ring(field(2), 2)):
        rng = random.Random(13)
        for _ in range(20):
            M = rand_matrix(ctx, rng, 4)
            assert charpoly_reverse(M)[0] == 1


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 2)])
def test_charpoly_reduction_compatibility(q, m):
    ctx = field(q)
    ring = make_galois_ring(ctx, m)
    rng = random.Random(10 * q + m)
    for n in (2, 4, 5):
        M = rand_matrix(ring, rng, n)
        over_ring = [ring.to_field(c) for c in charpoly_reverse(M)]
        over_field = charpoly_reverse(SquareMatrix.from_rows(
            ctx, [[ring.to_field(c) for c in row] for row in M.to_rows()]))
        assert over_ring == over_field


@pytest.mark.parametrize("q", [2, 5, 9])
def test_charpoly_similarity_invariance(q):
    ctx = field(q)
    rng = random.Random(q + 70)
    for n in (3, 5):
        M = rand_matrix(ctx, rng, n)
        while True:
            P = rand_matrix(ctx, rng, n)
            if not kernel_basis(P):
                break
        conj = invert(P) @ M @ P
        assert charpoly_reverse(conj) == charpoly_reverse(M)


@pytest.mark.parametrize("q", [2, 3, 9])
def test_kernel_vectors_and_rank(q):
    ctx = field(q)
    rng = random.Random(q + 1)
    for n in (3, 5, 6):
        for _ in range(10):
            M = rand_matrix(ctx, rng, n)
            ker = kernel_basis(M)
            zero = [0] * n
            rows = M.to_rows()
            for v in ker:
                image = [0] * n
                for i in range(n):
                    acc = 0
                    for j in range(n):
                        acc = ctx.add(acc, ctx.mul(rows[i][j], v[j]))
                    image[i] = acc
                assert image == zero
            assert len(ker) == n - _rank_reference(ctx, M)


def _rank_reference(ctx, M):
    """Row-reduction rank, written independently of the library kernels."""
    rows = [list(r) for r in M.to_rows()]
    n = M.n
    rank = 0
    col = 0
    while col < n and rank < n:
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ctx.inv(rows[rank][col])
        rows[rank] = [ctx.mul(inv, c) for c in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                lam = rows[r][col]
                rows[r] = [ctx.sub(a, ctx.mul(lam, b))
                           for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_kernel_basis_deterministic_and_echelon():
    ctx = field(2)
    M = SquareMatrix.from_rows(ctx, [[1, 1, 0], [0, 0, 0], [1, 1, 0]])
    ker = kernel_basis(M)
    assert ker == kernel_basis(M)
    assert len(ker) == 2


def test_mat_pow_homomorphism():
    ctx = field(4)
    rng = random.Random(44)
    M = rand_matrix(ctx, rng, 4)
    for i in range(4):
        for j in range(4):
            assert M.pow(i + j) == M.pow(i) @ M.pow(j)
    assert M.pow(0) == SquareMatrix.identity(ctx, 4)


def test_invert_round_trip_and_singular():
    ctx = field(5)
    rng = random.Random(55)
    ident = SquareMatrix.identity(ctx, 4)
    for _ in range(10):
        while True:
            P = rand_matrix(ctx, rng, 4)
            if not kernel_basis(P):
                break
        assert invert(P) @ P == ident
        assert P @ invert(P) == ident
    singular = SquareMatrix.from_rows(ctx, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        invert(singular)
