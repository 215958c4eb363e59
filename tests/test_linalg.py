import bisect
import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (CHARPOLY_CONTEXTS, count_calls, field,
                      matrix_from_rows)
from ffzeta import (RingNotField, SquareMatrix, charpoly_reverse, fq,
                    kernel_basis, linalg, make_field, make_galois_ring)


def rand_matrix(ctx, rng, n):
    return matrix_from_rows(
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


def charpoly_berkowitz(M):
    """det(I - M*T) by the division-free Berkowitz vector recurrence on
    the digit planes, O(n^4); the reference the Hessenberg charpoly is
    checked against."""
    ctx = M.ctx
    n = M.n
    if n == 0:
        return [1]
    A = M.planes
    L = ctx.e
    mod = ctx.pm
    cur = np.zeros((L, 2), dtype=A.dtype)
    cur[0, 0] = 1
    cur[:, 1] = (-A[:, 0, 0]) % mod
    for k in range(1, n):
        R = A[:, k, :k]
        Asub = A[:, :k, :k]
        q = np.zeros((L, k + 2), dtype=A.dtype)
        q[0, 0] = 1
        q[:, 1] = (-A[:, k, k]) % mod
        w = A[:, :k, k]
        for i in range(k):
            dot = ctx._mul_planes(np.matmul, R.reshape(L, 1, k),
                                  w.reshape(L, k, 1))
            q[:, i + 2] = (-dot.reshape(L)) % mod
            if i < k - 1:
                w = ctx._mul_planes(np.matmul, Asub,
                                    w.reshape(L, k, 1)).reshape(L, k)
        cur = ctx._mul_planes(np.convolve, q, cur)[:, :k + 2]
    return [int(v) for v in ctx._from_planes(cur)]


def det_one_minus_mt_leibniz(ctx, M):
    """Sign-expanded determinant of I - M*T over ctx[T]; O(n!) reference."""
    n = M.n
    rows = M.to_rows()
    entries = [[[(1 if i == j else 0), ctx.neg(rows[i][j])]
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


MATRIX_KINDS = ["random", "zero", "identity", "nilpotent", "p-multiple",
                "mixed-valuation", "block-triangular", "hessenberg",
                "many-blocks"]


def structured_rows(ctx, rng, n, kind):
    """Rows of an n x n matrix over ctx of the given kind."""
    rows = [[rng.randrange(ctx.size) for _ in range(n)] for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    if kind == "identity":
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "nilpotent":
        # strictly upper triangular, conjugated by a permutation
        return [[rows[i][j] if perm[i] < perm[j] else 0 for j in range(n)]
                for i in range(n)]
    if kind == "p-multiple":
        return [[ctx.mul(ctx.p % ctx.pm, c) for c in row] for row in rows]
    if kind == "mixed-valuation":
        return [[ctx.mul(pow(ctx.p, rng.randrange(ctx.m + 1), ctx.pm), c)
                 for c in row] for row in rows]
    if kind == "block-triangular":
        # block upper triangular at a random cut, permuted
        cut = rng.randrange(n + 1)
        return [[rows[i][j] if perm[i] >= cut or perm[j] < cut else 0
                 for j in range(n)] for i in range(n)]
    if kind == "many-blocks":
        # 3 to 6 sparse diagonal blocks at random cuts, block upper
        # triangular, permuted; a one-node block is transient or live as
        # its diagonal entry is zero or not
        k = min(n, rng.randint(3, 6))
        cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
        block = [bisect.bisect_right(cuts, perm[i]) for i in range(n)]
        keep = {True: 0.8, False: 0.3}     # inside a block, above it
        return [[rows[i][j] if block[i] <= block[j]
                 and rng.random() < keep[block[i] == block[j]] else 0
                 for j in range(n)] for i in range(n)]
    if kind == "hessenberg":
        # already zero below the subdiagonal: a column with a zero
        # subdiagonal entry is skipped, the others clear nothing
        return [[c if i <= j + 1 else 0 for j, c in enumerate(row)]
                for i, row in enumerate(rows)]
    return rows


def check_charpoly_against_berkowitz(ctx, rows):
    M = matrix_from_rows(ctx, rows)
    got = charpoly_reverse(M)
    assert got == charpoly_berkowitz(M)
    assert len(got) == M.n + 1
    assert M.to_rows() == rows          # the input is left untouched


def _mutual_reachability(support):
    """Label per node, the least node reachable from it and back, by a
    depth-first search from every node."""
    n = len(support)
    reach = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            i = stack.pop()
            for j in range(n):
                if support[i][j] and j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    return [min(j for j in reach[i] if i in reach[j]) for i in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_components_are_mutual_reachability_classes(seed):
    rng = random.Random(seed)
    for n in range(1, 30):
        density = rng.choice([0.02, 0.05, 0.1, 0.3])
        support = [[rng.random() < density for _ in range(n)]
                   for _ in range(n)]
        got = linalg._components(np.array(support))
        assert got.tolist() == _mutual_reachability(support)


def test_components_of_a_dense_support():
    # a complete block, a path leaving it and a cycle at the path's end
    n = 100
    support = np.zeros((n, n), dtype=bool)
    support[:60, :60] = True
    support[59, 60] = True
    for i in range(60, n - 1):
        support[i, i + 1] = True    # a path leaving the block
    support[n - 1, 70] = True       # and a cycle on its last 30 nodes
    assert linalg._components(support).tolist() == \
        _mutual_reachability(support.tolist())


@pytest.mark.parametrize("p,e,m", [(101, 2, 4), (32749, 1, 2)])
def test_block_product_on_object_planes_matches_berkowitz(p, e, m):
    # the product of the block charpolys runs on Python integers when the
    # matrix's planes do
    ring = make_galois_ring(make_field(p, e), m)
    rng = random.Random(p)
    products = 0
    for n in (6, 8, 10):
        for _ in range(4):
            rows = structured_rows(ring, rng, n, "many-blocks")
            M = matrix_from_rows(ring, rows)
            assert M.planes.dtype == object
            label = linalg._components((M.planes != 0).any(axis=0))
            sizes = np.bincount(label)
            products += np.count_nonzero(sizes > 1) > 1
            check_charpoly_against_berkowitz(ring, rows)
    assert products >= 3        # matrices with two blocks past one node


def test_charpoly_contexts_cover_both_plane_dtypes():
    ring = make_galois_ring(make_field(32749), 2)
    assert SquareMatrix.zeros(ring, 4).planes.dtype == np.int64
    assert SquareMatrix.zeros(ring, 5).planes.dtype == object


@pytest.mark.parametrize("kind", MATRIX_KINDS)
@pytest.mark.parametrize("p,e,m,sizes", CHARPOLY_CONTEXTS)
def test_charpoly_edge_sizes_match_berkowitz(p, e, m, sizes, kind):
    # n = 0, 1, 2 and the context's two largest sizes
    ctx = make_galois_ring(make_field(p, e), m)
    rng = random.Random("%d/%d/%d/%s" % (p, e, m, kind))
    for n in sorted({0, 1, 2, *sizes[-2:]}):
        check_charpoly_against_berkowitz(
            ctx, structured_rows(ctx, rng, n, kind))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CHARPOLY_CONTEXTS), st.sampled_from(MATRIX_KINDS),
       st.data())
def test_charpoly_matches_berkowitz(context, kind, data):
    p, e, m, sizes = context
    ctx = make_galois_ring(make_field(p, e), m)
    n = data.draw(st.sampled_from(sizes))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    check_charpoly_against_berkowitz(ctx, structured_rows(ctx, rng, n, kind))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CHARPOLY_CONTEXTS), st.sampled_from(MATRIX_KINDS),
       st.data())
def test_truncated_charpoly_is_the_prefix_of_the_full_one(context, kind,
                                                          data):
    # B past p makes Newton's identities divide by p; B >= n takes the
    # full path, as do the contexts on Python-integer planes
    p, e, m, sizes = context
    ctx = make_galois_ring(make_field(p, e), m)
    n = data.draw(st.sampled_from(sizes))
    B = data.draw(st.integers(0, n + 2))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    rows = structured_rows(ctx, rng, n, kind)
    M = matrix_from_rows(ctx, rows)
    assert charpoly_reverse(M, B) == charpoly_reverse(M)[:B + 1]
    assert M.to_rows() == rows


@pytest.mark.parametrize("p,e,m,n", [
    *((p, e, m, max(sizes)) for p, e, m, sizes in CHARPOLY_CONTEXTS),
    (2, 1, 28, 8),        # int64 planes mod 2^28, but not mod 2^31
])
def test_truncated_charpoly_takes_traces_only_on_int64(p, e, m, n,
                                                       monkeypatch):
    # the trace path runs for B < n when the ring lifted to precision
    # m + v_p(B!) keeps int64 planes; every other case falls back
    ctx = make_galois_ring(make_field(p, e), m)
    rng = random.Random("%d/%d/%d" % (p, e, m))
    counts = count_calls(monkeypatch, ("_charpoly_traces",))
    for kind in ("random", "zero", "mixed-valuation"):
        M = matrix_from_rows(ctx, structured_rows(ctx, rng, n, kind))
        for B in sorted({0, 1, 4, p, 2 * p, n - 1, n, n + 3}):
            before = counts["_charpoly_traces"]
            assert charpoly_reverse(M, B) == charpoly_reverse(M)[:B + 1]
            v = sum(B // p ** i for i in range(1, B.bit_length() + 1))
            lifted = make_galois_ring(ctx.field, m + v)
            assert (counts["_charpoly_traces"] > before) == \
                (B < n and lifted._dtype_ok(n))
    if M.planes.dtype == object:
        assert counts["_charpoly_traces"] == 0
    with pytest.raises(ValueError):
        charpoly_reverse(M, -1)


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
    A = matrix_from_rows(ring, rows)
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
    T = matrix_from_rows(ring, top)
    assert (T @ T).to_rows() == matmul_scalar(ring, top, top)
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
        over_field = charpoly_reverse(matrix_from_rows(
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
        # M P = P^-1 (P M) P for the invertible P
        assert charpoly_reverse(P @ M) == charpoly_reverse(M @ P)


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


def test_kernel_basis_needs_a_field():
    ring = make_galois_ring(field(2), 2)
    with pytest.raises(RingNotField):
        kernel_basis(SquareMatrix.identity(ring, 2))


def test_kernel_basis_deterministic_and_echelon():
    ctx = field(2)
    M = matrix_from_rows(ctx, [[1, 1, 0], [0, 0, 0], [1, 1, 0]])
    ker = kernel_basis(M)
    assert ker == kernel_basis(M)
    assert len(ker) == 2
