import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, field, monomials_reference, rand_poly_mv
from ffzeta import (CoefficientOutsidePrimeField, EmptyBasis, RingNotField,
                    SizeLimit, StabilityViolation, TruncatedSeries,
                    count_points, hyper, linalg,
                    hyper_matrix_mod_p, hyper_matrix_mod_pm,
                    make_galois_ring, rd_basis, rmd_basis, torus_zeta,
                    zeta_coeffs_exact, zeta_mod_p, zeta_mod_pm)
from ffzeta.poly import SparsePoly, poly_pow


def exact_series_mod(f, B, mod, domain="affine"):
    counts = [count_points(f, k, domain) for k in range(1, B + 1)]
    return [c % mod for c in zeta_coeffs_exact(counts, B)]


def torus_series_reference(n, q, B, mod):
    """exp(sum (q^k-1)^n T^k / k) with exact rationals, then reduced."""
    logd = [Fraction((q ** k - 1) ** n) for k in range(1, B + 1)]
    out = [Fraction(1)] + [Fraction(0)] * B
    for m in range(1, B + 1):
        out[m] = sum(logd[k - 1] * out[m - k]
                     for k in range(1, m + 1)) / m
    ints = []
    for c in out:
        assert c.denominator == 1
        ints.append(int(c) % mod)
    return ints


# -- bases ------------------------------------------------------------------


def test_rd_basis_worked_case():
    basis = rd_basis(2, 3)
    assert basis.dtype == np.int64 and basis.shape == (3, 2)
    assert basis.tolist() == [[1, 1], [2, 1], [1, 2]]
    assert len(basis) == math.comb(3, 2)


def test_bases_match_the_listed_and_sorted_reference():
    # every n <= 6 and every degree bound whose basis passes the cap
    for n in range(1, 7):
        bound = 0
        while math.comb(bound + n, n) <= linalg._MAX_OPERATOR:
            got = rmd_basis(n, bound, 2, 1)
            assert got.dtype == np.int64
            assert got.tolist() == [list(u) for u in
                                    monomials_reference(n, bound)]
            bound += 1
        with pytest.raises(SizeLimit):
            rmd_basis(n, bound, 2, 1)


@pytest.mark.parametrize("n,d", [(1, 4), (2, 5), (3, 6), (2, 2)])
def test_rd_basis_size_and_contents(n, d):
    basis = rd_basis(n, d)
    assert len(basis) == math.comb(d, n)
    for u in basis:
        assert len(u) == n and all(x >= 1 for x in u) and sum(u) <= d


def test_rd_basis_empty_when_degree_small():
    with pytest.raises(EmptyBasis):
        rd_basis(3, 2)


@pytest.mark.parametrize("n,d,p,m", [(1, 2, 2, 2), (2, 2, 2, 2),
                                     (1, 2, 3, 2), (1, 2, 2, 3)])
def test_rmd_basis_size(n, d, p, m):
    basis = rmd_basis(n, d, p, m)
    bound = d * p ** (m - 1)
    assert len(basis) == math.comb(bound + n, n)
    for u in basis:
        assert sum(u) <= bound and all(x >= 0 for x in u)


def test_rd_basis_is_the_shifted_rmd_basis():
    # x^u with every u_i >= 1 is x_1...x_n times a monomial of degree
    # <= d - n, in the same graded-lex order; past the operator cap both
    # are refused
    for n in range(1, 5):
        for d in range(n, 14):
            if math.comb(d, n) > linalg._MAX_OPERATOR:
                for build in (lambda: rd_basis(n, d),
                              lambda: rmd_basis(n, d - n, 2, 1)):
                    with pytest.raises(SizeLimit):
                        build()
                continue
            shifted = rmd_basis(n, d - n, 2, 1) + 1
            assert rd_basis(n, d).tolist() == shifted.tolist()


def test_basis_caps():
    with pytest.raises(SizeLimit):
        rd_basis(7, 9)
    with pytest.raises(SizeLimit):
        rd_basis(4, 60)  # C(60, 4) = 487,635 monomials


def test_operator_dimension_cap_is_checked_before_the_basis(monkeypatch):
    # C(35, 2) = 595 is accepted, C(36, 2) = 630 and the all-monomial
    # basis C(2*18 + 2, 2) = 703 mod 4 are refused before the box of
    # candidate rows is listed
    boxes = []
    indices = np.indices

    def counted(*args, **kwargs):
        boxes.append(args[0])
        return indices(*args, **kwargs)
    monkeypatch.setattr(np, "indices", counted)
    ctx = field(2)
    f = SparsePoly(ctx, 2, {(1, 1): 1, (0, 0): 1})      # x*y + 1
    assert hyper_matrix_mod_p(f, 35).n == 595 <= linalg._MAX_OPERATOR
    assert boxes == [(34, 34)]
    with pytest.raises(SizeLimit, match="dimension 630"):
        hyper_matrix_mod_p(f, 36)
    with pytest.raises(SizeLimit, match="dimension 703"):
        hyper_matrix_mod_pm(f.lift_to(make_galois_ring(ctx, 2)), 18)
    assert boxes == [(34, 34)]


def _per_column_matrix(ctx, power, basis):
    """Rows of the matrix of h -> psi_q(power * h), assembled column by
    column from every term of x^u * power: the reference for the
    assembly by residue class."""
    q = ctx.q
    basis = list(map(tuple, basis.tolist()))
    index = {u: i for i, u in enumerate(basis)}
    rows = [[0] * len(basis) for _ in basis]
    for j, u in enumerate(basis):
        for v, c in power.terms.items():
            w = tuple(a + b for a, b in zip(v, u))
            if not any(x % q for x in w):
                rows[index[tuple(x // q for x in w)]][j] = c
    return rows


@pytest.mark.parametrize("q,m,n,d", [
    (2, 1, 3, 5), (3, 1, 3, 4), (4, 1, 2, 4), (9, 1, 2, 3), (25, 1, 1, 3),
    (25, 1, 2, 3), (4, 2, 3, 2), (9, 2, 2, 2), (8, 2, 2, 2), (8, 2, 3, 1),
])
def test_operator_matrix_matches_per_column_assembly(q, m, n, d):
    ctx = field(q)
    rng = random.Random(1000 * q + 100 * m + 10 * n + d)
    for _ in range(3):
        f = rand_poly_mv(ctx, rng, n, d)
        if m == 1:
            got = hyper_matrix_mod_p(f, d)
            basis = rd_basis(n, d)
        else:
            ring = make_galois_ring(ctx, m)
            f = f.lift_to(ring)
            got = hyper_matrix_mod_pm(f, d)
            basis = rmd_basis(n, d, ring.p, m)
        power = poly_pow(f, (ctx.q - 1) * ctx.p ** (m - 1))
        assert got.to_rows() == _per_column_matrix(f.ctx, power, basis)


@pytest.mark.parametrize("p,terms,d", [
    (10 ** 20 + 39, {(1,): 1}, 1), (2 ** 63 - 25, {(1, 2): 3}, 5),
    (2 ** 63 - 25, {(2,): 1}, 5), (2 ** 63 - 25, {(1,): 1}, 40),
])
def test_operator_exponents_past_int64(p, terms, d):
    # a power of a monomial over a huge prime field has exponents at or
    # past 2^63, and the images v + u of its pairs must not wrap
    f = SparsePoly(field(p), len(next(iter(terms))), terms)
    power = poly_pow(f, p - 1)
    basis = rd_basis(f.nvars, d)
    assert hyper_matrix_mod_p(f, d).to_rows() == _per_column_matrix(
        f.ctx, power, basis)


# (q, m, n, d): the contexts F_4 .. F_27 mod p and GR(2^2, 2), GR(3^2, 2),
# GR(2^3, 2), GR(2^2, 3) mod p^m, with degrees that keep the reference's
# full power f^{(q-1)p^{m-1}} cheap
SPLIT_CELLS = [
    (4, 1, 1, 5), (4, 1, 2, 4), (4, 1, 3, 3), (8, 1, 2, 3), (8, 1, 3, 3),
    (9, 1, 2, 3), (16, 1, 2, 3), (25, 1, 2, 2), (27, 1, 2, 2),
    (4, 2, 2, 2), (4, 2, 3, 2), (9, 2, 2, 2), (8, 2, 1, 3), (8, 2, 2, 2),
    (4, 3, 2, 2), (4, 3, 3, 1),
]


@st.composite
def split_case(draw):
    q, m, n, d = draw(st.sampled_from(SPLIT_CELLS))
    ctx = make_galois_ring(field(q), m)
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        u = tuple(draw(st.lists(st.integers(0, d), min_size=n,
                                max_size=n)))
        if sum(u) <= d:
            terms[u] = draw(st.integers(1, ctx.size - 1))
    return SparsePoly(ctx, n, terms), d


@settings(max_examples=60, deadline=None)
@given(split_case())
def test_frobenius_twists_equal_the_full_power_assembly(case):
    # M = sigma^{e-1}(A) ... sigma(A) A, from the matrix A of
    # h -> psi_p(f^{(p-1)p^{m-1}} h), is the matrix of
    # h -> psi_q(f^{(q-1)p^{m-1}} h) entry for entry
    f, d = case
    ctx, n = f.ctx, f.nvars
    if ctx.m == 1:
        got = hyper_matrix_mod_p(f, d)
        basis = rd_basis(n, d)
    else:
        got = hyper_matrix_mod_pm(f, d)
        basis = rmd_basis(n, d, ctx.p, ctx.m)
    power = poly_pow(f, (ctx.q - 1) * ctx.p ** (ctx.m - 1))
    assert got.to_rows() == _per_column_matrix(ctx, power, basis)


def _monomial(draw, n, k):
    """An exponent vector in n variables of degree exactly k."""
    u = []
    for _ in range(n - 1):
        u.append(draw(st.integers(0, k)))
        k -= u[-1]
    return tuple(u + [k])


@st.composite
def degree_d_case(draw):
    q = draw(st.sampled_from([2, 3, 4, 9]))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(n + 1, n + 3))    # d = n leaves no lower monomial
    # one term of degree exactly d, so deg f = d, and terms below it
    terms = {_monomial(draw, n, d): draw(st.integers(1, q - 1))}
    for _ in range(draw(st.integers(0, 8))):
        u = _monomial(draw, n, draw(st.integers(0, d - 1)))
        terms[u] = draw(st.integers(1, q - 1))
    return SparsePoly(field(q), n, terms)


@settings(max_examples=100, deadline=None)
@given(degree_d_case())
def test_monomials_below_the_degree_span_a_stable_subspace(f):
    # the image of x^u has degree at most (|u| + (q-1)d)/q < d when
    # |u| < d, so no entry of M takes a monomial of degree below d to one
    # of degree d, and det(I - MT) splits over that subspace
    d = f.degree()
    basis = rd_basis(f.nvars, d)
    rows = hyper_matrix_mod_p(f).to_rows()
    top = [i for i, w in enumerate(basis) if sum(w) == d]
    for j, u in enumerate(basis):       # column j is the image of x^u
        if sum(u) < d:
            assert [rows[i][j] for i in top] == [0] * len(top)


# -- truncated series -------------------------------------------------------


def test_series_algebra():
    s = TruncatedSeries.from_list(7, [1, 3, 2], 4)
    assert s.coeffs == (1, 3, 2, 0, 0)
    assert (s * s.inverse()).coeffs == (1, 0, 0, 0, 0)
    assert s.pow(3) == s * s * s
    assert s.pow(-2) == s.inverse() * s.inverse()
    assert s.pow(0) == TruncatedSeries.one(7, 4)
    t = TruncatedSeries.from_list(5, [1, 9], 3)
    assert t.coeffs == (1, 4, 0, 0)
    assert str(TruncatedSeries.from_list(4, [1, 1, 2], 2)) == "1 + T + 2*T^2"


def test_series_inverse_needs_unit_constant():
    s = TruncatedSeries.from_list(4, [2, 1], 3)
    with pytest.raises(ValueError):
        s.inverse()


class Residues:
    """Z/N with the add/mul/neg/inv of a field or Galois-ring context."""

    def __init__(self, n):
        self.n = n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return a * b % self.n

    def neg(self, a):
        return -a % self.n

    def inv(self, a):
        return pow(a, -1, self.n)


# the O(B^2) series algebra on coefficient lists over any context with
# add/mul/neg/inv, which the package ran until every series became a
# TruncatedSeries over Z/p^m; kept as the reference


def series_mul_reference(ctx, a, b):
    B = len(a) - 1
    out = [0] * (B + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(B + 1 - i):
            y = b[j]
            if y:
                out[i + j] = ctx.add(out[i + j], ctx.mul(x, y))
    return out


def series_inv_reference(ctx, a):
    B = len(a) - 1
    b0 = ctx.inv(a[0])
    out = [b0] + [0] * B
    for k in range(1, B + 1):
        s = 0
        for j in range(1, k + 1):
            if a[j] and out[k - j]:
                s = ctx.add(s, ctx.mul(a[j], out[k - j]))
        out[k] = ctx.neg(ctx.mul(b0, s))
    return out


def series_pow_reference(ctx, a, k):
    base = a if k >= 0 else series_inv_reference(ctx, a)
    k = abs(k)
    out = [1] + [0] * (len(a) - 1)
    while k:
        if k & 1:
            out = series_mul_reference(ctx, out, base)
        base = series_mul_reference(ctx, base, base)
        k >>= 1
    return out


def product_series_reference(modulus, B, factors):
    ctx = Residues(modulus)
    acc = [1] + [0] * B
    for k, a in factors:
        a = [c % modulus for c in (list(a) + [0] * B)[:B + 1]]
        acc = series_mul_reference(ctx, acc,
                                   series_pow_reference(ctx, a, k))
    return acc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_series_matches_the_ring_list_reference(data):
    # composite and prime-power moduli; exponents of either sign up to
    # C(n, i), as the zeta and torus factors carry; sparse factors of
    # degree up to 2B and dense ones past the truncation order
    N = data.draw(st.sampled_from([8, 12, 2, 4, 9, 25, 27, 49]), "modulus")
    B = data.draw(st.integers(1, 12), "B")
    n = data.draw(st.integers(1, 6), "n")
    units = [u for u in range(1, N) if math.gcd(u, N) == 1]
    factors = []
    for _ in range(data.draw(st.integers(0, 4))):
        bound = math.comb(n, data.draw(st.integers(0, n)))
        k = data.draw(st.integers(-bound, bound))
        a = [data.draw(st.sampled_from(units))]
        if data.draw(st.booleans()):
            a += data.draw(st.lists(st.integers(0, N - 1), min_size=B,
                                    max_size=B + 4))
        else:
            a += [0] * data.draw(st.integers(0, 2 * B))
            for j in data.draw(st.sets(st.integers(1, 2 * B), max_size=2)):
                if j < len(a):
                    a[j] = data.draw(st.integers(1, N - 1))
        factors.append((k, a))
    got = hyper._product_series(N, B, factors)
    assert (got.modulus, got.order) == (N, B)
    assert list(got.coeffs) == product_series_reference(N, B, factors)


@pytest.mark.parametrize("m", [1, 2])
def test_a_determinant_outside_the_prime_subring_raises(m, monkeypatch):
    # the code pm is t, in neither F_2 nor Z/4; the check on P runs before
    # any series is formed
    ctx = field(4)
    pm = ctx.p ** m
    f = SparsePoly(ctx, 2, {(1, 1): 1, (0, 0): 2})      # x*y + t
    monkeypatch.setattr(hyper, "charpoly_reverse",
                        lambda M, B=None: [1, pm] + [0] * (M.n - 1))
    counts = count_calls(monkeypatch, ("_product_series",))
    with pytest.raises(CoefficientOutsidePrimeField):
        if m == 1:
            zeta_mod_p(f, B=3)
        else:
            zeta_mod_pm(f, m, 3)
    assert counts == {"_product_series": 0}


@pytest.mark.parametrize("m", [1, 2])
def test_a_truncated_determinant_outside_the_prime_subring_raises(
        m, monkeypatch):
    # B = 2 is below the dimension (10 mod p, 15 mod p^2), so P comes from
    # the trace path, and meets the same check before any series
    ctx = field(4)
    pm = ctx.p ** m
    f = SparsePoly(ctx, 2, {(1, 1): 1, (0, 0): 2})      # x*y + t
    calls = []

    def traces(M, ring, B):
        calls.append((M.n, B))
        return [1, pm] + [0] * (B - 1)
    monkeypatch.setattr(linalg, "_charpoly_traces", traces)
    counts = count_calls(monkeypatch, ("_product_series",))
    with pytest.raises(CoefficientOutsidePrimeField):
        if m == 1:
            zeta_mod_p(f, B=2, d=5)
        else:
            zeta_mod_pm(f, m, 2)
    assert counts == {"_product_series": 0}
    assert calls == [(10 if m == 1 else 15, 2)]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_truncated_zeta_equals_the_series_of_the_full_determinant(q):
    # zeta_mod_p and zeta_mod_pm read P only to T^B; the CLI's parts keep
    # all of it, and the two series agree, at B = p and 2p, where Newton's
    # identities divide by p, and on Z/4 input
    ctx = field(q)
    rng = random.Random(q + 300)
    orders = sorted({1, 3, ctx.p, 2 * ctx.p})
    for _ in range(3):
        f = rand_poly_mv(ctx, rng, 2, 3)
        d = max(f.degree(), 5)                    # C(d, 2) >= 10 > B
        lifts = [(f, 2)]
        if q == 2:
            lifts.append((f.lift_to(make_galois_ring(ctx, 2)), None))
        for B in orders:
            M, dets, want = hyper._zeta_mod_p_parts(f, 2, B, d)
            assert len(dets[0][1]) == M.n + 1 > B + 1
            assert zeta_mod_p(f, 2, B, d) == want
            for g, m in lifts:
                M, dets, want = hyper._zeta_mod_pm_parts(g, m, B, None)
                assert len(dets[0][1]) == M.n + 1 > B + 1
                assert zeta_mod_pm(g, m, B) == want


# -- operator matrices ------------------------------------------------------


def test_hyper_matrix_worked_case():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1])
    M = hyper_matrix_mod_p(f)
    assert M.to_rows() == [[1, 1], [0, 1]]


def test_hyper_matrix_mod4_worked_case():
    ctx = field(2)
    ring = make_galois_ring(ctx, 2)
    f = SparsePoly.from_dense(ctx, [1, 1]).lift_to(ring)
    M = hyper_matrix_mod_pm(f)
    assert M.to_rows() == [[1, 0, 0], [1, 2, 1], [0, 0, 1]]


def test_a_basis_missing_an_image_raises_naming_it():
    f = SparsePoly.from_dense(field(2), [1, 1, 1])
    # column x^2 reads psi_2(x^2 + x^3 + x^4) = x + x^2, and x is missing
    with pytest.raises(StabilityViolation, match=r"\(1,\) escaped"):
        hyper._operator(f, np.array([[2]]))
    # x^4 reads x^2 + x^3 and x^5 reads x^3, none of them in the basis:
    # the least image of the first column is named
    with pytest.raises(StabilityViolation, match=r"\(2,\) escaped"):
        hyper._operator(f, np.array([[4], [5]]))
    for q, n, d in ((2, 2, 5), (3, 2, 4), (4, 3, 5)):
        ctx = field(q)
        f = rand_poly_mv(ctx, random.Random(q + n + d), n, d)
        basis = rd_basis(n, d)
        rows = hyper._operator(f, basis).to_rows()
        # a row the image of some other column hits
        i = next(i for i, row in enumerate(rows)
                 if any(c for j, c in enumerate(row) if j != i))
        with pytest.raises(StabilityViolation,
                           match=re.escape("%r escaped"
                                           % (tuple(basis[i].tolist()),))):
            hyper._operator(f, np.delete(basis, i, axis=0))


def test_hyper_matrix_rejects_ring_input():
    ctx = field(2)
    ring = make_galois_ring(ctx, 2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1]).lift_to(ring)
    with pytest.raises(RingNotField):
        hyper_matrix_mod_p(f)


def test_degree_bound_validation():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1])
    with pytest.raises(ValueError):
        hyper_matrix_mod_p(f, d=1)
    with pytest.raises(ValueError):
        zeta_mod_p(f, B=0)


def test_zeta_mod_p_checks_its_variable_count_before_any_work(monkeypatch):
    # the operator matrices read n from f; zeta_mod_p keeps n and refuses
    # a mismatch before a matrix is built
    f = SparsePoly(field(2), 2, {(1, 1): 1, (0, 0): 1})
    counts = count_calls(monkeypatch, ("hyper_matrix_mod_p", "poly_pow"))
    with pytest.raises(ValueError, match="2 variables, not 3"):
        zeta_mod_p(f, 3, 4)
    assert counts == {"hyper_matrix_mod_p": 0, "poly_pow": 0}
    assert zeta_mod_p(f, 2, 3).coeffs == (1, 1, 0, 0)


# -- mod p zeta -------------------------------------------------------------


def test_zeta_mod_p_worked_cases():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1])
    assert list(zeta_mod_p(f, B=4).coeffs) == [1, 0, 1, 0, 1]
    g = SparsePoly(ctx, 2, {(1, 1): 1, (0, 0): 1})  # xy + 1
    assert list(zeta_mod_p(g, B=3).coeffs) == exact_series_mod(g, 3, 2)


@pytest.mark.parametrize("q,n,dmax,B,cases", [
    (2, 1, 6, 8, 12), (2, 2, 4, 5, 10), (3, 2, 3, 4, 8),
    (2, 3, 3, 4, 6), (4, 2, 3, 4, 8),
])
def test_zeta_mod_p_matches_oracle_small(q, n, dmax, B, cases):
    ctx = field(q)
    rng = random.Random(1000 * q + 10 * n + dmax)
    for _ in range(cases):
        f = rand_poly_mv(ctx, rng, n, rng.randrange(1, dmax + 1))
        d = max(f.degree(), n)
        got = zeta_mod_p(f, n, B, d)
        assert list(got.coeffs) == exact_series_mod(f, B, ctx.p)


def test_zeta_mod_p_padding_consistency():
    # enlarging the monomial space must not change the series
    ctx = field(3)
    rng = random.Random(17)
    for _ in range(8):
        f = rand_poly_mv(ctx, rng, 2, 3)
        d = max(f.degree(), 2)
        a = zeta_mod_p(f, 2, 5, d)
        b = zeta_mod_p(f, 2, 5, d + 1)
        c = zeta_mod_p(f, 2, 5, d + 2)
        assert a == b == c


def test_zeta_mod_p_prime_subfield_output():
    # over F_4 the series coefficients still land in F_2
    ctx = field(4)
    rng = random.Random(4)
    for _ in range(10):
        f = rand_poly_mv(ctx, rng, 2, 3)
        got = zeta_mod_p(f, 2, 4, max(f.degree(), 2))
        assert got.modulus == 2
        assert all(c in (0, 1) for c in got.coeffs)


# -- torus zeta -------------------------------------------------------------


def test_torus_zeta_worked_cases():
    assert list(torus_zeta(1, 2, 2, 4).coeffs) == [1, 1, 2]
    assert list(torus_zeta(1, 2, 3, 2).coeffs) == [1, 1, 0, 0]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_torus_zeta_matches_exponential_series(n, q):
    # the 0-torus is one point, so its zeta is 1/(1 - T)
    for mod in (4, 8, 9, 27):
        got = torus_zeta(n, q, 6, mod)
        assert list(got.coeffs) == torus_series_reference(n, q, 6, mod)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_torus_zeta_equals_the_full_product(q):
    # the factors with q^i = 0 mod p^m are 1, so dropping them keeps the
    # series of the product over every i = 0..n
    p = 3 if q % 3 == 0 else 2
    for m in (1, 2, 3):
        pm = p ** m
        for n in range(1, 13):
            full = TruncatedSeries.one(pm, 5)
            for i in range(n + 1):
                base = TruncatedSeries.from_list(pm, [1, -q ** i], 5)
                full = full * base.pow(math.comb(n, i) * (-1) ** (n - i + 1))
            assert torus_zeta(n, q, 5, pm) == full


def test_torus_zeta_counts_directly():
    # (q^k - 1)^n points on the n-torus, recovered from the series
    ctx = field(3)
    f = SparsePoly(ctx, 2, {(0, 0): 1})  # nonvanishing: empty variety
    assert count_points(f, 2, "torus") == 0
    g = SparsePoly(ctx, 2, {(1, 0): 1, (0, 0): 2})  # x = -2 plane
    assert count_points(g, 1, "torus") == 2  # y free and nonzero


# -- mod p^m zeta -----------------------------------------------------------


@pytest.mark.parametrize("p,m,q,n,dmax,cases", [
    (2, 2, 2, 1, 3, 8), (2, 2, 2, 2, 2, 6),
    (3, 2, 3, 1, 2, 6), (2, 3, 2, 1, 2, 6),
])
def test_zeta_mod_pm_matches_torus_oracle_small(p, m, q, n, dmax, cases):
    ctx = field(q)
    rng = random.Random(p * 100 + m * 10 + n)
    pm = p ** m
    for _ in range(cases):
        f = rand_poly_mv(ctx, rng, n, rng.randrange(1, dmax + 1))
        got = zeta_mod_pm(f, m, 4)
        assert list(got.coeffs) == exact_series_mod(f, 4, pm, "torus")


@pytest.mark.parametrize("q,n,dmax,B", [(32, 1, 4, 3), (25, 1, 3, 2),
                                         (25, 2, 2, 2)])
def test_zeta_mod_p2_over_rings_of_625_and_1024_elements(q, n, dmax, B):
    # GR(2^5, 2) and GR(5^2, 2) run the generic digit arithmetic; B is
    # small enough that the oracle stays cheap over F_{q^B}
    ctx = field(q)
    rng = random.Random(q * 10 + n)
    for _ in range(4):
        f = rand_poly_mv(ctx, rng, n, rng.randrange(1, dmax + 1),
                         density=1.0)
        got = zeta_mod_pm(f, 2, B)
        assert list(got.coeffs) == exact_series_mod(f, B, ctx.p ** 2,
                                                    "torus")


def test_zeta_mod_pm_worked_cases():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1])  # single torus point x = 1
    assert list(zeta_mod_pm(f, 1, 3).coeffs) == [1, 1, 1, 1]
    ctx4 = field(4)
    g = SparsePoly.from_dense(ctx4, [2, 1])  # x - t, one torus point
    assert list(zeta_mod_pm(g, 1, 2).coeffs) == [1, 1, 1]
    h = SparsePoly(ctx, 2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})  # x + y + 1
    assert count_points(h, 1, "torus") == 0
    assert count_points(h, 2, "torus") == 2
    assert list(zeta_mod_pm(h, 1, 2).coeffs) == \
        exact_series_mod(h, 2, 2, "torus")


def test_zeta_mod_pm_m1_consistency():
    ctx = field(2)
    rng = random.Random(21)
    for _ in range(8):
        f = rand_poly_mv(ctx, rng, 2, 2)
        got = zeta_mod_pm(f, 1, 4)
        assert got.modulus == 2
        assert list(got.coeffs) == exact_series_mod(f, 4, 2, "torus")


def face_product(f, B, m=1):
    """prod over S of Z_torus(f restricted to x_S = 0) mod p^m, truncated
    at B: the affine zeta by the decomposition of affine space into tori.
    A nonzero constant restriction has no points, a zero one is the whole
    torus, and the face S = all is the origin, a point when f(0) = 0."""
    ctx, n, pm = f.ctx, f.nvars, f.ctx.p ** m
    out = TruncatedSeries.one(pm, B)
    for size in range(n + 1):
        for S in itertools.combinations(range(n), size):
            keep = [i for i in range(n) if i not in S]
            g = SparsePoly(ctx, len(keep), {
                tuple(u[i] for i in keep): c for u, c in f.terms.items()
                if all(u[i] == 0 for i in S)})
            if not keep:
                if g.is_zero():
                    out = out * TruncatedSeries.from_list(
                        pm, [1, -1], B).inverse()
            elif g.is_zero():
                out = out * torus_zeta(len(keep), ctx.q, B, pm)
            elif g.degree() > 0:
                out = out * zeta_mod_pm(g, m=m, B=B)
    return out


def check_faces(f, B):
    n = f.nvars
    affine = zeta_mod_p(f, n, B, max(f.degree(), n))
    assert affine == face_product(f, B)


@st.composite
def face_case(draw):
    q = draw(st.sampled_from([2, 3, 4, 9]))
    n = draw(st.integers(1, 3))
    dmax = 3 if q == 9 else 4
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        u = tuple(draw(st.lists(st.integers(0, dmax), min_size=n,
                                max_size=n)))
        if sum(u) <= dmax:
            terms[u] = draw(st.integers(1, q - 1))
    if not terms:
        terms[(0,) * n] = draw(st.integers(1, q - 1))
    return SparsePoly(field(q), n, terms), draw(st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(face_case())
def test_affine_zeta_is_the_product_over_faces(case):
    check_faces(*case)


@pytest.mark.parametrize("f", [
    SparsePoly(field(2), 2, {(1, 0): 1, (0, 0): 1}),  # x + 1: y = 0 face
    SparsePoly(field(3), 2, {(1, 1): 1}),             # xy: zero faces
    SparsePoly(field(3), 3, {(0, 0, 0): 2}),          # a nonzero constant
    SparsePoly(field(4), 2, {(2, 0): 2, (0, 1): 3}),  # f(0) = 0
], ids=["x+1", "xy", "constant", "origin"])
def test_face_product_edge_cases(f):
    check_faces(f, 5)


# (q, n, d, B) with sum_{k <= B} q^(kn) past the oracle's 10^9 points
FACES_PAST_THE_ORACLE = [(2, 3, 4, 12), (4, 2, 4, 16), (3, 2, 5, 14),
                         (2, 4, 4, 8)]


@pytest.mark.parametrize("q,n,d,B", FACES_PAST_THE_ORACLE)
def test_face_product_past_the_oracle_cap(q, n, d, B):
    assert q ** (n * B) > 10 ** 9
    ctx = field(q)
    rng = random.Random("%d/%d/%d/%d" % (q, n, d, B))
    for _ in range(3):
        check_faces(rand_poly_mv(ctx, rng, n, d), B)


@pytest.mark.parametrize("q,n,d,B,cases", [
    (2, 1, 4, 5, 6), (2, 2, 3, 4, 5), (2, 3, 2, 3, 3), (3, 1, 3, 4, 4),
    (3, 2, 2, 3, 4), (4, 1, 3, 4, 4), (4, 2, 2, 3, 3),
])
def test_face_product_mod_p2_is_the_affine_series(q, n, d, B, cases):
    # the same decomposition mod p^2 gives the affine zeta mod p^2; over
    # F_4 each face runs the Frobenius twists over GR(2^2, 2)
    ctx = field(q)
    rng = random.Random("faces mod p^2/%d/%d/%d" % (q, n, d))
    for _ in range(cases):
        f = rand_poly_mv(ctx, rng, n, d)
        assert list(face_product(f, B, 2).coeffs) == \
            exact_series_mod(f, B, ctx.p ** 2)
    # a zero restriction, a nonzero constant one and f(0) = 0
    edge = [SparsePoly(ctx, n, {(1,) + (0,) * (n - 1): 1}),
            SparsePoly(ctx, n, {(0,) * n: 1, (1,) * n: 1})]
    for f in edge:
        assert list(face_product(f, B, 2).coeffs) == \
            exact_series_mod(f, B, ctx.p ** 2)


def test_zeta_mod_pm_lift_independence():
    ctx = field(2)
    ring = make_galois_ring(ctx, 2)
    f = SparsePoly.from_dense(ctx, [1, 1])
    lift_a = f.lift_to(ring)                      # x + 1
    lift_b = SparsePoly.from_dense(ring, [3, 1])  # x + 3
    lift_c = SparsePoly.from_dense(ring, [3, 3])  # 3x + 3
    za = zeta_mod_pm(lift_a)
    zb = zeta_mod_pm(lift_b)
    assert za == zb
    assert za == zeta_mod_pm(f, 2)
    zc = zeta_mod_pm(lift_c)
    assert zc == za  # same variety, different unit
    # bivariate f and f over F_4 (e = 2), lifted by adding p*r, r a unit,
    # to every coefficient of the trivial lift
    rng = random.Random(17)
    for q, nvars, d in ((2, 2, 2), (3, 2, 1), (4, 1, 3)):
        ctx = field(q)
        ring = make_galois_ring(ctx, 2)
        units = [r for r in range(ring.size) if ring.is_unit(r)]
        for _ in range(2):
            f = rand_poly_mv(ctx, rng, nvars, d)
            lift = SparsePoly(ring, nvars, {
                u: ring.add(c, ring.mul(ctx.p, rng.choice(units)))
                for u, c in f.lift_to(ring).terms.items()})
            assert zeta_mod_pm(lift, B=4) == zeta_mod_pm(f, 2, 4)


@pytest.mark.parametrize("q,terms", [
    (2, {(1,): 1, (3,): 1, (0,): 1}),
    (3, {(1, 1): 1, (2, 0): 2, (0, 0): 1}),
])
def test_zeta_mod_pm_one_matrix_and_one_charpoly(q, terms, monkeypatch):
    f = SparsePoly(field(q), len(next(iter(terms))), terms)
    want = zeta_mod_pm(f, 2, 4)
    counts = count_calls(monkeypatch, ("hyper_matrix_mod_pm",
                                       "charpoly_reverse"))
    assert zeta_mod_pm(f, 2, 4) == want
    assert counts == {"hyper_matrix_mod_pm": 1, "charpoly_reverse": 1}


def test_zeta_mod_pm_rejects_mismatched_precision():
    ctx = field(2)
    ring = make_galois_ring(ctx, 3)
    f = SparsePoly.from_dense(ctx, [1, 1, 1]).lift_to(ring)
    with pytest.raises(ValueError):
        zeta_mod_pm(f, m=2)
