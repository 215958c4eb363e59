import math
import random

import pytest

from conftest import count_calls, field, mul_by_x_matrix, rand_monic
from ffzeta import (ConstantInput, FactoredZeta, InvariantViolation,
                    MultivariateInput, NonIntegralSolution, NotMonic,
                    OperatorKind, RingNotField, SizeLimit, SquareMatrix,
                    ZeroConstantTerm, charpoly_reverse, congruence_charpoly,
                    count_points, degree_profile, hyper, kernel_basis,
                    make_galois_ring,
                    op_matrix, trial_factorize, zerodim, zerodim_zeta,
                    zeta_coeffs_exact)
from ffzeta.poly import SparsePoly, dense_mod, dense_mul, dense_powmod
from ffzeta.zerodim import _solve_gcd_system


def gcd_matrix(d):
    """The d x d integer matrix with entries gcd(i, j): row j maps a degree
    profile s to the fixed-space dimension k_j = sum_i gcd(i, j) s_i."""
    return [[math.gcd(i, j) for j in range(1, d + 1)] for i in range(1, d + 1)]


def product_over_distinct_factors(ctx, f):
    """(1 - T^d1)(1 - T^d2)... mod p from the oracle factorization."""
    out = [1]
    for g, _ in trial_factorize(f).factors:
        d = g.degree()
        nxt = [0] * (len(out) + d)
        for j, c in enumerate(out):
            nxt[j] = (nxt[j] + c) % ctx.p
            nxt[j + d] = (nxt[j + d] - c) % ctx.p
        out = nxt
    return out


def test_frobenius_matrix_worked_case():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1])
    M = op_matrix(f, OperatorKind.FROBENIUS)
    assert M.to_rows() == [[1, 1], [0, 1]]
    assert congruence_charpoly(f, OperatorKind.FROBENIUS) == [1, 0, 1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16, 25])
def test_frobenius_matrix_matches_per_column_powers(q):
    # the definition: column j is x^(jq) mod f, one modular power each
    ctx = field(q)
    rng = random.Random(q)
    for d in range(1, 7):
        for _ in range(3):
            f = rand_monic(ctx, rng, d)
            fd = f.to_dense()
            cols = [dense_powmod(ctx, [0] * j + [1], q, fd) for j in range(d)]
            ref = SquareMatrix.from_columns(
                ctx, [c + [0] * (d - len(c)) for c in cols])
            assert op_matrix(f, OperatorKind.FROBENIUS) == ref, fd


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 27])
def test_niederreiter_is_psi_after_hasse(q):
    # the definition: column j is psi_q(hasse_{q-1}(x^j f^(q-1))) mod f,
    # with the Hasse derivative x^u -> C(u, q-1) x^(u-q+1) taken literally
    ctx = field(q)
    rng = random.Random(q + 61)
    for _ in range(30):
        f = rand_monic(ctx, rng, rng.randrange(1, 7))
        fd = f.to_dense()
        d = len(fd) - 1
        fq1 = [1]
        for _ in range(q - 1):
            fq1 = dense_mul(ctx, fq1, fd)
        cols = []
        for j in range(d):
            g = [0] * j + fq1
            hasse = [ctx.mul(g[u], math.comb(u, q - 1) % ctx.p)
                     for u in range(q - 1, len(g))]
            c = dense_mod(ctx, hasse[::q], fd)
            cols.append(c + [0] * (d - len(c)))
        ref = SquareMatrix.from_columns(ctx, cols)
        assert op_matrix(f, OperatorKind.NIEDERREITER) == ref, fd


def test_degree_profile_worked_cases():
    ctx2 = field(2)
    assert degree_profile(SparsePoly.from_dense(ctx2, [1, 1, 1])) == (0, 1)
    # x^3 + x = x (x+1)^2 over F_2
    assert degree_profile(SparsePoly.from_dense(ctx2, [0, 1, 0, 1])) == \
        (2, 0, 0)
    ctx3 = field(3)
    assert degree_profile(SparsePoly.from_dense(ctx3, [2, 0, 1])) == (2, 0)


def test_zerodim_zeta_string_and_expansion():
    ctx = field(2)
    z = zerodim_zeta(SparsePoly.from_dense(ctx, [1, 1, 1]))
    assert str(z) == "1/((1-T^2))"
    assert z.expand(5) == [1, 0, 1, 0, 1, 0]
    z2 = zerodim_zeta(SparsePoly.from_dense(ctx, [0, 1, 0, 1]))
    assert str(z2) == "1/((1-T)^2)"
    assert z2.expand(3) == [1, 2, 3, 4]
    # the inverse, as `verify --mode zerodim` expands it, and a factor
    # whose constant term is not 1, which no exact series takes
    assert FactoredZeta(((2, 1),)).expand(4) == [1, 0, -1, 0, 0]
    assert str(FactoredZeta(())) == "1"
    with pytest.raises(ValueError):
        hyper._product_series(None, 4, [(-1, [2, 1])])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_triple_congruence_small(q):
    ctx = field(q)
    rng = random.Random(q * 31)
    for _ in range(50):
        f = rand_monic(ctx, rng, rng.randrange(2, 9), nonzero_const=True)
        cps = [congruence_charpoly(f, kind) for kind in OperatorKind]
        assert cps[0] == cps[1] == cps[2]
        want = product_over_distinct_factors(ctx, f)
        want += [0] * (len(cps[0]) - len(want))
        assert cps[0] == want


@pytest.mark.parametrize("q", [2, 3, 4])
def test_charpolys_agree_even_with_zero_constant_term(q):
    # the psi-multiplication operator is excluded when f(0) = 0, but the
    # Frobenius and derivative-based ones still agree there
    ctx = field(q)
    rng = random.Random(q * 37)
    for _ in range(30):
        f = rand_monic(ctx, rng, rng.randrange(2, 8))
        shifted = f * SparsePoly.from_dense(ctx, [0, 1])
        a = congruence_charpoly(shifted, OperatorKind.FROBENIUS)
        b = congruence_charpoly(shifted, OperatorKind.NIEDERREITER)
        assert a == b


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_conjugacy_small(q):
    ctx = field(q)
    rng = random.Random(q * 41)
    for _ in range(30):
        f = rand_monic(ctx, rng, rng.randrange(2, 8), nonzero_const=True)
        md = op_matrix(f, OperatorKind.NIEDERREITER)
        mg = op_matrix(f, OperatorKind.PSI_MUL)
        mx = mul_by_x_matrix(f)
        # mx is invertible, so this is md = mx^-1 mg mx
        assert kernel_basis(mx) == []
        assert mx @ md == mg @ mx


@pytest.mark.parametrize("q", [2, 3, 9])
def test_schwarz_fixed_space_dimensions(q):
    ctx = field(q)
    rng = random.Random(q * 43)
    for _ in range(20):
        d = rng.randrange(2, 9)
        f = rand_monic(ctx, rng, d, nonzero_const=True)
        s = [0] * d
        for g, _ in trial_factorize(f).factors:
            s[g.degree() - 1] += 1
        M = op_matrix(f, OperatorKind.FROBENIUS)
        ident = SquareMatrix.identity(ctx, d)
        P = ident
        for j in range(1, d + 1):
            P = P @ M
            dim = len(kernel_basis(P - ident))
            assert dim == sum(math.gcd(i + 1, j) * s[i] for i in range(d))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_butler_distinct_factor_count(q):
    ctx = field(q)
    rng = random.Random(q * 47)
    for _ in range(25):
        f = rand_monic(ctx, rng, rng.randrange(2, 9), nonzero_const=True)
        want = len(trial_factorize(f).factors)
        ident = SquareMatrix.identity(ctx, f.degree())
        for kind in OperatorKind:
            fixed = op_matrix(f, kind) - ident
            assert len(kernel_basis(fixed)) == want


@pytest.mark.parametrize("q", [2, 3, 4])
def test_zeta_expansion_matches_point_counts(q):
    ctx = field(q)
    rng = random.Random(q * 53)
    # keep q^B small enough that extension-field tables stay cheap
    kmax = {2: 16, 3: 8, 4: 8}[q]
    for _ in range(12):
        d = rng.randrange(2, 9)
        f = rand_monic(ctx, rng, d)
        B = min(2 * d, kmax)
        counts = [count_points(f, k) for k in range(1, B + 1)]
        assert zerodim_zeta(f).expand(B) == zeta_coeffs_exact(counts, B)


def test_degree_profile_invariants():
    ctx = field(3)
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randrange(2, 10)
        f = rand_monic(ctx, rng, d)
        s = degree_profile(f)
        weight = sum((i + 1) * v for i, v in enumerate(s))
        assert weight <= d
        fac = trial_factorize(f)
        squarefree = all(m == 1 for _, m in fac.factors)
        assert (weight == d) == squarefree
        assert sum(s) == len(fac.factors)


def test_gcd_matrix_contents():
    assert gcd_matrix(4) == [[1, 1, 1, 1], [1, 2, 1, 2],
                             [1, 1, 3, 1], [1, 2, 1, 4]]


def test_gcd_system_inversion_round_trips():
    # profiles with sum i*s_i <= d give fixed-space counts
    # k_j = sum_i gcd(i, j) s_i, and the Moebius inversion returns them
    rng = random.Random(30)
    for _ in range(300):
        d = rng.randrange(1, 31)
        s = [0] * d
        room = rng.randrange(d + 1)
        while room:
            i = rng.randrange(1, room + 1)
            s[i - 1] += 1
            room -= i
        ks = [sum(g * v for g, v in zip(row, s)) for row in gcd_matrix(d)]
        assert _solve_gcd_system(ks) == s
        # one more fixed vector at a j with phi(j) > 1 leaves t_j
        # = sum_{k | j} mu(j/k) k_k / phi(j) off by 1/phi(j)
        if d >= 3:
            j = rng.randrange(3, d + 1)
            ks[j - 1] += 1
            with pytest.raises(NonIntegralSolution):
                _solve_gcd_system(ks)
    with pytest.raises(NonIntegralSolution):
        _solve_gcd_system([0, 0, 1])  # t_3 = 1/phi(3) = 1/2


def test_operator_charpolys_equal_exactly():
    # conjugate and dual operators share characteristic polynomials over
    # F_q itself, not just mod p
    ctx = field(4)
    rng = random.Random(64)
    for _ in range(25):
        f = rand_monic(ctx, rng, rng.randrange(2, 7), nonzero_const=True)
        cs = [charpoly_reverse(op_matrix(f, kind)) for kind in OperatorKind]
        assert cs[0] == cs[1] == cs[2]


def test_input_validation():
    ctx = field(2)
    ring = make_galois_ring(ctx, 2)
    two_vars = SparsePoly(ctx, 2, {(1, 1): 1})
    with pytest.raises(MultivariateInput):
        degree_profile(two_vars)
    with pytest.raises(ConstantInput):
        zerodim_zeta(SparsePoly.one(ctx))
    with pytest.raises(NotMonic):
        ctx3 = field(3)
        degree_profile(SparsePoly.from_dense(ctx3, [1, 1, 2]))
    with pytest.raises(RingNotField):
        f = SparsePoly.from_dense(ctx, [1, 1, 1]).lift_to(ring)
        degree_profile(f)
    with pytest.raises(ZeroConstantTerm):
        op_matrix(SparsePoly.from_dense(ctx, [0, 1, 1]),
                  OperatorKind.PSI_MUL)


def test_op_matrix_checks_its_division_of_f_x_q_by_f(monkeypatch):
    # f^(q-1) is formed as f(x^q) / f; a remainder would mean f^q is not
    # f(x^q), and raises rather than build a wrong operator
    f = SparsePoly.from_dense(field(4), [1, 2, 1])
    exact = zerodim.dense_divmod
    monkeypatch.setattr(zerodim, "dense_divmod",
                        lambda ctx, a, b: (exact(ctx, a, b)[0], [1]))
    for kind in (OperatorKind.NIEDERREITER, OperatorKind.PSI_MUL):
        with pytest.raises(InvariantViolation):
            op_matrix(f, kind)


@pytest.mark.parametrize("kind", [OperatorKind.PSI_MUL,
                                  OperatorKind.NIEDERREITER])
def test_division_cap_admits_its_bound(kind, monkeypatch):
    # q*d*(d+1) = 99904 at d = 223 over F_2 is under the cap and 100800 at
    # d = 224 is past it, refused before f(x^q) is divided; Frobenius takes
    # log q squarings and has no such cap
    ctx = field(2)
    f = SparsePoly(ctx, 1, {(223,): 1, (1,): 1, (0,): 1})
    assert op_matrix(f, kind).n == 223
    g = SparsePoly(ctx, 1, {(224,): 1, (1,): 1, (0,): 1})
    assert op_matrix(g, OperatorKind.FROBENIUS).n == 224
    counts = count_calls(monkeypatch, ("dense_divmod",))
    with pytest.raises(SizeLimit, match="F_2, deg f = 224"):
        op_matrix(g, kind)
    assert counts == {"dense_divmod": 0}
