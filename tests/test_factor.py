import random

import pytest

from conftest import field, rand_monic
from ffzeta import (Factorization, OperatorKind, QTooLarge, SquareMatrix,
                    ZeroConstantTerm, admissible_basis, factorize,
                    irreducibles_up_to, kernel_basis, op_matrix,
                    trial_factorize)
from ffzeta.factor import _prime_power_root, _refine
from ffzeta.poly import SparsePoly, dense_gcd, dense_is_irreducible, dense_mul


def dense_factors(fac):
    return [(g.to_dense(), m) for g, m in fac.factors]


def test_worked_factorizations():
    ctx3 = field(3)
    f = SparsePoly.from_dense(ctx3, [2, 0, 1])  # x^2 - 1
    fac = factorize(f)
    assert dense_factors(fac) == [([1, 1], 1), ([2, 1], 1)]
    ctx2 = field(2)
    g = SparsePoly.from_dense(ctx2, [0, 1, 0, 1])  # x (x+1)^2
    fac2 = factorize(g)
    assert dense_factors(fac2) == [([0, 1], 1), ([1, 1], 2)]
    assert str(fac2) == "(x) * (x + 1)^2"


def test_irreducible_input_returns_itself():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 0, 0, 1])  # x^4 + x + 1
    for kind in OperatorKind:
        fac = factorize(f, kind)
        assert dense_factors(fac) == [([1, 1, 0, 0, 1], 1)]


def test_admissible_basis_dimension_counts_factors():
    # the fixed space of the q-power map has one basis vector per
    # distinct irreducible factor
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 0, 1, 1, 1, 1])
    basis = admissible_basis(f, OperatorKind.FROBENIUS)
    assert len(basis) == len(trial_factorize(f).factors)


def test_refine_cuts_into_a_coprime_pair():
    ctx = field(3)
    rng = random.Random(33)
    done = 0
    while done < 40:
        f = rand_monic(ctx, rng, rng.randrange(3, 9), nonzero_const=True)
        basis = [h.to_dense() for h in admissible_basis(f)]
        if len(basis) < 2:
            continue
        done += 1
        s, t = _refine(ctx, f.to_dense(), basis)
        assert 0 < len(s) - 1 < f.degree()
        assert 0 < len(t) - 1 < f.degree()
        assert dense_mul(ctx, s, t) == f.to_dense()
        assert dense_gcd(ctx, s, t) == [1]


def test_refine_stalls_on_a_one_dimensional_fixed_space():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1, 1])  # (x+1)^3 over F_2
    basis = [h.to_dense() for h in admissible_basis(f)]
    assert len(basis) == 1
    assert _refine(ctx, f.to_dense(), basis) is None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_reconstruction_random(q):
    ctx = field(q)
    rng = random.Random(q * 7)
    for _ in range(100):
        f = rand_monic(ctx, rng, rng.randrange(2, 13), nonzero_const=True)
        fac = factorize(f)
        assert fac.expand() == f
        assert sum(m * g.degree() for g, m in fac.factors) == f.degree()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_method_agreement(q):
    ctx = field(q)
    rng = random.Random(q * 11)
    for _ in range(60):
        f = rand_monic(ctx, rng, rng.randrange(2, 11), nonzero_const=True)
        per_kind = [dense_factors(factorize(f, kind))
                    for kind in OperatorKind]
        assert per_kind[0] == per_kind[1] == per_kind[2]
        assert per_kind[0] == dense_factors(trial_factorize(f))


def test_factors_without_constant_term():
    # Frobenius and derivative methods handle f(0) = 0; psi refuses
    ctx = field(3)
    f = SparsePoly.from_dense(ctx, [0, 0, 2, 1])
    a = dense_factors(factorize(f, OperatorKind.FROBENIUS))
    b = dense_factors(factorize(f, OperatorKind.NIEDERREITER))
    assert a == b == dense_factors(trial_factorize(f))
    with pytest.raises(ZeroConstantTerm):
        factorize(f, OperatorKind.PSI_MUL)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_outputs_certified_irreducible(q):
    ctx = field(q)
    rng = random.Random(q * 13)
    sieve = None
    for _ in range(30):
        f = rand_monic(ctx, rng, rng.randrange(2, 7), nonzero_const=True)
        for g, _ in factorize(f).factors:
            fixed = (op_matrix(g, OperatorKind.FROBENIUS)
                     - SquareMatrix.identity(ctx, g.degree()))
            assert len(kernel_basis(fixed)) == 1
            if sieve is None:
                sieve = {tuple(h.to_dense())
                         for h in irreducibles_up_to(ctx, 6)}
            assert tuple(g.to_dense()) in sieve


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_prime_power_root_of_irreducible_powers(q):
    # k in {1, 2, p, 2p, p^2} takes both branches: p | k needs p-th roots
    # first, p does not divide k divides by gcd(g, g') at once
    ctx = field(q)
    p = ctx.p
    rng = random.Random(q + 3)
    for deg in (1, 2, 3):
        h = rand_monic(ctx, rng, deg).to_dense()
        while not dense_is_irreducible(ctx, h):
            h = rand_monic(ctx, rng, deg).to_dense()
        for k in (1, 2, p, 2 * p, p * p):
            g = [1]
            for _ in range(k):
                g = dense_mul(ctx, g, h)
            assert _prime_power_root(ctx, g) == h


def test_high_multiplicity_and_repeated_blocks():
    ctx = field(2)
    lin = SparsePoly.from_dense(ctx, [1, 1])
    quad = SparsePoly.from_dense(ctx, [1, 1, 1])
    f = lin ** 5 * quad ** 3
    for kind in (OperatorKind.FROBENIUS, OperatorKind.NIEDERREITER,
                 OperatorKind.PSI_MUL):
        fac = factorize(f, kind)
        assert dense_factors(fac) == [([1, 1], 5), ([1, 1, 1], 3)]


def test_frobenius_twist_multiplicities():
    # f(x^p) style inputs make every factor multiplicity p
    ctx = field(3)
    f = SparsePoly.from_dense(ctx, [1, 0, 0, 1, 0, 0, 1, 0, 0, 1])
    fac = factorize(f)
    assert fac.expand() == f
    assert all(m % 3 == 0 for _, m in fac.factors)


def test_factorization_value_object():
    ctx = field(3)
    f = SparsePoly.from_dense(ctx, [1, 1])
    with pytest.raises(ValueError):
        Factorization(1, ((f, 0),))
    g = SparsePoly.from_dense(ctx, [1, 2])  # not monic
    with pytest.raises(ValueError):
        Factorization(1, ((g, 1),))


def test_large_field_rejected():
    ctx = field(121)
    f = SparsePoly.from_dense(ctx, [1, 0, 1])
    with pytest.raises(QTooLarge):
        factorize(f)


def test_sorted_output_order():
    ctx = field(2)
    # x^6+...: product of x+1, x, x^2+x+1, sorted by (degree, coeffs)
    x = SparsePoly.from_dense(ctx, [0, 1])
    quad = SparsePoly.from_dense(ctx, [1, 1, 1])
    f = quad * x * SparsePoly.from_dense(ctx, [1, 1])
    fac = factorize(f)
    assert dense_factors(fac) == [([0, 1], 1), ([1, 1], 1), ([1, 1, 1], 1)]
