import random
from itertools import islice

import pytest

import ffzeta.factor
from conftest import count_calls, field, rand_monic
from ffzeta import (Factorization, InternalCheckError, OperatorKind,
                    QTooLarge, SquareMatrix, ZeroConstantTerm,
                    admissible_basis, factorize, irreducibles_up_to,
                    kernel_basis, op_matrix, trial_factorize)
from ffzeta.factor import (_coprime_split, _prime_power_root, _refine,
                           _splitters)
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
    assert str(Factorization(1, ())) == "1"


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
    # one fixed space cuts f into its primary components, one piece per
    # basis vector, for every operator
    ctx = field(3)
    for kind in OperatorKind:
        rng = random.Random(33)
        done = 0
        while done < 40:
            f = rand_monic(ctx, rng, rng.randrange(3, 9), nonzero_const=True)
            basis = [h.to_dense() for h in admissible_basis(f, kind)]
            if len(basis) < 2:
                continue
            done += 1
            pieces = _refine(ctx, f.to_dense(), basis)
            assert len(pieces) == len(basis)
            prod = [1]
            for i, s in enumerate(pieces):
                assert 0 < len(s) - 1 < f.degree()
                assert all(dense_gcd(ctx, s, t) == [1] for t in pieces[:i])
                root = _prime_power_root(ctx, s)
                power = [1]
                while len(power) < len(s):
                    power = dense_mul(ctx, power, root)
                assert power == s
                prod = dense_mul(ctx, prod, s)
            assert prod == f.to_dense()


def test_refine_stalls_on_a_one_dimensional_fixed_space():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1, 1])  # (x+1)^3 over F_2
    basis = [h.to_dense() for h in admissible_basis(f)]
    assert len(basis) == 1
    assert _refine(ctx, f.to_dense(), basis) == [f.to_dense()]


# per field, the largest degree of a random irreducible factor: each input
# is a product of up to three powers h^k, k <= 3, so deg f <= 24, and
# q^(deg f / 2) <= 10^6, the bound of the sieve the corpus was drawn for
PRODUCT_FIELDS = {2: 8, 3: 6, 4: 4, 5: 4, 7: 3, 8: 3, 9: 3, 16: 2, 25: 2}


def _rand_irreducible(ctx, rng, d):
    while True:
        h = rand_monic(ctx, rng, d).to_dense()
        if dense_is_irreducible(ctx, h):
            return h


def _rand_product(ctx, rng):
    """1-3 random monic irreducibles, x among them a quarter of the time,
    each to a power 1, 2, 3, p or 2p, with deg f <= 24 and
    q^(deg f / 2) <= 10^6."""
    while True:
        f = [0, 1] if rng.random() < 0.25 else [1]
        for _ in range(rng.randint(1, 3)):
            h = _rand_irreducible(ctx, rng,
                                  rng.randint(1, PRODUCT_FIELDS[ctx.q]))
            for _ in range(rng.choice((1, 2, 3, ctx.p, 2 * ctx.p))):
                f = dense_mul(ctx, f, h)
        if len(f) <= 25 and ctx.q ** ((len(f) - 1) // 2) <= 10 ** 6:
            return SparsePoly.from_dense(ctx, f)


def _factorize_once(f, kind, monkeypatch):
    """factorize(f, kind), asserting that it builds one operator matrix
    and one kernel."""
    counts = count_calls(monkeypatch, ("op_matrix", "kernel_basis"))
    fac = factorize(f, kind)
    assert counts == {"op_matrix": 1, "kernel_basis": 1}
    monkeypatch.undo()
    return fac


@pytest.mark.parametrize("q", sorted(PRODUCT_FIELDS))
def test_products_of_prime_powers_match_trial_division(q, monkeypatch):
    # every operator refines every input from the one fixed space of f
    ctx = field(q)
    rng = random.Random("products/%d" % q)
    for _ in range(50):
        f = _rand_product(ctx, rng)
        want = dense_factors(trial_factorize(f))
        for kind in OperatorKind:
            if kind == OperatorKind.PSI_MUL and not f.constant_term():
                continue
            assert dense_factors(_factorize_once(f, kind, monkeypatch)) \
                == want


# inputs on which the splitters b_1, b_1 - c*b_j and b_j alone, the first
# 1 + (r-1)(q-1) + (r-1) of them, leave two components in one piece, as
# the first vector of the differential operators' basis vanishes on some
# components; little-endian codes, in which t is the code p
@pytest.mark.parametrize("q,stalls,coeffs", [
    (9, OperatorKind.NIEDERREITER, [4, 1, 4, 3, 7, 1]),
    (3, OperatorKind.NIEDERREITER, [0, 1, 1, 2, 0, 2, 1]),
    (4, OperatorKind.NIEDERREITER, [0, 0, 3, 0, 0, 0, 2, 1]),
    (4, OperatorKind.PSI_MUL, [2, 2, 2, 1, 1, 1]),
    (4, OperatorKind.PSI_MUL, [3, 1, 0, 3, 1, 1, 1, 1]),
    (4, OperatorKind.PSI_MUL, [2, 2, 3, 1, 1, 3, 1, 0, 1]),
    (3, OperatorKind.PSI_MUL, [2, 1, 0, 2, 1, 1, 0, 2, 2, 0, 1]),
], ids=["niederreiter-9", "niederreiter-3", "niederreiter-4", "psi-4a",
        "psi-4b", "psi-4c", "psi-3"])
def test_later_pairs_split_what_the_first_vector_cannot(q, stalls, coeffs,
                                                        monkeypatch):
    # (x+t)(x+t+1)(x^3+x+2t) over F_9, x(x+1)^2(x^3+2x+1) over F_3 and
    # x^2(x+1)(x+t+1)(x^3+(t+1)x+1) over F_4 for Niederreiter; the rest
    # for psi.  The pairs b_k - c*b_l, 2 <= k < l, finish the cut from
    # the same fixed space
    ctx = field(q)
    f = SparsePoly.from_dense(ctx, coeffs)
    want = dense_factors(trial_factorize(f))
    basis = [h.to_dense() for h in admissible_basis(f, stalls)]
    pieces = [f.to_dense()]
    for h in islice(_splitters(ctx, basis), 1 + (len(basis) - 1) * q):
        pieces = [part for piece in pieces
                  for part in _coprime_split(ctx, piece, h) or (piece,)]
    assert len(pieces) < len(basis) == len(want)
    for kind in OperatorKind:
        if kind == OperatorKind.PSI_MUL and not f.constant_term():
            continue
        assert dense_factors(_factorize_once(f, kind, monkeypatch)) == want


# per field, the largest degree of a random irreducible factor, past the
# fields checked against trial_factorize above
LARGE_FIELDS = {27: 3, 32: 3, 49: 2, 64: 2}


@pytest.mark.parametrize("q", sorted(LARGE_FIELDS))
def test_large_fields_agree_across_operators(q, monkeypatch):
    # Frobenius's factors are certified irreducible and multiply back to
    # f; Niederreiter and psi must give the same factors
    ctx = field(q)
    rng = random.Random("large/%d" % q)
    for _ in range(10):
        f = [1]
        for _ in range(rng.randint(2, 3)):
            h = _rand_irreducible(ctx, rng, rng.randint(1, LARGE_FIELDS[q]))
            for _ in range(rng.choice((1, 2, ctx.p))):
                f = dense_mul(ctx, f, h)
        f = SparsePoly.from_dense(ctx, f)
        fac = _factorize_once(f, OperatorKind.FROBENIUS, monkeypatch)
        assert fac.expand() == f
        assert all(dense_is_irreducible(ctx, g.to_dense())
                   for g, _ in fac.factors)
        for kind in (OperatorKind.NIEDERREITER, OperatorKind.PSI_MUL):
            if kind == OperatorKind.PSI_MUL and not f.constant_term():
                continue
            assert dense_factors(_factorize_once(f, kind, monkeypatch)) \
                == dense_factors(fac)


def _same_twice(ctx, g, h):
    cut = _coprime_split(ctx, g, h)
    return cut and (cut[0], cut[0])


def _whole_twice(ctx, g, h):
    return _coprime_split(ctx, g, h) and (g, g)


def _never(ctx, g, h):
    return None


@pytest.mark.parametrize("split,coeffs,message", [
    # x (x+1)^2: two equal pieces, then one distinct factor for r = 2
    (_same_twice, [0, 1, 0, 1], "1 distinct factors from a fixed space of "
                                "dimension 2"),
    # x (x+1) (x^4+x+1): each cut doubles its piece, past r = 3
    (_whole_twice, [0, 1, 0, 1, 0, 1, 1], "4 coprime pieces from a fixed "
                                          "space of dimension 3"),
    # x (x+1)^2: no cut at all leaves one piece for r = 2
    (_never, [0, 1, 0, 1], "1 coprime pieces from a fixed space of "
                           "dimension 2"),
], ids=["same-twice", "whole-twice", "never"])
def test_a_broken_cut_trips_the_soundness_checks(split, coeffs, message,
                                                 monkeypatch):
    # a cut that does not split its piece into coprime parts leaves the
    # distinct factors short of the fixed-space dimension, or makes more
    # pieces than it, and one that never cuts leaves fewer; each raises,
    # under python -O too
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, coeffs)
    monkeypatch.setattr(ffzeta.factor, "_coprime_split", split)
    with pytest.raises(InternalCheckError, match=message):
        factorize(f)


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
        h = _rand_irreducible(ctx, rng, deg)
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


def test_factorization_orders_its_factors():
    # by degree, then by coefficients from the top, whatever the order
    # given; so two orders of the same factors are one value
    ctx = field(3)
    given = [([2, 0, 1], 1), ([1, 1], 2), ([0, 1], 1), ([1, 0, 1], 3),
             ([2, 1], 1)]
    want = [([0, 1], 1), ([1, 1], 2), ([2, 1], 1), ([1, 0, 1], 3),
            ([2, 0, 1], 1)]
    for order in (given, given[::-1]):
        fac = Factorization(2, tuple((SparsePoly.from_dense(ctx, g), m)
                                     for g, m in order))
        assert dense_factors(fac) == want
    assert fac == Factorization(2, tuple(
        (SparsePoly.from_dense(ctx, g), m) for g, m in want))


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
