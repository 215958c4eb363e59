import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffzeta.poly
from conftest import (count_calls, field, poly_pow_reference,
                      product_reference, rand_poly_mv, rand_poly_uni)
from ffzeta import SizeLimit, make_field, make_galois_ring
from ffzeta.fq import GaloisRing
from ffzeta.poly import (SparsePoly, dense_divmod, dense_gcd, dense_mul,
                         dense_powmod, dense_translate, dense_trim, poly_pow)


def horner(ctx, a, x):
    acc = 0
    for c in reversed(a):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def dense_power(ctx, h, k):
    out = [1]
    for _ in range(k):
        out = dense_mul(ctx, out, h)
    return out


def test_canonical_form_no_zero_terms():
    ctx = field(3)
    rng = random.Random(0)
    for _ in range(100):
        f = rand_poly_mv(ctx, rng, 2, 3)
        g = rand_poly_mv(ctx, rng, 2, 3)
        assert all(c != 0 for c in (f * g).terms.values())


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_degree_multiplicative_over_field(q):
    ctx = field(q)
    rng = random.Random(q)
    for _ in range(60):
        f = rand_poly_mv(ctx, rng, 2, rng.randrange(1, 4))
        g = rand_poly_mv(ctx, rng, 2, rng.randrange(1, 4))
        assert (f * g).degree() == f.degree() + g.degree()


def plus(f, g):
    """f + g, term by term."""
    terms = dict(f.terms)
    for u, c in g.terms.items():
        terms[u] = f.ctx.add(terms.get(u, 0), c)
    return SparsePoly(f.ctx, f.nvars, terms)


def test_ring_arithmetic_small_identities():
    ctx = field(5)
    rng = random.Random(5)
    for _ in range(60):
        f = rand_poly_mv(ctx, rng, 2, 2)
        g = rand_poly_mv(ctx, rng, 2, 2)
        h = rand_poly_mv(ctx, rng, 2, 2)
        assert f * g == g * f
        assert plus(f, g) * h == plus(f * h, g * h)
        assert f * (g * h) == (f * g) * h


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_psi_inverts_frobenius(q):
    ctx = field(q)
    rng = random.Random(q + 17)
    for _ in range(40):
        h = rand_poly_uni(ctx, rng, 3).to_dense()
        assert dense_power(ctx, h, q)[::q] == h


@pytest.mark.parametrize("q", [2, 3, 4])
def test_psi_commutes_past_qth_powers(q):
    ctx = field(q)
    rng = random.Random(q + 29)
    for _ in range(30):
        f = rand_poly_uni(ctx, rng, 2).to_dense()
        h = rand_poly_uni(ctx, rng, 2 * q).to_dense()
        fqh = dense_mul(ctx, dense_power(ctx, f, q), h)
        assert dense_trim(fqh[::q]) == dense_mul(ctx, f, h[::q])


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_gcd_divides_and_lcm_identity(q):
    ctx = field(q)
    rng = random.Random(q + 11)
    for _ in range(60):
        a = rand_poly_uni(ctx, rng, 6).to_dense()
        b = rand_poly_uni(ctx, rng, 6).to_dense()
        g = dense_gcd(ctx, a, b)
        assert g[-1] == 1
        ga, ra = dense_divmod(ctx, a, g)
        gb, rb = dense_divmod(ctx, b, g)
        assert ra == [] and rb == []
        # (a*b)/g is a common multiple of both arguments
        lcm, r = dense_divmod(ctx, dense_mul(ctx, a, b), g)
        for h in (a, b):
            _, rem = dense_divmod(ctx, lcm, h)
            assert rem == []


def test_frobenius_mod_worked_cases():
    # h^q mod f, the columns of the Frobenius operator matrix
    ctx2 = field(2)
    assert dense_powmod(ctx2, [0, 1], ctx2.q, [1, 1, 1]) == [1, 1]
    ctx3 = field(3)
    f3 = [2, 0, 1]  # x^2 - 1
    assert dense_powmod(ctx3, [0, 1], ctx3.q, f3) == [0, 1]
    assert dense_powmod(ctx3, [1], ctx3.q, f3) == [1]


def test_dense_translate_round_trip_and_evaluation():
    ctx = field(9)
    rng = random.Random(99)
    for _ in range(40):
        f = rand_poly_uni(ctx, rng, 6)
        c = rng.randrange(9)
        shifted = dense_translate(ctx, f.to_dense(), c)
        back = dense_translate(ctx, shifted, ctx.neg(c))
        assert back == f.to_dense()
        x = rng.randrange(9)
        assert horner(ctx, shifted, x) == horner(
            ctx, f.to_dense(), ctx.add(x, c))


def test_poly_pow_work_cap_refuses_before_multiplying(monkeypatch):
    f = SparsePoly(field(2), 3, {u: 1 for u in itertools.product(
        range(4), repeat=3) if sum(u) <= 3})
    assert len(f.terms) == 20
    assert poly_pow(f, 1) == f
    monkeypatch.setattr(ffzeta.poly, "_MAX_WORK", 20 * 20 - 1)
    counts = count_calls(monkeypatch, ("_capped_product",))
    monkeypatch.setattr(SparsePoly, "__mul__", None)   # no product may run
    with pytest.raises(SizeLimit, match="400 term pairs"):
        poly_pow(f, 2)
    assert counts == {"_capped_product": 1}


# (p, e, m): F_2, F_9, GR(2^2, 2), and Z/32749^3, whose elementwise plane
# products pass int64 and so run on Python integers
PRODUCT_CONTEXTS = [(2, 1, 1), (3, 2, 1), (2, 2, 2), (32749, 1, 3)]


@pytest.mark.parametrize("p,e,m", PRODUCT_CONTEXTS)
def test_product_matches_the_term_pair_loop(p, e, m):
    ctx = make_galois_ring(make_field(p, e), m)
    rng = random.Random(p * 100 + e * 10 + m)
    for _ in range(40):
        n = rng.randrange(0, 4)
        f, g = ({tuple(rng.randrange(4) for _ in range(n)):
                 rng.randrange(ctx.size) for _ in range(rng.randrange(7))}
                for _ in range(2))
        got = SparsePoly(ctx, n, f) * SparsePoly(ctx, n, g)
        assert got == SparsePoly(ctx, n, product_reference(ctx, f, g))


def test_products_that_cancel_to_zero():
    # over Z/8: 4x * 2y is 8xy = 0, and (2 + 2x)(4 + 4x) = 8(1 + x)^2 = 0;
    # no zero term is kept
    ring = make_galois_ring(field(2), 3)
    assert (SparsePoly(ring, 2, {(1, 0): 4})
            * SparsePoly(ring, 2, {(0, 1): 2})).is_zero()
    a = SparsePoly.from_dense(ring, [2, 2])
    assert (a * SparsePoly.from_dense(ring, [4, 4])).terms == {}
    # and in no variables, 2 * 4 over Z/8
    assert (SparsePoly.constant(ring, 2, 0)
            * SparsePoly.constant(ring, 4, 0)).terms == {}


def test_product_past_int64_keys():
    # radix 2 * 1000 + 1 in each of six variables multiplies to about
    # 6.4 * 10^19 > 2^63: the keys are Python integers
    ctx = field(3)
    rng = random.Random(63)
    f, g = ({tuple(rng.choice((0, 1, 999, 1000)) for _ in range(6)):
             rng.randrange(1, 3) for _ in range(8)} for _ in range(2))
    f[(1000,) * 6] = g[(1000,) * 6] = 1
    assert math.prod([2001] * 6) >= 2 ** 63
    got = SparsePoly(ctx, 6, f) * SparsePoly(ctx, 6, g)
    assert got.terms == product_reference(ctx, f, g)
    assert max(map(max, got.terms)) == 2000


def test_product_work_cap_refuses_before_any_plane_product(monkeypatch):
    f = SparsePoly(field(2), 3, {u: 1 for u in itertools.product(
        range(4), repeat=3) if sum(u) <= 3})
    calls = []
    mul_planes = GaloisRing._mul_planes

    def counted(self, *args):
        calls.append(args[0])
        return mul_planes(self, *args)
    monkeypatch.setattr(GaloisRing, "_mul_planes", counted)
    assert len((f * f).terms) > 0 and len(calls) == 1
    monkeypatch.setattr(ffzeta.poly, "_MAX_WORK", 20 * 20 - 1)
    with pytest.raises(SizeLimit, match="400 term pairs"):
        f * f
    assert len(calls) == 1


# (q, m): F_2, F_3, F_4, F_9, Z/4, Z/27 and GR(2^2, 2)
POW_CONTEXTS = [(2, 1), (3, 1), (4, 1), (9, 1), (2, 2), (3, 3), (4, 2)]


@st.composite
def pow_case(draw):
    q, m = draw(st.sampled_from(POW_CONTEXTS))
    ctx = make_galois_ring(field(q), m)
    n = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        u = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        terms[u] = draw(st.integers(0, ctx.size - 1))
    return SparsePoly(ctx, n, terms), draw(st.integers(0, 9))


@settings(max_examples=200, deadline=None)
@given(pow_case())
def test_poly_pow_matches_the_dict_loop_reference(case):
    f, k = case
    assert poly_pow(f, k) == poly_pow_reference(f, k)


def test_poly_pow_past_int64_keys():
    # radix (6049, 6049, 1009, 1009, 1009, 1009) multiplies to about
    # 3.8 * 10^19 > 2^63: the keys are Python integers; (a + b)^(p - 1) =
    # sum_j (-1)^j a^j b^(p-1-j) mod p, as C(p - 1, j) = (-1)^j mod p
    ctx = field(1009)
    a, b = (6, 1, 1, 1, 1, 1), (1, 6, 1, 1, 1, 1)
    f = SparsePoly(ctx, 6, {a: 1, b: 1})
    radix = [1008 * max(col) + 1 for col in zip(a, b)]
    assert math.prod(radix) >= 2 ** 63
    assert ffzeta.poly._pack([a, b], radix).dtype == object
    want = {tuple(j * x + (1008 - j) * y for x, y in zip(a, b)): (-1) ** j % 1009
            for j in range(1009)}
    assert poly_pow(f, 1008).terms == want


def test_poly_pow_over_a_field_with_codes_past_int64():
    # F_(2^64) keeps int64 digit planes, but its codes reach 2^64 - 1
    ctx = make_field(2, 64)
    rng = random.Random(5)
    f = SparsePoly(ctx, 2, {(rng.randrange(4), rng.randrange(4)):
                            rng.randrange(2 ** 63, 2 ** 64) for _ in range(5)})
    assert poly_pow(f, 3) == poly_pow_reference(f, 3)


def reduce_mod_p(f):
    """A polynomial over a Galois ring, reduced termwise to its field."""
    ring = f.ctx
    return SparsePoly(ring.field, f.nvars,
                      {u: ring.to_field(c) for u, c in f.terms.items()})


def test_lift_and_reduce_round_trip():
    ctx = field(4)
    ring = make_galois_ring(ctx, 2)
    rng = random.Random(4)
    for _ in range(30):
        f = rand_poly_mv(ctx, rng, 2, 3)
        lifted = f.lift_to(ring)
        assert reduce_mod_p(lifted) == f
    # products reduce compatibly
    f = rand_poly_mv(ctx, rng, 2, 2)
    g = rand_poly_mv(ctx, rng, 2, 2)
    assert reduce_mod_p(f.lift_to(ring) * g.lift_to(ring)) == f * g


def test_degree_of_zero_poly():
    ctx = field(2)
    assert SparsePoly(ctx, 1).degree() == -1
    assert SparsePoly.one(ctx).degree() == 0
