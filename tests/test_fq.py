import itertools
import random
import time

import numpy as np
import pytest

from conftest import CHARPOLY_CONTEXTS, count_calls
from ffzeta import (CoefficientOutsidePrimeField, CompositeP,
                    InvariantViolation, ReducibleModulus, TooLarge, fq,
                    irreducibles_up_to, make_field, make_galois_ring,
                    split_prime_power)
from ffzeta.poly import dense_is_irreducible


def test_split_prime_power():
    assert split_prime_power(2) == (2, 1)
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(13) == (13, 1)
    assert split_prime_power(7 ** 3) == (7, 3)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError):
            split_prime_power(bad)


def test_split_prime_power_of_large_primes():
    assert split_prime_power(10000019 ** 2) == (10000019, 2)
    assert split_prime_power((2 ** 61 - 1) ** 3) == (2 ** 61 - 1, 3)
    assert split_prime_power(2 ** 89) == (2, 89)
    for bad in (10000019 * 10000079, 10000019 ** 2 * 2, 2 ** 61 - 2):
        with pytest.raises(ValueError):
            split_prime_power(bad)


def test_primality_matches_trial_division():
    small = [f for f in range(2, 448) if all(f % g for g in range(2, f))]
    want = [n >= 2 and all(n % f for f in small if f * f <= n)
            for n in range(200000)]
    assert [fq._is_prime(n) for n in range(200000)] == want


def test_primality_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not fq._is_prime(3215031751)
    assert not fq._is_prime(3825123056546413051)
    assert fq._is_prime(2 ** 61 - 1)
    assert not fq._is_prime((2 ** 31 - 1) * (2 ** 19 - 1))


def test_composite_characteristic_rejected():
    for bad in (1, 4, 6, 9, 15):
        with pytest.raises(CompositeP):
            make_field(bad)


def test_prime_above_the_miller_rabin_bound_is_refused():
    # the bases decide primality only below fq._MR_BOUND
    with pytest.raises(TooLarge, match="Miller-Rabin"):
        make_field(2 ** 89 - 1)
    assert split_prime_power(2 ** 89) == (2, 89)


def test_cached_field_skips_the_primality_test(monkeypatch):
    ctx = make_field(2999)
    calls = count_calls(monkeypatch, ["_is_prime"])
    assert make_field(2999) is ctx
    assert calls["_is_prime"] == 0


@pytest.mark.parametrize("p", [0, 1, 4])
def test_characteristic_checked_before_a_supplied_modulus(p):
    with pytest.raises(CompositeP):
        make_field(p, 1, [1, 1])


@pytest.mark.parametrize("fn,args", [
    (make_field, (2, 0)),
    (make_galois_ring, (make_field(2), 0)),
], ids=["extension-degree-0", "precision-0"])
def test_argument_checks(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


def test_reducible_modulus_rejected():
    # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 0, 1])
    # t^2 - 1 over F_3
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, [2, 0, 1])
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 1])  # degree mismatch
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [1, 1, 0])  # not monic


def test_default_modulus_is_least_irreducible():
    # sieve order within one degree is the same coefficient order the
    # constructor minimizes, so the default must be the first hit
    for p, e in ((2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (3, 5),
                 (5, 2), (5, 3), (7, 3), (13, 2)):
        ctx = make_field(p, e)
        base = make_field(p)
        first = next(g for g in irreducibles_up_to(base, e)
                     if g.degree() == e)
        assert list(ctx.modulus) == first.to_dense()


# the default modulus of F_(2^e) is t^e + r(t); r's bit mask for each e,
# found by the search over coefficient lists
BINARY_MODULI = {
    2: 0x3, 3: 0x3, 4: 0x3, 5: 0x5, 6: 0x3, 7: 0x3, 8: 0x1b, 9: 0x3, 10: 0x9,
    11: 0x5, 12: 0x9, 13: 0x1b, 14: 0x21, 15: 0x3, 16: 0x2b, 17: 0x9, 18: 0x9,
    19: 0x27, 20: 0x9, 21: 0x5, 22: 0x3, 23: 0x21, 24: 0x1b, 25: 0x9,
    26: 0x1b, 27: 0x27, 28: 0x3, 29: 0x5, 30: 0x3, 31: 0x9, 32: 0x8d,
    33: 0x4b, 34: 0x1b, 35: 0x5, 36: 0x35, 37: 0x3f, 38: 0x63, 39: 0x11,
    40: 0x39, 41: 0x9, 42: 0x27, 43: 0x59, 44: 0x21, 45: 0x1b, 46: 0x3,
    47: 0x21, 48: 0x2d, 49: 0x71, 50: 0x1d, 51: 0x4b, 52: 0x9, 53: 0x47,
    54: 0x7d, 55: 0x47, 56: 0x95, 57: 0x11, 58: 0x63, 59: 0x7b, 60: 0x3,
    61: 0x27, 62: 0x69, 63: 0x3, 64: 0x1b, 100: 0x65, 128: 0x87, 200: 0x2d,
}


def test_default_moduli_of_binary_fields_are_pinned():
    for e, r in BINARY_MODULI.items():
        modulus = make_field(2, e).modulus
        assert sum(b << i for i, b in enumerate(modulus)) == 1 << e | r, e


@pytest.mark.parametrize("p", [p for p in range(2, 65) if fq._is_prime(p)])
def test_irreducibility_test_matches_the_sieve(p):
    # every monic polynomial of degree e with p^e <= 4096, against the
    # oracle's sieve, which shares no code with the Ben-Or test
    base = make_field(p)
    top = max(e for e in range(1, 13) if p ** e <= 4096)
    sieve = {tuple(g.to_dense()) for g in irreducibles_up_to(base, top)}
    for e in range(1, top + 1):
        for c in itertools.product(range(p), repeat=e):
            f = list(c) + [1]
            assert dense_is_irreducible(base, f) == (tuple(f) in sieve), f


def _clear_contexts():
    """Empty the caches of fields, their tables and rings, so that the next
    build starts from nothing."""
    for build in (fq._field, fq._canonical_field, fq._vector_kit,
                  fq.make_galois_ring):
        build.cache_clear()


def test_large_fields_build_in_under_a_second():
    # the modulus check grows polynomially in e and log p, not in p^(e/2)
    _clear_contexts()
    t0 = time.perf_counter()
    assert make_field(2, 36).q == 2 ** 36
    assert make_field(2147483647, 2).modulus == (1, 0, 1)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25])
def test_fermat_and_inverses(q):
    ctx = make_field(*split_prime_power(q))
    for a in range(ctx.size):
        assert ctx.pow(a, q) == a
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.frob(ctx.p if ctx.e > 1 else 1) == ctx.pow(
        ctx.p if ctx.e > 1 else 1, ctx.p)


@pytest.mark.parametrize("q", [4, 9, 27])
def test_field_axioms_random(q):
    ctx = make_field(*split_prime_power(q))
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b),
                                                    ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))


def test_encode_coeffs_roundtrip():
    ctx = make_field(3, 3)
    for a in range(ctx.q):
        assert ctx.encode(ctx.coeffs(a)) == a


@pytest.mark.parametrize("q,m", [(2, 2), (2, 3), (3, 2), (4, 2), (9, 2)])
def test_galois_ring_reduction_homomorphism(q, m):
    ctx = make_field(*split_prime_power(q))
    ring = make_galois_ring(ctx, m)
    assert [c % ctx.p for c in ring.modulus] == list(ctx.modulus)
    rng = random.Random(100 * q + m)
    for _ in range(300):
        a = rng.randrange(ring.size)
        b = rng.randrange(ring.size)
        assert ring.to_field(ring.mul(a, b)) == ctx.mul(ring.to_field(a),
                                                        ring.to_field(b))
        assert ring.to_field(ring.add(a, b)) == ctx.add(ring.to_field(a),
                                                        ring.to_field(b))


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (4, 3)])
def test_galois_ring_units(q, m):
    ctx = make_field(*split_prime_power(q))
    ring = make_galois_ring(ctx, m)
    for a in range(ring.size):
        unit = ring.to_field(a) != 0
        assert ring.is_unit(a) == unit
        if unit:
            assert ring.mul(a, ring.inv(a)) == 1


def test_galois_ring_lift_roundtrip():
    ctx = make_field(2, 2)
    ring = make_galois_ring(ctx, 3)
    for a in range(ctx.size):
        assert ring.to_field(ring.from_field(a)) == a


@pytest.mark.parametrize("p,e,m", [(2, 2, 2), (2, 3, 2), (2, 2, 3),
                                   (3, 2, 2), (5, 2, 2), (3, 3, 3),
                                   (2, 4, 4), (2, 1, 3), (3, 1, 2)])
def test_galois_ring_frobenius(p, e, m):
    field = make_field(p, e)
    ring = make_galois_ring(field, m)
    rng = random.Random(100 * p + 10 * e + m)
    for _ in range(200):
        a, b = rng.randrange(ring.size), rng.randrange(ring.size)
        fa = ring.frob(a)
        assert ring.frob(ring.add(a, b)) == ring.add(fa, ring.frob(b))
        assert ring.frob(ring.mul(a, b)) == ring.mul(fa, ring.frob(b))
        # sigma reduces mod p to the field's a -> a^p
        assert ring.to_field(fa) == field.frob(ring.to_field(a))
        x = a
        for _ in range(e):
            x = ring.frob(x)
        assert x == a
        if e == 1:
            assert fa == a
    for a in range(field.size):
        assert ring.to_field(ring.frob(ring.from_field(a))) == field.frob(a)
    for c in range(ring.pm):
        assert ring.frob(c) == c


def test_galois_ring_frobenius_checks_its_root(monkeypatch):
    # Newton's iteration from 0 instead of t^p reaches no root of
    # t^2 + t + 1 mod 4, and the check raises rather than asserts; the
    # ring's pow forms only that start, and sigma is built with the ring
    field = make_field(2, 2)
    monkeypatch.setattr(fq.GaloisRing, "pow", lambda self, a, n: 0)
    with pytest.raises(InvariantViolation):
        fq.GaloisRing(field, 2)


def test_a_field_without_a_generator_is_an_invariant_violation(monkeypatch):
    # the units of a finite field form a cyclic group, so a search that
    # finds no generator is a fault of the program; with 1 as the one
    # prime factor of q - 1, every unit fails it
    monkeypatch.setattr(fq, "_factorize_int", lambda n: {1: 1})
    with pytest.raises(InvariantViolation, match="no generator"):
        make_field(5)._find_generator()


def test_a_degree_without_an_irreducible_is_an_invariant_violation(
        monkeypatch):
    # an irreducible of every degree exists over every F_p
    monkeypatch.setattr(fq, "dense_is_irreducible", lambda ctx, c: False)
    with pytest.raises(InvariantViolation, match="no irreducible"):
        fq._lex_least_modulus(2, 3)


# every charpoly context (F_9 among them) and F_16, F_27, as (p, e, m)
FROBENIUS_CONTEXTS = [c[:3] for c in CHARPOLY_CONTEXTS] + [(2, 4, 1),
                                                          (3, 3, 1)]


@pytest.mark.parametrize("p,e,m", FROBENIUS_CONTEXTS)
def test_frobenius_on_planes_is_the_scalar_frobenius(p, e, m):
    # one digit matrix applied to a (L, 10, 20) stack, on int64 and on
    # Python-integer planes, against frob code by code
    ctx = make_galois_ring(make_field(p, e), m)
    rng = random.Random("%d/%d/%d" % (p, e, m))
    codes = np.array([[rng.randrange(ctx.size) for _ in range(20)]
                      for _ in range(10)], dtype=object)
    want = [[ctx.frob(a) for a in row] for row in codes.tolist()]
    planes = ctx._to_planes(codes, 1)
    for stack in (planes, planes.astype(object)):
        got = ctx._frob_planes(stack)
        assert got.dtype == stack.dtype
        assert ctx._from_planes(got).tolist() == want


@pytest.mark.parametrize("p,e,m", FROBENIUS_CONTEXTS)
def test_field_frobenius_is_the_pth_power(p, e, m):
    field = make_field(p, e)
    rng = random.Random("%d/%d" % (p, e))
    for a in [0, 1, p - 1] + [rng.randrange(field.q) for _ in range(100)]:
        assert field.frob(a) == field.pow(a, p)
        assert field.pow(field.frob(a), field.q // p) == a


@pytest.mark.parametrize("ctx", [make_field(3, 2),
                                 make_galois_ring(make_field(2, 2), 2)])
def test_prime_subring_holds_the_codes_below_pm(ctx):
    assert ctx.prime_subring(iter(range(ctx.pm)), "test") == \
        list(range(ctx.pm))
    bad = [ctx.pm] + ([3] if ctx.q == 9 else [])  # on F_9, 3 is t
    for c in bad:
        with pytest.raises(CoefficientOutsidePrimeField):
            ctx.prime_subring([0, c], "test")


def test_field_cache_returns_same_context():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(5) is make_field(5, 1)


# -- tables against GaloisRing's arithmetic ----------------------------------

def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            out.append(split_prime_power(q))
        except ValueError:
            pass
    return out


# the reference: GaloisRing's own arithmetic, which FiniteField's table
# paths override
ADD, NEG, MUL = fq.GaloisRing.add, fq.GaloisRing.neg, fq.GaloisRing.mul


def _generic_pow(ctx, a, n):
    r = 1
    while n:
        if n & 1:
            r = MUL(ctx, r, a)
        a = MUL(ctx, a, a)
        n >>= 1
    return r


def _check_pair(ctx, a, b):
    assert ctx.add(a, b) == ADD(ctx, a, b)
    assert ctx.sub(a, b) == ADD(ctx, a, NEG(ctx, b))
    assert ctx.mul(a, b) == MUL(ctx, a, b)


def _check_element(ctx, a, exponents):
    assert ctx.neg(a) == NEG(ctx, a)
    for n in exponents:
        assert ctx.pow(a, n) == _generic_pow(ctx, a, n)
    if ctx.is_unit(a):
        assert MUL(ctx, a, ctx.inv(a)) == 1
        assert ctx.pow(a, -1) == ctx.inv(a)
    if ctx.m == 1:
        assert ctx.frob(a) == _generic_pow(ctx, a, ctx.p)
        assert ctx.pow(ctx.frob(a), ctx.q // ctx.p) == a


def _check_exhaustive(ctx):
    els = range(ctx.size)
    for a in els:
        assert [ctx.add(a, b) for b in els] == [ADD(ctx, a, b) for b in els]
        assert [ctx.sub(a, b) for b in els] == \
            [ADD(ctx, a, NEG(ctx, b)) for b in els]
        assert [ctx.mul(a, b) for b in els] == [MUL(ctx, a, b) for b in els]
        _check_element(ctx, a, (0, 1, 2, 3, ctx.size - 1, ctx.size + 1))


@pytest.mark.parametrize("p,e", _prime_powers(256))
def test_field_tables_match_generic_arithmetic(p, e):
    _check_exhaustive(make_field(p, e))


def test_field_tables_nondefault_modulus():
    ctx = make_field(3, 2, [2, 2, 1])
    assert ctx.modulus != make_field(3, 2).modulus
    _check_exhaustive(ctx)


@pytest.mark.parametrize("p,e,m", [(2, 2, 2), (2, 2, 3), (2, 2, 4),
                                   (2, 3, 2), (2, 4, 2), (3, 2, 2),
                                   (2, 1, 5), (3, 1, 3), (5, 1, 2)])
def test_ring_arithmetic_matches_digit_planes(p, e, m):
    # a ring runs GaloisRing's arithmetic itself: check it against the
    # plane product and the digit planes, which share none of its scalar
    # code
    ring = make_galois_ring(make_field(p, e), m)
    assert ring.size <= 256
    codes = np.arange(ring.size, dtype=np.int64)
    digits = ring._to_planes(codes, 1)
    products = fq._digit_product(ring, codes, codes).tolist()
    sums = ring._from_planes((digits[:, :, None] + digits[:, None])
                             % ring.pm).tolist()
    negatives = ring._from_planes(-digits % ring.pm).tolist()
    els = range(ring.size)
    for a in els:
        assert [ring.mul(a, b) for b in els] == products[a]
        assert [ring.add(a, b) for b in els] == sums[a]
        assert ring.neg(a) == negatives[a]
        _check_element(ring, a, (0, 1, 2, 3, ring.size - 1, ring.size + 1))


def test_a_field_is_the_galois_ring_with_m_1():
    # make_galois_ring(F, 1) is F itself, with the ring's surface: F is
    # its own residue field, so the reduction and the lift are the
    # identity, and the units are the nonzero elements
    for F in (make_field(2), make_field(3, 2), make_field(2, 15),
              make_field(3001)):
        assert make_galois_ring(F, 1) is F
        assert isinstance(F, fq.GaloisRing)
        assert (F.m, F.pm, F.field) == (1, F.p, F)
        for a in [0, 1, F.q - 1] + list(range(2, F.q, F.q // 50 + 1)):
            assert F.to_field(a) == a
            assert F.from_field(a) == a
            assert F.is_unit(a) == (a != 0)


def test_prime_field_past_the_tables_is_integer_arithmetic():
    # F_50021 has no tables, so its scalar ops are GaloisRing's integer path
    F = make_field(50021)
    p = F.p
    assert F.vector_kit() is None
    rng = random.Random(50021)
    pairs = [(0, 0), (0, p - 1), (p - 1, p - 1), (1, p - 1)] + \
        [(rng.randrange(p), rng.randrange(p)) for _ in range(2000)]
    for a, b in pairs:
        assert F.add(a, b) == (a + b) % p
        assert F.sub(a, b) == (a - b) % p
        assert F.neg(a) == -a % p
        assert F.mul(a, b) == a * b % p
        assert F.pow(a, b) == pow(a, b, p)
        if a:
            assert F.inv(a) == pow(a, -1, p)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_galois_rings_of_625_and_1024_elements_build_fast():
    # GR(5^2, 2) and GR(2^5, 2): construction does no work quadratic in
    # the ring's size; best of three builds from emptied caches
    for p, e in ((2, 5), (5, 2)):
        best = float("inf")
        for _ in range(3):
            _clear_contexts()
            start = time.perf_counter()
            ring = make_galois_ring(make_field(p, e), 2)
            best = min(best, time.perf_counter() - start)
        assert ring.size == p ** (2 * e)
        assert best < 0.02, (p, e, best)


@pytest.mark.parametrize("p,e", [(2, 10), (3, 6), (5, 4), (3, 7), (2, 14)])
def test_large_field_arithmetic_random_pairs(p, e):
    ctx = make_field(p, e)
    rng = random.Random(p ** e)
    for _ in range(1000):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        _check_pair(ctx, a, b)
        _check_element(ctx, a, (rng.randrange(1, 4 * ctx.q),))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4),
                                 (5, 2), (3, 3), (2, 8), (3, 5), (3, 7),
                                 (2999, 1), (2, 15), (7, 5), (3, 9),
                                 (2, 17), (2, 22)])
def test_vector_kit_matches_scalar_ops(p, e):
    ctx = make_field(p, e)
    kit = ctx.vector_kit()
    rng = np.random.default_rng(ctx.q)
    if ctx.q <= 64:
        grid = np.arange(ctx.q, dtype=np.int64)
        a, b = (x.ravel() for x in np.meshgrid(grid, grid))
    else:
        a, b = rng.integers(0, ctx.q, (2, 5000))
        a[:50] = 0
        b[25:75] = 0
    pairs = list(zip(a.tolist(), b.tolist()))
    # the powers of the generator are every unit once
    assert np.array_equal(np.sort(kit.exp[:ctx.q - 1]), np.arange(1, ctx.q))
    # above the list threshold scalar ops run the generic arithmetic
    prod = kit.exp[kit.log[a] + kit.log[b]]
    assert prod.tolist() == [ctx.mul(x, y) for x, y in pairs]
    assert kit.add(a, b).tolist() == [ctx.add(x, y) for x, y in pairs]
    assert kit.sub(a, b).tolist() == [ctx.sub(x, y) for x, y in pairs]


def test_vector_kit_absent_above_the_caps():
    # the caps are 2^22 for p = 2 and 5 * 10^4 for odd p, both above the
    # order up to which a field keeps list copies of its tables
    assert fq._LIST_CAP <= min(fq._P2_VECTOR_CAP, fq._ODD_VECTOR_CAP)
    for p, e in ((3, 10), (5, 7), (2, 24), (50021, 1)):
        assert make_field(p, e).vector_kit() is None
    for p, e in ((3, 9), (5, 6), (7, 5), (49999, 1), (2, 22)):
        assert make_field(p, e).vector_kit() is not None


def test_contexts_build_in_well_under_a_second():
    # no set-up cost may grow quadratically in the size of the context
    _clear_contexts()
    builds = [lambda: make_field(3, 6),
              lambda: make_galois_ring(make_field(2, 2), 5),
              lambda: make_galois_ring(make_field(3, 2), 3)]
    for build in builds:
        t0 = time.perf_counter()
        ctx = build()
        assert time.perf_counter() - t0 < 1.0, ctx
