import functools
import itertools
import math
import random
import types

import numpy as np
import pytest

from conftest import (count_calls, count_scalar_reference, field,
                      rand_monic, rand_poly_mv)
from ffzeta import (InvariantViolation, NonIntegralCoefficient,
                    RingNotField, TooLarge, count_points, count_vector,
                    degree_profile, irreducibles_up_to, make_galois_ring,
                    trial_factorize, zeta_coeffs_exact, zerodim_zeta)
from ffzeta import fq, oracle
from ffzeta.oracle import (CountVector, _batch_mul_fixed, _batch_remainders,
                           _field_tables)
from ffzeta.poly import SparsePoly, dense_is_irreducible, dense_mul


def mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_counts_match_scalar_reference(q):
    ctx = field(q)
    rng = random.Random(q * 3)
    for _ in range(10):
        n = rng.randrange(1, 3)
        f = rand_poly_mv(ctx, rng, n, rng.randrange(1, 4))
        k = rng.randrange(1, 3)
        if ctx.q ** (k * n) > 10 ** 4:
            k = 1
        for domain in ("affine", "torus"):
            assert count_points(f, k, domain) == \
                count_scalar_reference(f, k, domain)


def test_affine_torus_border_cases():
    ctx = field(2)
    zero = SparsePoly(ctx, 2)
    assert count_points(zero, 2, "affine") == 16
    assert count_points(zero, 2, "torus") == 9
    one = SparsePoly.one(ctx, 2)
    assert count_points(one, 3) == 0
    # in zero variables the one point is the empty tuple
    for domain in ("affine", "torus"):
        for k in (1, 2):
            assert count_points(SparsePoly(ctx, 0), k, domain) == 1
            assert count_points(SparsePoly.one(ctx, 0), k, domain) == 0


def test_vanishing_everywhere_counts_every_point():
    # x^2 + x is the zero function on F_2, though not the zero polynomial
    f = SparsePoly.from_dense(field(2), [0, 1, 1])
    assert count_points(f) == 2
    assert count_points(f, 1, "torus") == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_exponents_fold_below_the_field_order(q):
    # x^u = x^(u + Q-1) on F_Q for u >= 1, while 0^0 = 1 and 0^u = 0
    ctx = field(q)
    rng = random.Random(q * 37)
    for _ in range(10):
        n = rng.randrange(1, 3)
        k = rng.randrange(1, 3) if q ** (2 * n) <= 100 else 1
        Q = q ** k
        terms = {tuple(rng.randrange(3 * Q) for _ in range(n)):
                 rng.randrange(1, q) for _ in range(rng.randrange(1, 4))}
        f = SparsePoly(ctx, n, terms)
        u = rng.choice(sorted(terms))
        i = rng.randrange(n)
        v = u[:i] + (u[i] + Q - 1,) + u[i + 1:]
        if u[i] == 0 or v in terms:
            continue
        g = SparsePoly(ctx, n, {**terms, v: terms[u]})
        del g.terms[u]
        for domain in ("affine", "torus"):
            count = count_points(f, k, domain)
            assert count == count_scalar_reference(f, k, domain)
            assert count_points(g, k, domain) == count
    # sparse in x_n: 2Q-2 and Q+1 fold to Q-1 and 2, which leave gaps past
    # 1, with and without a constant, whose x_n^0 = 1 holds at x_n = 0;
    # over F_4, F_8 and F_9 the coefficient a lies outside F_p
    a = q - 1
    for n in (1, 2):
        k = 2 if n == 1 or q <= 3 else 1
        Q = q ** k
        outer, x1 = (0,) * (n - 1), (1,) * (n - 1)
        for terms in ({outer + (2 * Q - 2,): a, x1 + (Q + 1,): 1,
                       outer + (0,): 1},
                      {outer + (2 * Q - 2,): 1, x1 + (Q + 1,): a}):
            f = SparsePoly(ctx, n, terms)
            for domain in ("affine", "torus"):
                assert count_points(f, k, domain) == \
                    count_scalar_reference(f, k, domain)


def test_horner_steps_once_per_gap_between_exponents_present():
    # over F_1024, at every element, 0 included: one exp lookup per step
    # down from an exponent present, none for those f lacks, and no step
    # from the exponent 0
    big = field(2 ** 10)
    kit = big.vector_kit()
    for coeffs, steps in (({1000: 1, 1: 1, 0: 1}, 2), ({1000: 5, 3: 7}, 2),
                          ({0: 3}, 0)):
        reads = []

        class Exp:
            def __getitem__(self, idx):
                reads.append(idx)
                return kit.exp[idx]
        counting = types.SimpleNamespace(exp=Exp(), log=kit.log, add=kit.add)
        got = oracle._horner_vec(counting, coeffs, kit.log)
        assert len(reads) == steps
        want = []
        for x in range(big.q):
            acc = 0
            for e, c in coeffs.items():
                acc = big.add(acc, big.mul(c, big.pow(x, e) if e else 1))
            want.append(acc)
        assert np.broadcast_to(got, (big.q,)).tolist() == want


def _grid_cases(ctx, rng, n, Q):
    """Polynomials in n >= 2 variables that stress the outer grid over F_Q:
    no last-variable term, only last-variable terms, outer monomials that
    vanish where a coordinate is 0, terms that cancel once exponents fold
    below Q, and a random one."""
    def c():
        return rng.randrange(1, ctx.q)
    zero = (0,) * (n - 1)
    first, last = (1,) + zero[1:], zero[1:] + (1,)
    no_last = {(1,) * (n - 1) + (0,): c(), (2,) + zero: c(), zero + (0,): c()}
    only_last = {zero + (j,): c() for j in (0, 1, 3)}
    vanish = {first + (2,): c(), last + (1,): c(),
              (2,) * (n - 1) + (0,): c(), zero + (0,): c()}
    # x_1^Q x_2..x_n folds onto x_1..x_n, and x_n^(Q+1) onto x_n^2
    cancel = dict(rand_poly_mv(ctx, rng, n, 2).terms)
    for u, v in (((1,) * n, (Q,) + (1,) * (n - 1)),
                 (zero + (2,), zero + (Q + 1,))):
        a = c()
        cancel[u], cancel[v] = a, ctx.neg(a)
    return [SparsePoly(ctx, n, t) for t in (no_last, only_last, vanish,
                                            cancel)] + \
        [rand_poly_mv(ctx, rng, n, 3)]


@pytest.mark.parametrize("q,n,k", [(2, 2, 3), (2, 3, 2), (2, 3, 3),
                                   (3, 2, 2), (3, 3, 2), (4, 2, 2),
                                   (4, 3, 2), (9, 2, 2)])
def test_grid_counts_match_scalar_reference(q, n, k, monkeypatch):
    # k >= 2, so over F_4 and F_9 the F_16 and F_81 embeddings run; the
    # second pass cuts the outer grid into chunks of a row count that does
    # not divide it
    ctx = field(q)
    Q = q ** k
    rng = random.Random(q * 100 + n * 10 + k)
    for f in _grid_cases(ctx, rng, n, Q):
        for domain in ("affine", "torus"):
            want = count_scalar_reference(f, k, domain)
            assert count_points(f, k, domain) == want
            lo = int(domain == "torus")
            side = Q - lo
            rows = next(r for r in itertools.count(2)
                        if side ** (n - 1) % r)
            assert rows < side ** (n - 1)
            # the Horner axis holds one value per Frobenius orbit
            orbits = len(oracle._frobenius_orbits(Q, q, k, lo)[0])
            with monkeypatch.context() as m:
                m.setattr(oracle, "_CHUNK", rows * orbits)
                assert count_points(f, k, domain) == want


def test_grid_runs_one_horner_pass_per_chunk(monkeypatch):
    # a cubic over F_2 in three variables at k = 7: 2^14 outer points, and
    # a Horner axis of 20 orbits: 0, 1 and 18 of size 7
    ctx = field(2)
    f = SparsePoly(ctx, 3, {(3, 0, 0): 1, (1, 1, 1): 1, (0, 2, 1): 1,
                            (0, 0, 3): 1, (0, 1, 0): 1, (0, 0, 0): 1})
    calls = count_calls(monkeypatch, ["_horner_vec"])
    count_points(f, 7)
    orbits = len(oracle._frobenius_orbits(2 ** 7, 2, 7, 0)[0])
    assert orbits == 20
    rows = oracle._CHUNK // orbits
    assert 0 < calls["_horner_vec"] <= math.ceil(2 ** 14 / rows)


def _necklaces(q, d):
    """Monic irreducibles of degree d over F_q."""
    return sum(mobius(d // e) * q ** e for e in range(1, d + 1)
               if d % e == 0) // d


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_frobenius_orbits_match_a_walk(q):
    # every F_Q with Q = q^k <= 2^14 and k <= 6, whose scalar ops read
    # tables: walk x, x^q, x^(q^2), ... from every element
    for k in range(1, 7):
        Q = q ** k
        if Q > 2 ** 14:
            continue
        F = field(Q)
        exp = F.vector_kit().exp
        orbit = {}
        for x in range(Q):
            if x in orbit:
                continue
            walk = [x]
            while F.pow(walk[-1], q) != x:
                walk.append(F.pow(walk[-1], q))
            for y in walk:
                orbit[y] = walk
        for lo in (0, 1):
            logs, sizes = oracle._frobenius_orbits(Q, q, k, lo)
            reps = [int(exp[lg]) for lg in logs]
            # one element of each orbit, and 0 exactly on the affine domain
            assert sorted(x for x in range(lo, Q) if x == min(orbit[x])) \
                == sorted(min(orbit[x]) for x in reps)
            assert [len(orbit[x]) for x in reps] == sizes.tolist()
            # an orbit of size d holds the roots of one monic irreducible
            # of degree d | k; x is the one with root 0
            assert len(reps) == sum(_necklaces(q, d) for d in
                                    range(1, k + 1) if k % d == 0) - lo


def test_frobenius_orbits_check_their_sizes():
    # Q = 16 is not 2^3: three steps of l -> 2l mod 15 leave the orbit of
    # 1 open, and the sizes no longer add up to Q
    with pytest.raises(InvariantViolation, match="Frobenius orbits"):
        oracle._frobenius_orbits(16, 2, 3, 0)


def test_frobenius_orbits_are_built_once_per_field_and_domain():
    # x_1 + 2 in two variables enumerates at every k: F_3, F_9, ..., F_243
    # each build their orbits once, and a second count vector rebuilds none
    f = SparsePoly(field(3), 2, {(1, 0): 1, (0, 0): 2})
    oracle._frobenius_orbits.cache_clear()
    first = count_vector(f, 5)
    info = oracle._frobenius_orbits.cache_info()
    assert (info.misses, info.currsize) == (5, 5)
    assert count_vector(f, 5) == first
    again = oracle._frobenius_orbits.cache_info()
    assert again.misses == 5 and again.hits > info.hits


def test_cached_arrays_are_read_only():
    # every later call shares what a cache hands out, so no caller may
    # write into it: the orbit tables, the sieve rows, a field's tables on
    # p = 2 and odd p, and the Frobenius digit matrix of a field and a ring
    F9, F16 = field(9), field(16)
    k2, k3 = F16.vector_kit(), F9.vector_kit()
    shared = [*oracle._frobenius_orbits(9, 3, 2, 1),
              oracle._irreducible_rows(field(3), 3),
              oracle._irreducible_rows(F9, 2), k2.exp, k2.log, k3.exp,
              k3.log, k3.neg, k3.wide, k3.red, F16._sigma,
              fq.make_galois_ring(F9, 2)._sigma]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # the embedding of F_9 in F_81 hands out its powers as a tuple
    powers = oracle._embedding(F9, field(81))
    with pytest.raises(TypeError):
        powers[0] = 0


@pytest.mark.parametrize("q,n,k", [(4, 2, 2), (4, 3, 2), (4, 2, 3),
                                   (8, 2, 2), (8, 2, 3), (9, 2, 2),
                                   (9, 2, 3)])
def test_orbit_counts_with_coefficients_outside_the_prime_field(q, n, k):
    # x -> x^q fixes F_q but x -> x^p moves it, so with a coefficient
    # outside F_p only orbits under x^q give the count; past 10^4 grid
    # points the reference counts one domain only, for its time
    ctx = field(q)
    rng = random.Random(q * 1000 + n * 10 + k)
    f = rand_poly_mv(ctx, rng, n, 2)
    u = (1,) * n
    f = SparsePoly(ctx, n, {**f.terms, u: rng.randrange(ctx.p, q)})
    domains = ("affine", "torus")
    if (q ** k) ** n > 10 ** 4:
        domains = [domains[(n + k) % 2]]
    for domain in domains:
        assert count_points(f, k, domain) == \
            count_scalar_reference(f, k, domain)


def test_log_weight_sums_fit_int64():
    # the grid sums n-1 products e_i * log x_i, each at most (Q-1)^2, then
    # indexes the tables at up to 4(Q-1); every Q a tabulated field could
    # have, and every n >= 2 the enumeration cap allows with it
    cells = 0
    for Q in range(2, math.isqrt(oracle._MAX_ENUM) + 1):
        if Q > (fq._P2_VECTOR_CAP if Q % 2 == 0 else fq._ODD_VECTOR_CAP):
            continue
        n = 2
        while Q ** n <= oracle._MAX_ENUM:
            assert (n - 1) * (Q - 1) ** 2 + 4 * (Q - 1) < 2 ** 63
            cells += 1
            n += 1
    assert cells > 3000


@pytest.mark.parametrize("q,k", [(3001, 1), (3 ** 8, 1), (5 ** 5, 1),
                                 (9, 4), (3 ** 9, 1)])
def test_counts_on_the_largest_tables_match_scalar_reference(q, k,
                                                             monkeypatch):
    # large odd fields, counted on their tables: over F_9 at k = 4 the
    # tables also find the root that embeds F_9 in F_6561, and F_19683 is
    # the largest odd extension field that has them
    ctx = field(q)
    assert field(q ** k).vector_kit() is not None
    oracle._embedding.cache_clear()
    calls = count_calls(monkeypatch, ["trial_factorize", "_count_vectorized",
                                      "_find_root"])
    rng = random.Random(q + k)
    # x^4 - a^4 has the roots +-a; past 2^14 elements the reference runs
    # the generic digit arithmetic, so there only this sparse quartic is
    # counted
    a = rng.randrange(1, ctx.q)
    polys = [SparsePoly(ctx, 1, {(4,): 1, (0,): ctx.neg(ctx.pow(a, 4))})]
    if q ** k <= 2 ** 14:
        # a product of linear factors, so that there are roots to count;
        # of degree 5, past k, so that over F_9 at k = 4 it is enumerated
        # and the embedding runs
        split = [1]
        for _ in range(5):
            split = dense_mul(ctx, split, [rng.randrange(ctx.q), 1])
        polys += [SparsePoly.from_dense(ctx, split)] + \
            [rand_poly_mv(ctx, rng, 1, rng.randrange(1, 5))
             for _ in range(2)]
    for f in polys:
        for domain in ("affine", "torus"):
            assert count_points(f, k, domain) == \
                count_scalar_reference(f, k, domain)
    # a constant needs neither route; once per domain, deg f <= k is
    # counted from the factors and the rest by enumeration
    factored = sum(1 <= f.degree() <= k for f in polys)
    enumerated = sum(f.degree() > k for f in polys)
    assert calls == {"trial_factorize": 2 * factored,
                     "_count_vectorized": 2 * enumerated,
                     "_find_root": int(k > 1)}


def _irreducible(ctx, rng, d):
    while True:
        g = [rng.randrange(ctx.q) for _ in range(d)] + [1]
        if dense_is_irreducible(ctx, g):
            return g


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_factor_route_matches_scalar_reference(q, monkeypatch):
    # n = 1 and deg f <= k: x alone, which the torus leaves out, linear f
    # that need not be monic, the factor x, repeated factors, factors whose
    # degree does and does not divide k, and x^q - x, which vanishes on
    # F_q though it is not the zero polynomial
    ctx = field(q)
    rng = random.Random(q * 53)
    x, g2, g3 = [0, 1], _irreducible(ctx, rng, 2), _irreducible(ctx, rng, 3)
    line = [rng.randrange(q), 1]
    linear = [rng.randrange(q), rng.randrange(1, q)]

    def prod(*fs):
        return functools.reduce(lambda a, b: dense_mul(ctx, a, b), fs)
    cases = [(x, 1), (x, 2), (linear, 1), (linear, 3),
             (prod(x, g2), 3), (prod(x, g2), 4), (prod(line, line), 2),
             (prod(x, x, line, line), 4), (prod(g2, g2), 4),
             (prod(line, g3), 4), (prod(line, g3), 6),
             ([0, ctx.neg(1)] + [0] * (q - 2) + [1], q)]
    calls = count_calls(monkeypatch, ["trial_factorize", "_count_vectorized"])
    counted = 0
    for dense, k in cases:
        f = SparsePoly.from_dense(ctx, dense)
        assert 1 <= f.degree() <= k
        if field(q ** k).vector_kit() is None:
            # x^8 - x and x^9 - x at k >= q: past the table caps, refused
            # as before
            with pytest.raises(TooLarge, match="too large to tabulate"):
                count_points(f, k)
            continue
        if q ** k > 6561:
            continue                # past the scalar reference's budget
        for domain in ("affine", "torus"):
            assert count_points(f, k, domain) == \
                count_scalar_reference(f, k, domain)
            counted += 1
    assert counted >= 18
    assert calls == {"trial_factorize": counted, "_count_vectorized": 0}


def test_factor_route_needs_deg_f_at_most_k(monkeypatch):
    ctx = field(2)
    monkeypatch.setattr(oracle, "_count_vectorized", lambda *args: -1)
    calls = count_calls(monkeypatch, ["trial_factorize", "_count_vectorized"])
    # x^41 + x^3 + 1 at k = 21: trial division would sieve every degree up
    # to 20, about as many rows as the 2^21 points, so it is enumerated
    # (here by a stand-in that answers -1)
    irr = [1, 0, 0, 1] + [0] * 37 + [1]
    assert dense_is_irreducible(ctx, irr)
    assert count_points(SparsePoly.from_dense(ctx, irr), 21) == -1
    assert calls == {"trial_factorize": 0, "_count_vectorized": 1}
    # x (x + 1)^2 (x^3 + x + 1) at k = 6..20, K = 20 as in the benchmark's
    # sextic: counted from its factors alone
    f = SparsePoly.from_dense(ctx, dense_mul(ctx, [0, 1, 0, 1],
                                             [1, 1, 0, 1]))
    for k in range(6, 21):
        cubic = 3 * (k % 3 == 0)
        assert count_points(f, k) == 2 + cubic
        assert count_points(f, k, "torus") == 1 + cubic
    assert calls == {"trial_factorize": 30, "_count_vectorized": 1}


def test_fields_without_tables_count_one_variable():
    # with no tables a count is refused, for one variable too, unless f
    # folds to a constant, which needs no enumeration; these are the first
    # fields past the caps with p = 3, 5 and 2
    for p, e in ((3, 10), (5, 7), (2, 24)):
        F = field(p ** e)
        assert F.vector_kit() is None
        with pytest.raises(TooLarge, match="too large to tabulate"):
            count_points(SparsePoly.from_dense(F, [1, 1]))
        # x^Q = x on F_Q, so x^Q - x + 1 is the constant 1
        f = SparsePoly(F, 1, {(F.q,): 1, (1,): F.neg(1), (0,): 1})
        assert count_points(f) == count_points(f, 1, "torus") == 0


def test_scalar_cap_bounds_horner_steps(monkeypatch):
    # every Horner step runs on tables, so past the table caps none runs:
    # a count is refused before the root search that embeds F_q in F_Q
    # and before any enumeration
    calls = count_calls(monkeypatch, ["_find_root", "_horner_vec"])
    oracle._embedding.cache_clear()
    for q, k in ((9, 5), (25, 4), (5, 7), (16, 6), (4, 12)):
        f = SparsePoly.from_dense(field(q), [1, 1, 0, 1])
        assert field(q ** k).vector_kit() is None
        with pytest.raises(TooLarge, match="too large to tabulate"):
            count_points(f, k)
    assert calls == {"_find_root": 0, "_horner_vec": 0}


@pytest.mark.parametrize("q,k", [(9, 1), (3, 4), (3, 10), (9, 5)])
def test_a_nonzero_constant_counts_zero(q, k):
    # F_9 and F_81 have tables and F_59049 has none; either way a nonzero
    # constant vanishes nowhere, in no variables as well
    ctx = field(q)
    for n in (0, 1, 2):
        f = SparsePoly.constant(ctx, ctx.q - 1, n)
        for domain in ("affine", "torus"):
            if q ** (k * n) > oracle._MAX_ENUM:
                # Q^2 > 10^9 points: the enumeration cap refuses before
                # f is read
                with pytest.raises(TooLarge, match="enumeration cap"):
                    count_points(f, k, domain)
            else:
                assert count_points(f, k, domain) == 0


def test_a_modulus_without_a_root_is_an_invariant_violation(monkeypatch):
    # F_q embeds in every F_(q^k), so a modulus with no root there is a
    # fault of the program, not of the input
    monkeypatch.setattr(oracle, "_horner_vec",
                        lambda kit, coeffs, xlog: np.ones_like(xlog))
    oracle._embedding.cache_clear()
    f = SparsePoly(field(4), 2, {(1, 1): 1, (0, 0): 1})
    with pytest.raises(InvariantViolation, match="no root"):
        count_points(f, 2)


@pytest.mark.parametrize("fn", [count_points, trial_factorize])
def test_ring_input_is_refused_as_ring_not_field(fn):
    ring = make_galois_ring(field(3), 2)
    f = SparsePoly.from_dense(field(3), [1, 0, 1]).lift_to(ring)
    with pytest.raises(RingNotField):
        fn(f)


@pytest.mark.parametrize("fn,args,error", [
    (count_points, (SparsePoly.from_dense(field(2), [0, 1]), 1,
                    "projective"), ValueError),
    (count_points, (SparsePoly.from_dense(field(2), [0, 1]), 0),
     ValueError),
    (count_points, (SparsePoly.from_dense(field(2), [0, 1]), -3),
     ValueError),
    (zeta_coeffs_exact, ([1], 2), ValueError),
    (CountVector, (2, 1, "affine", (5,)), ValueError),
    (trial_factorize, (SparsePoly(field(2), 2, {(1, 1): 1}),), ValueError),
    (trial_factorize, (SparsePoly.from_dense(field(2), [1]),), ValueError),
    (trial_factorize,
     (SparsePoly.from_dense(field(49), [1] + [0] * 13 + [1]),), TooLarge),
], ids=["projective", "k=0", "k=-3", "short-counts", "impossible-count",
        "bivariate", "constant", "sieve-past-cap"])
def test_argument_checks(fn, args, error):
    with pytest.raises(error):
        fn(*args)


def test_exact_series_of_a_count_vector():
    # x over F_2: one point over every extension, Z = 1/(1 - T)
    assert zeta_coeffs_exact(CountVector(2, 1, "affine", (1, 1)), 2) == \
        [1, 1, 1]


def test_worked_counts():
    ctx = field(3)
    f = SparsePoly(ctx, 2, {(1, 1): 1, (0, 0): 1})  # xy + 1
    assert count_points(f, 1) == 2
    assert count_points(f, 1, "torus") == 2
    line = SparsePoly(ctx, 1, {(1,): 1})  # x = 0
    assert count_points(line, 1) == 1
    assert count_points(line, 1, "torus") == 0


def test_count_vector_refuses_its_largest_field_first(monkeypatch):
    # N_7 is over F_78125, which has no tables: it is counted first, so
    # no smaller k is counted before the refusal
    f = SparsePoly.from_dense(field(5), [1, 1])
    calls = []
    monkeypatch.setattr(oracle, "count_points", lambda f, k, domain:
                        calls.append(k) or count_points(f, k, domain))
    with pytest.raises(TooLarge, match="F_78125"):
        count_vector(f, 7)
    assert calls == [7]
    calls.clear()
    assert count_vector(f, 3).counts == (1, 1, 1)
    assert calls == [3, 2, 1]


def test_count_vector_shape():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1])
    cv = count_vector(f, 6)
    assert cv.q == 2 and cv.nvars == 1 and cv.domain == "affine"
    assert list(cv.counts) == [0, 2, 0, 2, 0, 2]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_zerodim_counts_from_degree_profile(q):
    # N_k = sum over d | k of d * s_d
    ctx = field(q)
    rng = random.Random(q * 5)
    for _ in range(15):
        d = rng.randrange(2, 9)
        f = rand_monic(ctx, rng, d)
        s = degree_profile(f)
        for k in range(1, 7):
            want = sum((i + 1) * s[i] for i in range(d) if k % (i + 1) == 0)
            assert count_points(f, k) == want


def test_zeta_coeffs_exact_recurrence():
    # affine line over F_2: Z = 1/(1-2T), coefficients 2^k
    assert zeta_coeffs_exact([2, 4, 8, 16], 4) == [1, 2, 4, 8, 16]
    # empty variety
    assert zeta_coeffs_exact([0, 0, 0], 3) == [1, 0, 0, 0]


def test_zeta_coeffs_exact_integrality_guard():
    with pytest.raises(NonIntegralCoefficient):
        zeta_coeffs_exact([1, 0], 2)


def test_zeta_series_round_trip_with_zerodim():
    ctx = field(3)
    rng = random.Random(77)
    for _ in range(10):
        d = rng.randrange(2, 8)
        f = rand_monic(ctx, rng, d)
        B = min(2 * d, 8)
        counts = [count_points(f, k) for k in range(1, B + 1)]
        assert zeta_coeffs_exact(counts, B) == zerodim_zeta(f).expand(B)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_necklace_counts(q):
    ctx = field(q)
    polys = irreducibles_up_to(ctx, 6)
    for D in range(1, 7):
        got = sum(1 for g in polys if g.degree() == D)
        want = sum(mobius(j) * q ** (D // j)
                   for j in range(1, D + 1) if D % j == 0) // D
        assert got == want


def test_sieve_order_is_degree_then_coefficients():
    ctx = field(2)
    first = [g.to_dense() for g in irreducibles_up_to(ctx, 3)]
    assert first == [[0, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1]]


def test_trial_factorize_matches_known():
    ctx = field(2)
    x = SparsePoly.from_dense(ctx, [0, 1])
    quad = SparsePoly.from_dense(ctx, [1, 1, 1])
    f = x ** 3 * SparsePoly.from_dense(ctx, [1, 1]) * quad ** 2
    fac = trial_factorize(f)
    assert [(g.to_dense(), m) for g, m in fac.factors] == \
        [([0, 1], 3), ([1, 1], 1), ([1, 1, 1], 2)]
    assert fac.expand() == f


def test_trial_factorize_nonmonic_unit():
    ctx = field(5)
    f = SparsePoly.from_dense(ctx, [3, 0, 2])  # 2(x^2 + 4)
    fac = trial_factorize(f)
    assert fac.unit == 2
    assert fac.expand() == f


def test_enumeration_cap():
    ctx = field(2)
    f = rand_poly_mv(ctx, random.Random(0), 3, 2)
    with pytest.raises(TooLarge):
        count_points(f, 11)
    with pytest.raises(TooLarge):
        count_points(f, 10, "torus")  # 2^30 points, over the cap


def test_sieve_cap():
    ctx = field(3)
    with pytest.raises(TooLarge):
        irreducibles_up_to(ctx, 15)  # 3^15, refused before any sieving


def test_trial_factorize_builds_the_sieve_only_as_far_as_it_reads():
    # once the degree-4 factor is out, what is left has degree 10, so the
    # loop stops after degree 5: degrees 6 and 7 (9^7 rows) are never built
    ctx = field(9)
    rng = random.Random(14)

    def irreducible(d):
        while True:
            c = [rng.randrange(9) for _ in range(d)] + [1]
            if dense_is_irreducible(ctx, c):
                return c

    g, h = irreducible(4), irreducible(10)
    oracle._irreducible_rows.cache_clear()
    fac = trial_factorize(SparsePoly.from_dense(ctx, dense_mul(ctx, g, h)))
    assert [(u.to_dense(), m) for u, m in fac.factors] == [(g, 1), (h, 1)]
    # five degrees built, and asking for degrees 1..5 again builds none:
    # the five are exactly those
    info = oracle._irreducible_rows.cache_info()
    assert (info.misses, info.currsize) == (5, 5)
    for d in range(1, 6):
        oracle._irreducible_rows(ctx, d)
    assert oracle._irreducible_rows.cache_info().misses == 5


def test_trial_factorize_past_the_old_table_order():
    # fields between 1024 and the odd-p cap run the sieve on log tables
    ctx = field(1031)
    # (x - 1)(x + 2)(x^2 - x + 3)
    f = SparsePoly.from_dense(ctx, [1025, 5, 0, 0, 1])
    fac = trial_factorize(f)
    assert [(g.to_dense(), m) for g, m in fac.factors] == \
        [([2, 1], 1), ([1030, 1], 1), ([3, 1030, 1], 1)]
    assert fac.expand() == f


def test_sieve_over_a_prime_field_past_the_table_cap():
    # F_50021 carries no field tables; prime fields sieve with int64 % p
    assert field(50021).vector_kit() is None
    assert len(irreducibles_up_to(field(50021), 1)) == 50021


def test_trial_factorize_over_a_prime_field_past_the_table_cap():
    ctx = field(50021)
    f = SparsePoly.from_dense(ctx, [6, 11, 6, 1])  # (x+1)(x+2)(x+3)
    fac = trial_factorize(f)
    assert [(g.to_dense(), m) for g, m in fac.factors] == [
        ([1, 1], 1), ([2, 1], 1), ([3, 1], 1)]


def test_prime_field_sieve_arithmetic_near_the_int64_bound():
    p = 2 ** 31 - 1
    ctx = field(p)
    rng = random.Random(3)
    rows = np.array([[rng.randrange(p), rng.randrange(p), 1]
                     for _ in range(20)], dtype=np.int64)
    fixed = [rng.randrange(p) for _ in range(4)]
    got = _batch_mul_fixed(ctx, None, rows, fixed)
    for row, out in zip(rows.tolist(), got.tolist()):
        want = [0] * 6
        for i, a in enumerate(row):
            for j, b in enumerate(fixed):
                want[i + j] = (want[i + j] + a * b) % p
        assert out == want
    mask, quo = _batch_remainders(ctx, None, got[0].tolist(), rows, 2)
    assert mask.tolist() == [True] + [False] * 19
    assert quo[0].tolist() == fixed
    assert _field_tables(ctx) is None
    with pytest.raises(TooLarge):  # p^2 would pass int64
        _field_tables(field(2 ** 31 + 11))


def test_sieve_needs_tables_for_extension_fields():
    ctx = field(3 ** 10)  # 59049 > 5 * 10^4, the odd-p table cap
    with pytest.raises(TooLarge):  # degree 1 needs the tables too
        irreducibles_up_to(ctx, 1)
    for dense in ([6, 11, 6, 1], [2, 0, 1]):
        with pytest.raises(TooLarge):
            trial_factorize(SparsePoly.from_dense(ctx, dense))
    # a linear polynomial needs no sieve
    fac = trial_factorize(SparsePoly.from_dense(ctx, [6, 1]))
    assert [(g.to_dense(), m) for g, m in fac.factors] == [([6, 1], 1)]
