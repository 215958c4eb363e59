"""End-to-end acceptance suite.

One test per criterion; each line of `pytest -v` output is one verdict.
Corpora are seeded, so failures reproduce exactly.  The time budgets are
asserted, not just wished for.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import ffzeta
from conftest import field, mul_by_x_matrix, rand_monic, rand_poly_mv
from ffzeta import (InternalCheckError, OperatorKind, SquareMatrix,
                    charpoly_reverse, congruence_charpoly, count_points,
                    degree_profile, factorize, hyper_matrix_mod_p,
                    kernel_basis, make_galois_ring, op_matrix, torus_zeta,
                    trial_factorize, zeta_coeffs_exact, zeta_mod_p,
                    zeta_mod_pm)
from ffzeta.poly import SparsePoly

FIELDS = (2, 3, 4, 5, 9)
PER_FIELD = 500


@lru_cache(maxsize=None)
def corpus(q):
    """500 monic f with f(0) != 0, deg 2..12, plus oracle factorizations."""
    ctx = field(q)
    rng = random.Random(10_000 + q)
    out = []
    for _ in range(PER_FIELD):
        f = rand_monic(ctx, rng, rng.randrange(2, 13), nonzero_const=True)
        out.append((f, trial_factorize(f).factors))
    return out


def one_minus_t_power_product(p, degrees):
    out = [1]
    for d in degrees:
        nxt = [0] * (len(out) + d)
        for j, c in enumerate(out):
            nxt[j] = (nxt[j] + c) % p
            nxt[j + d] = (nxt[j + d] - c) % p
        out = nxt
    return out


def random_hypersurface(ctx, rng, n, dmax):
    while True:
        f = rand_poly_mv(ctx, rng, n, rng.randrange(1, dmax + 1))
        if f.degree() >= 1:
            return f


def test_criterion_1_charpoly_triple_congruence():
    start = time.perf_counter()
    for q in FIELDS:
        p = field(q).p
        for f, oracle_factors in corpus(q):
            cps = [congruence_charpoly(f, kind) for kind in OperatorKind]
            assert cps[0] == cps[1] == cps[2], f
            want = one_minus_t_power_product(
                p, [g.degree() for g, _ in oracle_factors])
            want += [0] * (len(cps[0]) - len(want))
            assert cps[0] == want, f
    assert time.perf_counter() - start < 60


def test_criterion_2_fixed_space_dimensions():
    for q in FIELDS:
        ctx = field(q)
        for f, oracle_factors in corpus(q):
            d = f.degree()
            s = [0] * d
            for g, _ in oracle_factors:
                s[g.degree() - 1] += 1
            M = op_matrix(f, OperatorKind.FROBENIUS)
            ident = SquareMatrix.identity(ctx, d)
            assert len(kernel_basis(M - ident)) == sum(s), f
            P = ident
            for j in range(1, d + 1):
                P = P @ M
                dim = len(kernel_basis(P - ident))
                assert dim == sum(math.gcd(i + 1, j) * s[i]
                                  for i in range(d)), (f, j)
            for kind in OperatorKind:
                fixed = op_matrix(f, kind) - ident
                assert len(kernel_basis(fixed)) == sum(s), f


def test_criterion_3_operator_conjugacy():
    for q in FIELDS:
        for f, _ in corpus(q):
            md = op_matrix(f, OperatorKind.NIEDERREITER)
            mg = op_matrix(f, OperatorKind.PSI_MUL)
            mx = mul_by_x_matrix(f)
            # mx is invertible, so this is md = mx^-1 mg mx
            assert kernel_basis(mx) == [], f
            assert mx @ md == mg @ mx, f


def test_criterion_4_factorization_suite():
    start = time.perf_counter()
    for q in FIELDS:
        for f, oracle_factors in corpus(q):
            per_kind = [factorize(f, kind).factors for kind in OperatorKind]
            assert per_kind[0] == per_kind[1] == per_kind[2], f
            assert per_kind[0] == oracle_factors, f
            prod = SparsePoly.one(f.ctx)
            for g, mult in per_kind[0]:
                prod = prod * g ** mult
            assert prod == f
    assert time.perf_counter() - start < 120


def test_criterion_5_affine_zeta_matches_oracle():
    start = time.perf_counter()
    cells = [  # (q, n, dmax, B) with q^(B*n) <= 10^8
        (2, 1, 6, 20), (2, 2, 4, 11), (3, 2, 3, 6),
        (2, 3, 3, 7), (4, 2, 3, 5),
    ]
    for q, n, dmax, B in cells:
        assert q ** (B * n) <= 10 ** 8
        ctx = field(q)
        rng = random.Random(q * 1000 + n * 100 + dmax)
        for _ in range(50):
            f = random_hypersurface(ctx, rng, n, dmax)
            got = zeta_mod_p(f, n, B, max(f.degree(), n))
            counts = [count_points(f, k) for k in range(1, B + 1)]
            exact = zeta_coeffs_exact(counts, B)
            assert list(got.coeffs) == [c % ctx.p for c in exact], f
    assert time.perf_counter() - start < 600


def test_criterion_6_torus_zeta_mod_prime_powers():
    start = time.perf_counter()
    cells = [  # (p, m, q, n, dmax)
        (2, 2, 2, 1, 3), (2, 2, 2, 2, 2), (3, 2, 3, 1, 2), (2, 3, 2, 1, 2),
    ]
    B = 4
    for p, m, q, n, dmax in cells:
        ctx = field(q)
        assert ctx.p == p
        rng = random.Random(p * 317 + m * 41 + n)
        pm = p ** m
        for _ in range(25):
            f = random_hypersurface(ctx, rng, n, dmax)
            got = zeta_mod_pm(f, m, B)
            counts = [count_points(f, k, "torus") for k in range(1, B + 1)]
            exact = zeta_coeffs_exact(counts, B)
            assert list(got.coeffs) == [c % pm for c in exact], (f, m)
    assert time.perf_counter() - start < 600


def test_criterion_7_micro_goldens_reestablished():
    ctx = field(2)
    f = SparsePoly.from_dense(ctx, [1, 1, 1])
    M = hyper_matrix_mod_p(f)
    assert M.to_rows() == [[1, 1], [0, 1]]
    det = charpoly_reverse(M)
    assert det == [1, 0, 1]
    # oracle: 1/Z mod 2 for the same variety must equal that det
    counts = [count_points(f, k) for k in range(1, 3)]
    z = zeta_coeffs_exact(counts, 2)
    inv = [1, -z[1], z[1] * z[1] - z[2]]  # series inverse through T^2
    assert [c % 2 for c in inv] == det

    ctx3 = field(3)
    g = SparsePoly.from_dense(ctx3, [2, 0, 1])  # x^2 - 1
    got = [(h.to_dense(), mult) for h, mult in factorize(g).factors]
    assert got == [([1, 1], 1), ([2, 1], 1)]
    assert got == [(h.to_dense(), mult)
                   for h, mult in trial_factorize(g).factors]

    assert list(torus_zeta(1, 2, 2, 4).coeffs) == [1, 1, 2]
    # oracle: torus point counts of the full 1-torus over F_2
    full = SparsePoly(ctx, 1)
    torus_counts = [count_points(full, k, "torus") for k in (1, 2)]
    assert torus_counts == [1, 3]
    assert [c % 4 for c in zeta_coeffs_exact(torus_counts, 2)] == [1, 1, 2]


def test_criterion_8_internal_assertions_silent():
    checked = 0
    try:
        for q in (2, 3, 4, 9):
            ctx = field(q)
            rng = random.Random(q * 999)
            for _ in range(40):
                f = rand_monic(ctx, rng, rng.randrange(2, 10),
                               nonzero_const=True)
                for kind in OperatorKind:
                    congruence_charpoly(f, kind)  # F_p containment check
                    checked += 1
                degree_profile(f)  # integral nonnegative solve
                checked += 1
        for q, n in ((2, 1), (2, 2), (3, 1), (4, 2)):
            ctx = field(q)
            rng = random.Random(q * 131 + n)
            ring = make_galois_ring(ctx, 2) if q in (2, 3) else None
            for _ in range(15):
                f = random_hypersurface(ctx, rng, n, 3)
                B = 4
                zeta_mod_p(f, n, B, max(f.degree(), n))  # stability + F_p
                checked += 1
                if ring is not None:
                    zeta_mod_pm(f, 2, B)  # stability + Z/p^m containment
                    checked += 1
                counts = [count_points(f, k) for k in range(1, B + 1)]
                zeta_coeffs_exact(counts, B)  # integrality
                checked += 1
    except InternalCheckError as exc:  # pragma: no cover
        raise AssertionError("internal soundness check fired: %r" % exc)
    assert checked > 500


# run by the test below in-process and under `python -O`
_SWEEP = """
import json
import sys

from ffzeta import (CoefficientOutsidePrimeField, OperatorKind, SparsePoly,
                    congruence_charpoly, degree_profile, make_field,
                    make_galois_ring, split_prime_power, zeta_mod_p,
                    zeta_mod_pm)


def sweep(univariate, hypersurfaces):
    out = []
    for q, dense in univariate:
        f = SparsePoly.from_dense(make_field(*split_prime_power(q)), dense)
        out.append([congruence_charpoly(f, kind) for kind in OperatorKind])
        out.append(list(degree_profile(f)))
    for q, n, terms in hypersurfaces:
        ctx = make_field(*split_prime_power(q))
        f = SparsePoly(ctx, n, {tuple(u): c for u, c in terms})
        d = max(f.degree(), n)
        out.append(list(zeta_mod_p(f, n, 4, d).coeffs))
        out.append(list(zeta_mod_pm(f, 2, 3, d).coeffs))
    return out


def forced_violation_raises():
    ring = make_galois_ring(make_field(2), 2)
    try:
        ring.prime_subring([ring.pm], "zeta")
    except CoefficientOutsidePrimeField:
        return True
    return False


if __name__ == "__main__":
    cases = json.load(sys.stdin)
    print(json.dumps({"optimize": sys.flags.optimize,
                      "sweep": sweep(*cases),
                      "raised": forced_violation_raises()}))
"""


def test_criterion_8_checks_survive_python_O():
    # python -O strips assert statements: the sweep must give the same
    # answers there, and a violated check must still raise
    univariate, hypersurfaces = [], []
    for q in (2, 3, 4):
        ctx = field(q)
        rng = random.Random(q * 808)
        for _ in range(4):
            f = rand_monic(ctx, rng, rng.randrange(2, 8), nonzero_const=True)
            univariate.append((q, f.to_dense()))
        for n in (1, 2):
            f = random_hypersurface(ctx, rng, n, 2)
            hypersurfaces.append((q, n, sorted(f.terms.items())))
    src = str(Path(ffzeta.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-O", "-c", _SWEEP],
                         input=json.dumps([univariate, hypersurfaces]),
                         capture_output=True, text=True, env=env,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["optimize"] == 1
    assert got["raised"] is True
    here = {}
    exec(_SWEEP, here)
    want = here["sweep"](univariate, hypersurfaces)
    assert len(want) == 2 * (len(univariate) + len(hypersurfaces)) == 36
    assert got["sweep"] == json.loads(json.dumps(want))
    assert here["forced_violation_raises"]()


def _time_zeta(ctx, f, n, d, repeats):
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            zeta_mod_p(f, n, d + 1, d)
        dt = (time.perf_counter() - t0) / repeats
        best = dt if best is None else min(best, dt)
    return best


def test_criterion_9_runtime_smoke_and_scaling():
    ctx = field(2)
    rng = random.Random(424242)
    # full pipeline on a degree-4 trivariate stays interactive
    while True:
        f = rand_poly_mv(ctx, rng, 3, 4)
        if f.degree() == 4:
            break
    t0 = time.perf_counter()
    zeta_mod_p(f, 3, 8, 4)
    assert time.perf_counter() - t0 < 10

    # doubling the degree bound scales polynomially (slope in log-log)
    times = []
    for d in (2, 4, 8):
        terms = {(d - 1, 1): 1, (1, 1): 1, (0, 0): 1}
        g = SparsePoly(ctx, 2, terms)
        assert g.degree() == d
        reference = _time_zeta(ctx, g, 2, d, 1)
        repeats = max(1, int(0.02 / max(reference, 1e-6)))
        times.append(_time_zeta(ctx, g, 2, d, repeats))
    slope = (math.log(times[2]) - math.log(times[0])) / \
        (math.log(8) - math.log(2))
    assert slope < 6, times
