"""The four seeded workloads: corpus, set-up, operations and checks.

A corpus is plain data made from the seed alone (exponent tuples and
coefficient codes), so the program receives only generated inputs.  Each
workload supplies

  corpus(seed)          -> list of plain items
  setup(ff, corpus)     -> builds every field, ring and table the
                           operations touch (timed as set-up)
  prepare(ff, corpus)   -> one zero-argument callable per item
  normalize(result)     -> plain, comparable data
  check(ff, corpus, answers) -> list of messages; empty when all answers
                           are right

Checks run outside the timed region and compare with independent
computations (the brute-force oracle, the reference arithmetic in
`plain.py`, closed forms) or with properties the method must have, never
with stored output.
"""

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import plain

# ---------------------------------------------------------------------------
# shared helpers


def split_q(q):
    for p in (2, 3, 5, 7):
        e = 0
        r = q
        while r % p == 0:
            r //= p
            e += 1
        if r == 1 and e:
            return p, e
    raise ValueError(q)


def monomials(n, d):
    return [u for u in itertools.product(range(d + 1), repeat=n)
            if sum(u) <= d]


def random_poly(rng, q, n, d, density):
    """Nonzero random coefficients on a random set of round(density * #)
    monomials of degree <= d, one of them of degree exactly d.  The term
    count is fixed by the cell, so the work varies little with the seed."""
    monos = monomials(n, d)
    top = [u for u in monos if sum(u) == d]
    lead = rng.choice(top)
    rest = [u for u in monos if u != lead]
    chosen = [lead] + rng.sample(rest, max(0, round(density * len(monos))
                                           - 1))
    return {u: rng.randrange(1, q) for u in chosen}


def poly_text(p, n, terms):
    """CLI syntax: extension coefficients are written in t."""
    names = ["x", "y", "z"][:n]
    parts = []
    for u in sorted(terms, reverse=True):
        code = terms[u]
        digits = []
        i = 0
        while code:
            digits.append((code % p, i))
            code //= p
            i += 1
        coeff = "+".join(
            str(c) if i == 0 else ("t" if c == 1 else "%d*t" % c)
            + ("^%d" % i if i > 1 else "")
            for c, i in reversed(digits) if c)
        if any(i for _, i in digits):
            coeff = "(%s)" % coeff
        mono = "*".join(v if e == 1 else "%s^%d" % (v, e)
                        for v, e in zip(names, u) if e)
        if not mono:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(mono)
        else:
            parts.append("%s*%s" % (coeff, mono))
    return " + ".join(parts)


def oracle_series(ff, F, terms, n, K, domain):
    f = ff.SparsePoly(F, n, terms)
    counts = [ff.count_points(f, k, domain) for k in range(1, K + 1)]
    return counts, ff.zeta_coeffs_exact(counts, K)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable
    setup: Callable
    prepare: Callable
    normalize: Callable
    check: Callable


# ---------------------------------------------------------------------------
# modp-dim: library zeta_mod_p on large bases over F_2 and F_3

# (q, n, d) -> dimension C(d, n) of the operator matrix
# The counts place the median operation (20th-21st of 40) inside the
# 91-dimensional q=2 cluster and op_tail_ms (the 30th) inside the
# 120-dimensional one, so that neither statistic sits on a boundary
# between cells of different cost.
MODP_CELLS = [
    ((2, 3, 8), 6),    # 56
    ((2, 2, 12), 5),   # 66
    ((3, 2, 12), 5),   # 66
    ((2, 3, 9), 2),    # 84
    ((2, 2, 14), 5),   # 91
    ((3, 2, 14), 4),   # 91
    ((3, 2, 15), 1),   # 105
    ((2, 2, 16), 5),   # 120
    ((2, 3, 10), 4),   # 120
    ((2, 2, 18), 3),   # 153
]
MODP_B = 4


def modp_corpus(seed):
    rng = random.Random("modp-dim/%d" % seed)
    out = []
    for (q, n, d), count in MODP_CELLS:
        for _ in range(count):
            out.append((q, n, random_poly(rng, q, n, d, 0.5)))
    return out


def modp_setup(ff, corpus):
    for q in sorted({item[0] for item in corpus}):
        ff.make_field(*split_q(q))


def modp_prepare(ff, corpus):
    ops = []
    for q, n, terms in corpus:
        f = ff.SparsePoly(ff.make_field(*split_q(q)), n, terms)
        ops.append(lambda f=f, n=n: ff.zeta_mod_p(f, n, MODP_B))
    return ops


def modp_normalize(series):
    return tuple(series.coeffs)


def modp_check(ff, corpus, answers):
    errors = []
    spotted = set()
    for idx, ((q, n, terms), got) in enumerate(zip(corpus, answers)):
        p, e = split_q(q)
        F = ff.make_field(p, e)
        counts, exact = oracle_series(ff, F, terms, n, MODP_B, "affine")
        want = tuple(c % p for c in exact)
        if got != want:
            errors.append("modp-dim op %d: series %s, oracle %s"
                          % (idx, got, want))
        # the oracle itself, against plain enumeration on the smallest
        # extension fields, once per (q, n)
        if (q, n) not in spotted:
            spotted.add((q, n))
            for k in range(1, 3 if q ** n > 4 else 4):
                plain_n = plain.count_plain(p, k, terms, n)
                if plain_n != counts[k - 1]:
                    errors.append("oracle N_%d = %d, plain count %d "
                                  "(modp-dim op %d)"
                                  % (k, counts[k - 1], plain_n, idx))
    return errors


MODP_DIM = Workload("modp-dim", modp_corpus, modp_setup, modp_prepare,
                    modp_normalize, modp_check)


# ---------------------------------------------------------------------------
# modpm-cli: the CLI run in-process, modpm on Galois rings and modp on
# extension fields

# ("modpm", q, n, m, d) cells, dimension C(d p^(m-1) + n, n), and
# ("modp", q, n, d) cells, dimension C(d, n)
CLI_CELLS = [
    (("modpm", 2, 2, 2, 3), 5),    # p^m = 4, dim 28
    (("modpm", 2, 2, 2, 4), 3),    # 45
    (("modpm", 2, 1, 3, 4), 4),    # p^m = 8, dim 17
    (("modpm", 2, 2, 3, 2), 3),    # 45
    (("modpm", 3, 2, 2, 2), 4),    # p^m = 9, dim 28
    (("modpm", 3, 1, 3, 2), 3),    # p^m = 27, dim 19
    (("modpm", 3, 1, 3, 4), 3),    # 37
    (("modpm", 3, 2, 3, 1), 2),    # 55
    (("modpm", 5, 1, 2, 3), 3),    # p^m = 25, dim 16
    (("modpm", 5, 2, 2, 1), 2),    # 21
    (("modp", 9, 2, 6), 3),        # dim 15
    (("modp", 16, 2, 5), 3),       # 10
    (("modp", 25, 2, 3), 2),       # 3
    (("modp", 27, 2, 3), 2),       # 3
]
CLI_B = 3


def cli_corpus(seed):
    rng = random.Random("modpm-cli/%d" % seed)
    out = []
    for cell, count in CLI_CELLS:
        cmd, q, n = cell[:3]
        d = cell[-1]
        m = cell[3] if cmd == "modpm" else 1
        for _ in range(count):
            terms = random_poly(rng, q, n, d, 0.6)
            out.append((cmd, q, n, m, terms))
    return out


def cli_argv(item):
    cmd, q, n, m, terms = item
    argv = [cmd, "--q", str(q), "-n", str(n), "--poly",
            poly_text(split_q(q)[0], n, terms), "-B", str(CLI_B), "--json"]
    if cmd == "modpm":
        argv += ["-m", str(m)]
    return argv


def cli_setup(ff, corpus):
    for cmd, q, n, m, terms in corpus:
        F = ff.make_field(*split_q(q))
        if m > 1:
            ff.make_galois_ring(F, m)


def cli_prepare(ff, corpus):
    cli = ff.cli
    ops = []
    for item in corpus:
        argv = cli_argv(item)

        def op(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code:
                raise RuntimeError("ffzeta %s exited with %d"
                                   % (" ".join(argv), code))
            return buf.getvalue()
        ops.append(op)
    return ops


def cli_normalize(out):
    return json.loads(out)["result"]


def cli_check(ff, corpus, answers):
    errors = []
    for idx, ((cmd, q, n, m, terms), res) in enumerate(zip(corpus, answers)):
        p, e = split_q(q)
        F = ff.make_field(p, e)
        mod = p ** m
        series = res["series"]
        where = "modpm-cli op %d (%s q=%d n=%d)" % (idx, cmd, q, n)
        if res["modulus"] != mod or len(series) != CLI_B + 1:
            errors.append("%s: modulus or length wrong" % where)
            continue
        # det_factors (and for modpm the torus factor) multiply to series
        acc = [1] + [0] * CLI_B
        for expo, det in res["det_factors"]:
            acc = plain.series_mul(
                acc, plain.series_pow(det, expo, CLI_B, mod), CLI_B, mod)
        if cmd == "modpm":
            torus = plain.torus_series(n, q, CLI_B, mod)
            if res["torus"] != torus:
                errors.append("%s: torus %s, closed form %s"
                              % (where, res["torus"], torus))
            acc = plain.series_mul(acc, torus, CLI_B, mod)
        if acc != series:
            errors.append("%s: det_factors give %s, series %s"
                          % (where, acc, series))
        # leading coefficients against brute-force counts; the oracle
        # enumerates F_{q^k}, so large q stops at T^1 or T^2
        K = min(CLI_B, max(1, int(math.log(70000, q ** n))))
        domain = "torus" if cmd == "modpm" else "affine"
        _, exact = oracle_series(ff, F, terms, n, K, domain)
        want = [c % mod for c in exact]
        if series[:K + 1] != want:
            errors.append("%s: series %s, oracle %s"
                          % (where, series[:K + 1], want))
    return errors


MODPM_CLI = Workload("modpm-cli", cli_corpus, cli_setup, cli_prepare,
                     cli_normalize, cli_check)


# ---------------------------------------------------------------------------
# univariate: zero-dimensional zeta, operator charpolys and factorization

# (q, degree) cells; the degree is capped so that the trial-division check
# sieves at most q^(d/2) <= 25^3 polynomials
UNI_CELLS = [
    ((2, 6), 6), ((2, 12), 6), ((2, 18), 4), ((2, 24), 3),
    ((3, 5), 6), ((3, 10), 5), ((3, 14), 3),
    ((4, 4), 6), ((4, 8), 5), ((4, 12), 3),
    ((5, 3), 6), ((5, 7), 5), ((5, 10), 3),
    ((9, 3), 4), ((9, 6), 4), ((9, 8), 3),
    ((16, 2), 4), ((16, 5), 4), ((16, 7), 2),
    ((25, 2), 4), ((25, 4), 4), ((25, 6), 2),
]


def uni_corpus(seed):
    rng = random.Random("univariate/%d" % seed)
    out = []
    for (q, d), count in UNI_CELLS:
        for _ in range(count):
            coeffs = [rng.randrange(1, q)]                 # f(0) != 0
            coeffs += [rng.randrange(q) for _ in range(d - 1)] + [1]
            out.append((q, coeffs))
    return out


def uni_setup(ff, corpus):
    for q in sorted({q for q, _ in corpus}):
        ff.make_field(*split_q(q))


def uni_prepare(ff, corpus):
    kinds = list(ff.OperatorKind)
    ops = []
    for q, coeffs in corpus:
        f = ff.SparsePoly.from_dense(ff.make_field(*split_q(q)), coeffs)

        def op(f=f):
            return (ff.zerodim_zeta(f),
                    [ff.congruence_charpoly(f, k) for k in kinds],
                    [ff.factorize(f, k) for k in kinds])
        ops.append(op)
    return ops


def _factors(fac):
    return (fac.unit, tuple((tuple(g.to_dense()), mult)
                            for g, mult in fac.factors))


def uni_normalize(out):
    zeta, charpolys, facs = out
    return (tuple(zeta.factors), tuple(tuple(c) for c in charpolys),
            tuple(_factors(fac) for fac in facs))


def uni_check(ff, corpus, answers):
    errors = []
    for idx, ((q, coeffs), (zeta, charpolys, facs)) in enumerate(
            zip(corpus, answers)):
        p, e = split_q(q)
        F = ff.make_field(p, e)
        where = "univariate op %d (q=%d deg %d)" % (idx, q, len(coeffs) - 1)
        trial = _factors(ff.trial_factorize(ff.SparsePoly.from_dense(F, coeffs)))
        ref = plain.PlainField(p, F.modulus)
        for kind, fac in zip(ff.OperatorKind, facs):
            if fac != trial:
                errors.append("%s: %s factors %s, trial division %s"
                              % (where, kind.value, fac, trial))
            prod = [fac[0]]
            for g, mult in fac[1]:
                for _ in range(mult):
                    prod = ref.poly_mul(prod, list(g))
            if prod != list(coeffs):
                errors.append("%s: %s factors multiply to %s"
                              % (where, kind.value, prod))
        degrees = [len(g) - 1 for g, _ in trial[1]]
        profile = tuple((d, -degrees.count(d)) for d in sorted(set(degrees)))
        if zeta != profile:
            errors.append("%s: zeta factors %s, distinct factor degrees "
                          "give %s" % (where, zeta, profile))
        want = [1]
        for d in degrees:
            want = plain.series_mul(want, [1] + [0] * (d - 1) + [-1],
                                    len(want) + d - 1, p)
        want += [0] * (len(coeffs) - len(want))
        for kind, cp in zip(ff.OperatorKind, charpolys):
            if list(cp) != want:
                errors.append("%s: %s charpoly %s, product of (1 - T^deg g)"
                              " %s" % (where, kind.value, cp, want))
    return errors


UNIVARIATE = Workload("univariate", uni_corpus, uni_setup, uni_prepare,
                      uni_normalize, uni_check)


# ---------------------------------------------------------------------------
# oracle-count: brute-force count vectors and exact series

# (q, n, K, d) random cells and ("line", q, n, K) / ("norm", q, n, K)
# closed-form families: x_1 - c, and x_1 * ... * x_n - c with c != 0
ORACLE_CELLS = [
    ((2, 1, 20, 6), 3),
    ((2, 3, 7, 3), 2),
    ((2, 2, 10, 3), 3),
    ((3, 2, 5, 3), 4),
    ((4, 2, 4, 3), 4),
    ((5, 2, 3, 3), 4),
    ((3, 1, 5, 5), 4),
    ((4, 1, 6, 5), 4),
    ((3, 3, 3, 2), 2),
    (("line", 3, 2, 5), 2),
    (("line", 4, 2, 4), 2),
    (("line", 2, 3, 6), 4),        # sets op_tail_ms: 11th-12th dearest
    (("line", 5, 2, 3), 2),
    (("norm", 5, 2, 3), 2),
    (("norm", 2, 2, 8), 2),
    (("norm", 3, 3, 3), 2),
]
ORACLE_CHECK_B = 3


def oracle_corpus(seed):
    rng = random.Random("oracle-count/%d" % seed)
    out = []
    for cell, count in ORACLE_CELLS:
        for i in range(count):
            domain = ("affine", "torus")[i % 2]
            if cell[0] == "line":
                _, q, n, K = cell
                # over F_2 the constant stays 1: x_1 alone enumerates
                # faster, and these operations set op_tail_ms
                c = rng.randrange(q) if q > 2 else 1
                terms = {(1,) + (0,) * (n - 1): 1}
                if c:
                    terms[(0,) * n] = c
            elif cell[0] == "norm":
                _, q, n, K = cell
                terms = {(1,) * n: 1, (0,) * n: rng.randrange(1, q)}
            elif cell[0] == 2:
                # the enumeration cost follows the support of f, so over F_2
                # the terms of degree >= 2 come from a support fixed per
                # cell and position, and the seed sets the terms of degree
                # <= 1
                q, n, K, d = cell
                shape = random.Random("oracle-count/%s/%d" % (cell, i))
                terms = {u: 1 for u in random_poly(shape, q, n, d, 0.6)
                         if sum(u) >= 2}
                terms.update({u: 1 for u in monomials(n, 1)
                              if rng.random() < 0.5})
            else:
                # every monomial is present, with random coefficients
                q, n, K, d = cell
                terms = random_poly(rng, q, n, d, 1.0)
            out.append((cell[0] if isinstance(cell[0], str) else "random",
                        q, n, K, domain, terms))
    return out


def oracle_setup(ff, corpus):
    for _, q, n, K, _, _ in corpus:
        p, e = split_q(q)
        for k in range(1, K + 1):
            ff.make_field(p, e * k).vector_kit()


def oracle_prepare(ff, corpus):
    ops = []
    for family, q, n, K, domain, terms in corpus:
        f = ff.SparsePoly(ff.make_field(*split_q(q)), n, terms)

        def op(f=f, K=K, domain=domain):
            cv = ff.count_vector(f, K, domain)
            return cv, ff.zeta_coeffs_exact(cv, K)
        ops.append(op)
    return ops


def oracle_normalize(out):
    cv, exact = out
    return tuple(cv.counts), tuple(exact)


def oracle_check(ff, corpus, answers):
    errors = []
    for idx, ((family, q, n, K, domain, terms), (counts, exact)) in \
            enumerate(zip(corpus, answers)):
        p, e = split_q(q)
        where = "oracle-count op %d (%s q=%d n=%d %s)" % (idx, family, q, n,
                                                          domain)
        bad = plain.necklace_defects(counts)
        if bad:
            errors.append("%s: counts %s break the Moebius congruence at "
                          "k = %s" % (where, counts, bad))
        try:
            follows = list(exact) == plain.exact_zeta(counts, K)
        except ValueError:          # counts of no variety
            follows = False
        if not follows:
            errors.append("%s: exact series %s does not follow from the "
                          "counts" % (where, exact))
        if family != "random":
            c = terms.get((0,) * n, 0)
            if family == "line":
                want = [q ** (k * (n - 1)) if domain == "affine" else
                        (q ** k - 1) ** (n - 1) if c else 0
                        for k in range(1, K + 1)]
            else:
                want = [(q ** k - 1) ** (n - 1) for k in range(1, K + 1)]
            if list(counts) != want:
                errors.append("%s: counts %s, closed form %s"
                              % (where, counts, want))
            continue
        # leading coefficients against the operator pipelines
        F = ff.make_field(p, e)
        f = ff.SparsePoly(F, n, terms)
        B = min(K, ORACLE_CHECK_B)
        if domain == "affine":
            got = ff.zeta_mod_p(f, n, B, max(f.degree(), n)).coeffs
            want = tuple(c % p for c in exact[:B + 1])
        else:
            got = ff.zeta_mod_pm(f, 2, B).coeffs
            want = tuple(c % p ** 2 for c in exact[:B + 1])
        if tuple(got) != want:
            errors.append("%s: operator series %s, oracle %s"
                          % (where, tuple(got), want))
    return errors


ORACLE_COUNT = Workload("oracle-count", oracle_corpus, oracle_setup,
                        oracle_prepare, oracle_normalize, oracle_check)


WORKLOADS = {w.name: w for w in (MODP_DIM, MODPM_CLI, UNIVARIATE,
                                 ORACLE_COUNT)}
