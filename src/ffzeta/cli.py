"""Command line interface.

Subcommands cover every pipeline: point counting, the zero-dimensional
suite, factorization, the mod-p and mod-p^m zeta series, the torus zeta
closed form, and a self-verification mode that recomputes everything a
congruence claims via the brute-force oracle.

Output is human text by default, one JSON document with --json.  Exit
codes: 0 success, 2 malformed input, 3 violated precondition, 4 size cap.

--poly, --shift and --modulus share one grammar:

    sum    := [+|-] term {(+|-) term}
    term   := factor {* factor}
    factor := integer | name [^ integer] | ( sum )

A product needs its `*` (2*t, not 2t).  Names are the variables x1..xN
(x, y, z when N <= 3) and t, the root of the field modulus, which a prime
field refuses.  Inside parentheses only integers and t may appear, and
parentheses do not nest.  --modulus is read like the inside of
parentheses: integers and t, no parentheses.  So every term is a code
times a monomial: the reader sums codes into one dict keyed by exponents
and runs no polynomial product.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .errors import (LimitError, ParseError, PreconditionError,
                     UnknownVariable)
from .factor import _factor_cap, factorize
from .fq import make_field, split_prime_power
from .hyper import (_zeta_mod_p_parts, _zeta_mod_pm_parts, torus_zeta,
                    zeta_mod_p, zeta_mod_pm)
from .linalg import _operator_cap, charpoly_reverse
from .oracle import (_count_cap, count_points, count_vector,
                     trial_factorize, zeta_coeffs_exact)
from .poly import (Factorization, SparsePoly, dense_translate, render_poly,
                   var_names)
from .zerodim import (FactoredZeta, OperatorKind, _check_operator, _profile,
                      _profile_cap, _zeta_from_profile, congruence_charpoly,
                      op_matrix)


# ---------------------------------------------------------------------------
# polynomial text


_TOKEN = re.compile(r"(\d+)|([A-Za-z]\w*)|(\^)|(\*)|(\+)|(-)|(\()|(\))")
_END, _NUM, _NAME, _CARET, _STAR, _PLUS, _MINUS, _OPEN, _CLOSE = range(9)
_MAX_MODULUS_DEGREE = 1024


def _tokenize(text):
    """(kind, value, position) triples, an integer's value an int, ending
    with an _END token."""
    out = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError("unexpected character %r" % text[i], i)
        kind = m.lastindex
        try:
            value = int(m.group(0)) if kind == _NUM else m.group(0)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ParseError("integer has too many digits", i) from None
        out.append((kind, value, i))
        i = m.end()
    out.append((_END, "", len(text)))
    return out


def _read_sum(toks, i, end, ctx, u0, power, group):
    """Read a signed sum of `*`-products ending at the token kind `end`;
    returns (SparsePoly, index past `end`).  A factor is a (code,
    exponents) pair, u0 = (0, ..., 0) the exponents of a constant: an
    integer is its residue mod p times x^u0, `power(name, k, pos)` is the
    value of name^k, and `group(toks, i)` reads a parenthesised factor
    after its `(`; parentheses are a ParseError where it is None."""
    total = {}
    while True:
        kind = toks[i][0]
        code, u = (ctx.neg(1) if kind == _MINUS else 1), u0
        if kind in (_PLUS, _MINUS):
            i += 1
        while True:
            kind, value, pos = toks[i]
            i += 1
            if kind == _NUM:
                c, v = value % ctx.p, u0
            elif kind == _NAME:
                k = 1
                if toks[i][0] == _CARET:
                    if toks[i + 1][0] != _NUM:
                        raise ParseError("expected an integer exponent",
                                         toks[i + 1][2])
                    k = toks[i + 1][1]
                    i += 2
                c, v = power(value, k, pos)
            elif kind == _OPEN and group is not None:
                (c, v), i = group(toks, i)
            else:
                raise ParseError("expected a factor", pos)
            code = ctx.mul(code, c)
            u = tuple(a + b for a, b in zip(u, v))
            if toks[i][0] != _STAR:
                break
            i += 1
        total[u] = ctx.add(total.get(u, 0), code)
        kind, _, pos = toks[i]
        if kind == end:
            return SparsePoly(ctx, len(u0), total), i + 1
        if kind == _END:
            raise ParseError("unclosed parenthesis", pos)
        if kind not in (_PLUS, _MINUS):
            raise ParseError("expected *, + or -", pos)


def parse_poly(text, ctx, nvars):
    """Polynomial over ctx in nvars variables.  Variables are x1..xN, with
    x, y, z as aliases when N <= 3; t is the root of the field modulus."""
    if nvars < 0:
        raise ValueError("number of variables must be >= 0")
    names = {"x%d" % (k + 1): k for k in range(nvars)}
    if nvars <= 3:
        names.update((alias, k) for k, alias in enumerate(var_names(nvars)))
    u0 = (0,) * nvars

    def power(name, k, pos):
        if name == "t":
            if ctx.e == 1:
                raise ParseError("coefficient uses t but the field is prime",
                                 pos)
            # the code p is t, a unit of order dividing q - 1
            return ctx.pow(ctx.p, k % (ctx.q - 1)), u0
        if name not in names:
            raise UnknownVariable("unknown variable %r" % name, pos)
        u = [0] * nvars
        u[names[name]] = k
        return 1, tuple(u)

    def constant(name, k, pos):
        if name != "t":
            raise ParseError("only integers and t may appear inside "
                             "parentheses", pos)
        return power(name, k, pos)

    def group(toks, i):
        c, i = _read_sum(toks, i, _CLOSE, ctx, u0, constant, None)
        return (c.constant_term(), u0), i

    return _read_sum(_tokenize(text), 0, _END, ctx, u0, power, group)[0]


def parse_modulus(text, p):
    """The t-polynomial over F_p, little-endian list of its coefficients
    mod p."""
    ctx = make_field(p)

    def power(name, k, pos):
        if name != "t":
            raise UnknownVariable("modulus variable must be t", pos)
        return 1, (k,)

    f, _ = _read_sum(_tokenize(text), 0, _END, ctx, (0,), power, None)
    if f.degree() > _MAX_MODULUS_DEGREE:
        raise ParseError("modulus degree %d is above %d"
                         % (f.degree(), _MAX_MODULUS_DEGREE))
    return f.to_dense()


# ---------------------------------------------------------------------------
# invocation plumbing


def _shifted(f, c):
    dense = f.to_dense()
    return SparsePoly.from_dense(f.ctx, dense_translate(f.ctx, dense, c))


def _shifted_poly(args, ctx):
    """The univariate --poly translated x -> x + c by the --shift constant
    c, and c (None without --shift)."""
    f = parse_poly(args.poly, ctx, 1)
    if args.shift is None:
        return f, None
    c = parse_poly(args.shift, ctx, 1)
    if not c.is_constant():
        raise ParseError("--shift must be a constant")
    c = c.constant_term()
    # the shift builds f's dense list, so the operator's dimension, deg f,
    # is checked first
    _operator_cap(f.degree(), ctx.e)
    return _shifted(f, c), c


def _cmd_count(args, ctx):
    f = parse_poly(args.poly, ctx, args.nvars)
    n = count_points(f, args.k, args.domain)
    return {"count": n}, "N_%d = %d  (%s)" % (args.k, n, args.domain)


def _cmd_zerodim(args, ctx):
    g, _ = _shifted_poly(args, ctx)
    kind = OperatorKind(args.method)
    # the chosen operator's caps, then the profile's, before any matrix
    _check_operator(g, kind)
    _profile_cap(g)
    frob = op_matrix(g, OperatorKind.FROBENIUS)
    M = frob if kind == OperatorKind.FROBENIUS else op_matrix(g, kind)
    prof = _profile(frob)
    zeta = _zeta_from_profile(prof)
    cp = ctx.prime_subring(charpoly_reverse(M), "charpoly")
    result = {
        "s": list(prof),
        "zeta_factors": [[i, e] for i, e in zeta.factors],
        "charpoly_mod_p": cp,
        "method": args.method,
    }
    if args.dump_matrix:
        result["matrix"] = M.to_rows()
    text = "s = %s\nZ = %s\ndet(I - MT) mod %d = %s" % (
        list(prof), zeta, ctx.p, cp)
    return result, text


def _cmd_factor(args, ctx):
    g, shift = _shifted_poly(args, ctx)
    fac = factorize(g, OperatorKind(args.method))
    if shift is not None:
        back = ctx.neg(shift)
        fac = Factorization(fac.unit, tuple((_shifted(h, back), m)
                                            for h, m in fac.factors))
    result = [[render_poly(h), m] for h, m in fac.factors]
    return {"factors": result}, str(fac)


def _cmd_series(args, ctx):
    f = parse_poly(args.poly, ctx, args.nvars)
    result = {}
    if args.command == "modp":
        M, dets, series = _zeta_mod_p_parts(f, args.nvars, args.B, args.d)
    else:
        M, dets, series = _zeta_mod_pm_parts(f, args.m, args.B, args.d)
        torus = torus_zeta(args.nvars, ctx.q, series.order, series.modulus)
        result["torus"] = list(torus.coeffs)
    result.update(modulus=series.modulus, series=list(series.coeffs),
                  det_factors=[[expo, det] for expo, det in dets])
    if args.dump_matrix:
        result["matrix"] = M.to_rows()
    return result, "Z mod %d = %s" % (series.modulus, series)


def _cmd_verify(args, ctx):
    f = parse_poly(args.poly, ctx, args.nvars)
    if args.mode == "zerodim":
        kind = OperatorKind(args.method)
        # the operator's caps, then the factorization's cost cap, before
        # any matrix
        _check_operator(f, kind)
        fac = trial_factorize(f)
        lhs = congruence_charpoly(f, kind)
        # 1/Z = prod (1 - T^deg h) over the distinct irreducible factors h
        inverse = FactoredZeta(tuple((h.degree(), 1) for h, _ in fac.factors))
        rhs = [c % ctx.p for c in inverse.expand(len(lhs) - 1)]
    else:
        B = 4 if args.B is None else args.B
        if args.mode == "modp":
            series = zeta_mod_p(f, args.nvars, B, args.d)
        else:
            series = zeta_mod_pm(f, args.m, B, args.d)
        counts = count_vector(f, B, "affine" if args.mode == "modp"
                              else "torus")
        lhs = list(series.coeffs)
        rhs = [c % series.modulus for c in zeta_coeffs_exact(counts, B)]
    match = lhs == rhs
    result = {"match": match, "lhs": lhs, "rhs": rhs,
              "terms_compared": len(lhs)}
    return result, "match: %s" % ("true" if match else "false")


def _cmd_torus(args, p):
    if args.m < 1:
        raise ValueError("precision must be >= 1")
    pm = p ** args.m
    series = torus_zeta(args.nvars, args.q, args.B, pm)
    return ({"modulus": pm, "series": list(series.coeffs)},
            "Z(torus) mod %d = %s" % (pm, series))


_COMMANDS = {
    "count": _cmd_count,
    "zerodim": _cmd_zerodim,
    "factor": _cmd_factor,
    "modp": _cmd_series,
    "modpm": _cmd_series,
    "verify": _cmd_verify,
}


@functools.cache
def build_parser():
    """The command line parser, built once per process; each parse_args
    call returns a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="ffzeta",
        description="Zeta functions over finite fields by operator "
                    "congruences, with a built-in brute-force oracle.")
    sub = top.add_subparsers(dest="command", required=True)
    methods = sorted(kind.value for kind in OperatorKind)

    def common(p, poly=True):
        p.add_argument("--q", type=int, required=True,
                       help="field size, a prime power")
        if poly:
            p.add_argument("--modulus", help="defining t-polynomial of the "
                           "extension (default: least monic irreducible)")
            p.add_argument("--poly", required=True,
                           help="polynomial text, e.g. 'x^2+x+1'")
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")

    p = sub.add_parser("count", help="count points by brute force")
    common(p)
    p.add_argument("-n", "--nvars", type=int, default=1)
    p.add_argument("-k", type=int, default=1,
                   help="extension degree of the point field")
    p.add_argument("--domain", choices=("affine", "torus"),
                   default="affine")

    p = sub.add_parser("zerodim",
                       help="degree profile, exact zeta, and operator "
                            "characteristic polynomial of univariate f")
    common(p)
    p.add_argument("--method", choices=methods, default="frobenius")
    p.add_argument("--shift", help="translate x -> x + c first")
    p.add_argument("--dump-matrix", action="store_true")

    p = sub.add_parser("factor", help="factor univariate f over F_q")
    common(p)
    p.add_argument("--method", choices=methods, default="frobenius")
    p.add_argument("--shift", help="translate x -> x + c first; factors "
                   "are translated back")

    for name, what in (("modp", "an affine hypersurface mod p"),
                       ("modpm", "a toric hypersurface mod p^m")):
        p = sub.add_parser(name, help="zeta series of " + what)
        common(p)
        p.add_argument("-n", "--nvars", type=int, default=1)
        if name == "modpm":
            p.add_argument("-m", type=int, default=1,
                           help="precision exponent")
        p.add_argument("-B", type=int, help="truncation order")
        p.add_argument("-d", type=int, help="degree bound")
        p.add_argument("--dump-matrix", action="store_true")

    p = sub.add_parser("verify", help="recompute a congruence via the "
                       "brute-force oracle and compare")
    common(p)
    p.add_argument("--mode", choices=("modp", "modpm", "zerodim"),
                   required=True)
    p.add_argument("-n", "--nvars", type=int, default=1)
    p.add_argument("-m", type=int, default=2)
    p.add_argument("-B", type=int, help="truncation order (default 4)")
    p.add_argument("-d", type=int, help="degree bound")
    p.add_argument("--method", choices=methods, default="frobenius")

    p = sub.add_parser("torus-zeta", help="closed-form zeta of the n-torus")
    common(p, poly=False)
    p.add_argument("-n", "--nvars", type=int, required=True)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-B", type=int, required=True)

    return top


def run(args):
    """Execute a parsed invocation; returns the JSON-ready payload."""
    p, e = split_prime_power(args.q)
    if args.command == "torus-zeta":
        # the closed form reads only p and q, so no field is built
        result, text = _cmd_torus(args, p)
    else:
        # the caps that read only q, k and n: refused before the field's
        # modulus search
        if args.command == "count":
            _count_cap(args.q, args.k, args.nvars)
        elif args.command == "factor":
            _factor_cap(args.q)
        elif args.command == "verify" and args.mode != "zerodim":
            # the oracle counts N_1..N_B; a B below 1 is the series' error
            B = 4 if args.B is None else args.B
            if B >= 1:
                _count_cap(args.q, B, args.nvars)
        modulus = parse_modulus(args.modulus, p) if args.modulus else None
        result, text = _COMMANDS[args.command](args, make_field(p, e,
                                                                modulus))
    inputs = {}
    for key in ("poly", "nvars", "k", "domain", "method", "shift",
                "m", "B", "d", "mode", "modulus"):
        v = getattr(args, key, None)
        if v is not None:
            inputs[key] = v
    payload = {
        "command": args.command,
        "q": args.q,
        "p": p,
        "e": e,
        "inputs": inputs,
        "result": result,
    }
    return payload, text


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text = run(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    except LimitError as exc:
        print("size limit exceeded: %s" % exc, file=sys.stderr)
        return 4
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
