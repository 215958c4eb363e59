"""Command line interface.

Subcommands cover every pipeline: point counting, the zero-dimensional
suite, factorization, the mod-p and mod-p^m zeta series, the torus zeta
closed form, and a self-verification mode that recomputes everything a
congruence claims via the brute-force oracle.

Output is human text by default, one JSON document with --json.  Exit
codes: 0 success, 2 malformed input, 3 violated precondition, 4 size cap.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .config import DEFAULT_LIMITS
from .errors import (LimitError, ParseError, PreconditionError,
                     UnknownVariable)
from .factor import Factorization, factor_sort_key, factorize
from .fq import make_field, split_prime_power
from .hyper import (_zeta_mod_p_parts, _zeta_mod_pm_parts, torus_zeta,
                    zeta_mod_p, zeta_mod_pm)
from .oracle import count_points, trial_factorize, zeta_coeffs_exact
from .poly import SparsePoly, dense_translate, render_poly, var_names
from .zerodim import (OperatorKind, _prime_field_charpoly, _profile,
                      _zeta_from_profile, congruence_charpoly, op_matrix)


# ---------------------------------------------------------------------------
# polynomial text


_TOKEN = re.compile(r"(\d+)|([A-Za-z]\w*)|(\^)|(\*)|(\+)|(-)|(\()|(\))")


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError("unexpected character %r" % ch, i)
        kind = m.lastindex  # 1 num, 2 name, 3 ^, 4 *, 5 +, 6 -, 7 (, 8 )
        out.append((kind, m.group(0), i))
        i = m.end()
    out.append((0, "", len(text)))
    return out


_NUM, _NAME, _CARET, _STAR, _PLUS, _MINUS, _OPEN, _CLOSE = range(1, 9)


def _expect_exponent(toks, i):
    kind, text, pos = toks[i]
    if kind != _NUM:
        raise ParseError("expected an integer exponent", pos)
    return int(text), i + 1


def _parse_tpoly(toks, i, ctx, closing):
    """Sum of integer/t-power terms, ending at `closing` (a token kind);
    value is a single field element."""
    if ctx.e == 1:
        raise ParseError("coefficient uses t but the field is prime",
                         toks[i][2])
    total = 0
    first = True
    while toks[i][0] != closing:
        kind, text, pos = toks[i]
        sign = 1
        if kind in (_PLUS, _MINUS):
            if first and kind == _PLUS:
                raise ParseError("expected a number or t-power", pos)
            sign = -1 if kind == _MINUS else 1
            i += 1
            kind, text, pos = toks[i]
        elif not first:
            raise ParseError("expected + or - between terms", pos)
        first = False
        acc = 1
        seen = False
        if kind == _NUM:
            acc = int(text) % ctx.p
            seen = True
            i += 1
            if toks[i][0] == _STAR:
                i += 1
                kind, text, pos = toks[i]
                if kind != _NAME or text != "t":
                    raise ParseError("expected t after *", pos)
        kind, text, pos = toks[i]
        if kind == _NAME and text == "t":
            i += 1
            k = 1
            if toks[i][0] == _CARET:
                k, i = _expect_exponent(toks, i + 1)
            acc = ctx.mul(acc, ctx.pow(ctx.p, k))
            seen = True
        if not seen:
            raise ParseError("expected a number or t-power", pos)
        if sign < 0:
            acc = ctx.neg(acc)
        total = ctx.add(total, acc)
    return total, i + 1


def parse_poly(text, ctx, nvars):
    """Parse '+'/'-'-separated terms of '*'-separated factors; factors are
    integers, t-powers, parenthesized t-polynomials, or variable powers.
    Variables are x1..xN, with x, y, z as aliases when N <= 3."""
    toks = _tokenize(text)
    names = {}
    for k in range(nvars):
        names["x%d" % (k + 1)] = k
    if nvars <= 3:
        for k, alias in enumerate(var_names(nvars)):
            names[alias] = k
    terms = {}
    i = 0
    sign = 1
    if toks[i][0] == 0:
        raise ParseError("empty polynomial", 0)
    while toks[i][0] != 0:
        kind, text_, pos = toks[i]
        if kind == _PLUS or kind == _MINUS:
            sign = 1 if kind == _PLUS else -1
            i += 1
            if toks[i][0] == 0:
                raise ParseError("dangling sign", pos)
        coeff = 1
        exps = [0] * nvars
        want_factor = True
        while True:
            kind, text_, pos = toks[i]
            if want_factor:
                if kind == _NUM:
                    coeff = ctx.mul(coeff, int(text_) % ctx.p)
                    i += 1
                elif kind == _OPEN:
                    val, i = _parse_tpoly(toks, i + 1, ctx, _CLOSE)
                    coeff = ctx.mul(coeff, val)
                elif kind == _NAME and text_ == "t":
                    if ctx.e == 1:
                        raise ParseError(
                            "coefficient uses t but the field is prime", pos)
                    i += 1
                    k = 1
                    if toks[i][0] == _CARET:
                        k, i = _expect_exponent(toks, i + 1)
                    coeff = ctx.mul(coeff, ctx.pow(ctx.p, k))
                elif kind == _NAME:
                    if text_ not in names:
                        raise UnknownVariable(
                            "unknown variable %r" % text_, pos)
                    i += 1
                    k = 1
                    if toks[i][0] == _CARET:
                        k, i = _expect_exponent(toks, i + 1)
                    exps[names[text_]] += k
                else:
                    raise ParseError("expected a factor", pos)
                want_factor = False
            elif kind == _STAR:
                want_factor = True
                i += 1
            else:
                break
        u = tuple(exps)
        val = coeff if sign > 0 else ctx.neg(coeff)
        prev = terms.get(u, 0)
        now = ctx.add(prev, val)
        if now:
            terms[u] = now
        elif u in terms:
            del terms[u]
        kind, text_, pos = toks[i]
        if kind == 0:
            break
        if kind not in (_PLUS, _MINUS):
            raise ParseError("expected + or - between terms", pos)
    return SparsePoly(ctx, nvars, terms)


def parse_modulus(text, p):
    """Monic t-polynomial with integer coefficients, little-endian list."""
    toks = _tokenize(text)
    coeffs = {}
    i = 0
    sign = 1
    if toks[i][0] == 0:
        raise ParseError("empty modulus", 0)
    while toks[i][0] != 0:
        kind, text_, pos = toks[i]
        if kind in (_PLUS, _MINUS):
            sign = 1 if kind == _PLUS else -1
            i += 1
        coef = 1
        deg = 0
        kind, text_, pos = toks[i]
        if kind == _NUM:
            coef = int(text_)
            i += 1
            if toks[i][0] == _STAR:
                i += 1
                kind, text_, pos = toks[i]
                if kind != _NAME or text_ != "t":
                    raise ParseError("expected t", pos)
        kind, text_, pos = toks[i]
        if kind == _NAME:
            if text_ != "t":
                raise UnknownVariable("modulus variable must be t", pos)
            i += 1
            deg = 1
            if toks[i][0] == _CARET:
                deg, i = _expect_exponent(toks, i + 1)
        coeffs[deg] = (coeffs.get(deg, 0) + sign * coef) % p
        kind, text_, pos = toks[i]
        if kind == 0:
            break
        if kind not in (_PLUS, _MINUS):
            raise ParseError("expected + or - between terms", pos)
    top = max(coeffs)
    return [coeffs.get(k, 0) for k in range(top + 1)]


# ---------------------------------------------------------------------------
# invocation plumbing


_METHODS = {
    "frobenius": OperatorKind.FROBENIUS,
    "niederreiter": OperatorKind.NIEDERREITER,
    "psi": OperatorKind.PSI_MUL,
}


def _field_from_args(args):
    p, e = split_prime_power(args.q)
    modulus = None
    if getattr(args, "modulus", None):
        modulus = parse_modulus(args.modulus, p)
    return make_field(p, e, modulus)


def _limits_from_args(args):
    kw = {}
    for name in ("max_terms", "max_enum", "max_sieve", "max_factor_q",
                 "max_basis", "max_nvars"):
        v = getattr(args, name, None)
        if v is not None:
            kw[name] = v
    return DEFAULT_LIMITS.but(**kw) if kw else DEFAULT_LIMITS


def _parse_shift(args, ctx):
    if args.shift is None:
        return None
    c = parse_poly(args.shift, ctx, 1)
    if not c.is_constant():
        raise ParseError("--shift must be a constant")
    return c.constant_term()


def _shifted(f, c):
    dense = f.to_dense()
    return SparsePoly.from_dense(f.ctx, dense_translate(f.ctx, dense, c))


def _cmd_count(args, ctx, limits):
    f = parse_poly(args.poly, ctx, args.nvars)
    n = count_points(f, args.k, args.domain, limits)
    return {"count": n}, "N_%d = %d  (%s)" % (args.k, n, args.domain)


def _cmd_zerodim(args, ctx, limits):
    f = parse_poly(args.poly, ctx, 1)
    shift = _parse_shift(args, ctx)
    g = _shifted(f, shift) if shift is not None else f
    kind = _METHODS[args.method]
    frob = op_matrix(g, OperatorKind.FROBENIUS)
    prof = _profile(frob)
    zeta = _zeta_from_profile(prof)
    M = frob if kind == OperatorKind.FROBENIUS else op_matrix(g, kind)
    cp = _prime_field_charpoly(M)
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


def _cmd_factor(args, ctx, limits):
    f = parse_poly(args.poly, ctx, 1)
    shift = _parse_shift(args, ctx)
    g = _shifted(f, shift) if shift is not None else f
    kind = _METHODS[args.method]
    fac = factorize(g, kind, limits)
    if shift is not None:
        back = ctx.neg(shift)
        pulled = [(SparsePoly.from_dense(
            ctx, dense_translate(ctx, h.to_dense(), back)), m)
            for h, m in fac.factors]
        pulled.sort(key=factor_sort_key)
        fac = Factorization(fac.unit, tuple(pulled))
    result = [[render_poly(h), m] for h, m in fac.factors]
    return {"factors": result}, str(fac)


def _cmd_modp(args, ctx, limits):
    f = parse_poly(args.poly, ctx, args.nvars)
    M, dets, series = _zeta_mod_p_parts(f, args.nvars, args.B, args.d,
                                        limits)
    result = {
        "modulus": ctx.p,
        "series": list(series.coeffs),
        "det_factors": [[expo, det] for expo, det in dets],
    }
    if args.dump_matrix:
        result["matrix"] = M.to_rows()
    return result, "Z mod %d = %s" % (ctx.p, series)


def _cmd_modpm(args, ctx, limits):
    f = parse_poly(args.poly, ctx, args.nvars)
    M, dets, torus, series = _zeta_mod_pm_parts(f, args.m, args.B, args.d,
                                                limits)
    pm = series.modulus
    result = {
        "modulus": pm,
        "series": list(series.coeffs),
        "det_factors": [[expo, det] for expo, det in dets],
        "torus": list(torus.coeffs),
    }
    if args.dump_matrix:
        result["matrix"] = M.to_rows()
    return result, "Z mod %d = %s" % (pm, series)


def _cmd_verify(args, ctx, limits):
    f = parse_poly(args.poly, ctx, args.nvars)
    if args.mode == "modp":
        B = args.B or 4
        series = zeta_mod_p(f, args.nvars, B, args.d, limits)
        counts = [count_points(f, k, "affine", limits)
                  for k in range(1, B + 1)]
        exact = zeta_coeffs_exact(counts, B)
        lhs = list(series.coeffs)
        rhs = [c % ctx.p for c in exact]
    elif args.mode == "modpm":
        B = args.B or 4
        pm = ctx.p ** args.m
        series = zeta_mod_pm(f, args.m, B, args.d, limits)
        counts = [count_points(f, k, "torus", limits)
                  for k in range(1, B + 1)]
        exact = zeta_coeffs_exact(counts, B)
        lhs = list(series.coeffs)
        rhs = [c % pm for c in exact]
    else:  # zerodim
        kind = _METHODS[args.method]
        lhs = congruence_charpoly(f, kind)
        fac = trial_factorize(f, limits)
        prod = [1]
        for h, _ in fac.factors:
            d = h.degree()
            nxt = [0] * (len(prod) + d)
            for j, c in enumerate(prod):
                nxt[j] = (nxt[j] + c) % ctx.p
                nxt[j + d] = (nxt[j + d] - c) % ctx.p
            prod = nxt
        rhs = prod
        rhs += [0] * (len(lhs) - len(rhs))
    match = lhs == rhs
    result = {"match": match, "lhs": lhs, "rhs": rhs,
              "terms_compared": len(lhs)}
    return result, "match: %s" % ("true" if match else "false")


def _cmd_torus(args, ctx, limits):
    pm = ctx.p ** args.m
    series = torus_zeta(args.nvars, ctx.q, args.B, pm)
    return ({"modulus": pm, "series": list(series.coeffs)},
            "Z(torus) mod %d = %s" % (pm, series))


_COMMANDS = {
    "count": _cmd_count,
    "zerodim": _cmd_zerodim,
    "factor": _cmd_factor,
    "modp": _cmd_modp,
    "modpm": _cmd_modpm,
    "verify": _cmd_verify,
    "torus-zeta": _cmd_torus,
}


def build_parser():
    top = argparse.ArgumentParser(
        prog="ffzeta",
        description="Zeta functions over finite fields by operator "
                    "congruences, with a built-in brute-force oracle.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, poly=True):
        p.add_argument("--q", type=int, required=True,
                       help="field size, a prime power")
        p.add_argument("--modulus", help="defining t-polynomial of the "
                       "extension (default: least monic irreducible)")
        if poly:
            p.add_argument("--poly", required=True,
                           help="polynomial text, e.g. 'x^2+x+1'")
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")
        for name in ("max-terms", "max-enum", "max-sieve", "max-factor-q",
                     "max-basis", "max-nvars"):
            p.add_argument("--" + name, type=int, dest=name.replace("-", "_"),
                           help=argparse.SUPPRESS)

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
    p.add_argument("--method", choices=sorted(_METHODS), default="frobenius")
    p.add_argument("--shift", help="translate x -> x + c first")
    p.add_argument("--dump-matrix", action="store_true")

    p = sub.add_parser("factor", help="factor univariate f over F_q")
    common(p)
    p.add_argument("--method", choices=sorted(_METHODS), default="frobenius")
    p.add_argument("--shift", help="translate x -> x + c first; factors "
                   "are translated back")

    p = sub.add_parser("modp", help="zeta series of an affine hypersurface "
                       "mod p")
    common(p)
    p.add_argument("-n", "--nvars", type=int, default=1)
    p.add_argument("-B", type=int, default=None, help="truncation order")
    p.add_argument("-d", type=int, default=None, help="degree bound")
    p.add_argument("--dump-matrix", action="store_true")

    p = sub.add_parser("modpm", help="zeta series of a toric hypersurface "
                       "mod p^m")
    common(p)
    p.add_argument("-n", "--nvars", type=int, default=1)
    p.add_argument("-m", type=int, default=1, help="precision exponent")
    p.add_argument("-B", type=int, default=None, help="truncation order")
    p.add_argument("-d", type=int, default=None, help="degree bound")
    p.add_argument("--dump-matrix", action="store_true")

    p = sub.add_parser("verify", help="recompute a congruence via the "
                       "brute-force oracle and compare")
    common(p)
    p.add_argument("--mode", choices=("modp", "modpm", "zerodim"),
                   required=True)
    p.add_argument("-n", "--nvars", type=int, default=1)
    p.add_argument("-m", type=int, default=2)
    p.add_argument("-B", type=int, default=None)
    p.add_argument("-d", type=int, default=None)
    p.add_argument("--method", choices=sorted(_METHODS), default="frobenius")

    p = sub.add_parser("torus-zeta", help="closed-form zeta of the n-torus")
    common(p, poly=False)
    p.add_argument("-n", "--nvars", type=int, required=True)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-B", type=int, required=True)

    return top


def run(args):
    """Execute a parsed invocation; returns the JSON-ready payload."""
    ctx = _field_from_args(args)
    limits = _limits_from_args(args)
    result, text = _COMMANDS[args.command](args, ctx, limits)
    inputs = {}
    for key in ("poly", "nvars", "k", "domain", "method", "shift",
                "m", "B", "d", "mode", "modulus"):
        v = getattr(args, key, None)
        if v is not None:
            inputs[key] = v
    payload = {
        "command": args.command,
        "q": ctx.q,
        "p": ctx.p,
        "e": ctx.e,
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
