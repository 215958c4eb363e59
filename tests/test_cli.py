import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ffzeta
from conftest import count_calls, field, rand_poly_mv
from ffzeta import make_field
from ffzeta.cli import build_parser, main, parse_modulus, parse_poly
from ffzeta.errors import ParseError, UnknownVariable
from ffzeta.poly import SparsePoly, render_poly

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_INVOCATIONS = {
    "zerodim.json": ["zerodim", "--q", "2", "--poly", "x^2+x+1"],
    "modp.json": ["modp", "--q", "2", "-n", "1", "--poly", "x^2+x+1",
                  "-B", "4"],
    "factor.json": ["factor", "--q", "3", "--poly", "x^2-1"],
    "count.json": ["count", "--q", "3", "-n", "2", "--poly", "x*y+1"],
    "torus.json": ["torus-zeta", "--q", "2", "-n", "1", "-m", "2",
                   "-B", "2"],
    "modpm.json": ["modpm", "--q", "2", "-n", "2", "-m", "2", "--poly",
                   "x*y+1", "-B", "4"],
    "verify.json": ["verify", "--q", "2", "-n", "1", "--poly", "x^3+x+1",
                    "--mode", "modp", "-B", "6"],
}


def run_cli(argv, timeout=10):
    """The CLI of this package's source, run in a subprocess."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(ffzeta.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "ffzeta.cli"] + argv,
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


@pytest.mark.parametrize("name", sorted(GOLDEN_INVOCATIONS))
def test_golden_json_payloads(name, capsys):
    argv = GOLDEN_INVOCATIONS[name] + ["--json"]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / name).read_text())
    assert got == want


# -- parsing ----------------------------------------------------------------


def test_parse_basic_forms():
    ctx = field(3)
    f = parse_poly("x^2 + 2*x + 1", ctx, 1)
    assert f.to_dense() == [1, 2, 1]
    g = parse_poly("x*y + 3*x + 1", ctx, 2)  # 3 = 0 mod 3, term drops
    assert g.terms == {(1, 1): 1, (0, 0): 1}
    h = parse_poly("x1^2 - x2", ctx, 2)
    assert h.terms == {(2, 0): 1, (0, 1): 2}
    assert parse_poly("2 - x", ctx, 1).to_dense() == [2, 2]
    assert parse_poly("x - x", ctx, 1).is_zero()


def test_parse_extension_field_coefficients():
    ctx = field(4)
    f = parse_poly("(t+1)*x + t", ctx, 1)
    assert f.to_dense() == [2, 3]
    g = parse_poly("t^2*x", ctx, 1)  # t^2 = t + 1
    assert g.to_dense() == [0, 3]
    h = parse_poly("t*t*x", ctx, 1)
    assert h == g


def test_parse_rejects_bad_input():
    ctx2 = field(2)
    for bad in ("", "  ", "x +", "^2", "x^", "x^y", "* x", "x ? 1",
                "(x+1", "()"):
        with pytest.raises(ParseError):
            parse_poly(bad, ctx2, 1)
    with pytest.raises(UnknownVariable):
        parse_poly("x + w", ctx2, 1)
    with pytest.raises(UnknownVariable):
        parse_poly("y", ctx2, 1)  # alias beyond nvars
    with pytest.raises(ParseError):
        parse_poly("t*x", ctx2, 1)  # no t in a prime field


def test_parse_aliases_and_numbered_variables():
    ctx = field(2)
    assert parse_poly("x*y*z", ctx, 3).terms == {(1, 1, 1): 1}
    assert parse_poly("x1*x2*x3", ctx, 3).terms == {(1, 1, 1): 1}
    four = parse_poly("x1*x4", ctx, 4)
    assert four.terms == {(1, 0, 0, 1): 1}
    with pytest.raises(UnknownVariable):
        parse_poly("x", ctx, 4)  # aliases only exist for nvars <= 3


def test_parse_modulus_forms():
    assert parse_modulus("t^2+t+1", 2) == [1, 1, 1]
    assert parse_modulus("t^3 + 2*t + 1", 3) == [1, 2, 0, 1]
    assert parse_modulus("t^2 - t - 1", 3) == [2, 2, 1]
    with pytest.raises(ParseError):
        parse_modulus("x^2+1", 2)


def test_parse_rejects_signs_and_groups_without_a_term():
    for bad in ("t^2+", "+", "-", "t^2 - ", "()"):
        with pytest.raises(ParseError):
            parse_modulus(bad, 3)
    ctx9 = field(9)
    for bad in ("x*()", "x^2+()", "( )", "(t+)*x", "x*(-)"):
        with pytest.raises(ParseError):
            parse_poly(bad, ctx9, 1)


def test_parentheses_hold_integers_and_t_only():
    ctx9 = field(9)
    for bad in ("(x+1)*y", "((t))*x", "(t*(t+1))*x", "(y)"):
        with pytest.raises(ParseError):
            parse_poly(bad, ctx9, 2)
    with pytest.raises(ParseError):
        parse_modulus("(t+1)*t", 3)
    with pytest.raises(UnknownVariable):
        parse_modulus("t^2+s", 3)


def test_products_and_signs_read_alike_everywhere():
    ctx9 = field(9)
    assert parse_poly("(t*t)*x", ctx9, 1) == parse_poly("t^2*x", ctx9, 1)
    assert parse_poly("(+t)", ctx9, 1) == parse_poly("t", ctx9, 1)
    assert parse_poly("(t*2 - 3*t)*x", ctx9, 1) == parse_poly("(2*t)*x",
                                                             ctx9, 1)
    assert parse_modulus("t*t+1", 3) == [1, 0, 1]
    assert parse_modulus("2*3*t^2 + t*t*t", 5) == [0, 0, 1, 1]
    # a group over a prime field is its integer value
    assert parse_poly("(2)*x + (1+1)", field(3), 1).to_dense() == [2, 2]


def test_products_need_their_star():
    # "2t" was read as 2*t inside parentheses and in --modulus only
    with pytest.raises(ParseError):
        parse_modulus("t^2+2t+1", 3)
    for bad in ("(2t)*x", "2x", "x y", "(t 2)"):
        with pytest.raises(ParseError):
            parse_poly(bad, field(9), 2)


def test_parse_guards_against_huge_values():
    with pytest.raises(ParseError):
        parse_modulus("t^99999999999+1", 2)
    with pytest.raises(ParseError):
        parse_poly("9" * 5000 + "*x", field(2), 1)
    # products of groups fold into the field, so they stay small
    text = "*".join("(t^%d+t+1)" % (7 ** k) for k in range(12)) + "*x"
    assert len(parse_poly(text, field(9), 1).terms) == 1


PARSE_ERRORS = [
    # (text, q, nvars; nvars None for a modulus over F_q), exception, str
    ("x ? 1", 2, 1, ParseError, "unexpected character '?' (at position 2)"),
    ("9" * 5000 + "*x", 2, 1, ParseError,
     "integer has too many digits (at position 0)"),
    ("x^y", 2, 1, ParseError, "expected an integer exponent (at position 2)"),
    ("x +", 2, 1, ParseError, "expected a factor (at position 3)"),
    ("()", 9, 1, ParseError, "expected a factor (at position 1)"),
    ("((t))*x", 9, 2, ParseError, "expected a factor (at position 1)"),
    ("x^2 + (t+)*x", 9, 1, ParseError, "expected a factor (at position 9)"),
    ("x*(t+1", 9, 1, ParseError, "unclosed parenthesis (at position 6)"),
    ("2x", 9, 1, ParseError, "expected *, + or - (at position 1)"),
    ("(t 2)", 9, 1, ParseError, "expected *, + or - (at position 3)"),
    ("(t^2)*x)", 4, 1, ParseError, "expected *, + or - (at position 7)"),
    ("x + w", 2, 1, UnknownVariable, "unknown variable 'w' (at position 4)"),
    ("x*y", 3, 1, UnknownVariable, "unknown variable 'y' (at position 2)"),
    ("t*x", 2, 1, ParseError,
     "coefficient uses t but the field is prime (at position 0)"),
    ("(2)*(t)", 3, 1, ParseError,
     "coefficient uses t but the field is prime (at position 5)"),
    ("(x+1", 9, 1, ParseError,
     "only integers and t may appear inside parentheses (at position 1)"),
    ("(y)", 9, 2, ParseError,
     "only integers and t may appear inside parentheses (at position 1)"),
    ("x^2+1", 2, None, UnknownVariable,
     "modulus variable must be t (at position 0)"),
    ("t^2+s", 3, None, UnknownVariable,
     "modulus variable must be t (at position 4)"),
    ("(t+1)*t", 3, None, ParseError, "expected a factor (at position 0)"),
    ("t^2 - ", 3, None, ParseError, "expected a factor (at position 6)"),
    ("t^", 5, None, ParseError, "expected an integer exponent (at position 2)"),
    ("t^2+2t+1", 3, None, ParseError, "expected *, + or - (at position 5)"),
    ("t^99999999999+1", 2, None, ParseError,
     "modulus degree 99999999999 is above 1024"),
    ("t^600*t^600", 2, None, ParseError, "modulus degree 1200 is above 1024"),
]


@pytest.mark.parametrize("text,q,nvars,error,message", PARSE_ERRORS,
                         ids=range(len(PARSE_ERRORS)))
def test_parse_error_messages_and_positions(text, q, nvars, error, message):
    with pytest.raises(ParseError) as exc:
        if nvars is None:
            parse_modulus(text, q)
        else:
            parse_poly(text, field(q), nvars)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_a_long_sum_parses_in_linear_time():
    # x^0 + x^1 + ... + x^39999: each term is added into one dict, where
    # adding polynomials copied the running sum once per term
    text = " + ".join("x^%d" % k for k in range(40000))
    start = time.perf_counter()
    f = parse_poly(text, field(2), 1)
    assert time.perf_counter() - start < 2
    assert f.to_dense() == [1] * 40000


def test_the_reader_runs_no_polynomial_product(monkeypatch):
    polys = []
    for argv in GOLDEN_INVOCATIONS.values():
        if "--poly" in argv:
            opt = dict(zip(argv, argv[1:]))
            polys.append((opt["--poly"], int(opt["--q"]),
                          int(opt.get("-n", 1))))
    want = [parse_poly(text, field(q), n) for text, q, n in polys]
    monkeypatch.setattr(SparsePoly, "__mul__", None)
    monkeypatch.setattr(ffzeta.poly, "_capped_product", None)
    assert [parse_poly(text, field(q), n) for text, q, n in polys] == want
    assert [render_poly(f) for f in want] == [
        "x^2 + x + 1", "x^2 + x + 1", "x^2 + 2", "x*y + 1", "x*y + 1",
        "x^3 + x + 1"]
    for text, q, nvars, error, message in PARSE_ERRORS:
        with pytest.raises(ParseError) as exc:
            if nvars is None:
                parse_modulus(text, q)
            else:
                parse_poly(text, field(q), nvars)
        assert type(exc.value) is error
        assert str(exc.value) == message


def test_modulus_degree_is_checked_before_the_list_is_built():
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_modulus("t^100000000", 2)
    assert time.perf_counter() - start < 1


def test_modulus_is_read_by_its_true_degree():
    # terms above the degree cap that cancel, or vanish mod p, are absent
    assert parse_modulus("t^2000 - t^2000 + t^2+t+1", 2) == [1, 1, 1]
    assert parse_modulus("3*t^2000 + t^2+t+1", 3) == [1, 1, 1]
    assert parse_modulus("3*t^2 + t + 1", 3) == [1, 1]


def test_modulus_render_parse_round_trip():
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            coeffs = [rng.randrange(p) for _ in range(rng.randrange(0, 7))]
            coeffs.append(rng.randrange(1, p))
            text = render_poly(SparsePoly.from_dense(field(p), coeffs))
            assert parse_modulus(text.replace("x", "t"), p) == coeffs


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_render_parse_round_trip(q):
    ctx = field(q)
    rng = random.Random(q * 77)
    for _ in range(60):
        nvars = rng.randrange(1, 4)
        f = rand_poly_mv(ctx, rng, nvars, rng.randrange(1, 4))
        assert parse_poly(render_poly(f), ctx, nvars) == f


def test_render_parse_round_trip_univariate_dense():
    ctx = field(9)
    rng = random.Random(9)
    for _ in range(40):
        coeffs = [rng.randrange(9) for _ in range(rng.randrange(1, 7))]
        if not any(coeffs):
            coeffs[-1] = 1
        f = SparsePoly.from_dense(ctx, coeffs)
        assert parse_poly(render_poly(f), ctx, 1) == f


# -- exit codes -------------------------------------------------------------


def test_exit_code_parse_error(capsys):
    assert main(["factor", "--q", "2", "--poly", "x^^2"]) == 2
    assert "parse error" in capsys.readouterr().err
    assert main(["count", "--q", "6", "-n", "1", "--poly", "x"]) == 2
    assert main(["zerodim", "--q", "2", "--poly", "x+w"]) == 2
    capsys.readouterr()
    assert main(["zerodim", "--q", "3", "--poly", "x^2+1", "--shift",
                 "x"]) == 2
    assert "--shift must be a constant" in capsys.readouterr().err


def test_exit_code_for_malformed_groups_and_moduli(capsys):
    assert main(["zerodim", "--q", "9", "--poly", "x^2+()"]) == 2
    assert main(["zerodim", "--q", "9", "--poly", "x^2+1",
                 "--modulus", "t^2+"]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("B", ["0", "-3"])
def test_verify_rejects_truncation_below_one(B, capsys):
    assert main(["verify", "--q", "2", "--poly", "x^3+x+1", "--mode",
                 "modp", "-B", B]) == 2
    assert "truncation order must be >= 1" in capsys.readouterr().err


def test_verify_truncates_at_four_by_default(capsys):
    assert main(["verify", "--q", "2", "--poly", "x^3+x+1", "--mode",
                 "modp", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["result"]["terms_compared"] == 5
    assert "B" not in got["inputs"]


def test_exit_code_precondition(capsys):
    assert main(["zerodim", "--q", "2", "--poly", "x^3+x",
                 "--method", "psi"]) == 3
    assert "precondition" in capsys.readouterr().err
    assert main(["zerodim", "--q", "3", "--poly", "2*x^2+1"]) == 3  # not monic


def test_zero_polynomial_in_no_variables_is_a_precondition(capsys):
    # the zero polynomial has no basis: exit 3, before the refusal of
    # n = 0 as invalid input (exit 2)
    assert main(["modpm", "--q", "2", "-n", "0", "--poly", "0",
                 "-B", "2"]) == 3
    assert "cannot build a basis" in capsys.readouterr().err


def test_exit_code_limits(capsys):
    assert main(["count", "--q", "2", "-n", "3", "--poly", "x*y+1",
                 "-k", "11"]) == 4
    assert "limit" in capsys.readouterr().err
    assert main(["factor", "--q", "128", "--poly", "x^2+x"]) == 4


def test_a_power_past_the_work_cap_exits_four(capsys):
    # the power f^42 over Z/49 meets a product past the cap
    assert main(["modpm", "--q", "7", "-n", "2", "-m", "2", "--poly",
                 "x^3+y^3+x^2*y+x*y^2+x^2+y^2+x*y+x+y+1", "-B", "3"]) == 4
    assert ("a product of 2183221 term pairs exceeds the cap 1500000"
            in capsys.readouterr().err)


def test_one_parser_serves_calls_in_turn(capsys):
    # the parser is built once per process, and each parse starts from a
    # fresh namespace, so no option of one call leaks into the next
    calls = [["count", "--q", "3", "-n", "2", "--poly", "x*y+1", "-k", "2",
              "--domain", "torus", "--json"],
             ["modpm", "--q", "2", "-n", "2", "-m", "2", "--poly", "x*y+1",
              "-B", "4", "--json"],
             ["count", "--q", "3", "-n", "2", "--poly", "x*y+1"]]
    in_turn = []
    for argv in calls:
        assert main(argv) == 0
        in_turn.append(capsys.readouterr().out)
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        assert main(argv) == 0
        fresh.append(capsys.readouterr().out)
    assert in_turn == fresh
    assert in_turn[0] != in_turn[2]


def test_large_prime_q_reaches_the_enumeration_cap_quickly(capsys):
    # recognising q = 10^14 + 31 as prime once took seconds of trial division
    start = time.perf_counter()
    assert main(["count", "--q", "100000000000031", "--poly", "x"]) == 4
    assert time.perf_counter() - start < 0.5
    assert "limit" in capsys.readouterr().err


def test_prime_above_the_miller_rabin_bound_exits_four_quickly(capsys):
    # q = 2^89 - 1 once fell back to trial division and never finished
    start = time.perf_counter()
    assert main(["count", "--q", str(2 ** 89 - 1), "--poly", "x"]) == 4
    assert time.perf_counter() - start < 0.5
    assert "Miller-Rabin" in capsys.readouterr().err


def test_count_cost_does_not_grow_with_the_exponent(capsys):
    # x^1000000 + x once built a dense list of a million coefficients
    start = time.perf_counter()
    assert main(["count", "--q", "2", "--poly", "x^1000000+x"]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.startswith("N_1 = 2 ")


def test_torus_zeta_cost_stops_at_the_vanishing_factors(capsys):
    # C(100000, i) for every i once took over 20 s; mod 8 only the factors
    # with 2^i != 0, i < 3, are computed
    start = time.perf_counter()
    assert main(["torus-zeta", "--q", "2", "-n", "100000", "-m", "3",
                 "-B", "3"]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.strip() == \
        "Z(torus) mod 8 = 1 + T + T^2 + T^3"


def test_torus_zeta_of_a_large_torus_ends_within_ten_seconds():
    # each factor (1 - 2^i T)^(+-C(3000, i)) is its binomial sum to T^2;
    # squaring once per bit of C(3000, i) ran past 30 s
    run = run_cli(["torus-zeta", "--q", "2", "-n", "3000", "-m", "3000",
                   "-B", "2", "--json"])
    assert run.returncode == 0, run.stderr
    pm = 2 ** 3000
    # the torus has (2^k - 1)^3000 points over F_(2^k): N_1 = 1 and
    # N_2 = 3^3000, so c_1 = 1 and c_2 = (1 + 3^3000) / 2
    assert json.loads(run.stdout)["result"]["series"] == \
        [1, 1, (1 + 3 ** 3000) // 2 % pm]


@pytest.mark.parametrize("argv,code", [
    # a 1x1 matrix: the operator is built from f itself, not f^65535
    (["modp", "--q", "65536", "-n", "2", "--poly", "x*y+x+1", "-B", "2"], 0),
    # e = 1, so f^1008 is expanded; its products pass the work cap
    (["modp", "--q", "1009", "-n", "2", "--poly", "x^2*y+x*y^2+x+y+1",
      "-B", "2"], 4),
], ids=["q=2^16", "q=1009"])
def test_large_q_operator_ends_within_ten_seconds(argv, code):
    run = run_cli(argv)
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stdout + run.stderr


# F_(p^2) for p = 2^63 + 29, whose codes pass 2^64; t*x = 0 is the one
# point x = 0, so its series is 1/(1 - T), and modpm, which counts the
# torus part, where x != 0, finds none
@pytest.mark.parametrize("command,series", [("modp", [1, 1, 1]),
                                            ("modpm", [1, 0, 0])])
def test_operators_over_a_field_past_int64(command, series):
    argv = [command, "--q", str((2 ** 63 + 29) ** 2), "-n", "1", "--poly",
            "t*x", "-B", "2", "--json"]
    run = run_cli(argv, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["result"]["series"] == series


def test_zerodim_over_a_field_past_int64_obeys_euler():
    # x^2 + t splits over F_q iff -t is a square, by Euler's criterion
    p = 2 ** 63 + 29
    ctx = make_field(p, 2)
    split = ctx.pow(ctx.neg(p), (ctx.q - 1) // 2) == 1   # the code p is t
    run = run_cli(["zerodim", "--q", str(ctx.q), "--poly", "x^2+t",
                   "--json"], timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["result"]["s"] == ([2, 0] if split
                                                     else [0, 1])


@pytest.mark.parametrize("argv", [
    # C(400, 2) = 79,800 monomials: a dense operator of 6.4 * 10^9 entries
    ["modp", "--q", "2", "-n", "2", "--poly", "x*y+1", "-d", "400"],
    # C(30, 3) = 4,060 monomials, whose Warshall closure ran for minutes
    ["modpm", "--q", "3", "-n", "3", "-m", "3", "--poly", "x*y*z+x+y+z+1",
     "-B", "2"],
], ids=["modp", "modpm"])
def test_operator_past_the_dimension_cap_exits_four_within_ten_seconds(
        argv):
    run = run_cli(argv)
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "operator dimension" in run.stderr


def test_count_past_the_table_caps_exits_four_within_ten_seconds():
    # F_59049 carries no tables, so even one variable is refused
    run = run_cli(["count", "--q", "3", "-n", "1", "-k", "10", "--poly",
                   "x^3+x+1"])
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "F_59049 is too large to tabulate" in run.stderr


def test_count_past_the_scalar_cap_exits_before_the_root_search():
    # F_(2^24) carries no tables, and the root of F_16's modulus that
    # embeds F_16 is searched for on them, so the count is refused first
    run = run_cli(["count", "--q", "16", "-n", "1", "-k", "6", "--poly", "x"])
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr


def test_count_past_the_enumeration_cap_exits_four_within_ten_seconds():
    # q^(k*n) = 2^100000 has 30103 digits: the cap refuses k*n >= 30
    # before the power is formed, and names q, k and n instead
    run = run_cli(["count", "--q", "2", "-n", "1", "-k", "100000",
                   "--poly", "x+1"])
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "q = 2, k = 100000, n = 1" in run.stderr


def test_count_past_the_enumeration_cap_exits_before_any_field():
    # the cap reads only q, k and n, so q = 2^600 is refused without
    # building F_(2^600)
    run = run_cli(["count", "--q", str(2 ** 600), "-n", "1", "--poly",
                   "x+1"])
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "k = 1, n = 1 exceeds the enumeration cap" in run.stderr


def test_factor_over_a_large_binary_field_is_refused_within_ten_seconds():
    # the default modulus of F_(2^600) is found and certified on packed
    # bits before factor's own cap refuses the field
    run = run_cli(["factor", "--q", str(2 ** 600), "--poly", "x+1"])
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "exceeds the cap" in run.stderr


@pytest.mark.parametrize("argv,out", [
    # x^(10^9) folds to x^708025 on F_(2^20): a Horner step per degree
    # took minutes, a step per gap between the exponents present takes two
    (["count", "--q", "2", "-n", "1", "--poly", "x^1000000000+x+1", "-k",
      "20"], "N_20 = 0  (affine)"),
    # a constant is answered from Q = 2^600 alone, without building
    # F_(2^600)
    (["count", "--q", "2", "-n", "0", "--poly", "1", "-k", "600"],
     "N_600 = 0  (affine)"),
], ids=["sparse-x^10^9", "constant-k=600"])
def test_count_ends_within_ten_seconds(argv, out):
    run = run_cli(argv)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == out


@pytest.mark.parametrize("k", ["0", "-3"])
def test_count_rejects_an_extension_degree_below_one(k):
    run = run_cli(["count", "--q", "2", "-n", "1", "--poly", "x+1", "-k", k])
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "extension degree k must be >= 1, got %s" % k in run.stderr


@pytest.mark.parametrize("argv", [
    ["modp", "--q", "2", "-n", "1", "--poly", "x+1", "-B", "100000"],
    ["modpm", "--q", "2", "-n", "1", "-m", "2", "--poly", "x+1",
     "-B", "50000"],
], ids=["modp", "modpm"])
def test_long_series_end_within_ten_seconds(argv):
    # a 1x1 or 3x3 matrix: each series costs O(B) per term of its
    # polynomial factors, not O(B^2)
    run = run_cli(argv + ["--json"])
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert len(json.loads(run.stdout)["result"]["series"]) == \
        int(argv[-1]) + 1


HUGE = "x^99999999999999999999+1"


@pytest.mark.parametrize("argv", [
    ["zerodim", "--q", "2", "--poly", HUGE],
    ["factor", "--q", "3", "--poly", HUGE],
    ["verify", "--mode", "zerodim", "--q", "2", "--poly", HUGE],
    ["zerodim", "--q", "2", "--poly", HUGE, "--shift", "1"],
    ["factor", "--q", "2", "--poly", "x^601+x+1", "--shift", "1"],
], ids=["zerodim", "factor", "verify", "zerodim-shift", "factor-shift"])
def test_univariate_past_the_dimension_cap_exits_four_within_ten_seconds(
        argv):
    # the operators act on F_q[x]/(f), of dimension deg f; it is checked
    # before any dense list of f is built, on the --shift path too
    run = run_cli(argv)
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "operator dimension" in run.stderr


@pytest.mark.parametrize("q,poly,degree,method", [
    ("2", "x^600+x+1", 600, "frobenius"),
    ("3", "x^300+x+2", 300, "frobenius"),
    ("2", "x^200+x+1", 200, "niederreiter"),
    ("3", "x^100+x+2", 100, "niederreiter"),
    ("2", "x^200+x+1", 200, "psi"),
    ("3", "x^100+x+2", 100, "psi"),
], ids=["2-x^600+x+1-600", "3-x^300+x+2-300", "2-niederreiter",
        "3-niederreiter", "2-psi", "3-psi"])
def test_factor_of_large_degree_ends_within_ten_seconds(q, poly, degree,
                                                        method):
    # one operator matrix and one kernel for f itself refine it into all
    # its components, for every operator; a kernel per component took
    # about 9 s at x^600+x+1.  The differential operators' inputs stay
    # inside the division cap q d (d+1) <= 10^5
    run = run_cli(["factor", "--q", q, "--poly", poly, "--method", method,
                   "--json"])
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    ctx = field(int(q))
    factors = json.loads(run.stdout)["result"]["factors"]
    assert sum(m * parse_poly(g, ctx, 1).degree()
               for g, m in factors) == degree


def test_factor_splits_psi_past_its_first_basis_vector():
    # the splitters from psi's first fixed vector leave two of the three
    # components in one piece here; a later pair of basis vectors cuts it
    poly = "x^10+2*x^8+2*x^7+x^5+x^4+2*x^3+x+2"
    run = run_cli(["factor", "--q", "3", "--poly", poly, "--method", "psi",
                   "--json"])
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["result"]["factors"] == [
        ["x + 1", 1], ["x + 2", 1], ["x^8 + 2*x^5 + x^2 + 2*x + 1", 1]]


@pytest.mark.parametrize("degree,method,code", [
    (120, "frobenius", 0), (121, "frobenius", 4), (121, "psi", 4)])
def test_profile_at_and_past_its_cap_ends_within_ten_seconds(degree, method,
                                                             code):
    # over F_2 the profile's e^2 d^4 cap admits d = 120; x^d + x + 1 has
    # derivative 1 for even d, so it is squarefree and sum i s_i = d
    argv = ["zerodim", "--q", "2", "--poly", "x^%d+x+1" % degree,
            "--method", method, "--json"]
    run = run_cli(argv)
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    if code:
        assert "deg f = %d over F_2" % degree in run.stderr
    else:
        s = json.loads(run.stdout)["result"]["s"]
        assert sum(i * v for i, v in enumerate(s, 1)) == degree


def test_operator_past_the_extension_cap_exits_four_within_ten_seconds():
    # a dense f of degree 34 in two variables over F_16: dimension 561 is
    # under 600, but e^2 561^3 is past 600^3, where the cap is 238
    poly = "+".join("x^%d*y^%d" % (i, j) for i in range(35)
                    for j in range(35 - i))
    run = run_cli(["modp", "--q", "16", "-n", "2", "-B", "2", "--poly", poly])
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "operator dimension 561 exceeds the cap 238" in run.stderr


@pytest.mark.parametrize("method", ["psi", "niederreiter"])
@pytest.mark.parametrize("q", [10 ** 9 + 7, 10 ** 6 + 3])
@pytest.mark.parametrize("command", [["zerodim"], ["verify", "--mode",
                                                   "zerodim"]])
def test_operators_past_the_division_cap_exit_four_within_ten_seconds(
        command, q, method):
    # f^(q-1) = f(x^q)/f takes q*d*(d+1) steps, bounded before f(x^q) is
    # listed and, for zerodim, before the profile's Frobenius matrix
    argv = command + ["--q", str(q), "--poly", "x^3+x+1", "--method", method]
    run = run_cli(argv)
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "F_%d, deg f = 3" % q in run.stderr


def test_verify_zerodim_checks_the_sieve_cap_before_any_matrix():
    # deg f = 200 over F_(10^9+7): trial division needs a sieve of degree
    # 100, refused before the Frobenius matrix and its charpoly are built
    argv = ["verify", "--mode", "zerodim", "--q", "1000000007", "--poly",
            "x^200+x+1"]
    run = run_cli(argv)
    assert run.returncode == 4, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
    assert "needs a sieve past the cap" in run.stderr


def test_verify_refuses_the_largest_count_first(capsys):
    # N_10 is over F_59049, which has no tables; it is counted first, so
    # N_1..N_9 are never built
    start = time.perf_counter()
    assert main(["verify", "--mode", "modp", "--q", "3", "-n", "1",
                 "--poly", "x^4+x+2", "-B", "10"]) == 4
    assert time.perf_counter() - start < 1.0
    assert "F_59049" in capsys.readouterr().err


def test_size_caps_are_not_flags():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--q", "2", "-n", "3", "--poly", "x*y+1", "-k", "2",
              "--max-enum", "10"])
    assert exc.value.code == 2


def test_torus_zeta_takes_no_modulus():
    # the torus zeta reads only p and q, so a modulus could not change it
    with pytest.raises(SystemExit) as exc:
        main(["torus-zeta", "--q", "4", "--modulus", "t^2+t+1", "-n", "1",
              "-B", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("m", ["0", "-1"])
def test_torus_zeta_rejects_precision_below_one(m, capsys):
    assert main(["torus-zeta", "--q", "2", "-n", "1", "-m", m, "-B", "2"]) == 2
    assert "precision must be >= 1" in capsys.readouterr().err


def test_torus_zeta_builds_no_field():
    # the closed form reads only p and e: F_(2^600), whose default modulus
    # search takes about a minute, is never built.  Z = (1 - T)/(1 - qT),
    # which is 1 + T mod 2 as q is even
    q = 2 ** 600
    run = run_cli(["torus-zeta", "--q", str(q), "-n", "1", "-B", "2",
                   "--json"])
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert (out["q"], out["p"], out["e"]) == (q, 2, 600)
    assert out["result"] == {"modulus": 2, "series": [1, 1, 0]}


@pytest.mark.parametrize("poly,count", [("1", 0), ("0", 1)])
def test_count_in_zero_variables(poly, count, capsys):
    assert main(["count", "--q", "2", "-n", "0", "--poly", poly]) == 0
    assert capsys.readouterr().out.startswith("N_1 = %d " % count)


@pytest.mark.parametrize("command", ["count", "modp"])
def test_negative_variable_count_is_malformed(command, capsys):
    assert main([command, "--q", "2", "-n", "-1", "--poly", "1"]) == 2
    assert "number of variables must be >= 0" in capsys.readouterr().err
    with pytest.raises(ValueError):
        parse_poly("1", field(2), -1)


# -- behaviors --------------------------------------------------------------


@pytest.mark.parametrize("argv,assembler", [
    (["modp", "--q", "2", "-n", "1", "--poly", "x^3+x+1", "-B", "4"],
     "hyper_matrix_mod_p"),
    (["modp", "--q", "4", "-n", "2", "--poly", "x^2*y+t*x*y^2+1", "-B", "3"],
     "hyper_matrix_mod_p"),
    (["modpm", "--q", "3", "-n", "1", "-m", "2", "--poly", "x^2+x+2"],
     "hyper_matrix_mod_pm"),
    (["modpm", "--q", "2", "-n", "2", "-m", "2", "--poly", "x*y+1", "-B", "4"],
     "hyper_matrix_mod_pm"),
])
def test_one_matrix_and_one_charpoly_per_command(argv, assembler, monkeypatch,
                                                 capsys):
    counts = count_calls(monkeypatch, ("hyper_matrix_mod_p",
                                       "hyper_matrix_mod_pm",
                                       "charpoly_reverse"))
    assert main(argv + ["--json", "--dump-matrix"]) == 0
    want = {"hyper_matrix_mod_p": 0, "hyper_matrix_mod_pm": 0,
            "charpoly_reverse": 1}
    want[assembler] = 1
    assert counts == want
    assert json.loads(capsys.readouterr().out)["result"]["matrix"]


@pytest.mark.parametrize("argv", [
    ["modp", "--q", "2", "-n", "2", "--poly", "x*y+1"],
    ["modpm", "--q", "2", "-n", "2", "-m", "2", "--poly", "x*y+1"],
])
def test_truncation_below_one_fails_before_any_matrix(argv, monkeypatch,
                                                      capsys):
    counts = count_calls(monkeypatch, ("hyper_matrix_mod_p",
                                       "hyper_matrix_mod_pm",
                                       "charpoly_reverse"))
    assert main(argv + ["-B", "0"]) == 2
    assert "truncation order must be >= 1" in capsys.readouterr().err
    assert counts == {"hyper_matrix_mod_p": 0, "hyper_matrix_mod_pm": 0,
                      "charpoly_reverse": 0}


@pytest.mark.parametrize("method,matrices", [("frobenius", 1),
                                             ("niederreiter", 2),
                                             ("psi", 2)])
def test_zerodim_builds_each_operator_matrix_once(method, matrices,
                                                  monkeypatch, capsys):
    # the profile always needs the Frobenius matrix; the charpoly and the
    # dump read the chosen operator's matrix, which may be the same one
    counts = count_calls(monkeypatch, ("op_matrix",))
    assert main(["zerodim", "--q", "3", "--poly", "x^4+x+2", "--method",
                 method, "--dump-matrix", "--json"]) == 0
    assert counts == {"op_matrix": matrices}
    assert json.loads(capsys.readouterr().out)["result"]["matrix"]


@pytest.mark.parametrize("argv", [
    ["modpm", "--q", "3", "-n", "1", "-m", "2", "--poly", "x^2+x+2"],
    ["modpm", "--q", "2", "-n", "2", "-m", "2", "--poly", "x*y+1", "-B", "4"],
])
def test_modpm_computes_the_torus_series_once(argv, monkeypatch, capsys):
    counts = count_calls(monkeypatch, ("torus_zeta",))
    assert main(argv + ["--json"]) == 0
    assert counts == {"torus_zeta": 1}
    assert json.loads(capsys.readouterr().out)["result"]["torus"]


def test_shift_translates_and_pulls_back(capsys):
    assert main(["factor", "--q", "3", "--poly", "x^2+2*x", "--shift", "1",
                 "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["result"]["factors"] == [["x", 1], ["x + 2", 1]]


def test_shift_with_extension_constant(capsys):
    assert main(["factor", "--q", "4", "--poly", "x^2+(t+1)",
                 "--shift", "(t)", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["result"]["factors"] == [["x + (t)", 2]]


def test_explicit_modulus_flag(capsys):
    assert main(["zerodim", "--q", "4", "--modulus", "t^2+t+1",
                 "--poly", "x^2+t*x", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["result"]["s"] == [2, 0]


def test_dump_matrix_flag(capsys):
    assert main(["zerodim", "--q", "2", "--poly", "x^2+x+1",
                 "--dump-matrix", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["result"]["matrix"] == [[1, 1], [0, 1]]
    assert main(["zerodim", "--q", "2", "--poly", "x^2+x+1", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert "matrix" not in got["result"]


def test_human_output_default(capsys):
    assert main(["zerodim", "--q", "2", "--poly", "x^2+x+1"]) == 0
    out = capsys.readouterr().out
    assert "s = [0, 1]" in out
    assert "1/((1-T^2))" in out


@pytest.mark.parametrize("mode,extra", [
    ("modp", ["-n", "2", "-B", "3"]),
    ("modpm", ["-n", "1", "-m", "2", "-B", "4"]),
    ("zerodim", []),
])
def test_verify_agreement_across_corpus(mode, extra, capsys):
    polys = {
        "modp": ["x*y+1", "x^2+y^2+1", "x*y+x+y"],
        "modpm": ["x^2+x+1", "x^3+x+1", "x^2+x"],
        "zerodim": ["x^2+x+1", "x^4+x^2+1", "x^5+x+1"],
    }[mode]
    for poly in polys:
        argv = ["verify", "--q", "2", "--poly", poly, "--mode", mode,
                "--json"] + extra
        assert main(argv) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["result"]["match"] is True
