"""Randomized properties beyond the seeded corpora; kept deliberately small."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import field, matrix_from_rows
from ffzeta import (OperatorKind, charpoly_reverse, congruence_charpoly,
                    make_field, make_galois_ring, trial_factorize)
from ffzeta.cli import parse_modulus, parse_poly
from ffzeta.errors import ParseError
from ffzeta.hyper import _product_series
from ffzeta.poly import SparsePoly, render_poly


@st.composite
def monic_uni(draw, q, dmin=2, dmax=9, nonzero_const=False):
    ctx = field(q)
    d = draw(st.integers(dmin, dmax))
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    if nonzero_const:
        coeffs[0] = draw(st.integers(1, q - 1))
    return SparsePoly.from_dense(ctx, coeffs + [1])


@st.composite
def sparse_mv(draw, q, nvars, dmax):
    ctx = field(q)
    n_terms = draw(st.integers(1, 6))
    terms = {}
    for _ in range(n_terms):
        u = tuple(draw(st.lists(st.integers(0, dmax), min_size=nvars,
                                max_size=nvars)))
        if sum(u) <= dmax:
            c = draw(st.integers(1, q - 1))
            terms[u] = c
    if not terms:
        terms[(0,) * nvars] = 1
    return SparsePoly(ctx, nvars, terms)


@settings(max_examples=60, deadline=None)
@given(monic_uni(3, nonzero_const=True))
def test_charpoly_degree_parity(f):
    # the reversed charpoly always ends at a product of (1 - T^d_i) factors
    cp = congruence_charpoly(f, OperatorKind.FROBENIUS)
    deg = sum(g.degree() for g, _ in trial_factorize(f).factors)
    stripped = list(cp)
    while stripped and stripped[-1] == 0:
        stripped.pop()
    assert len(stripped) - 1 == deg


@settings(max_examples=50, deadline=None)
@given(sparse_mv(3, 2, 3))
def test_render_parse_round_trip(f):
    assert parse_poly(render_poly(f), f.ctx, f.nvars) == f


# (p, e, m): Z/4, Z/8, Z/9, Z/25, Z/27, GR(4, 2), GR(9, 2), GR(4, 3)
GALOIS_RINGS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (5, 1, 2), (3, 1, 3),
                (2, 2, 2), (3, 2, 2), (2, 3, 2)]


_PARSER_ALPHABET = "0123456789xyt^*+-()? "


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(_PARSER_ALPHABET, max_size=40),
                 st.integers(1, 600).map(lambda k: "(" * k),
                 st.integers(1, 600).map(lambda k: "(" * k + "t" + ")" * k),
                 st.integers(1, 300).map(lambda k: "x*(" * k)))
def test_parsers_raise_only_parse_errors(text):
    for call in (lambda: parse_poly(text, field(2), 2),
                 lambda: parse_poly(text, field(9), 2),
                 lambda: parse_modulus(text, 3)):
        try:
            call()
        except ParseError:
            pass


@st.composite
def ring_matrix(draw):
    """A Galois ring and rows of a matrix over it: arbitrary, singular (a
    row a multiple of another), strictly upper triangular, or with every
    entry a multiple of p (both nilpotent)."""
    p, e, m = draw(st.sampled_from(GALOIS_RINGS))
    ring = make_galois_ring(make_field(p, e), m)
    n = draw(st.integers(1, 5))
    code = st.integers(0, ring.size - 1)
    rows = [[draw(code) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["any", "singular", "upper", "p"]))
    if kind == "singular" and n > 1:
        c = draw(code)
        rows[-1] = [ring.mul(c, x) for x in rows[0]]
    elif kind == "upper":
        rows = [[x if j > i else 0 for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    elif kind == "p":
        rows = [[ring.mul(p, x) for x in row] for row in rows]
    return ring, rows


@settings(max_examples=80, deadline=None)
@given(ring_matrix(), st.data())
def test_charpoly_of_scaled_matrix_is_charpoly_at_scaled_argument(rm, data):
    # det(I - cMT) = P(cT) for P(T) = det(I - MT), with c*M built here
    ring, rows = rm
    c = data.draw(st.integers(0, ring.size - 1))
    P = charpoly_reverse(matrix_from_rows(ring, rows))
    scaled = [[ring.mul(c, x) for x in row] for row in rows]
    want = [ring.mul(ring.pow(c, k), a) for k, a in enumerate(P)]
    assert charpoly_reverse(matrix_from_rows(ring, scaled)) == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6),
                          st.lists(st.integers(0, 7), max_size=6)),
                min_size=1, max_size=4), st.data())
def test_series_ring_laws(factors, data):
    # mod 8, every constant term 1: the order of the factors does not
    # change the product, a^k a^-k is 1, and the exact product reduces
    # to the one mod 8
    order = 5
    factors = [(k, [1] + a) for k, a in factors]
    want = _product_series(8, order, factors)
    assert _product_series(8, order, data.draw(st.permutations(factors))) \
        == want
    assert [c % 8 for c in _product_series(None, order, factors)] == want
    for k, a in factors:
        assert _product_series(8, order, [(k, a), (-k, a)]) == \
            [1] + [0] * order
