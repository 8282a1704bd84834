import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_multipoly
from polyinj.parser import Add, Lit, Mul, Neg, ParseError, Pow, Var, lower, parse, parse_poly
from polyinj.poly import MultiPoly


def test_parse_examples():
    ast = parse("x^7 + 3*y^7")
    assert ast == Add(Pow(Var("x"), 7), Mul(Lit(Fraction(3)), Pow(Var("y"), 7)))
    assert parse("(x+y)^2") == Pow(Add(Var("x"), Var("y")), 2)
    with pytest.raises(ParseError):
        parse("x^-1")


def test_negative_exponent_offset():
    with pytest.raises(ParseError) as exc:
        parse("x^-1")
    assert exc.value.offset == 2


def test_lower_examples():
    assert parse_poly("(x+y)^2") == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("x - x").is_zero()
    assert parse_poly("1/2*x^2") == MultiPoly(("x",), {(2,): Fraction(1, 2)})


def test_precedence_and_unary_minus():
    # '^' binds tighter than unary minus.
    assert parse("-x^2") == Neg(Pow(Var("x"), 2))
    assert parse_poly("-x^2") == -parse_poly("x^2")
    assert parse_poly("1 - 2*x") == parse_poly("1 + -2*x".replace("+ -", "- "))
    assert parse_poly("2*x^3") == parse_poly("2 * x ^ 3")  # whitespace-insensitive


def test_rational_literals():
    assert parse_poly("3/2") == MultiPoly.const(Fraction(3, 2))
    assert parse_poly("3/2^2") == MultiPoly.const(Fraction(9, 4))  # atom first, then power
    with pytest.raises(ParseError):
        parse("1/0")
    with pytest.raises(ParseError):
        parse("(1+2)/3")  # '/' only inside rational literals


def test_error_cases():
    for bad in ["", "  ", "3y", "x y", "q", "x**2", "(x", "x)", "1+", "^2", "x^", "x^y", "x^(2)"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("3y")
    with pytest.raises(ParseError):
        parse("2(x+y)")


def test_unknown_variable_offset():
    with pytest.raises(ParseError) as exc:
        parse("x + v")
    assert exc.value.offset == 4


def test_exponent_limit():
    with pytest.raises(ParseError):
        parse("x^10000000")


def test_render_round_trip_handpicked():
    for text in [
        "0",
        "5",
        "-1/2",
        "x",
        "-x",
        "x^7 + 3*y^7",
        "x^2 - 2*x*y + y^2",
        "1/3*x^4*z - w^2 + 7",
    ]:
        p = parse_poly(text)
        assert parse_poly(p.render()) == p


def test_long_sums_parse():
    # Sums are left-deep chains, one node per term; lowering must not recurse
    # along them.
    p = parse_poly(" + ".join(f"x^{i}" for i in range(1000)))
    assert p == MultiPoly(("x",), {(i,): Fraction(1) for i in range(1000)})
    big = MultiPoly(
        ("x", "y"),
        {(i, j): Fraction((-1) ** i * (i + 1), j + 1) for i in range(50) for j in range(41)},
    )
    assert len(big.terms) > 2000
    assert parse_poly(big.render()) == big


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**63))
def test_render_round_trip_random(seed):
    p = random_multipoly(random.Random(seed))
    assert parse_poly(p.render()) == p


_SOUP_ALPHABET = "xyzw+-*/^() 0123456789qe$." + "\t"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_SOUP_ALPHABET, min_size=0, max_size=30))
def test_fuzz_never_panics(text):
    # Anything the grammar rejects must fail as a clean ParseError.
    try:
        poly = parse_poly(text)
    except ParseError:
        return
    assert isinstance(poly, MultiPoly)
