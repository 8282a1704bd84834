import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_multipoly, value_at
from polyinj.parser import (
    MAX_NESTING,
    Add,
    Lit,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    lower,
    parse,
    parse_poly,
)
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
    for bad in ["", "  ", "3y", "x y", "q", "x**2", "(x", "x)", "1+", "^2", "x^", "x^y", "x^(2)",
                "x^\u00b2", "\u00b2"]:
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


def test_long_products_and_sign_runs_parse():
    # Products are left-deep Mul chains and are lowered iteratively; a run of
    # unary minus signs folds by parity instead of nesting.
    assert parse_poly("*".join(["x"] * 1000)) == MultiPoly(("x",), {(1000,): Fraction(1)})
    assert parse_poly("-" * 1000 + "x") == parse_poly("x")
    assert parse_poly("-" * 1001 + "x") == parse_poly("-x")
    assert parse("---x^2") == Neg(Pow(Var("x"), 2))


def test_nesting_limit():
    at_limit = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(at_limit) == parse_poly("x")
    sums = "(1 + " * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(sums) == parse_poly(f"x + {MAX_NESTING}")
    for depth in (MAX_NESTING + 1, 400, 5000):
        with pytest.raises(ParseError) as exc:
            parse_poly("(" * depth + "x" + ")" * depth)
        assert exc.value.offset == MAX_NESTING


def _ast_value(node, point: dict) -> Fraction:
    """Value of a parse() AST at a point, computed directly in Fraction."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return point[node.name]
    if isinstance(node, Neg):
        return -_ast_value(node.operand, point)
    if isinstance(node, Pow):
        return _ast_value(node.base, point) ** node.exponent
    left, right = _ast_value(node.left, point), _ast_value(node.right, point)
    if isinstance(node, Add):
        return left + right
    if isinstance(node, Sub):
        return left - right
    assert isinstance(node, Mul), node
    return left * right


def _random_expr(rng: random.Random, depth: int) -> str:
    """A well-formed expression; composite operands are parenthesized."""
    if depth == 0 or rng.random() < 0.1:
        leaf = rng.randrange(4)
        if leaf < 2:
            return rng.choice("xyzw")
        if leaf == 2:
            return str(rng.randint(0, 12))
        return f"{rng.randint(0, 12)}/{rng.randint(1, 9)}"

    def sub() -> str:
        return f"({_random_expr(rng, depth - 1)})"

    kind = rng.choices(range(6), weights=(4, 2, 2, 1, 1, 1))[0]
    if kind == 0:  # sum or difference, with unary minus runs on some terms
        text = sub()
        for _ in range(rng.randint(1, 3)):
            text += rng.choice([" + ", " - "]) + "-" * rng.choice([0, 0, 1, 2, 3]) + sub()
        return text
    if kind == 1:
        return "*".join(sub() for _ in range(rng.randint(2, 3)))
    if kind == 2:  # power of a sum
        return f"({sub()} {rng.choice('+-')} {sub()})^{rng.randint(0, 3)}"
    if kind == 3:
        return "-" * rng.randint(1, 5) + sub() + f"^{rng.randint(1, 2)}"
    if kind == 4:  # redundant parentheses
        k = rng.randint(1, 4)
        return "(" * k + _random_expr(rng, depth - 1) + ")" * k
    # zero or a constant: e minus itself, plus a literal
    e = sub()
    return f"{e} - {e} + {rng.randint(0, 3)}"


def test_lower_matches_ast_oracle():
    rng = random.Random(4242)
    results = set()
    for _ in range(300):
        text = _random_expr(rng, rng.randint(1, 4))
        ast = parse(text)
        poly = parse_poly(text)
        for _ in range(3):
            pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in "xyzw"}
            assert value_at(poly, **pt) == _ast_value(ast, pt), text
        results.add("zero" if poly.is_zero() else "constant" if not poly.vars else "other")
    assert results == {"zero", "constant", "other"}


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
