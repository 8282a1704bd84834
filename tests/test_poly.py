import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_is_separable, random_form, random_multipoly, random_rational, value_at
from polyinj.collide import SearchSpace, find_collisions
from polyinj.localfields import padic_collision, real_collision
from polyinj.parser import parse_poly
from polyinj.poly import BinaryForm, MultiPoly


def form(text: str) -> BinaryForm:
    return BinaryForm.from_multipoly(parse_poly(text))


def test_eval_examples():
    p = parse_poly("x^7 + 3*y^7")
    assert p.eval_xy(1, 1) == 4
    assert p.eval_xy(2, 1) == 131
    assert parse_poly("x^3 + y^3").eval_xy(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 4)
    # Exact coordinates only: a "num/den" string is read, a float refused.
    assert p.eval_xy("1/2", 1) == Fraction(385, 128)
    assert type(p.eval_xy(1, 1)) is Fraction
    with pytest.raises(TypeError):
        p.eval_xy(0.5, 1)


def test_substitute_examples():
    x5p1 = parse_poly("x^5 + 1")
    assert parse_poly("x^2").substitute({"x": x5p1}) == parse_poly("x^10 + 2*x^5 + 1")
    assert parse_poly("x*y").substitute(
        {"x": parse_poly("x^5 + y^5"), "y": parse_poly("y^5")}
    ) == parse_poly("x^5*y^5 + y^10")
    # Composition identity at a point.
    p = parse_poly("x^7 + 3*y^7")
    sub = p.substitute({"x": parse_poly("x^5 + 1"), "y": parse_poly("y^5 + 1")})
    assert sub.eval_xy(1, 1) == p.eval_xy(2, 2) == 512


def test_substitute_unmapped_variable():
    with pytest.raises(ValueError):
        parse_poly("x + y").substitute({"x": parse_poly("x")})


def test_homogeneity_examples():
    assert parse_poly("x^7 + 3*y^7").homogeneity() == 7
    assert parse_poly("x^2 + y").homogeneity() is None
    assert parse_poly("x*y").homogeneity() == 2
    with pytest.raises(ValueError):
        MultiPoly.zero().homogeneity()


def test_separability_examples():
    assert form("x^2*y").is_separable() is False
    assert form("x^2 + y^2").is_separable() is True
    assert form("x^7 + 3*y^7").is_separable() is True


def test_separability_more_cases():
    assert form("x*y").is_separable() is True
    assert form("x^2").is_separable() is False
    assert form("y^2").is_separable() is False
    assert form("x^2 + 2*x*y + y^2").is_separable() is False  # (x+y)^2
    assert form("x^3 - y^3").is_separable() is True


def test_separability_matches_resultant_oracle_on_random_forms():
    rng = random.Random(7)
    for _ in range(300):
        f = random_form(rng, rng.randint(1, 6))
        assert f.is_separable() == oracle_is_separable(f)
    # Constructed squareful cases.
    for _ in range(50):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if a == 0 and b == 0:
            continue
        lin = MultiPoly(("x", "y"), {(1, 0): a, (0, 1): b})
        g = random_form(rng, rng.randint(1, 3)).to_multipoly()
        squareful = BinaryForm.from_multipoly(lin * lin * g)
        assert squareful.is_separable() is False
        assert oracle_is_separable(squareful) is False


def test_homogeneity_scaling_property():
    rng = random.Random(11)
    for _ in range(30):
        d = rng.randint(1, 7)
        f = random_form(rng, d)
        lam = random_rational(rng, 9)
        x, y = random_rational(rng, 9), random_rational(rng, 9)
        assert value_at(f, x=lam * x, y=lam * y) == lam**d * value_at(f, x=x, y=y)


def test_substitute_is_ring_homomorphism_on_samples():
    rng = random.Random(13)
    sigma = {
        "x": parse_poly("x^2 - y"),
        "y": parse_poly("y^3 + 1/2"),
    }
    for _ in range(12):
        p = random_multipoly(rng, max_terms=4, max_exp=4)
        q = random_multipoly(rng, max_terms=4, max_exp=4)
        full = {v: sigma.get(v, parse_poly("z - w")) for v in ("x", "y", "z", "w")}
        ps = p.substitute({v: full[v] for v in p.vars})
        qs = q.substitute({v: full[v] for v in q.vars})
        sum_s = (p + q).substitute({v: full[v] for v in (p + q).vars})
        prod_s = (p * q).substitute({v: full[v] for v in (p * q).vars})
        for _ in range(10):
            pt = {v: random_rational(rng, 5) for v in ("x", "y", "z", "w")}
            assert value_at(sum_s, **pt) == value_at(ps, **pt) + value_at(qs, **pt)
            assert value_at(prod_s, **pt) == value_at(ps, **pt) * value_at(qs, **pt)


def test_ring_operations_match_evaluation_oracle():
    # (p op q) at a point must equal p op q of the values there, for
    # operands over overlapping, disjoint and empty variable sets.
    rng = random.Random(77)
    variables = ("x", "y", "z", "w")
    subsets = [(), ("x",), ("y", "w"), ("x", "z"), ("x", "y"), ("z", "w"), variables]

    def operand(vs):
        kind = rng.randrange(5)
        if kind == 0:
            return MultiPoly.zero()
        if kind == 1 or not vs:
            return MultiPoly.const(random_rational(rng, 9))
        terms = {
            tuple(rng.randint(0, 3) for _ in vs): random_rational(rng, 9)
            for _ in range(rng.randint(1, 5))
        }
        return MultiPoly(vs, terms)

    for _ in range(300):
        p, q = operand(rng.choice(subsets)), operand(rng.choice(subsets))
        results = (p + q, p - q, p * q, -p)
        for _ in range(3):
            pt = {v: random_rational(rng, 7) for v in variables}
            pv, qv = value_at(p, **pt), value_at(q, **pt)
            assert [value_at(r, **pt) for r in results] == [pv + qv, pv - qv, pv * qv, -pv]
    # Disjoint variables multiply into one term per pair of terms.
    xz = MultiPoly(("x", "z"), {(1, 0): 2, (0, 1): 3})
    yw = MultiPoly(("y", "w"), {(2, 0): 1, (0, 1): -1})
    assert xz * yw == parse_poly("2*x*y^2 - 2*x*w + 3*z*y^2 - 3*z*w")
    assert (xz - xz).is_zero() and (xz * MultiPoly.zero()).is_zero()


def test_xy_terms_and_its_callers_refuse_z_and_w():
    assert parse_poly("3*x^2*y - y + 1/2").xy_terms() == [
        (2, 1, 3), (0, 1, -1), (0, 0, Fraction(1, 2))
    ]
    assert parse_poly("y^2").xy_terms() == [(0, 2, 1)]
    assert MultiPoly.zero().xy_terms() == []
    for text in ("x^3 + z^3", "x*y + w", "z"):
        poly = parse_poly(text)
        for refuse in (
            poly.xy_terms,
            lambda: find_collisions(poly, SearchSpace("integers", 2)),
            lambda: real_collision(poly, 1, 1, 1e-9),
            lambda: padic_collision(poly, 5, 4, (1, 1)),
            lambda: BinaryForm.from_multipoly(poly),
            lambda: poly.eval_xy(1, 1),
        ):
            with pytest.raises(ValueError, match=r"\(x, y\)"):
                refuse()


def _random_image(rng: random.Random) -> MultiPoly:
    """An image for substitution: zero, a constant, or a random polynomial."""
    kind = rng.randrange(4)
    if kind == 0:
        return MultiPoly.zero()
    if kind == 1:
        return MultiPoly.const(random_rational(rng, 9) or 1)
    return random_multipoly(rng, max_terms=4, max_exp=3)


def test_substitute_matches_evaluation_oracle():
    # g(images) at a point must equal g at the images' values there.
    rng = random.Random(2024)
    variables = ("x", "y", "z", "w")
    for nvars in (1, 2, 3, 4):
        for _ in range(40):
            vs = variables[:nvars]
            terms = {
                tuple(rng.randint(0, 4) for _ in vs): random_rational(rng, 12) or 1
                for _ in range(rng.randint(1, 6))
            }
            g = MultiPoly(vs, terms)
            mapping = {v: _random_image(rng) for v in g.vars}
            composed = g.substitute(mapping)
            for _ in range(3):
                pt = {v: random_rational(rng, 7) for v in variables}
                values = {v: value_at(m, **pt) for v, m in mapping.items()}
                assert value_at(composed, **pt) == value_at(g, **values)


def test_substitute_edge_images():
    g = parse_poly("3/2*x^3*y - x*y^2 + 5")
    assert g.substitute({"x": MultiPoly.zero(), "y": parse_poly("y")}) == parse_poly("5")
    assert g.substitute({"x": parse_poly("2"), "y": parse_poly("-1/3")}) == MultiPoly.const(
        Fraction(3, 2) * 8 * Fraction(-1, 3) - 2 * Fraction(1, 9) + 5
    )
    # Images whose contributions cancel leave no variables behind.
    z2 = parse_poly("z^2")
    assert parse_poly("x - y").substitute({"x": z2, "y": z2}).is_zero()
    assert MultiPoly.zero().substitute({}).is_zero()
    assert parse_poly("7/3").substitute({}) == parse_poly("7/3")


def test_zero_form_rejected_multipoly_allows_zero():
    assert MultiPoly.zero().is_zero()
    with pytest.raises(ValueError):
        BinaryForm(2, (Fraction(0), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        BinaryForm.from_multipoly(MultiPoly.zero())


def test_binary_form_multipoly_round_trip():
    f = form("x^3 - 2*x*y^2 + 5*y^3")
    assert f.degree == 3
    assert BinaryForm.from_multipoly(f.to_multipoly()) == f
    assert value_at(f, x=2, y=3) == f.to_multipoly().eval_xy(2, 3)


def test_from_multipoly_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        BinaryForm.from_multipoly(parse_poly("x^2 + y"))
    with pytest.raises(ValueError):
        BinaryForm.from_multipoly(parse_poly("x + z"))


def test_graded_lex_serialization_order():
    p = parse_poly("y^2 + x^2 + 2*x*y + x + 3")
    exps = [t["exp"] for t in p.to_json_dict()["terms"]]
    assert exps == [[2, 0], [1, 1], [0, 2], [1, 0], [0, 0]]


def test_json_schema_example():
    p = parse_poly("x^7 + 3*y^7")
    assert p.to_json_dict() == {
        "vars": ["x", "y"],
        "terms": [
            {"exp": [7, 0], "coef": "1/1"},
            {"exp": [0, 7], "coef": "3/1"},
        ],
    }
    assert MultiPoly.from_json_dict(p.to_json_dict()) == p


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**63))
def test_multipoly_json_round_trip_random(seed):
    rng = random.Random(seed)
    p = random_multipoly(rng)
    assert MultiPoly.from_json_dict(p.to_json_dict()) == p


def test_partial_derivative():
    p = parse_poly("x^3*y + 2*x*y^2 - 7")
    assert p.partial("x") == parse_poly("3*x^2*y + 2*y^2")
    assert p.partial("y") == parse_poly("x^3 + 4*x*y")
    assert p.partial("z").is_zero()


def test_normalization_drops_phantom_variables():
    p = MultiPoly(("x", "y"), {(2, 0): 1})
    assert p.vars == ("x",)
    assert (parse_poly("x + y") - parse_poly("y")).vars == ("x",)
