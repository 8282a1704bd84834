import hashlib
import random
from fractions import Fraction

import pytest

from conftest import random_form, random_rational, value_at
from polyinj.parser import parse_poly
from polyinj.pipeline import build_injection, choose_prime, make_G, make_f, twist
from polyinj.poly import BinaryForm


def form(text: str) -> BinaryForm:
    return BinaryForm.from_multipoly(parse_poly(text))


def test_choose_prime_examples():
    assert choose_prime(2) == 5
    assert choose_prime(6) == 5
    assert choose_prime(10) == 7
    with pytest.raises(ValueError):
        choose_prime(3)
    with pytest.raises(ValueError):
        choose_prime(0)


def test_twist_examples():
    assert twist(form("x*y"), ((1, 1), (0, 1)), 5).to_multipoly() == parse_poly(
        "x^5*y^5 + y^10"
    )
    assert twist(form("x^2 + y^2"), ((1, 0), (0, 1)), 5).to_multipoly() == parse_poly(
        "x^10 + y^10"
    )
    f7 = random_form(random.Random(1), 7)
    assert twist(f7, ((2, 1), (1, 1)), 5).degree == 35


def test_twist_singular_matrix():
    with pytest.raises(ValueError):
        twist(form("x^2 + y^2"), ((1, 2), (2, 4)), 5)


def test_twist_degree_law_over_degrees():
    rng = random.Random(2)
    for d in (2, 3, 5):
        f = random_form(rng, d)
        tw = twist(f, ((1, 2), (0, 1)), 5)
        assert tw.degree == d * 5
        assert tw.to_multipoly().homogeneity() == d * 5


def test_twist_evaluates_as_composite():
    rng = random.Random(4)
    f = random_form(rng, 3)
    m = ((2, -1), (1, 3))
    tw = twist(f, m, 5)
    for _ in range(10):
        x, y = random_rational(rng, 7), random_rational(rng, 7)
        assert value_at(tw, x=x, y=y) == value_at(
            f, x=2 * x**5 - y**5, y=x**5 + 3 * y**5
        )


def test_make_G_examples():
    assert make_G(form("x^2"), 5) == parse_poly("x^10 + 2*x^5 + 1")
    assert make_G(form("x*y"), 5) == parse_poly("x^5*y^5 + x^5 + y^5 + 1")
    g = make_G(form("x^5 + 3*y^5"), 5)
    assert g.eval_xy(1, 1) == 128  # F(2, 2)
    assert g.total_degree() == 25
    # p = 0 would merge the images' t^p and constant terms; it is refused.
    for build in (lambda: make_G(form("x^2"), 0), lambda: make_f(g, 1, 1, 0),
                  lambda: twist(form("x^2 + y^2"), ((1, 1), (0, 1)), 0)):
        with pytest.raises(ValueError, match="exponent p"):
            build()


def test_make_f_examples():
    g = make_G(form("x^5 + 3*y^5"), 5)
    f = make_f(g, Fraction(1), Fraction(0), 5)
    assert f == g.substitute({"x": parse_poly("x^5"), "y": parse_poly("y^5")})
    with pytest.raises(ValueError):
        make_f(g, Fraction(0), Fraction(3), 5)
    f2 = make_f(parse_poly("x + y"), Fraction(1), Fraction(1), 5)
    assert f2.eval_xy(1, 1) == 4  # G(2, 2)


def test_make_f_composes_with_eval():
    rng = random.Random(6)
    g = make_G(form("x^3 - y^3"), 5)
    a, b = Fraction(3, 2), Fraction(-1, 3)
    f = make_f(g, a, b, 5)
    for _ in range(10):
        s, t = random_rational(rng, 6), random_rational(rng, 6)
        assert f.eval_xy(s, t) == g.eval_xy(a * s**5 + b, a * t**5 + b)


def test_make_f_with_fractional_a_b_matches_evaluation():
    rng = random.Random(37)
    a, b = Fraction(3, 7), Fraction(-2, 5)
    g = make_G(form("x^3 + 2*y^3"), 5)
    f = make_f(g, a, b, 5)
    for _ in range(10):
        s, t = random_rational(rng, 9), random_rational(rng, 9)
        assert f.eval_xy(s, t) == g.eval_xy(a * s**5 + b, a * t**5 + b)
    # make_f maps all four variables.
    g4 = parse_poly("1/2*x*w^2 - 3*y*z + z^3 - 4/9")
    f4 = make_f(g4, a, b, 3)
    for _ in range(10):
        pt = [random_rational(rng, 9) for _ in range(4)]
        images = [a * v**3 + b for v in pt]
        assert value_at(f4, **dict(zip("xyzw", pt))) == value_at(g4, **dict(zip("xyzw", images)))


def test_pth_power_map_injective_on_samples():
    rng = random.Random(8)
    for _ in range(2000):
        a = Fraction(rng.randint(1, 30) * rng.choice((1, -1)))
        b = Fraction(rng.randint(-30, 30))
        s, t = random_rational(rng, 40), random_rational(rng, 40)
        if s != t:
            assert a * s**5 + b != a * t**5 + b


def test_twist_accepts_rational_matrix():
    tw = twist(form("x^2 + y^2"), ((Fraction(1, 2), 0), (0, 1)), 5)
    assert tw.degree == 10
    assert value_at(tw, x=2, y=1) == value_at(form("x^2 + y^2"), x=Fraction(1, 2) * 2**5, y=1)


def test_candidate_f_collision_free_at_trace_height():
    # Regression encoding of finiteness at desk scale: the engine applied to
    # the candidate at the trace's own height bound sees only the diagonal,
    # which it excludes structurally; the report is empty.
    from polyinj.collide import SearchSpace, find_collisions

    tr = build_injection(form("x^5 + 3*y^5"), height_bound=30, rng_seed=1)
    rep = find_collisions(tr.f_poly, SearchSpace("integers", tr.height_bound))
    assert rep.pairs == []


def test_build_shape_and_determinism():
    f5 = form("x^5 + 3*y^5")
    tr = build_injection(f5, height_bound=30, rng_seed=1)
    assert tr.p == 5
    assert tr.f_poly.total_degree() == 125
    assert tr.twists == ()  # no exceptional points in the box, no twist needed
    assert not tr.unreduced
    tr2 = build_injection(f5, height_bound=30, rng_seed=1)
    assert tr.to_json_text() == tr2.to_json_text()
    # Different seed -> different (a, b) draws with overwhelming likelihood,
    # but the structural fields stay put.
    tr3 = build_injection(f5, height_bound=30, rng_seed=2)
    assert tr3.p == 5 and tr3.f_poly.total_degree() == 125


def test_build_taxicab_twists_at_least_once():
    tr = build_injection(form("x^3 + y^3"), height_bound=12, rng_seed=42)
    assert len(tr.initial_scan.exceptional) == 437
    assert len(tr.twists) >= 1
    for step in tr.twists:
        matrix = step.matrix
        (a, b), (c, d) = matrix
        assert a * d - b * c != 0
        assert step.pth_power_checks  # one per pre-twist exceptional point
    # f is the composition of G with the accepted (a, b).
    assert tr.f_poly == make_f(tr.g_poly, tr.a, tr.b, tr.p)
    assert tr.g_poly == make_G(tr.final_form(), tr.p)


def test_build_unreduced_flag():
    # x^2 is a square: the twisted forms stay squares, the line x=z survives
    # every twist, and the budget runs out.
    tr = build_injection(form("x^2"), height_bound=2, rng_seed=3, max_twists=1)
    assert tr.unreduced
    assert len(tr.twists) == 1
    assert tr.twists[-1].scan.exceptional


def test_build_refuses_negative_twist_budget():
    with pytest.raises(ValueError, match="twist budget"):
        build_injection(form("x^3 + y^3"), height_bound=4, rng_seed=1, max_twists=-3)
    # A zero budget is allowed: the trace is then flagged unreduced.
    tr = build_injection(form("x^3 + y^3"), height_bound=4, rng_seed=1, max_twists=0)
    assert tr.twists == () and tr.unreduced


def test_trivial_line_persists_under_twist():
    rng = random.Random(10)
    f = random_form(rng, 2)  # d*p = 10 even: antidiagonal must survive
    tw = twist(f, ((1, 1), (2, -1)), 5)
    for _ in range(10):
        x, y = rng.randint(-9, 9), rng.randint(-9, 9)
        assert value_at(tw, x=x, y=y) == value_at(tw, x=x, y=y)
        assert value_at(tw, x=x, y=y) == value_at(tw, x=-x, y=-y)


def test_ab_rejection_avoids_residual_coordinates():
    tr = build_injection(form("x^3 + y^3"), height_bound=6, rng_seed=11)
    from polyinj.rationals import pth_root

    for (xy, zw, _v) in tr.g_collisions.collisions:
        for c in (*xy, *zw):
            assert pth_root((Fraction(c) - tr.b) / tr.a, tr.p) is None


def test_trace_json_replayable():
    tr = build_injection(form("x^3 + y^3"), height_bound=6, rng_seed=11)
    doc = tr.to_json_dict()
    assert doc["p"] == 5
    assert doc["rng_seed"] == 11
    assert len(doc["draws"]) >= 1
    assert doc["g_collisions"]["space"]["mode"] == "integers"


def test_trace_bytes_pinned():
    # sha256 of the serialized traces, unchanged since the expansion moved
    # to integer arithmetic.
    cases = [
        (dict(height_bound=10, rng_seed=1),
         "787530ebeac8e700c144936aead69496d79f548b604d0020f7faae34d247f1d5"),
        (dict(height_bound=12, rng_seed=1, max_twists=1),
         "1e2e307f6addeae20a46a7d31662caf71b7de8518467321ab352f960be015c91"),
    ]
    for kwargs, digest in cases:
        trace = build_injection(form("x^3 + y^3"), workers=1, **kwargs)
        assert hashlib.sha256(trace.to_json_text().encode()).hexdigest() == digest, kwargs
