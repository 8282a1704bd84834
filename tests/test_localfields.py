from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import value_at
from polyinj.localfields import (
    DerivativeVanishesError,
    HenselInapplicableError,
    NoCollisionFoundError,
    REAL_DELTA_DEFAULT,
    _level_equation,
    padic_collision,
    real_collision,
)
from polyinj.parser import parse_poly
from polyinj.poly import MultiPoly, compile_xy_terms, partial_eval_x


def bisect_oracle(fn, lo, hi, iters=200):
    """Independent 1-D root finder: plain sign-change bisection."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if (flo < 0) != (fmid < 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_real_linear_exact():
    r = real_collision(parse_poly("x + y"), 0, 0, 0.0)
    assert r.residual == 0.0
    assert r.x == 1 / 1024 and r.y == -1 / 1024


def test_real_linear_delta_one():
    r = real_collision(parse_poly("x + y"), 0, 0, 0.0, delta=Fraction(1))
    assert (r.x, r.y) == (1.0, -1.0)


def test_real_parabola_exact():
    r = real_collision(parse_poly("x^2 + y"), 0, 0, 0.0, delta=Fraction(1))
    assert (r.x, r.y) == (1.0, -1.0)
    assert r.residual == 0.0


def test_real_zagier_example():
    f = parse_poly("x^7 + 3*y^7")
    r = real_collision(f, 1, 1, 1e-12)
    assert r.residual <= 1e-12
    assert abs(r.x - (1 + 1 / 1024)) == 0.0
    assert abs(r.x - 1.0) >= (1 / 1024) / 2  # moved by at least |delta|/2 in x
    # Independent oracle for the x1 = 0 variant: 3 y^7 = 4.
    r0 = real_collision(f, 1, 1, 1e-12, delta=Fraction(-1))
    y_star = bisect_oracle(lambda y: 3 * y**7 - 4, 0.0, 2.0)
    assert abs(r0.y - y_star) < 1e-9
    assert abs(r0.y - (4 / 3) ** (1 / 7)) < 1e-9


def test_real_derivative_vanishes():
    with pytest.raises(DerivativeVanishesError):
        real_collision(parse_poly("x^2 + y^2"), 0, 0, 1e-9)  # df/dy = 2y = 0 at base
    with pytest.raises(DerivativeVanishesError):
        real_collision(parse_poly("x^2"), 1, 1, 1e-9)  # f ignores y entirely


def test_real_no_root_after_big_jump():
    # Base point is fine, but a huge delta pushes the level set out of reach:
    # (x0+100)^2 + y^2 = 1 has no real solution.
    with pytest.raises(NoCollisionFoundError):
        real_collision(parse_poly("x^2 + y^2"), 0, 1, 1e-9, delta=Fraction(100))


def test_real_rejects_constant_and_bad_tol():
    with pytest.raises(ValueError):
        real_collision(parse_poly("5"), 0, 0, 1e-9)
    with pytest.raises(ValueError):
        real_collision(parse_poly("x + y"), 0, 0, -1.0)
    with pytest.raises(ValueError):
        real_collision(parse_poly("x + y"), 0, 0, float("nan"))
    with pytest.raises(ValueError):
        real_collision(parse_poly("x + y"), 0, 0, float("inf"))
    with pytest.raises(ValueError):
        real_collision(parse_poly("x + y"), 0, 0, 1e-9, delta=Fraction(0))


def assert_real_certificate(f, x0, y0, delta, tol, r):
    """The report's bracket, checked with the term-by-term sum value_at alone."""
    x1 = Fraction(x0) + Fraction(delta)
    c = value_at(f, x=Fraction(x0), y=Fraction(y0))
    g_lo = value_at(f, x=x1, y=r.y_lo) - c
    g_hi = value_at(f, x=x1, y=r.y_hi) - c
    assert r.x == float(x1)
    assert r.y_lo <= r.y_hi
    assert float(r.y_lo) <= r.y <= float(r.y_hi)
    assert r.residual <= tol
    assert g_lo * g_hi <= 0  # opposite signs, or an exact root at an end
    assert r.y_lo < r.y_hi or g_lo == 0


_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_monomials = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda e: sum(e) <= 5)


@settings(max_examples=200)
@given(
    st.dictionaries(_monomials, st.fractions(min_value=-9, max_value=9, max_denominator=9),
                    min_size=1, max_size=6),
    _small_q,
    _small_q,
    st.sampled_from([Fraction(1, 1024), Fraction(-1), Fraction(1, 3)]),
    st.sampled_from([0.0, 1e-6, 1e-12, 2.0**-100]),
)
def test_real_certificate_property(terms, x0, y0, delta, tol):
    f = MultiPoly(("x", "y"), {e: c for e, c in terms.items() if c})
    assume(f.total_degree() > 0)
    try:
        r = real_collision(f, x0, y0, tol, delta=delta)
    except (DerivativeVanishesError, NoCollisionFoundError):
        return
    assert_real_certificate(f, x0, y0, delta, tol, r)


def test_real_tol_below_double_precision():
    f = parse_poly("x^7 + 3*y^7")
    tol = 2.0**-200
    r = real_collision(f, 1, 1, tol)
    assert_real_certificate(f, 1, 1, REAL_DELTA_DEFAULT, tol, r)
    assert 0 < r.y_hi - r.y_lo < Fraction(1, 2**190)


def test_real_g_identically_zero():
    # f(1, y) = 0 = f(0, 0) for every y, though df/dy = -1 at the base point:
    # the first grid point y0 - 1 is an exact root.
    r = real_collision(parse_poly("(x - 1)*y"), 0, 0, 0.0, delta=Fraction(1))
    assert r.y_lo == r.y_hi == -1 and r.residual == 0.0


# Denominators that share factors, so x1's denominator meets the coefficients'.
_shared_q = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9, 12]))


@settings(max_examples=300)
@example(terms={(3, 0): Fraction(1, 6), (0, 0): Fraction(-2)}, x1=Fraction(5, 4), no_y=True,
         base=None)
@example(terms={}, x1=Fraction(1, 3), no_y=False, base=(Fraction(2), Fraction(1, 2)))
@given(
    st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 4)), _shared_q, max_size=8),
    _shared_q,
    st.booleans(),
    st.none() | st.tuples(_shared_q, _shared_q),
)
def test_partial_eval_x_matches_term_sums(terms, x1, no_y, base):
    # no_y drops y from f; base None puts the base point at x1, so then
    # g = f(x1, y) - f(x1, 0) is exactly 0 whenever f has no y.
    if no_y:
        terms = {(ex, 0): c for (ex, _), c in terms.items()}
    terms = {e: c for e, c in terms.items() if c}
    x0, y0 = base or (x1, Fraction(0))
    f = MultiPoly(("x", "y"), terms)
    top = max((ey for _, ey in terms), default=0)
    want = [value_at(MultiPoly(("x",), {(ex,): c for (ex, ey), c in terms.items() if ey == k}),
                     x=x1)
            for k in range(top + 1)]
    c = value_at(f, x=x0, y=y0)
    for (coeffs, den), minus in ((partial_eval_x(compile_xy_terms(f), x1), 0),
                                 (_level_equation(f, x0, y0, x1), c)):
        cs = [want[0] - minus, *want[1:]]
        while cs and cs[-1] == 0:
            cs.pop()
        assert den > 0
        assert not coeffs or coeffs[-1] != 0  # trimmed
        assert [Fraction(n, den) for n in coeffs] == cs
    if no_y and base is None:
        assert _level_equation(f, x0, y0, x1)[0] == []  # g is exactly 0


def test_real_exact_root_on_grid_and_cap():
    # g(y) = 1 + y has its root at the first grid point y0 - 1 = -1.
    r = real_collision(parse_poly("x^2 + y"), 0, 0, 0.0, delta=Fraction(1))
    assert r.y_lo == r.y_hi == -1 and r.residual == 0.0
    # tol = 0 at the irrational root 4 - (1 + 1/1024)^7 = 3y^7: refused at the cap.
    with pytest.raises(NoCollisionFoundError, match="1100 halvings"):
        real_collision(parse_poly("x^7 + 3*y^7"), 1, 1, 0.0)


def test_padic_linear_exact():
    r = padic_collision(parse_poly("x + y"), 5, 3, (0, 0), 1)
    assert r.x == 1
    assert r.y % 125 == 124  # y = -1 mod 5^3
    assert r.residual_valuation is None  # exactly zero residual
    assert r.valuation_trace[-1] >= 3


def test_padic_taxicab_lift():
    f = parse_poly("x^3 + y^3")
    r = padic_collision(f, 5, 8, (1, 1), 5)
    assert r.p == 5 and r.precision == 8
    assert r.x == 6
    assert r.y % 5 == 1  # seed residue: -214 = 1 mod 5
    # Residual valuation certified >= 8, trace nondecreasing.
    assert r.residual_valuation is None or r.residual_valuation >= 8
    assert list(r.valuation_trace) == sorted(r.valuation_trace)
    # Exact recheck of the certificate.
    c = f.eval_xy(1, 1)
    val = f.eval_xy(6, r.y) - c
    assert val.numerator % 5**8 == 0
    # Distinctness mod p^k.
    assert (6 - 1) % 5**8 != 0


def test_padic_quadratic_convergence_shape():
    r = padic_collision(parse_poly("x^3 + y^3"), 5, 8, (1, 1), 5)
    tr = list(r.valuation_trace)
    assert tr[0] >= 1
    for prev, cur in zip(tr, tr[1:]):
        assert cur >= min(8, 2 * prev) or cur >= 8


def test_padic_inapplicable_no_y():
    with pytest.raises(HenselInapplicableError):
        padic_collision(parse_poly("x^2"), 5, 4, (1, 1), 5)


def test_padic_inapplicable_no_simple_root():
    # f(x1, y) - c = y^5 - 1 mod 5 has derivative 5 y^4 = 0 mod 5 everywhere.
    with pytest.raises(HenselInapplicableError):
        padic_collision(parse_poly("x + y^5"), 5, 4, (0, 1), 5)


def test_padic_validation():
    with pytest.raises(ValueError):
        padic_collision(parse_poly("x + y"), 6, 3, (0, 0), 1)  # 6 not prime
    with pytest.raises(ValueError):
        padic_collision(parse_poly("x + y"), 5, 0, (0, 0), 1)
    with pytest.raises(ValueError):
        padic_collision(parse_poly("x + y"), 5, 2, (0, 0), 25)  # delta = 0 mod p^k
    with pytest.raises(ValueError):
        padic_collision(parse_poly("1/5*x + y"), 5, 3, (0, 0), 1)  # not 5-integral


def test_padic_default_delta_is_p():
    r = padic_collision(parse_poly("x + y"), 7, 3, (0, 0))
    assert r.x == 7


def test_json_shapes():
    rp = real_collision(parse_poly("x + y"), 0, 0, 0.0)
    assert set(rp.to_json_dict()) == {"x", "y", "residual", "y_lo", "y_hi"}
    pa = padic_collision(parse_poly("x + y"), 5, 3, (0, 0), 1)
    d = pa.to_json_dict()
    assert d["residual_valuation"] == "inf"
    assert d["valuation_trace"][-1] >= 3
