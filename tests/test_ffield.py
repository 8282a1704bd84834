import random

import pytest

from polyinj.ffield import (
    FpPoly,
    FpRatFun,
    ff_collision_search,
    ff_eval_injection,
    is_pth_power,
    pfrob,
    pmul,
    _pmul_school,
    verify_injection,
)


def rf(p, num, den=(1,)):
    return FpRatFun.from_coeffs(p, num, den)


def test_fp_poly_canonical():
    assert FpPoly(5, (6, 10, 0, 0)).coeffs == (1,)
    assert FpPoly(3, ()).is_zero()
    assert FpPoly(7, (0, 0, 14)).is_zero()


def test_ratfun_canonicalization():
    # (t^2 - 1) / (t - 1) reduces to t + 1; denominator made monic.
    h = rf(5, (4, 0, 1), (4, 1))
    assert h.num.coeffs == (1, 1)
    assert h.den.coeffs == (1,)
    h2 = rf(5, (2, 2), (0, 2))  # (2t+2)/(2t) -> (t+1)/t
    assert h2.num.coeffs == (1, 1)
    assert h2.den.coeffs == (0, 1)
    with pytest.raises(ZeroDivisionError):
        rf(5, (1,), (0,))


def test_pmul_matches_schoolbook():
    rng = random.Random(31)
    for p in (2, 3, 5, 7, 97):
        for _ in range(60):
            a = tuple(rng.randrange(p) for _ in range(rng.randint(0, 40)))
            b = tuple(rng.randrange(p) for _ in range(rng.randint(0, 40)))
            assert pmul(a, b, p) == _pmul_school(a, b, p)


def test_ff_eval_injection_examples():
    one = rf(2, (1,))
    assert ff_eval_injection(2, one, one).num.coeffs == (1, 1)  # 1 + t
    t2 = ff_eval_injection(2, rf(2, (0, 1)), rf(2, ()))
    assert t2.num.coeffs == (0, 0, 1)  # t^2 by Frobenius
    t3t = ff_eval_injection(3, rf(3, (0, 1)), rf(3, (1,)))
    assert t3t.num.coeffs == (0, 1, 0, 1)  # t^3 + t


def test_frobenius_exactness():
    rng = random.Random(17)
    for p in (2, 3, 5):
        for _ in range(20):
            g = tuple(rng.randrange(p) for _ in range(rng.randint(1, 51)))
            by_mult = (1,)
            for _ in range(p):
                by_mult = pmul(by_mult, g, p)
            assert by_mult == pfrob(g, p)


def test_freshmans_dream():
    rng = random.Random(19)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            u = _random_ratfun(rng, p, 3)
            v = _random_ratfun(rng, p, 3)
            assert (u + v).frobenius() == u.frobenius() + v.frobenius()


def _random_ratfun(rng, p, d):
    num = tuple(rng.randrange(p) for _ in range(d + 1))
    while True:
        den = tuple(rng.randrange(p) for _ in range(d + 1))
        if any(den):
            return FpRatFun.from_coeffs(p, num, den)


def test_is_pth_power_examples():
    assert is_pth_power(FpRatFun.t(5)) is False
    assert is_pth_power(FpRatFun.t(2) * FpRatFun.t(2)) is True
    # (t+1)^3 / t^3 in characteristic 3.
    h = rf(3, (1, 3, 3, 1), (0, 0, 0, 1))
    assert is_pth_power(h) is True


def test_derivative_criterion_soundness():
    rng = random.Random(23)
    t = {p: FpRatFun.t(p) for p in (2, 3, 5)}
    for p in (2, 3, 5):
        for _ in range(60):
            g = _random_ratfun(rng, p, 3)
            gp = g
            for _ in range(p - 1):
                gp = gp * g
            assert is_pth_power(gp) is True
            if not g.is_zero():
                assert is_pth_power(gp * t[p]) is False


def test_verify_injection_examples():
    one = rf(2, (1,))
    t = FpRatFun.t(2)
    zero = rf(2, ())
    assert verify_injection(2, (one, one), (one, one)).kind == "equal_inputs"
    r = verify_injection(2, (one, one), (t, zero))
    assert r.kind == "distinct_values"
    assert r.delta.num.coeffs == (1, 1, 1)  # 1 + t + t^2
    assert r.delta.den.coeffs == (1,)
    r3 = verify_injection(3, (FpRatFun.t(3), rf(3, (1,))), (rf(3, ()), rf(3, (1,))))
    assert r3.kind == "distinct_values"
    assert r3.delta.num.coeffs == (0, 0, 0, 1)  # t^3


def test_search_reports_zero_collisions():
    rep = ff_collision_search(2, 3, 500, seed=101)
    assert rep["collisions"] == 0
    assert rep["equal_inputs"] + rep["distinct_values"] == 500
    rep0 = ff_collision_search(2, 0, 300, seed=7)
    assert rep0["collisions"] == 0


def test_search_deterministic():
    assert ff_collision_search(3, 2, 200, seed=5) == ff_collision_search(3, 2, 200, seed=5)


def test_search_validation():
    with pytest.raises(ValueError):
        ff_collision_search(5, -1, 10, seed=0)
    with pytest.raises(ValueError):
        ff_collision_search(5, 2, 0, seed=0)
    for p in (1, 4, 0):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            ff_collision_search(p, 2, 5, seed=0)


def test_text_format_round_trip():
    h = rf(5, (1, 2, 3), (0, 1))
    assert str(h) == "1,2,3;0,1"
    assert FpRatFun.from_text(5, str(h)) == h
    assert FpRatFun.from_text(3, "1,1") == rf(3, (1, 1))
    assert str(rf(2, ())) == "0;1"
    assert FpRatFun.from_text(2, "0;1").is_zero()
    with pytest.raises(ZeroDivisionError):
        FpRatFun.from_text(5, "1;0")


def test_values_live_in_canonical_form():
    rng = random.Random(29)
    for p in (2, 5):
        for _ in range(40):
            x = _random_ratfun(rng, p, 3)
            y = _random_ratfun(rng, p, 3)
            v = ff_eval_injection(p, x, y)
            # gcd-reduced, monic denominator.
            from polyinj.ffield import pgcd

            assert v.den.coeffs[-1] == 1
            assert len(pgcd(v.num.coeffs, v.den.coeffs, p)) <= 1
