import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import polyinj
from polyinj import ffield
from polyinj.ffield import (
    MAX_MOVED_COEFFS,
    FpRatFun,
    _decide_trial,
    _RandrangeReader,
    ff_collision_search,
    ff_eval_injection,
    is_pth_power,
    pfrob,
    pgcd,
    pmul,
    verify_injection,
)


def rf(p, num, den=(1,)):
    return FpRatFun.from_coeffs(p, num, den)


def test_fp_poly_canonical():
    assert rf(5, (6, 10, 0, 0)).num == (1,)
    assert rf(3, ()).is_zero()
    assert rf(7, (0, 0, 14)).is_zero()


def test_ratfun_canonicalization():
    # (t^2 - 1) / (t - 1) reduces to t + 1; denominator made monic.
    h = rf(5, (4, 0, 1), (4, 1))
    assert h.num == (1, 1)
    assert h.den == (1,)
    h2 = rf(5, (2, 2), (0, 2))  # (2t+2)/(2t) -> (t+1)/t
    assert h2.num == (1, 1)
    assert h2.den == (0, 1)
    with pytest.raises(ZeroDivisionError):
        rf(5, (1,), (0,))


def _pmul_school(a, b, p):
    """Schoolbook product of coefficient tuples mod p, trailing zeros trimmed."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def test_pmul_matches_schoolbook():
    rng = random.Random(31)
    for p, top in ((2, 40), (3, 40), (5, 40), (7, 40), (97, 40), (65537, 6), (2**31 - 1, 6)):
        for _ in range(60):
            a = tuple(rng.randrange(p) for _ in range(rng.randint(0, top)))
            b = tuple(rng.randrange(p) for _ in range(rng.randint(0, top)))
            assert pmul(a, b, p) == _pmul_school(a, b, p)


def _gcd_school(a, b, p):
    """Monic gcd by Euclid with long division written out, trailing zeros trimmed."""

    def trim(cs):
        cs = list(cs)
        while cs and not cs[-1]:
            cs.pop()
        return cs

    a, b = trim(c % p for c in a), trim(c % p for c in b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] * pow(b[-1], p - 2, p) % p
            shift = len(r) - len(b)
            for i, bc in enumerate(b):
                r[shift + i] = (r[shift + i] - c * bc) % p
            r = trim(r)
        a, b = b, r
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return tuple(a)


def test_pgcd_matches_schoolbook_euclid():
    rng = random.Random(47)
    for p in (2, 3, 5, 7, 97):
        for _ in range(80):
            g = [rng.randrange(p) for _ in range(rng.randint(0, 4))]
            a = _pmul_school(g, [rng.randrange(p) for _ in range(rng.randint(0, 12))], p)
            b = _pmul_school(g, [rng.randrange(p) for _ in range(rng.randint(0, 12))], p)
            assert pgcd(a, b, p) == _gcd_school(a, b, p), (p, a, b)
            assert pgcd(b, a, p) == _gcd_school(a, b, p), (p, a, b)


def test_ff_eval_injection_examples():
    one = rf(2, (1,))
    assert ff_eval_injection(2, one, one).num == (1, 1)  # 1 + t
    t2 = ff_eval_injection(2, rf(2, (0, 1)), rf(2, ()))
    assert t2.num == (0, 0, 1)  # t^2 by Frobenius
    t3t = ff_eval_injection(3, rf(3, (0, 1)), rf(3, (1,)))
    assert t3t.num == (0, 1, 0, 1)  # t^3 + t


def test_frobenius_exactness():
    rng = random.Random(17)
    for p in (2, 3, 5):
        for _ in range(20):
            g = tuple(rng.randrange(p) for _ in range(rng.randint(1, 51)))
            by_mult = (1,)
            for _ in range(p):
                by_mult = pmul(by_mult, g, p)
            assert by_mult == pfrob(g, p)


def test_eval_injection_matches_frobenius_oracle():
    # The one-reduction evaluator agrees with x^p + t*y^p built from field ops.
    rng = random.Random(37)
    for p in (2, 3, 5, 7):
        t = FpRatFun.t(p)
        for _ in range(40):
            x = _random_ratfun(rng, p, 3)
            y = _random_ratfun(rng, p, 3)
            assert ff_eval_injection(p, x, y) == x.frobenius() + t * y.frobenius()


def test_mixed_primes_refused():
    a, b = rf(2, (1,)), rf(3, (1, 1))
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError, match="F_3"):
            op()
    with pytest.raises(ValueError):
        ff_eval_injection(5, a, a)
    x, y = rf(3, (0, 1)), rf(3, (1,))
    with pytest.raises(ValueError):
        verify_injection(5, (x, y), (y, x))
    with pytest.raises(ValueError):
        verify_injection(5, (x, y), (x, y))


def test_package_exports_resolve():
    for name in polyinj.__all__:
        assert hasattr(polyinj, name), name


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
    assert r.delta.num == (1, 1, 1)  # 1 + t + t^2
    assert r.delta.den == (1,)
    r3 = verify_injection(3, (FpRatFun.t(3), rf(3, (1,))), (rf(3, ()), rf(3, (1,))))
    assert r3.kind == "distinct_values"
    assert r3.delta.num == (0, 0, 0, 1)  # t^3


def test_swapped_inputs_give_distinct_values():
    # x^p + t*y^p is not symmetric in x and y; without the t the swap collides.
    rng = random.Random(41)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            x, y = _random_ratfun(rng, p, 2), _random_ratfun(rng, p, 2)
            if x != y:
                assert verify_injection(p, (x, y), (y, x)).kind == "distinct_values"


def test_equal_numerators_are_not_equal_inputs():
    # Inputs with one numerator over different denominators are distinct, and
    # so are their values, whose numerators agree too when y vanishes.
    for p in (2, 3, 5):
        zero, one = rf(p, ()), rf(p, (1,))
        over_t, over_t1 = rf(p, (1,), (0, 1)), rf(p, (1,), (1, 1))
        for y in (zero, one, FpRatFun.t(p)):
            r = verify_injection(p, (over_t, y), (over_t1, y))
            assert r.kind == "distinct_values"
            assert r.delta == over_t.frobenius() - over_t1.frobenius()
        assert verify_injection(p, (one, over_t), (one, over_t1)).kind == "distinct_values"


def test_lazy_delta_is_the_canonical_difference_of_values():
    rng = random.Random(43)
    for p in (2, 3, 5, 7):
        t = FpRatFun.t(p)
        for _ in range(30):
            x1, y1, x2, y2 = (_random_ratfun(rng, p, 3) for _ in range(4))
            r = verify_injection(p, (x1, y1), (x2, y2))
            assert r.kind == "distinct_values"
            expected = x1.frobenius() + t * y1.frobenius() - (x2.frobenius() + t * y2.frobenius())
            assert r.delta == expected
            assert not r.delta.is_zero()
    x = rf(3, (1, 2), (0, 1))
    assert verify_injection(3, (x, x), (x, x)).delta is None


def test_search_equal_inputs_grid_pinned():
    # equal_inputs of ff_collision_search(p, d, 300, seed=s) as computed by
    # the canonical-form comparison of earlier releases; every other cell is 0.
    pinned = {
        (2, 0, 1): 70, (2, 0, 2): 80, (2, 1, 1): 3, (2, 1, 2): 10,
        (3, 0, 1): 40, (3, 0, 2): 29, (5, 0, 1): 14, (5, 0, 2): 13,
        (7, 0, 1): 7, (7, 0, 2): 8, (7, 1, 2): 1,
    }
    for p in (2, 3, 5, 7):
        for d in (0, 1, 3):
            for s in (1, 2):
                rep = ff_collision_search(p, d, 300, seed=s)
                assert rep["equal_inputs"] == pinned.get((p, d, s), 0), (p, d, s)
                assert rep["distinct_values"] == 300 - rep["equal_inputs"]


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
    for workers in (0, -1, 2):
        with pytest.raises(ValueError, match="worker count"):
            ff_collision_search(5, 2, 10, seed=0, workers=workers)
    for p in (1, 4, 0):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            ff_collision_search(p, 2, 5, seed=0)


def test_ratfun_refuses_modulus_that_is_not_prime():
    # Over Z/4 the Frobenius shortcut fails: 2^4 = 0, so (2, 0) and (0, 0)
    # are two inputs with one value; such a modulus is refused up front.
    for p in (0, 1, 4, 6, -3):
        with pytest.raises(ValueError, match=f"^{p} is not prime$"):
            FpRatFun(p, (1,), (1,))


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

            assert v.den[-1] == 1
            assert len(pgcd(v.num, v.den, p)) <= 1


# (p, most coefficients per raw tuple): the kernel's digit width, the bytes
# holding size^3 (p-1)^4, is 1 or 2 bytes for p = 2 and 3, 2 for 5, 2 or 4
# for 7, 4 or 8 for 97, and 9 (past the array widths) for 65537.
_KERNEL_PRIMES = [(2, 7), (3, 5), (5, 4), (7, 4), (97, 4), (65537, 1)]


def _raw_pair(draw, p, top, base):
    """base as a raw (num, den): times a random common factor, then padded
    with trailing zeros, at most top coefficients each."""
    num, den = base
    k = draw(st.integers(0, top - max(len(num), len(den))))
    g = draw(st.lists(st.integers(0, p - 1), min_size=k + 1, max_size=k + 1).filter(lambda g: g[-1]))
    pad = lambda cs: tuple(cs) + (0,) * draw(st.integers(0, top - len(cs)))
    return pad(_pmul_school(num, g, p)), pad(_pmul_school(den, g, p))


@st.composite
def _raw_trials(draw):
    p, top = draw(st.sampled_from(_KERNEL_PRIMES))
    coeffs = st.integers(0, p - 1)

    def base():
        num = draw(st.lists(coeffs, max_size=top))
        den = draw(st.lists(coeffs, min_size=1, max_size=top).filter(any))
        return num, den

    bx, by = base(), base()
    x1, y1 = _raw_pair(draw, p, top, bx), _raw_pair(draw, p, top, by)
    x2 = _raw_pair(draw, p, top, bx if draw(st.booleans()) else base())
    y2 = _raw_pair(draw, p, top, by if draw(st.booleans()) else base())
    return p, x1, y1, x2, y2


@settings(max_examples=300)
@given(_raw_trials())
def test_kernel_decision_matches_canonical_forms(trial):
    # Raw tuples with trailing zeros, zero numerators, common factors and
    # non-monic denominators: the kernel calls the inputs equal exactly when
    # their canonical FpRatFun forms are, and finds distinct values otherwise.
    p, *pairs = trial
    x1, y1, x2, y2 = (FpRatFun(p, *pair) for pair in pairs)
    assert (_decide_trial(p, *pairs) is True) == (x1 == x2 and y1 == y2)


def test_kernel_digits_do_not_carry_on_extremal_inputs():
    # Coefficients p - 1 make the packed digits as large as they get.  The
    # inputs (m^2/m, m/m) and (m/1, m/m) are equal, but their cross products
    # differ over the integers and agree mod p only digit by digit, so a
    # carry between digits would show as distinct values.
    for p, top in ((2, 16), (3, 16), (5, 12), (7, 8), (97, 4)):
        for size in range(1, top + 1):
            m = (p - 1,) * size
            y = (m, m)
            assert _decide_trial(p, (_pmul_school(m, m, p), m), y, (m, (1,)), y) is True, (p, size)
            x = rf(p, m, (p - 1,) * (size - 1) + (1,))
            assert ff_eval_injection(p, x, x) == x.frobenius() + FpRatFun.t(p) * x.frobenius()


def test_hammer_runs_no_gcd_and_builds_no_ratfun(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a hammer trial reached gcd or canonicalization")

    monkeypatch.setattr(ffield, "pgcd", refuse)
    monkeypatch.setattr(FpRatFun, "__post_init__", refuse)
    assert ff_collision_search(3, 3, 300, 1) == {
        "p": 3, "degree_bound": 3, "trials": 300, "seed": 1,
        "equal_inputs": 0, "distinct_values": 300, "collisions": 0,
    }


def test_search_refuses_oversized_frobenius_moves():
    assert MAX_MOVED_COEFFS == 4096
    for p, d in ((2147483647, 3), (65537, 3), (4099, 1), (2, 2048)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"would have {d * p + 1} coefficients"):
                ff_collision_search(p, d, 5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, (p, d, peak)
    # At the cap, and any degree-0 search, still run.
    assert ff_collision_search(2, 2047, 1, seed=0)["collisions"] == 0
    assert ff_collision_search(2147483647, 0, 20, seed=0)["collisions"] == 0


# Below 2**32 the reader slices rng's word stream (p = 2**31 - 1 keeps the
# top 31 bits of each word); 4294967311 is the least prime above 2**32,
# where it calls randrange.
_STREAM_PRIMES = [2, 3, 5, 7, 97, 251, 4093, 65521, 2**31 - 1, 4294967311]


@settings(max_examples=150)
@given(st.sampled_from(_STREAM_PRIMES), st.integers(0, 2**64),
       st.lists(st.one_of(st.integers(0, 9), st.integers(0, 3000)), max_size=6))
def test_reader_returns_successive_randrange_values(p, seed, sizes):
    draws, rng = _RandrangeReader(random.Random(seed), p), random.Random(seed)
    for n in sizes:
        assert draws.take(n) == tuple(rng.randrange(p) for _ in range(n))


def _per_coefficient_trials(p, degree_bound, trials, seed):
    """The hammer's trials as its earlier draw made them, one
    rng.randrange(p) per coefficient with a zero den redrawn in place, and
    the number of redraws."""
    rng = random.Random(seed)
    redraws = 0

    def coeffs():
        nonlocal redraws
        num = tuple(rng.randrange(p) for _ in range(degree_bound + 1))
        while True:
            den = tuple(rng.randrange(p) for _ in range(degree_bound + 1))
            if any(den):
                return num, den
            redraws += 1

    return [tuple(coeffs() for _ in range(4)) for _ in range(trials)], redraws


@pytest.mark.parametrize("p, degree_bound", [
    (2, 0), (2, 1), (3, 0), (3, 1), (2, 3), (5, 3), (251, 2), (4294967311, 0),
])
def test_search_draws_the_per_coefficient_trials(monkeypatch, p, degree_bound):
    seen = []
    monkeypatch.setattr(ffield, "_decide_trial", lambda p, *pairs: seen.append(pairs) or False)
    ff_collision_search(p, degree_bound, 1200, seed=11)
    expected, redraws = _per_coefficient_trials(p, degree_bound, 1200, seed=11)
    assert seen == expected
    if p <= 3 and degree_bound <= 1:
        assert redraws > 0
