"""Acceptance suite: one test per published criterion, at stated tolerances.

Each test prints one [PASS] line (visible under pytest -s) and enforces its
runtime budget.  Oracles here are independent of the engine paths they
check: quadruple-loop surface enumeration, all-pairs value grouping,
Sylvester resultants, and plain bisection.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

from conftest import brute_surface_points, oracle_is_separable, random_form, value_at
from polyinj.collide import (
    SearchInterrupted,
    SearchSpace,
    find_collisions,
    naive_collisions,
)
from polyinj.ffield import FpRatFun, ff_collision_search, is_pth_power
from polyinj.localfields import padic_collision, real_collision
from polyinj.parser import ParseError, parse_poly
from polyinj.pipeline import build_injection
from polyinj.poly import BinaryForm, MultiPoly
from polyinj.surface import ProjPoint, scan_surface

def _report(n: int, label: str, elapsed: float, limit: float) -> None:
    print(f"\n[PASS] criterion {n}: {label} ({elapsed:.2f}s <= {limit:.0f}s)")
    assert elapsed <= limit, f"criterion {n} exceeded its runtime budget"


def form(text: str) -> BinaryForm:
    return BinaryForm.from_multipoly(parse_poly(text))


def test_criterion_01_collision_engine_oracle_equivalence():
    t0 = time.perf_counter()
    corpus = ["x + y", "x*y", "x^2 + y^2", "x^3 + y^3", "x^7 + 3*y^7", "x^2"]
    for text in corpus:
        poly = parse_poly(text)
        for space in (SearchSpace("integers", 40), SearchSpace("rationals", 8)):
            fast = find_collisions(poly, space)
            slow = naive_collisions(poly, space)
            assert fast.pairs == slow.pairs, (text, space)
            assert fast.values == slow.values, (text, space)
    _report(1, "find_collisions == naive_collisions on the corpus", time.perf_counter() - t0, 60)


def test_criterion_02_taxicab_regression():
    t0 = time.perf_counter()
    f3 = form("x^3 + y^3")
    ps = scan_surface(f3, 12)
    exc = {p.coords for p in ps.exceptional}
    assert (1, 12, 9, 10) in exc
    assert (9, 10, 1, 12) in exc  # the swap image
    # The full scan agrees with the quadruple-loop brute-force baseline.
    oracle = brute_surface_points(f3, 12)
    assert set(ps.all_points()) == oracle
    # The trivial set is exactly the expected diagonal points (d = 3 is odd,
    # so zeta = 1 is the only root of unity available).
    expected_diagonal = {
        ProjPoint.canonical(x, y, x, y)
        for x in range(-12, 13)
        for y in range(-12, 13)
        if (x, y) != (0, 0)
    }
    assert set(ps.trivial) == expected_diagonal
    _report(2, "scan_surface(x^3+y^3, 12) taxicab regression", time.perf_counter() - t0, 5)


def test_criterion_03_zagier_scan_with_checkpoint_resume(tmp_path):
    t0 = time.perf_counter()
    poly = parse_poly("x^7 + 3*y^7")
    space = SearchSpace("integers", 100)
    ck = str(tmp_path / "zagier.ck")
    full = find_collisions(poly, space, shards=8, checkpoint_path=ck)
    assert full.pairs == []
    # Kill at an interior shard, then resume: byte-identical report.
    os.remove(ck)
    try:
        find_collisions(
            poly, space, shards=8, checkpoint_path=ck, stop_after_shards=3
        )
        raise AssertionError("interruption hook did not fire")
    except SearchInterrupted:
        pass
    resumed = find_collisions(
        poly, space, shards=8, checkpoint_path=ck, resume=True
    )
    assert resumed.to_json_text() == full.to_json_text()
    _report(3, "Zagier x^7+3y^7 empty at H=100 with kill/resume", time.perf_counter() - t0, 600)


def test_criterion_04_pipeline_determinism_and_shape():
    t0 = time.perf_counter()
    f5 = form("x^5 + 3*y^5")
    tr1 = build_injection(f5, height_bound=30, rng_seed=1)
    tr2 = build_injection(f5, height_bound=30, rng_seed=1)
    assert tr1.to_json_text() == tr2.to_json_text()
    assert tr1.f_poly.total_degree() == 125 == 5 * 5 * 5
    rep = find_collisions(tr1.f_poly, SearchSpace("integers", 10))
    assert rep.pairs == []
    _report(4, "build_injection(x^5+3y^5, 30, seed 1) deterministic, deg 125, no collisions",
            time.perf_counter() - t0, 300)


def test_criterion_05_trivial_line_containment():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for _ in range(100):
        d = rng.randint(2, 7)
        f = random_form(rng, d)
        for _ in range(100):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            y = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            vxy = value_at(f, x=x, y=y)
            assert vxy == value_at(f, x=x, y=y)  # diagonal point (x:y:x:y)
            if d % 2 == 0:
                assert vxy == value_at(f, x=-x, y=-y)  # antidiagonal (x:y:-x:-y)
    _report(5, "trivial lines lie on the surface for 100 forms x 100 points",
            time.perf_counter() - t0, 10)


def test_criterion_06_pth_power_map_injective_on_Q():
    t0 = time.perf_counter()
    rng = random.Random(606)
    checked = 0
    while checked < 10**4:
        s = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        t = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        if s == t:
            continue
        a = Fraction(rng.choice((1, -1)) * rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30))
        assert a * s**5 + b != a * t**5 + b
        checked += 1
    _report(6, "a*t^5+b injective on 10^4 distinct rational pairs", time.perf_counter() - t0, 5)


def test_criterion_07_local_noninjectivity_demos():
    f7 = parse_poly("x^7 + 3*y^7")
    t0 = time.perf_counter()
    rp = real_collision(f7, 1, 1, 1e-12)
    real_elapsed = time.perf_counter() - t0
    assert rp.residual <= 1e-12
    assert rp.x != 1.0

    f3 = parse_poly("x^3 + y^3")
    t1 = time.perf_counter()
    pa = padic_collision(f3, 5, 8, (1, 1), 5)
    padic_elapsed = time.perf_counter() - t1
    assert pa.residual_valuation is None or pa.residual_valuation >= 8
    assert list(pa.valuation_trace) == sorted(pa.valuation_trace)
    assert pa.valuation_trace[-1] >= 8
    assert real_elapsed <= 1 and padic_elapsed <= 1
    _report(7, "real and p-adic collision demos at stated tolerances",
            max(real_elapsed, padic_elapsed), 1)


def test_criterion_08_function_field_injection():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        rep = ff_collision_search(p, 3, 10**4, seed=20100516 + p)
        assert rep["collisions"] == 0
        assert rep["equal_inputs"] + rep["distinct_values"] == 10**4
    # Derivative-criterion soundness: g^p is a p-th power, g^p * t is not.
    rng = random.Random(808)
    for _ in range(10**3):
        p = rng.choice((2, 3, 5))
        num = tuple(rng.randrange(p) for _ in range(3))
        den = tuple(rng.randrange(p) for _ in range(2)) + (1,)
        g = FpRatFun.from_coeffs(p, num, den)
        gp = g.frobenius()
        assert is_pth_power(gp) is True
        if not g.is_zero():
            assert is_pth_power(gp * FpRatFun.t(p)) is False
    _report(8, "x^p + t*y^p injective over F_p(t) for p in {2,3,5}", time.perf_counter() - t0, 30)


def test_criterion_09_separability_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(909)
    checked = 0
    for _ in range(850):
        f = random_form(rng, rng.randint(1, 6))
        assert f.is_separable() == oracle_is_separable(f), f.coeffs
        checked += 1
    while checked < 10**3:
        # Constructed squareful cases: (a x + b y)^2 * (random form).
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        if (a, b) == (0, 0):
            continue
        lin = MultiPoly(("x", "y"), {(1, 0): a, (0, 1): b})
        extra = random_form(rng, rng.randint(1, 4)).to_multipoly()
        squareful = BinaryForm.from_multipoly(lin * lin * extra)
        assert squareful.is_separable() is False
        assert oracle_is_separable(squareful) is False
        checked += 1
    _report(9, "is_separable matches the resultant oracle on 10^3 forms",
            time.perf_counter() - t0, 10)


def test_criterion_10_parser_round_trip_and_fuzz():
    t0 = time.perf_counter()
    from conftest import random_multipoly

    rng = random.Random(1010)
    for _ in range(10**4):
        p = random_multipoly(rng, max_terms=5, max_exp=8)
        assert parse_poly(p.render()) == p
    soup = "xyzw+-*/^() 0123456789qe$.#"
    crashes = 0
    structured = 0
    for _ in range(10**4):
        text = "".join(rng.choice(soup) for _ in range(rng.randint(1, 24)))
        try:
            parse_poly(text)
        except ParseError as exc:
            structured += 1
            assert isinstance(exc.offset, int)
        except Exception:
            crashes += 1
    assert crashes == 0
    assert structured > 5000  # soup is overwhelmingly malformed
    _report(10, "10^4 render/parse round-trips and 10^4 fuzz strings",
            time.perf_counter() - t0, 10)
