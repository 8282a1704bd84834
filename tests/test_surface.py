import random

import pytest

from conftest import brute_surface_points, random_form
from polyinj.parser import parse_poly
from polyinj.poly import BinaryForm
from polyinj.surface import ProjPoint, classify, is_trivial_point, scan_surface


def form(text: str) -> BinaryForm:
    return BinaryForm.from_multipoly(parse_poly(text))


def test_projpoint_canonicalization():
    assert ProjPoint.canonical(2, 24, 18, 20).coords == (1, 12, 9, 10)
    assert ProjPoint.canonical(-1, -12, -9, -10).coords == (1, 12, 9, 10)
    assert ProjPoint.canonical(0, 0, -3, 3).coords == (0, 0, 1, -1)
    assert ProjPoint.canonical(0, 0, 0, 0) is None
    with pytest.raises(ValueError):
        ProjPoint((2, 4, 6, 8))
    with pytest.raises(ValueError):
        ProjPoint((-1, 2, 3, 4))


def test_is_trivial_point_examples():
    assert is_trivial_point(ProjPoint((1, 2, 1, 2)), 3) == 1
    assert is_trivial_point(ProjPoint((1, 2, 1, 2)), 8) == 1
    assert is_trivial_point(ProjPoint((1, 2, -1, -2)), 2) == -1
    assert is_trivial_point(ProjPoint((1, 2, -1, -2)), 7) is None
    assert is_trivial_point(ProjPoint((1, 0, 0, 1)), 3) is None


def test_classify_examples():
    taxi = ProjPoint((1, 12, 9, 10))
    diag = ProjPoint((1, 1, 1, 1))
    assert classify([diag], 7) == ([diag], [])
    assert classify([taxi], 3) == ([], [taxi])
    assert classify([], 5) == ([], [])


def test_scan_taxicab():
    ps = scan_surface(form("x^3 + y^3"), 12)
    exc = {p.coords for p in ps.exceptional}
    assert (1, 12, 9, 10) in exc
    assert (9, 10, 1, 12) in exc  # swap image
    assert all(p.coords not in exc for p in ps.trivial)
    # Every reported point satisfies the equation exactly.
    f = form("x^3 + y^3")
    for p in ps.all_points():
        x, y, z, w = p.coords
        assert f.evaluate(x, y) == f.evaluate(z, w)


def test_scan_matches_brute_force_taxicab():
    f = form("x^3 + y^3")
    ps = scan_surface(f, 12)
    assert set(ps.all_points()) == brute_surface_points(f, 12)
    assert len(ps.trivial) == 184
    assert len(ps.exceptional) == 437


def test_scan_examples_small():
    ps = scan_surface(form("x^2 + y^2"), 1)
    assert (1, 0, 0, 1) in {p.coords for p in ps.exceptional}
    ps7 = scan_surface(form("x^7 + 3*y^7"), 1)
    assert ps7.exceptional == ()
    assert {p.coords for p in ps7.trivial} == {
        (0, 1, 0, 1),
        (1, -1, 1, -1),
        (1, 0, 1, 0),
        (1, 1, 1, 1),
    }


def test_swap_symmetry():
    ps = scan_surface(form("x^3 + y^3"), 8)
    pts = set(ps.all_points())
    for p in pts:
        assert p.swap() in pts


def test_scan_agrees_with_brute_force_random_forms():
    rng = random.Random(3)
    for _ in range(6):
        f = random_form(rng, rng.randint(1, 5), coeff_bound=4)
        h = rng.randint(2, 8)
        brute = brute_surface_points(f, h)
        assert set(scan_surface(f, h).all_points()) == brute
        # Tiny primes force fingerprint collisions through the shared join.
        assert set(scan_surface(f, h, primes=(5, 7)).all_points()) == brute


def test_trivial_line_containment():
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(2, 7)
        f = random_form(rng, d)
        x, y = rng.randint(-50, 50), rng.randint(-50, 50)
        assert f.evaluate(x, y) == f.evaluate(x, y)  # diagonal tautology
        if d % 2 == 0:
            assert f.evaluate(x, y) == f.evaluate(-x, -y)


def test_scan_deterministic_across_shards_workers():
    f = form("x^3 + y^3")
    a = scan_surface(f, 10)
    b = scan_surface(f, 10, shards=5)
    c = scan_surface(f, 10, shards=4, workers=2)
    d = scan_surface(f, 10, primes=(5, 7))  # forced fingerprint collisions
    assert a == b == c == d


def test_scan_rejects_shard_count_outside_inputs():
    # A count outside [1, inputs] is refused, never scanned as an empty box.
    f = form("x^3 + y^3")
    with pytest.raises(ValueError, match="shard count"):
        scan_surface(f, 12, shards=-1)
    with pytest.raises(ValueError, match="shard count"):
        scan_surface(f, 2, shards=26)
    assert scan_surface(f, 2, shards=25) == scan_surface(f, 2)


def test_scaling_invariance_unique_canonical():
    # Non-primitive solutions collapse onto one canonical representative.
    ps = scan_surface(form("x^2 + y^2"), 4)
    coords = [p.coords for p in ps.all_points()]
    assert len(coords) == len(set(coords))
    from math import gcd

    for c in coords:
        g = 0
        for v in c:
            g = gcd(g, abs(v))
        assert g == 1


def test_point_set_json():
    ps = scan_surface(form("x^3 + y^3"), 12)
    doc = ps.to_json_dict()
    assert doc["height"] == 12
    assert doc["trivial_count"] == 184
    assert ["1", "12", "9", "10"] in doc["exceptional"]
