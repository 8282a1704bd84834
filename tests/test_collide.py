import dataclasses
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import allpairs_collision_pairs, brute_surface_points, random_multipoly
from polyinj import collide
from polyinj.collide import (
    SearchInterrupted,
    SearchSpace,
    _candidate_fingerprints,
    _checkpoint_header,
    _phase1_shard,
    _shard_ranges,
    _write_checkpoint,
    enumerate_inputs,
    find_collisions,
    input_axis,
    naive_collisions,
)
from polyinj.parser import parse_poly
from polyinj.poly import BinaryForm, MultiPoly, compile_xy_terms
from polyinj.rationals import FINGERPRINT_PRIMES, fingerprint, is_prime


def test_enumerate_inputs_examples():
    assert enumerate_inputs(1) == [Fraction(-1), Fraction(0), Fraction(1)]
    assert enumerate_inputs(2) == [
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(2),
    ]
    h3 = enumerate_inputs(3)
    assert len(h3) == 15
    assert h3[3:] == [
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(2),
        Fraction(-3),
        Fraction(-3, 2),
        Fraction(-2, 3),
        Fraction(-1, 3),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(3),
        Fraction(3, 2),
    ]


def test_enumerate_inputs_each_once_canonical():
    vals = enumerate_inputs(8)
    assert len(vals) == len(set(vals)) == 87
    assert all(max(abs(v.numerator), v.denominator) <= 8 for v in vals)


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace("floats", 3)
    with pytest.raises(ValueError):
        SearchSpace("integers", 0)


@pytest.mark.parametrize("height", [True, 2.0, "3"], ids=["bool", "float", "str"])
def test_search_space_refuses_a_height_that_is_not_an_int(height):
    # A bool would reach the report as "height": true; a float or a string
    # would fail deep in range().  The error names the value.
    for mode in ("integers", "rationals"):
        with pytest.raises(ValueError, match=repr(height)):
            SearchSpace(mode, height)


def test_find_collisions_examples():
    rep = find_collisions(parse_poly("x + y"), SearchSpace("integers", 1))
    assert (((0, 1), (1, 0), 1)) in rep.collisions
    rep2 = find_collisions(parse_poly("x^2 + y^2"), SearchSpace("integers", 1))
    assert (((-1, 0), (1, 0), 1)) in rep2.collisions
    rep3 = find_collisions(parse_poly("x^7 + 3*y^7"), SearchSpace("integers", 20))
    assert rep3.pairs == []


def test_naive_examples():
    rep = naive_collisions(parse_poly("x*y"), SearchSpace("integers", 2))
    colls = {(xy, zw) for xy, zw, _ in rep.collisions}
    assert (((-1, -2), (2, 1))) in colls
    assert (((1, 2), (2, 1))) in colls
    # f = x ignores y: (0,-1) and (0,0) share the value 0.
    rep2 = naive_collisions(parse_poly("x"), SearchSpace("integers", 1))
    assert (((0, -1), (0, 0), 0)) in rep2.collisions


def test_naive_oracle_evaluates_without_the_engine(monkeypatch):
    # A fault in the engine's evaluator must not reach the oracle; values
    # stay int on the integer box and Fraction on the rational one.
    cases = [(parse_poly("x^3+y^3"), SearchSpace("integers", 6), int),
             (parse_poly("(1/5)*x^2+(1/7)*y+(1/3)*x*y"), SearchSpace("rationals", 4), Fraction)]
    expected = [naive_collisions(poly, space).classes for poly, space, _ in cases]
    # The all-pairs and surface oracles sum on their own too, although
    # MultiPoly.eval_xy runs the engine's evaluator.
    cube = cases[0][0]
    oracles = [
        lambda: allpairs_collision_pairs(cube, SearchSpace("integers", 3)),
        lambda: allpairs_collision_pairs(parse_poly("x*y"), SearchSpace("rationals", 2)),
        lambda: brute_surface_points(BinaryForm.from_multipoly(cube), 4),
    ]
    oracle_results = [oracle() for oracle in oracles]
    zero = lambda rows: lambda xv, yv: 0
    monkeypatch.setattr(collide, "make_evaluator", zero)
    monkeypatch.setattr("polyinj.poly.make_evaluator", zero)
    for (poly, space, kind), classes in zip(cases, expected):
        assert classes and {type(v) for _, v in classes} == {kind}
        assert naive_collisions(poly, space).classes == classes
        assert find_collisions(poly, space, primes=(5, 7)).classes != classes
    assert cube.eval_xy(1, 1) == 0
    assert all(oracle_results)
    assert [oracle() for oracle in oracles] == oracle_results


def test_engine_matches_naive_and_allpairs_small():
    for text in ["x + y", "x*y", "x^2 + y^2", "x"]:
        poly = parse_poly(text)
        for space in [SearchSpace("integers", 3), SearchSpace("rationals", 2)]:
            fast = find_collisions(poly, space)
            slow = naive_collisions(poly, space)
            assert fast.pairs == slow.pairs
            assert fast.values == slow.values
            assert fast.pairs == allpairs_collision_pairs(poly, space)


def test_every_reported_collision_reverifies():
    poly = parse_poly("x^2*y - y^3")
    rep = find_collisions(poly, SearchSpace("integers", 5))
    assert rep.pairs
    for (xy, zw, v) in rep.collisions:
        assert xy != zw
        assert poly.eval_xy(*xy) == poly.eval_xy(*zw) == v
    # Canonical order, each unordered pair exactly once.
    assert rep.pairs == sorted(rep.pairs)
    assert len(set(rep.pairs)) == len(rep.pairs)
    assert all(i < j for i, j in rep.pairs)


def test_determinism_across_shards_and_workers():
    poly = parse_poly("x^3 + y^3")
    space = SearchSpace("integers", 12)
    base = find_collisions(poly, space).to_json_text()
    assert find_collisions(poly, space, shards=5).to_json_text() == base
    assert find_collisions(poly, space, shards=7).to_json_text() == base
    # Rational boxes, also with tiny primes that force phase 1's exact
    # fallback on some inputs (q = 5 against 1/5, axis denominators 5).
    space = SearchSpace("rationals", 5)
    for text in ["1/5*x^2 + 1/7*y + 1/3*x*y", "x*y"]:
        poly = parse_poly(text)
        for primes in (FINGERPRINT_PRIMES, (5, 7)):
            rep = find_collisions(poly, space, primes=primes)
            assert rep.pairs == naive_collisions(poly, space).pairs
            base = rep.to_json_text()
            for shards in (7, 13, 11):
                assert find_collisions(poly, space, shards=shards,
                                       primes=primes).to_json_text() == base


def test_rational_mode_collisions():
    poly = parse_poly("x*y")
    rep = find_collisions(poly, SearchSpace("rationals", 2))
    colls = {(xy, zw) for xy, zw, _ in rep.collisions}
    assert ((Fraction(-2), Fraction(-1, 2)), (Fraction(1), Fraction(1))) in colls or (
        (Fraction(1), Fraction(1)),
        (Fraction(-2), Fraction(-1, 2)),
    ) in colls


def test_zero_and_constant_polys():
    rep = find_collisions(parse_poly("0"), SearchSpace("integers", 1))
    naive = naive_collisions(parse_poly("0"), SearchSpace("integers", 1))
    # All 9 inputs share the value 0: C(9, 2) unordered pairs.
    assert len(rep.pairs) == len(naive.pairs) == 36
    assert rep.pairs == naive.pairs


def test_checkpoint_resume_identical(tmp_path):
    poly = parse_poly("x^3 + y^3")
    space = SearchSpace("integers", 12)
    ck = str(tmp_path / "scan.ck")
    full = find_collisions(poly, space, shards=6, checkpoint_path=ck)
    text_full = full.to_json_text()

    ck2 = str(tmp_path / "scan.ck")
    import os

    os.remove(ck2)
    with pytest.raises(SearchInterrupted):
        find_collisions(poly, space, shards=6, checkpoint_path=ck2, stop_after_shards=2)
    doc = json.loads(open(ck2).read())
    assert len(doc["completed"]) == 2
    assert doc["primes"] == list(full.primes)
    resumed = find_collisions(poly, space, shards=6, checkpoint_path=ck2, resume=True)
    assert resumed.to_json_text() == text_full


def test_forced_fingerprint_collisions_stay_sound():
    # Tiny primes make distinct values share fingerprints constantly; the
    # exact confirmation step must still produce the oracle's answer.
    for text in ["x + y", "x*y", "x^3 + y^3"]:
        poly = parse_poly(text)
        space = SearchSpace("integers", 6)
        fast = find_collisions(poly, space, primes=(5, 7))
        slow = naive_collisions(poly, space)
        assert fast.pairs == slow.pairs
        assert fast.values == slow.values
        # Candidate counts are inputs sitting in multi-member buckets; with
        # tiny primes nearly everything becomes a candidate.
        assert 0 < fast.stats["fingerprint_candidates"] <= fast.stats["inputs_evaluated"]


def test_classes_match_oracle_in_least_member_order():
    # Tiny primes put several values in one bucket, so the join meets the
    # classes out of order; the report still lists them by least member.
    for text in ["x + y", "x*y", "x^3 + y^3"]:
        poly, space = parse_poly(text), SearchSpace("integers", 6)
        fast = find_collisions(poly, space, primes=(5, 7))
        assert fast.classes == naive_collisions(poly, space).classes
        least = [members[0] for members, _ in fast.classes]
        assert least == sorted(least)
        assert all(list(members) == sorted(members) for members, _ in fast.classes)


def test_bucket_escalation_path():
    poly = parse_poly("x^2")
    space = SearchSpace("integers", 2)
    fast = find_collisions(poly, space)
    slow = naive_collisions(poly, space)
    assert fast.pairs == slow.pairs
    assert fast.values == slow.values
    # One bucket of all 1,089 inputs: each is evaluated exactly once.
    const, box = parse_poly("5"), SearchSpace("integers", 16)
    fast = find_collisions(const, box)
    assert fast.classes == naive_collisions(const, box).classes == [(tuple(range(1089)), 5)]
    assert fast.stats["fingerprint_candidates"] == fast.stats["exact_confirms"] == 1089


def test_undefined_fingerprint_slots():
    from polyinj.collide import fingerprint_value

    assert fingerprint_value(Fraction(1, 5), (5, 7)) == (None, 3)
    assert fingerprint_value(7, (5, 7)) == (2, 0)
    # Values whose denominators hit one of the join primes still group soundly.
    poly = parse_poly("x*y")
    space = SearchSpace("rationals", 5)
    fast = find_collisions(poly, space, primes=(5, 7))
    slow = naive_collisions(poly, space)
    assert fast.pairs == slow.pairs


def test_checkpoint_kill_resume_at_every_boundary(tmp_path):
    poly = parse_poly("x*y")
    space = SearchSpace("integers", 6)
    shards = 5
    baseline = find_collisions(poly, space, shards=shards).to_json_text()
    for k in range(1, shards):
        ck = str(tmp_path / f"b{k}.ck")
        with pytest.raises(SearchInterrupted):
            find_collisions(poly, space, shards=shards, checkpoint_path=ck,
                            stop_after_shards=k)
        resumed = find_collisions(poly, space, shards=shards, checkpoint_path=ck,
                                  resume=True)
        # The checkpoint field differs (path vs None); the search result not.
        assert resumed.pairs == find_collisions(poly, space, shards=shards).pairs
        doc = resumed.to_json_dict()
        base_doc = json.loads(baseline)
        doc["checkpoint"] = base_doc["checkpoint"] = None
        assert doc == base_doc


def test_checkpoint_mismatch_rejected(tmp_path):
    poly = parse_poly("x + y")
    ck = str(tmp_path / "scan.ck")
    with pytest.raises(SearchInterrupted):
        find_collisions(poly, SearchSpace("integers", 4), shards=4, checkpoint_path=ck,
                        stop_after_shards=1)
    with pytest.raises(ValueError):
        find_collisions(poly, SearchSpace("integers", 5), shards=4, checkpoint_path=ck,
                        resume=True)
    with pytest.raises(ValueError):
        find_collisions(parse_poly("x - y"), SearchSpace("integers", 4), shards=4,
                        checkpoint_path=ck, resume=True)


def test_resume_without_checkpoint_refused():
    with pytest.raises(ValueError, match="checkpoint"):
        find_collisions(parse_poly("x + y"), SearchSpace("integers", 4), resume=True)


def _corrupt(doc: dict, case: str) -> str:
    """Damage a parsed 4-shard checkpoint; return what its refusal must name."""
    shards = doc["completed"]
    if case == "truncated-shard":
        del shards["1"][-5:]
        return "shard 1"
    if case == "missing-completed":
        del doc["completed"]
        return "'completed'"
    if case == "entry-not-a-pair":
        shards["0"][3] = [1, 2]
        return "shard 0"
    if case == "fingerprint-too-short":
        # Version 1 held a fingerprint list here; a version-2 slot is an int
        # or null, so a float, a string and a bool are each refused.
        shards["0"][0] = 7.0
        return "shard 0"
    if case == "slot-a-string":
        shards["2"][1] = "7"
        return "shard 2"
    if case == "slot-a-bool":
        shards["3"][2] = True
        return "shard 3"
    if case == "shard-id-not-a-number":
        shards["x"] = shards.pop("2")
        return "'x'"
    if case == "shard-id-leading-zero":
        shards["01"] = shards.pop("1")
        return "'01'"
    if case == "shard-id-non-ascii-digit":
        shards["\u0661"] = shards.pop("1")  # ARABIC-INDIC DIGIT ONE, isdecimal() is true
        return "'\u0661'"
    if case == "version-1":
        doc["version"] = 1
        return "'version'"
    assert case == "shard-id-out-of-range"
    shards["4"] = shards.pop("3")
    return "'4'"


@pytest.mark.parametrize("case", [
    "truncated-shard", "missing-completed", "entry-not-a-pair", "fingerprint-too-short",
    "shard-id-not-a-number", "shard-id-out-of-range", "not-json", "shard-id-leading-zero",
    "shard-id-non-ascii-digit", "version-1", "slot-a-string", "slot-a-bool",
])
def test_corrupt_checkpoint_refused(tmp_path, case):
    poly, space = parse_poly("x^3+y^3"), SearchSpace("integers", 10)
    ck = str(tmp_path / "scan.ck")
    assert len(find_collisions(poly, space, shards=4, checkpoint_path=ck).pairs) == 458
    if case == "not-json":
        text, names = "{ truncated", "not valid JSON"
    else:
        with open(ck, encoding="utf-8") as fh:
            doc = json.load(fh)
        names = _corrupt(doc, case)
        text = json.dumps(doc)
    with open(ck, "w", encoding="utf-8") as fh:
        fh.write(text)
    with pytest.raises(ValueError) as err:
        find_collisions(poly, space, shards=4, checkpoint_path=ck, resume=True)
    assert ck in str(err.value) and names in str(err.value)


def test_report_text_matches_json_dumps_oracle():
    cube = find_collisions(parse_poly("x^3+y^3"), SearchSpace("integers", 6))
    frac = parse_poly("(1/5)*x^2+(1/7)*y+(1/3)*x*y")
    frac_report = find_collisions(frac, SearchSpace("rationals", 8))
    naive_empty = naive_collisions(parse_poly("x + 3*y"), SearchSpace("integers", 1))
    odd_path = dataclasses.replace(cube, checkpoint='runs/"q"\\back\\sl\u00e4sh-\u03c0.ck')
    reports = [
        find_collisions(parse_poly("x^7+3*y^7"), SearchSpace("integers", 5)),
        find_collisions(parse_poly("x^7+3*y^7"), SearchSpace("rationals", 3)),
        naive_empty,
        cube,
        dataclasses.replace(cube, classes=cube.classes[:1]),
        dataclasses.replace(cube, classes=cube.classes[-1:]),
        frac_report,
        find_collisions(frac, SearchSpace("rationals", 5), primes=(5, 7)),
        find_collisions(parse_poly("x*y"), SearchSpace("rationals", 4), primes=(5, 7)),
        naive_collisions(frac, SearchSpace("rationals", 4)),
        odd_path,
    ]
    rng = random.Random(8)
    while len(reports) < 20:
        poly = random_multipoly(rng, max_terms=4, max_exp=4)
        if set(poly.vars) <= {"x", "y"}:
            mode = rng.choice(("integers", "rationals"))
            reports.append(find_collisions(poly, SearchSpace(mode, rng.randint(1, 4))))
    assert naive_empty.pairs == [] and naive_empty.primes == ()
    assert any(Fraction(v) < 0 and Fraction(v).denominator > 1 for v in frac_report.values)
    assert '\\"q\\"\\\\back\\\\sl\\u00e4sh-\\u03c0' in odd_path.to_json_text()
    for rep in reports:
        oracle = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert rep.to_json_text() == oracle
        streamed = io.StringIO()
        rep.write_json(streamed)
        assert streamed.getvalue() == oracle


def test_checkpoint_bytes_equal_json_dump(tmp_path):
    poly, space = parse_poly("(1/5)*x^2+(1/7)*y+(1/3)*x*y"), SearchSpace("rationals", 4)
    for primes in (FINGERPRINT_PRIMES, (5, 7)):
        ranges = _shard_ranges(len(input_axis(space)) ** 2, 3)
        # Out of id order: the writer keeps the dict's own order.
        completed = {s: _phase1_shard(compile_xy_terms(poly), input_axis(space),
                                      start, end, primes)
                     for s, (start, end) in zip((2, 0), (ranges[2], ranges[0]))}
        header = _checkpoint_header(poly, space, 3, primes)
        ck = str(tmp_path / "scan.ck")
        _write_checkpoint(ck, header, completed)
        doc = dict(header)
        doc["completed"] = {str(sid): slots for sid, slots in completed.items()}
        expected = io.StringIO()
        json.dump(doc, expected)
        with open(ck, encoding="utf-8") as fh:
            assert fh.read() == expected.getvalue()


@pytest.mark.parametrize("text, mode, height, stopped, report", [
    ("x^3+y^3", "integers", 30,
     "6fbc96efe28678ee9ba0db48f95f7f932f533d238c8210ece92b940321cc7796",
     "18380016b7d98bf344216a6bf9fd24c5cba7353e33d5e4421f0c5a0ead9937d6"),
    ("(1/5)*x^2+(1/7)*y+(1/3)*x*y", "rationals", 6,
     "7340ad49f22bc605a738ac2b6024ca39460d05f4649ae20a64108fe84c88f918",
     "14498d248bb3b0bfc726da8f9ee4cd4b0932b7bd77bafbbea4d13dad05e2c73e"),
], ids=["cube-int", "fractional-rat"])
def test_checkpoint_bytes_pinned(tmp_path, monkeypatch, text, mode, height, stopped, report):
    # A version-2 checkpoint (one first-prime slot per input) stopped after
    # 3 of 6 shards, and the report that both the uninterrupted and the
    # resumed search give with checkpoint "cube.ck"; the report digests are
    # those of the version-1 writer, which encoded with json.dump.
    monkeypatch.chdir(tmp_path)
    poly, space = parse_poly(text), SearchSpace(mode, height)
    with pytest.raises(SearchInterrupted):
        find_collisions(poly, space, shards=6, checkpoint_path="cube.ck", stop_after_shards=3)
    assert hashlib.sha256((tmp_path / "cube.ck").read_bytes()).hexdigest() == stopped
    resumed = find_collisions(poly, space, shards=6, checkpoint_path="cube.ck", resume=True)
    assert hashlib.sha256(resumed.to_json_text().encode()).hexdigest() == report


def test_report_json_shape():
    rep = find_collisions(parse_poly("x + y"), SearchSpace("integers", 1))
    doc = rep.to_json_dict()
    assert doc["space"] == {"mode": "integers", "height": 1}
    assert doc["disclaimer"]
    assert "wall_time" not in doc["stats"]
    assert doc["stats"]["inputs_evaluated"] == 9
    assert ["0/1", "1/1"] in [c[0] for c in doc["collisions"]]
    assert rep.stats["wall_time"] >= 0


def test_poly_with_wrong_variables_rejected():
    with pytest.raises(ValueError):
        find_collisions(parse_poly("x + z"), SearchSpace("integers", 1))


def test_enumerate_inputs_matches_independent_characterization():
    from math import gcd

    h = 9
    expected = sorted(
        {
            Fraction(a, b)
            for a in range(-h, h + 1)
            for b in range(1, h + 1)
            if gcd(abs(a), b) == 1 and max(abs(a), b) <= h
        },
        key=lambda r: (max(abs(r.numerator), r.denominator), r.numerator, r.denominator),
    )
    assert enumerate_inputs(h) == expected


def test_engine_matches_oracle_on_random_polys():
    import random

    from conftest import random_multipoly

    rng = random.Random(2024)
    checked = 0
    while checked < 18:
        poly = random_multipoly(rng, max_terms=4, max_exp=5)
        if not set(poly.vars) <= {"x", "y"}:
            continue
        space = SearchSpace(rng.choice(("integers", "rationals")), rng.randint(1, 4))
        fast = find_collisions(poly, space)
        slow = naive_collisions(poly, space)
        assert fast.pairs == slow.pairs, (poly.render(), space)
        assert fast.values == slow.values
        checked += 1


def _phase1_box(poly, space, primes, cuts=()):
    """Phase 1 over the whole box, run as shards split at the given indices."""
    rows = compile_xy_terms(poly)
    axis = input_axis(space)
    bounds = [0, *cuts, len(axis) ** 2]
    out = []
    for start, end in zip(bounds, bounds[1:]):
        out += _phase1_shard(rows, axis, start, end, primes)
    return out


def test_phase1_residues_equal_exact_fingerprints():
    # The residue kernel must give every input exactly the first prime's
    # slot of its exact value's fingerprint, including the inputs it has to
    # evaluate exactly: tiny primes dividing a coefficient denominator (1/5
    # against q = 5) or an axis denominator (rationals of height >= 5).
    rng = random.Random(11)
    polys = [
        parse_poly("0"),
        parse_poly("-7/3"),
        parse_poly("x^7 + 3*y^7"),
        parse_poly("1/5*x^2 + 1/7*y + 1/3*x*y"),
        parse_poly("1/3*x^2*y - y^4 + 2/11"),
    ]
    while len(polys) < 14:
        poly = random_multipoly(rng, max_terms=5, max_exp=6)
        if set(poly.vars) <= {"x", "y"}:
            polys.append(poly)
    spaces = [SearchSpace("integers", 4), SearchSpace("rationals", 3),
              SearchSpace("rationals", 6)]
    for poly in polys:
        for space in spaces:
            axis = input_axis(space)
            n = len(axis)
            for primes in (FINGERPRINT_PRIMES, (5, 7)):
                want = [fingerprint(poly.eval_xy(axis[i // n], axis[i % n]), primes)[0]
                        for i in range(n * n)]
                assert _phase1_box(poly, space, primes) == want, (poly.render(), space, primes)
                # Shard bounds inside rows, and a one-input shard.
                cuts = (n // 2, n // 2 + 1, 2 * n + 3, n * n - n - 1)
                assert _phase1_box(poly, space, primes, cuts) == want


def test_phase1_default_primes_never_evaluate_exactly(monkeypatch):
    import polyinj.collide as collide_mod

    def refuse(*args):
        raise AssertionError("exact fallback ran")

    monkeypatch.setattr(collide_mod, "fingerprint_value", refuse)
    poly = parse_poly("1/5*x^2 + 1/7*y + 1/3*x*y")
    for space in (SearchSpace("integers", 5), SearchSpace("rationals", 7)):
        assert len(_phase1_box(poly, space, FINGERPRINT_PRIMES, (17,))) == len(
            input_axis(space)) ** 2


def test_bad_shard_and_worker_counts_refused_at_entry():
    poly, space = parse_poly("x^3 + y^3"), SearchSpace("integers", 5)
    for shards in (0, -1, 122):
        with pytest.raises(ValueError, match="shard count"):
            find_collisions(poly, space, shards=shards)
    for workers in (0, -4, 2):
        with pytest.raises(ValueError, match="worker count"):
            find_collisions(poly, space, workers=workers)
    assert len(find_collisions(poly, space, shards=None).pairs) == 105


def test_bad_prime_tuples_refused_at_entry():
    poly = parse_poly("x^3 + y^3")
    for primes in [(0,), (7, 7), (2,), (9,), (5, 7 * 11), (3317044064679887385961981,)]:
        with pytest.raises(ValueError, match="fingerprint primes"):
            find_collisions(poly, SearchSpace("integers", 4), primes=primes)
    # The join buckets on the first prime's slot, so it needs one prime.
    with pytest.raises(ValueError, match="fingerprint primes must name at least one"):
        find_collisions(poly, SearchSpace("integers", 4), primes=())
    # A composite modulus sharing a factor with a denominator used to fail
    # deep inside pow() instead.
    with pytest.raises(ValueError, match="fingerprint primes must be prime"):
        find_collisions(parse_poly("x*y"), SearchSpace("rationals", 3), primes=(9,))


def test_stop_after_shards_below_one_refused_before_any_work(tmp_path):
    poly, space = parse_poly("x^3 + y^3"), SearchSpace("integers", 5)
    ck = tmp_path / "scan.ck"
    for stop in (0, -1):
        with pytest.raises(ValueError, match="stop_after_shards"):
            find_collisions(poly, space, shards=3, checkpoint_path=str(ck),
                            stop_after_shards=stop)
        assert not ck.exists()


def test_candidate_fingerprints_equal_exact_fingerprints():
    # The other primes' slots, computed on the candidates' rows only, must
    # complete each candidate's first slot to the fingerprint of its exact
    # value, for dense and for sparse candidate sets.
    rng = random.Random(25)
    polys = [parse_poly("x^3 + y^3"), parse_poly("1/5*x^2 + 1/7*y + 1/3*x*y")]
    while len(polys) < 6:
        poly = random_multipoly(rng, max_terms=4, max_exp=5)
        if set(poly.vars) <= {"x", "y"}:
            polys.append(poly)
    for poly in polys:
        rows = compile_xy_terms(poly)
        for space in (SearchSpace("integers", 3), SearchSpace("rationals", 5)):
            axis = input_axis(space)
            n = len(axis)
            for primes in (FINGERPRINT_PRIMES, (5, 7), (7, 5), (5,)):
                slots = _phase1_shard(rows, axis, 0, n * n, primes)
                for candidates in (list(range(n * n)),
                                   sorted(rng.sample(range(n * n), n)), [n + 1]):
                    want = [fingerprint(poly.eval_xy(axis[i // n], axis[i % n]), primes)
                            for i in candidates]
                    got = list(_candidate_fingerprints(rows, axis, primes, slots, candidates))
                    assert got == want, (poly.render(), space, primes)


@pytest.mark.parametrize("primes", [FINGERPRINT_PRIMES, (5, 7), (7, 5),
                                    (FINGERPRINT_PRIMES[1],), (5,)],
                         ids=["default", "5-7", "7-5", "one-62-bit", "5-alone"])
def test_join_matches_oracle_and_brute_force_candidates(tmp_path, primes):
    # Random polynomials over both boxes; rationals of height 5 put q = 5
    # in axis denominators.  At every shard count from 1 to 4, and resumed
    # after a kill, the classes equal the oracle's and the candidate count
    # equals the number of inputs whose full fingerprint is shared.
    rng = random.Random(2025)
    cases = [(parse_poly("x^3 + y^3"), SearchSpace("rationals", 5)),
             (parse_poly("1/5*x^2 + 1/7*y + 1/3*x*y"), SearchSpace("rationals", 5)),
             (parse_poly("x*y"), SearchSpace("integers", 4))]
    while len(cases) < 7:
        poly = random_multipoly(rng, max_terms=4, max_exp=4)
        if set(poly.vars) <= {"x", "y"}:
            mode = rng.choice(("integers", "rationals"))
            cases.append((poly, SearchSpace(mode, rng.randint(1, 5))))
    for k, (poly, space) in enumerate(cases):
        oracle = naive_collisions(poly, space)
        axis = input_axis(space)
        n = len(axis)
        fps = [fingerprint(poly.eval_xy(axis[i // n], axis[i % n]), primes)
               for i in range(n * n)]
        shared = Counter(fps)
        want = sum(shared[fp] > 1 for fp in fps)
        texts = set()
        for shards in range(1, 5):
            runs = [find_collisions(poly, space, shards=shards, primes=primes)]
            if shards > 1:
                ck = str(tmp_path / f"c{k}-{shards}.ck")
                with pytest.raises(SearchInterrupted):
                    find_collisions(poly, space, shards=shards, primes=primes,
                                    checkpoint_path=ck, stop_after_shards=shards - 1)
                runs.append(find_collisions(poly, space, shards=shards, primes=primes,
                                            checkpoint_path=ck, resume=True))
            for rep in runs:
                assert rep.classes == oracle.classes, (poly.render(), space, shards)
                assert rep.values == oracle.values
                assert rep.stats["fingerprint_candidates"] == want
                assert rep.stats["exact_confirms"] == want
            texts.add(runs[0].to_json_text())
        assert len(texts) == 1


# -- exact by bound -----------------------------------------------------------


def _int_box_bound(poly, height):
    """B = sum of |c| * H^(ex+ey): no value of an integer poly on the box exceeds it."""
    return int(sum(abs(c) * height ** (ex + ey) for ex, ey, c in poly.xy_terms()))


def _prime_above(m):
    q = max(m + 1, 3)
    while not is_prime(q):
        q += 1
    return q


def _shared_fingerprint_count(poly, space, primes):
    """Inputs whose full fingerprint is shared: the join's candidate count."""
    axis = input_axis(space)
    n = len(axis)
    fps = [fingerprint(poly.eval_xy(axis[i // n], axis[i % n]), primes) for i in range(n * n)]
    shared = Counter(fps)
    return sum(shared[fp] > 1 for fp in fps)


def test_exact_by_bound_join_matches_oracle_on_random_integer_forms():
    # Integer forms on integer boxes, with the first prime just above 2B
    # (the slot is the value), below 2B (the general path), or the default.
    # Classes, values, value types and stats equal the oracle's.
    rng = random.Random(28)
    sides = Counter()
    for _ in range(45):
        terms = {(rng.randint(0, 4), rng.randint(0, 4)):
                 Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
                 for _ in range(rng.randint(1, 4))}
        poly = MultiPoly(("x", "y"), terms)
        space = SearchSpace("integers", rng.randint(1, 5))
        two_b = 2 * _int_box_bound(poly, space.height)
        q = rng.choice([_prime_above(two_b), _prime_above(rng.randint(2, max(2, two_b // 2))),
                        FINGERPRINT_PRIMES[0]])
        primes = FINGERPRINT_PRIMES if q == FINGERPRINT_PRIMES[0] else (q, _prime_above(q))
        sides[two_b < q] += 1
        rep = find_collisions(poly, space, primes=primes)
        oracle = naive_collisions(poly, space)
        assert rep.classes == oracle.classes, (poly.render(), space, primes)
        assert [type(v) for _, v in rep.classes] == [type(v) for _, v in oracle.classes]
        want = _shared_fingerprint_count(poly, space, primes)
        assert rep.stats["fingerprint_candidates"] == rep.stats["exact_confirms"] == want
    assert sides[True] >= 10 and sides[False] >= 10


@pytest.mark.parametrize("text", ["-x^3 - y^3", "-x^2 - y^2"])
def test_exact_by_bound_centres_values_down_to_minus_b(text):
    # Each form takes the value -B at the corner (H, H); -x^2 - y^2 takes it
    # on the class of the four corners.  With q the least prime above 2B,
    # the centring is as tight as it gets: a slot read as the value without
    # centring would put every negative class value at v + q.
    poly = parse_poly(text)
    for height in (1, 2, 6):
        space = SearchSpace("integers", height)
        b = _int_box_bound(poly, height)
        assert poly.eval_xy(height, height) == -b
        q = _prime_above(2 * b)
        rep = find_collisions(poly, space, primes=(q, _prime_above(q)))
        assert rep.classes == naive_collisions(poly, space).classes
        assert min(v for _, v in rep.classes) < 0
        if text == "-x^2 - y^2":
            assert rep.classes[0][1] == -b


@pytest.mark.parametrize("height", [25, 26], ids=["2B-below-q", "2B-above-q"])
def test_exact_by_bound_boundary_on_custom_primes(height):
    # x + y on [-H, H]^2 has B = 2H: 2B = 100 < 101 takes the bound path,
    # 2B = 104 the general one, where -52 and 49 share their slot mod 101.
    poly, space, primes = parse_poly("x + y"), SearchSpace("integers", height), (101, 103)
    want = _shared_fingerprint_count(poly, space, primes)
    oracle = naive_collisions(poly, space)
    for shards in (1, 3):
        rep = find_collisions(poly, space, shards=shards, primes=primes)
        assert rep.classes == oracle.classes
        assert rep.values == oracle.values
        assert rep.stats["fingerprint_candidates"] == rep.stats["exact_confirms"] == want


@pytest.mark.parametrize("text, height, primes, bound", [
    ("x + y", 25, (101, 103), True),
    ("x + y", 26, (101, 103), False),
    ("x^3 + y^3", 20, FINGERPRINT_PRIMES, True),
    ("x^3 + y^3", 20, (5, 7), False),
], ids=["x+y-25", "x+y-26", "cube-default", "cube-5-7"])
def test_exact_by_bound_skips_other_primes_and_exact_evaluation(monkeypatch, text, height,
                                                                primes, bound):
    # With 2B < q the classes come from the first-prime slots alone: no
    # other prime's slot and no exact evaluator.  With 2B >= q both run,
    # and the evaluator is built once, for confirmation.
    calls = Counter()
    make_evaluator, fingerprints = collide.make_evaluator, collide._candidate_fingerprints

    def counting_make_evaluator(rows):
        calls["make_evaluator"] += 1
        return make_evaluator(rows)

    def counting_fingerprints(*args):
        calls["_candidate_fingerprints"] += 1
        return fingerprints(*args)

    monkeypatch.setattr(collide, "make_evaluator", counting_make_evaluator)
    monkeypatch.setattr(collide, "_candidate_fingerprints", counting_fingerprints)
    poly, space = parse_poly(text), SearchSpace("integers", height)
    rep = find_collisions(poly, space, primes=primes)
    assert rep.classes
    assert calls == ({} if bound else {"make_evaluator": 1, "_candidate_fingerprints": 1})
    assert rep.classes == naive_collisions(poly, space).classes
