import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyinj.rationals import (
    FINGERPRINT_PRIMES,
    FINGERPRINT_PRIMES_EXTENDED,
    canonicalize,
    fingerprint,
    height,
    int_nth_root,
    is_prime,
    pth_root,
    rat_from_str,
    rat_to_str,
)


def _miller_rabin(n: int) -> bool:
    # Deterministic for n < 3.3e24 with these witnesses.
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_canonicalize_examples():
    assert canonicalize(2, 4) == Fraction(1, 2)
    assert canonicalize(3, -6) == Fraction(-1, 2)
    r = canonicalize(0, 7)
    assert (r.numerator, r.denominator) == (0, 1)


def test_canonicalize_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        canonicalize(1, 0)


def test_fingerprint_examples():
    assert fingerprint(Fraction(1, 2), (5,)) == (3,)
    assert fingerprint(Fraction(1, 5), (5,)) == (None,)
    assert fingerprint(Fraction(7, 3), (11, 13)) == (6, 11)


def test_fingerprint_prime_validation():
    with pytest.raises(ValueError):
        fingerprint(Fraction(1), (7, 7))
    with pytest.raises(ValueError):
        fingerprint(Fraction(1), (2, 5))


def test_default_primes_are_prime_distinct_wordsized():
    assert len(set(FINGERPRINT_PRIMES_EXTENDED)) == 4
    assert FINGERPRINT_PRIMES == FINGERPRINT_PRIMES_EXTENDED[:2]
    for q in FINGERPRINT_PRIMES_EXTENDED:
        assert q.bit_length() == 62
        assert _miller_rabin(q)


def test_height():
    assert height(Fraction(0)) == 1
    assert height(Fraction(1)) == 1
    assert height(Fraction(-1)) == 1
    assert height(Fraction(-3, 7)) == 7
    assert height(Fraction(22, 7)) == 22


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_height_one_iff_unit_or_zero(num, den):
    r = Fraction(num, den)
    assert (height(r) == 1) == (r in (0, 1, -1))


@given(
    st.integers(-10**9, 10**9),
    st.integers(min_value=1, max_value=10**9),
    st.integers(min_value=1, max_value=10**6),
)
def test_equal_values_equal_fingerprints(num, den, scale):
    a = Fraction(num, den)
    b = canonicalize(num * scale, den * scale)
    assert a == b
    assert fingerprint(a, FINGERPRINT_PRIMES) == fingerprint(b, FINGERPRINT_PRIMES)
    assert fingerprint(a, FINGERPRINT_PRIMES_EXTENDED) == fingerprint(
        b, FINGERPRINT_PRIMES_EXTENDED
    )


def test_no_false_equalities_on_random_distinct_rationals():
    # 10^4 random distinct rationals of height <= 10^6 with two 62-bit primes:
    # anything sharing a fingerprint must still be separated exactly.
    rng = random.Random(20100516)
    seen = set()
    while len(seen) < 10**4:
        seen.add(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
    buckets = {}
    for r in seen:
        buckets.setdefault(fingerprint(r, FINGERPRINT_PRIMES), []).append(r)
    for members in buckets.values():
        # Exact confirmation: distinct inputs never get reported equal.
        assert len(set(members)) == len(members)


def test_serialization_round_trip():
    assert rat_to_str(Fraction(-3, 7)) == "-3/7"
    assert rat_to_str(Fraction(0)) == "0/1"
    assert rat_from_str("-3/7") == Fraction(-3, 7)
    assert rat_from_str("5") == Fraction(5)
    assert rat_from_str(rat_to_str(Fraction(22, 7))) == Fraction(22, 7)


def test_int_nth_root():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(1, 7) == 1
    assert int_nth_root(32, 5) == 2
    assert int_nth_root(33, 5) is None
    assert int_nth_root(10**60, 5) == 10**12


@given(st.integers(0, 10**9), st.integers(2, 7))
def test_int_nth_root_matches_definition(n, k):
    r = int_nth_root(n, k)
    if r is None:
        assert round(n ** (1 / k)) ** k != n
    else:
        assert r**k == n


def test_is_prime_matches_miller_rabin():
    for n in range(-5, 3000):
        assert is_prime(n) == _miller_rabin(n), n


def test_pth_root():
    assert pth_root(Fraction(32, 243), 5) == Fraction(2, 3)
    assert pth_root(Fraction(-32, 243), 5) == Fraction(-2, 3)
    assert pth_root(Fraction(0), 5) == 0
    assert pth_root(Fraction(2), 5) is None
    assert pth_root(Fraction(-4), 2) is None
    assert pth_root(Fraction(31, 243), 5) is None


@given(st.fractions(max_denominator=100), st.sampled_from([3, 5, 7]))
def test_pth_root_inverts_powers(r, p):
    assert pth_root(r**p, p) == r
