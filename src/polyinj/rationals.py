"""Exact rational arithmetic and modular residue fingerprints.

Rationals are ``fractions.Fraction`` throughout: the stdlib type already
keeps the canonical form this project relies on (gcd-reduced, positive
denominator, zero stored as 0/1).  This module adds the pieces Fraction
does not have: the naive height, exact p-th roots, a Miller-Rabin
primality test, the "num/den" wire format, and residue fingerprints used to
accelerate exact-equality joins.

A fingerprint is a tuple of residues of a rational value modulo a fixed
tuple of word-sized primes, with ``None`` marking slots where the prime
divides the denominator.  Equal rationals always get equal fingerprints;
unequal rationals may collide, which only costs time because every join
confirms candidate matches with exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Rational = Fraction

Fingerprint = tuple  # residues, one per prime; None where the prime divides the denominator

# The default join primes: two 62-bit primes, fixed for the lifetime of a
# search run and recorded in run metadata.  Two distinct values share a
# fingerprint only when both primes divide the numerator of their difference,
# and exact confirmation separates them then.
FINGERPRINT_PRIMES = (4611686018427387847, 4611686018427387817)


def height(r: Fraction) -> int:
    """Naive height max(|num|, den) of a canonical rational; height(0) = 1."""
    return max(abs(r.numerator), r.denominator)


def fingerprint(r: Fraction | int, primes: tuple[int, ...]) -> Fingerprint:
    """Residues of r modulo each prime; None where the prime divides den."""
    check_fingerprint_primes(primes)
    num, den = r.numerator, r.denominator
    if den == 1:
        return tuple(num % q for q in primes)
    out = []
    for q in primes:
        if den % q == 0:
            out.append(None)
        else:
            out.append(num * pow(den, -1, q) % q)
    return tuple(out)


def check_fingerprint_primes(primes: tuple[int, ...]) -> None:
    """Refuse an empty prime tuple, repeats, an entry <= 2 or >= 2^64, or a composite.

    The 64-bit cap keeps every modulus where ``is_prime`` is exact.

    Raises ValueError.  The verdict for each tuple is cached, so the
    primality tests run once per tuple, not once per fingerprint.
    """
    _check_primes(tuple(primes))


@lru_cache(maxsize=64)
def _check_primes(primes: tuple[int, ...]) -> None:
    if not primes:
        raise ValueError("fingerprint primes must name at least one prime")
    if len(set(primes)) != len(primes):
        raise ValueError("fingerprint primes must be pairwise distinct")
    for q in primes:
        if q <= 2:
            raise ValueError(f"fingerprint primes must be > 2, got {q}")
        if q >= 1 << 64:
            raise ValueError(f"fingerprint primes must be below 2^64, got {q}")
        if not is_prime(q):
            raise ValueError(f"fingerprint primes must be prime, got {q}")


@lru_cache(maxsize=64)
def check_prime(p: int) -> None:
    """Refuse a modulus p that is not prime with ValueError("p is not prime").

    F_p(t) and Hensel lifting both need a field of residues mod p.  Passing
    verdicts are cached, so each prime is tested once.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def rat_to_str(r: Fraction) -> str:
    """Serialize as "num/den", always with the denominator ("0/1", "-3/7")."""
    return f"{r.numerator}/{r.denominator}"


def rat_from_str(text: str) -> Fraction:
    """Parse "num/den" or a bare integer string."""
    return Fraction(text.strip())


def int_nth_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None when n is not a perfect k-th power."""
    if n < 0 or k < 1:
        raise ValueError("int_nth_root requires n >= 0 and k >= 1")
    if n in (0, 1) or k == 1:
        return n
    # Newton iteration on integers, then verify.
    r = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    return r if r ** k == n else None


# The first 13 primes.  As Miller-Rabin bases they decide primality for every
# n < 3317044064679887385961981 (about 3.3e24), the smallest strong
# pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.3e24.

    Above that bound it is a strong probable-prime test to 13 bases.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pth_root(r: Fraction, p: int) -> Fraction | None:
    """Exact rational p-th root of r, or None if r is not a p-th power in Q.

    For even p, negative r has no rational root; for odd p the sign moves
    to the numerator root.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    num, den = r.numerator, r.denominator
    neg = num < 0
    if neg and p % 2 == 0:
        return None
    rn = int_nth_root(abs(num), p)
    if rn is None:
        return None
    rd = int_nth_root(den, p)
    if rd is None:
        return None
    return Fraction(-rn if neg else rn, rd)
