"""Exact rational arithmetic and modular residue fingerprints.

Rationals are ``fractions.Fraction`` throughout: the stdlib type already
keeps the canonical form this project relies on (gcd-reduced, positive
denominator, zero stored as 0/1).  This module adds the pieces Fraction
does not have: the naive height, exact p-th roots, a trial-division
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

Rational = Fraction

Fingerprint = tuple  # residues, one per prime; None where the prime divides the denominator

# 62-bit primes, fixed for the lifetime of a search run and recorded in run
# metadata.  The first two are the default join primes; all four are used
# when a fingerprint bucket grows past the escalation threshold.
FINGERPRINT_PRIMES = (4611686018427387847, 4611686018427387817)
FINGERPRINT_PRIMES_EXTENDED = FINGERPRINT_PRIMES + (
    4611686018427387787,
    4611686018427387761,
)


def canonicalize(num: int, den: int) -> Fraction:
    """Return num/den in canonical form (gcd-reduced, den > 0, 0 -> 0/1).

    Raises ZeroDivisionError when den is 0.
    """
    return Fraction(num, den)


def height(r: Fraction) -> int:
    """Naive height max(|num|, den) of a canonical rational; height(0) = 1."""
    return max(abs(r.numerator), r.denominator)


def fingerprint(r: Fraction, primes: tuple[int, ...]) -> Fingerprint:
    """Residues of r modulo each prime; None where the prime divides den."""
    _check_primes(primes)
    num, den = r.numerator, r.denominator
    out = []
    for q in primes:
        if den % q == 0:
            out.append(None)
        else:
            out.append(num * pow(den, -1, q) % q)
    return tuple(out)


def _check_primes(primes: tuple[int, ...]) -> None:
    if len(set(primes)) != len(primes):
        raise ValueError("fingerprint primes must be pairwise distinct")
    for q in primes:
        if q <= 2:
            raise ValueError(f"fingerprint primes must be > 2, got {q}")


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


def is_prime(n: int) -> bool:
    """Trial-division primality test, for the small primes of p-th powers and F_p."""
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
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
