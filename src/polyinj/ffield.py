"""Exact arithmetic in F_p(t) and the injection f(x, y) = x^p + t*y^p.

Over the rational function field in characteristic p the construction is
unconditional: x^p + t*y^p takes distinct values on distinct input pairs,
because an equality would force t to be a p-th power of a rational function,
and t is not one.  This module implements the field arithmetic (dense
coefficient vectors mod p), the Frobenius identity g(t)^p = g(t^p) used for
exact p-th powers, the derivative criterion deciding p-th powers, and a
randomized search that hammers on the injection.

Polynomial coefficient vectors are tuples, low degree first, trailing zeros
trimmed; the zero polynomial is ().  A value of F_p(t) is FpRatFun(p, num,
den) over two such tuples, and FpRatFun.__post_init__ is the one place that
refuses a modulus that is not prime, reduces mod p and puts num/den in
canonical form.  Products use Kronecker substitution: one helper packs
coefficient tuples into integers, at a digit width proven wide enough that
no digit carries, and reads digits back.

One helper builds x^p + t*y^p, unreduced and packed, straight from the
Frobenius-moved tuples: ff_eval_injection reduces it once.  One kernel,
_decide_trial, decides an injection check on raw (num, den) tuples, with no
gcd and no FpRatFun: the two values are compared by cross multiplication
(a/b = c/d iff a*d = b*c in a field of fractions) as packed integers, and the
inputs are compared the same way only when the values are equal.
verify_injection and the randomized search both call it; the search draws
and decides its trials one after another in one process.  Values over
different primes are refused with ValueError.

The search's coefficients are the values that successive
Random(seed).randrange(p) calls return, but _RandrangeReader reads them in
bulk from the Mersenne Twister's 32-bit word stream, so its reports rest on
two CPython details: getrandbits' word layout and _randbelow's rejection
rule.  The tests compare the reader with randrange itself.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass

from .rationals import check_prime

Coeffs = tuple[int, ...]


def ptrim(cs) -> Coeffs:
    """cs as a coefficient tuple with trailing zeros cut off by one slice."""
    cs = tuple(cs)
    if not cs or cs[-1]:
        return cs
    n = len(cs) - 1
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def padd(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def psub(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return ptrim(out)


# array type codes by item size; the packed form is in the platform's byte order.
# _RandrangeReader reads the Mersenne Twister's 32-bit words as array("I").
_ARRAY_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
if any(array(code).itemsize != size for size, code in _ARRAY_CODES.items()):
    raise ImportError("polyinj.ffield needs array items 'B', 'H', 'I', 'Q' of 1, 2, 4, 8 bytes")


def _digit_width(top: int) -> int:
    """Bytes per digit for digits in 0..top: 1, 2, 4 or 8 where one suffices."""
    nbytes = max(1, -(-top.bit_length() // 8))
    return next((w for w in (1, 2, 4, 8) if nbytes <= w), nbytes)


def _pack(cs, width: int) -> int:
    """Coefficients 0 <= c < 256**width as one integer, width bytes per digit."""
    code = _ARRAY_CODES.get(width)
    if code:
        return int.from_bytes(array(code, cs), sys.byteorder)
    return int.from_bytes(b"".join([c.to_bytes(width, sys.byteorder) for c in cs]), sys.byteorder)


def _unpack(n: int, width: int, count: int):
    """The low count digits of n >= 0, width bytes each, low digit first."""
    raw = n.to_bytes(count * width, sys.byteorder)
    code = _ARRAY_CODES.get(width)
    if code:
        return array(code, raw)
    return [int.from_bytes(raw[i : i + width], sys.byteorder) for i in range(0, len(raw), width)]


def _reduce(n: int, width: int, p: int) -> Coeffs:
    """The digits of n >= 0 reduced mod p, as a trimmed coefficient tuple."""
    count = -(-n.bit_length() // (8 * width))
    return ptrim([d % p for d in _unpack(n, width, count)])


def pmul(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    """Product via Kronecker substitution: pack into one big integer each,
    multiply, and read coefficient sums out of the digits.

    Coefficients lie in 0..p-1.  A digit of the product sums at most
    min(len(a), len(b)) terms below p**2, so the digit width keeps those
    sums from carrying into the next digit.
    """
    if not a or not b:
        return ()
    width = _digit_width((p - 1) * (p - 1) * min(len(a), len(b)))
    return _reduce(_pack(a, width) * _pack(b, width), width, p)


def pdivmod(a: Coeffs, b: Coeffs, p: int) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv % p
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                r[k + i] = (r[k + i] - c * bc) % p
    return ptrim(q), ptrim(r)


def pgcd(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    """Monic gcd by Euclid's algorithm; each step keeps only the remainder."""
    while b:
        r = list(a)
        nb = len(b)
        inv = pow(b[-1], -1, p)
        for k in range(len(r) - nb, -1, -1):
            c = r[k + nb - 1] * inv % p
            if c:
                for i, bc in enumerate(b):
                    r[k + i] = (r[k + i] - c * bc) % p
        a, b = b, ptrim(r[: nb - 1])
    return pmonic(a, p)


def pmonic(a: Coeffs, p: int) -> Coeffs:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def pderiv(a: Coeffs, p: int) -> Coeffs:
    return ptrim(i * c % p for i, c in enumerate(a) if i >= 1)


def pfrob(a: Coeffs, p: int) -> Coeffs:
    """g(t)^p = g(t^p): coefficients transported to indices multiplied by p."""
    a = ptrim(a)
    if not a:
        return ()
    out = [0] * ((len(a) - 1) * p + 1)
    for i, c in enumerate(a):
        out[i * p] = c % p
    return tuple(out)


@dataclass(frozen=True)
class FpRatFun:
    """Rational function num/den over F_p, gcd-reduced with monic denominator.

    p must be prime (ValueError otherwise); num and den are coefficient
    tuples in the form described above.
    """

    p: int
    num: Coeffs
    den: Coeffs

    def __post_init__(self):
        p = self.p
        check_prime(p)
        n = ptrim(c % p for c in self.num)
        d = ptrim(c % p for c in self.den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        g = pgcd(n, d, p)
        if len(g) > 1:
            n = pdivmod(n, g, p)[0]
            d = pdivmod(d, g, p)[0]
        if d[-1] != 1:
            inv = pow(d[-1], -1, p)
            n = tuple(c * inv % p for c in n)
            d = tuple(c * inv % p for c in d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @staticmethod
    def from_coeffs(p: int, num, den=(1,)) -> "FpRatFun":
        return FpRatFun(p, num, den)

    @staticmethod
    def t(p: int) -> "FpRatFun":
        return FpRatFun(p, (0, 1), (1,))

    @staticmethod
    def from_text(p: int, text: str) -> "FpRatFun":
        """Parse "num;den" with comma-separated coefficients, low degree first."""
        parts = text.split(";")
        if len(parts) not in (1, 2):
            raise ValueError(f"expected 'num;den' coefficient lists, got {text!r}")

        def coeffs(part: str) -> tuple[int, ...]:
            part = part.strip()
            if part in ("", "0"):
                return ()
            return tuple(int(c) for c in part.split(","))

        den = coeffs(parts[1]) if len(parts) == 2 else (1,)
        return FpRatFun(p, coeffs(parts[0]), den)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "FpRatFun") -> "FpRatFun":
        p = _common_prime(self.p, other)
        n = padd(pmul(self.num, other.den, p), pmul(other.num, self.den, p), p)
        return FpRatFun(p, n, pmul(self.den, other.den, p))

    def __sub__(self, other: "FpRatFun") -> "FpRatFun":
        p = _common_prime(self.p, other)
        n = psub(pmul(self.num, other.den, p), pmul(other.num, self.den, p), p)
        return FpRatFun(p, n, pmul(self.den, other.den, p))

    def __mul__(self, other: "FpRatFun") -> "FpRatFun":
        p = _common_prime(self.p, other)
        return FpRatFun(p, pmul(self.num, other.num, p), pmul(self.den, other.den, p))

    def __truediv__(self, other: "FpRatFun") -> "FpRatFun":
        p = _common_prime(self.p, other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return FpRatFun(p, pmul(self.num, other.den, p), pmul(self.den, other.num, p))

    def frobenius(self) -> "FpRatFun":
        """Exact p-th power: num and den transported by g(t)^p = g(t^p).

        Canonical form is preserved: gcd(n, d) = 1 implies
        gcd(n(t^p), d(t^p)) = 1, and a monic den stays monic.
        """
        p = self.p
        return FpRatFun(p, pfrob(self.num, p), pfrob(self.den, p))

    def __str__(self) -> str:
        return ";".join(",".join(map(str, cs)) if cs else "0" for cs in (self.num, self.den))


def _common_prime(p: int, *values: FpRatFun) -> int:
    """p, after checking that every value lives over F_p(t)."""
    for v in values:
        if v.p != p:
            raise ValueError(f"F_{v.p}(t) value used where F_{p}(t) is expected")
    return p


Pair = tuple[Coeffs, Coeffs]  # a raw (num, den): coefficients in 0..p-1, den nonzero


def _packed_value(p: int, x: Pair, y: Pair, width: int) -> tuple[int, int]:
    """x^p + t * y^p as an unreduced (num, den), packed width bytes per digit.

    With the Frobenius-moved tuples N(t) = n(t^p) and D(t) = d(t^p), the
    value is (N_x D_y + t N_y D_x) / (D_x D_y); the factor t is a one-digit
    shift.
    """
    nx, dx = _pack_moved(x[0], p, width), _pack_moved(x[1], p, width)
    ny, dy = _pack_moved(y[0], p, width), _pack_moved(y[1], p, width)
    return nx * dy + (ny * dx << 8 * width), dx * dy


def _pack_moved(cs, p: int, width: int) -> int:
    """g(t^p) packed width bytes per digit, for g with coefficients cs."""
    moved = [0] * ((len(cs) - 1) * p + 1)
    moved[::p] = cs
    return _pack(moved, width)


def ff_eval_injection(p: int, x: FpRatFun, y: FpRatFun) -> FpRatFun:
    """x^p + t * y^p in canonical form, reduced once."""
    _common_prime(p, x, y)
    # N_x D_y is nonzero only at multiples of p, where a digit sums at most
    # size products of two coefficients below p; t N_y D_x fills only digits
    # that N_x D_y leaves empty, since p >= 2.
    size = max(len(x.num), len(x.den), len(y.num), len(y.den))
    width = _digit_width(size * (p - 1) ** 2)
    n, d = _packed_value(p, (x.num, x.den), (y.num, y.den), width)
    return FpRatFun(p, _reduce(n, width, p), _reduce(d, width, p))


def is_pth_power(h: FpRatFun) -> bool:
    """True iff h is a p-th power in F_p(t): exactly when dh/dt = 0.

    The constants F_p are perfect, so the kernel of d/dt is F_p(t^p), the
    field of p-th powers.
    """
    p, n, d = h.p, h.num, h.den
    return psub(pmul(pderiv(n, p), d, p), pmul(n, pderiv(d, p), p), p) == ()


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one injection check: equal inputs, or distinct values.

    delta is the canonical value1 - value2, nonzero for distinct values and
    None for equal inputs.
    """

    kind: str  # "equal_inputs" | "distinct_values"
    delta: FpRatFun | None = None


def verify_injection(
    p: int,
    pair1: tuple[FpRatFun, FpRatFun],
    pair2: tuple[FpRatFun, FpRatFun],
) -> VerificationResult:
    """Check injectivity of x^p + t*y^p on one pair of input points.

    Either the inputs are equal, or the values differ.  The decision is the
    hammer's own kernel, _decide_trial; for distinct values the difference
    of the two values is then built in canonical form.
    """
    x1, y1 = pair1
    x2, y2 = pair2
    _common_prime(p, x1, y1, x2, y2)
    if _decide_trial(p, (x1.num, x1.den), (y1.num, y1.den), (x2.num, x2.den), (y2.num, y2.den)):
        return VerificationResult("equal_inputs")
    delta = ff_eval_injection(p, x1, y1) - ff_eval_injection(p, x2, y2)
    return VerificationResult("distinct_values", delta)


def _decide_trial(p: int, x1: Pair, y1: Pair, x2: Pair, y2: Pair) -> bool:
    """One injection check on raw pairs: True for equal inputs, False for
    distinct values.

    The pairs need not be trimmed, in lowest terms or monic.  Both values
    are built literally in F_p[t] and compared by cross multiplication,
    n1/d1 = n2/d2 iff n1*d2 = n2*d1, digit by digit mod p.  Distinct values
    imply distinct inputs.  Only equal values lead to comparing the inputs,
    again by cross multiplication; unequal inputs there would exhibit t as a
    p-th power, so that branch is unreachable, and it builds the witness and
    raises.
    """
    size = max(map(len, (*x1, *y1, *x2, *y2)))
    # A digit of n or d is at most size (p-1)^2 (see ff_eval_injection), and
    # the digits of d sum to at most (size (p-1))^2, so a digit of n1*d2 is
    # at most size^3 (p-1)^4.
    width = _digit_width(size**3 * (p - 1) ** 4)
    n1, d1 = _packed_value(p, x1, y1, width)
    n2, d2 = _packed_value(p, x2, y2, width)
    c1, c2 = n1 * d2, n2 * d1
    if c1 != c2:
        count = -(-max(c1.bit_length(), c2.bit_length()) // (8 * width))
        if any((a - b) % p for a, b in zip(_unpack(c1, width, count), _unpack(c2, width, count))):
            return False
    if all(pmul(a[0], b[1], p) == pmul(b[0], a[1], p) for a, b in ((x1, x2), (y1, y2))):
        return True
    # Unreachable: equal values on distinct inputs give
    # (x1-x2)^p = t*(y2-y1)^p, so t = ((x1-x2)/(y2-y1))^p would be a p-th
    # power of the witness below.
    x1, y1, x2, y2 = (FpRatFun(p, *v) for v in (x1, y1, x2, y2))
    dy = y2 - y1
    assert not dy.is_zero(), "x1^p = x2^p forces x1 = x2: inputs were equal after all"
    witness = (x1 - x2) / dy
    raise AssertionError(
        "injection violated: distinct inputs with equal values; witness "
        f"s = {witness} satisfies s^p = t: {witness.frobenius() == FpRatFun.t(p)}"
    )


# Words read from the Mersenne Twister per refill of a _RandrangeReader; a
# reader holds at most one refill of values beyond what it has handed out.
_CHUNK_WORDS = 4096


class _RandrangeReader:
    """The values that successive rng.randrange(p) calls would return, in
    their order, read in bulk from rng's own 32-bit word stream.

    On CPython, randrange(p) is _randbelow(p): with k = p.bit_length(), it
    calls getrandbits(k) until the result is below p, and for k <= 32 each
    call keeps the top k bits of the next 32-bit word.  getrandbits(32 m)
    returns the next m words with the first in the lowest 32 bits, on
    either byte order.  So for p < 2**32 the reader reads _CHUNK_WORDS
    words at a time and keeps w >> (32 - k) wherever it is below p.  It
    reads ahead, so nothing else may draw from rng while it is in use.  For
    p >= 2**32, getrandbits(k) spans several words, and the reader calls
    rng.randrange(p) once per value instead.
    """

    def __init__(self, rng: random.Random, p: int):
        self._rng = rng
        self._p = p
        self._buf: Coeffs = ()
        self._pos = 0

    def take(self, n: int) -> Coeffs:
        """The next n values, as a tuple."""
        pos, buf = self._pos, self._buf
        end = pos + n
        if end > len(buf):
            buf = self._buf = buf[pos:] + self._more(end - len(buf))
            pos, end = 0, n
        self._pos = end
        return buf[pos:end]

    def _more(self, need: int) -> Coeffs:
        """At least need further values."""
        rng, p = self._rng, self._p
        shift = 32 - p.bit_length()
        if shift < 0:
            return tuple(rng.randrange(p) for _ in range(need))
        limit = p << shift  # w >> shift < p exactly when w < limit
        out: list[int] = []
        while len(out) < need:
            raw = rng.getrandbits(32 * _CHUNK_WORDS).to_bytes(4 * _CHUNK_WORDS, "little")
            words = array("I", raw)
            if sys.byteorder == "big":
                words.byteswap()
            out += [w >> shift for w in words if w < limit]
        return tuple(out)


def _random_pair(draws: _RandrangeReader, n: int) -> Pair:
    """num and den of one random rational function, n coefficients each;
    den is redrawn, in stream order, until it is nonzero."""
    num, den = draws.take(n), draws.take(n)
    while not any(den):
        den = draws.take(n)
    return num, den


# Most coefficients, degree_bound * p + 1, that a Frobenius-moved input
# n(t^p) of the hammer may have: a trial's packed integers grow with it.
MAX_MOVED_COEFFS = 1 << 12


def ff_collision_search(
    p: int,
    degree_bound: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> dict:
    """Randomized hammering of the injection; any collision fails loudly.

    Draws pairs of random rational functions with num/den degrees up to the
    bound and asserts that distinct inputs always produce distinct values.
    Every trial's coefficients are the values of successive
    Random(seed).randrange(p) calls, in trial order, read in bulk by a
    _RandrangeReader; each trial is decided as it is drawn, from the raw
    tuples, with no gcd and no FpRatFun.  The search runs in one process:
    any ``workers`` but 1 is refused with ValueError, and so are a p that
    is not prime and any (p, degree_bound) whose Frobenius-moved inputs
    would have more than MAX_MOVED_COEFFS = 4096 coefficients
    (degree_bound * p + 1).
    """
    check_prime(p)
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    moved = degree_bound * p + 1
    if moved > MAX_MOVED_COEFFS:
        raise ValueError(
            f"Frobenius-moved inputs would have {moved} coefficients "
            f"(degree bound {degree_bound} * p {p} + 1), over the cap of {MAX_MOVED_COEFFS}"
        )
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers != 1:
        raise ValueError(f"worker count must be 1: the F_p(t) hammer runs in one process, "
                         f"got {workers}")
    draws = _RandrangeReader(random.Random(seed), p)
    n = degree_bound + 1
    equal_inputs = sum(
        _decide_trial(p, *[_random_pair(draws, n) for _ in range(4)]) for _ in range(trials)
    )
    return {
        "p": p,
        "degree_bound": degree_bound,
        "trials": trials,
        "seed": seed,
        "equal_inputs": equal_inputs,
        "distinct_values": trials - equal_inputs,
        "collisions": 0,
    }
