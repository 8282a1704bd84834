"""Exact arithmetic in F_p(t) and the injection f(x, y) = x^p + t*y^p.

Over the rational function field in characteristic p the construction is
unconditional: x^p + t*y^p takes distinct values on distinct input pairs,
because an equality would force t to be a p-th power of a rational function,
and t is not one.  This module implements the field arithmetic (dense
coefficient vectors mod p), the Frobenius identity g(t)^p = g(t^p) used for
exact p-th powers, the derivative criterion deciding p-th powers, and a
randomized search that hammers on the injection.

Polynomial coefficient vectors are tuples, low degree first, trailing zeros
trimmed; the zero polynomial is ().
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

from .rationals import is_prime

Coeffs = tuple[int, ...]


def ptrim(cs) -> Coeffs:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


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


def pmul(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    """Product via Kronecker substitution: pack into one big integer each,
    multiply, and read coefficient sums out of the digits.

    Digit width is chosen so convolution sums cannot overflow a digit.
    """
    if not a or not b:
        return ()
    bound = (p - 1) * (p - 1) * min(len(a), len(b)) + 1
    if bound <= 1 << 16:
        code = "H"
        width = 2
    elif bound <= 1 << 32:
        code = "I"
        width = 4
    else:
        return _pmul_school(a, b, p)
    na = int.from_bytes(array(code, a).tobytes(), "little")
    nb = int.from_bytes(array(code, b).tobytes(), "little")
    prod = na * nb
    nlen = (len(a) + len(b)) * width
    digits = array(code, prod.to_bytes(nlen, "little"))
    return ptrim(d % p for d in digits)


def _pmul_school(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return ptrim(c % p for c in out)


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
    while b:
        a, b = b, pdivmod(a, b, p)[1]
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
class FpPoly:
    """Dense polynomial over F_p, low-degree-first coefficients."""

    p: int
    coeffs: Coeffs

    def __post_init__(self):
        cs = ptrim(c % self.p for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        return FpPoly(self.p, padd(self.coeffs, other.coeffs, self.p))

    def __sub__(self, other):
        return FpPoly(self.p, psub(self.coeffs, other.coeffs, self.p))

    def __mul__(self, other):
        return FpPoly(self.p, pmul(self.coeffs, other.coeffs, self.p))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"


@dataclass(frozen=True)
class FpRatFun:
    """Rational function num/den over F_p, gcd-reduced with monic denominator."""

    num: FpPoly
    den: FpPoly

    def __post_init__(self):
        if self.num.p != self.den.p:
            raise ValueError("numerator and denominator live over different primes")
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")
        p = self.num.p
        n, d = self.num.coeffs, self.den.coeffs
        g = pgcd(n, d, p)
        if len(g) > 1:
            n = pdivmod(n, g, p)[0]
            d = pdivmod(d, g, p)[0]
        if d and d[-1] != 1:
            inv = pow(d[-1], -1, p)
            n = tuple(c * inv % p for c in n)
            d = tuple(c * inv % p for c in d)
        object.__setattr__(self, "num", FpPoly(p, n))
        object.__setattr__(self, "den", FpPoly(p, d))

    @property
    def p(self) -> int:
        return self.num.p

    @staticmethod
    def from_coeffs(p: int, num, den=(1,)) -> "FpRatFun":
        return FpRatFun(FpPoly(p, tuple(num)), FpPoly(p, tuple(den)))

    @staticmethod
    def constant(p: int, c: int) -> "FpRatFun":
        return FpRatFun.from_coeffs(p, (c,))

    @staticmethod
    def t(p: int) -> "FpRatFun":
        return FpRatFun.from_coeffs(p, (0, 1))

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
        return FpRatFun.from_coeffs(p, coeffs(parts[0]), den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "FpRatFun") -> "FpRatFun":
        p = self.p
        n = padd(
            pmul(self.num.coeffs, other.den.coeffs, p),
            pmul(other.num.coeffs, self.den.coeffs, p),
            p,
        )
        d = pmul(self.den.coeffs, other.den.coeffs, p)
        return FpRatFun(FpPoly(p, n), FpPoly(p, d))

    def __sub__(self, other: "FpRatFun") -> "FpRatFun":
        p = self.p
        n = psub(
            pmul(self.num.coeffs, other.den.coeffs, p),
            pmul(other.num.coeffs, self.den.coeffs, p),
            p,
        )
        d = pmul(self.den.coeffs, other.den.coeffs, p)
        return FpRatFun(FpPoly(p, n), FpPoly(p, d))

    def __mul__(self, other: "FpRatFun") -> "FpRatFun":
        p = self.p
        return FpRatFun(
            FpPoly(p, pmul(self.num.coeffs, other.num.coeffs, p)),
            FpPoly(p, pmul(self.den.coeffs, other.den.coeffs, p)),
        )

    def __truediv__(self, other: "FpRatFun") -> "FpRatFun":
        p = self.p
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return FpRatFun(
            FpPoly(p, pmul(self.num.coeffs, other.den.coeffs, p)),
            FpPoly(p, pmul(self.den.coeffs, other.num.coeffs, p)),
        )

    def frobenius(self) -> "FpRatFun":
        """Exact p-th power: num and den transported by g(t)^p = g(t^p).

        Canonical form is preserved: gcd(n, d) = 1 implies
        gcd(n(t^p), d(t^p)) = 1, and a monic den stays monic.
        """
        p = self.p
        return FpRatFun(
            FpPoly(p, pfrob(self.num.coeffs, p)),
            FpPoly(p, pfrob(self.den.coeffs, p)),
        )

    def derivative(self) -> "FpRatFun":
        """d/dt via the quotient rule."""
        p = self.p
        n, d = self.num.coeffs, self.den.coeffs
        num = psub(pmul(pderiv(n, p), d, p), pmul(n, pderiv(d, p), p), p)
        den = pmul(d, d, p)
        return FpRatFun(FpPoly(p, num), FpPoly(p, den))

    def __str__(self) -> str:
        return f"{self.num};{self.den}"


def ff_eval_injection(p: int, x: FpRatFun, y: FpRatFun) -> FpRatFun:
    """x^p + t * y^p in canonical form."""
    xp = x.frobenius()
    yp = y.frobenius()
    t_num = FpPoly(p, (0,) + yp.num.coeffs)  # t * num(y^p)
    return xp + FpRatFun(t_num, yp.den)


def is_pth_power(h: FpRatFun) -> bool:
    """True iff h is a p-th power in F_p(t): exactly when dh/dt = 0.

    The constants F_p are perfect, so the kernel of d/dt is F_p(t^p), the
    field of p-th powers.
    """
    p = h.p
    n, d = h.num.coeffs, h.den.coeffs
    return psub(pmul(pderiv(n, p), d, p), pmul(n, pderiv(d, p), p), p) == ()


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one injection check: equal inputs, or distinct values."""

    kind: str  # "equal_inputs" | "distinct_values"
    delta: FpRatFun | None

    @property
    def is_equal_inputs(self) -> bool:
        return self.kind == "equal_inputs"


def verify_injection(
    p: int,
    pair1: tuple[FpRatFun, FpRatFun],
    pair2: tuple[FpRatFun, FpRatFun],
) -> VerificationResult:
    """Check injectivity of x^p + t*y^p on one pair of input points.

    Either the inputs are equal, or the values differ (delta returned).
    A vanishing delta on distinct inputs would exhibit t as a p-th power;
    that branch is unreachable and guarded by an assertion.
    """
    x1, y1 = pair1
    x2, y2 = pair2
    if x1 == x2 and y1 == y2:
        return VerificationResult("equal_inputs", None)
    delta = ff_eval_injection(p, x1, y1) - ff_eval_injection(p, x2, y2)
    if not delta.is_zero():
        return VerificationResult("distinct_values", delta)
    # Unreachable: equal values on distinct inputs give
    # (x1-x2)^p = t*(y2-y1)^p, so t = ((x1-x2)/(y2-y1))^p would be a p-th
    # power of the witness below.
    dy = y2 - y1
    assert not dy.is_zero(), "x1^p = x2^p forces x1 = x2: inputs were equal after all"
    witness = (x1 - x2) / dy
    raise AssertionError(
        "injection violated: distinct inputs with equal values; witness "
        f"s = {witness} satisfies s^p = t: {witness.frobenius() == FpRatFun.t(p)}"
    )


def _random_ratfun(rng: random.Random, p: int, degree_bound: int) -> FpRatFun:
    num = tuple(rng.randrange(p) for _ in range(degree_bound + 1))
    while True:
        den = tuple(rng.randrange(p) for _ in range(degree_bound + 1))
        if any(den):
            break
    return FpRatFun.from_coeffs(p, num, den)


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
    Trials split across workers with derived seeds; counts are merged.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        per = [trials // workers] * workers
        for i in range(trials % workers):
            per[i] += 1
        payloads = [
            (p, degree_bound, n, seed + 1000003 * i) for i, n in enumerate(per) if n
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_search_chunk, payloads))
        equal_inputs = sum(c[0] for c in parts)
        distinct = sum(c[1] for c in parts)
    else:
        equal_inputs, distinct = _search_chunk((p, degree_bound, trials, seed))
    return {
        "p": p,
        "degree_bound": degree_bound,
        "trials": trials,
        "seed": seed,
        "equal_inputs": equal_inputs,
        "distinct_values": distinct,
        "collisions": 0,
    }


def _search_chunk(payload) -> tuple[int, int]:
    p, degree_bound, trials, seed = payload
    rng = random.Random(seed)
    equal_inputs = 0
    distinct = 0
    for _ in range(trials):
        pair1 = (_random_ratfun(rng, p, degree_bound), _random_ratfun(rng, p, degree_bound))
        pair2 = (_random_ratfun(rng, p, degree_bound), _random_ratfun(rng, p, degree_bound))
        result = verify_injection(p, pair1, pair2)
        if result.is_equal_inputs:
            equal_inputs += 1
        else:
            distinct += 1
    return equal_inputs, distinct
