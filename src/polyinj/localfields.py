"""Non-injectivity demonstrations over R and Q_p.

No nonconstant polynomial map can be injective over a local field: near any
point where a partial derivative is nonzero, the level curve f = c carries
infinitely many points.  This module makes that concrete twice over:

  * real_collision nudges the base point in x and re-solves for y in
    double precision (bracket, bisect, then Newton polish);
  * padic_collision nudges in x and Hensel-lifts a simple root mod p of
    the resulting univariate equation up to precision p^k.

Derivative screening is exact in both cases: the formal partial is computed
symbolically and evaluated in rational arithmetic before any numerics run.
Only the real-root *values* are approximate; the p-adic residuals are exact
integers checked by valuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import MultiPoly, udeg, uderiv, ueval, utrim
from .rationals import is_prime

REAL_DELTA_DEFAULT = Fraction(1, 1024)
TOL_FLOOR = 1e-12  # documented floor: double precision cannot certify below this
_BRACKET_SAMPLES = 64
_MAX_BRACKET_EXPANSIONS = 33  # y0 +- 2^j for j in 0..32


class DerivativeVanishesError(ValueError):
    """The screened partial derivative is exactly zero at the base point."""


class NoCollisionFoundError(RuntimeError):
    """Root bracketing or polishing failed; try a different base point."""


class HenselInapplicableError(RuntimeError):
    """No seed residue gives a simple root mod p; try a different delta or p."""


@dataclass(frozen=True)
class RealPoint:
    x: float
    y: float
    residual: float

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "residual": self.residual}


@dataclass(frozen=True)
class PadicApprox:
    p: int
    precision: int
    x: int
    y: int
    residual_valuation: int | None  # None means the residual is exactly zero
    valuation_trace: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "precision": self.precision,
            "x": self.x,
            "y": self.y,
            "residual_valuation": (
                "inf" if self.residual_valuation is None else self.residual_valuation
            ),
            "valuation_trace": list(self.valuation_trace),
        }


def _univariate_in_y(f: MultiPoly, x_value: Fraction) -> tuple[Fraction, ...]:
    """Coefficients of y -> f(x_value, y), low degree first."""
    rows = f.xy_terms()
    coeffs = [Fraction(0)] * (max((ey for _, ey, _ in rows), default=0) + 1)
    for ex, ey, c in rows:
        coeffs[ey] += c * x_value**ex
    return utrim(coeffs)


def _minus_constant(cs, c: Fraction) -> tuple[Fraction, ...]:
    """Coefficients of the polynomial cs minus the constant c, trimmed."""
    return utrim([(cs[0] if cs else 0) - c, *cs[1:]])


def _horner(cs, v: float) -> float:
    """Float value at v of the polynomial with coefficients cs, low degree first."""
    acc = 0.0
    for c in reversed(cs):
        acc = acc * v + c
    return acc


def _horner_mod(cs, v: int, m: int) -> int:
    """Value mod m at v of the polynomial with coefficients cs, low degree first."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * v + c) % m
    return acc


def _screen_partial_y(f: MultiPoly, x0: Fraction, y0: Fraction) -> None:
    dfdy = f.partial("y")
    if dfdy.is_zero() or dfdy.eval_xy(x0, y0) == 0:
        raise DerivativeVanishesError(
            f"df/dy vanishes at ({x0}, {y0}); pick a different base point"
        )


def real_collision(
    f: MultiPoly,
    x0,
    y0,
    tol: float,
    *,
    delta: Fraction = REAL_DELTA_DEFAULT,
) -> RealPoint:
    """Distinct point (x1, y1) with |f(x1, y1) - f(x0, y0)| <= tol.

    x1 = x0 + delta exactly; y1 solves f(x1, y) = f(x0, y0) numerically.
    Requires df/dy nonzero at the base point (checked exactly).
    """
    if not tol >= 0:  # also refuses NaN, for which tol < 0 is false
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    x0, y0 = Fraction(x0), Fraction(y0)
    if delta == 0:
        raise ValueError("delta must be nonzero: the returned point must differ in x")
    if f.total_degree() <= 0:
        raise ValueError("f must be nonconstant")
    x1 = x0 + Fraction(delta)
    g_exact = _univariate_in_y(f, x1)  # refuses z and w before the screen
    _screen_partial_y(f, x0, y0)

    c = f.eval_xy(x0, y0)
    # g(y) = f(x1, y) - c, as float coefficients for the numeric stage.
    g_exact = _minus_constant(g_exact, c)
    g = [float(cf) for cf in g_exact]
    dg = [float(cf) for cf in uderiv(g_exact)]

    y0f = float(y0)
    lo = hi = None
    for j in range(_MAX_BRACKET_EXPANSIONS):
        half = 2.0**j
        a, b = y0f - half, y0f + half
        step = (b - a) / _BRACKET_SAMPLES
        prev_y, prev_v = a, _horner(g, a)
        found = False
        for k in range(1, _BRACKET_SAMPLES + 1):
            cur_y = a + k * step
            cur_v = _horner(g, cur_y)
            if prev_v == 0.0:
                lo = hi = prev_y
                found = True
                break
            if (prev_v < 0) != (cur_v < 0):
                lo, hi = prev_y, cur_y
                found = True
                break
            prev_y, prev_v = cur_y, cur_v
        if found:
            break
    if lo is None:
        raise NoCollisionFoundError(
            f"no sign change for f({x1}, y) = {c} within y0 +- 2^32; move the base point"
        )

    if lo != hi:
        # Bisect to a 1e-4 window, then let Newton finish.
        flo = _horner(g, lo)
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            fmid = _horner(g, mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (flo < 0) != (fmid < 0):
                hi = mid
            else:
                lo, flo = mid, fmid

    y = 0.5 * (lo + hi)
    best_y, best_res = y, abs(_horner(g, y))
    for _ in range(100):
        if best_res <= tol:
            break
        d = _horner(dg, y)
        if d == 0.0 or d != d:
            break
        y = y - _horner(g, y) / d
        res = abs(_horner(g, y))
        if res < best_res:
            best_y, best_res = y, res
        else:
            break
    if best_res > tol:
        hint = (
            f" (tol below the double-precision floor {TOL_FLOOR:.0e}; "
            "only rational hits can do better)"
            if 0 < tol < TOL_FLOOR
            else ""
        )
        raise NoCollisionFoundError(
            f"Newton polishing stalled at residual {best_res:.3e} > tol {tol:.3e}{hint}"
        )
    return RealPoint(x=float(x1), y=best_y, residual=best_res)


def _valuation(value: Fraction, p: int) -> int | None:
    """p-adic valuation of the numerator (the value must be p-integral)."""
    num = value.numerator
    if value.denominator % p == 0:
        raise ValueError("value is not p-integral")
    if num == 0:
        return None
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    return v


def padic_collision(
    f: MultiPoly,
    p: int,
    precision: int,
    base: tuple[int, int],
    delta: int | None = None,
) -> PadicApprox:
    """Hensel-certified collision: (x0+delta, y) with v_p(f - c) >= precision.

    Searches seed residues y mod p for a simple root of f(x1, y) = c, then
    Newton-lifts in Z/p^precision.  The valuation trace is exact and
    nondecreasing by construction.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    x0, y0 = base
    if delta is None:
        delta = p
    pk = p**precision
    if delta % pk == 0:
        raise ValueError("delta vanishes mod p^precision; the points would coincide")

    for _, c in f.terms.items():
        if c.denominator % p == 0:
            raise ValueError(f"coefficient {c} is not {p}-integral")

    c_val = f.eval_xy(Fraction(x0), Fraction(y0))
    x1 = x0 + delta
    h_exact = _univariate_in_y(f, Fraction(x1))
    h_exact = _minus_constant(h_exact, c_val)
    if udeg(h_exact) < 1:
        raise HenselInapplicableError("f(x1, y) - c does not depend on y (df/dy = 0)")
    h_mod = [cf.numerator * pow(cf.denominator, -1, pk) % pk for cf in h_exact]
    dh_mod = [(i * cf) % pk for i, cf in enumerate(h_mod)][1:]

    seed = None
    for r in range(p):
        if _horner_mod(h_mod, r, p) == 0 and _horner_mod(dh_mod, r, p) != 0:
            seed = r
            break
    if seed is None:
        raise HenselInapplicableError(
            f"no simple root of f({x1}, y) = c mod {p}; try a different delta or prime"
        )

    def exact_residual(y: int) -> Fraction:
        return ueval(h_exact, Fraction(y))

    y = seed
    trace = []
    v = _valuation(exact_residual(y), p)
    trace.append(precision if v is None else min(v, precision))
    for _ in range(64):
        if v is None or v >= precision:
            break
        d = _horner_mod(dh_mod, y, pk)
        y = (y - _horner_mod(h_mod, y, pk) * pow(d, -1, pk)) % pk
        v = _valuation(exact_residual(y), p)
        trace.append(precision if v is None else min(v, precision))
    if not (v is None or v >= precision):
        raise HenselInapplicableError(
            f"lift stalled at valuation {v} < {precision}"
        )
    # Any representative of the class works (residuals agree mod p^k); prefer
    # the one whose residual is exactly zero, if either is.
    y = y % pk
    best_y, best_v = y, v
    alt = y - pk
    v_alt = _valuation(exact_residual(alt), p)
    if v_alt is None or (best_v is not None and v_alt > best_v):
        best_y, best_v = alt, v_alt
    return PadicApprox(
        p=p,
        precision=precision,
        x=x1 % pk,
        y=best_y,
        residual_valuation=best_v,
        valuation_trace=tuple(trace),
    )
