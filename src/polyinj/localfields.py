"""Non-injectivity demonstrations over R and Q_p, certified exactly.

No nonconstant polynomial map can be injective over a local field: near any
point where a partial derivative is nonzero, the level curve f = c carries
infinitely many points.  This module makes that concrete twice over:

  * real_collision nudges in x and halves, in rational arithmetic, a
    bracket where the resulting univariate equation changes sign exactly;
  * padic_collision nudges in x and Hensel-lifts a simple root mod p of
    the resulting univariate equation up to precision p^k.

Everything is decided exactly: the derivative screen sums df/dy's terms,
taken from f's, exactly; the real bracket's signs are exact, and the
p-adic residuals are exact integers checked by valuation.  Floats appear
only as the real report's rounded x, y and residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .poly import MultiPoly, compile_xy_terms, make_evaluator, partial_eval_x
from .rationals import check_prime, rat_to_str

REAL_DELTA_DEFAULT = Fraction(1, 1024)
_BRACKET_SAMPLES = 64
_MAX_BRACKET_EXPANSIONS = 33  # y0 +- 2^j for j in 0..32
_MAX_HALVINGS = 1100  # reaches any positive double tol at a simple root


class DerivativeVanishesError(ValueError):
    """The screened partial derivative is exactly zero at the base point."""


class NoCollisionFoundError(RuntimeError):
    """No sign change was found, or no midpoint met tol within the cap."""


class HenselInapplicableError(RuntimeError):
    """No seed residue gives a simple root mod p; try a different delta or p."""


@dataclass(frozen=True)
class RealPoint:
    """x, y and residual |g(y)| rounded once; g changes sign on [y_lo, y_hi]."""

    x: float
    y: float
    residual: float
    y_lo: Fraction
    y_hi: Fraction

    def to_json_dict(self) -> dict:
        bracket = {"y_lo": rat_to_str(self.y_lo), "y_hi": rat_to_str(self.y_hi)}
        return {"x": self.x, "y": self.y, "residual": self.residual, **bracket}


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


def _level_equation(f: MultiPoly, x0, y0, x1) -> tuple[list[int], int]:
    """g(y) = f(x1, y) - f(x0, y0) as (N, D): N[k] / D is g's y^k coefficient.

    N is ``partial_eval_x``'s trimmed ints with c = f(x0, y0) subtracted
    over the least common denominator D > 0; it is [] when g is 0.
    """
    rows = compile_xy_terms(f)
    coeffs, den = partial_eval_x(rows, x1)
    c = Fraction(make_evaluator(rows)(x0, y0))
    scale = lcm(den, c.denominator)
    coeffs = [k * (scale // den) for k in coeffs] or [0]
    coeffs[0] -= c.numerator * (scale // c.denominator)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs, scale


def _horner_mod(cs, v: int, m: int) -> int:
    """Value mod m at v of the polynomial with coefficients cs, low degree first."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * v + c) % m
    return acc


def _screen_partial_y(f: MultiPoly, x0: Fraction, y0: Fraction) -> None:
    # df/dy's rows, taken from f's: no rows means df/dy = 0.
    rows = [(ex, ey - 1, ey * num, den) for ex, ey, num, den in compile_xy_terms(f) if ey]
    if not rows or make_evaluator(rows)(x0, y0) == 0:
        raise DerivativeVanishesError(
            f"df/dy vanishes at ({x0}, {y0}); pick a different base point"
        )


def _scaled_value(coeffs: list[int], y: Fraction | int) -> int:
    """b^deg * G(a/b) for y = a/b in lowest terms, deg = len(coeffs) - 1.

    A Horner sum homogenized in (a, b), in int arithmetic.  With b > 0 its
    sign is that of G(y), and G(y) is this value over b^deg.
    """
    a, b = y.numerator, y.denominator
    acc, bp = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * bp
        bp *= b
    return acc


def _sign_change(coeffs: list[int], y0: Fraction) -> tuple[Fraction, Fraction, bool] | None:
    """First grid bracket (lo, hi, g(lo) < 0) of a sign change of g, or None.

    ``coeffs`` are g's coefficients times a positive constant, so the signs
    are g's.  The grid is y0 +- 2^j in _BRACKET_SAMPLES steps for j in
    turn; an exact zero at a grid point y is returned as the bracket
    (y, y, False).
    """
    for j in range(_MAX_BRACKET_EXPANSIONS):
        step = Fraction(2 ** (j + 1), _BRACKET_SAMPLES)
        prev = None
        for k in range(_BRACKET_SAMPLES + 1):
            y = y0 - 2**j + k * step
            v = _scaled_value(coeffs, y)
            if v == 0:
                return y, y, False
            if prev is not None and (prev < 0) != (v < 0):
                return y - step, y, prev < 0
            prev = v
    return None


def real_collision(
    f: MultiPoly,
    x0,
    y0,
    tol: float,
    *,
    delta: Fraction = REAL_DELTA_DEFAULT,
) -> RealPoint:
    """Distinct point (x1, y1) with |f(x1, y1) - f(x0, y0)| <= tol, certified.

    x1 = x0 + delta exactly.  With g(y) = f(x1, y) - f(x0, y0), the grid of
    _sign_change brackets a sign change of g, and the bracket is halved in
    rational arithmetic until the first midpoint with |g(mid)| <= tol; at
    most _MAX_HALVINGS halvings, then NoCollisionFoundError.  g comes once
    as integer coefficients D*g (``_level_equation``), so each sign and each
    tol test at y = a/b is decided on the integer b^deg * D*g(a/b); only the
    returned point's residual is built as a Fraction.  The exact
    signs of g at y_lo and y_hi prove, by the intermediate value theorem, a
    real y* in [y_lo, y_hi] with f(x1, y*) = f(x0, y0).  Requires df/dy
    nonzero at the base point (checked exactly) and a finite tol >= 0.
    """
    if not 0 <= tol < float("inf"):  # also refuses NaN, for which both are false
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    x0, y0, tol_q = Fraction(x0), Fraction(y0), Fraction(tol)
    if delta == 0:
        raise ValueError("delta must be nonzero: the returned point must differ in x")
    if f.total_degree() <= 0:
        raise ValueError("f must be nonconstant")
    x1 = x0 + Fraction(delta)
    coeffs, den = _level_equation(f, x0, y0, x1)  # refuses z and w before the screen
    _screen_partial_y(f, x0, y0)
    deg = max(len(coeffs) - 1, 0)  # g = 0 is a root everywhere: b^0 scales it

    bracket = _sign_change(coeffs, y0)
    if bracket is None:
        raise NoCollisionFoundError(
            f"no sign change for f({x1}, y) = {f.eval_xy(x0, y0)} within y0 +- 2^32; "
            "move the base point"
        )
    lo, hi, lo_negative = bracket
    for _ in range(_MAX_HALVINGS):
        mid = (lo + hi) / 2
        v = _scaled_value(coeffs, mid)
        # |g(mid)| = |v| / (D * b^deg) <= tol, cross-multiplied.
        scale = den * mid.denominator**deg
        if abs(v) * tol_q.denominator <= tol_q.numerator * scale:
            residual = float(Fraction(abs(v), scale))
            return RealPoint(x=float(x1), y=float(mid), residual=residual, y_lo=lo, y_hi=hi)
        if (v < 0) == lo_negative:
            lo = mid
        else:
            hi = mid
    raise NoCollisionFoundError(
        f"no midpoint with |g| <= tol {tol} in _MAX_HALVINGS = {_MAX_HALVINGS} halvings"
    )


def _valuation(num: int, p: int) -> int | None:
    """p-adic valuation of the int num; None for 0."""
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
    check_prime(p)
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

    # h_coeffs / h_den is g = f(x1, y) - c.  h_den is prime to p, since f's
    # coefficients are p-integral and x0, y0, x1 are ints, so h_coeffs has
    # g's valuations, and times h_den^-1 mod p^k g's residues.
    x1 = x0 + delta
    h_coeffs, h_den = _level_equation(f, x0, y0, x1)
    if len(h_coeffs) < 2:
        raise HenselInapplicableError("f(x1, y) - c does not depend on y (df/dy = 0)")
    inv = pow(h_den, -1, pk)
    h_mod = [cf * inv % pk for cf in h_coeffs]
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

    y = seed
    trace = []
    v = _valuation(_scaled_value(h_coeffs, y), p)
    trace.append(precision if v is None else min(v, precision))
    for _ in range(64):
        if v is None or v >= precision:
            break
        d = _horner_mod(dh_mod, y, pk)
        y = (y - _horner_mod(h_mod, y, pk) * pow(d, -1, pk)) % pk
        v = _valuation(_scaled_value(h_coeffs, y), p)
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
    v_alt = _valuation(_scaled_value(h_coeffs, alt), p)
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
