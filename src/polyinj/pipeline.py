"""Candidate-injection construction: prime choice, twisting, G, f, and traces.

The construction starts from a homogeneous binary form F, scans the surface
F(x,y)=F(z,w) at the configured height bound, and twists F by random
invertible integer matrices until no exceptional point survives in the box
(or a twist budget runs out).  It then composes G from the reduced form,
scans G itself for residual collisions, and draws coefficients (a, b) whose
p-th-power map avoids every residual coordinate.  Every random draw and
every intermediate scan is recorded in a replayable trace keyed by one RNG
seed.

Height-bounded scans are this laboratory's verification frontier: they are
evidence about what survives in the box, never a proof about all of Q.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .collide import CollisionReport, SearchSpace, find_collisions
from .poly import BinaryForm, MultiPoly
from .rationals import is_prime, pth_root, rat_to_str
from .surface import PointSet, ProjPoint, scan_surface

MAX_AB_DRAWS = 10000


def choose_prime(w: int) -> int:
    """Smallest prime p with p > 3 and p not dividing w.

    w is the number of roots of unity in the base field; for Q it is 2.
    """
    if w < 2 or w % 2 != 0:
        raise ValueError(f"root-of-unity count must be even and >= 2, got {w}")
    p = 5
    while True:
        if is_prime(p) and w % p != 0:
            return p
        p += 1


Matrix = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def _det(m) -> Fraction:
    (a, b), (c, d) = m
    return Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c)


def twist(form: BinaryForm, matrix, p: int) -> BinaryForm:
    """F(x,y) -> F(a x^p + b y^p, c x^p + d y^p) for an invertible 2x2 matrix."""
    if _det(matrix) == 0:
        raise ValueError("twist matrix is singular")
    (a, b), (c, d) = matrix
    xp = MultiPoly.variable("x") ** p
    yp = MultiPoly.variable("y") ** p
    u = xp.scale(a) + yp.scale(b)
    v = xp.scale(c) + yp.scale(d)
    composed = form.to_multipoly().substitute({"x": u, "y": v})
    out = BinaryForm.from_multipoly(composed)
    assert out.degree == form.degree * p
    return out


def make_G(form: BinaryForm, p: int) -> MultiPoly:
    """G(x, y) = F(x^p + 1, y^p + 1), fully expanded."""
    one = MultiPoly.const(1)
    u = MultiPoly.variable("x") ** p + one
    v = MultiPoly.variable("y") ** p + one
    return form.to_multipoly().substitute({"x": u, "y": v})


def make_f(g: MultiPoly, a: Fraction, b: Fraction, p: int) -> MultiPoly:
    """f(x, y) = G(a x^p + b, a y^p + b); a must be nonzero.

    With p odd and a != 0 the inner map t -> a t^p + b is injective on Q,
    which is the whole point of the outer composition.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise ValueError("coefficient a must be nonzero: a*t^p + b must be injective")
    bb = MultiPoly.const(b)
    mapping = {
        v: (MultiPoly.variable(v) ** p).scale(a) + bb for v in ("x", "y", "z", "w")
    }
    return g.substitute({v: mapping[v] for v in g.vars})


@dataclass(frozen=True)
class PthPowerCheck:
    """Whether the matrix ratio at one exceptional point is a p-th power in Q."""

    point: tuple[int, int, int, int]
    ratio_xy: Fraction | None  # None encodes an infinite value (zero denominator)
    ratio_xy_is_pth_power: bool
    ratio_zw: Fraction | None
    ratio_zw_is_pth_power: bool

    def to_json_dict(self) -> dict:
        return {
            "point": [str(v) for v in self.point],
            "ratio_xy": None if self.ratio_xy is None else rat_to_str(self.ratio_xy),
            "ratio_xy_is_pth_power": self.ratio_xy_is_pth_power,
            "ratio_zw": None if self.ratio_zw is None else rat_to_str(self.ratio_zw),
            "ratio_zw_is_pth_power": self.ratio_zw_is_pth_power,
        }


@dataclass(frozen=True)
class TwistStep:
    matrix: tuple[tuple[int, int], tuple[int, int]]
    pth_power_checks: tuple[PthPowerCheck, ...]
    scan: PointSet

    def to_json_dict(self) -> dict:
        return {
            "matrix": [[str(v) for v in row] for row in self.matrix],
            "pth_power_checks": [c.to_json_dict() for c in self.pth_power_checks],
            "scan": self.scan.to_json_dict(),
        }


@dataclass(frozen=True)
class DrawEvent:
    """One RNG draw, kept verbatim so a trace can be audited draw by draw."""

    kind: str  # "matrix" | "ab"
    payload: tuple
    status: str  # "accepted" | rejection reason

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "payload": [str(v) for v in self.payload], "status": self.status}


@dataclass(frozen=True)
class ConstructionTrace:
    """Full replayable record of one construction run."""

    base_form: BinaryForm
    p: int
    height_bound: int
    max_twists: int
    rng_seed: int
    initial_scan: PointSet
    twists: tuple[TwistStep, ...]
    unreduced: bool
    g_poly: MultiPoly
    g_collisions: CollisionReport
    a: Fraction
    b: Fraction
    f_poly: MultiPoly
    draws: tuple[DrawEvent, ...]

    def final_form(self) -> BinaryForm:
        return self.twists[-1].scan.form if self.twists else self.base_form

    def to_json_dict(self) -> dict:
        return {
            "base_form": self.base_form.to_json_dict(),
            "p": self.p,
            "height_bound": self.height_bound,
            "max_twists": self.max_twists,
            "rng_seed": self.rng_seed,
            "initial_scan": self.initial_scan.to_json_dict(),
            "twists": [t.to_json_dict() for t in self.twists],
            "unreduced": self.unreduced,
            "g_poly": self.g_poly.to_json_dict(),
            "g_collisions": self.g_collisions.to_json_dict(),
            "a": rat_to_str(self.a),
            "b": rat_to_str(self.b),
            "f_poly": self.f_poly.to_json_dict(),
            "draws": [d.to_json_dict() for d in self.draws],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _ratio_check(point: ProjPoint, matrix, p: int) -> PthPowerCheck:
    (a, b), (c, d) = matrix
    x, y, z, w = point.coords

    def ratio(u, v):
        num = a * u + b * v
        den = c * u + d * v
        if den == 0:
            return None, False
        r = Fraction(num, den)
        return r, pth_root(r, p) is not None

    rxy, pxy = ratio(x, y)
    rzw, pzw = ratio(z, w)
    return PthPowerCheck(point.coords, rxy, pxy, rzw, pzw)


def build_injection(
    form: BinaryForm,
    *,
    height_bound: int,
    rng_seed: int,
    max_twists: int = 8,
    workers: int | None = None,
) -> ConstructionTrace:
    """Run the whole construction and return its replayable trace.

    Twisting repeats until the bounded-height exceptional set empties or
    max_twists is hit (the trace is then flagged unreduced, not an error).
    The (a, b) draw rejects any pair whose p-th-power map could reach a
    coordinate of a residual collision of G found in the box.
    """
    if height_bound < 1:
        raise ValueError("height bound must be >= 1")
    rng = random.Random(rng_seed)
    p = choose_prime(2)
    draws: list[DrawEvent] = []

    current = form
    initial_scan = scan_surface(form, height_bound, workers=workers)
    scan = initial_scan
    twists: list[TwistStep] = []
    while scan.exceptional and len(twists) < max_twists:
        while True:
            entries = tuple(rng.randint(-height_bound, height_bound) for _ in range(4))
            matrix = ((entries[0], entries[1]), (entries[2], entries[3]))
            if _det(matrix) == 0:
                draws.append(DrawEvent("matrix", entries, "rejected: singular"))
                continue
            draws.append(DrawEvent("matrix", entries, "accepted"))
            break
        checks = tuple(_ratio_check(pt, matrix, p) for pt in scan.exceptional)
        current = twist(current, matrix, p)
        scan = scan_surface(current, height_bound, workers=workers)
        twists.append(TwistStep(matrix, checks, scan))
    unreduced = bool(scan.exceptional)

    g = make_G(current, p)
    g_report = find_collisions(
        g, SearchSpace("integers", height_bound), workers=workers
    )
    residual_coords = sorted(
        {Fraction(c) for (xy, zw, _v) in g_report.collisions for c in (*xy, *zw)}
    )

    a = b = None
    box = height_bound
    for attempt in range(MAX_AB_DRAWS):
        # Residual coordinates can blanket a small box; widen it under
        # rejection pressure so a usable pair always exists.
        if attempt and attempt % 200 == 0:
            box *= 2
        cand_a = rng.randint(-box, box)
        cand_b = rng.randint(-box, box)
        if cand_a == 0:
            draws.append(DrawEvent("ab", (cand_a, cand_b), "rejected: a = 0"))
            continue
        hit = next(
            (c for c in residual_coords if pth_root((c - cand_b) / cand_a, p) is not None),
            None,
        )
        if hit is not None:
            draws.append(
                DrawEvent(
                    "ab",
                    (cand_a, cand_b),
                    f"rejected: residual coordinate {rat_to_str(hit)} in range of a*t^p+b",
                )
            )
            continue
        draws.append(DrawEvent("ab", (cand_a, cand_b), "accepted"))
        a, b = Fraction(cand_a), Fraction(cand_b)
        break
    if a is None:
        raise RuntimeError(f"no usable (a, b) pair after {MAX_AB_DRAWS} draws")

    f = make_f(g, a, b, p)
    return ConstructionTrace(
        base_form=form,
        p=p,
        height_bound=height_bound,
        max_twists=max_twists,
        rng_seed=rng_seed,
        initial_scan=initial_scan,
        twists=tuple(twists),
        unreduced=unreduced,
        g_poly=g,
        g_collisions=g_report,
        a=a,
        b=b,
        f_poly=f,
        draws=tuple(draws),
    )
