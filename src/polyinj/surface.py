"""Bounded-height rational points on the surface F(x,y) = F(z,w) in P^3.

Inside the integer box [-H, H]^2 the points of the surface are exactly the
equal-value input pairs of F, so the scan is an adapter over the collision
engine: ``find_collisions`` over the integer box supplies every pair of
distinct inputs with equal form values, each input paired with itself
supplies the diagonal, and the scan emits one projective point per ordered
pair, canonicalizes, dedupes, and classifies each point as trivial-line or
exceptional.

Enumerating all integer pairs rather than only primitive ones is deliberate:
primitivity of (x, y) alone does not make the 4-tuple primitive, and
post-canonicalization dedup is provably complete inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .collide import SearchSpace, find_collisions
from .poly import BinaryForm
from .rationals import FINGERPRINT_PRIMES


@dataclass(frozen=True)
class ProjPoint:
    """Primitive integer point of P^3 with sign-canonical coordinates."""

    coords: tuple[int, int, int, int]

    def __post_init__(self):
        c = self.coords
        if len(c) != 4 or all(v == 0 for v in c):
            raise ValueError("projective point needs 4 coordinates, not all zero")
        g = 0
        for v in c:
            g = gcd(g, abs(v))
        if g != 1:
            raise ValueError(f"coordinates {c} are not primitive")
        for v in c:
            if v != 0:
                if v < 0:
                    raise ValueError(f"first nonzero coordinate must be positive: {c}")
                break

    @staticmethod
    def canonical(x: int, y: int, z: int, w: int) -> "ProjPoint | None":
        """Canonical representative of (x:y:z:w); None for the zero tuple."""
        g = 0
        for v in (x, y, z, w):
            g = gcd(g, abs(v))
        if g == 0:
            return None
        t = (x // g, y // g, z // g, w // g)
        for v in t:
            if v != 0:
                if v < 0:
                    t = (-t[0], -t[1], -t[2], -t[3])
                break
        return ProjPoint(t)

    def height(self) -> int:
        return max(abs(v) for v in self.coords)

    def swap(self) -> "ProjPoint":
        x, y, z, w = self.coords
        return ProjPoint.canonical(z, w, x, y)


def is_trivial_point(point: ProjPoint, d: int) -> int | None:
    """Root of unity zeta in {1, -1} putting the point on a trivial line, else None.

    Over Q the d-th roots of unity are 1, plus -1 when d is even.
    """
    x, y, z, w = point.coords
    if x == z and y == w:
        return 1
    if d % 2 == 0 and x == -z and y == -w:
        return -1
    return None


def classify(points, d: int) -> tuple[list[ProjPoint], list[ProjPoint]]:
    """Stable partition into (trivial, exceptional) by is_trivial_point."""
    trivial, exceptional = [], []
    for p in points:
        (trivial if is_trivial_point(p, d) is not None else exceptional).append(p)
    return trivial, exceptional


@dataclass(frozen=True)
class PointSet:
    """Scan result: every canonical surface point in the box, classified."""

    form: BinaryForm
    height_bound: int
    trivial: tuple[ProjPoint, ...]
    exceptional: tuple[ProjPoint, ...]

    def all_points(self) -> list[ProjPoint]:
        return sorted(self.trivial + self.exceptional, key=lambda p: p.coords)

    def to_json_dict(self) -> dict:
        return {
            "form": self.form.to_json_dict(),
            "height": self.height_bound,
            "trivial_count": len(self.trivial),
            "exceptional": [[str(v) for v in p.coords] for p in self.exceptional],
        }


def scan_surface(
    form: BinaryForm,
    height: int,
    *,
    shards: int | None = None,
    workers: int | None = None,
    primes: tuple[int, ...] = FINGERPRINT_PRIMES,
) -> PointSet:
    """All canonical points of F(x,y)=F(z,w) with coordinates in [-H, H].

    Complete within the box: a canonical point's own coordinate pairs lie in
    the box, so the collision join over all pairs recovers it.  ``shards``,
    ``workers`` and ``primes`` are passed to ``find_collisions`` unchanged.
    """
    report = find_collisions(
        form.to_multipoly(),
        SearchSpace("integers", height),
        shards=shards,
        workers=workers,
        primes=primes,
    )
    points: set[ProjPoint] = set()
    # Diagonal points (x:y:x:y) come from every input paired with itself.
    for x in range(-height, height + 1):
        for y in range(-height, height + 1):
            p = ProjPoint.canonical(x, y, x, y)
            if p is not None:
                points.add(p)
    # Each unordered collision gives the point and its swap image; neither is
    # the zero tuple, because the two inputs are distinct.
    for (x, y), (z, w), _ in report.collisions:
        points.add(ProjPoint.canonical(x, y, z, w))
        points.add(ProjPoint.canonical(z, w, x, y))

    ordered = sorted(points, key=lambda p: p.coords)
    trivial, exceptional = classify(ordered, form.degree)
    return PointSet(
        form=form,
        height_bound=height,
        trivial=tuple(trivial),
        exceptional=tuple(exceptional),
    )
