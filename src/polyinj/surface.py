"""Bounded-height rational points on the surface F(x,y) = F(z,w) in P^3.

Inside the integer box [-H, H]^2 the points of the surface are exactly the
equal-value input pairs of F, so the scan is an adapter over the collision
engine: ``find_collisions`` over the integer box supplies the classes of
inputs with equal form values, each input paired with itself supplies the
diagonal, and the scan canonicalizes every unordered pair of class-mates
(each swap comes from the negated class) into a plain coordinate tuple,
dedupes the tuples, builds one ``ProjPoint`` per distinct tuple, and
classifies each point as trivial-line or exceptional.

Enumerating all integer pairs rather than only primitive ones is deliberate:
primitivity of (x, y) alone does not make the 4-tuple primitive, and
post-canonicalization dedup is provably complete inside the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
        t = _canonical_coords(x, y, z, w)
        return None if t is None else ProjPoint(t)

    def swap(self) -> "ProjPoint":
        x, y, z, w = self.coords
        return ProjPoint.canonical(z, w, x, y)


def _canonical_coords(x: int, y: int, z: int, w: int) -> tuple[int, int, int, int] | None:
    """Coordinates of the canonical representative of (x:y:z:w); None for the zero tuple."""
    g = gcd(x, y, z, w)
    if g == 0:
        return None
    # ``x or y or z or w`` is the first nonzero coordinate.
    if (x or y or z or w) < 0:
        g = -g
    return (x // g, y // g, z // g, w // g)


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
    workers: int = 1,
    primes: tuple[int, ...] = FINGERPRINT_PRIMES,
) -> PointSet:
    """All canonical points of F(x,y)=F(z,w) with coordinates in [-H, H].

    Complete within the box: a canonical point's own coordinate pairs lie in
    the box, so the collision join over all pairs recovers it.  ``workers``
    and ``primes`` are passed to ``find_collisions`` unchanged; the join
    runs in one process, so ``workers`` must be 1.  The scan writes no
    checkpoint, so it leaves the join's shard count at its default.
    """
    report = find_collisions(
        form.to_multipoly(),
        SearchSpace("integers", height),
        workers=workers,
        primes=primes,
    )
    box = range(-height, height + 1)
    # Diagonal points (x:y:x:y) come from every input paired with itself.
    coords = {_canonical_coords(x, y, x, y) for x in box for y in box}
    coords.discard(None)
    # Every ordered pair of class-mates is a point; none is the zero tuple,
    # because class-mates are distinct inputs.  One order per pair is enough:
    # F is homogeneous, so F(-x, -y) = (-1)^d F(x, y) and negating a class
    # gives a class, and on the symmetric box negation reverses index order.
    # So the later-first pair ((z, w), (x, y)) is the negation of an
    # earlier-first pair ((-z, -w), (-x, -y)), the same projective point.
    for members, _ in report.classes:
        inputs = [report.input_pair(idx) for idx in members]
        coords.update(
            _canonical_coords(x, y, z, w) for (x, y), (z, w) in combinations(inputs, 2)
        )

    ordered = [ProjPoint(t) for t in sorted(coords)]
    trivial, exceptional = classify(ordered, form.degree)
    return PointSet(
        form=form,
        height_bound=height,
        trivial=tuple(trivial),
        exceptional=tuple(exceptional),
    )
