"""Shared test oracles: independent of the code paths they check.

The surface oracle is a quadruple loop with direct exact-value comparison;
the collision oracle is literal all-pairs; separability gets a Sylvester
resultant.  Values come from ``value_at``, a term-by-term Fraction sum, not
from the package's evaluator.  None of them touch fingerprints, buckets,
or gcds from the package internals.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import settings

from polyinj.collide import SearchSpace, input_axis
from polyinj.poly import BinaryForm, MultiPoly, udeg
from polyinj.surface import ProjPoint

# Property tests must behave identically run to run: fixed derivation seed,
# no wall-clock deadline (exact big-int arithmetic has jittery step times).
settings.register_profile("polyinj", deadline=None, derandomize=True)
settings.load_profile("polyinj")


def value_at(poly: MultiPoly | BinaryForm, **point) -> Fraction:
    """poly at point (one exact value per variable of poly), summed term by term."""
    if isinstance(poly, BinaryForm):
        poly = poly.to_multipoly()
    total = Fraction(0)
    for exp, c in poly.terms.items():
        for v, k in zip(poly.vars, exp):
            c *= point[v] ** k
        total += c
    return total


def brute_surface_points(form: BinaryForm, height: int) -> set[ProjPoint]:
    """Quadruple-loop brute force over the box, canonicalized and deduped."""
    rng_ = range(-height, height + 1)
    poly = form.to_multipoly()
    vals = {(x, y): value_at(poly, x=x, y=y) for x in rng_ for y in rng_}
    pts = set()
    for x in rng_:
        for y in rng_:
            vxy = vals[(x, y)]
            for z in rng_:
                for w in rng_:
                    if vxy == vals[(z, w)]:
                        p = ProjPoint.canonical(x, y, z, w)
                        if p is not None:
                            pts.add(p)
    return pts


def allpairs_collision_pairs(poly: MultiPoly, space: SearchSpace) -> list[tuple[int, int]]:
    """Literal all-pairs collision oracle returning index pairs (i < j)."""
    axis = input_axis(space)
    n = len(axis)
    vals = [value_at(poly, x=axis[i // n], y=axis[i % n]) for i in range(n * n)]
    out = []
    for i in range(n * n):
        vi = vals[i]
        for j in range(i + 1, n * n):
            if vi == vals[j]:
                out.append((i, j))
    return out


def sylvester_resultant(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> Fraction:
    """Resultant of two univariate polynomials via the Sylvester determinant."""
    m, n = udeg(a), udeg(b)
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    size = m + n
    grid = [[Fraction(0)] * size for _ in range(size)]
    arev = list(reversed(a))
    brev = list(reversed(b))
    for i in range(n):
        grid[i][i : i + m + 1] = arev
    for i in range(m):
        grid[n + i][i : i + n + 1] = brev
    # Fraction-exact Gaussian elimination.
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if grid[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            grid[col], grid[pivot] = grid[pivot], grid[col]
            det = -det
        det *= grid[col][col]
        inv = 1 / grid[col][col]
        for r in range(col + 1, size):
            factor = grid[r][col] * inv
            if factor != 0:
                for c in range(col, size):
                    grid[r][c] -= factor * grid[col][c]
    return det


def oracle_is_separable(form: BinaryForm) -> bool:
    """Factor-multiplicity oracle: resultant of (g, g') nonzero + y-multiplicity."""
    if form.y_multiplicity() > 1:
        return False
    g = form.dehomogenized()
    if udeg(g) <= 0:
        return True
    from polyinj.poly import uderiv

    return sylvester_resultant(g, uderiv(g)) != 0


def random_form(rng: random.Random, degree: int, coeff_bound: int = 9) -> BinaryForm:
    """Random nonzero binary form with small integer coefficients."""
    while True:
        coeffs = tuple(Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(degree + 1))
        if any(c != 0 for c in coeffs):
            return BinaryForm(degree, coeffs)


def random_rational(rng: random.Random, height: int) -> Fraction:
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Fraction(num, den)


def random_multipoly(rng: random.Random, max_terms: int = 6, max_exp: int = 8) -> MultiPoly:
    """Random canonical MultiPoly over a random variable subset."""
    nvars = rng.randint(0, 4)
    vars_ = tuple(v for v in ("x", "y", "z", "w")[:nvars])
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in vars_)
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        if num:
            terms[exp] = terms.get(exp, Fraction(0)) + Fraction(num, den)
    return MultiPoly(vars_, terms)
