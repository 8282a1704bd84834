"""Reference computations for the benchmark's checks.

Everything here uses stdlib ints and ``Fraction`` only and never imports
``polyinj``: the checks must not share an evaluator, a fingerprint or a
canonicalization routine with the code they check.  Inputs arrive as plain
term lists ``[(ex, ey, coef), ...]`` read off the program's polynomials, or
as literals written in the workload definitions.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd, lcm


def rational_axis(height: int) -> list[tuple[int, int]]:
    """All p/q in lowest terms with max(|p|, q) <= height, as (p, q) pairs.

    Ordered by (height, numerator, denominator), the input order the
    collision report promises.
    """
    out = []
    for h in range(1, height + 1):
        for num in range(-h, h + 1):
            for den in range(1, h + 1):
                if max(abs(num), den) == h and gcd(num, den) == 1:
                    out.append((num, den))
    return out


def integer_axis(height: int) -> list[tuple[int, int]]:
    return [(v, 1) for v in range(-height, height + 1)]


def _value_keys(terms, axis) -> list[tuple[int, int]]:
    """Exact value of sum(c * x^ex * y^ey) at every (x, y) in axis x axis.

    Each value is a reduced (numerator, denominator) pair, computed over the
    common denominator L * b^M * d^N for x = a/b and y = c/d.
    """
    big_l = lcm(*(Fraction(c).denominator for _, _, c in terms)) if terms else 1
    scaled = [(ex, ey, Fraction(c).numerator * (big_l // Fraction(c).denominator))
              for ex, ey, c in terms]
    m = max((ex for ex, _, _ in terms), default=0)
    n = max((ey for _, ey, _ in terms), default=0)
    xs = [[a ** e * b ** (m - e) for e in range(m + 1)] for a, b in axis]
    ys = [[c ** e * d ** (n - e) for e in range(n + 1)] for c, d in axis]
    xden = [b ** m for _, b in axis]
    yden = [d ** n for _, d in axis]
    keys = []
    for i, px in enumerate(xs):
        for j, py in enumerate(ys):
            num = 0
            for ex, ey, k in scaled:
                num += k * px[ex] * py[ey]
            den = big_l * xden[i] * yden[j]
            g = gcd(num, den)
            keys.append((num // g, den // g))
    return keys


def collisions(terms, axis) -> list[tuple[tuple, tuple, tuple]]:
    """Every unordered pair of distinct inputs with equal values.

    Pairs come in the report's canonical order (index pairs i < j, sorted)
    as ((x, y), (z, w), value) with each entry a (num, den) pair.
    """
    keys = _value_keys(terms, axis)
    groups: dict = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    pairs = []
    for members in groups.values():
        for s in range(len(members)):
            for t in range(s + 1, len(members)):
                pairs.append((members[s], members[t]))
    pairs.sort()
    n = len(axis)
    return [
        ((axis[i // n], axis[i % n]), (axis[j // n], axis[j % n]), keys[i])
        for i, j in pairs
    ]


def _pair(v) -> tuple[int, int]:
    v = Fraction(v)
    return (v.numerator, v.denominator)


def collision_digest(items) -> tuple[int, str]:
    """(count, sha256) of a collision list in its given order.

    Accepts ((x, y), (z, w), value) triples whose entries are ints,
    Fractions, "p/q" strings or (p, q) pairs, so the oracle's list, a
    report's ``collisions`` and a parsed JSON report all digest alike.
    """
    h = hashlib.sha256()
    count = 0
    for (x, y), (z, w), v in items:
        fields = []
        for u in (x, y, z, w, v):
            if isinstance(u, tuple):
                fields.append(u)
            else:
                fields.append(_pair(Fraction(u)))
        h.update(("|".join(f"{p}/{q}" for p, q in fields) + "\n").encode())
        count += 1
    return count, h.hexdigest()


def canonical_point(x: int, y: int, z: int, w: int) -> tuple | None:
    g = gcd(gcd(x, y), gcd(z, w))
    if g == 0:
        return None
    t = (x // g, y // g, z // g, w // g)
    first = next(v for v in t if v != 0)
    return t if first > 0 else tuple(-v for v in t)


def surface_points(coeffs, height: int) -> set[tuple]:
    """Canonical points of F(x,y) = F(z,w) with coordinates in [-H, H].

    ``coeffs[i]`` multiplies x^(d-i) y^i.  Inputs are grouped by exact value;
    every ordered pair inside a group, the self-pair included, is a point.
    """
    d = len(coeffs) - 1
    terms = [(d - i, i, c) for i, c in enumerate(coeffs) if c != 0]
    axis = integer_axis(height)
    keys = _value_keys(terms, axis)
    side = len(axis)
    groups: dict = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append((idx // side - height, idx % side - height))
    points = set()
    for members in groups.values():
        for x, y in members:
            for z, w in members:
                pt = canonical_point(x, y, z, w)
                if pt is not None:
                    points.add(pt)
    return points


def is_trivial(point: tuple, degree: int) -> bool:
    """On a line (x:y) = (zeta z: zeta w) for a rational d-th root of unity zeta."""
    x, y, z, w = point
    return (x, y) == (z, w) or (degree % 2 == 0 and (x, y) == (-z, -w))


def int_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None."""
    if n < 2:
        return n
    r = 1 << (n.bit_length() // k + 1)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r if r ** k == n else None


def is_rational_power(r: Fraction, p: int) -> bool:
    """Whether r is a p-th power in Q, for odd p."""
    num, den = r.numerator, r.denominator
    return int_root(abs(num), p) is not None and int_root(den, p) is not None


def eval_terms(terms, point) -> Fraction:
    """Term-by-term value of sum(c * prod(v_i^e_i)) at a rational point."""
    total = Fraction(0)
    for exps, c in terms:
        t = Fraction(c)
        for v, e in zip(point, exps):
            if e:
                t *= Fraction(v) ** e
        total += t
    return total


def fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Schoolbook product of coefficient lists (low degree first) mod p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def fp_pow(a: list[int], k: int, p: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = fp_mul(out, a, p)
    return out
