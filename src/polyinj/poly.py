"""Sparse exact multivariate polynomials and homogeneous binary forms.

MultiPoly is a sparse polynomial in a subset of the variables x, y, z, w
with Fraction coefficients, normalized so that the variable tuple lists
exactly the variables that actually occur.  BinaryForm is a dense
homogeneous form F(x, y) stored by coefficient vector.  Everything is
immutable and exact; serialized term order is graded-lexicographic.

The exponent layout lives here and nowhere else.  One term-dict kernel
(``add_terms``, ``mul_terms``, ``pow_terms``, ``nonzero_terms``) computes
over exponent vectors in the fixed (x, y, z, w) slots.  MultiPoly's ``+``,
``-`` and ``*`` lift their operands to the slots, and the parser's
``lower`` expands its AST there; both build one MultiPoly at the end, and
its constructor drops the slots that no term uses.  Other modules read a
polynomial in x and y through ``MultiPoly.xy_terms``.

One exact evaluator: ``make_evaluator`` sums a polynomial in x and y, at
one point, in ints over one common denominator (the join's confirmation
and ``MultiPoly.eval_xy`` use it), and ``partial_eval_x`` applies the same
row scaling and homogenization to x alone, giving f(x1, y) as integer
coefficients over one denominator (the local-field demos use it).

Expansion cost: ``MultiPoly.substitute``, which builds the twisted forms,
G and f of the construction, works in plain ints over one common
denominator and adds every product into one dict.  Its cost is linear in
the size of the output times the number of distinct powers of each image,
and the result is normalized once: no partial sum is copied or
renormalized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .rationals import rat_from_str, rat_to_str

VAR_ORDER = ("x", "y", "z", "w")

_VAR_INDEX = {v: i for i, v in enumerate(VAR_ORDER)}


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return rat_from_str(c)
    raise TypeError(f"coefficient must be exact (int, Fraction, str), got {type(c)!r}")


def _gradlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


# -- the term-dict kernel -----------------------------------------------------
# A term dict maps exponent vectors over the fixed (x, y, z, w) slots to
# coefficients, kept as ints while they are integers because int products
# are much cheaper than Fraction ones.

CONST_EXP = (0,) * len(VAR_ORDER)
VAR_EXP = {v: tuple(int(u == v) for u in VAR_ORDER) for v in VAR_ORDER}


def add_terms(acc: dict, terms: dict, sign: int = 1) -> dict:
    """acc += sign * terms in place (sign is 1 or -1); returns acc.

    Cancelled terms stay in acc; ``nonzero_terms`` drops them.
    """
    for e, c in terms.items():
        if sign < 0:
            c = -c
        acc[e] = acc[e] + c if e in acc else c
    return acc


def mul_terms(a: dict, b: dict) -> dict:
    """The product of two term dicts, with cancelled terms dropped."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        # A monomial factor shifts exponents one-to-one: nothing merges.
        ((e2, c2),) = b.items()
        if c2 == 1:
            return {tuple(map(operator.add, e1, e2)): c1 for e1, c1 in a.items()}
        return {tuple(map(operator.add, e1, e2)): c1 * c2 for e1, c1 in a.items()}
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(operator.add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return nonzero_terms(out)


def nonzero_terms(terms: dict) -> dict:
    """Drop cancelled terms, so a zero sum stays cheap to multiply or raise."""
    return {e: c for e, c in terms.items() if c}


def pow_terms(base: dict, n: int) -> dict:
    """base ** n by squaring; a one-term base stays one term (0^0 is 1)."""
    if n == 0:
        return {CONST_EXP: 1}
    if len(base) == 1:
        ((e, c),) = base.items()
        return {tuple(k * n for k in e): c**n}
    acc = {CONST_EXP: 1}
    while n:
        if n & 1:
            acc = mul_terms(acc, base)
        n >>= 1
        if n:
            base = mul_terms(base, base)
    return acc


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial: exponent vector -> nonzero Fraction coefficient.

    The normal form enforced at construction: coefficients are nonzero
    Fractions, exponent vectors have length len(vars), and vars lists in
    x<y<z<w order exactly the variables appearing with positive exponent.
    The zero polynomial is the empty term map over no variables.
    """

    vars: tuple[str, ...]
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        vs = tuple(self.vars)
        for v in vs:
            if v not in _VAR_INDEX:
                raise ValueError(f"unknown variable {v!r}; allowed: {VAR_ORDER}")
        if list(vs) != sorted(set(vs), key=_VAR_INDEX.get):
            raise ValueError(f"variables must be distinct and in x,y,z,w order: {vs}")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in self.terms.items():
            exp = tuple(exp)
            if len(exp) != len(vs):
                raise ValueError(f"exponent {exp} has wrong arity for vars {vs}")
            for e in exp:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"exponents must be nonnegative integers: {exp}")
            if not isinstance(coef, Fraction):
                coef = _as_fraction(coef)
            if coef:
                cleaned[exp] = cleaned[exp] + coef if exp in cleaned else coef
        cleaned = {e: c for e, c in cleaned.items() if c}
        # Drop variables that no surviving term uses.
        used = [i for i, top in enumerate(map(max, zip(*cleaned))) if top > 0]
        if len(used) != len(vs):
            vs = tuple(vs[i] for i in used)
            cleaned = {tuple(e[i] for i in used): c for e, c in cleaned.items()}
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", cleaned)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    @staticmethod
    def const(c) -> "MultiPoly":
        return MultiPoly((), {(): _as_fraction(c)})

    # -- ring structure ------------------------------------------------

    def _slot_terms(self) -> dict:
        """The term dict over the (x, y, z, w) slots; the caller owns it."""
        slots = [_VAR_INDEX[v] for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            exp = [0] * len(VAR_ORDER)
            for i, k in zip(slots, e):
                exp[i] = k
            out[tuple(exp)] = c
        return out

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(VAR_ORDER, add_terms(self._slot_terms(), other._slot_terms()))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(VAR_ORDER, add_terms(self._slot_terms(), other._slot_terms(), -1))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(VAR_ORDER, mul_terms(self._slot_terms(), other._slot_terms()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- queries --------------------------------------------------------

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneity(self) -> int | None:
        """The common total degree of all terms, or None if mixed.

        Raises ValueError on the zero polynomial, whose degree is undefined.
        """
        if not self.terms:
            raise ValueError("homogeneity of the zero polynomial is undefined")
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def eval_xy(self, xv, yv) -> Fraction:
        """Exact value at (xv, yv) of a polynomial in variables within {x, y}.

        Runs ``make_evaluator``'s kernel.  The coordinates must be exact
        (int, Fraction or a "num/den" str); a z or w raises ValueError.
        """
        ev = make_evaluator(compile_xy_terms(self))
        return Fraction(ev(_as_fraction(xv), _as_fraction(yv)))

    def xy_terms(self) -> list[tuple[int, int, Fraction]]:
        """(ex, ey, coef) rows in serialized order; ValueError if z or w occurs."""
        if not set(self.vars) <= {"x", "y"}:
            raise ValueError(f"expected a polynomial in variables within (x, y), got {self.vars}")
        terms = sorted(self._slot_terms().items(), key=lambda t: _gradlex_key(t[0]), reverse=True)
        return [(e[0], e[1], c) for e, c in terms]

    def substitute(self, mapping: dict[str, "MultiPoly"]) -> "MultiPoly":
        """Exact composition: replace each variable by the mapped polynomial.

        Every variable of this polynomial must be in the mapping.  The
        expansion runs over integers: each image is written once as integer
        numerators N_v over its denominator d_v, and the whole result is
        scaled by L = lcm(own denominators) * prod d_v^(max exponent of v),
        so every product is an int product and the result is divided by L
        once per output term.  Terms are grouped by the exponent of their
        first variable and the rest is expanded recursively, so each
        distinct power of an image multiplies one inner polynomial.  The
        cost is linear in the size of the output times the number of
        distinct powers, with no renormalization of partial sums.
        """
        # This is the construction's hot path, so it keeps its own kernel
        # over packed int exponents rather than the term-dict one: packing
        # needs the degree bounds known here, which the parser does not have.
        for v in self.vars:
            if v not in mapping:
                raise ValueError(f"substitution does not map variable {v!r}")
        if not self.terms:
            return MultiPoly.zero()
        images = [mapping[v] for v in self.vars]
        top = list(map(max, zip(*self.terms)))
        out_vars = tuple(
            sorted({u for m in images for u in m.vars}, key=_VAR_INDEX.get)
        )
        # Exponents over out_vars packed into one int, a fixed bit field per
        # variable wide enough for the largest exponent the result can have,
        # so adding packed exponents never carries between fields.
        bounds = [0] * len(out_vars)
        for m, k in zip(images, top):
            for u, deg in zip(m.vars, map(max, zip(*m.terms))):
                bounds[out_vars.index(u)] += k * deg
        shifts = []
        width = 0
        for b in bounds:
            shifts.append(width)
            width += b.bit_length()

        def pack(vs, e) -> int:
            return sum(ej << shifts[out_vars.index(u)] for u, ej in zip(vs, e))

        scale = 1  # L
        powers = []  # per variable: exponent k -> N_v^k * d_v^(top - k), packed
        for i, (m, k) in enumerate(zip(images, top)):
            d = lcm(*(c.denominator for c in m.terms.values()))
            num = {pack(m.vars, e): c.numerator * (d // c.denominator)
                   for e, c in m.terms.items()}
            powers.append(_scaled_powers(num, d, {e[i] for e in self.terms}, k))
            scale *= d**k
        den = lcm(*(c.denominator for c in self.terms.values()))
        scale *= den
        items = [(e, c.numerator * (den // c.denominator)) for e, c in self.terms.items()]

        def expand(items, i: int) -> dict[int, int]:
            """sum of c * prod_{j >= i} powers[j][e_j] over the items, packed."""
            if i == len(powers):
                return {0: sum(c for _, c in items)}
            groups: dict[int, list] = {}
            for item in items:
                groups.setdefault(item[0][i], []).append(item)
            acc: dict[int, int] = {}
            for k, group in groups.items():
                _mul_into(acc, powers[i][k], expand(group, i + 1))
            return acc

        masks = [(s, (1 << b.bit_length()) - 1) for s, b in zip(shifts, bounds)]
        terms = {
            tuple((key >> s) & mask for s, mask in masks): Fraction(n, scale)
            for key, n in expand(items, 0).items()
            if n
        }
        return MultiPoly(out_vars, terms)

    def partial(self, var: str) -> "MultiPoly":
        """Formal partial derivative with respect to var."""
        if var not in _VAR_INDEX:
            raise ValueError(f"unknown variable {var!r}")
        if var not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[ne] = out.get(ne, Fraction(0)) + c * e[i]
        return MultiPoly(self.vars, out)

    # -- presentation ----------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lex order (the serialized order)."""
        return sorted(self.terms.items(), key=lambda t: _gradlex_key(t[0]), reverse=True)

    def render(self) -> str:
        """Deterministic pretty-printer; output re-parses to an equal polynomial."""
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            factors = []
            for v, k in zip(self.vars, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}^{k}")
            mag = abs(c)
            if not factors:
                body = _coef_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_coef_str(mag)] + factors)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coef": rat_to_str(c)} for e, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "MultiPoly":
        vars_ = tuple(d["vars"])
        terms = {tuple(t["exp"]): rat_from_str(t["coef"]) for t in d["terms"]}
        return MultiPoly(vars_, terms)

    def __str__(self) -> str:
        return self.render()


def _scaled_powers(num: dict[int, int], d: int, ks, top: int) -> dict[int, dict[int, int]]:
    """N^k * d^(top - k) for each k in ks, with N a packed integer polynomial.

    The powers are built in increasing order, each from the one before it
    times N^gap, and the few distinct gap powers are cached.
    """
    out = {}
    gaps: dict[int, dict[int, int]] = {}
    prev, power = 0, {0: 1}
    for k in sorted(ks):
        if k > prev:
            step = gaps.get(k - prev)
            if step is None:
                step = gaps[k - prev] = _int_pow(num, k - prev)
            nxt: dict[int, int] = {}
            _mul_into(nxt, power, step)
            prev, power = k, nxt
        f = d ** (top - k)
        out[k] = {e: c * f for e, c in power.items()}
    return out


def _int_pow(num: dict[int, int], n: int) -> dict[int, int]:
    """num ** n by repeated squaring, over packed exponents."""
    result: dict[int, int] = {0: 1}
    while n:
        if n & 1:
            prod: dict[int, int] = {}
            _mul_into(prod, result, num)
            result = prod
        n >>= 1
        if n:
            sq: dict[int, int] = {}
            _mul_into(sq, num, num)
            num = sq
    return result


def _mul_into(acc: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """acc += a * b over packed exponents."""
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _coef_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# The exact evaluator of a polynomial in x and y, over compiled term rows.
# ---------------------------------------------------------------------------


def compile_xy_terms(poly: MultiPoly) -> list[tuple[int, int, int, int]]:
    """Flatten a polynomial in variables within {x,y} to (ex, ey, num, den) rows."""
    return [(ex, ey, c.numerator, c.denominator) for ex, ey, c in poly.xy_terms()]


def _int_rows(rows) -> tuple[int, list[tuple[int, int, int]]]:
    """(L, [(ex, ey, L * num / den)]): the rows scaled to ints by their common denominator L."""
    den = lcm(*(d for *_, d in rows))
    return den, [(ex, ey, n * (den // d)) for (ex, ey, n, d) in rows]


def make_evaluator(rows):
    """Exact evaluator (x, y) -> value from compiled term rows.

    The coefficients are scaled once to integers over their common
    denominator L.  At x = a/b, y = c/d with Dx, Dy the largest x and y
    exponents, the sum N of the terms of L*f(x, y)*b^Dx*d^Dy runs in int
    arithmetic and the value is Fraction(N, L*b^Dx*d^Dy): one
    normalization per value.  Integer inputs with integer coefficients
    give the int N itself.
    """
    if not rows:
        return lambda xv, yv: 0
    max_ex = max(r[0] for r in rows)
    max_ey = max(r[1] for r in rows)
    den, int_rows = _int_rows(rows)

    def ev(xv, yv):
        if type(xv) is int:
            a, b = xv, 1
        else:
            a, b = xv.numerator, xv.denominator
        if type(yv) is int:
            c, d = yv, 1
        else:
            c, d = yv.numerator, yv.denominator
        px = [1]
        for _ in range(max_ex):
            px.append(px[-1] * a)
        py = [1]
        for _ in range(max_ey):
            py.append(py[-1] * c)
        # Homogenize: px[e] = a^e * b^(max_ex - e), and b becomes b^max_ex;
        # likewise py and d.
        if b != 1:
            bx = 1
            for e in range(max_ex - 1, -1, -1):
                bx *= b
                px[e] *= bx
            b = bx
        if d != 1:
            dy = 1
            for e in range(max_ey - 1, -1, -1):
                dy *= d
                py[e] *= dy
            d = dy
        total = 0
        for ex, ey, k in int_rows:
            total += k * px[ex] * py[ey]
        if den == b == d == 1:
            return total
        return Fraction(total, den * b * d)

    return ev


def partial_eval_x(rows, xv) -> tuple[list[int], int]:
    """f(xv, y) from compiled term rows, as (N, D): N[k] / D is the coefficient of y^k.

    The homogenization of ``make_evaluator``'s closure, applied to x alone:
    at xv = a/b with Dx the largest x exponent, N[k] sums the terms
    L*coef * a^ex * b^(Dx - ex) of y-degree k in ints, and D = L * b^Dx > 0.
    N is trimmed of high-degree zeros, so it is [] when f(xv, y) is 0.
    """
    if not rows:
        return [], 1
    max_ex = max(r[0] for r in rows)
    den, int_rows = _int_rows(rows)
    a, b = xv.numerator, xv.denominator
    px = [1]
    for _ in range(max_ex):
        px.append(px[-1] * a)
    bx = 1
    for e in range(max_ex - 1, -1, -1):
        bx *= b
        px[e] *= bx
    coeffs = [0] * (max(r[1] for r in rows) + 1)
    for ex, ey, k in int_rows:
        coeffs[ey] += k * px[ex]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs, den * bx


# ---------------------------------------------------------------------------
# Univariate helpers over Fraction, used by the separability test.
# Representation: tuple of coefficients, low degree first, trailing zeros
# trimmed; the zero polynomial is ().
# ---------------------------------------------------------------------------


def utrim(coeffs) -> tuple[Fraction, ...]:
    cs = [_as_fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def udeg(u: tuple[Fraction, ...]) -> int:
    return len(u) - 1


def uderiv(u: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return utrim(c * i for i, c in enumerate(u) if i >= 1)


def udivmod(a: tuple[Fraction, ...], b: tuple[Fraction, ...]):
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv
        if c != 0:
            q[k] = c
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
    return utrim(q), utrim(r)


def ugcd(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Monic gcd via the Euclidean algorithm (monic: for gcd != 0)."""
    while b:
        a, b = b, udivmod(a, b)[1]
    if a:
        inv = 1 / a[-1]
        a = tuple(c * inv for c in a)
    return a


# ---------------------------------------------------------------------------
# Binary forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form F(x, y) of degree d; coeffs[i] multiplies x^(d-i) y^i.

    The zero form is rejected: the collision surface F(x,y)=F(z,w) would be
    all of projective space.
    """

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(_as_fraction(c) for c in self.coeffs)
        if self.degree < 0 or len(cs) != self.degree + 1:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, got {len(cs)}"
            )
        if all(c == 0 for c in cs):
            raise ValueError("the zero form is not a valid BinaryForm")
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def from_multipoly(p: MultiPoly) -> "BinaryForm":
        if p.is_zero():
            raise ValueError("the zero polynomial is not a binary form")
        rows = p.xy_terms()
        d = p.homogeneity()
        if d is None:
            raise ValueError("polynomial is not homogeneous")
        coeffs = [Fraction(0)] * (d + 1)
        for _, ey, c in rows:
            coeffs[ey] = c
        return BinaryForm(d, tuple(coeffs))

    def to_multipoly(self) -> MultiPoly:
        d = self.degree
        terms = {(d - i, i): c for i, c in enumerate(self.coeffs) if c != 0}
        return MultiPoly(("x", "y"), terms)

    def y_multiplicity(self) -> int:
        """Largest m with y^m dividing the form (order of the root at infinity)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError("zero form cannot exist here")

    def dehomogenized(self) -> tuple[Fraction, ...]:
        """g(x) = F(x, 1) as a univariate coefficient tuple, low degree first."""
        return utrim(reversed(self.coeffs))

    def is_separable(self) -> bool:
        """True iff the form is squarefree (no repeated linear factor over Qbar).

        Decided on the dehomogenization g(x) = F(x, 1) via gcd(g, g') = 1,
        plus the requirement that y^2 does not divide the form.
        """
        if self.y_multiplicity() > 1:
            return False
        g = self.dehomogenized()
        if udeg(g) <= 0:
            # Constant g: the form is c * y^m with m <= 1 here.
            return True
        return udeg(ugcd(g, uderiv(g))) == 0

    def to_json_dict(self) -> dict:
        return self.to_multipoly().to_json_dict()

    def __str__(self) -> str:
        return self.to_multipoly().render()
