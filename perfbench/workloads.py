"""The benchmark's four workloads.

Each workload prepares its inputs from the run seed and runs one pass of
operations through the public ``polyinj`` API with ``workers=1``.  Outside
the timed region, the first output of every operation goes through
``check``: property checks, and a summary that must equal the one
``expected`` computes with ``oracles`` after the timed passes.  Every later
output only has to reproduce the first one's ``identity``.

Sizes are chosen so that one pass takes about four seconds on a 2-vCPU
host, so that a 24-second run holds six passes or more.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

import oracles
from polyinj import (
    BinaryForm,
    MultiPoly,
    SearchSpace,
    build_injection,
    ff_collision_search,
    find_collisions,
    is_pth_power,
    parse_poly,
    scan_surface,
)
from polyinj.collide import CollisionReport, SearchInterrupted
from polyinj.ffield import FpRatFun
from polyinj.surface import PointSet

CUBE = "x^3+y^3"
ZAGIER = "x^7+3*y^7"


def _xy_terms(poly: MultiPoly) -> list[tuple[int, int, Fraction]]:
    """(ex, ey, coef) rows of a polynomial in variables within {x, y}."""
    pos = {v: i for i, v in enumerate(poly.vars)}
    rows = []
    for exps, c in poly.terms.items():
        ex = exps[pos["x"]] if "x" in pos else 0
        ey = exps[pos["y"]] if "y" in pos else 0
        rows.append((ex, ey, c))
    return rows


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Base: subclasses fill ``run_pass``, ``check``, ``identity`` and ``expected``."""

    def __init__(self):
        # Property-check failures found on the first output of each operation.
        self.problems: dict[str, list[str]] = {}

    def run_pass(self, op) -> None:
        raise NotImplementedError

    def check(self, name: str, out):
        """Full summary of an operation's first output, after its property checks."""
        raise NotImplementedError

    def identity(self, name: str, out):
        """Cheap identity of any output; every pass must reproduce the first."""
        if isinstance(out, str):
            return _sha(out)
        if isinstance(out, CollisionReport):
            return hash((tuple(out.pairs), tuple(out.values)))
        if isinstance(out, PointSet):
            return hash((out.trivial, out.exceptional))
        if isinstance(out, dict):
            return tuple(sorted(out.items()))
        return tuple(out) if isinstance(out, list) else out

    def expected(self) -> dict:
        """Oracle summaries by operation name, computed after the timed passes."""
        return {}

    def _fail(self, name: str, message: str) -> None:
        self.problems.setdefault(name, []).append(message)


class CollideRat(Workload):
    """Rational-mode collision join: exact ``Fraction`` evaluation dominates."""

    ZAGIER_HEIGHT = 14
    CUBE_HEIGHT = 5

    def __init__(self, seed, workdir):
        super().__init__()
        self.zagier = parse_poly(ZAGIER)
        self.cube = parse_poly(CUBE)
        self.zagier_space = SearchSpace("rationals", self.ZAGIER_HEIGHT)
        self.cube_space = SearchSpace("rationals", self.CUBE_HEIGHT)

    def run_pass(self, op):
        op("zagier-rat", lambda: find_collisions(self.zagier, self.zagier_space, workers=1))
        op("cube-rat", lambda: find_collisions(self.cube, self.cube_space, workers=1))

    def check(self, name, out):
        return oracles.collision_digest(out.collisions)

    def expected(self):
        return {
            "zagier-rat": oracles.collision_digest(oracles.collisions(
                _xy_terms(self.zagier), oracles.rational_axis(self.ZAGIER_HEIGHT))),
            "cube-rat": oracles.collision_digest(oracles.collisions(
                _xy_terms(self.cube), oracles.rational_axis(self.CUBE_HEIGHT))),
        }


class JoinInt(Workload):
    """Integer-mode joins: bucket merge, confirmation, canonicalization, I/O."""

    SURFACE_HEIGHT = 80
    CUBE_HEIGHT = 120
    CHECKPOINT_HEIGHT = 60
    CHECKPOINT_SHARDS = 16

    def __init__(self, seed, workdir):
        super().__init__()
        self.cube = parse_poly(CUBE)
        self.cube_form = BinaryForm.from_multipoly(self.cube)
        self.zagier = parse_poly(ZAGIER)
        self.cube_space = SearchSpace("integers", self.CUBE_HEIGHT)
        self.ck_space = SearchSpace("integers", self.CHECKPOINT_HEIGHT)
        self.ck_path = os.path.join(workdir, f"zagier-{os.getpid()}.ck")

    def _checkpointed(self, **kwargs):
        return find_collisions(
            self.zagier, self.ck_space, shards=self.CHECKPOINT_SHARDS, workers=1,
            checkpoint_path=self.ck_path, **kwargs,
        )

    def _interrupted(self):
        try:
            self._checkpointed(stop_after_shards=self.CHECKPOINT_SHARDS // 2)
        except SearchInterrupted as stop:
            return stop.checkpoint_path
        raise RuntimeError("the search ran to its end instead of stopping")

    def _clear_checkpoint(self):
        if os.path.exists(self.ck_path):
            os.remove(self.ck_path)

    def run_pass(self, op):
        op("surface", lambda: scan_surface(self.cube_form, self.SURFACE_HEIGHT, workers=1))
        report = op("cube-int", lambda: find_collisions(self.cube, self.cube_space, workers=1))
        op("cube-int-json", lambda: report.to_json_text())
        self._clear_checkpoint()
        op("checkpoint-stop", self._interrupted)
        op("checkpoint-resume", lambda: self._checkpointed(resume=True).to_json_text())
        self._clear_checkpoint()

    def identity(self, name, out):
        if name == "checkpoint-stop":
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            return (doc["shards"], tuple(sorted(int(s) for s in doc["completed"])))
        return super().identity(name, out)

    def check(self, name, out):
        if name == "surface":
            points = sorted(p.coords for p in out.all_points())
            trivial = sorted(p.coords for p in out.trivial)
            return _sha(repr(points)), _sha(repr(trivial))
        if name == "cube-int":
            return oracles.collision_digest(out.collisions)
        if name == "cube-int-json":
            return oracles.collision_digest(json.loads(out)["collisions"])
        if name == "checkpoint-stop":
            return self.identity(name, out)
        return _sha(out)

    def expected(self):
        points = oracles.surface_points(self.cube_form.coeffs, self.SURFACE_HEIGHT)
        trivial = [p for p in points if oracles.is_trivial(p, self.cube_form.degree)]
        cube = oracles.collision_digest(oracles.collisions(
            _xy_terms(self.cube), oracles.integer_axis(self.CUBE_HEIGHT)))
        zagier = oracles.collision_digest(oracles.collisions(
            _xy_terms(self.zagier), oracles.integer_axis(self.CHECKPOINT_HEIGHT)))
        # The resumed report must equal, byte for byte, that of one
        # uninterrupted checkpointed run, whose collisions the oracle checks.
        self._clear_checkpoint()
        full = self._checkpointed()
        self._clear_checkpoint()
        if oracles.collision_digest(full.collisions) != zagier:
            self._fail("checkpoint-resume", "uninterrupted run disagrees with the oracle")
        half = self.CHECKPOINT_SHARDS // 2
        return {
            "surface": (_sha(repr(sorted(points))), _sha(repr(sorted(trivial)))),
            "cube-int": cube,
            "cube-int-json": cube,
            "checkpoint-stop": (self.CHECKPOINT_SHARDS, tuple(range(half))),
            "checkpoint-resume": _sha(full.to_json_text()),
        }


class Construct(Workload):
    """The construction pipeline; ``MultiPoly`` expansion in ``make_f`` dominates."""

    BUILDS = (
        ("reduced", dict(height_bound=10, rng_seed=1)),
        ("unreduced", dict(height_bound=12, rng_seed=1, max_twists=1)),
    )
    RANDOM_POLYS = 12
    CHECK_POINTS = 2

    def __init__(self, seed, workdir):
        super().__init__()
        self.base = BinaryForm.from_multipoly(parse_poly(CUBE))
        rng = random.Random(seed)
        self.random_polys = [self._random_poly(rng) for _ in range(self.RANDOM_POLYS)]
        self.points = [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
            for _ in range(self.CHECK_POINTS)
        ]
        # Digest of each build's first trace; its serialization must match.
        self.trace_sha: dict[str, str] = {}

    @staticmethod
    def _random_poly(rng: random.Random) -> MultiPoly:
        terms = {}
        for _ in range(rng.randint(20, 60)):
            exps = tuple(rng.randint(0, 6) for _ in range(4))
            terms[exps] = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        return MultiPoly(("x", "y", "z", "w"), terms)

    def run_pass(self, op):
        finals = []
        for label, kwargs in self.BUILDS:
            trace = op(f"build-{label}", lambda: build_injection(self.base, workers=1, **kwargs))
            op(f"serialize-{label}", lambda: trace.to_json_text())
            if trace is not None:
                finals += [trace.final_form().to_multipoly(), trace.g_poly]
        op("roundtrip-forms", lambda: self._roundtrip(finals))
        op("roundtrip-random", lambda: self._roundtrip(self.random_polys))

    @staticmethod
    def _roundtrip(polys):
        return [(p, parse_poly(p.render())) for p in polys]

    def identity(self, name, out):
        if name.startswith("build-"):
            return _sha(out.to_json_text())
        if name.startswith("roundtrip-"):
            return (len(out), all(parsed == original for original, parsed in out))
        return super().identity(name, out)

    def check(self, name, out):
        if name.startswith("build-"):
            self._check_trace(name, out)
            digest = _sha(out.to_json_text())
            self.trace_sha[name.removeprefix("build-")] = digest
            return digest
        return self.identity(name, out)

    def expected(self):
        exp = {"roundtrip-forms": (2 * len(self.BUILDS), True),
               "roundtrip-random": (self.RANDOM_POLYS, True)}
        # A serialized trace is the text of the checked first build.
        for label, digest in self.trace_sha.items():
            exp[f"serialize-{label}"] = digest
        return exp

    def _reference_final(self, matrices, p):
        """F_t(x, y) = F_{t-1}(a x^p + b y^p, c x^p + d y^p), from the base form."""
        d = self.base.degree
        coeffs = self.base.coeffs

        def value(x, y):
            for (a, b), (c, e) in reversed(matrices):
                x, y = a * x ** p + b * y ** p, c * x ** p + e * y ** p
            return sum(k * x ** (d - i) * y ** i for i, k in enumerate(coeffs))

        return value

    def _check_trace(self, name, trace):
        p = trace.p
        t = len(trace.twists)
        final = trace.final_form()
        if final.degree != self.base.degree * p ** t:
            self._fail(name, f"final form degree {final.degree} after {t} twists")
        f_terms = list(trace.f_poly.terms.items())
        f_degree = max(sum(e) for e, _ in f_terms)
        if f_degree != p * p * final.degree:
            self._fail(name, f"f has degree {f_degree}, not {p * p} x {final.degree}")
        ref = self._reference_final([s.matrix for s in trace.twists], p)
        a, b = trace.a, trace.b
        dfin = final.degree
        g_vars, f_vars = trace.g_poly.vars, trace.f_poly.vars
        for x, y in self.points:
            if oracles.eval_terms(
                [((dfin - i, i), c) for i, c in enumerate(final.coeffs)], (x, y)
            ) != ref(x, y):
                self._fail(name, f"final form is not the twisted base form at {(x, y)}")
            at = {"x": x, "y": y}
            if oracles.eval_terms(trace.g_poly.terms.items(), [at[v] for v in g_vars]) \
                    != ref(x ** p + 1, y ** p + 1):
                self._fail(name, f"G != F(x^p+1, y^p+1) at {(x, y)}")
            if oracles.eval_terms(f_terms, [at[v] for v in f_vars]) \
                    != ref((a * x ** p + b) ** p + 1, (a * y ** p + b) ** p + 1):
                self._fail(name, f"f != G(a x^p+b, a y^p+b) at {(x, y)}")
        h = trace.height_bound
        exceptional = [
            pt for pt in oracles.surface_points(final.coeffs, h)
            if not oracles.is_trivial(pt, final.degree)
        ]
        if trace.unreduced != bool(exceptional):
            self._fail(name, f"unreduced={trace.unreduced} but the oracle finds "
                             f"{len(exceptional)} exceptional points")
        residual = oracles.collisions(_xy_terms(trace.g_poly), oracles.integer_axis(h))
        if oracles.collision_digest(trace.g_collisions.collisions) != \
                oracles.collision_digest(residual):
            self._fail(name, "residual collisions of G disagree with the oracle")
        coords = {Fraction(*v) for xy, zw, _ in residual for v in (*xy, *zw)}
        if a == 0 or any(oracles.is_rational_power((c - b) / a, p) for c in coords):
            self._fail(name, f"(a, b) = ({a}, {b}) reaches a residual coordinate")
        last = trace.draws[-1]
        if (last.kind, last.status, tuple(last.payload)) != ("ab", "accepted", (a, b)):
            self._fail(name, "the last draw is not the accepted (a, b)")


class FField(Workload):
    """F_p(t) hammer: ``pgcd``/``pdivmod`` normalization, no ``Fraction`` code."""

    PRIMES = (2, 3, 5)
    DEGREE = 3
    TRIALS = 1500
    POWER_SAMPLES = 40

    def __init__(self, seed, workdir):
        super().__init__()
        rng = random.Random(seed)
        self.search_seeds = {p: rng.randrange(1 << 30) for p in self.PRIMES}
        self.powers = {p: [self._power_pair(rng, p) for _ in range(self.POWER_SAMPLES)]
                       for p in self.PRIMES}

    def _power_pair(self, rng, p):
        """g^p and t * g^p for a random nonzero g, expanded with oracle arithmetic."""
        num = [rng.randrange(p) for _ in range(self.DEGREE + 1)]
        den = [rng.randrange(p) for _ in range(self.DEGREE + 1)]
        num[rng.randrange(self.DEGREE + 1)] = 1 + rng.randrange(p - 1)
        den[self.DEGREE] = 1
        num_p = oracles.fp_pow(num, p, p)
        den_p = oracles.fp_pow(den, p, p)
        return (FpRatFun.from_coeffs(p, num_p, den_p),
                FpRatFun.from_coeffs(p, [0] + num_p, den_p))

    def run_pass(self, op):
        for p in self.PRIMES:
            op(f"search-p{p}", lambda: ff_collision_search(
                p, self.DEGREE, self.TRIALS, self.search_seeds[p], workers=1))
            op(f"pth-power-p{p}", lambda: [
                (is_pth_power(g), is_pth_power(tg)) for g, tg in self.powers[p]])

    def check(self, name, out):
        if name.startswith("search-"):
            if out["equal_inputs"] + out["distinct_values"] != out["trials"]:
                self._fail(name, "equal_inputs + distinct_values != trials")
            if out["collisions"] != 0 or out["trials"] != self.TRIALS:
                self._fail(name, f"report {out}")
        return self.identity(name, out)

    def expected(self):
        return {f"pth-power-p{p}": ((True, False),) * self.POWER_SAMPLES for p in self.PRIMES}


WORKLOADS = {
    "collide-rat": CollideRat,
    "join-int": JoinInt,
    "construct": Construct,
    "ffield": FField,
}
