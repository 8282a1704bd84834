"""Per-layer timings taken from outside the program.

``install`` replaces module functions of ``polyinj`` with timing wrappers;
nothing under ``src/`` knows about them.  Each wrapper records a span (its
key, its duration and the time its child spans took), so a function's self
time is its duration minus its children's.  Recursive or re-entrant calls
of one key count once in its inclusive time.  Spans are recorded only while
an operation is being timed, so the benchmark's own checks stay out.

A name imported into another module is a separate binding: ``pipeline``
calls ``scan_surface`` through its own name, which gets its own key and
calls the ``surface`` wrapper in turn.  A function that no longer exists is
reported as missing: its metrics read ``None`` and the run goes on.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

from polyinj import collide, ffield, parser, pipeline, poly, rationals, surface


class Tracer:
    """Span and counter tables shared by every wrapper of one run, reset per pass."""

    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        # id(original) -> (original, wrapper), for rebinding imported names.
        self.wrappers: dict[int, tuple] = {}
        self.installed: set[str] = set()  # span keys with a wrapper in place
        self.stack: list[list] = []
        self.depth = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.extra = defaultdict(float)

    def reset(self) -> None:
        """Start a new pass; the metric functions keep reading the same dicts."""
        for table in (self.stack, self.depth, self.incl, self.self_time, self.calls,
                      self.extra):
            table.clear()

    def wrap(self, fn, key, before=None, after=None):
        """Timed stand-in for fn; before(args) and after(result, args, parent, dt) hooks."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            if before is not None:
                before(args)
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            outer = tracer.depth[key] == 0
            tracer.depth[key] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.depth[key] -= 1
                if outer:
                    tracer.incl[key] += dt
                tracer.self_time[key] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(result, args, parent, dt)
            return result

        return traced

    def patch(self, owner, attr, key, **hooks) -> None:
        """Replace owner.attr by its wrapper, or note it as missing when it is gone."""
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = getattr(owner, attr, None) if owner is not None else None
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(raw.__func__, key, **hooks)))
        else:
            wrapper = self.wrap(raw, key, **hooks)
            self.wrappers[id(raw)] = (raw, wrapper)
            setattr(owner, attr, wrapper)
        self.installed.add(key)

    def rebind(self, module) -> None:
        """Point the module's imported names for wrapped functions at the wrappers."""
        for name, value in list(vars(module).items()):
            entry = self.wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, name, entry[1])


def install(tracer: Tracer) -> dict:
    """Wrap the program's layer functions; return metric name -> (unit, value fn).

    The value fn is None for a metric whose function is missing.  Modules
    that imported public names before this call (the package itself, the
    workloads) are rebound afterwards with ``tracer.rebind``.
    """
    t = tracer
    extra = t.extra

    def add(name, value):
        extra[name] += value

    # collide: the evaluator is a closure, so wrap the factory's products.
    def on_eval(result, args, parent, dt):
        if parent == "collide.find_collisions":
            add("collide.confirm_s", dt)
            add("collide.confirms", 1)

    def on_fingerprint(result, args, parent, dt):
        if parent == "collide.find_collisions":
            add("collide.confirm_s", dt)

    make_evaluator = getattr(collide, "make_evaluator", None)
    if make_evaluator is not None:
        collide.make_evaluator = lambda *a, **k: t.wrap(
            make_evaluator(*a, **k), "collide.eval", after=on_eval)
        t.installed.add("collide.eval")
    else:
        t.missing.append("collide.make_evaluator")
    t.patch(collide, "_phase1_shard", "collide._phase1_shard")
    t.patch(collide, "fingerprint_value", "collide.fingerprint_value", after=on_fingerprint)
    t.patch(collide, "find_collisions", "collide.find_collisions",
            after=lambda r, a, p, dt: add("collide.candidates",
                                          r.stats.get("fingerprint_candidates", 0)))
    t.patch(collide, "_write_checkpoint", "collide._write_checkpoint",
            after=lambda r, a, p, dt: add("collide.checkpoint_bytes", os.path.getsize(a[0])))
    t.patch(collide, "_load_checkpoint", "collide._load_checkpoint")
    report_cls = getattr(collide, "CollisionReport", None)
    t.patch(report_cls, "to_json_dict", "collide.report")
    t.patch(report_cls, "to_json_text", "collide.report")

    # surface
    t.patch(surface, "scan_surface", "surface.scan_surface",
            after=lambda r, a, p, dt: add("surface.points", len(r.trivial) + len(r.exceptional)))
    t.patch(getattr(surface, "ProjPoint", None), "canonical", "surface.canonical")

    # poly
    multipoly = getattr(poly, "MultiPoly", None)
    t.patch(multipoly, "substitute", "poly.substitute")
    t.patch(multipoly, "__mul__", "poly.mul")
    t.patch(multipoly, "__add__", "poly.add")
    t.patch(multipoly, "__post_init__", "poly.normalize",
            before=lambda a: add("poly.normalized_terms", len(a[0].terms)))

    # parser
    t.patch(parser, "parse", "parser.parse")
    t.patch(parser, "lower", "parser.lower")

    # rationals: the draw loop of build_injection is mostly pth_root calls.
    def on_root(result, args, parent, dt):
        if parent == "pipeline.build_injection":
            add("pipeline.draw_roots_s", dt)

    t.patch(rationals, "pth_root", "rationals.pth_root", after=on_root)

    # pipeline: its imported names first call the wrappers installed above,
    # then get spans of their own.
    t.rebind(pipeline)
    t.patch(pipeline, "scan_surface", "pipeline.scan_surface")
    t.patch(pipeline, "twist", "pipeline.twist")
    t.patch(pipeline, "make_G", "pipeline.make_G")
    t.patch(pipeline, "make_f", "pipeline.make_f")
    t.patch(pipeline, "find_collisions", "pipeline.find_collisions")
    t.patch(pipeline, "build_injection", "pipeline.build_injection",
            after=lambda r, a, p, dt: add("pipeline.f_terms", len(r.f_poly.terms)))

    # ffield
    t.patch(ffield, "pgcd", "ffield.pgcd")
    t.patch(ffield, "pdivmod", "ffield.pdivmod")
    t.patch(ffield, "pmul", "ffield.pmul")
    t.patch(getattr(ffield, "FpRatFun", None), "__post_init__", "ffield.normalize")
    t.patch(ffield, "verify_injection", "ffield.verify_injection")

    incl, self_time, calls = t.incl, t.self_time, t.calls
    # metric: (unit, span key it needs, value of the current pass)
    metrics = {
        "collide.phase1_s": ("s", "collide._phase1_shard", lambda: incl["collide._phase1_shard"]),
        "collide.eval_s": ("s", "collide.eval", lambda: incl["collide.eval"]),
        "collide.fingerprint_s": ("s", "collide.fingerprint_value",
                                  lambda: incl["collide.fingerprint_value"]),
        "collide.exact_evals": ("count", "collide.eval", lambda: calls["collide.eval"]),
        "collide.merge_s": ("s", "collide.find_collisions",
                            lambda: self_time["collide.find_collisions"]),
        "collide.confirm_s": ("s", "collide.eval", lambda: extra["collide.confirm_s"]),
        "collide.candidates": ("count", "collide.find_collisions",
                               lambda: extra["collide.candidates"]),
        "collide.confirms": ("count", "collide.eval", lambda: extra["collide.confirms"]),
        "collide.checkpoint_write_s": ("s", "collide._write_checkpoint",
                                       lambda: incl["collide._write_checkpoint"]),
        "collide.checkpoint_read_s": ("s", "collide._load_checkpoint",
                                      lambda: incl["collide._load_checkpoint"]),
        "collide.checkpoint_bytes": ("bytes", "collide._write_checkpoint",
                                     lambda: extra["collide.checkpoint_bytes"]),
        "collide.report_s": ("s", "collide.report", lambda: incl["collide.report"]),
        "surface.scan_s": ("s", "surface.scan_surface", lambda: incl["surface.scan_surface"]),
        "surface.canonical_s": ("s", "surface.canonical", lambda: incl["surface.canonical"]),
        "surface.canonical_calls": ("count", "surface.canonical",
                                    lambda: calls["surface.canonical"]),
        "surface.points": ("count", "surface.scan_surface", lambda: extra["surface.points"]),
        "poly.substitute_s": ("s", "poly.substitute", lambda: incl["poly.substitute"]),
        "poly.mul_s": ("s", "poly.mul", lambda: incl["poly.mul"]),
        "poly.add_s": ("s", "poly.add", lambda: incl["poly.add"]),
        "poly.normalize_s": ("s", "poly.normalize", lambda: incl["poly.normalize"]),
        "poly.normalized_terms": ("count", "poly.normalize",
                                  lambda: extra["poly.normalized_terms"]),
        "parser.parse_s": ("s", "parser.parse", lambda: incl["parser.parse"]),
        "parser.lower_s": ("s", "parser.lower", lambda: incl["parser.lower"]),
        "pipeline.scan_s": ("s", "pipeline.scan_surface", lambda: incl["pipeline.scan_surface"]),
        "pipeline.twist_s": ("s", "pipeline.twist", lambda: incl["pipeline.twist"]),
        "pipeline.make_G_s": ("s", "pipeline.make_G", lambda: incl["pipeline.make_G"]),
        "pipeline.make_f_s": ("s", "pipeline.make_f", lambda: incl["pipeline.make_f"]),
        "pipeline.g_collide_s": ("s", "pipeline.find_collisions",
                                 lambda: incl["pipeline.find_collisions"]),
        "pipeline.draw_s": ("s", "pipeline.build_injection",
                            lambda: self_time["pipeline.build_injection"]
                            + extra["pipeline.draw_roots_s"]),
        "pipeline.f_terms": ("count", "pipeline.build_injection",
                             lambda: extra["pipeline.f_terms"]),
        "rationals.pth_root_s": ("s", "rationals.pth_root", lambda: incl["rationals.pth_root"]),
        "rationals.pth_root_calls": ("count", "rationals.pth_root",
                                     lambda: calls["rationals.pth_root"]),
        "ffield.gcd_s": ("s", "ffield.pgcd", lambda: incl["ffield.pgcd"]),
        "ffield.divmod_s": ("s", "ffield.pdivmod", lambda: incl["ffield.pdivmod"]),
        "ffield.mul_s": ("s", "ffield.pmul", lambda: incl["ffield.pmul"]),
        "ffield.normalize_s": ("s", "ffield.normalize", lambda: incl["ffield.normalize"]),
        "ffield.gcd_calls": ("count", "ffield.pgcd", lambda: calls["ffield.pgcd"]),
        "ffield.trials": ("count", "ffield.verify_injection",
                          lambda: calls["ffield.verify_injection"]),
    }
    if t.missing:
        print("trace: not found, reported as missing: " + ", ".join(t.missing),
              file=sys.stderr)
    return {name: (unit, fn if need in t.installed else None)
            for name, (unit, need, fn) in metrics.items()}
