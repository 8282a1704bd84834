"""Command-line interface: surface, build, collide, local, ffield.

Every run writes one JSON manifest (argument vector, seed, fingerprint
primes, version, wall time, input/output digests).  Outputs are JSON with
sorted keys, so reruns with equal manifests produce byte-identical files.
Domain errors exit 1 with a structured JSON object on stderr; usage errors
exit 2.
"""

from __future__ import annotations

import hashlib
import json
import secrets
import sys
import time
from fractions import Fraction

import click

from . import __version__
from .collide import SearchSpace, find_collisions
from .ffield import ff_collision_search
from .localfields import padic_collision, real_collision
from .parser import ParseError, parse_poly
from .pipeline import build_injection
from .poly import BinaryForm, MultiPoly
from .rationals import FINGERPRINT_PRIMES, rat_from_str
from .surface import scan_surface


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_poly(arg_text: str) -> tuple[MultiPoly, str | None]:
    """Inline expression or @file (expression text or MultiPoly JSON)."""
    source = None
    if arg_text.startswith("@"):
        source = arg_text[1:]
        try:
            with open(source, encoding="utf-8") as fh:
                arg_text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read polynomial file {source}: {exc}") from exc
        if arg_text.lstrip().startswith("{"):
            try:
                return MultiPoly.from_json_dict(json.loads(arg_text)), source
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed polynomial JSON in {source}: {exc}") from exc
    return parse_poly(arg_text), source


def _load_form(arg_text: str) -> tuple[BinaryForm, str | None]:
    poly, source = _load_poly(arg_text)
    return BinaryForm.from_multipoly(poly), source


def _parse_at(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--at wants 'x0,y0', got {text!r}")
    return rat_from_str(parts[0]), rat_from_str(parts[1])


def _stream(write, out: str | None) -> list[str]:
    """Call write(fh) on the --out file, or on stdout without one; return the outputs."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            write(fh)
        return [out]
    write(sys.stdout)
    return []


def _emit(text: str, out: str | None) -> list[str]:
    return _stream(lambda fh: fh.write(text), out)


def _write_manifest(
    subcommand: str,
    seed: int | None,
    t0: float,
    inputs: list[str],
    outputs: list[str],
    manifest_path: str | None,
) -> None:
    doc = {
        "subcommand": subcommand,
        "argv": sys.argv[1:],
        "rng_seed": seed,
        "fingerprint_primes": list(FINGERPRINT_PRIMES),
        "artifact_version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
    }
    text = _dumps(doc)
    if manifest_path:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif outputs:
        with open(outputs[0] + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)


def _fail_domain(exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(_dumps(doc))
    sys.exit(1)


_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, RuntimeError, OSError)


@click.group()
@click.version_option(version=__version__)
def main():
    """Exact-arithmetic laboratory for candidate polynomial injections on Q."""


@main.command()
@click.option("--form", "form_text", required=True, help="binary form, inline or @file")
@click.option("--height", type=int, required=True, help="scan box bound H")
@click.option("--out", "out_path", default=None, help="output JSON path (default stdout)")
@click.option("--manifest", "manifest_path", default=None)
def surface(form_text, height, out_path, manifest_path):
    """Scan F(x,y)=F(z,w) for rational points of bounded height."""
    t0 = time.perf_counter()
    try:
        form, source = _load_form(form_text)
        result = scan_surface(form, height)
        outputs = _emit(_dumps(result.to_json_dict()), out_path)
    except _DOMAIN_ERRORS as exc:
        _fail_domain(exc)
        return
    _write_manifest("surface", None, t0, [source] if source else [], outputs, manifest_path)


@main.command()
@click.option("--form", "form_text", required=True)
@click.option("--height", type=int, required=True)
@click.option("--seed", type=int, default=None)
@click.option("--max-twists", type=int, default=8)
@click.option("--out", "out_path", default=None)
@click.option("--manifest", "manifest_path", default=None)
def build(form_text, height, seed, max_twists, out_path, manifest_path):
    """Run the full construction and emit a replayable trace."""
    t0 = time.perf_counter()
    if seed is None:
        seed = secrets.randbits(63)
        sys.stderr.write(f"seed: {seed}\n")
    try:
        form, source = _load_form(form_text)
        trace = build_injection(
            form, height_bound=height, rng_seed=seed, max_twists=max_twists
        )
        outputs = _emit(_dumps(trace.to_json_dict()), out_path)
    except _DOMAIN_ERRORS as exc:
        _fail_domain(exc)
        return
    _write_manifest("build", seed, t0, [source] if source else [], outputs, manifest_path)


@main.command()
@click.option("--poly", "poly_text", required=True)
@click.option("--mode", type=click.Choice(["int", "rat"]), required=True)
@click.option("--height", type=int, required=True)
@click.option("--out", "out_path", default=None)
@click.option("--manifest", "manifest_path", default=None)
@click.option("--shards", type=int, default=None)
@click.option("--checkpoint", "checkpoint_path", default=None)
@click.option("--resume", is_flag=True, default=False)
def collide(poly_text, mode, height, out_path, manifest_path, shards, checkpoint_path, resume):
    """Exhaustive collision search for f(x,y) = f(z,w) at bounded height."""
    t0 = time.perf_counter()
    try:
        poly, source = _load_poly(poly_text)
        space = SearchSpace("integers" if mode == "int" else "rationals", height)
        report = find_collisions(
            poly, space, shards=shards, checkpoint_path=checkpoint_path, resume=resume
        )
        outputs = _stream(report.write_json, out_path)
    except _DOMAIN_ERRORS as exc:
        _fail_domain(exc)
        return
    _write_manifest("collide", None, t0, [source] if source else [], outputs, manifest_path)


@main.command()
@click.option("--poly", "poly_text", required=True)
@click.option("--real", "real_mode", is_flag=True, default=False)
@click.option("--padic", "padic_prime", type=int, default=None)
@click.option("--prec", type=int, default=None)
@click.option("--at", "at_text", required=True, help="base point 'x0,y0'")
@click.option("--tol", type=float, default=1e-12)
@click.option("--delta", "delta_text", default=None)
@click.option("--out", "out_path", default=None)
@click.option("--manifest", "manifest_path", default=None)
def local(poly_text, real_mode, padic_prime, prec, at_text, tol, delta_text, out_path, manifest_path):
    """Construct approximate (R) or Hensel-certified (Q_p) collisions."""
    t0 = time.perf_counter()
    if real_mode == (padic_prime is not None):
        raise click.UsageError("choose exactly one of --real or --padic P")
    try:
        poly, source = _load_poly(poly_text)
        x0, y0 = _parse_at(at_text)
        if real_mode:
            kwargs = {}
            if delta_text is not None:
                kwargs["delta"] = rat_from_str(delta_text)
            result = real_collision(poly, x0, y0, tol, **kwargs)
        else:
            if prec is None:
                raise click.UsageError("--padic needs --prec K")
            if x0.denominator != 1 or y0.denominator != 1:
                raise ValueError("p-adic base point must have integer coordinates")
            delta = int(delta_text) if delta_text is not None else None
            result = padic_collision(
                poly, padic_prime, prec, (x0.numerator, y0.numerator), delta
            )
        outputs = _emit(_dumps(result.to_json_dict()), out_path)
    except _DOMAIN_ERRORS as exc:
        _fail_domain(exc)
        return
    _write_manifest("local", None, t0, [source] if source else [], outputs, manifest_path)


@main.command()
@click.option("--p", "prime", type=int, required=True)
@click.option("--deg", type=int, required=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", default=None)
@click.option("--manifest", "manifest_path", default=None)
def ffield(prime, deg, trials, seed, out_path, manifest_path):
    """Hammer the unconditional injection x^p + t*y^p over F_p(t)."""
    t0 = time.perf_counter()
    if seed is None:
        seed = secrets.randbits(63)
        sys.stderr.write(f"seed: {seed}\n")
    try:
        report = ff_collision_search(prime, deg, trials, seed)
        outputs = _emit(_dumps(report), out_path)
    except _DOMAIN_ERRORS as exc:
        _fail_domain(exc)
        return
    _write_manifest("ffield", seed, t0, [], outputs, manifest_path)


if __name__ == "__main__":
    main()
