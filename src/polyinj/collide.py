"""Exhaustive, exact, sharded search for collisions f(x,y) = f(z,w).

The engine runs a two-phase equality join over all input pairs of bounded
height:

  phase 1  keep one word per input: its slot for the first fingerprint
           prime q, the residue of its value mod q (None where q divides
           the value's denominator), in input order.  f's coefficients and
           the axis values are reduced mod q once, and no exact value is
           built.  An input falls back to exact evaluation only where q
           shares a factor with a coefficient denominator or with one of
           its two denominators (input denominators are at most H, far
           below the default 62-bit primes);
  phase 2  count the slots (``Counter``) and keep, as candidates, the
           inputs whose slot occurs twice or more (``itertools.compress``);
           give the candidates the other primes' slots with the same
           kernel, run on their rows only; bucket them
           by full fingerprint, evaluate every member of a multi-member
           bucket exactly once, through ``poly.make_evaluator``, and
           group the bucket by exact value; each group of two or more
           inputs is one equal-value class.

The exact evaluator, ``compile_xy_terms`` and ``make_evaluator``, lives in
``poly``; the join calls it through this module's own bindings of those
names.

Every reported collision is exactly confirmed; fingerprints can only cost
time, never soundness.  A class of k inputs is held as k indices; its
k(k-1)/2 pairs are walked, never stored or sorted, when a report is read
or written.  The join runs in one process, shard after shard; shards are
the units of checkpointing.  Reports are deterministic: identical inputs
give byte-identical JSON regardless of shard count.

``write_json`` streams a report in the ``json.dumps(indent=2,
sort_keys=True)`` layout, one row (an input and its later class-mates) at
a time from one template, so its memory does not grow with the number of
pairs; ``to_json_text`` collects that stream in a string.
``to_json_dict`` builds the same document as nested lists, for the
construction trace and as the writer's test oracle.  A checkpoint
(version 2) holds every completed shard's list of first-prime slots, one
int or null per input, the index implicit in the position; the header
keeps the whole prime tuple.  Each shard is encoded once, by one
``json.dumps`` call that runs CPython's C encoder, so the encoding cost
grows linearly with the shard count.  The file is still
rewritten whole after each shard, so the bytes written grow with the
square of the shard count.

``naive_collisions`` is the independent oracle: it groups inputs directly
by their exact values, summed term by term without the engine's
evaluator, with no fingerprint machinery involved.
"""

from __future__ import annotations

import io
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, groupby
from math import gcd

from .poly import MultiPoly, compile_xy_terms, make_evaluator
from .rationals import FINGERPRINT_PRIMES, check_fingerprint_primes, rat_to_str
from .rationals import fingerprint as fingerprint_value

DISCLAIMER = (
    "bounded-height exhaustive search: an empty collision list is evidence "
    "within this box, not a proof of injectivity"
)


class SearchInterrupted(RuntimeError):
    """Raised by the stop_after_shards testing hook; the checkpoint is intact."""

    def __init__(self, checkpoint_path: str):
        super().__init__(f"search interrupted; resume from {checkpoint_path}")
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class SearchSpace:
    """Input domain: all pairs over {-H..H} (integers) or {height <= H} (rationals)."""

    mode: str
    height: int

    def __post_init__(self):
        if self.mode not in ("integers", "rationals"):
            raise ValueError(f"mode must be 'integers' or 'rationals', got {self.mode!r}")
        if self.height < 1:
            raise ValueError("height bound must be >= 1")


def enumerate_inputs(height: int) -> list[Fraction]:
    """All canonical rationals of height <= H, ordered by (height, num, den)."""
    return list(_rational_axis(height))


@lru_cache(maxsize=8)
def _rational_axis(height: int) -> tuple[Fraction, ...]:
    if height < 1:
        raise ValueError("height bound must be >= 1")
    out = []
    for h in range(1, height + 1):
        for num in range(-h, h + 1):
            for den in range(1, h + 1):
                if max(abs(num), den) == h and gcd(abs(num), den) == 1:
                    out.append(Fraction(num, den))
    return tuple(out)


def input_axis(space: SearchSpace) -> tuple:
    """One-dimensional input tuple; the search domain is its Cartesian square."""
    if space.mode == "integers":
        return tuple(range(-space.height, space.height + 1))
    return _rational_axis(space.height)


# -- sharded phase 1 -------------------------------------------------------------


def _shard_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    base, extra = divmod(total, shards)
    ranges = []
    start = 0
    for s in range(shards):
        end = start + base + (1 if s < extra else 0)
        ranges.append((start, end))
        start = end
    return ranges


def _residue_table(rows, axis, inexact, q):
    """Residues mod q for one prime: the terms of f grouped by their y-degree.

    Returns (q, constant-in-y terms, [(y^e column, terms with y-degree e)]),
    each term a (column of x^ex over the axis, coefficient residue) pair.
    Axis values in ``inexact`` get a dummy residue; their slots are redone
    exactly by the caller.
    """
    res = [0 if j in inexact else v.numerator * pow(v.denominator, -1, q) % q
           for j, v in enumerate(axis)]
    xcols = {}
    by_ey: dict[int, list] = {}
    for ex, ey, num, den in rows:
        if ex not in xcols:
            xcols[ex] = [pow(r, ex, q) for r in res]
        by_ey.setdefault(ey, []).append((xcols[ex], num * pow(den, -1, q) % q))
    y_groups = [([pow(r, ey, q) for r in res], terms)
                for ey, terms in sorted(by_ey.items()) if ey]
    return q, by_ey.get(0, []), y_groups


def _row_residues(table, i, lo, hi):
    """Residues of f(axis[i], axis[j]) for j in lo..hi-1: f folded at x, then summed per y."""
    q, const_terms, y_groups = table
    acc = [sum(c * xcol[i] for xcol, c in const_terms)] * (hi - lo)
    for ycol, terms in y_groups:
        c = sum(coef * xcol[i] for xcol, coef in terms) % q
        acc = [a + c * p for a, p in zip(acc, ycol[lo:hi])]
    return [a % q for a in acc]


def _prime_slots(rows, axis, q, spans):
    """Per (i, lo, hi) span, the slots mod q of f(axis[i], axis[j]) for j in lo..hi-1.

    A slot is the input's fingerprint entry for q alone: the residue of
    its exact value, or None where q divides the value's denominator.
    Coefficients and axis values are reduced mod q once; each x is folded
    into a polynomial in y, whose value at every y of the span is a few
    word-sized products.  An input is reduced only when q is coprime to
    every coefficient denominator and to both input denominators:
    reduction is then a ring homomorphism on everything involved, so the
    residue equals the slot of the exact value.  Any other input is
    evaluated exactly and fingerprinted as such.
    """
    ev = make_evaluator(rows)

    def exact(i, j):
        return fingerprint_value(ev(axis[i], axis[j]), (q,))[0]

    if any(gcd(d, q) != 1 for (_, _, _, d) in rows):
        for i, lo, hi in spans:
            yield [exact(i, j) for j in range(lo, hi)]
        return
    inexact = {j for j, v in enumerate(axis) if gcd(v.denominator, q) != 1}
    table = _residue_table(rows, axis, inexact, q)
    for i, lo, hi in spans:
        if i in inexact:
            yield [exact(i, j) for j in range(lo, hi)]
            continue
        slots = _row_residues(table, i, lo, hi)
        for j in inexact:
            if lo <= j < hi:
                slots[j - lo] = exact(i, j)
        yield slots


def _phase1_shard(rows, axis, start, end, primes):
    """The first prime's slot for each of inputs start..end-1 of axis x axis, in order.

    ``rows`` are f's compiled terms and ``primes`` the fingerprint primes;
    only ``primes[0]`` is used, and the input index is implicit in the
    position.  See ``_prime_slots``.
    """
    n = len(axis)
    spans = [(i, max(start - i * n, 0), min(end - i * n, n))
             for i in range(start // n, (end - 1) // n + 1)]
    return list(chain.from_iterable(_prime_slots(rows, axis, primes[0], spans)))


def _candidate_fingerprints(rows, axis, primes, slots, candidates):
    """Full fingerprints of the candidate inputs, in order of ``candidates``.

    ``slots`` holds every input's first-prime slot; the other primes'
    slots are computed by the phase-1 kernel on the rows that hold a
    candidate, each over the span from its first to its last candidate.
    """
    n = len(axis)
    cols = [[slots[idx] for idx in candidates]]
    by_row = [list(idxs) for _, idxs in groupby(candidates, lambda idx: idx // n)]
    spans = [(idxs[0] // n, idxs[0] % n, idxs[-1] % n + 1) for idxs in by_row]
    for q in primes[1:]:
        col = []
        for (i, lo, _), idxs, row in zip(spans, by_row, _prime_slots(rows, axis, q, spans)):
            base = i * n + lo
            col += [row[idx - base] for idx in idxs]
        cols.append(col)
    return zip(*cols)


# -- checkpointing ----------------------------------------------------------------


def _checkpoint_header(poly, space, shards, primes) -> dict:
    return {
        "version": 2,
        "poly": poly.to_json_dict(),
        "mode": space.mode,
        "height": space.height,
        "shards": shards,
        "primes": list(primes),
    }


def _write_checkpoint(path: str, header: dict, completed: dict,
                      encoded: dict | None = None) -> None:
    """Write the header and every completed shard, replacing the file atomically.

    Each shard is encoded as its ``"<sid>": [...]`` member of ``completed``
    by one ``json.dumps`` call, which runs CPython's C encoder, and the
    members are written in the dict's own order with the separators
    ``json.dumps`` uses, so the bytes are those of one ``json.dumps`` of the
    header plus ``"completed"``: the version-2 format, in which a shard is
    the flat list of its inputs' first-prime slots.  ``encoded`` keeps
    each member's text by shard id across calls, so a shard is encoded
    once however often the file is rewritten.
    """
    if encoded is None:
        encoded = {}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header)[:-1] + ', "completed": {')
        for i, (sid, items) in enumerate(completed.items()):
            text = encoded.get(sid)
            if text is None:
                text = encoded[sid] = f'"{sid}": ' + json.dumps(items)
            fh.write(", " if i else "")
            fh.write(text)
        fh.write("}}")
    os.replace(tmp, path)


def _load_checkpoint(path: str, header: dict, ranges: list[tuple[int, int]]) -> dict:
    """Completed shards of a checkpoint written by this search, keyed by shard id.

    Raises ValueError, naming the path and the shard, unless the file is a
    JSON object whose header equals this search's (so a version-1 file is
    refused by its ``version`` field) and whose every shard id is the
    decimal form of one of ``ranges``' ids and holds exactly one
    first-prime slot, an int or null, per input of its range.  The slot
    values themselves are not re-verified: that would cost the shard's
    phase 1 again.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    for key, want in header.items():
        if doc.get(key) != want:
            raise ValueError(
                f"checkpoint {path} does not match this search (field {key!r} differs)"
            )
    shards = doc.get("completed")
    if not isinstance(shards, dict):
        raise ValueError(f"checkpoint {path} has no 'completed' object")
    completed = {}
    for key, slots in shards.items():
        sid = int(key) if key.isdecimal() else -1
        if not 0 <= sid < len(ranges) or key != str(sid):
            raise ValueError(f"checkpoint {path}: shard id {key!r} is not one of "
                             f"'0'..'{len(ranges) - 1}'")
        start, end = ranges[sid]
        if not (isinstance(slots, list) and len(slots) == end - start
                and set(map(type, slots)) <= {int, type(None)}):
            raise ValueError(
                f"checkpoint {path}: shard {sid} does not hold exactly one slot "
                f"(an int or null) for each of inputs {start}..{end - 1}"
            )
        completed[sid] = slots
    return completed


# -- reports -----------------------------------------------------------------------


@dataclass
class CollisionReport:
    """Certified collisions plus search metadata.

    ``classes`` holds the equal-value classes, ordered by least member:
    each is (indices, value), two or more ascending indices into the
    deterministic input order and their one exact value.  ``pairs``,
    ``values`` and ``collisions`` are views that list every pair (a, b) of
    class-mates with a < b, in order of a and then of b.
    """

    poly: MultiPoly
    space: SearchSpace
    classes: list[tuple[tuple[int, ...], object]]
    stats: dict
    primes: tuple[int, ...] = FINGERPRINT_PRIMES
    checkpoint: str | None = None
    _axis: tuple = field(default=(), repr=False)

    def input_pair(self, idx: int) -> tuple:
        axis = self._axis
        n = len(axis)
        return (axis[idx // n], axis[idx % n])

    def _rows(self):
        """(a, the class-mates after a, value) for every a that has some, in order of a.

        Each input lies in at most one class, so the rows sort by a alone.
        """
        at = {}
        for members, v in self.classes:
            for k in range(len(members) - 1):
                at[members[k]] = (members, k + 1, v)
        for a in sorted(at):
            members, k, v = at[a]
            yield a, members[k:], v

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for a, later, _ in self._rows() for b in later]

    @property
    def values(self) -> list:
        return [v for _, later, v in self._rows() for _ in later]

    @property
    def collisions(self) -> list:
        pair = self.input_pair
        return [(pair(a), pair(b), v) for a, later, v in self._rows() for b in later]

    def _json_doc(self, collisions: list) -> dict:
        stats = {k: v for k, v in self.stats.items() if k != "wall_time"}
        return {
            "poly": self.poly.to_json_dict(),
            "space": {"mode": self.space.mode, "height": self.space.height},
            "fingerprint_primes": list(self.primes),
            "collisions": collisions,
            "stats": stats,
            "checkpoint": self.checkpoint,
            "disclaimer": DISCLAIMER,
        }

    def to_json_dict(self) -> dict:
        return self._json_doc([
            [
                [rat_to_str(Fraction(x)), rat_to_str(Fraction(y))],
                [rat_to_str(Fraction(z)), rat_to_str(Fraction(w))],
                rat_to_str(Fraction(v)),
            ]
            for ((x, y), (z, w), v) in self.collisions
        ])

    def write_json(self, fh) -> None:
        """Write the report to fh as sorted, 2-space indented JSON with a final newline.

        The text is byte-equal to ``json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True) + "\\n"`` without building that dict: every field but
        the collision list goes through ``json.dumps``, and the collision
        list is written one row of pairs at a time from one template of that
        layout, with each axis value formatted once; "num/den" strings need
        no JSON escaping.
        """
        text = json.dumps(self._json_doc([]), indent=2, sort_keys=True) + "\n"
        if not self.classes:
            fh.write(text)
            return
        # No raw newline occurs inside a JSON string, so this is the key's own line.
        head, _, tail = text.partition('\n  "collisions": []')
        fh.write(head + '\n  "collisions": [')
        n = len(self._axis)
        axis = [rat_to_str(v) for v in self._axis]
        sep = ""
        for a, later, v in self._rows():
            x, y, value = axis[a // n], axis[a % n], rat_to_str(v)
            fh.write(sep)
            fh.write(",".join([
                _PAIR_JSON % (x, y, axis[b // n], axis[b % n], value) for b in later
            ]))
            sep = ","
        fh.write("\n  ]" + tail)

    def to_json_text(self) -> str:
        """The text ``write_json`` writes."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()


# One [[x, y], [z, w], value] entry of the collision list, laid out as
# json.dumps(indent=2) lays out depth 2 of the report.
_PAIR_JSON = (
    '\n    [\n      [\n        "%s",\n        "%s"\n      ],'
    '\n      [\n        "%s",\n        "%s"\n      ],\n      "%s"\n    ]'
)


def _default_shards(total: int) -> int:
    return 8 if total >= 20000 else 1


def find_collisions(
    poly: MultiPoly,
    space: SearchSpace,
    *,
    shards: int | None = None,
    workers: int = 1,
    primes: tuple[int, ...] = FINGERPRINT_PRIMES,
    checkpoint_path: str | None = None,
    resume: bool = False,
    stop_after_shards: int | None = None,
) -> CollisionReport:
    """Complete collision search over the space via the fingerprint join.

    The report's classes are exactly the sets of two or more inputs with
    one exact value.  Shards run one after another in this process; a
    shard count outside [1, inputs] raises ValueError, and so does any
    ``workers`` but 1, and so does ``resume`` without a
    ``checkpoint_path``.  ``stop_after_shards`` aborts after that many newly
    completed shards (checkpoint intact) and exists so interruption can be
    tested deterministically; a value below 1 raises ValueError before any
    work.
    """
    t0 = time.perf_counter()
    if resume and not checkpoint_path:
        raise ValueError("resume needs a checkpoint path to resume from")
    check_fingerprint_primes(primes)
    rows = compile_xy_terms(poly)
    axis = input_axis(space)
    n = len(axis)
    total = n * n
    shards = _default_shards(total) if shards is None else shards
    if not 1 <= shards <= total:
        raise ValueError(f"shard count must be in [1, {total}], got {shards}")
    if stop_after_shards is not None and stop_after_shards < 1:
        raise ValueError(f"stop_after_shards must be >= 1, got {stop_after_shards}")
    if workers != 1:
        raise ValueError(f"worker count must be 1: the collision join runs in one process, "
                         f"got {workers}")
    header = _checkpoint_header(poly, space, shards, primes)

    ranges = _shard_ranges(total, shards)
    completed: dict[int, list] = {}
    if checkpoint_path and resume and os.path.exists(checkpoint_path):
        completed = _load_checkpoint(checkpoint_path, header, ranges)

    pending = [s for s in range(shards) if s not in completed]
    encoded: dict[int, str] = {}
    for done_this_run, s in enumerate(pending, 1):
        completed[s] = _phase1_shard(rows, axis, *ranges[s], primes)
        if checkpoint_path:
            _write_checkpoint(checkpoint_path, header, completed, encoded)
        stopped = stop_after_shards is not None and done_this_run >= stop_after_shards
        if stopped and len(completed) < shards:
            raise SearchInterrupted(checkpoint_path or "<no checkpoint>")
    del encoded  # as large as the checkpoint, and the merge below does not read it

    # Candidates are the inputs whose first-prime slot occurs twice or more.
    # The slots, in index order, are counted and filtered by C loops; only
    # the distinct slots' counts are read in Python.  The filters are
    # skipped when every slot is distinct, the common case for an injective f.
    slots = list(chain.from_iterable(map(completed.pop, range(shards))))
    counts = Counter(slots)
    candidates = []
    if len(counts) < total:
        repeated = {s for s, k in counts.items() if k > 1}
        del counts  # as large as the slots, and the filter below does not read it
        candidates = list(compress(range(total), map(repeated.__contains__, slots)))
        del repeated

    # Bucket the candidates by full fingerprint, in ascending index order.
    buckets: dict[tuple, list[int]] = {}
    for fp, idx in zip(_candidate_fingerprints(rows, axis, primes, slots, candidates),
                       candidates):
        buckets.setdefault(fp, []).append(idx)
    del slots, candidates

    # Every member of a shared bucket is evaluated exactly once and grouped
    # by value.  Equal values have equal fingerprints, so each group lies in
    # one bucket and lists its members in ascending order.
    ev = make_evaluator(rows)
    confirmed = 0
    by_value: dict = {}
    for idxs in buckets.values():
        if len(idxs) > 1:
            confirmed += len(idxs)
            for idx in idxs:
                by_value.setdefault(ev(axis[idx // n], axis[idx % n]), []).append(idx)
    del buckets
    # Classes are disjoint, so tuple order compares least members only.
    classes = sorted((tuple(m), v) for v, m in by_value.items() if len(m) > 1)

    stats = {
        "inputs_evaluated": total,
        "fingerprint_candidates": confirmed,
        "exact_confirms": confirmed,
        "wall_time": time.perf_counter() - t0,
    }
    return CollisionReport(
        poly=poly,
        space=space,
        classes=classes,
        stats=stats,
        primes=primes,
        checkpoint=checkpoint_path,
        _axis=axis,
    )


def naive_collisions(poly: MultiPoly, space: SearchSpace) -> CollisionReport:
    """All-pairs oracle: group every input by its exact value, no fingerprints.

    Meant for small spaces (|inputs|^2 up to ~1e8); the report schema matches
    find_collisions so the two can be compared directly.
    """
    t0 = time.perf_counter()
    # Its own term-by-term sum, not the engine's make_evaluator, so a fault
    # there cannot pass on both sides.  Integer coefficients stay int, so
    # integer inputs give int values and rational inputs Fraction values.
    terms = [(ex, ey, c.numerator if c.denominator == 1 else c) for ex, ey, c in poly.xy_terms()]
    axis = input_axis(space)
    n = len(axis)
    by_value: dict = {}
    for idx in range(n * n):
        xv, yv = axis[idx // n], axis[idx % n]
        v = sum(c * xv**ex * yv**ey for ex, ey, c in terms)
        by_value.setdefault(v, []).append(idx)
    # Values enter the dict in order of their least input.
    classes = [(tuple(m), v) for v, m in by_value.items() if len(m) > 1]
    stats = {
        "inputs_evaluated": n * n,
        "fingerprint_candidates": 0,
        "exact_confirms": n * n,
        "wall_time": time.perf_counter() - t0,
    }
    return CollisionReport(
        poly=poly,
        space=space,
        classes=classes,
        stats=stats,
        primes=(),
        checkpoint=None,
        _axis=axis,
    )
