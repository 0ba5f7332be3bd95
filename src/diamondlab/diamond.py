"""Recursive diamond metric spaces with exact dyadic distances.

The base stage ``alpha = 1`` is a two-pole graph: ``top`` and ``bottom`` at
distance 2 and ``branches`` midpoints at distance 1 from each pole.  A
successor stage replaces each of the ``2n`` pole-to-midpoint edges with a
half-scaled copy of the previous stage, identifying the copy poles with the
edge endpoints.  A limit stage materializes ``limit_width`` entries of the
fundamental sequence and glues them along shared poles, with cross-summand
distances given by the shorter pole detour.

Every point carries a canonical address.  Identified poles resolve to the
outermost name, so addresses are unique; the point order (poles, midpoints,
then copies in ``(side, branch)`` order) is part of the format contract.

All construction distances are dyadic.  Each stage is therefore built
as a numerator matrix over a power-of-two denominator and handed to the
private :meth:`MetricSpace._adopt`, which keeps it without a copy.  A
successor stage doubles its predecessor's denominator, so the copies
keep the predecessor's numerators; the rest of its matrix is pole
detours.  A limit stage rescales its summands to the largest summand
denominator.  The poles are points 0 and 1 of every stage, so a stage's
interior is its matrix from row and column 2 on.

Every point lies on a geodesic between the poles, which are 2 apart, so
no distance exceeds 2: going round through the nearer pole costs at
most 2.  Each matrix is therefore written in the narrowest dtype that
holds twice its denominator (int8 through height 6).  Its pole detours,
sums of two distances, are formed by one kernel for both kinds of stage
(:func:`_detours`), in the dtype that holds twice that (int16), a block
of rows at a time.

Landmarks hold predecessor stores only: a successor stage keeps its
predecessor, and a limit stage keeps each summand's landmarks and
injection but not the summand's store, so what its summands' landmarks
keep are their own predecessors.  A successor build therefore peaks at
its matrix, the smaller stores its landmarks keep, and one block.  A
limit build peaks while its summands coexist with its new matrix, and
holds less once it returns.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .metric import (MetricSpace, closure_numerators, finest_edges,
                     fraction_rows, narrowest)
from .ordinal import (OrdinalNotation, ZERO, ONE, format_ordinal,
                      fundamental_sequence, parse_ordinal)

__all__ = [
    "DiamondSpec",
    "PointAddress",
    "DiamondLandmarks",
    "SummandInfo",
    "DEFAULT_BUDGET",
    "estimate_points",
    "build",
    "finest_edges",
    "build_cached",
    "closure_numerators",
    "shortest_path_closure",
    "parse_address",
]

# The default budget admits an int64 matrix of at most _MATRIX_BYTES
# (16,384 points), whatever dtype the store takes.  A build peaks at its
# store, the smaller stores its landmarks keep (or, for a limit, its
# summands) and one detour block, so the largest admitted build stays
# well under 8 GB.  _MATRIX_BYTES also caps the stores that
# ``build_cached`` keeps.
_MATRIX_BYTES = 2 << 30
DEFAULT_BUDGET = math.isqrt(_MATRIX_BYTES // 8)
# Temporaries of one block of pole detours.
_DETOUR_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# specs and addresses


@dataclass(frozen=True)
class DiamondSpec:
    """Construction parameters for one truncation."""

    alpha: OrdinalNotation
    branches: int
    limit_width: int = 3

    def __post_init__(self):
        if isinstance(self.alpha, int):
            object.__setattr__(self, "alpha",
                               OrdinalNotation.from_int(self.alpha))
        if self.alpha.is_zero:
            raise ValueError("alpha must be positive")
        if self.branches < 2:
            raise ValueError("at least two branches are required")
        if self.limit_width < 1:
            raise ValueError("limit width must be >= 1")


@dataclass(frozen=True)
class PointAddress:
    """Canonical location of a point: copy path plus a terminal name.

    Path segments are ``("+", j)`` and ``("-", i)`` for successor-stage
    copies and ``("sum", beta)`` for limit-stage summands.  Terminals are
    ``("top",)``, ``("bottom",)`` or ``("mid", i)``.
    """

    path: tuple[tuple, ...] = ()
    terminal: tuple = ("top",)

    def __str__(self) -> str:
        parts = [_segment_text(seg) for seg in self.path]
        t = self.terminal
        parts.append(t[0] if t[0] in ("top", "bottom") else f"mid({t[1]})")
        return "/".join(parts)


def _segment_text(seg: tuple) -> str:
    if seg[0] == "sum":
        return f"sum({format_ordinal(seg[1])})"
    return f"{seg[0]}({seg[1]})"


_SEG_RE = re.compile(r"^([+-])\((\d+)\)$")
_SUM_RE = re.compile(r"^sum\((.+)\)$")
_MID_RE = re.compile(r"^mid\((\d+)\)$")


def parse_address(text: str) -> PointAddress:
    parts = text.split("/")
    path = []
    for part in parts[:-1]:
        m = _SEG_RE.match(part)
        if m:
            path.append((m.group(1), int(m.group(2))))
            continue
        m = _SUM_RE.match(part)
        if m:
            path.append(("sum", parse_ordinal(m.group(1))))
            continue
        raise ValueError(f"bad address segment {part!r}")
    last = parts[-1]
    if last in ("top", "bottom"):
        terminal: tuple = (last,)
    else:
        m = _MID_RE.match(last)
        if not m:
            raise ValueError(f"bad address terminal {last!r}")
        terminal = ("mid", int(m.group(1)))
    return PointAddress(tuple(path), terminal)


@dataclass(frozen=True)
class SummandInfo:
    """One materialized limit-stage summand: its ordinal, the injection
    of its points (in the summand's own order) into the limit stage, and
    its landmarks.  The summand's store is not kept: its distances are
    the limit stage's own on the injection's image."""

    ordinal: OrdinalNotation
    injection: tuple[int, ...]
    landmarks: "DiamondLandmarks"


@dataclass(frozen=True, eq=False)
class DiamondLandmarks:
    """Named points and substructure embeddings of one built stage.

    ``subcopies`` maps ``(side, branch)`` to the index injection of the
    half-scaled predecessor copy (successor stages only).  ``summands``
    lists the glued summand embeddings (limit stages only).  ``ell`` is
    always ``mids[0]``, the base point of the stage.
    """

    top: int
    bottom: int
    ell: int
    mids: tuple[int, ...]
    subcopies: dict = field(default_factory=dict)
    summands: tuple[SummandInfo, ...] = ()
    predecessor: Optional[tuple[MetricSpace, "DiamondLandmarks"]] = None


# ---------------------------------------------------------------------------
# size estimation


def estimate_points(spec: DiamondSpec) -> int:
    """Exact point count of ``build(spec)`` without building it."""
    memo: dict[OrdinalNotation, int] = {}

    def count(alpha: OrdinalNotation) -> int:
        got = memo.get(alpha)
        if got is not None:
            return got
        if alpha == ONE:
            val = spec.branches + 2
        elif alpha.is_successor:
            val = 2 + spec.branches + 2 * spec.branches * (
                count(alpha.predecessor()) - 2)
        else:
            val = 2 + sum(
                count(fundamental_sequence(alpha, m)) - 2
                for m in range(1, spec.limit_width + 1))
        memo[alpha] = val
        return val

    return count(spec.alpha)


# ---------------------------------------------------------------------------
# construction


def _check_budget(spec: DiamondSpec, budget: int) -> None:
    estimate = estimate_points(spec)
    if estimate > budget:
        raise BudgetExceededError(
            f"spec needs {estimate} points, budget is {budget}",
            estimate=estimate, budget=budget)


def build(spec: DiamondSpec, budget: int = DEFAULT_BUDGET
          ) -> tuple[MetricSpace, DiamondLandmarks]:
    """Build the truncation described by ``spec``.

    Raises :class:`BudgetExceededError` before allocating anything when the
    exact point count would exceed ``budget``.
    """
    _check_budget(spec, budget)
    return _build(spec)


# Built stages by spec, least recently used first; their stores together
# hold at most _MATRIX_BYTES, beyond the newest.
_build_cache: dict[DiamondSpec, tuple[MetricSpace, DiamondLandmarks]] = {}


def build_cached(spec: DiamondSpec, budget: int = DEFAULT_BUDGET
                 ) -> tuple[MetricSpace, DiamondLandmarks]:
    """Like :func:`build`, but reuse one space object per spec.

    Sharing the object lets norm caches keyed on space identity carry
    over between commands and checks.  The budget guard applies even on
    a cache hit, so behaviour does not depend on cache warmth.

    The cache keeps the most recently used stages whose stores sum to at
    most ``_MATRIX_BYTES`` (the predecessor stores that a stage's
    landmarks hold are smaller than its own).  A stage evicted to make
    room is built afresh, as a new object, when it is asked for again.
    """
    _check_budget(spec, budget)
    hit = _build_cache.pop(spec, None)
    if hit is None:
        hit = _build(spec)
    _build_cache[spec] = hit
    held = sum(space._stored()[0].nbytes for space, _ in _build_cache.values())
    while held > _MATRIX_BYTES and len(_build_cache) > 1:
        oldest = next(iter(_build_cache))
        held -= _build_cache.pop(oldest)[0]._stored()[0].nbytes
    return hit


def _build(spec: DiamondSpec) -> tuple[MetricSpace, DiamondLandmarks]:
    if spec.alpha == ONE:
        return _build_base(spec.branches)
    if spec.alpha.is_successor:
        return _build_successor(spec)
    return _build_limit(spec)


def _dtypes(scale: int) -> tuple:
    """The matrix dtype of a stage over ``scale``, holding its diameter
    2 * scale, and the dtype of its detour sums, holding twice that."""
    return narrowest(0, 2 * scale), narrowest(0, 4 * scale)


def _outer_labels(n: int) -> list[str]:
    return ["top", "bottom"] + [f"mid({i})" for i in range(1, n + 1)]


def _outer_numerators(n: int) -> np.ndarray:
    """Base-stage distances: poles 2 apart, each midpoint 1 from both
    poles and 2 from every other midpoint."""
    out = np.full((n + 2, n + 2), 2, dtype=np.int64)
    out[:2, 2:] = out[2:, :2] = 1
    np.fill_diagonal(out, 0)
    return out


def _build_base(n: int) -> tuple[MetricSpace, DiamondLandmarks]:
    landmarks = DiamondLandmarks(
        top=0, bottom=1, ell=2, mids=tuple(range(2, n + 2)))
    return (MetricSpace._adopt(_outer_labels(n), _outer_numerators(n),
                               1, base_point=2), landmarks)


def _detours(out: np.ndarray, to_a: np.ndarray, from_a: np.ndarray,
             to_b: np.ndarray, from_b: np.ndarray) -> None:
    """Fill ``out`` with the shorter of two pole detours: entry (i, j) is
    min(to_a[i] + from_a[j], to_b[i] + from_b[j]).

    The four vectors are already widened to a dtype that holds the sums.
    The sums are formed a block of rows at a time, so the temporaries
    stay under ``_DETOUR_BYTES`` (or one row, when that is larger).
    """
    step = max(1, _DETOUR_BYTES // (to_a.itemsize * out.shape[1]))
    for lo in range(0, len(out), step):
        hi = lo + step
        np.minimum(to_a[lo:hi, None] + from_a, to_b[lo:hi, None] + from_b,
                   out=out[lo:hi])


def _build_successor(spec: DiamondSpec) -> tuple[MetricSpace, DiamondLandmarks]:
    n = spec.branches
    pred_spec = DiamondSpec(spec.alpha.predecessor(), n, spec.limit_width)
    pred_space, pred_lm = _build(pred_spec)
    pred_mat, pred_scale = pred_space._stored()
    m = len(pred_space) - 2  # the predecessor's interior, from point 2 on

    # Copy (side, branch) replaces the outer edge between its two ends;
    # outer vertices are 0 = top, 1 = bottom and 1 + i = mid(i).
    copies = [("+", j) for j in range(1, n + 1)]
    copies += [("-", i) for i in range(1, n + 1)]
    ends = [(0, 1 + br) if side == "+" else (1 + br, 1)
            for side, br in copies]

    n_outer = n + 2
    size = n_outer + len(copies) * m
    labels = _outer_labels(n)
    pred_labels = pred_space.labels[2:]
    injections: dict[tuple, tuple[int, ...]] = {}
    for k, copy in enumerate(copies):
        prefix = _segment_text(copy) + "/"
        labels += [prefix + lab for lab in pred_labels]
        start = n_outer + k * m
        injections[copy] = (*ends[k], *range(start, start + m))

    # Numerators over 2 * pred_scale: copies keep the predecessor's
    # numerators, which halves their distances; outer distances double.
    dtype, wide = _dtypes(2 * pred_scale)
    dt = pred_mat[2:, 0].astype(wide)
    db = pred_mat[2:, 1].astype(wide)
    outer = (_outer_numerators(n) * (2 * pred_scale)).astype(wide)
    dist = np.empty((size, size), dtype=dtype)
    dist[:n_outer, :n_outer] = outer
    # Outer vertex to a copy point: through the nearer copy pole.
    for k, (te, be) in enumerate(ends):
        block = slice(n_outer + k * m, n_outer + (k + 1) * m)
        _detours(dist[:n_outer, block], outer[:, te], dt, outer[:, be], db)
    dist[n_outer:, :n_outer] = dist[:n_outer, n_outer:].T
    # A copy point leaves its copy through one of its poles, so its row is
    # the better of the two pole rows; that is the minimum of the four
    # pole-detour terms on every other copy.  Its own copy is the
    # predecessor's interior block.
    for k, (te, be) in enumerate(ends):
        block = slice(n_outer + k * m, n_outer + (k + 1) * m)
        _detours(dist[block, n_outer:], dt, dist[te, n_outer:].astype(wide),
                 db, dist[be, n_outer:].astype(wide))
        dist[block, block] = pred_mat[2:, 2:]

    landmarks = DiamondLandmarks(
        top=0, bottom=1, ell=2, mids=tuple(range(2, n + 2)),
        subcopies=injections, predecessor=(pred_space, pred_lm))
    return (MetricSpace._adopt(labels, dist, 2 * pred_scale, base_point=2),
            landmarks)


def _build_limit(spec: DiamondSpec) -> tuple[MetricSpace, DiamondLandmarks]:
    betas = [fundamental_sequence(spec.alpha, m)
             for m in range(1, spec.limit_width + 1)]
    builds = [_build(DiamondSpec(beta, spec.branches, spec.limit_width))
              for beta in betas]
    # Summand denominators are powers of two, so the largest is common.
    scale = max(bspace._scale for bspace, _ in builds)
    dtype, wide = _dtypes(scale)

    labels = ["top", "bottom"]
    injections: list[tuple[int, ...]] = []
    # Each summand's interior distances to the two poles, rescaled.
    tops, bottoms = [], []
    for (bspace, _), beta in zip(builds, betas):
        prefix = _segment_text(("sum", beta)) + "/"
        start = len(labels)
        labels += [prefix + lab for lab in bspace.labels[2:]]
        injections.append((0, 1, *range(start, len(labels))))
        bmat, bscale = bspace._stored()
        tops.append(bmat[2:, 0].astype(wide) * (scale // bscale))
        bottoms.append(bmat[2:, 1].astype(wide) * (scale // bscale))
    dtop, dbot = np.concatenate(tops), np.concatenate(bottoms)

    size = len(labels)
    dist = np.empty((size, size), dtype=dtype)
    dist[:2, :2] = [[0, 2 * scale], [2 * scale, 0]]
    dist[2:, 0] = dist[0, 2:] = dtop
    dist[2:, 1] = dist[1, 2:] = dbot
    # Summands share only the poles, so a cross-summand pair takes the
    # shorter pole detour; within a summand its own distances hold.
    _detours(dist[2:, 2:], dtop, dtop, dbot, dbot)
    for (bspace, _), inj in zip(builds, injections):
        bmat, bscale = bspace._stored()
        inner = slice(inj[2], inj[2] + len(bspace) - 2)
        dist[inner, inner] = bmat[2:, 2:]
        dist[inner, inner] *= scale // bscale

    first_lm = builds[0][1]
    inj0 = injections[0]
    landmarks = DiamondLandmarks(
        top=0, bottom=1,
        ell=inj0[first_lm.ell],
        mids=tuple(inj0[p] for p in first_lm.mids),
        summands=tuple(
            SummandInfo(beta, inj, blm)
            for beta, inj, (_, blm) in zip(betas, injections, builds)))
    return (MetricSpace._adopt(labels, dist, scale,
                               base_point=landmarks.ell), landmarks)


# ---------------------------------------------------------------------------
# derived structure


def shortest_path_closure(space: MetricSpace,
                          edges: Sequence[tuple[int, int]]
                          ) -> list[list[Fraction]]:
    """:func:`closure_numerators` as exact ``Fraction`` rows."""
    return list(fraction_rows(closure_numerators(space, edges),
                              space._scale))
