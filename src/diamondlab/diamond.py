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
private :meth:`MetricSpace._adopt`, which keeps it without a copy.  One
assembler (:func:`_stage`) writes every stage: outer vertices plus
pieces hung between two of them.  A successor stage's pieces are the
copies of its predecessor; it doubles its predecessor's denominator, so
the copies keep the predecessor's numerators.  A limit stage's pieces
are its summands, rescaled to the largest summand denominator.  The rest
of either matrix is pole detours.  The poles are points 0 and 1 of every
stage, so a stage's interior is its matrix from row and column 2 on.

Every point lies on a geodesic between the poles, which are 2 apart, so
no distance exceeds 2: going round through the nearer pole costs at
most 2.  Each matrix is therefore written in the narrowest dtype that
holds twice its denominator (int8 through height 6).  Its pole detours,
sums of two distances, are formed by one kernel for both kinds of stage
(:func:`_detours`), in the dtype that holds twice that (int16), a block
of rows at a time from ``metric._row_blocks``, like every other
whole-table pass.

Landmarks hold predecessor stores only: a successor stage keeps its
predecessor, and a limit stage keeps each summand's landmarks and
injection, so what its summands' landmarks keep are their own
predecessors.  A limit writes each summand straight into the summand's
diagonal block of its own matrix and rescales it there, so no summand
ever has a store.  Every build therefore peaks at its matrix, the
smaller stores its landmarks keep, and one detour block.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .metric import (MetricSpace, _FractionRows, _row_blocks,
                     closure_numerators, finest_edges, narrowest)
from .ordinal import (OrdinalNotation, ONE, format_ordinal,
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
# store, the smaller stores its landmarks keep and one detour block, so
# the largest admitted build stays well under 8 GB.  _MATRIX_BYTES also
# caps the stores that ``build_cached`` keeps.
_MATRIX_BYTES = 2 << 30
DEFAULT_BUDGET = math.isqrt(_MATRIX_BYTES // 8)
# The budget guard and ``estimate_points`` form a point count exactly
# while it has at most _COUNT_BITS bits (about 19,700 digits); a stage
# past that is refused with a lower bound on its count.
_COUNT_BITS = 1 << 16

# ---------------------------------------------------------------------------
# specs and addresses


@dataclass(frozen=True)
class DiamondSpec:
    """Construction parameters for one truncation."""

    alpha: OrdinalNotation
    branches: int
    limit_width: int = 3

    def __post_init__(self):
        # Integer fields pass through ``operator.index``: NumPy integers
        # become ints, and floats and strings raise TypeError.
        if not isinstance(self.alpha, OrdinalNotation):
            object.__setattr__(self, "alpha", OrdinalNotation.from_int(
                operator.index(self.alpha)))
        for name in ("branches", "limit_width"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
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


def _summands(spec: DiamondSpec) -> Iterator[DiamondSpec]:
    """The specs of a limit stage's summands, in order, each made when
    it is read."""
    return (replace(spec, alpha=fundamental_sequence(spec.alpha, m))
            for m in range(1, spec.limit_width + 1))


def _chain(alpha: OrdinalNotation) -> tuple[OrdinalNotation, int]:
    """``alpha`` as a head and the number of successor steps above it;
    the head is 1 or a limit."""
    expo, steps = alpha.terms[-1]
    if not expo.is_zero:
        return alpha, 0
    head = OrdinalNotation(alpha.terms[:-1])
    return (ONE, steps - 1) if head.is_zero else (head, steps)


def _shape(spec: DiamondSpec, cap: int,
           memo: Optional[dict] = None) -> tuple[int, bool, int]:
    """The point count of the stage of ``spec``, whether it is exact, and
    the stage's denominator, which is formed only with an exact count.

    A count past ``cap`` may come back as a lower bound that is still
    past it: a limit stops adding its summands once their points pass
    ``cap``, and a successor chain whose count would pass 2**b, with b
    the larger of ``_COUNT_BITS`` and the bit length of ``cap``, gives
    2**b without forming the count.

    A stage of interior q (its points other than the poles) has a
    successor of interior n + 2nq, so k steps above it have interior
    ((2n)^k ((2n - 1) q + n) - n) / (2n - 1), in closed form: a finite
    stage alpha has 2 + n((2n)^alpha - 1) / (2n - 1) points, and no
    height walks its chain.  A successor doubles its predecessor's
    denominator, and a limit takes its largest summand denominator,
    which is common to its summands, since every denominator is a power
    of two.

    A top-level call starts an empty ``memo`` and passes it down, so a
    nested limit walks each distinct summand once, and no shape
    outlives the call; :func:`_build` passes one ``memo`` through a
    whole build.
    """
    memo = {} if memo is None else memo
    if spec in memo:
        return memo[spec]
    n = spec.branches
    head, steps = _chain(spec.alpha)
    exact, scale = True, 1
    if head == ONE:
        interior = n
    else:
        interior = 0
        subs = _summands(replace(spec, alpha=head))
        for sub in subs:
            points, exact_sub, scale_sub = _shape(sub, cap, memo)
            interior, exact = interior + points - 2, exact and exact_sub
            scale = max(scale, scale_sub)
            if interior + 2 > cap:
                break
        # A count that stopped before the last summand is a lower bound.
        exact = exact and next(subs, None) is None
    bits = max(_COUNT_BITS, cap.bit_length())
    # The interior grows by at least 2n >= 2 ** floor(log2(2n)) a step.
    if steps * ((2 * n).bit_length() - 1) > bits:
        memo[spec] = 1 << bits, False, 0
    else:
        grow = (2 * n) ** steps
        interior = (grow * ((2 * n - 1) * interior + n) - n) // (2 * n - 1)
        memo[spec] = interior + 2, exact, scale << steps
    return memo[spec]


def estimate_points(spec: DiamondSpec) -> int:
    """Exact point count of ``build(spec)`` without building it.

    The count is taken with 2**_COUNT_BITS as its cap (see
    :func:`_shape`), and ``OverflowError`` names a lower bound on one that
    is not formed exactly; the budget guard of :func:`build` compares a
    count with the budget under a far smaller cap.
    """
    count, exact, _ = _shape(spec, 1 << _COUNT_BITS)
    if not exact:
        raise OverflowError(f"spec needs {_count_text(count, False)} "
                            f"points, too many to count exactly")
    return count


# ---------------------------------------------------------------------------
# construction


def _check_budget(spec: DiamondSpec, budget: int) -> None:
    """Refuse ``spec`` when its stage has more than ``budget`` points.

    The count is taken with the budget as its cap (see :func:`_shape`),
    so a stage far past it is refused in milliseconds.  The error's
    ``estimate`` is the exact count, or a lower bound on it past the
    budget, which the message then gives as "at least".
    """
    estimate, exact, _ = _shape(spec, budget)
    if estimate > budget:
        raise BudgetExceededError(
            f"spec needs {_count_text(estimate, exact)} points, "
            f"budget is {budget}", estimate=estimate, budget=budget)


def _count_text(count: int, exact: bool = True) -> str:
    """A positive ``count`` in digits ("at least" them when it is not
    ``exact``), or past 18 digits as a lower bound on its order of
    magnitude, such as "at least 8.7e1204", formed without a decimal
    conversion of the whole integer."""
    if count < 10 ** 18:
        return str(count) if exact else f"at least {count}"
    # floor(log10(count)), with the float's rounding corrected.
    exponent = int(math.log10(count))
    while 10 ** exponent > count:
        exponent -= 1
    while 10 ** (exponent + 1) <= count:
        exponent += 1
    lead = count // 10 ** (exponent - 1)
    return f"at least {lead // 10}.{lead % 10}e{exponent}"


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

    Sharing the object lets the solves and families kept on the space
    carry over between commands and checks.  The budget guard applies
    even on a cache hit, so behaviour does not depend on cache warmth.

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


def _build(spec: DiamondSpec, memo: Optional[dict] = None
           ) -> tuple[MetricSpace, DiamondLandmarks]:
    """The stage of ``spec``, past the budget guard.

    ``memo`` memoizes :func:`_shape` at the cap of
    :func:`estimate_points`.  A top-level call starts it empty and passes
    it down, into :func:`_stage` and the predecessor's build, so each
    distinct spec is walked once per build, and no memo outlives the
    call.
    """
    memo = {} if memo is None else memo
    labels, landmarks, mat = _stage(spec, memo)
    # _stage walked ``spec`` first, so its shape is in ``memo``.
    return (MetricSpace._adopt(labels, mat, memo[spec][2],
                               base_point=landmarks.ell), landmarks)


def _outer_labels(n: int) -> list[str]:
    return ["top", "bottom"] + [f"mid({i})" for i in range(1, n + 1)]


def _outer_numerators(n: int) -> np.ndarray:
    """Base-stage distances: poles 2 apart, each midpoint 1 from both
    poles and 2 from every other midpoint."""
    out = np.full((n + 2, n + 2), 2, dtype=np.int64)
    out[:2, 2:] = out[2:, :2] = 1
    np.fill_diagonal(out, 0)
    return out


def _detours(out: np.ndarray, to_a: np.ndarray, from_a: np.ndarray,
             to_b: np.ndarray, from_b: np.ndarray) -> None:
    """Fill ``out`` with the shorter of two pole detours: entry (i, j) is
    min(to_a[i] + from_a[j], to_b[i] + from_b[j]).

    The four vectors are already widened to a dtype that holds the sums.
    The sums are formed a block of rows from ``metric._row_blocks`` at a
    time, so each of the two temporaries stays within the budget (or one
    row, when that is larger).  Blocks four times as large made the
    alpha=6 and omega*2 builds about three times slower.
    """
    for rows in _row_blocks(len(out), to_a.itemsize * out.shape[1]):
        np.minimum(to_a[rows, None] + from_a, to_b[rows, None] + from_b,
                   out=out[rows])


def _stage(spec: DiamondSpec, memo: dict, out: Optional[np.ndarray] = None
           ) -> tuple[list[str], DiamondLandmarks, np.ndarray]:
    """Write the numerators of the stage of ``spec``, over its
    denominator, into ``out`` (a new matrix when None); return its
    labels, its landmarks and the matrix.  ``memo`` is the one memo of
    :func:`_build`.

    A stage is outer vertices plus pieces, each hung between two outer
    ends.  A successor's outer vertices are the base stage's, and its
    pieces are the 2n copies of its predecessor; a limit's outer vertices
    are the poles, and its pieces are its summands.  A piece meets the
    rest of the stage only at its ends, so every distance outside the
    pieces' diagonal blocks is the shorter of two end detours.
    """
    def shape(sub: DiamondSpec) -> tuple[int, bool, int]:
        return _shape(sub, 1 << _COUNT_BITS, memo)

    points, _, scale = shape(spec)
    # The matrix holds the diameter 2 * scale; detour sums, twice that.
    wide = narrowest(0, 4 * scale)
    if out is None:
        out = np.empty((points, points), dtype=narrowest(0, 2 * scale))
    n, alpha = spec.branches, spec.alpha
    # Each piece: its diagonal block lo:hi, its two ends, and its
    # points' distances to those ends, widened.
    pieces = []
    if alpha.is_limit:
        # A summand is written straight into its diagonal block, with its
        # poles on the two rows and columns before the block.  Those are
        # the poles or the previous summand's last points, so summands are
        # built last first.  Only its pole columns are kept, and the block
        # is rescaled in place to the common denominator.
        outer = np.array([[0, 2], [2, 0]]) * scale
        subs = list(_summands(spec))
        his = list(itertools.accumulate(
            (shape(sub)[0] - 2 for sub in subs), initial=2))
        labels = ["top", "bottom"] + [""] * (points - 2)
        summands = [None] * len(subs)
        for k in reversed(range(len(subs))):
            sub, lo, hi = subs[k], his[k], his[k + 1]
            sub_labels, sub_lm, block = _stage(sub, memo,
                                               out[lo - 2:hi, lo - 2:hi])
            factor = scale // shape(sub)[2]
            pieces.append(((lo, hi), (0, 1),
                           block[2:, 0].astype(wide) * factor,
                           block[2:, 1].astype(wide) * factor))
            if factor > 1:
                block[2:, 2:] *= factor
            prefix = _segment_text(("sum", sub.alpha)) + "/"
            labels[lo:hi] = [prefix + lab for lab in sub_labels[2:]]
            summands[k] = SummandInfo(sub.alpha, (0, 1, *range(lo, hi)),
                                      sub_lm)
        first = summands[0]
        landmarks = DiamondLandmarks(
            top=0, bottom=1, ell=first.injection[first.landmarks.ell],
            mids=tuple(first.injection[p] for p in first.landmarks.mids),
            summands=tuple(summands))
    else:
        # Copies keep the predecessor's numerators over twice its
        # denominator, which halves their distances.
        outer = _outer_numerators(n) * scale
        labels, subcopies, predecessor = _outer_labels(n), {}, None
        if alpha != ONE:
            pred_space, _ = predecessor = _build(
                replace(spec, alpha=alpha.predecessor()), memo)
            pred_mat = pred_space._stored()[0]
            m = len(pred_space) - 2
            to_top = pred_mat[2:, 0].astype(wide)
            to_bottom = pred_mat[2:, 1].astype(wide)
            # Copy (side, branch) replaces the outer edge between its
            # ends; outer vertices are 0 = top, 1 = bottom, 1 + i = mid(i).
            copies = [("+", j) for j in range(1, n + 1)]
            copies += [("-", i) for i in range(1, n + 1)]
            for k, (side, br) in enumerate(copies):
                ends = (0, 1 + br) if side == "+" else (1 + br, 1)
                lo = n + 2 + k * m
                prefix = _segment_text((side, br)) + "/"
                labels += [prefix + lab for lab in pred_space.labels[2:]]
                subcopies[side, br] = (*ends, *range(lo, lo + m))
                out[lo:lo + m, lo:lo + m] = pred_mat[2:, 2:]
                pieces.append(((lo, lo + m), ends, to_top, to_bottom))
        landmarks = DiamondLandmarks(
            top=0, bottom=1, ell=2, mids=tuple(range(2, n + 2)),
            subcopies=subcopies, predecessor=predecessor)

    n_outer = len(outer)
    out[:n_outer, :n_outer] = outer
    outer = outer.astype(wide)
    for (lo, hi), (a, b), to_a, to_b in pieces:
        _detours(out[:n_outer, lo:hi], outer[:, a], to_a, outer[:, b], to_b)
    out[n_outer:, :n_outer] = out[:n_outer, n_outer:].T
    # A piece point leaves its piece through one of its ends, so its row
    # off its own block is the better of the two end rows.
    for (lo, hi), (a, b), to_a, to_b in pieces:
        for cols in (slice(n_outer, lo), slice(hi, points)):
            _detours(out[lo:hi, cols], to_a, out[a, cols].astype(wide),
                     to_b, out[b, cols].astype(wide))
    return labels, landmarks, out


# ---------------------------------------------------------------------------
# derived structure


def shortest_path_closure(space: MetricSpace,
                          edges: Sequence[tuple[int, int]]
                          ) -> _FractionRows:
    """:func:`closure_numerators` as a read-only table of exact
    ``Fraction`` lists, formed a row at a time as they are read (see
    ``MetricSpace.dist_matrix``)."""
    return _FractionRows(closure_numerators(space, edges), space._scale,
                         list)
