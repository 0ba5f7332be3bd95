"""Summing metrics, pole covers and exact sum-decomposition identities.

A limit-stage diamond splits, away from its poles, into summand slices.
Replacing cross-slice distances by detours through a chosen base point
gives the summing metric; the free space over it is the exact l1-sum of
the per-slice free spaces.  This module builds that metric, measures how
far it sits from the original one, constructs the two-sided pole cover
with its separation function, and checks the sum identities exactly on
concrete vectors.  The metric passes run on integer numerators, with a
``Fraction`` only for each reported constant and separation margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .diamond import DiamondLandmarks
from .freespace import FreeVector, norm_value
from .lipschitz import _dtype, _largest_ratio, _pair_blocks
from .metric import MetricSpace, _row_blocks, narrowest

__all__ = [
    "SummandPartition",
    "check_partition",
    "summing_metric",
    "EquivalenceReport",
    "equivalence_constants",
    "Cover",
    "build_cover",
    "cover_partition",
    "LimitDecomposition",
    "decompose_limit",
    "AdditivityReport",
    "ell1_additivity_check",
    "ProjectionReport",
    "projection_identity_check",
]

@dataclass(frozen=True)
class SummandPartition:
    """Disjoint summand index sets covering everything but the base."""

    base: int
    summands: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "summands",
                           tuple(tuple(s) for s in self.summands))

    def summand_of(self, idx: int) -> Optional[int]:
        for m, members in enumerate(self.summands):
            if idx in members:
                return m
        return None


def check_partition(space: MetricSpace, partition: SummandPartition) -> None:
    """Raise unless the partition is disjoint and covers all non-base points."""
    if not 0 <= partition.base < len(space):
        raise ValueError("partition base out of range")
    seen: set[int] = set()
    for members in partition.summands:
        for idx in members:
            if not 0 <= idx < len(space):
                raise ValueError(f"point index {idx} out of range")
            if idx == partition.base:
                raise ValueError("the base point belongs to no summand")
            if idx in seen:
                raise ValueError(f"point {idx} appears in two summands")
            seen.add(idx)
    if len(seen) != len(space) - 1:
        missing = sorted(set(range(len(space))) - seen - {partition.base})
        raise ValueError(f"points {missing} are not covered by any summand")


def summing_metric(space: MetricSpace,
                   partition: SummandPartition) -> MetricSpace:
    """Same points, with cross-summand travel rerouted through the base.

    Distances within a summand, and to the base point, are kept; a pair
    in distinct summands gets d(x, base) + d(base, y).  The result is the
    wedge sum at the base of the summand-plus-base subspaces, so it is a
    metric when ``space`` is.  ``space`` is checked once, with
    :meth:`MetricSpace.validate_metric`, which returns at once for a
    half made by :func:`cover_partition`.

    The result is written straight into its store, in the narrowest
    dtype that holds both the stored distances and the largest
    to-base plus the largest from-base distance, so no sum overflows
    it.  A block of rows at a time from ``metric._row_blocks``, at one
    mask byte an entry, its rows are copied and the cross-summand
    entries overwritten with their reroutes, so the only temporary is
    the block's cross mask.
    """
    check_partition(space, partition)
    space.validate_metric()
    base = partition.base
    owner = np.full(len(space), -1)
    for m, members in enumerate(partition.summands):
        owner[list(members)] = m
    # The base owns no summand, but its pairs keep their distance anyway:
    # d(x, base) + d(base, base) = d(x, base).
    mat, scale = space._stored()
    to_base, from_base = mat[:, base], mat[base]
    dtype = narrowest(0, max(space._peak,
                             int(to_base.max()) + int(from_base.max())))
    to_base, from_base = to_base.astype(dtype), from_base.astype(dtype)
    rerouted = np.empty(mat.shape, dtype=dtype)
    for rows in _row_blocks(len(space), len(space)):
        rerouted[rows] = mat[rows]
        np.add(to_base[rows, None], from_base, out=rerouted[rows],
               where=owner[rows, None] != owner)
    return MetricSpace._adopt(space.labels, rerouted, scale, base)


@dataclass(frozen=True)
class EquivalenceReport:
    """Extreme ratios original/summing over all point pairs."""

    c_low: Fraction
    c_high: Fraction
    low_pair: Optional[tuple[int, int]]
    high_pair: Optional[tuple[int, int]]


def equivalence_constants(original: MetricSpace,
                          summing: MetricSpace) -> EquivalenceReport:
    """Exact Lipschitz-equivalence constants between the two metrics.

    c_low and c_high bound d/d1 from below and above, each with its
    first witnessing pair i < j in row order.  A space with fewer than
    two points compares as (1, 1) with no witnesses.  Both come from the
    Dinkelbach kernel of :func:`~diamondlab.lipschitz.lip_constant`:
    c_high is the largest a/b and c_low minus the largest -a/b, over
    blocks of rows of the two numerator tables a and b, so no n×n
    temporary is formed.
    """
    if original.labels != summing.labels:
        raise ValueError("the two metrics must carry the same point set")
    n = len(original)
    if n < 2:
        return EquivalenceReport(Fraction(1), Fraction(1), None, None)
    # With b >= 1 and 0 <= a <= peak, every ratio a/b and -a/b exceeds
    # the start -(peak + 1), and every product of the iteration stays
    # below the bound.
    start = -original._peak - 1
    dtype = _dtype(-start * summing._peak)

    def pairs(sign: int):
        """Blocks of (sign * a, b) over the pairs i < j, with a and b the
        numerators of d and d1; every other entry is (0, 0)."""
        for lo, a, b in _pair_blocks(np.arange(n), dtype, original, summing):
            below = np.tri(*b.shape, dtype=bool)
            if ((b <= 0) & ~below).any():
                raise ValueError(
                    "the summing metric has a non-positive distance")
            a[below] = b[below] = 0
            yield lo, sign * a, b

    def extreme(sign: int) -> tuple[Fraction, tuple[int, int]]:
        """sign times the largest sign * d/d1, and its first pair."""
        p, q, (lo, i, j) = _largest_ratio(pairs(sign), start)
        # Pair (i, j) has ratio (a / b) * summing scale / original scale.
        return (sign * Fraction(p * summing._scale, q * original._scale),
                (lo + i, lo + j))

    (c_low, low_pair), (c_high, high_pair) = extreme(-1), extreme(1)
    return EquivalenceReport(c_low, c_high, low_pair, high_pair)


# ---------------------------------------------------------------------------
# the two-sided pole cover


@dataclass(frozen=True)
class Cover:
    """Pole-centred halves with the per-point separation margin.

    ``separation`` maps each point to dist(z, complement of bottom half)
    plus dist(z, complement of top half); a ``None`` value stands for an
    infinite term caused by an empty complement at tiny truncations and
    is reported as such rather than clamped.
    """

    bottom_half: tuple[int, ...]
    top_half: tuple[int, ...]
    separation: dict[int, Optional[Fraction]]

    @property
    def minimum(self) -> Optional[Fraction]:
        finite = [v for v in self.separation.values() if v is not None]
        return min(finite) if finite else None


def build_cover(space: MetricSpace, landmarks: DiamondLandmarks) -> Cover:
    """Open 3/2-balls around the poles, with exact separation margins.

    Only limit stages carry the summand structure the cover feeds into,
    so anything else is rejected.  Every point lands in at least one
    half because the poles sit at distance 2.
    """
    if not landmarks.summands:
        raise ValueError("the pole cover is defined for limit stages only")
    mat, scale = space._stored()
    # d < 3/2 is 2 * numerator < 3 * scale.
    halves = [2 * mat[:, pole].astype(np.int64) < 3 * scale
              for pole in (landmarks.bottom, landmarks.top)]
    if any(inside.all() for inside in halves):
        separation = dict.fromkeys(range(len(space)))
    else:
        # Distance from each point to each half's complement, summed, a
        # block of rows from ``metric._row_blocks`` at a time, each row
        # its stored entries in the complement's columns.
        margin = np.zeros(len(space), dtype=np.int64)
        for inside in halves:
            outside = ~inside
            for rows in _row_blocks(len(space),
                                    mat.itemsize * int(outside.sum())):
                margin[rows] += mat[rows][:, outside].min(axis=1)
        separation = {z: Fraction(v, scale)
                      for z, v in enumerate(margin.tolist())}
    return Cover(*(tuple(np.flatnonzero(inside).tolist())
                   for inside in halves), separation)


def cover_partition(space: MetricSpace, landmarks: DiamondLandmarks,
                    half: Sequence[int], pole: int
                    ) -> tuple[MetricSpace, tuple[int, ...], SummandPartition]:
    """Restrict to one cover half and partition it by summand slice.

    Returns the restricted space based at the pole, the new-to-old index
    map, and the partition whose m-th summand collects the points coming
    from the m-th summand of the limit construction.  Empty slices are
    kept so slice numbering matches the construction.  ``space`` is
    checked against the metric axioms first; the pass is kept on it, and
    the restriction inherits it.
    """
    members = set(half)
    if pole not in members:
        raise ValueError("the pole must belong to the chosen half")
    space.validate_metric()
    order = sorted(members)
    sub, kept = space.restrict(order, pole)
    # A point shared by several summand interiors goes to the first.
    poles = {landmarks.top, landmarks.bottom}
    slice_of: dict[int, int] = {}
    for m, info in enumerate(landmarks.summands):
        for p in info.injection:
            if p not in poles:
                slice_of.setdefault(p, m)
    slices: list[list[int]] = [[] for _ in landmarks.summands]
    for new_idx, old_idx in enumerate(kept):
        if old_idx == pole:
            continue
        m = slice_of.get(old_idx)
        if m is None:
            raise ValueError(f"point {space.label(old_idx)} belongs to no "
                             f"summand slice")
        slices[m].append(new_idx)
    partition = SummandPartition(sub.base_point,
                                 tuple(tuple(s) for s in slices))
    check_partition(sub, partition)
    return sub, kept, partition


@dataclass(frozen=True)
class LimitDecomposition:
    """A limit stage's pole cover, its bottom half ``sub`` based at the
    bottom pole with the slice partition and summing metric, and the
    equivalence constants between the two metrics on ``sub``."""

    cover: Cover
    sub: MetricSpace
    partition: SummandPartition
    summing: MetricSpace
    constants: EquivalenceReport


def decompose_limit(space: MetricSpace,
                    landmarks: DiamondLandmarks) -> LimitDecomposition:
    """Cover, bottom-half summing metric and constants of a limit stage."""
    cover = build_cover(space, landmarks)
    sub, _, partition = cover_partition(space, landmarks, cover.bottom_half,
                                        landmarks.bottom)
    summing = summing_metric(sub, partition)
    return LimitDecomposition(cover, sub, partition, summing,
                              equivalence_constants(sub, summing))


# ---------------------------------------------------------------------------
# exact sum identities


@dataclass(frozen=True)
class AdditivityReport:
    """One l1-additivity instance: whole norm vs sum of slice norms."""

    total: Fraction
    parts: tuple[Fraction, ...]
    passed: bool


def ell1_additivity_check(summing: MetricSpace, partition: SummandPartition,
                          vec: FreeVector) -> AdditivityReport:
    """Check that the summing norm splits exactly across summands.

    Each slice part is the vector's restriction to one summand, measured
    inside that summand plus the base (imbalances settle at the base).
    The norm reads only distances on its support plus the base, which
    the summing metric keeps from that subspace, so each part is
    measured on the summing space itself.  Equality is exact or the
    report fails; nothing is raised.
    """
    if vec.space is not summing:
        raise ValueError("vector must live over the summing-metric space")
    check_partition(summing, partition)
    if partition.base != summing.base_point:
        raise ValueError("partition and summing space differ in base point")
    total = norm_value(vec)
    parts = []
    for members in partition.summands:
        inside = set(members)
        parts.append(norm_value(FreeVector(
            summing, [(i, c) for i, c in vec.entries if i in inside])))
    return AdditivityReport(total, tuple(parts),
                            total == sum(parts, Fraction(0)))


@dataclass(frozen=True)
class ProjectionReport:
    """Norm splits under truncation to the first n summands, all n."""

    rows: tuple[tuple[int, Fraction, Fraction, Fraction], ...]
    passed: bool


def projection_identity_check(partition: SummandPartition,
                              vec: FreeVector) -> ProjectionReport:
    """Check norm(v) = norm(P_n v) + norm(v - P_n v) for every cut n.

    P_n keeps the entries in the first n summands; both sides balance at
    the base implicitly.  Exact over the summing metric, where the free
    space really is an l1-sum of the slices.
    """
    space = vec.space
    check_partition(space, partition)
    total = norm_value(vec)
    rows = []
    ok = True
    for n in range(len(partition.summands) + 1):
        head = set()
        for members in partition.summands[:n]:
            head.update(members)
        front = FreeVector(space, [(i, c) for i, c in vec.entries
                                   if i in head])
        lhs = norm_value(front)
        rhs = norm_value(vec - front)
        rows.append((n, total, lhs, rhs))
        if total != lhs + rhs:
            ok = False
    return ProjectionReport(tuple(rows), ok)

