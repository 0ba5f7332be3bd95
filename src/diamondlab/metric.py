"""Finite metric spaces with exact rational distances.

Points are indexed 0..n-1 and carry string labels (canonical addresses for
diamond constructions, arbitrary names otherwise).  Distances are exact:
no floating point is used anywhere.

A space stores its distances once, as ``integer_scaled()``: int64
numerators over one common denominator, reduced so that no factor is
shared by every entry and the denominator.  Every pass runs on it:
validation, edges, closures, restriction, summing metrics and cover
margins, space files, the Lipschitz kernels (constant, bound check,
McShane extension), and the transport solver with its dual potential.
``distance(x, y)`` forms one ``Fraction`` on demand, and ``dist_matrix``
is a read-only ``Fraction`` table for the API boundary, built on first
access with one object per distinct value and then kept.

:meth:`MetricSpace.from_scaled` builds a space from numerators; the
diamond builder and :meth:`MetricSpace.restrict` construct spaces this
way.  The plain constructor takes ``Fraction`` rows and converts them
once, over the least common multiple of their denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .sampling import Sampler

__all__ = ["MetricSpace", "MetricAxiomError"]

_INT64_SAFE = 1 << 60


class MetricAxiomError(ValueError):
    """The distance table violates a metric axiom; details in args."""


class MetricSpace:
    """Immutable finite metric space with a distinguished base point."""

    def __init__(self, labels: Sequence[str],
                 dist: Sequence[Sequence[Fraction]], base_point: int):
        n = len(labels)
        if len(dist) != n or any(len(row) != n for row in dist):
            raise ValueError("distance matrix shape does not match points")
        rows = [[Fraction(v) for v in row] for row in dist]
        scale = math.lcm(*(v.denominator for row in rows for v in row))
        self._store(labels, [[v.numerator * (scale // v.denominator)
                              for v in row] for row in rows],
                    scale, base_point)

    @classmethod
    def from_scaled(cls, labels: Sequence[str], numerators,
                    denominator: int, base_point: int) -> "MetricSpace":
        """Space with distances ``numerators[i][j] / denominator``.

        The greatest common divisor of every entry and the denominator is
        divided out, so equal distances give an equal stored pair however
        they were scaled.  Raises ``OverflowError`` when a reduced entry
        needs 60 bits or more.
        """
        space = cls.__new__(cls)
        space._store(labels, numerators, denominator, base_point)
        return space

    def _store(self, labels: Sequence[str], numerators, denominator: int,
               base_point: int) -> None:
        self._labels = tuple(str(x) for x in labels)
        n = len(self._labels)
        if len(set(self._labels)) != n:
            raise ValueError("point labels must be distinct")
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        mat = np.array(numerators, dtype=np.int64)
        if mat.shape != (n, n):
            raise ValueError("distance matrix shape does not match points")
        if not 0 <= base_point < n:
            raise ValueError("base point index out of range")
        self._base = base_point
        if denominator < 1:
            raise ValueError("denominator must be positive")
        common = math.gcd(denominator, int(np.gcd.reduce(mat.ravel())))
        if common > 1:
            mat //= common
            denominator //= common
        if int(mat.max()) >= _INT64_SAFE:
            raise OverflowError("scaled distances exceed the int64 range")
        self._scaled = (mat, denominator)
        self._view: Optional[tuple[tuple[Fraction, ...], ...]] = None

    # -- basic access ----------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def base_point(self) -> int:
        return self._base

    @property
    def dist_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """All distances as ``Fraction`` rows, built once on first use."""
        if self._view is None:
            self._view = tuple(map(tuple, fraction_rows(*self._scaled)))
        return self._view

    def __len__(self) -> int:
        return len(self._labels)

    def distance(self, x: int, y: int) -> Fraction:
        if not (0 <= x < len(self._labels) and 0 <= y < len(self._labels)):
            raise IndexError("point index out of range")
        mat, scale = self._scaled
        return Fraction(mat.item(x, y), scale)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no point labeled {label!r}") from None

    def label(self, x: int) -> str:
        return self._labels[x]

    def set_distance(self, x: int, subset: Iterable[int]) -> Optional[Fraction]:
        """min distance from x to a point set; None when the set is empty."""
        return min((self.distance(x, y) for y in subset), default=None)

    # -- derived structures ------------------------------------------------

    def restrict(self, indices: Sequence[int], base: int
                 ) -> tuple["MetricSpace", tuple[int, ...]]:
        """Subspace on ``indices`` (kept in the given order).

        ``base`` must be one of the indices and becomes the subspace base.
        Returns the subspace and the index map (new index -> old index).
        """
        idx = tuple(indices)
        if len(set(idx)) != len(idx):
            raise ValueError("restriction indices must be distinct")
        if base not in idx:
            raise ValueError("base must belong to the restriction")
        labels = [self._labels[i] for i in idx]
        mat, scale = self._scaled
        sub = MetricSpace.from_scaled(labels, mat[np.ix_(idx, idx)], scale,
                                      idx.index(base))
        return sub, idx

    def integer_scaled(self) -> tuple[np.ndarray, int]:
        """Distance matrix as int64 numerators over a common denominator.

        Every entry is below 2^60, so a sum of a few entries fits int64.
        """
        return self._scaled

    # -- validation --------------------------------------------------------

    def validate_metric(self, exhaustive_limit: int = 400,
                        sampler: Optional[Sampler] = None,
                        samples: int = 20000) -> None:
        """Check the metric axioms exactly.

        All pairs are always checked for symmetry, zero diagonal and
        positivity.  The triangle inequality is checked over all triples
        up to ``exhaustive_limit`` points and over ``samples`` sampled
        triples beyond that.
        """
        n = len(self)
        mat, _ = self._scaled
        d = self.distance
        if np.diagonal(mat).any():
            i = int(np.flatnonzero(np.diagonal(mat))[0])
            raise MetricAxiomError(f"d({i},{i}) != 0")
        if not np.array_equal(mat, mat.T):
            i, j = map(int, np.argwhere(mat != mat.T)[0])
            raise MetricAxiomError(
                f"asymmetry at ({i},{j}): {d(i, j)} vs {d(j, i)}")
        off = mat + np.eye(n, dtype=np.int64)
        if (off <= 0).any():
            i, j = map(int, np.argwhere(off <= 0)[0])
            raise MetricAxiomError(f"d({i},{j}) is not positive")
        if n <= exhaustive_limit:
            for k in range(n):
                bad = mat > mat[:, k, None] + mat[None, k, :]
                if bad.any():
                    i, j = map(int, np.argwhere(bad)[0])
                    raise MetricAxiomError(
                        f"triangle violation: d({i},{j}) = {d(i, j)}"
                        f" > d({i},{k}) + d({k},{j}) = {d(i, k) + d(k, j)}")
        else:
            rng = sampler or Sampler(0)
            for _ in range(samples):
                i, j, k = (rng.below(n) for _ in range(3))
                if mat[i, j] > mat[i, k] + mat[k, j]:
                    raise MetricAxiomError(
                        f"triangle violation at sampled triple ({i},{j},{k})")

    def __repr__(self) -> str:
        return (f"MetricSpace({len(self)} points, "
                f"base={self._labels[self._base]!r})")


def distinct_values(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of ``array``, and for each entry, in
    flattened order, the index of its value among them.

    This is ``np.unique(array, return_inverse=True)``, which is several
    times slower than a search on large arrays.
    """
    flat = array.ravel()
    values = np.unique(flat)
    return values, np.searchsorted(values, flat)


def fraction_rows(numerators: np.ndarray, denominator: int
                  ) -> list[list[Fraction]]:
    """Rows of ``numerators / denominator`` as ``Fraction`` lists.

    One ``Fraction`` is made per distinct value and shared by every entry
    that holds it.
    """
    values, codes = distinct_values(numerators)
    table = np.empty(len(values), dtype=object)
    table[:] = [Fraction(int(v), denominator) for v in values.tolist()]
    return table[codes].reshape(numerators.shape).tolist()
