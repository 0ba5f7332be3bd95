"""Finite metric spaces with exact rational distances.

Points are indexed 0..n-1 and carry string labels (canonical addresses for
diamond constructions, arbitrary names otherwise).  Distances are exact:
no floating point is used anywhere.

A space stores its distances once: integer numerators over one common
denominator, reduced so that no factor is shared by every entry and the
denominator, in the narrowest signed integer dtype that holds them all.
Every diamond stage through height 6 fits int8.  NumPy arithmetic on a
narrow dtype wraps silently (a sum of two int8 entries can), so the
store stays behind ``MetricSpace``.  Passes that compute on a few rows
or a block read fresh int64 numerators through ``MetricSpace._rows`` and
``MetricSpace._block``: the transport solver and its dual, the Lipschitz
kernels and distance functionals, and the equivalence constants of
summing metrics.  Only whole-table passes read the narrow store itself,
through ``MetricSpace._stored()``, and widen each block before
computing: validation, the edge scan, the closure, the builders, space
files, summing metrics and the pole cover.  ``integer_scaled()`` is the
public whole-table read, a fresh read-only int64 copy.
``distance(x, y)`` forms one ``Fraction`` on demand, and
``dist_matrix`` is a read-only ``Fraction`` table for the API boundary,
built on first access and then kept.

Exact values cross into ``Fraction`` through :func:`fraction`, a bounded
process-wide table from a reduced (numerator, denominator) pair to one
``Fraction`` object.  Distances, distance tables, closures, McShane
extensions and the values read from files all take their objects from
it, so equal values made in different places are usually the same
object, and comparing two equal tables short-circuits on identity.  The
objects are immutable, so sharing them is safe; a value that has left
the table is simply made again.

The numerator matrix is read-only, so a space never changes after it
is made, and two results are kept on it once known: the finest edges
(:func:`finest_edges` scans once per space) and a pass of
:meth:`MetricSpace.validate_metric`, after which the check returns at
once.  A restriction of a validated space is validated too, since every
axiom on a sub-table with distinct indices is an axiom of the parent
table.

:meth:`MetricSpace.from_scaled` builds a space from a copy of the
numerators it is given, and the plain constructor converts ``Fraction``
rows once, over the least common multiple of their denominators.  The
diamond builders, :meth:`MetricSpace.restrict`, summing metrics and the
space-file reader hand their freshly made arrays to the private
``MetricSpace._adopt``, which keeps them without a copy.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["MetricSpace", "MetricAxiomError", "finest_edges",
           "closure_numerators", "fraction", "exact"]

_INT64_SAFE = 1 << 60
# Temporaries of one row block: validation, the common factor of a new
# store, grouped closure steps and the ``lipschitz`` kernels.
_GROUP_BYTES = 1 << 18
# Integer tables with entries in [0, _TABLE_VALUES) convert them through
# one table indexed by value (see ``value_lookup``).
_TABLE_VALUES = 1 << 16
_NARROW = (np.int8, np.int16, np.int32, np.int64)
# Distinct values the shared Fraction table keeps, least recently used
# first out.
_SHARED_FRACTIONS = 1 << 16


def narrowest(low: int, high: int):
    """The narrowest signed integer dtype holding every value in
    [low, high]; object (Python ints) when int64 does not."""
    for dtype in _NARROW:
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return dtype
    return object


def wider(dtype):
    """The dtype with twice the bits of a store's ``dtype`` (int64 for
    int64): its entries are at most half its range, so a sum or
    difference of three of them fits."""
    return _NARROW[min(_NARROW.index(np.dtype(dtype).type) + 1, 3)]


@functools.lru_cache(maxsize=_SHARED_FRACTIONS)
def _shared(numerator: int, denominator: int) -> Fraction:
    return Fraction(numerator, denominator)


def fraction(numerator: int, denominator: int) -> Fraction:
    """``numerator / denominator`` as the shared ``Fraction`` of its value.

    Both arguments are Python ints and the denominator is positive.
    """
    common = math.gcd(numerator, denominator)
    return _shared(numerator // common, denominator // common)


def exact(value) -> Fraction:
    """``value`` as a ``Fraction``, accepting only exact rationals.

    ``int`` and ``Fraction`` (any ``numbers.Rational``) pass; a float, a
    ``Decimal`` or anything else raises ``TypeError`` instead of being
    rounded to the nearest binary fraction.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    raise TypeError(f"expected an exact rational (int or Fraction), got "
                    f"{type(value).__name__} {value!r}")


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
        self._store(labels, np.array([[v.numerator * (scale // v.denominator)
                                       for v in row] for row in rows],
                                     dtype=np.int64), scale, base_point)

    @classmethod
    def from_scaled(cls, labels: Sequence[str], numerators,
                    denominator: int, base_point: int) -> "MetricSpace":
        """Space with distances ``numerators[i][j] / denominator``.

        The numerators are copied, so the caller's array stays its own;
        an integer array keeps its dtype and anything else is read as
        int64.  The greatest common divisor of every entry and the
        denominator is divided out, so equal distances give an equal
        stored pair however they were scaled.  Raises ``OverflowError``
        when a reduced entry needs 60 bits or more.
        """
        given = (numerators.dtype if isinstance(numerators, np.ndarray)
                 and numerators.dtype.kind == "i" else np.int64)
        return cls._adopt(labels, np.array(numerators, dtype=given,
                                           order="C"),
                          denominator, base_point)

    @classmethod
    def _adopt(cls, labels: Sequence[str], mat: np.ndarray,
               denominator: int, base_point: int) -> "MetricSpace":
        """:meth:`from_scaled` without the copy: ``mat`` is a fresh
        C-order integer array that the caller hands over and no longer
        uses.  It is reduced in place, copied only when a narrower dtype
        holds its entries, and made read-only."""
        space = cls.__new__(cls)
        space._store(labels, mat, denominator, base_point)
        return space

    def _store(self, labels: Sequence[str], mat: np.ndarray,
               denominator: int, base_point: int) -> None:
        self._labels = tuple(str(x) for x in labels)
        n = len(self._labels)
        if len(set(self._labels)) != n:
            raise ValueError("point labels must be distinct")
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        if mat.shape != (n, n):
            raise ValueError("distance matrix shape does not match points")
        if not 0 <= base_point < n:
            raise ValueError("base point index out of range")
        self._base = base_point
        if denominator < 1:
            raise ValueError("denominator must be positive")
        # The common factor, a block of rows at a time, stopping once it
        # is 1, as it is in the first block of every diamond stage.
        common, step = denominator, max(1, _GROUP_BYTES // (8 * n))
        for lo in range(0, n, step):
            if common == 1:
                break
            common = math.gcd(common, int(np.gcd.reduce(mat[lo:lo + step],
                                                        axis=None)))
        if common > 1:
            mat //= common
            denominator //= common
        low, peak = int(mat.min()), int(mat.max())
        if peak >= _INT64_SAFE:
            raise OverflowError("scaled distances exceed the int64 range")
        # The largest numerator, at least 1, for the overflow bounds of
        # the ``lipschitz`` kernels.
        self._peak = max(1, peak)
        mat = mat.astype(narrowest(low, peak), copy=False)
        # Read-only, so no write can make the memos below stale.
        mat.flags.writeable = False
        self._scaled = (mat, denominator)
        self._view: Optional[tuple[tuple[Fraction, ...], ...]] = None
        # The result of ``finest_edges``, and whether ``validate_metric``
        # passed; both are kept once known.
        self._edges: Optional[tuple[tuple[int, int], ...]] = None
        self._validated = False
        # The solves of ``freespace`` (one per vector, with its
        # certificate once asked for) and the most recently used
        # adversary families of ``derivation``.  They live on the space
        # because their values hold the space: in a table keyed by the
        # space they would keep their own key alive.
        self._solve_cache: dict = {}
        self._family_cache: dict = {}

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
        return fraction(mat.item(x, y), scale)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no point labeled {label!r}") from None

    def label(self, x: int) -> str:
        return self._labels[x]

    # -- derived structures ------------------------------------------------

    def restrict(self, indices: Sequence[int], base: int
                 ) -> tuple["MetricSpace", tuple[int, ...]]:
        """Subspace on ``indices`` (kept in the given order).

        ``base`` must be one of the indices and becomes the subspace base;
        an index outside 0..n-1 raises ``IndexError``, as in
        :meth:`distance`.  Returns the subspace and the index map (new
        index -> old index).  A restriction of a validated space is
        validated: its axioms are axioms of this space.
        """
        idx = tuple(indices)
        if not all(0 <= i < len(self._labels) for i in idx):
            raise IndexError("point index out of range")
        if len(set(idx)) != len(idx):
            raise ValueError("restriction indices must be distinct")
        if base not in idx:
            raise ValueError("base must belong to the restriction")
        labels = [self._labels[i] for i in idx]
        mat, scale = self._scaled
        sub = MetricSpace._adopt(labels, mat[np.ix_(idx, idx)], scale,
                                 idx.index(base))
        sub._validated = self._validated
        return sub, idx

    def integer_scaled(self) -> tuple[np.ndarray, int]:
        """Distance matrix as int64 numerators over a common denominator.

        Every entry is below 2^60, so a sum of a few entries fits int64.
        The matrix is a read-only, C-order copy of the store, allocated
        on each call.
        """
        wide = self._rows()
        wide.flags.writeable = False
        return wide, self._scale

    @property
    def _scale(self) -> int:
        """The denominator of the stored numerators."""
        return self._scaled[1]

    def _rows(self, idx=None) -> np.ndarray:
        """Rows ``idx`` of the numerators (one row for an int, every row
        by default) as a fresh, writable, C-order int64 array."""
        mat = self._scaled[0]
        return (mat if idx is None else mat.take(idx, 0)).astype(np.int64)

    def _block(self, rows, cols, dtype=np.int64) -> np.ndarray:
        """The numerators from ``rows`` to ``cols`` as a fresh, writable
        int64 array, or an object array of Python ints for ``dtype``
        object."""
        return self._scaled[0].take(rows, 0).take(cols, 1).astype(dtype)

    def _row_bytes(self) -> int:
        """Bytes of one stored row: :meth:`_block` copies its rows whole
        before it takes their columns."""
        mat = self._scaled[0]
        return mat.shape[1] * mat.itemsize

    def _stored(self) -> tuple[np.ndarray, int]:
        """The stored numerators and their denominator, without a copy,
        for the whole-table passes.

        The matrix is read-only and in the narrowest signed integer dtype
        holding its entries, where NumPy arithmetic wraps silently: widen
        a block before computing with it.  Reading a few rows or a block
        goes through :meth:`_rows` or :meth:`_block` instead.
        """
        return self._scaled

    # -- validation --------------------------------------------------------

    def validate_metric(self) -> None:
        """Check the metric axioms exactly: the diagonal, symmetry and
        positivity a block of rows at a time, naming the first failing
        pair in row-major order, then triangles in :func:`finest_edges`.
        A pass is kept: later calls return at once.
        """
        if self._validated:
            return
        n = len(self)
        mat, _ = self._stored()
        d = self.distance
        if np.diagonal(mat).any():
            i = int(np.flatnonzero(np.diagonal(mat))[0])
            raise MetricAxiomError(f"d({i},{i}) != 0")
        step = max(1, _GROUP_BYTES // (8 * n))
        for lo in range(0, n, step):
            wrong = mat[lo:lo + step] != mat[:, lo:lo + step].T
            if wrong.any():
                i, j = divmod(lo * n + int(wrong.argmax()), n)
                raise MetricAxiomError(
                    f"asymmetry at ({i},{j}): {d(i, j)} vs {d(j, i)}")
        for lo in range(0, n, step):
            wrong = mat[lo:lo + step] <= 0
            np.fill_diagonal(wrong[:, lo:], False)
            if wrong.any():
                raise MetricAxiomError("d({},{}) is not positive".format(
                    *divmod(lo * n + int(wrong.argmax()), n)))
        finest_edges(self)
        self._validated = True

    def __repr__(self) -> str:
        return (f"MetricSpace({len(self)} points, "
                f"base={self._labels[self._base]!r})")


def value_lookup(array: np.ndarray, make: Callable[[int], object]
                 ) -> Callable[[np.ndarray], np.ndarray]:
    """A map from blocks of ``array`` to object arrays holding
    ``make(v)`` at each entry ``v``.

    Integer entries in [0, ``_TABLE_VALUES``), as the distances of every
    diamond stage are, index a table directly: one pass over ``array``, a
    block of rows at a time, marks the values present, and ``make`` runs
    once for each.  Other blocks are sorted, and ``make`` runs once per
    distinct value of each block.
    """
    if (array.dtype.kind == "i" and array.size and array.min() >= 0
            and array.max() < _TABLE_VALUES):
        present = np.zeros(int(array.max()) + 1, dtype=bool)
        step = max(1, _GROUP_BYTES // (8 * array[0].size))
        for lo in range(0, len(array), step):
            present[array[lo:lo + step]] = True
        table = np.empty(len(present), dtype=object)
        for v in np.flatnonzero(present).tolist():
            table[v] = make(v)
        return table.__getitem__

    def lookup(block: np.ndarray) -> np.ndarray:
        values, codes = np.unique(block, return_inverse=True)
        table = np.empty(len(values), dtype=object)
        for k, v in enumerate(values.tolist()):
            table[k] = make(v)
        return table[codes.reshape(block.shape)]

    return lookup


def fraction_rows(numerators: np.ndarray, denominator: int
                  ) -> Iterator[list[Fraction]]:
    """Rows of ``numerators / denominator`` as ``Fraction`` lists.

    Each distinct value is looked up once in the shared table, and its
    object is shared by every entry that holds it.  Rows are converted a
    block at a time, so the temporaries stay at a block.
    """
    lookup = value_lookup(numerators, lambda v: fraction(v, denominator))
    step = max(1, _GROUP_BYTES // (8 * max(1, numerators.shape[-1])))
    for lo in range(0, len(numerators), step):
        yield from lookup(numerators[lo:lo + step]).tolist()


def finest_edges(space: MetricSpace) -> tuple[tuple[int, int], ...]:
    """Pairs with no third point strictly between them: z is between x
    and y when d(x,z) + d(z,y) = d(x,y) with both summands positive.

    Row x is a greedy scan: the nearest point z not yet blocked is a
    finest neighbour, it blocks each y with d(x,z) + d(z,y) <= d(x,y),
    and d(x,z) + d(z,y) < d(x,y) raises ``MetricAxiomError``.  It takes
    O(|E|·n) time with O(n) temporaries and ends on any table.  On a
    symmetric, positive table the test is exact.  By induction on the
    distance, each pair has a path of picked arcs no longer than its
    distance, and the tested inequalities along any such path show none
    is shorter.  So the table is the shortest-path closure of the picked
    arcs, a metric, and a metric passes every test.

    The result is kept on the space and returned by later calls; a scan
    that raises keeps nothing.
    """
    if space._edges is None:
        space._edges = _scan_edges(space)
    return space._edges


def _scan_edges(space: MetricSpace) -> tuple[tuple[int, int], ...]:
    """The scan of :func:`finest_edges`, run afresh."""
    mat, _ = space._stored()
    n = len(space)
    wide = wider(mat.dtype)
    blocked = np.iinfo(wide).max
    out = []
    for i in range(n):
        row = mat[i].astype(wide)
        live = row.copy()
        live[i] = blocked
        while True:
            z = int(live.argmin())
            if live[z] == blocked:
                break
            if z > i:
                out.append((i, z))
            through = mat[z].astype(wide)
            through += row[z]
            j = int((through - row).argmin())
            if through[j] < row[j]:
                d, label = space.distance, space.label
                raise MetricAxiomError(
                    f"triangle violation: d({i},{j}) = {d(i, j)} between "
                    f"{label(i)} and {label(j)} exceeds d({i},{z}) + "
                    f"d({z},{j}) = {d(i, z) + d(z, j)} through {label(z)}")
            live[through <= row] = blocked
            live[z] = blocked
    out.sort()
    return tuple(out)


def closure_numerators(space: MetricSpace,
                       edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """All-pairs shortest paths over ``edges``, weighted by the space's
    distances, as numerators over its denominator.

    An edge ``(i, j)`` has length ``d(i, j)``; self-loops add nothing and
    the lightest of repeated edges counts.  Raises ``ValueError`` when
    the edges do not connect the space or one has a negative length.
    The sweeps run in the narrowest signed integer dtype holding a bound
    above every simple path (int16 at 779 points, int32 at 4,667), or on
    Python ints where that bound reaches 2^60.  An integer result comes
    back in the narrowest dtype holding its entries, as a store does
    (int8 on diamond stages through height 6), so widen it before
    computing with it.

    Label-correcting sweeps: every row starts at 0 on the diagonal and
    unreachable elsewhere, and a sweep lowers each row in turn to the best
    neighbour row plus the edge length.  Rows are visited in breadth-first
    order, alternately forwards and backwards, until a sweep lowers
    nothing.  Every entry is always the length of some path, and a sweep
    that changes nothing leaves no edge to relax, so the result is exact.
    A sweep costs O(|E|·n) time with O(deg·n) temporaries; a few sweeps
    suffice on diamond stages.
    """
    mat, _ = space._stored()
    n = len(space)
    # Longer than any simple path; a relaxation adds one more edge.
    inf = (space._peak + 1) * (n + 1)
    dtype = narrowest(0, inf + space._peak) if inf < _INT64_SAFE else object
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    if ends.size and (ends.min() < 0 or ends.max() >= n):
        raise IndexError("edge endpoint out of range")
    ends = ends[ends[:, 0] != ends[:, 1]]
    length = mat[ends[:, 0], ends[:, 1]].astype(dtype)
    if (length < 0).any():
        raise ValueError("edge has a negative length")
    # Both arcs of every edge, sorted by (tail, head).  A repeated arc
    # stays: the minimum over a row's arcs takes the lightest copy.
    tail = np.concatenate([ends[:, 0], ends[:, 1]])
    head = np.concatenate([ends[:, 1], ends[:, 0]])
    length = np.concatenate([length, length])
    order = np.lexsort((head, tail))
    tail, head, length = tail[order], head[order], length[order]
    cuts = np.searchsorted(tail, np.arange(n + 1))
    near = [head[cuts[v]:cuts[v + 1]].tolist() for v in range(n)]

    visit, seen = [0], {0}
    for v in visit:
        for u in near[v]:
            if u not in seen:
                seen.add(u)
                visit.append(u)
    if len(visit) < n:
        raise ValueError("edge set does not connect the space")

    # Consecutive rows of equal degree with no edge among them relax as
    # one group: none reads another's row, so a group step is exactly its
    # rows' steps in sweep order.  A group's temporaries stay under
    # _GROUP_BYTES, or one row's deg x n when that is larger.
    group_arcs = max(1, _GROUP_BYTES // (np.dtype(dtype).itemsize * n))
    groups, rows, inside = [], [], set()
    for v in visit:
        deg = len(near[v])
        if rows and (deg != len(near[rows[0]])
                     or deg * (len(rows) + 1) > group_arcs
                     or not inside.isdisjoint(near[v])):
            groups.append(rows)
            rows, inside = [], set()
        rows.append(v)
        inside.add(v)
    groups = [(np.array(rows), np.array([near[v] for v in rows], np.intp),
               np.stack([length[cuts[v]:cuts[v + 1], None] for v in rows]))
              for rows in groups + [rows]]

    d = np.full((n, n), inf, dtype=dtype)
    np.fill_diagonal(d, 0)
    lowered = n > 1
    while lowered:
        lowered = False
        for rows, near_rows, lengths in groups:
            best = d[near_rows]
            best += lengths
            best = best.min(axis=1)
            current = d[rows]
            if (best < current).any():
                d[rows] = np.minimum(current, best)
                lowered = True
        groups.reverse()
    if dtype is object:
        return d
    return d.astype(narrowest(0, int(d.max(initial=0))), copy=False)
