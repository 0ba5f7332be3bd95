"""Exact-rational Lipschitz functions on finite metric spaces.

Functions may be partial; :func:`mcshane_extend` produces the largest
total extension with the same Lipschitz constant.  All values and
constants are :class:`~fractions.Fraction`, so constants like "exactly 1"
are meaningful statements, not tolerance checks; values and scalars must
be ``int`` or ``Fraction``, and anything else raises ``TypeError``.

A function is stored as integers only: its sorted domain, value
numerators and one denominator ``Q`` sharing no factor with them all
(:meth:`LipschitzFunction.integer_scaled`).  The public constructor
converts the values it is given; the operations that compute in integers
(McShane extension, distance functionals, ``shift``, ``scale``, transport
duals and the transcript reader) hand theirs over.  ``(index,
Fraction)`` entries and values are formed on demand, as shared objects
of :func:`~diamondlab.metric.fraction`.  The kernels
(:func:`lip_constant`, :func:`is_lipschitz_at_most`,
:func:`mcshane_extend`) and free-vector pairing read the integers,
together with the space's distance numerators over its denominator
``S``.  Pairs, and the points an extension fills, are visited in blocks
of rows from ``metric._row_blocks``, sized from the bytes of a block row
and of a stored row, each read as a fresh block
(``MetricSpace._block``): int64 when a bound computed up front proves
that no product can overflow, and Python-int object arrays otherwise; no
floating point is used.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Optional

import numpy as np

from .metric import MetricSpace, _row_blocks, exact, fraction

__all__ = [
    "LipschitzFunction",
    "lip_constant",
    "is_lipschitz_at_most",
    "mcshane_extend",
    "glue_poles",
    "pull_to_copy",
    "distance_functional",
]

_HALF = Fraction(1, 2)
_ZERO = Fraction(0)

# Every int64 operand stays below this, so one sum of two cannot overflow.
_INT64_BOUND = 1 << 62


class LipschitzFunction:
    """A rational-valued function on a subset of a metric space.

    A function is its sorted domain (an intp array), integer value
    numerators and one positive denominator sharing no factor with them
    all (:meth:`integer_scaled`).  Equal functions have equal integers,
    so equality and hashing work on them; ``entries`` and the by-index
    map behind ``value`` are built on first use, from the shared values
    of :func:`~diamondlab.metric.fraction`.
    """

    __slots__ = ("_space", "_idx", "_num", "_den", "_peak", "_lip",
                 "_entries", "_by_index")

    def __init__(self, space: MetricSpace,
                 values: Mapping[int, Fraction] | Iterable[tuple[int, Fraction]]):
        items = values.items() if isinstance(values, Mapping) else values
        ratios = []
        seen = set()
        for idx, val in items:
            idx = operator.index(idx)
            if not 0 <= idx < len(space):
                raise IndexError(f"point index {idx} out of range")
            if idx in seen:
                raise ValueError(f"duplicate value for point {idx}")
            seen.add(idx)
            v = exact(val)
            ratios.append((idx, v.numerator, v.denominator))
        ratios.sort()
        den = math.lcm(*(q for _, _, q in ratios))
        self._assign(space, np.array([i for i, _, _ in ratios], dtype=np.intp),
                     [p * (den // q) for _, p, q in ratios], den, None)

    def _assign(self, space: MetricSpace, domain: np.ndarray, nums: list[int],
                den: int, lip: Optional[Fraction]) -> None:
        common = math.gcd(den, *nums)
        if common > 1:
            nums = [n // common for n in nums]
            den //= common
        self._space = space
        self._idx = domain
        self._num = tuple(nums)
        self._den = den
        self._peak: Optional[int] = None
        self._lip = lip
        self._entries: Optional[tuple[tuple[int, Fraction], ...]] = None
        self._by_index: Optional[dict[int, int]] = None

    @classmethod
    def _from_numerators(cls, space: MetricSpace, domain: np.ndarray,
                         nums: list[int], den: int,
                         lip: Optional[Fraction] = None
                         ) -> "LipschitzFunction":
        """Trusted constructor from value numerators over one positive
        denominator: ``domain`` is an intp array of sorted distinct
        in-range indices and ``nums`` Python ints, taken without checks
        and with their common factor divided out; ``lip`` is a known
        constant or None."""
        func = cls.__new__(cls)
        func._assign(space, domain, nums, den, lip)
        return func

    @property
    def space(self) -> MetricSpace:
        return self._space

    def integer_scaled(self) -> tuple[np.ndarray, tuple[int, ...], int]:
        """Domain indices, value numerators and their common denominator."""
        return self._idx, self._num, self._den

    @property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        if self._entries is None:
            den = self._den
            shared = {n: fraction(n, den) for n in set(self._num)}
            self._entries = tuple(zip(self._idx.tolist(),
                                      map(shared.__getitem__, self._num)))
        return self._entries

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(self._idx.tolist())

    @property
    def is_total(self) -> bool:
        return len(self._num) == len(self._space)

    def _position(self, idx: int) -> Optional[int]:
        """Where ``idx`` sits in the domain, or None outside it.  A total
        function's domain is every index in order; a partial one looks
        its points up in the by-index map, built on first use."""
        if self.is_total:
            return idx if 0 <= idx < len(self._num) else None
        if self._by_index is None:
            self._by_index = dict(zip(self._idx.tolist(),
                                      range(len(self._num))))
        return self._by_index.get(idx)

    def value(self, idx: int) -> Fraction:
        pos = self._position(idx)
        if pos is None:
            raise KeyError(idx)
        return fraction(self._num[pos], self._den)

    def defined_at(self, idx: int) -> bool:
        return self._position(idx) is not None

    def shift(self, offset: Fraction) -> "LipschitzFunction":
        """Add ``offset`` to every value, on the integers."""
        off = exact(offset)
        p, q = off.numerator, off.denominator
        den = self._den
        return LipschitzFunction._from_numerators(
            self._space, self._idx, [n * q + p * den for n in self._num],
            den * q, self._lip)

    def shifted_to_vanish(self, idx: int) -> "LipschitzFunction":
        """Subtract the value at ``idx`` so the result vanishes there."""
        return self.shift(-self.value(idx))

    def scale(self, factor: Fraction) -> "LipschitzFunction":
        """Multiply every value by ``factor``, on the integers."""
        fac = exact(factor)
        lip = None if self._lip is None else self._lip * abs(fac)
        p = fac.numerator
        return LipschitzFunction._from_numerators(
            self._space, self._idx, [n * p for n in self._num],
            self._den * fac.denominator, lip)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LipschitzFunction):
            return NotImplemented
        # Equal numerators on a total function leave one possible domain.
        return (self._space is other._space and self._den == other._den
                and self._num == other._num
                and (self.is_total or np.array_equal(self._idx, other._idx)))

    def __hash__(self):
        return hash((id(self._space), self._num, self._den))

    def __repr__(self) -> str:
        return (f"LipschitzFunction({len(self._num)} of "
                f"{len(self._space)} points)")


# ---------------------------------------------------------------------------
# integer kernels


def _scaled_values(func: LipschitzFunction
                   ) -> tuple[np.ndarray, tuple[int, ...], int, int]:
    """:meth:`LipschitzFunction.integer_scaled`, values over Q, and the
    largest numerator magnitude (at least 1, as above), found on first
    use."""
    if func._peak is None:
        func._peak = max([1, *map(abs, func._num)])
    return func._idx, func._num, func._den, func._peak


def _dtype(*bounds: int):
    """int64 when every bound is safely inside it, else Python ints."""
    return np.int64 if max(bounds) < _INT64_BOUND else object


def _kernel_row_bytes(width: int, *spaces: MetricSpace) -> int:
    """The row bytes the kernels pass to ``metric._row_blocks`` for
    blocks on ``width`` columns: twice the larger of a temporary's row,
    at eight bytes an entry (an int64, or an object array's pointer),
    and the whole row of each of ``spaces`` that ``MetricSpace._block``
    copies, so that each takes at most half of the budget.  Blocks
    twice as large slowed the Dinkelbach kernel on 294 points, and
    blocks half as large the equivalence constants on 1,985."""
    return 2 * max(8 * width, *(space._row_bytes() for space in spaces))


def _pair_blocks(idx: np.ndarray, dtype, *spaces: MetricSpace):
    """Row blocks covering every pair of domain points.

    Yields ``(start, dist, ...)``: one ``dist`` per space, holding its
    distance numerators from domain rows ``start:start + len(dist)`` to
    domain columns ``start:``, in ``dtype``; blocks are sized from
    :func:`_kernel_row_bytes`.
    Each unordered pair appears at least once, first at or above the
    block's diagonal; the diagonal has distance 0.
    """
    for rows in _row_blocks(len(idx), _kernel_row_bytes(len(idx), *spaces)):
        yield (rows.start, *(space._block(idx[rows], idx[rows.start:], dtype)
                             for space in spaces))


def _largest_ratio(blocks, p: int = 0, q: int = 1) -> tuple:
    """The largest ratio num/den over blocks, by Dinkelbach's iteration.

    ``blocks`` yields ``(key, num, den)`` with equal-shaped integer
    arrays; ``p/q`` (q > 0) is the starting ratio.  Each block is
    searched for the entry maximizing num * q - p * den.  While that is
    positive, the entry's own num/den, which is strictly larger, becomes
    p/q; a block is done when no entry exceeds it.  An entry with den 0
    bounds nothing.  Returns p, q and the first entry attaining p/q, as
    ``(key, row, col)``, or None when the start was never exceeded.  That
    entry lies in the block where the ratio was last raised, since every
    earlier entry is below it, and is that block's first entry with
    positive den whose last excess is zero.  Each block's products are
    formed in place, in two arrays made once for the block, and no block
    is kept once the next one is formed.
    """
    found = None
    for key, num, den in blocks:
        excess = np.empty(num.shape, np.result_type(num, den))
        scaled = np.empty_like(excess)
        raised = False
        while True:
            np.multiply(num, q, out=excess)
            excess -= np.multiply(den, p, out=scaled)
            k = int(excess.argmax())
            if excess.flat[k] <= 0:
                break
            if not den.flat[k]:
                num = np.where(den > 0, num, 0)
                continue
            p, q = int(num.flat[k]), int(den.flat[k])
            raised = True
        if raised:
            k = int(((excess == 0) & (den > 0)).argmax())
            found = (key, *divmod(k, num.shape[1]))
        del excess, scaled
    return p, q, found


def _inf_convolution(func: LipschitzFunction,
                     lip: Fraction) -> LipschitzFunction:
    """min over the domain of f(s) + lip * d(x, s), at every point x.

    With lip = p/q the minimum is taken over the integers
    n_s * q * S + p * Q * mat[x, s], all over the denominator Q * q * S,
    for blocks of points outside the domain sized from
    :func:`_kernel_row_bytes`.  The domain keeps its values, and one
    array holding every value is converted to Python ints once.
    """
    space = func.space
    every = np.arange(len(space), dtype=np.intp)
    if not func._num:
        return LipschitzFunction._from_numerators(space, every,
                                                  [0] * len(space), 1)
    idx, nums, den, peak = _scaled_values(func)
    scale, top = space._scale, space._peak
    value_factor = lip.denominator * scale
    dist_factor = lip.numerator * den
    dtype = _dtype(peak * value_factor, dist_factor * top)
    vals = np.array(nums, dtype=dtype) * value_factor
    values = np.empty(len(space), dtype=dtype)
    values[idx] = vals
    outside = np.setdiff1d(every, idx, assume_unique=True)
    for block in _row_blocks(len(outside), _kernel_row_bytes(len(idx), space)):
        rows = outside[block]
        values[rows] = (vals + dist_factor
                        * space._block(rows, idx, dtype)).min(axis=1)
    return LipschitzFunction._from_numerators(space, every, values.tolist(),
                                              den * value_factor)


def lip_constant(func: LipschitzFunction) -> Fraction:
    """Exact Lipschitz constant over the function's domain.

    The largest ratio of value gap to distance numerator, by the shared
    Dinkelbach kernel :func:`_largest_ratio`, in integers; only the final
    ratio becomes a ``Fraction``.
    """
    if func._lip is not None:
        return func._lip
    idx, nums, den, peak = _scaled_values(func)
    scale, top = func.space._scale, func.space._peak
    # Every gap times a distance, and every gap, stays below the bound.
    dtype = _dtype(2 * peak * top)
    vals = np.array(nums, dtype=dtype)
    p, q, _ = _largest_ratio(
        (start, _gaps(vals, start, len(dist)), dist)
        for start, dist in _pair_blocks(idx, dtype, func.space))
    best = Fraction(p * scale, den * q) if p else _ZERO
    func._lip = best
    return best


def _gaps(vals: np.ndarray, start: int, rows: int) -> np.ndarray:
    """|vals[i] - vals[j]| for i in rows ``start:start + rows`` and j in
    ``start:``, in one array."""
    gap = vals[start:start + rows, None] - vals[None, start:]
    return np.abs(gap, out=gap)


def is_lipschitz_at_most(func: LipschitzFunction, bound: Fraction) -> bool:
    """Check lip(func) <= bound without forming quotients.

    With bound p/q, every pair must satisfy |dn| * q * S <= p * Q * mat.
    """
    bound = exact(bound)
    idx, nums, den, peak = _scaled_values(func)
    scale, top = func.space._scale, func.space._peak
    gap_factor = bound.denominator * scale
    dist_factor = bound.numerator * den
    dtype = _dtype(2 * peak * gap_factor, abs(dist_factor) * top)
    vals = np.array(nums, dtype=dtype) * gap_factor
    for start, dist in _pair_blocks(idx, dtype, func.space):
        if (_gaps(vals, start, len(dist)) > dist_factor * dist).any():
            return False
    return True


def mcshane_extend(func: LipschitzFunction,
                   constant: Optional[Fraction] = None) -> LipschitzFunction:
    """Extend to the whole space keeping the Lipschitz constant.

    Uses the inf-convolution formula f(x) = min over the domain of
    f(s) + L * d(x, s).  With ``constant`` given, that value is used as L
    after checking it dominates the actual constant.
    """
    if constant is None:
        return _inf_convolution(func, lip_constant(func))
    lip = exact(constant)
    if func._lip is not None:
        below = lip < func._lip
    else:
        below = lip < 0 or not is_lipschitz_at_most(func, lip)
    if below:
        raise ValueError("requested constant is below the actual one")
    return _inf_convolution(func, lip)


def distance_functional(space: MetricSpace, anchor: int,
                        vanish_at: Optional[int] = None) -> LipschitzFunction:
    """The function d(., anchor), shifted to vanish at ``vanish_at``.

    Its Lipschitz constant is exactly 1 whenever the space has a second
    point, and the constant is attained at every pair containing the
    anchor.
    """
    if vanish_at is None:
        vanish_at = space.base_point
    row = space._rows(anchor)
    row -= row[vanish_at]
    return LipschitzFunction._from_numerators(
        space, np.arange(len(space), dtype=np.intp), row.tolist(),
        space._scale)


def pull_to_copy(space: MetricSpace, landmarks, side: str, branch: int,
                 func: LipschitzFunction) -> LipschitzFunction:
    """Transport a predecessor-stage function onto one half-scaled copy.

    ``func`` must be total on the predecessor space.  The result is a
    partial function on ``space`` whose domain is the copy image, with
    values halved to match the copy's halved distances: a 1-Lipschitz
    input stays 1-Lipschitz on its copy, exactly.
    """
    if not landmarks.subcopies:
        raise ValueError("landmarks do not describe a successor stage")
    pred_space, _ = landmarks.predecessor
    if func.space is not pred_space:
        raise ValueError("function does not live on the predecessor space")
    if not func.is_total:
        raise ValueError("function must be total on the predecessor")
    injection = landmarks.subcopies.get((side, branch))
    if injection is None:
        raise ValueError(f"no copy {side}({branch})")
    return LipschitzFunction(
        space, [(injection[p], func.value(p) * _HALF)
                for p in range(len(pred_space))])


def glue_poles(space: MetricSpace, landmarks, plus_branch: int,
               f_plus: LipschitzFunction, minus_branch: int,
               f_minus: LipschitzFunction) -> LipschitzFunction:
    """Join two one-copy functions across the stage base point.

    ``f_plus`` lives on the copy hanging from the top pole at
    ``plus_branch``; ``f_minus`` on the copy reaching the bottom pole at
    ``minus_branch``.  Both must be partial functions whose domain is
    exactly their copy, 1-Lipschitz there, and zero at the copy's image
    of the predecessor base.  Branch 1 is excluded on both sides so the
    copies avoid the stage base, which the glued function pins to zero.
    The combined partial function is checked to be 1-Lipschitz across
    the copies, then extended to the whole stage.
    """
    if not landmarks.subcopies:
        raise ValueError("landmarks do not describe a successor stage")
    _, pred_lm = landmarks.predecessor
    if plus_branch == 1 or minus_branch == 1:
        raise ValueError("branch 1 carries the base point and cannot be used")
    if plus_branch == minus_branch:
        raise ValueError("the two copies must hang from distinct branches")

    values: list[tuple[int, Fraction]] = [(landmarks.ell, Fraction(0))]
    for side, branch, piece in (("+", plus_branch, f_plus),
                                ("-", minus_branch, f_minus)):
        injection = landmarks.subcopies.get((side, branch))
        if injection is None:
            raise ValueError(f"no copy {side}({branch})")
        if piece.space is not space:
            raise ValueError("pieces must be partial functions on the stage")
        if piece.domain != tuple(sorted(injection)):
            raise ValueError(
                f"piece domain is not exactly the copy {side}({branch})")
        if not is_lipschitz_at_most(piece, Fraction(1)):
            raise ValueError(f"piece on copy {side}({branch}) exceeds "
                             "Lipschitz constant 1")
        origin = injection[pred_lm.ell]
        if piece.value(origin) != 0:
            raise ValueError(
                f"piece on copy {side}({branch}) must vanish at the "
                "copy image of the predecessor base")
        values.extend(piece.entries)

    joined = LipschitzFunction(space, values)
    if not is_lipschitz_at_most(joined, Fraction(1)):
        raise ValueError("joined partial function exceeds constant 1 "
                         "across the copies")
    return _inf_convolution(joined, Fraction(1))
