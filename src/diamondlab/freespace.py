"""Finitely supported vectors over a pointed metric space and their norms.

A vector (:class:`FreeVector`) holds integer numerators over one
denominator on points other than the base.  Its norm is the cost of the
cheapest transport plan moving the positive part onto the negative part,
with any imbalance routed through the base point.  The solver and its
dual potential run on the space's distance numerators, read as one block
(``MetricSpace._block``), with the vector's numerators as masses.  Every
solve and every :func:`verify_certificate` call runs one integer check of
plan and potential on the support and the base (:func:`_check_plan`); a
failed check raises instead of returning a wrong answer.  ``Fraction``
values are formed only for the value, the certificate and error messages.

Each space keeps one solve per vector, keyed on its integers: the value,
the plan and the dual on the support plus base.  :func:`norm_value`
returns the value, and :func:`free_norm` builds its certificate from the
solve the first time it is asked and keeps it there, so a vector is
solved once until :func:`clear_norm_caches`, whichever asks first.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import CertificateError
from .lipschitz import (LipschitzFunction, _dtype, is_lipschitz_at_most,
                        mcshane_extend)
from .metric import MetricSpace, exact, fraction

__all__ = [
    "FreeVector",
    "TransportCertificate",
    "molecule",
    "point_mass",
    "free_norm",
    "norm_value",
    "verify_certificate",
    "norm_statistics",
    "clear_norm_caches",
]

_ZERO = Fraction(0)

_stats = {"norms": 0, "gap_checks": 0, "gap_failures": 0, "paths": 0}


def norm_statistics() -> dict:
    """Counters for norm computations (``norms``), the certificate checks
    run on them (``gap_checks``, ``gap_failures``) and the transport
    solver's shortest-path searches (``paths``, one per augmenting path)."""
    return dict(_stats)


def _normalized(space: MetricSpace,
                ratios: Sequence[tuple[int, int, int]]
                ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Support, numerators and denominator of the sum of ``(index,
    numerator, denominator)`` terms, denominators positive: repeated
    indices add up, zeros and the base point drop out, and the numerators
    and the denominator share no factor."""
    den = math.lcm(*(q for _, _, q in ratios))
    size = len(space)
    acc: dict[int, int] = {}
    for idx, p, q in ratios:
        idx = operator.index(idx)
        if not 0 <= idx < size:
            raise IndexError(f"point index {idx} out of range")
        acc[idx] = acc.get(idx, 0) + p * (den // q)
    acc.pop(space.base_point, None)
    support = sorted(i for i, n in acc.items() if n)
    return _reduced(support, [acc[i] for i in support], den)


def _reduced(support: Sequence[int], nums: list[int], den: int
             ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Divide out the common factor of the numerators and ``den``."""
    common = math.gcd(den, *nums)
    if common > 1:
        nums = [n // common for n in nums]
        den //= common
    return tuple(support), tuple(nums), den


class FreeVector:
    """Immutable rational combination of point evaluations.

    A vector is its support, the sorted point indices with a nonzero
    coefficient (never the base point), and integer numerators over one
    positive denominator sharing no factor with them all.  Sums,
    differences, negation and scalar multiples merge numerators over the
    least common denominator; pairing sums integer products against the
    function's integers and forms one ``Fraction``; ``entries`` builds
    the ``(index, Fraction)`` pairs on first use, as shared values of
    :func:`~diamondlab.metric.fraction`.  Coefficients and scalars must be
    ``int`` or ``Fraction``; anything else raises ``TypeError``.
    """

    __slots__ = ("_space", "_idx", "_num", "_den", "_entries", "__weakref__")

    def __init__(self, space: MetricSpace,
                 entries: Iterable[tuple[int, Fraction]] = ()):
        ratios = []
        for idx, coeff in entries:
            c = exact(coeff)
            ratios.append((idx, c.numerator, c.denominator))
        self._assign(space, *_normalized(space, ratios))

    def _assign(self, space: MetricSpace, support: tuple[int, ...],
                nums: tuple[int, ...], den: int) -> None:
        self._space = space
        self._idx = support
        self._num = nums
        self._den = den
        self._entries: Optional[tuple[tuple[int, Fraction], ...]] = None

    @classmethod
    def _from_ratios(cls, space: MetricSpace,
                     ratios: Sequence[tuple[int, int, int]]) -> "FreeVector":
        """The vector of ``(index, numerator, denominator)`` terms with
        positive integer denominators, normalized as by the constructor."""
        return cls._from_reduced(space, *_normalized(space, ratios))

    @classmethod
    def _from_reduced(cls, space: MetricSpace, support: tuple[int, ...],
                      nums: tuple[int, ...], den: int) -> "FreeVector":
        """Trusted constructor for integers the arithmetic has already
        normalized, taken without checks."""
        vec = cls.__new__(cls)
        vec._assign(space, support, nums, den)
        return vec

    @property
    def space(self) -> MetricSpace:
        return self._space

    def integer_scaled(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Support, coefficient numerators and their common denominator."""
        return self._idx, self._num, self._den

    @property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        if self._entries is None:
            den = self._den
            self._entries = tuple(zip(self._idx,
                                      [fraction(n, den) for n in self._num]))
        return self._entries

    @property
    def support(self) -> tuple[int, ...]:
        return self._idx

    @property
    def is_zero(self) -> bool:
        return not self._idx

    @property
    def total_mass(self) -> Fraction:
        return fraction(sum(self._num), self._den)

    def coefficient(self, idx: int) -> Fraction:
        k = bisect.bisect_left(self._idx, idx)
        if k < len(self._idx) and self._idx[k] == idx:
            return fraction(self._num[k], self._den)
        return _ZERO

    def _merged(self, other: "FreeVector", sign: int) -> "FreeVector":
        """This vector plus ``sign`` times ``other``, in one merge pass over
        numerators brought to the least common denominator."""
        if self._space is not other._space:
            raise ValueError("vectors live over different spaces")
        a_idx, a_num, b_idx, b_num = self._idx, self._num, other._idx, other._num
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        support: list[int] = []
        nums: list[int] = []
        i = j = 0
        while i < len(a_idx) and j < len(b_idx):
            x, y = a_idx[i], b_idx[j]
            if x < y:
                support.append(x)
                nums.append(a_num[i] * fa)
                i += 1
            elif y < x:
                support.append(y)
                nums.append(b_num[j] * fb)
                j += 1
            else:
                c = a_num[i] * fa + b_num[j] * fb
                if c:
                    support.append(x)
                    nums.append(c)
                i += 1
                j += 1
        support += a_idx[i:]
        nums += [n * fa for n in a_num[i:]]
        support += b_idx[j:]
        nums += [n * fb for n in b_num[j:]]
        return FreeVector._from_reduced(self._space,
                                        *_reduced(support, nums, den))

    def __add__(self, other: "FreeVector") -> "FreeVector":
        if not isinstance(other, FreeVector):
            return NotImplemented
        return self._merged(other, 1)

    def __radd__(self, other):
        if other == 0:
            return self
        return NotImplemented

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        if not isinstance(other, FreeVector):
            return NotImplemented
        return self._merged(other, -1)

    def __neg__(self) -> "FreeVector":
        return FreeVector._from_reduced(
            self._space, self._idx, tuple(-n for n in self._num), self._den)

    def _times(self, p: int, q: int) -> "FreeVector":
        """This vector times p/q, with q positive."""
        if not p:
            return FreeVector._from_reduced(self._space, (), (), 1)
        return FreeVector._from_reduced(self._space, *_reduced(
            self._idx, [n * p for n in self._num], self._den * q))

    def __mul__(self, scalar) -> "FreeVector":
        fac = exact(scalar)
        return self._times(fac.numerator, fac.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FreeVector":
        fac = exact(scalar)
        if not fac:
            raise ZeroDivisionError("division of a vector by zero")
        if fac < 0:
            return self._times(-fac.denominator, -fac.numerator)
        return self._times(fac.denominator, fac.numerator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeVector):
            return NotImplemented
        return (self._space is other._space and self._den == other._den
                and self._idx == other._idx and self._num == other._num)

    def __hash__(self):
        return hash((id(self._space), self._idx, self._num, self._den))

    def _pairing(self, func: LipschitzFunction) -> tuple[int, int]:
        """Numerator and (unreduced, positive) denominator of the pairing:
        the sum of coefficient numerators times value numerators, over the
        product of the two denominators."""
        if func.space is not self._space:
            raise ValueError("function lives over a different space")
        _, values, den = func.integer_scaled()
        if not func.is_total:
            values = dict(zip(func.domain, values))
        total = sum(map(operator.mul, self._num,
                        map(values.__getitem__, self._idx)))
        return total, self._den * den

    def pair(self, func: LipschitzFunction) -> Fraction:
        """Evaluate sum of coeff * func(point) over the entries.

        The products are summed as integers over the product of the two
        common denominators, and one ``Fraction`` is formed at the end.
        """
        return Fraction(*self._pairing(func))

    def mapped(self, target: MetricSpace,
               index_map: Mapping[int, int]) -> "FreeVector":
        """Reindex the entries into another space.

        ``index_map`` sends point indices of this space to indices of
        ``target``; it must cover the support.  Distances and the base
        point are the caller's responsibility, as with restrictions.
        """
        try:
            moved = [(index_map[i], n, self._den)
                     for i, n in zip(self._idx, self._num)]
        except KeyError as exc:
            raise ValueError(f"index map misses point {exc.args[0]}")
        return FreeVector._from_ratios(target, moved)

    def __repr__(self) -> str:
        parts = [f"{c}*[{self._space.label(i)}]" for i, c in self.entries]
        return "FreeVector(" + (" + ".join(parts) if parts else "0") + ")"


def molecule(space: MetricSpace, x: int, y: int) -> FreeVector:
    """The normalized two-point vector (delta_x - delta_y) / d(x, y)."""
    if x == y:
        raise ValueError("a molecule needs two distinct points")
    d = space.distance(x, y)
    if not d:
        raise ZeroDivisionError("a molecule needs two points at a positive "
                                "distance")
    return FreeVector._from_ratios(space, [(x, d.denominator, d.numerator),
                                           (y, -d.denominator, d.numerator)])


def point_mass(space: MetricSpace, x: int, coeff=1) -> FreeVector:
    return FreeVector(space, [(x, coeff)])


# ---------------------------------------------------------------------------
# exact minimum-cost transport


def _min_cost_transport(space: MetricSpace, pos: list[tuple[int, int]],
                        neg: list[tuple[int, int]]
                        ) -> tuple[int, list[tuple[int, int, int]]]:
    """Cheapest coupling of two equal-mass distributions.

    Masses are ``(index, numerator)`` pairs over the vector's denominator
    ``M``, costs the space's distance numerators over its ``S``, all
    Python integers.  Primal-dual successive shortest paths on the dense
    bipartite network: each augmentation is one Dijkstra search, by a
    linear scan over the targets, on the reduced costs ``c(a, b) + pi(a)
    - pi(b) >= 0``, then raises the potentials ``pi`` by the settled
    distances.  Tie-breaking picks among optimal plans.  Returns the cost
    numerator over ``M * S`` and ``(source, target, mass numerator over
    M)`` triples.

    A search starts from every source with mass left, at potential 0, so
    the cheapest reduced arc into a target is its column minimum over
    them minus its potential.  Potentials of targets and spent sources
    are stored less a common ``shift``, that of every target with demand
    left, as are labels, so a search updates only the nodes it settled.
    A spent source is reached only backwards over a tight arc with flow,
    so it takes the label of the target it leaves.
    """
    np_, nn = len(pos), len(neg)
    rows = space._block([i for i, _ in pos], [j for j, _ in neg]).tolist()
    cols = list(zip(*rows))
    supply = [m for _, m in pos]
    demand = [m for _, m in neg]
    flow: list[dict[int, int]] = [{} for _ in range(nn)]   # flow[b][a]
    pot_a = [0] * np_
    pot_b = [0] * nn
    live = list(range(np_))
    col_arg = [min(live, key=col.__getitem__) for col in cols]
    col_cost = [col[a] for col, a in zip(cols, col_arg)]
    paths = 0
    while live:
        paths += 1
        label = [c - p for c, p in zip(col_cost, pot_b)]
        pred_b = col_arg[:]
        pred_a: dict[int, int] = {}
        open_b = list(range(nn))
        done_b = []
        while True:
            sink = min(open_b, key=label.__getitem__)
            if demand[sink]:
                break
            open_b.remove(sink)
            done_b.append(sink)
            for a in flow[sink]:
                if supply[a] or a in pred_a:
                    continue
                pred_a[a] = sink
                row, offset = rows[a], label[sink] + pot_a[a]
                for b in open_b:
                    cand = row[b] + offset - pot_b[b]
                    if cand < label[b]:
                        label[b] = cand
                        pred_b[b] = a
        shift = label[sink]
        for b in done_b:
            pot_b[b] += label[b] - shift
        for a, b in pred_a.items():
            pot_a[a] += label[b] - shift

        # Walk back: forward arcs at even steps, backward ones at odd.
        steps = []
        b = sink
        while True:
            a = pred_b[b]
            steps.append((a, b))
            if supply[a]:
                break
            b = pred_a[a]
            steps.append((a, b))
        source = a
        delta = min(supply[source], demand[sink],
                    *(flow[b][a] for a, b in steps[1::2]))
        for k, (a, b) in enumerate(steps):
            moved = flow[b].get(a, 0) + (-delta if k % 2 else delta)
            if moved:
                flow[b][a] = moved
            else:
                del flow[b][a]
        demand[sink] -= delta
        supply[source] -= delta
        if not supply[source]:
            live.remove(source)
            pot_a[source] = -shift
            if live:
                for b, col in enumerate(cols):
                    if col_arg[b] == source:
                        col_arg[b] = a = min(live, key=col.__getitem__)
                        col_cost[b] = col[a]
    _stats["paths"] += paths
    total_cost = sum(m * rows[a][b] for b, out in enumerate(flow)
                     for a, m in out.items())
    plan = sorted((pos[a][0], neg[b][0], m) for b, out in enumerate(flow)
                  for a, m in out.items())
    return total_cost, plan


def _dual_potential(space: MetricSpace, vec: FreeVector,
                    plan: Sequence[tuple[int, int, int]]
                    ) -> dict[int, int]:
    """Feasible potential tight on every plan pair, zero at the base.

    Shortest distances from the base in the difference-constraint graph
    on the base and the support: distance arcs both ways, and an arc
    ``-d(x, y)`` per plan pair forcing tightness, so the result is the
    pointwise-largest optimal dual.  Bellman-Ford rounds relax every arc
    at once; values still changing after ``size`` rounds mean a negative
    cycle, a plan that was not optimal, and raise.  Values are numerators
    over the space's ``S``, keyed in increasing point order.
    """
    base = space.base_point
    nodes = sorted((base, *vec.support))
    pos_of = {v: k for k, v in enumerate(nodes)}
    size = len(nodes)
    # A round lowers a value by at most the largest distance, so no sum
    # below reaches (size + 2) times it.
    weight = space._block(nodes, nodes, _dtype((size + 2) * space._peak))
    for x, y, _ in plan:
        weight[pos_of[x], pos_of[y]] *= -1
    dist = weight[pos_of[base]].copy()
    dist[pos_of[base]] = 0
    for _ in range(size):
        relaxed = np.minimum(dist, (dist[:, None] + weight).min(axis=0))
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    else:
        raise CertificateError("transport plan failed the optimality re-check")
    return dict(zip(nodes, dist.tolist()))


@dataclass
class TransportCertificate:
    """Matched primal plan and dual potential for one norm value.

    ``plan`` lists (source index, target index, mass) triples; the
    potential is total, 1-Lipschitz, zero at the base point, and pairs
    with the vector to exactly the plan cost.
    """

    vector: FreeVector
    value: Fraction
    plan: tuple[tuple[int, int, Fraction], ...]
    potential: LipschitzFunction


def _split_parts(vec: FreeVector) -> tuple[list, list]:
    """Positive and negative parts as ``(index, numerator)`` pairs over the
    vector's denominator, with the imbalance settled at the base."""
    support, nums, _ = vec.integer_scaled()
    pos = [(i, n) for i, n in zip(support, nums) if n > 0]
    neg = [(i, -n) for i, n in zip(support, nums) if n < 0]
    imbalance = sum(nums)
    base = vec.space.base_point
    if imbalance > 0:
        neg.append((base, imbalance))
    elif imbalance < 0:
        pos.append((base, -imbalance))
    return pos, neg


def _check_plan(vec: FreeVector, plan: Sequence[tuple[int, int, int]],
                den: int, value: tuple[int, int],
                potential: Mapping[int, int] | Sequence[int],
                pden: int) -> None:
    """Raise :class:`CertificateError` unless ``plan`` (masses over
    ``den``, a multiple of the vector's denominator) and ``potential``
    (numerators over ``pden`` on the support and the base) certify
    ``value`` (numerator, denominator) as the norm of ``vec``.  Matching
    marginals keep the plan on the support and the base, so a point out
    of range fails before any distance is read, and one distance block
    serves the cost and the 1-Lipschitz test.
    """
    space = vec.space
    support, nums, vden = vec.integer_scaled()
    scale, base = space._scale, space.base_point
    out, into = {}, {}
    for x, y, m in plan:
        if m <= 0:
            raise CertificateError("plan contains a non-positive mass")
        out[x] = out.get(x, 0) + m
        into[y] = into.get(y, 0) + m
    pos, neg = _split_parts(vec)
    unit = den // vden
    if (out != {i: m * unit for i, m in pos}
            or into != {j: m * unit for j, m in neg}):
        raise CertificateError("plan marginals do not match the vector")
    nodes = (base, *support)
    at = {v: k for k, v in enumerate(nodes)}
    vals = [potential[v] for v in nodes]
    dtype = _dtype(2 * max(map(abs, vals)) * scale, space._peak * pden)
    dist = space._block(nodes, nodes, dtype)
    cost = sum(m * dist.item(at[x], at[y]) for x, y, m in plan)
    if cost * value[1] != value[0] * den * scale:
        raise CertificateError(f"plan cost {Fraction(cost, den * scale)} "
                               f"differs from claimed value "
                               f"{Fraction(*value)}")
    if vals[0]:
        raise CertificateError("potential does not vanish at the base point")
    gaps = np.array(vals, dtype=dtype) * scale
    dist *= pden
    if (gaps[:, None] - gaps > dist).any():
        raise CertificateError("potential is not 1-Lipschitz")
    # With these marginals, f(base) = 0 and f 1-Lipschitz, cost minus
    # pairing is the sum over the plan of m * (d(x, y) - f(x) + f(y)),
    # each term at least 0: equal cost and pairing leave every pair of
    # positive mass tight, so tightness needs no check of its own.
    pairing = sum(map(operator.mul, nums, vals[1:]))
    if pairing * value[1] != value[0] * vden * pden:
        raise CertificateError(f"potential pairs to "
                               f"{Fraction(pairing, vden * pden)}, not to "
                               f"{Fraction(*value)}")


def _gap_check(vec: FreeVector, cost: int, plan: list[tuple[int, int, int]],
               potential: dict[int, int]) -> None:
    """:func:`_check_plan` on a solve, counted; the cost is over the
    vector's denominator times ``S`` and the potential over ``S``."""
    den, scale = vec.integer_scaled()[2], vec.space._scale
    _stats["gap_checks"] += 1
    try:
        _check_plan(vec, plan, den, (cost, den * scale), potential, scale)
    except CertificateError:
        _stats["gap_failures"] += 1
        raise


def clear_norm_caches(space: MetricSpace) -> None:
    """Forget the solves of vectors over ``space``, with their
    certificates, and the adversary families built on it."""
    space._solve_cache.clear()
    space._family_cache.clear()


@dataclass(slots=True)
class _Solved:
    """One solve: the value, the optimal plan (mass numerators over the
    vector's denominator), the dual potential numerators over ``S`` on
    the support plus base, and the certificate once one is asked for."""

    value: Fraction
    plan: list[tuple[int, int, int]]
    potential: dict[int, int]
    cert: Optional[TransportCertificate] = None


def _solve(vec: FreeVector) -> _Solved:
    """The solve of ``vec``, once :func:`_gap_check` has passed it; kept
    per space under the vector's integers, so each vector is solved once
    whether :func:`norm_value` or :func:`free_norm` asks first."""
    cache = vec.space._solve_cache
    key = vec.integer_scaled()
    solved = cache.get(key)
    if solved is None:
        cost, plan = _min_cost_transport(vec.space, *_split_parts(vec))
        potential = _dual_potential(vec.space, vec, plan)
        _gap_check(vec, cost, plan, potential)
        _stats["norms"] += 1
        solved = cache[key] = _Solved(
            Fraction(cost, key[2] * vec.space._scale), plan, potential)
    return solved


def norm_value(vec: FreeVector) -> Fraction:
    """The norm alone, checked on the support with no total potential."""
    return _solve(vec).value


def free_norm(vec: FreeVector) -> tuple[Fraction, TransportCertificate]:
    """The norm with a verifiable certificate, whose potential is the
    McShane extension of the dual potential on the support plus base;
    built from the solve when first asked for, and kept with it."""
    solved = _solve(vec)
    if solved.cert is None:
        space, potential = vec.space, solved.potential
        dual = LipschitzFunction._from_numerators(
            space, np.array(list(potential), dtype=np.intp),
            list(potential.values()), space._scale)
        den = vec.integer_scaled()[2]
        solved.cert = TransportCertificate(
            vec, solved.value,
            tuple((i, j, fraction(m, den)) for i, j, m in solved.plan),
            mcshane_extend(dual))
    return solved.value, solved.cert


def verify_certificate(cert: TransportCertificate) -> bool:
    """Recheck a certificate from scratch, without the solver: a total
    potential on the vector's space, every solve's :func:`_check_plan` on
    the plan and value as integers, and a potential 1-Lipschitz
    everywhere.  Raises :class:`CertificateError` at the first violated
    condition."""
    vec, value, f = cert.vector, cert.value, cert.potential
    plan = [(x, y, Fraction(m)) for x, y, m in cert.plan]
    den = math.lcm(vec.integer_scaled()[2], *(m.denominator for *_, m in plan))
    plan = [(x, y, m.numerator * (den // m.denominator)) for x, y, m in plan]
    if f.space is not vec.space:
        raise CertificateError("potential lives over a different space")
    if not f.is_total:
        raise CertificateError("potential is not a total function")
    _, values, pden = f.integer_scaled()
    _check_plan(vec, plan, den, Fraction(value).as_integer_ratio(), values,
                pden)
    if not is_lipschitz_at_most(f, Fraction(1)):
        raise CertificateError("potential is not 1-Lipschitz")
    return True
