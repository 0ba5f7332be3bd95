"""Finitely supported vectors over a pointed metric space and their norms.

A vector assigns rational coefficients to points; the base point carries
no information and is dropped from every vector.  The norm is the cost of
the cheapest transport plan moving the positive part onto the negative
part, with any imbalance routed through the base point.  Every norm
computation also builds a feasible dual potential and checks that the
primal and dual values agree exactly; a failed check raises instead of
returning a wrong answer.

The solver and the dual run on integers: the space's distance numerators
over its denominator (``integer_scaled()``) and the vector's mass
numerators over their common denominator.  ``Fraction`` values are
formed only for the value, the plan masses and the potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .errors import CertificateError
from .lipschitz import (LipschitzFunction, _dtype, is_lipschitz_at_most,
                        mcshane_extend)
from .metric import MetricSpace

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

_stats = {"norms": 0, "gap_checks": 0, "gap_failures": 0}


def norm_statistics() -> dict:
    """Counters for norm computations and primal-dual agreement checks."""
    return dict(_stats)


class FreeVector:
    """Immutable rational combination of point evaluations.

    Entries are kept sorted by point index with zero coefficients and any
    base-point coefficient removed, so equal vectors have equal entries.
    """

    __slots__ = ("_space", "_entries", "__weakref__")

    def __init__(self, space: MetricSpace,
                 entries: Iterable[tuple[int, Fraction]] = ()):
        acc: dict[int, Fraction] = {}
        base = space.base_point
        for idx, coeff in entries:
            if not 0 <= idx < len(space):
                raise IndexError(f"point index {idx} out of range")
            acc[idx] = acc.get(idx, _ZERO) + Fraction(coeff)
        cleaned = sorted((i, c) for i, c in acc.items()
                         if c != 0 and i != base)
        self._space = space
        self._entries = tuple(cleaned)

    @classmethod
    def _from_sorted(cls, space: MetricSpace,
                     entries: Iterable[tuple[int, Fraction]]) -> "FreeVector":
        """Trusted constructor for results the arithmetic has already
        formed: ``(index, Fraction)`` pairs sorted by distinct in-range
        indices, none of them the base point, with nonzero coefficients,
        taken without checks."""
        vec = cls.__new__(cls)
        vec._space = space
        vec._entries = tuple(entries)
        return vec

    @property
    def space(self) -> MetricSpace:
        return self._space

    @property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        return self._entries

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self._entries)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    @property
    def total_mass(self) -> Fraction:
        return sum((c for _, c in self._entries), _ZERO)

    def coefficient(self, idx: int) -> Fraction:
        for i, c in self._entries:
            if i == idx:
                return c
        return _ZERO

    def _require_same_space(self, other: "FreeVector") -> None:
        if self._space is not other._space:
            raise ValueError("vectors live over different spaces")

    def _merged(self, b: Sequence[tuple[int, Fraction]]) -> "FreeVector":
        """This vector plus the sorted entries ``b``, in one merge pass."""
        a = self._entries
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            ia, ca = a[i]
            ib, cb = b[j]
            if ia < ib:
                out.append(a[i])
                i += 1
            elif ib < ia:
                out.append(b[j])
                j += 1
            else:
                c = ca + cb
                if c:
                    out.append((ia, c))
                i += 1
                j += 1
        out += a[i:]
        out += b[j:]
        return FreeVector._from_sorted(self._space, out)

    def __add__(self, other: "FreeVector") -> "FreeVector":
        if not isinstance(other, FreeVector):
            return NotImplemented
        self._require_same_space(other)
        return self._merged(other._entries)

    def __radd__(self, other):
        if other == 0:
            return self
        return NotImplemented

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        if not isinstance(other, FreeVector):
            return NotImplemented
        self._require_same_space(other)
        return self._merged([(i, -c) for i, c in other._entries])

    def __neg__(self) -> "FreeVector":
        return FreeVector._from_sorted(self._space,
                                       [(i, -c) for i, c in self._entries])

    def __mul__(self, scalar) -> "FreeVector":
        fac = Fraction(scalar)
        if not fac:
            return FreeVector._from_sorted(self._space, ())
        return FreeVector._from_sorted(self._space,
                                       [(i, c * fac) for i, c in self._entries])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FreeVector":
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeVector):
            return NotImplemented
        return self._space is other._space and self._entries == other._entries

    def __hash__(self):
        return hash((id(self._space), self._entries))

    def pair(self, func: LipschitzFunction) -> Fraction:
        """Evaluate sum of coeff * func(point) over the entries.

        The products are summed as integers over the running least
        common denominator, and one ``Fraction`` is formed at the end.
        """
        if func.space is not self._space:
            raise ValueError("function lives over a different space")
        value = func.value
        num, den = 0, 1
        for i, c in self._entries:
            v = value(i)
            top = c.numerator * v.numerator
            bottom = c.denominator * v.denominator
            if den % bottom:
                common = math.lcm(den, bottom)
                num *= common // den
                den = common
            num += top * (den // bottom)
        return Fraction(num, den)

    def mapped(self, target: MetricSpace,
               index_map: Mapping[int, int]) -> "FreeVector":
        """Reindex the entries into another space.

        ``index_map`` sends point indices of this space to indices of
        ``target``; it must cover the support.  Distances and the base
        point are the caller's responsibility, as with restrictions.
        """
        try:
            moved = [(index_map[i], c) for i, c in self._entries]
        except KeyError as exc:
            raise ValueError(f"index map misses point {exc.args[0]}")
        return FreeVector(target, moved)

    def __repr__(self) -> str:
        parts = [f"{c}*[{self._space.label(i)}]" for i, c in self._entries]
        return "FreeVector(" + (" + ".join(parts) if parts else "0") + ")"


def molecule(space: MetricSpace, x: int, y: int) -> FreeVector:
    """The normalized two-point vector (delta_x - delta_y) / d(x, y)."""
    if x == y:
        raise ValueError("a molecule needs two distinct points")
    inv = Fraction(1) / space.distance(x, y)
    return FreeVector(space, [(x, inv), (y, -inv)])


def point_mass(space: MetricSpace, x: int, coeff=1) -> FreeVector:
    return FreeVector(space, [(x, Fraction(coeff))])


# ---------------------------------------------------------------------------
# exact minimum-cost transport


def _mass_numerators(parts: list[tuple[int, Fraction]], den: int) -> list[int]:
    return [m.numerator * (den // m.denominator) for _, m in parts]


def _min_cost_transport(space: MetricSpace,
                        pos: list[tuple[int, Fraction]],
                        neg: list[tuple[int, Fraction]]
                        ) -> tuple[Fraction, list[tuple[int, int, Fraction]]]:
    """Cheapest coupling of two equal-mass distributions.

    Successive shortest augmenting paths, found by Bellman-Ford, on the
    bipartite flow network.  Costs are the space's distance numerators
    over ``S`` (``integer_scaled()``) and capacities are mass numerators
    over ``M``, the least common denominator of the masses; both are
    Python integers.  Scaling by positive constants keeps every
    comparison, so the augmenting paths and the plan are those of the
    same solver run on ``Fraction`` values.  Only the returned value
    ``total / (M * S)`` and the plan masses ``m / M`` are ``Fraction``.
    """
    mat, scale = space.integer_scaled()
    den = math.lcm(*(m.denominator for _, m in pos + neg))
    np_, nn = len(pos), len(neg)
    count = np_ + nn + 2
    src, dst = count - 2, count - 1
    # Arc ``e`` runs to ``head[e]``; its reverse arc is ``e ^ 1``.
    graph: list[list[int]] = [[] for _ in range(count)]
    head: list[int] = []
    cap: list[int] = []
    cost: list[int] = []

    def link(u: int, v: int, capacity: int, weight: int) -> None:
        graph[u].append(len(head))
        graph[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((capacity, 0))
        cost.extend((weight, -weight))

    supplies = _mass_numerators(pos, den)
    supply = sum(supplies)
    for a, m in enumerate(supplies):
        link(src, a, m, 0)
    for b, m in enumerate(_mass_numerators(neg, den)):
        link(np_ + b, dst, m, 0)
    rows = mat[np.ix_([i for i, _ in pos], [j for j, _ in neg])].tolist()
    cross = []
    for a, (i, _) in enumerate(pos):
        for b, (j, _) in enumerate(neg):
            cross.append((i, j, len(head) + 1))
            link(a, np_ + b, supply, rows[a][b])

    total_cost = 0
    pushed = 0
    while True:
        dist: list[Optional[int]] = [None] * count
        dist[src] = 0
        prev: list[int] = [-1] * count
        for _ in range(count):
            changed = False
            for u in range(count):
                du = dist[u]
                if du is None:
                    continue
                for e in graph[u]:
                    if cap[e] <= 0:
                        continue
                    cand = du + cost[e]
                    v = head[e]
                    dv = dist[v]
                    if dv is None or cand < dv:
                        dist[v] = cand
                        prev[v] = e
                        changed = True
            if not changed:
                break
        if dist[dst] is None:
            break
        path = []
        node = dst
        while node != src:
            e = prev[node]
            path.append(e)
            node = head[e ^ 1]
        bottleneck = min(cap[e] for e in path)
        for e in path:
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
        total_cost += bottleneck * dist[dst]
        pushed += bottleneck

    if pushed != supply:
        raise CertificateError("transport network failed to route all mass")
    plan = sorted((i, j, Fraction(cap[back], den))
                  for i, j, back in cross if cap[back] > 0)
    return Fraction(total_cost, den * scale), plan


def _dual_potential(space: MetricSpace, vec: FreeVector,
                    plan: list[tuple[int, int, Fraction]]
                    ) -> dict[int, Fraction]:
    """Feasible potential tight on every plan pair, zero at the base.

    Shortest distances from the base in the difference-constraint graph
    on the base and the support: distance arcs both ways between every
    two points, and a negative-weight arc ``-d(x, y)`` per plan pair
    forcing tightness.  The result is the pointwise-largest optimal
    dual.  Rounds of Bellman-Ford relax every arc at once on the
    distance numerators; values still changing after ``size`` rounds
    past the first mean a negative cycle, so the plan was not optimal
    and this raises.
    """
    base = space.base_point
    nodes = sorted({base, *vec.support,
                    *(x for x, _, _ in plan), *(y for _, y, _ in plan)})
    pos_of = {v: k for k, v in enumerate(nodes)}
    mat, scale = space.integer_scaled()
    block = mat[np.ix_(nodes, nodes)]
    size = len(nodes)
    # A round lowers a value by at most the largest distance, so no sum
    # below reaches (size + 2) times it.
    dtype = _dtype((size + 2) * int(block.max(initial=1)))
    weight = block.astype(dtype)
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
    return {node: Fraction(d, scale)
            for node, d in zip(nodes, dist.tolist())}


@dataclass
class TransportCertificate:
    """Matched primal plan and dual potential for one norm value.

    ``plan`` lists (source index, target index, mass) triples; the
    potential is a total function on the space, vanishes at the base
    point, has Lipschitz constant at most 1, and pairs with the vector to
    exactly the plan cost.
    """

    vector: FreeVector
    value: Fraction
    plan: tuple[tuple[int, int, Fraction], ...]
    potential: LipschitzFunction


def _split_parts(vec: FreeVector) -> tuple[list, list]:
    pos = [(i, c) for i, c in vec.entries if c > 0]
    neg = [(i, -c) for i, c in vec.entries if c < 0]
    imbalance = vec.total_mass
    base = vec.space.base_point
    if imbalance > 0:
        neg.append((base, imbalance))
    elif imbalance < 0:
        pos.append((base, -imbalance))
    return pos, neg


def _gap_check(vec: FreeVector, value: Fraction,
               fvals: dict[int, Fraction]) -> None:
    pairing = sum((c * fvals[i] for i, c in vec.entries), _ZERO)
    _stats["gap_checks"] += 1
    if pairing != value:
        _stats["gap_failures"] += 1
        raise CertificateError(
            f"duality gap: transport cost {value} but dual pairing {pairing}")


_value_cache: "WeakKeyDictionary[MetricSpace, dict]" = WeakKeyDictionary()
_cert_cache: "WeakKeyDictionary[MetricSpace, dict]" = WeakKeyDictionary()


def clear_norm_caches(space: MetricSpace) -> None:
    """Forget the cached norms and certificates of vectors over ``space``."""
    _value_cache.pop(space, None)
    _cert_cache.pop(space, None)


def _solve(vec: FreeVector
           ) -> tuple[Fraction, list[tuple[int, int, Fraction]],
                      dict[int, Fraction]]:
    """Value, optimal plan and dual potential on the support plus base,
    after the exact primal-dual comparison."""
    pos, neg = _split_parts(vec)
    value, plan = _min_cost_transport(vec.space, pos, neg)
    fvals = _dual_potential(vec.space, vec, plan)
    _gap_check(vec, value, fvals)
    _stats["norms"] += 1
    return value, plan, fvals


def norm_value(vec: FreeVector) -> Fraction:
    """The norm alone, skipping the total-potential certificate.

    Still solves the dual on the support and confirms the exact
    primal-dual match before returning.
    """
    cache = _value_cache.setdefault(vec.space, {})
    hit = cache.get(vec.entries)
    if hit is not None:
        return hit
    value, _, _ = _solve(vec)
    cache[vec.entries] = value
    return value


def free_norm(vec: FreeVector) -> tuple[Fraction, TransportCertificate]:
    """The norm together with a verifiable optimality certificate.

    The certificate potential is the McShane extension of the dual
    potential on the support plus base.
    """
    cache = _cert_cache.setdefault(vec.space, {})
    hit = cache.get(vec.entries)
    if hit is not None:
        return hit.value, hit
    value, plan, fvals = _solve(vec)
    potential = mcshane_extend(LipschitzFunction(vec.space, fvals))
    cert = TransportCertificate(vec, value, tuple(plan), potential)
    cache[vec.entries] = cert
    _value_cache.setdefault(vec.space, {})[vec.entries] = value
    return value, cert


def verify_certificate(cert: TransportCertificate) -> bool:
    """Recheck a certificate from scratch, without the solver.

    Confirms plan feasibility (marginals match the vector with imbalance
    routed through the base), the cost, that the potential is total,
    1-Lipschitz, vanishes at the base, pairs to the claimed value, and is
    tight on every plan pair.  Raises :class:`CertificateError` with the
    first violated condition.
    """
    vec, value = cert.vector, cert.value
    space = vec.space
    base = space.base_point

    out: dict[int, Fraction] = {}
    into: dict[int, Fraction] = {}
    cost = _ZERO
    for x, y, mass in cert.plan:
        if mass <= 0:
            raise CertificateError("plan contains a non-positive mass")
        out[x] = out.get(x, _ZERO) + mass
        into[y] = into.get(y, _ZERO) + mass
        cost += mass * space.distance(x, y)
    pos, neg = _split_parts(vec)
    if out != {i: m for i, m in pos} or into != {j: m for j, m in neg}:
        raise CertificateError("plan marginals do not match the vector")
    if cost != value:
        raise CertificateError(
            f"plan cost {cost} differs from claimed value {value}")

    f = cert.potential
    if f.space is not space:
        raise CertificateError("potential lives over a different space")
    if not f.is_total:
        raise CertificateError("potential is not a total function")
    if f.value(base) != 0:
        raise CertificateError("potential does not vanish at the base point")
    if not is_lipschitz_at_most(f, Fraction(1)):
        raise CertificateError("potential is not 1-Lipschitz")
    if vec.pair(f) != value:
        raise CertificateError(
            f"potential pairs to {vec.pair(f)}, not to {value}")
    for x, y, _ in cert.plan:
        if f.value(x) - f.value(y) != space.distance(x, y):
            raise CertificateError("potential is slack on a plan pair")
    return True
