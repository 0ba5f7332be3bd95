"""Independent brute-force oracles the library must agree with.

Deliberately naive implementations: transport by enumerating spanning
trees of the bipartite support graph, Lipschitz constants, bound checks
and McShane extensions by pairwise Fraction loops, shortest paths by
heap Dijkstra over Fractions, the metric axioms by testing every
point, pair and triple (and the witness a refusal names by testing that
one), finest edges by the dense per-row search and the edge closure
by Floyd-Warshall on integer numerators, diamond stages as graphs
grown by edge substitution, and the summing metric, equivalence
constants and pole cover by pair-by-pair Fraction loops, the l1 slice
norms by restricting to each summand plus the base, the pole cover's
slices by a per-summand scan, the box-derivation oracle by subtracting
every pair of survivors, and the pole-molecule game certificate by the
recursion that pulls every functional back into the predecessor
spaces, certifies there, pushes the trees forward again, averages the
two copies' trees node by node and re-derives every target follow-up,
and the space reader by parsing every
distance line on its own (it shares the line cursor and the header and
value parsers with the library, whose row-at-a-time check it is the
reference for), and free vectors by sorted ``(index, Fraction)``
entries with coefficient-by-coefficient ``Fraction`` arithmetic.
Slow, obviously correct, and sharing no code with the solvers and
builders under test.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from fractions import Fraction

import numpy as np

from diamondlab import BudgetExceededError, MetricSpace
from diamondlab.diamond import DEFAULT_BUDGET, build_cached
from diamondlab.io import (_Reader, _check_header, _fields, _spec_from_fields,
                           parse_fraction)
from diamondlab.ordinal import ONE, format_ordinal, fundamental_sequence


class FractionVector:
    """A free vector as sorted ``(index, Fraction)`` entries, zero and
    base-point coefficients dropped, with every operation done one
    ``Fraction`` coefficient at a time."""

    def __init__(self, space, entries=()):
        acc = {}
        for idx, coeff in entries:
            if not 0 <= idx < len(space):
                raise IndexError(f"point index {idx} out of range")
            acc[idx] = acc.get(idx, Fraction(0)) + Fraction(coeff)
        self.space = space
        self.entries = tuple(sorted((i, c) for i, c in acc.items()
                                    if c != 0 and i != space.base_point))

    @property
    def total_mass(self):
        return sum((c for _, c in self.entries), Fraction(0))

    def coefficient(self, idx):
        return dict(self.entries).get(idx, Fraction(0))

    def __add__(self, other):
        return FractionVector(self.space, self.entries + other.entries)

    def __neg__(self):
        return FractionVector(self.space, [(i, -c) for i, c in self.entries])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return FractionVector(self.space, [(i, c * Fraction(scalar))
                                           for i, c in self.entries])

    def __truediv__(self, scalar):
        return self * (1 / Fraction(scalar))

    def __eq__(self, other):
        return self.space is other.space and self.entries == other.entries

    def __hash__(self):
        return hash((id(self.space), self.entries))

    def pair(self, func):
        return sum((c * func.value(i) for i, c in self.entries), Fraction(0))


def split_parts(vec):
    """Positive/negative parts with the imbalance settled at the base."""
    pos = [(i, c) for i, c in vec.entries if c > 0]
    neg = [(i, -c) for i, c in vec.entries if c < 0]
    imbalance = sum(c for _, c in vec.entries)
    if imbalance > 0:
        neg.append((vec.space.base_point, imbalance))
    elif imbalance < 0:
        pos.append((vec.space.base_point, -imbalance))
    return pos, neg


def _tree_flow(p, q, supplies, demands, tree):
    # Leaf elimination: a leaf's unique edge must carry its whole
    # remaining mass; negative flow marks an infeasible basis.
    nodes = {("s", a) for a in range(p)} | {("d", b) for b in range(q)}
    need = {("s", a): supplies[a] for a in range(p)}
    need.update({("d", b): -demands[b] for b in range(q)})
    incident = {node: [] for node in nodes}
    for a, b in tree:
        incident[("s", a)].append((a, b))
        incident[("d", b)].append((a, b))
    flows = {}
    remaining = set(tree)
    alive = dict(incident)
    while remaining:
        leaf = next((n for n, edges in alive.items()
                     if len([e for e in edges if e in remaining]) == 1), None)
        if leaf is None:
            return None
        edge = next(e for e in alive[leaf] if e in remaining)
        amount = need[leaf] if leaf[0] == "s" else -need[leaf]
        if amount < 0:
            return None
        flows[edge] = amount
        a, b = edge
        need[("s", a)] -= amount
        need[("d", b)] += amount
        remaining.discard(edge)
    if any(v != 0 for v in need.values()):
        return None
    return flows


def _spans(p, q, tree):
    seen = {("s", 0)}
    frontier = [("s", 0)]
    while frontier:
        kind, idx = frontier.pop()
        for a, b in tree:
            if kind == "s" and a == idx and ("d", b) not in seen:
                seen.add(("d", b))
                frontier.append(("d", b))
            elif kind == "d" and b == idx and ("s", a) not in seen:
                seen.add(("s", a))
                frontier.append(("s", a))
    return len(seen) == p + q


def transport_cost(space, pos, neg):
    """Minimum transport cost by exhausting spanning-tree bases."""
    if not pos and not neg:
        return Fraction(0)
    p, q = len(pos), len(neg)
    supplies = [m for _, m in pos]
    demands = [m for _, m in neg]
    edges = list(itertools.product(range(p), range(q)))
    best = None
    for tree in itertools.combinations(edges, p + q - 1):
        if not _spans(p, q, tree):
            continue
        flows = _tree_flow(p, q, supplies, demands, tree)
        if flows is None:
            continue
        cost = sum((flows[(a, b)] * space.distance(pos[a][0], neg[b][0])
                    for a, b in tree), Fraction(0))
        if best is None or cost < best:
            best = cost
    return best


def free_norm_oracle(space, vec):
    pos, neg = split_parts(vec)
    return transport_cost(space, pos, neg)


def lip_constant_oracle(space, entries):
    """Largest |f(a) - f(b)| / d(a, b) over all domain pairs."""
    return max((abs(va - vb) / space.distance(a, b)
                for (a, va), (b, vb) in itertools.combinations(entries, 2)),
               default=Fraction(0))


def is_lipschitz_oracle(space, entries, bound):
    """|f(a) - f(b)| <= bound * d(a, b) for every domain pair."""
    return all(abs(va - vb) <= bound * space.distance(a, b)
               for (a, va), (b, vb) in itertools.combinations(entries, 2))


def mcshane_oracle(space, entries, lip):
    """Values of min over s of f(s) + lip * d(x, s), point by point.

    An empty domain extends to the zero function.
    """
    known = dict(entries)
    return [known[x] if x in known
            else min((v + lip * space.distance(x, s) for s, v in entries),
                     default=Fraction(0))
            for x in range(len(space))]


def _dijkstra(adjacency, source):
    dist = {}
    heap = [(Fraction(0), source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v, w in adjacency[u]:
            if v not in dist:
                heapq.heappush(heap, (d + w, v))
    return dist


def dijkstra_closure(space, edges):
    """All-pairs shortest paths over the edge list with Fraction weights."""
    n = len(space)
    adjacency = [[] for _ in range(n)]
    for i, j in edges:
        w = space.distance(i, j)
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    out = []
    for source in range(n):
        dist = _dijkstra(adjacency, source)
        out.append([dist.get(v) for v in range(n)])
    return out


def metric_axioms_oracle(space):
    """Whether ``space`` is a metric, by the four axioms tested a point,
    pair or triple at a time on its ``Fraction`` distances: a zero
    diagonal, positive distances off it, symmetry and every triangle."""
    d, points = space.distance, range(len(space))
    return (all(d(x, x) == 0 for x in points)
            and all(d(x, y) > 0 for x in points for y in points if x != y)
            and all(d(x, y) == d(y, x) for x in points for y in points)
            and all(d(x, y) <= d(x, z) + d(z, y)
                    for x, y, z in itertools.product(points, repeat=3)))


def names_a_violation(space, message):
    """Whether ``message``, a refusal of ``space``, is one of the four
    axiom texts, quotes the distances of ``space``, and names a point,
    pair or triple that breaks the axiom it names."""
    d, label = space.distance, space.label
    pairs = [tuple(map(int, p))
             for p in re.findall(r"\((\d+),(\d+)\)", message)]
    if not pairs or max(max(p) for p in pairs) >= len(space):
        return False
    (x, y), kind = pairs[0], message.split(" ")[0]
    if kind == "triangle" and len(pairs) == 3:
        z = pairs[1][1]
        through = d(x, z) + d(z, y)
        return d(x, y) > through and message == (
            f"triangle violation: d({x},{y}) = {d(x, y)} between "
            f"{label(x)} and {label(y)} exceeds d({x},{z}) + d({z},{y}) = "
            f"{through} through {label(z)}")
    if kind == "asymmetry":
        return d(x, y) != d(y, x) and message == (
            f"asymmetry at ({x},{y}): {d(x, y)} vs {d(y, x)}")
    if message == f"d({x},{y}) != 0":
        return x == y and d(x, x) != 0
    return (x != y and d(x, y) <= 0
            and message == f"d({x},{y}) is not positive")


def finest_edges_oracle(space):
    """Pairs with no third point lying strictly between them, by an
    n x n through-table per row: O(n^3)."""
    mat, _ = space.integer_scaled()
    n = len(space)
    big = int(mat.max()) * 4 + 1
    out = []
    diag = np.arange(n)
    for i in range(n):
        through = mat[i][:, None] + mat
        through[i, :] = big
        through[diag, diag] = big
        slack = through.min(axis=0)
        for j in range(i + 1, n):
            if slack[j] > mat[i, j]:
                out.append((i, j))
    return tuple(out)


def closure_numerators_oracle(space, edges):
    """All-pairs shortest paths over ``edges`` as numerators, by dense
    Floyd-Warshall min-plus steps: O(n^3)."""
    mat, _ = space.integer_scaled()
    n = len(space)
    inf = (int(mat.max()) + 1) * (n + 1)
    if inf >= 1 << 60:
        raise OverflowError("scaled path lengths exceed the int64 range")
    d = np.full((n, n), inf, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j in edges:
        w = mat[i, j]
        if w < d[i, j]:
            d[i, j] = w
            d[j, i] = w
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    if (d >= inf).any():
        raise ValueError("edge set does not connect the space")
    return d


def diamond_graph(alpha, branches, limit_width=3):
    """Weighted edges of a diamond stage, generated by edge substitution.

    Stage 1 is ``top - mid(i) - bottom`` for every branch, all edges of
    length 1.  A successor stage replaces each of its ``2n`` outer edges,
    ``top - mid(j)`` (copy ``+(j)``) and ``mid(i) - bottom`` (copy
    ``-(i)``), by a half-length copy of the predecessor graph whose poles
    are the edge's ends.  A limit stage glues the graphs of the first
    ``limit_width`` entries of its fundamental sequence at their poles.
    Vertices are named by their canonical address labels; the result is
    a list of ``(label, label, length)``.
    """
    def rename(edges, prefix, ends):
        return [(ends.get(u, prefix + u), ends.get(v, prefix + v), w)
                for u, v, w in edges]

    if alpha == ONE:
        return [(pole, f"mid({i})", Fraction(1))
                for i in range(1, branches + 1)
                for pole in ("top", "bottom")]
    if alpha.is_successor:
        pred = [(u, v, w / 2) for u, v, w in
                diamond_graph(alpha.predecessor(), branches, limit_width)]
        edges = []
        for j in range(1, branches + 1):
            edges += rename(pred, f"+({j})/",
                            {"top": "top", "bottom": f"mid({j})"})
        for i in range(1, branches + 1):
            edges += rename(pred, f"-({i})/",
                            {"top": f"mid({i})", "bottom": "bottom"})
        return edges
    edges = []
    for m in range(1, limit_width + 1):
        beta = fundamental_sequence(alpha, m)
        edges += rename(diamond_graph(beta, branches, limit_width),
                        f"sum({format_ordinal(beta)})/",
                        {"top": "top", "bottom": "bottom"})
    return edges


def graph_closure(edges, sources=None):
    """Shortest-path distances ``{source: {label: Fraction}}``."""
    adjacency = {}
    for u, v, w in edges:
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, []).append((u, w))
    return {s: _dijkstra(adjacency, s)
            for s in (adjacency if sources is None else sources)}


def scaled_from_fractions(space):
    """``(numerators, denominator)`` recomputed from the Fraction table."""
    rows = space.dist_matrix
    scale = math.lcm(*{v.denominator for row in rows for v in row})
    return [[v.numerator * (scale // v.denominator) for v in row]
            for row in rows], scale


def largest_potential_oracle(space, nodes, base, plan):
    """Largest f on ``nodes`` with f(base) = 0, f(v) - f(u) <= d(u, v)
    for every two nodes and f(x) - f(y) >= d(x, y) on each plan pair.

    Floyd-Warshall over Fractions on the difference constraints; None
    when they are infeasible (a negative cycle).
    """
    tight = {(x, y) for x, y, _ in plan}
    dist = {(u, v): -space.distance(u, v) if (u, v) in tight
            else space.distance(u, v) for u in nodes for v in nodes}
    for k in nodes:
        for u in nodes:
            for v in nodes:
                through = dist[u, k] + dist[k, v]
                if through < dist[u, v]:
                    dist[u, v] = through
    if any(dist[u, u] < 0 for u in nodes):
        return None
    return {v: dist[base, v] for v in nodes}


def summing_metric_oracle(space, partition):
    """Fraction rows of the summing metric: a pair in distinct summands
    detours through the base, every other pair keeps its distance."""
    owner = {i: m for m, members in enumerate(partition.summands)
             for i in members}
    base, n = partition.base, len(space)
    return [[space.distance(i, j) if base in (i, j) or owner[i] == owner[j]
             else space.distance(i, base) + space.distance(base, j)
             for j in range(n)] for i in range(n)]


def equivalence_constants_oracle(original, summing):
    """``(c_low, c_high, low_pair, high_pair)`` over all pairs i < j; the
    first pair in row order witnesses each extreme."""
    low = high = None
    for i, j in itertools.combinations(range(len(original)), 2):
        ratio = original.distance(i, j) / summing.distance(i, j)
        if low is None or ratio < low[0]:
            low = (ratio, (i, j))
        if high is None or ratio > high[0]:
            high = (ratio, (i, j))
    if low is None:
        return Fraction(1), Fraction(1), None, None
    return low[0], high[0], low[1], high[1]


def ell1_parts_oracle(summing, partition, vec):
    """The slice norms of ``vec``: each summand's entries, measured in the
    restriction of ``summing`` to that summand plus the base, where the
    base is the subspace's base point."""
    from diamondlab.freespace import FreeVector, norm_value

    parts = []
    for members in partition.summands:
        order = sorted(set(members) | {partition.base})
        sub, kept = summing.restrict(order, partition.base)
        back = {old: new for new, old in enumerate(kept)}
        parts.append(norm_value(FreeVector(
            sub, [(back[i], c) for i, c in vec.entries if i in members])))
    return tuple(parts)


def cover_oracle(space, bottom, top):
    """``(bottom_half, top_half, separation)``: the points closer than 3/2
    to each pole, and each point's distance to the bottom half's
    complement plus that to the top half's (None when one is empty)."""
    n = len(space)
    halves = [tuple(z for z in range(n)
                    if space.distance(z, pole) < Fraction(3, 2))
              for pole in (bottom, top)]
    comps = [[z for z in range(n) if z not in half] for half in halves]
    separation = {z: sum(min(space.distance(z, t) for t in comp)
                         for comp in comps) if all(comps) else None
                  for z in range(n)}
    return halves[0], halves[1], separation


def cover_slices_oracle(landmarks, kept, pole):
    """Slice lists of a restricted cover half, by scanning every summand's
    interior for every point; None when a point lies in no slice."""
    slices = [[] for _ in landmarks.summands]
    for new_idx, old_idx in enumerate(kept):
        if old_idx == pole:
            continue
        placed = False
        for m, info in enumerate(landmarks.summands):
            interior = set(info.injection) - {landmarks.top, landmarks.bottom}
            if old_idx in interior:
                slices[m].append(new_idx)
                placed = True
                break
        if not placed:
            return None
    return tuple(tuple(s) for s in slices)


def relative_derivation_oracle(space, candidates, functionals, eta, epsilon,
                               rounds):
    """The single-box derivation with every box formed from the pairings
    of ``w - v`` over all ordered survivor pairs."""
    from diamondlab.freespace import norm_value

    pool = {}
    for v in candidates:
        if v.space is not space:
            raise ValueError("candidate lives over a different space")
        if norm_value(v) > 1:
            raise ValueError("candidates must lie in the unit ball")
        pool.setdefault(v.entries, v)
    for f in functionals:
        if f.space is not space or not f.is_total:
            raise ValueError("functionals must be total on the space")
    survivors = list(pool.values())
    for _ in range(rounds):
        if not survivors:
            break
        kept = []
        for v in survivors:
            box = [w for w in survivors
                   if all(abs((w - v).pair(f)) <= eta for f in functionals)]
            diameter = Fraction(0)
            for a in range(len(box)):
                for b in range(a + 1, len(box)):
                    d = norm_value(box[a] - box[b])
                    if d > diameter:
                        diameter = d
            if diameter >= epsilon:
                kept.append(v)
        survivors = kept
    return tuple(survivors)


def _pullback(pred_space, injection, func):
    """The functional on the predecessor that pairs with a balanced vector
    as ``func`` pairs with its push-forward: copy distances are halved, so
    values double and the Lipschitz constant is kept."""
    from diamondlab.lipschitz import LipschitzFunction

    vals = [2 * func.value(injection[p]) for p in range(len(pred_space))]
    off = vals[pred_space.base_point]
    return LipschitzFunction(pred_space,
                             [(p, v - off) for p, v in enumerate(vals)])


def _push_vector(vec, ambient, injection):
    from diamondlab.freespace import FreeVector

    if vec.total_mass != 0:
        raise ValueError("only balanced vectors transfer isometrically "
                         "into a copy")
    return FreeVector(ambient,
                      [(injection[i], 2 * c) for i, c in vec.entries])


def _push_node(node, ambient, injection, family, eta):
    """The certificate pushed into a copy, every neighborhood rebuilt
    from the ambient family around its pushed target."""
    from diamondlab.derivation import GameNode, Move, WeakNeighborhood

    target = _push_vector(node.target, ambient, injection)
    moves = tuple(
        Move(WeakNeighborhood(family, target, eta),
             _push_vector(m.response, ambient, injection),
             _push_node(m.response_subtree, ambient, injection, family, eta),
             _push_node(m.target_subtree, ambient, injection, family, eta))
        for m in node.moves)
    return GameNode(target, node.depth, node.epsilon, moves)


def _average(a, b):
    """The average of two certificates of one shape, node by node."""
    from diamondlab.derivation import GameNode, Move

    if a.depth != b.depth:
        raise ValueError("mismatched depths")
    if a.epsilon != b.epsilon:
        raise ValueError("mismatched epsilons")
    if len(a.moves) != len(b.moves):
        raise ValueError("mismatched move counts")
    target = (a.target + b.target) * Fraction(1, 2)
    moves = []
    for ma, mb in zip(a.moves, b.moves):
        if (ma.neighborhood.functionals != mb.neighborhood.functionals
                or ma.neighborhood.eta != mb.neighborhood.eta):
            raise ValueError("paired moves answer different challenges")
        moves.append(Move(ma.neighborhood.recentered(target),
                          (ma.response + mb.response) * Fraction(1, 2),
                          _average(ma.response_subtree, mb.response_subtree),
                          _average(ma.target_subtree, mb.target_subtree)))
    return GameNode(target, a.depth, a.epsilon, tuple(moves))


def _supported_within(node, allowed):
    from diamondlab.derivation import collect_vectors

    return all(set(v.support) <= allowed for v in collect_vectors(node))


def average_lift(space, landmarks, plus_branch, node_plus, minus_branch,
                 node_minus):
    """Average two one-copy certificates into one for the half-sum.

    The inputs must live in the copies hanging at ``plus_branch`` (from
    the top pole) and ``minus_branch`` (to the bottom pole), with
    distinct branches >= 2, equal depths, epsilons, and challenge
    families.  Each combined response averages the sub-responses; its
    pairings then deviate by at most the same eta, and the separation of
    the average is the average of the separations because the two halves
    live in copies joined only through poles.
    """
    if plus_branch < 2 or minus_branch < 2:
        raise ValueError("branch 1 carries the base point and cannot be used")
    if plus_branch == minus_branch:
        raise ValueError("the two copies must hang from distinct branches")
    plus_inj = landmarks.subcopies.get(("+", plus_branch))
    minus_inj = landmarks.subcopies.get(("-", minus_branch))
    if plus_inj is None or minus_inj is None:
        raise ValueError("branch out of range for this stage")
    if not _supported_within(node_plus, frozenset(plus_inj)):
        raise ValueError("support leaks outside the designated top copy")
    if not _supported_within(node_minus, frozenset(minus_inj)):
        raise ValueError("support leaks outside the designated bottom copy")
    return _average(node_plus, node_minus)


def certify_pole(space, landmarks, depth, family, eta, epsilon):
    """The pole-molecule certificate at one depth, by plain recursion over
    the predecessor spaces: each functional is pulled back into a copy's
    predecessor, certified there and pushed forward again, and the target
    follow-up and both predecessor certificates are each derived afresh,
    so every escape search and pullback is repeated."""
    from diamondlab.derivation import GameNode, Move, WeakNeighborhood
    from diamondlab.freespace import molecule

    top, bottom, mids = landmarks.top, landmarks.bottom, landmarks.mids
    target = molecule(space, top, bottom)
    if depth == 0:
        return GameNode(target, 0, epsilon, ())
    hood = WeakNeighborhood(family, target, eta)
    pairs = [(i, j) for i in range(2, len(mids) + 1)
             for j in range(i + 1, len(mids) + 1)]
    for i, j in pairs:
        gamma = (molecule(space, top, mids[j - 1])
                 + molecule(space, mids[i - 1], bottom)) * Fraction(1, 2)
        if hood.contains(gamma):
            break
    else:
        raise AssertionError("no branch pair lands in the neighborhood")
    if depth == 1:
        response_node = GameNode(gamma, 0, epsilon, ())
    else:
        pred_space, pred_lm = landmarks.predecessor
        plus_inj = landmarks.subcopies[("+", j)]
        minus_inj = landmarks.subcopies[("-", i)]
        fam_plus = tuple(_pullback(pred_space, plus_inj, f) for f in family)
        fam_minus = tuple(_pullback(pred_space, minus_inj, f) for f in family)
        sub_plus = certify_pole(pred_space, pred_lm, depth - 1,
                                fam_plus, eta, epsilon)
        sub_minus = certify_pole(pred_space, pred_lm, depth - 1,
                                 fam_minus, eta, epsilon)
        node_plus = _push_node(sub_plus, space, plus_inj, family, eta)
        node_minus = _push_node(sub_minus, space, minus_inj, family, eta)
        response_node = average_lift(space, landmarks, j, node_plus,
                                     i, node_minus)
        if response_node.target != gamma:
            raise AssertionError("combined certificate misses the escape "
                                 "vector")
    target_node = certify_pole(space, landmarks, depth - 1,
                               family, eta, epsilon)
    move = Move(hood, gamma, response_node, target_node)
    return GameNode(target, depth, epsilon, (move,))


def read_space_reference(path, budget=DEFAULT_BUDGET):
    """``read_space`` parsing and checking every ``dist`` line on its
    own, whether or not the file has a construction echo."""
    with _Reader(path) as rd:
        _check_header(rd, "space")
        tokens = rd.expect("spec")[1:]
        spec = (None if tokens == ["none"]
                else _spec_from_fields(rd, _fields(rd, tokens)))
        if spec is not None:
            space, landmarks = build_cached(spec, budget)
        count = int(rd.expect("points", 2)[1])
        if count > budget:
            raise BudgetExceededError(f"file claims {count} points, "
                                      f"budget is {budget}", count, budget)
        base_label = rd.expect("base", 2)[1]
        labels = []
        for i in range(count):
            tokens = rd.expect("point", 3)
            if int(tokens[1]) != i:
                raise rd.error("point lines out of order")
            labels.append(tokens[2])
        for _ in rd.run("landmark"):
            pass
        # Each distinct distance text is parsed once; codes[k] indexes the
        # value of the k-th dist line in ``values``.
        parsed: dict[str, int] = {}
        values: list[Fraction] = []
        codes = []
        pairs = itertools.combinations(range(count), 2)
        for (i, j), tokens in zip(pairs, rd.run("dist")):
            if len(tokens) != 4:
                raise rd.error("malformed dist line")
            if int(tokens[1]) != i or int(tokens[2]) != j:
                raise rd.error("dist lines out of order")
            code = parsed.get(tokens[3])
            if code is None:
                values.append(parse_fraction(tokens[3]))
                code = parsed[tokens[3]] = len(values) - 1
            codes.append(code)
        if len(codes) < count * (count - 1) // 2:
            rd.expect("dist")  # the table ends early: refused here
        rd.end()
        if base_label not in labels:
            raise rd.error(f"base label {base_label!r} is not a point")
        base = labels.index(base_label)
        rows, cols = np.triu_indices(count, 1)
        if spec is None:
            scale = math.lcm(*(v.denominator for v in values))
            nums = [v.numerator * (scale // v.denominator) for v in values]
            if any(abs(x) >= 1 << 60 for x in nums):
                raise rd.error("a stored distance exceeds the int64 scale")
            mat = np.zeros((count, count), dtype=np.int64)
            mat[rows, cols] = mat[cols, rows] = np.array(nums,
                                                         np.int64)[codes]
            space = MetricSpace.from_scaled(labels, mat, scale, base)
            space.validate_metric()
            return space, None, None
        if list(space.labels) != labels or space.base_point != base:
            raise rd.error("stored points do not match the spec echo")
        mat, scale = space.integer_scaled()
        # A stored value that is not a multiple of 1/scale, or too large to
        # scale, becomes -1, which no distance of the built space equals.
        scaled = np.full(len(values), -1, dtype=np.int64)
        for k, v in enumerate(values):
            if scale % v.denominator == 0 and abs(v) * scale < 1 << 62:
                scaled[k] = int(v * scale)
        mismatch = np.flatnonzero(scaled[codes] != mat[rows, cols])
        if mismatch.size:
            k = mismatch[0]
            raise rd.error(f"stored distance ({rows[k]},{cols[k]}) does not "
                           f"match the spec echo")
        return space, landmarks, spec
