"""Independent brute-force oracles the library must agree with.

Deliberately naive implementations: transport by enumerating spanning
trees of the bipartite support graph, shortest paths by heap Dijkstra
over Fractions, diamond stages as graphs grown by edge substitution.
Slow, obviously correct, and sharing no code with the solvers and
builders under test.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

from diamondlab.ordinal import ONE, format_ordinal, fundamental_sequence


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
