"""Finest edges and edge closures on random graph metrics.

Core claims checked here:
  * on the shortest-path metric of any connected graph with positive
    integer weights, ``finest_edges`` returns exactly the pairs of the
    dense O(n^3) search, as Python ints in lexicographic order,
  * ``closure_numerators`` equals dense Floyd-Warshall and a Fraction
    Dijkstra on random edge lists, self-loops, reversed and repeated
    edges included, and both closures refuse disconnected lists,
  * the metric check can fail: on a table that breaks the triangle
    inequality the closure of the dense search's edges differs from it,
    and ``finest_edges`` and ``validate_metric`` refuse the table,
  * on random integer tables, closures and closures with one change
    among them (a pair moved by one step, one entry moved alone, a zero
    or negative pair, a nonzero diagonal entry), ``finest_edges`` and
    ``validate_metric`` raise exactly when a dense test of the four
    metric axioms finds a violation, and each refusal names a point,
    pair or triple that breaks the axiom it names.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diamondlab import MetricAxiomError, MetricSpace
from diamondlab.diamond import closure_numerators, finest_edges

from oracles import (closure_numerators_oracle, dijkstra_closure,
                     finest_edges_oracle, graph_closure, metric_axioms_oracle,
                     names_a_violation)


@st.composite
def graph_metrics(draw):
    """The closure of a random connected graph, as a space from numerators
    over a random denominator."""
    n = draw(st.integers(2, 12))
    weight = st.integers(1, 12)
    edges = [(draw(st.integers(0, v - 1)), v, draw(weight))
             for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight)
    edges += [(u, v, w) for u, v, w in draw(st.lists(pairs, max_size=2 * n))
              if u != v]
    rows = graph_closure([(str(u), str(v), Fraction(w))
                          for u, v, w in edges])
    mat = [[int(rows[str(i)][str(j)]) for j in range(n)] for i in range(n)]
    return MetricSpace.from_scaled([str(i) for i in range(n)], mat,
                                   draw(st.integers(1, 4)), base_point=0)


@settings(max_examples=200, deadline=None)
@given(graph_metrics())
def test_finest_edges_match_dense_search(space):
    edges = finest_edges(space)
    assert edges == finest_edges_oracle(space)
    assert all(type(i) is int and type(j) is int for i, j in edges)
    assert list(edges) == sorted(edges)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_matches_floyd_warshall_and_dijkstra(data):
    space = data.draw(graph_metrics())
    space.validate_metric()
    n = len(space)
    point = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(point, point), max_size=3 * n))
    if data.draw(st.booleans()):
        # A connected list: the finest edges, some reversed or repeated.
        finest = finest_edges(space)
        edges += data.draw(st.permutations(
            [(j, i) if data.draw(st.booleans()) else (i, j)
             for i, j in finest + finest[:data.draw(st.integers(0, 3))]]))
    scale = space.integer_scaled()[1]
    paths = dijkstra_closure(space, edges)
    if any(None in row for row in paths):
        with pytest.raises(ValueError, match="connect"):
            closure_numerators_oracle(space, edges)
        with pytest.raises(ValueError, match="connect"):
            closure_numerators(space, edges)
        return
    closure = closure_numerators(space, edges)
    assert np.array_equal(closure, closure_numerators_oracle(space, edges))
    assert [[Fraction(int(v), scale) for v in row]
            for row in closure] == paths


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_closure_check_fails_on_triangle_violations(data):
    n = data.draw(st.integers(3, 8))
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = data.draw(st.integers(1, 12))
    assume((mat[:, :, None] > mat[:, None, :] + mat.T[None, :, :]).any())
    space = MetricSpace.from_scaled([str(i) for i in range(n)], mat, 1, 0)
    closure = closure_numerators(space, finest_edges_oracle(space))
    assert not np.array_equal(closure, space.integer_scaled()[0])
    with pytest.raises(MetricAxiomError, match="triangle"):
        finest_edges(space)
    with pytest.raises(MetricAxiomError, match="triangle"):
        space.validate_metric()


@st.composite
def integer_tables(draw):
    """A random closure, a closure with one change, or an arbitrary
    symmetric positive table, over a denominator of 1 to 4.  The change
    moves one pair by one step, moves one entry alone, zeroes a pair,
    makes a pair negative, or puts a nonzero entry on the diagonal."""
    n = draw(st.integers(2, 9))
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("closure", "perturbed", "arbitrary",
                                 "asymmetric", "zero", "negative",
                                 "diagonal")))
    if kind != "arbitrary":
        for k in range(n):
            np.minimum(mat, mat[:, k, None] + mat[None, k, :], out=mat)
    i, j = draw(st.permutations(range(n)))[:2]
    step = draw(st.sampled_from((-1, 1)))
    if kind == "perturbed":
        mat[i, j] = mat[j, i] = max(1, mat[i, j] + step)
    elif kind == "asymmetric":
        mat[i, j] += step
    elif kind == "zero":
        mat[i, j] = mat[j, i] = 0
    elif kind == "negative":
        mat[i, j] = mat[j, i] = -draw(st.integers(1, 12))
    elif kind == "diagonal":
        mat[i, i] = step * draw(st.integers(1, 3))
    return MetricSpace.from_scaled([str(i) for i in range(n)], mat,
                                   draw(st.integers(1, 4)), 0)


@settings(max_examples=500, deadline=None)
@given(integer_tables())
def test_metric_check_matches_the_dense_triangle_test(space):
    if metric_axioms_oracle(space):
        space.validate_metric()
        assert finest_edges(space) == finest_edges_oracle(space)
        return
    for check in (finest_edges, MetricSpace.validate_metric):
        with pytest.raises(MetricAxiomError) as refusal:
            check(space)
        assert names_a_violation(space, str(refusal.value))


def test_closure_refuses_negative_and_out_of_range_edges():
    space = MetricSpace.from_scaled(["a", "b"], [[0, -1], [-1, 0]], 1, 0)
    with pytest.raises(ValueError, match="negative"):
        closure_numerators(space, [(0, 1)])
    space = MetricSpace.from_scaled(["a", "b"], [[0, 1], [1, 0]], 1, 0)
    for bad in ((0, 2), (-1, 0)):
        with pytest.raises(IndexError):
            closure_numerators(space, [(0, 1), bad])
