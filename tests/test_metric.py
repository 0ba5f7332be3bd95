"""Metric space container tests.

Core claims checked here:
  * axiom validation accepts true metrics and pinpoints each violation,
    also a single changed entry of a 779-point stage, and on planted
    tables of that stage that break several axioms it names a pair or
    triple that breaks the axiom it names; it keeps no temporary near
    the table's size,
  * restriction preserves distances, labels and the chosen base,
  * integer scaling is exact and random closure matrices validate,
  * a space built from integer numerators equals the one built from
    the same Fractions, with the same reduced integer matrix.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from diamondlab import (DiamondSpec, MetricAxiomError, MetricSpace, Sampler,
                        build_cached, finest_edges)

from oracles import dijkstra_closure, names_a_violation


# -- Helpers ----------------------------------------------------------------

def _space(rows, base=0, labels=None):
    n = len(rows)
    labels = labels or [f"p{i}" for i in range(n)]
    return MetricSpace(labels, [[Fraction(v) for v in row] for row in rows],
                       base)


PATH3 = _space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def _random_metric(sampler, n):
    # Random positive symmetric matrix pushed through single-hop closure;
    # entries in {1/4 .. 2} keep one relaxation round sufficient.
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(sampler.integer(1, 8), 4)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j:
                    rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
    return rows


# -- Construction and access ---------------------------------------------------

def test_basic_access():
    assert len(PATH3) == 3
    assert PATH3.base_point == 0
    assert PATH3.distance(0, 2) == 2
    assert PATH3.label(1) == "p1"
    assert PATH3.index_of("p2") == 2
    with pytest.raises(KeyError):
        PATH3.index_of("nowhere")
    with pytest.raises(IndexError):
        PATH3.distance(0, 3)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        _space([[0, 1], [1, 0]], labels=["a", "a"])
    with pytest.raises(ValueError):
        MetricSpace(["a", "b"], [[Fraction(0)]], 0)
    with pytest.raises(ValueError):
        _space([[0, 1], [1, 0]], base=2)


# -- Validation -----------------------------------------------------------------

def test_validate_accepts_true_metric():
    PATH3.validate_metric()


def test_validate_detects_asymmetry():
    bad = _space([[0, 1, 2], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(MetricAxiomError, match="asymmetry"):
        bad.validate_metric()


def test_validate_detects_zero_off_diagonal():
    bad = _space([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    with pytest.raises(MetricAxiomError, match="not positive"):
        bad.validate_metric()


def test_validate_detects_nonzero_diagonal():
    bad = _space([[1, 1], [1, 0]])
    with pytest.raises(MetricAxiomError):
        bad.validate_metric()


def test_validate_detects_triangle_violation():
    bad = _space([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    with pytest.raises(MetricAxiomError, match="triangle"):
        bad.validate_metric()


def test_validate_refuses_one_changed_entry_on_779_points():
    # The alpha=4, n=3 stage is past the size where triangles used to be
    # sampled; each of these one-entry changes passed that sampling.
    space, lm = build_cached(DiamondSpec(4, 3))
    mat, scale = space.integer_scaled()
    assert len(space) == 779
    space.validate_metric()
    for (i, j), change in (((lm.top, lm.bottom), 1), ((5, 700), 1),
                           ((5, 700), -1), ((100, 400), 2)):
        bad = mat.copy()
        bad[i, j] += change
        bad[j, i] += change
        planted = MetricSpace.from_scaled(space.labels, bad, scale,
                                          space.base_point)
        with pytest.raises(MetricAxiomError, match="triangle"):
            planted.validate_metric()


def test_validate_names_a_true_witness_on_779_points():
    space, _ = build_cached(DiamondSpec(4, 3))
    mat, scale = space.integer_scaled()
    edges = finest_edges(space)

    def planted(changes):
        bad = mat.copy()
        for (i, j), value in changes:
            bad[i, j] = value
        return MetricSpace.from_scaled(space.labels, bad, scale,
                                       space.base_point)

    # The first three tables break more than one axiom; the check names
    # the first failing arc of its scan.  The last raises one side of a
    # finest edge.
    i, z = edges[len(edges) // 2]
    for changes, message in (
            ([((700, 100), 5), ((300, 5), 1)], "triangle violation"),
            ([((7, 200), 0), ((200, 7), 0), ((50, 600), -1),
              ((600, 50), -1)], "triangle violation"),
            ([((3, 9), 0), ((9, 3), 0), ((700, 100), 5)],
             r"d\(3,9\) is not positive"),
            ([((z, i), mat[z, i] + 1)], rf"asymmetry at \({i},{z}\)")):
        bad = planted(changes)
        with pytest.raises(MetricAxiomError, match=message) as refusal:
            bad.validate_metric()
        assert names_a_violation(bad, str(refusal.value))


def test_validation_keeps_no_table_sized_temporary():
    space, _ = build_cached(DiamondSpec(4, 3))
    tracemalloc.start()
    try:
        space.validate_metric()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < space.integer_scaled()[0].nbytes / 8


def test_random_closures_validate():
    sampler = Sampler(11)
    for trial in range(25):
        rows = _random_metric(sampler, 3 + sampler.below(4))
        _space(rows).validate_metric()


# -- Restriction ------------------------------------------------------------------

def test_restrict_preserves_structure():
    sub, kept = PATH3.restrict([2, 0], base=2)
    assert kept == (2, 0)
    assert sub.labels == ("p2", "p0")
    assert sub.base_point == 0
    assert sub.distance(0, 1) == PATH3.distance(2, 0)
    sub.validate_metric()


def test_restrict_rejections():
    with pytest.raises(ValueError):
        PATH3.restrict([0, 0, 1], base=0)
    with pytest.raises(ValueError):
        PATH3.restrict([0, 1], base=2)


@pytest.mark.parametrize("indices", [[-1, 0], [0, 3], [0, -4]])
def test_restrict_refuses_indices_out_of_range(indices):
    # A negative index would wrap to a point from the end.
    with pytest.raises(IndexError, match="point index out of range"):
        PATH3.restrict(indices, base=0)


def test_restrict_refuses_a_wrapped_index_on_a_stage():
    space, _ = build_cached(DiamondSpec(1, 3))
    with pytest.raises(IndexError, match="point index out of range"):
        space.restrict([-1, 0], 0)


# -- Integer scaling ----------------------------------------------------------------

def test_integer_scaled_exact():
    space = _space([[0, Fraction(1, 6), Fraction(3, 4)],
                    [Fraction(1, 6), 0, Fraction(2, 3)],
                    [Fraction(3, 4), Fraction(2, 3), 0]])
    mat, scale = space.integer_scaled()
    assert scale == 12
    for i in range(3):
        for j in range(3):
            assert Fraction(int(mat[i, j]), scale) == space.distance(i, j)
    # Each call is a fresh read-only, C-order int64 copy of the store.
    again, _ = space.integer_scaled()
    assert again is not mat and np.array_equal(again, mat)
    assert mat.dtype == np.int64 and mat.flags.c_contiguous
    assert not mat.flags.writeable
    assert space._stored()[0].dtype == np.int8


def test_from_scaled_matches_fraction_constructor():
    sampler = Sampler(5)
    for trial in range(5):
        rows = _random_metric(sampler, 6)
        plain = _space(rows)
        nums = [[int(v * 8) for v in row] for row in rows]
        scaled = MetricSpace.from_scaled(plain.labels, nums, 8, 0)
        assert scaled.dist_matrix == plain.dist_matrix
        mat, scale = scaled.integer_scaled()
        plain_mat, plain_scale = plain.integer_scaled()
        assert scale == plain_scale
        assert mat.tolist() == plain_mat.tolist()


def test_from_scaled_reduces_and_shares_values():
    space = MetricSpace.from_scaled(["a", "b", "c"],
                                    [[0, 4, 8], [4, 0, 4], [8, 4, 0]], 8, 1)
    mat, scale = space.integer_scaled()
    assert scale == 2
    assert mat.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert space.distance(0, 1) == Fraction(1, 2)
    assert space.distance(0, 1) == space.distance(2, 1)
    assert space.base_point == 1


def test_from_scaled_rejections():
    with pytest.raises(ValueError, match="distinct"):
        MetricSpace.from_scaled(["a", "a"], [[0, 1], [1, 0]], 1, 0)
    with pytest.raises(ValueError, match="shape"):
        MetricSpace.from_scaled(["a", "b"], [[0]], 1, 0)
    with pytest.raises(ValueError, match="base point"):
        MetricSpace.from_scaled(["a", "b"], [[0, 1], [1, 0]], 1, 2)
    with pytest.raises(ValueError, match="denominator"):
        MetricSpace.from_scaled(["a", "b"], [[0, 1], [1, 0]], 0, 0)
    big = 1 << 60
    with pytest.raises(OverflowError):
        MetricSpace.from_scaled(["a", "b"], [[0, big], [big, 0]], 1, 0)
    # The range check applies after the common factor is divided out.
    space = MetricSpace.from_scaled(["a", "b"], [[0, big], [big, 0]], 4, 0)
    assert space.distance(0, 1) == big // 4


def test_restrict_keeps_the_integer_matrix():
    space = _space([[0, Fraction(1, 6), Fraction(3, 4)],
                    [Fraction(1, 6), 0, Fraction(2, 3)],
                    [Fraction(3, 4), Fraction(2, 3), 0]])
    sub, _ = space.restrict([2, 1], base=1)
    mat, scale = sub.integer_scaled()
    assert scale == 3
    assert mat.tolist() == [[0, 2], [2, 0]]
    assert sub.distance(0, 1) == Fraction(2, 3)


def test_dijkstra_oracle_on_random_metrics():
    sampler = Sampler(17)
    for trial in range(10):
        rows = _random_metric(sampler, 5)
        space = _space(rows)
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        closure = dijkstra_closure(space, edges)
        for i in range(5):
            for j in range(5):
                assert closure[i][j] == space.distance(i, j)
