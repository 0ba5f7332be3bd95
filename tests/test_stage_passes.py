"""Each stage is validated and scanned once.

``finest_edges`` keeps its result on the space, ``validate_metric`` keeps
a pass, and a restriction of a validated space starts validated.  The
numerator matrix is read-only, so neither memo can go stale.  Checked
here with a spy on the scan itself: a validate, edges, dot file,
validate sequence scans once; a failing table raises every time and
keeps nothing; restrictions inherit validation only from a validated
parent; ``summing_metric`` checks an input that was never validated as
a whole; and ``decompose_limit`` checks its stage once.
"""

import numpy as np
import pytest

from diamondlab import (OMEGA, DiamondSpec, MetricAxiomError, MetricSpace,
                        SummandPartition, build, decompose_limit,
                        finest_edges, summing_metric)
from diamondlab import metric
from diamondlab.io import write_dot


@pytest.fixture
def scans(monkeypatch):
    """The spaces each run of the finest-edge scan was made on."""
    seen = []
    scan = metric._scan_edges

    def spy(space):
        seen.append(space)
        return scan(space)

    monkeypatch.setattr(metric, "_scan_edges", spy)
    return seen


def _violated():
    """Symmetric and positive, but d(0,2) = 5 > d(0,1) + d(1,2) = 2."""
    mat = [[0, 1, 5, 3],
           [1, 0, 1, 3],
           [5, 1, 0, 3],
           [3, 3, 3, 0]]
    return MetricSpace.from_scaled(["a", "b", "c", "d"], mat, 1, 3)


def test_validate_edges_dot_validate_scans_once(scans, tmp_path):
    space, _ = build(DiamondSpec(2, 3))
    space.validate_metric()
    edges = finest_edges(space)
    write_dot(str(tmp_path / "stage.dot"), space)
    space.validate_metric()
    assert scans == [space]
    assert finest_edges(space) is edges
    assert len(edges) == 6 ** 2


def test_violation_raises_every_time_and_keeps_nothing(scans):
    space = _violated()
    for _ in range(2):
        with pytest.raises(MetricAxiomError, match="triangle violation"):
            space.validate_metric()
        assert space._edges is None and not space._validated
    with pytest.raises(MetricAxiomError, match="triangle violation"):
        finest_edges(space)
    assert space._edges is None
    assert scans == [space] * 3


def test_restriction_is_validated_only_when_its_parent_is(scans):
    space, lm = build(DiamondSpec(2, 3))
    points = [lm.top, lm.bottom, *lm.mids]
    before, _ = space.restrict(points, lm.top)
    assert not before._validated
    space.validate_metric()
    after, _ = space.restrict(points, lm.top)
    assert after._validated
    after.validate_metric()
    assert scans == [space]
    before.validate_metric()
    assert scans == [space, before]
    # A restriction of a restriction inherits too; a failing parent's
    # restriction does not.
    assert after.restrict([0, 1], 0)[0]._validated
    bad = _violated()
    with pytest.raises(MetricAxiomError):
        bad.validate_metric()
    sub, _ = bad.restrict([0, 1, 2], 1)
    assert not sub._validated
    with pytest.raises(MetricAxiomError, match="triangle violation"):
        sub.validate_metric()


def test_summing_metric_checks_an_unvalidated_input_whole(scans):
    # Summand 0 is {1} and summand 1 is {0, 2}, with the base 3.  Each
    # summand with the base is a metric, but the space is not:
    # d(0,1) = 6 > d(0,2) + d(2,1) = 4.
    mat = [[0, 6, 2, 3],
           [6, 0, 2, 2],
           [2, 2, 0, 1],
           [3, 2, 1, 0]]
    space = MetricSpace.from_scaled(["a", "b", "c", "d"], mat, 1, 3)
    partition = SummandPartition(3, ((1,), (0, 2)))
    with pytest.raises(MetricAxiomError, match="triangle violation"):
        summing_metric(space, partition)
    assert scans == [space]
    for members in partition.summands:
        space.restrict((3, *members), 3)[0].validate_metric()


def test_summing_metric_on_a_validated_input_scans_no_piece(scans):
    space, lm = build(DiamondSpec(2, 3))
    space.validate_metric()
    rest = [x for x in range(len(space)) if x != lm.top]
    partition = SummandPartition(lm.top, (tuple(rest[:5]), tuple(rest[5:])))
    summing = summing_metric(space, partition)
    assert scans == [space]
    assert not summing._validated


def test_decompose_limit_checks_its_stage_once(scans):
    space, lm = build(DiamondSpec(OMEGA, 3, 3))
    decompose_limit(space, lm)
    assert scans == [space]
    decompose_limit(space, lm)
    assert scans == [space]


def test_numerators_are_read_only():
    space, _ = build(DiamondSpec(1, 3))
    mat, _ = space.integer_scaled()
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 1] = 7
    with pytest.raises(ValueError, match="read-only"):
        mat += 1
    assert np.array_equal(mat, mat.T) and mat[0, 1] != 7
