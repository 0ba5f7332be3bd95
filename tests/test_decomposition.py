"""Summing-metric and pole-cover tests.

Core claims checked here:
  * the summing metric keeps within-slice and base distances, reroutes
    cross-slice pairs through the base, and never shrinks a distance,
  * the pole cover of the width-3 limit truncation has the frozen sizes,
    separation minimum 1 and margin 3/2 at the bottom pole, and the
    cover of a 5,597-point stage keeps its temporaries within the block
    budget,
  * equivalence constants on the bottom half are exactly 7/9 and 1,
  * l1-additivity and the projection identities hold exactly over the
    summing metric, and the projection identity genuinely fails for a
    witnessed pair under the original metric,
  * each slice norm is measured on the summing space itself, with no
    restriction, and equals the one measured in its summand plus the
    base,
  * a stage that is not a metric is refused by ``decompose_limit``, by
    ``diamondlab decomp`` and by the summing-constants check, even when
    the fault lies outside the bottom half.
"""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from diamondlab import (
    OMEGA,
    Cover,
    FreeVector,
    MetricAxiomError,
    MetricSpace,
    Sampler,
    SummandPartition,
    DiamondSpec,
    SuiteConfig,
    build,
    build_cached,
    build_cover,
    check_partition,
    cli,
    cover_partition,
    decompose_limit,
    ell1_additivity_check,
    equivalence_constants,
    molecule,
    point_mass,
    projection_identity_check,
    run_check,
    summing_metric,
)
from diamondlab import suite
from diamondlab.metric import _GROUP_BYTES
from oracles import cover_slices_oracle, ell1_parts_oracle


# -- Helpers ----------------------------------------------------------------

def _bottom_half(dw33):
    space, lm = dw33
    cover = build_cover(space, lm)
    sub, kept, partition = cover_partition(space, lm, cover.bottom_half,
                                           lm.bottom)
    return space, lm, cover, sub, kept, partition


def _planted():
    """The omega stage (n=3, width 3) with one distance between two
    top-half points, outside the bottom half, lowered from 3/4 to 1/4, and
    those two points.  The bottom half is still a metric; the stage is
    not."""
    space, lm = build(DiamondSpec(OMEGA, 3, 3))
    pair = (space.index_of("sum(2)/+(1)/mid(3)"),
            space.index_of("sum(3)/+(3)/+(3)/mid(1)"))
    assert space.distance(*pair) == Fraction(3, 4)
    mat, scale = space.integer_scaled()
    mat = mat.copy()
    mat[pair] = mat[pair[::-1]] = mat[pair] // 3
    planted = MetricSpace.from_scaled(space.labels, mat, scale,
                                      space.base_point)
    assert planted.distance(*pair) == Fraction(1, 4)
    return planted, lm, pair


def _random_sub_vector(sampler, space, max_support=4):
    k = sampler.integer(1, max_support)
    points = sampler.sample(range(len(space)), k)
    return FreeVector(space,
                      [(p, sampler.nonzero_fraction()) for p in points])


# -- Partitions ----------------------------------------------------------------

def test_check_partition_errors(d13):
    space, _ = d13
    base = space.base_point
    rest = [p for p in range(len(space)) if p != base]
    check_partition(space, SummandPartition(base, (tuple(rest),)))
    with pytest.raises(ValueError, match="out of range"):
        check_partition(space, SummandPartition(9, (tuple(rest),)))
    with pytest.raises(ValueError, match="no summand"):
        check_partition(space, SummandPartition(
            base, (tuple(rest) + (base,),)))
    with pytest.raises(ValueError, match="two summands"):
        check_partition(space, SummandPartition(
            base, (tuple(rest), (rest[0],))))
    with pytest.raises(ValueError, match="not covered"):
        check_partition(space, SummandPartition(base, (tuple(rest[1:]),)))


def test_summand_of(d13):
    space, _ = d13
    base = space.base_point
    rest = [p for p in range(len(space)) if p != base]
    partition = SummandPartition(base, ((rest[0],), tuple(rest[1:])))
    assert partition.summand_of(rest[0]) == 0
    assert partition.summand_of(rest[1]) == 1
    assert partition.summand_of(base) is None


# -- Summing metric ---------------------------------------------------------------

def test_single_summand_changes_nothing(d13):
    space, _ = d13
    base = space.base_point
    rest = tuple(p for p in range(len(space)) if p != base)
    summing = summing_metric(space, SummandPartition(base, (rest,)))
    assert summing.dist_matrix == space.dist_matrix
    assert summing.base_point == base


def test_summing_metric_reroutes_cross_pairs(dw33):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    base = partition.base
    n = len(sub)
    for i in range(n):
        assert summing.distance(i, base) == sub.distance(i, base)
    for i in range(n):
        for j in range(i + 1, n):
            si, sj = partition.summand_of(i), partition.summand_of(j)
            if base in (i, j) or si == sj:
                assert summing.distance(i, j) == sub.distance(i, j)
            else:
                assert summing.distance(i, j) == (
                    sub.distance(i, base) + sub.distance(base, j))
            assert sub.distance(i, j) <= summing.distance(i, j)


def test_summing_metric_rejects_corrupt_input():
    # The constructor does not validate axioms, so a zero off-diagonal
    # sneaks in; the summing metric then fails validation and says why.
    rows = [[Fraction(0), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(1), Fraction(0)]]
    corrupt = MetricSpace(["b", "x", "y"], rows, 0)
    partition = SummandPartition(0, ((1,), (2,)))
    with pytest.raises(MetricAxiomError, match=r"d\(0,1\) is not positive"):
        summing_metric(corrupt, partition)


def test_decompose_limit_refuses_a_planted_stage():
    planted, lm, pair = _planted()
    cover = build_cover(planted, lm)
    assert set(pair) <= set(cover.top_half) - set(cover.bottom_half)
    with pytest.raises(MetricAxiomError, match="triangle violation"):
        decompose_limit(planted, lm)


def test_decomp_and_the_suite_refuse_a_planted_stage(monkeypatch, capsys):
    planted = _planted()[:2]
    monkeypatch.setattr(cli, "build_cached", lambda *args: planted)
    monkeypatch.setattr(suite, "build_cached", lambda *args: planted)
    assert cli.main(["decomp", "--alpha", "w", "--branches", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("check failure: triangle violation")
    assert "verdict" not in captured.out
    result = run_check("summing-constants", SuiteConfig())
    assert result.status == "fail"
    assert result.details.startswith("MetricAxiomError: triangle violation")


# -- Equivalence constants -----------------------------------------------------------

def test_identical_metrics_compare_trivially(d13):
    space, _ = d13
    report = equivalence_constants(space, space)
    assert report.c_low == 1 and report.c_high == 1


def test_equivalence_requires_same_labels(d13, d14):
    with pytest.raises(ValueError, match="same point set"):
        equivalence_constants(d13[0], d14[0])


def test_equivalence_constants_frozen(dw33):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    report = equivalence_constants(sub, summing)
    assert report.c_low == Fraction(7, 9)
    assert report.c_high == 1
    i, j = report.low_pair
    assert sub.distance(i, j) / summing.distance(i, j) == Fraction(7, 9)


# -- Pole cover -----------------------------------------------------------------------

def test_cover_frozen_shape(dw33):
    space, lm = dw33
    cover = build_cover(space, lm)
    assert len(cover.bottom_half) == 109
    assert len(cover.top_half) == 109
    assert set(cover.bottom_half) | set(cover.top_half) \
        == set(range(len(space)))
    assert lm.bottom in cover.bottom_half
    assert lm.top not in cover.bottom_half
    assert lm.top in cover.top_half
    assert cover.minimum == 1
    assert cover.separation[lm.bottom] == Fraction(3, 2)
    assert all(v is not None for v in cover.separation.values())


def test_cover_keeps_the_block_budget():
    # The 5,597-point stage: each half's complement is a table of about
    # 3 MiB, and the cover takes it one block of rows at a time.
    space, lm = build_cached(DiamondSpec(OMEGA, 3, 5))
    mat, scale = space._stored()
    tracemalloc.start()
    try:
        cover = build_cover(space, lm)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - left < 2 * _GROUP_BYTES
    # The margins the whole complement tables give.
    margin = sum(mat[:, np.setdiff1d(np.arange(len(space)), half)].min(
        axis=1).astype(np.int64)
        for half in (cover.bottom_half, cover.top_half))
    assert cover.separation == {z: Fraction(int(v), scale)
                                for z, v in enumerate(margin)}


def test_cover_needs_limit_stage(d23):
    space, lm = d23
    with pytest.raises(ValueError, match="limit stages"):
        build_cover(space, lm)


def test_cover_minimum_handles_missing_margins():
    assert Cover((), (), {0: None, 1: Fraction(2)}).minimum == 2
    assert Cover((), (), {0: None}).minimum is None


def test_cover_partition_frozen_slices(dw33):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    assert [len(s) for s in partition.summands] == [3, 12, 93]
    assert sub.base_point == partition.base
    assert kept[sub.base_point] == lm.bottom
    assert sum(len(s) for s in partition.summands) == len(sub) - 1
    for new_idx, old_idx in enumerate(kept):
        for new_jdx, old_jdx in enumerate(kept):
            assert sub.distance(new_idx, new_jdx) \
                == space.distance(old_idx, old_jdx)


def test_cover_partition_matches_summand_scan():
    space, lm = build_cached(DiamondSpec(OMEGA, 4, limit_width=4))
    cover = build_cover(space, lm)
    for half, pole in ((cover.bottom_half, lm.bottom),
                       (cover.top_half, lm.top)):
        _, kept, partition = cover_partition(space, lm, half, pole)
        assert partition.summands == cover_slices_oracle(lm, kept, pole)
    # Without its last summand some point of the half lies in no slice.
    short = dataclasses.replace(lm, summands=lm.summands[:-1])
    _, kept, _ = cover_partition(space, lm, cover.bottom_half, lm.bottom)
    assert cover_slices_oracle(short, kept, lm.bottom) is None
    with pytest.raises(ValueError, match="belongs to no summand slice"):
        cover_partition(space, short, cover.bottom_half, lm.bottom)
    # The far pole lies in no summand interior.
    everything = range(len(space))
    _, kept = space.restrict(everything, lm.bottom)
    assert cover_slices_oracle(lm, kept, lm.bottom) is None
    with pytest.raises(ValueError, match="point top belongs to no"):
        cover_partition(space, lm, everything, lm.bottom)


def test_cover_partition_requires_member_pole(dw33):
    space, lm = dw33
    cover = build_cover(space, lm)
    with pytest.raises(ValueError, match="pole must belong"):
        cover_partition(space, lm, cover.bottom_half, lm.top)


# -- Sum identities ---------------------------------------------------------------------

def test_additivity_requires_summing_space(dw33):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    stray = point_mass(sub, partition.summands[0][0])
    with pytest.raises(ValueError, match="summing-metric space"):
        ell1_additivity_check(summing, partition, stray)


def test_cross_slice_molecule_splits(dw33):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    x = partition.summands[0][0]
    y = partition.summands[1][0]
    vec = molecule(summing, x, y)
    report = ell1_additivity_check(summing, partition, vec)
    assert report.passed
    span = summing.distance(x, y)
    assert report.parts == (summing.distance(x, partition.base) / span,
                            summing.distance(y, partition.base) / span,
                            Fraction(0))
    assert report.total == 1


def test_random_vectors_are_additive(dw33):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    sampler = Sampler(71)
    for trial in range(20):
        vec = _random_sub_vector(sampler, summing)
        report = ell1_additivity_check(summing, partition, vec)
        assert report.passed, (vec, report)


def test_slice_norms_need_no_restriction(dw33, monkeypatch):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    sampler = Sampler(73)
    vectors = [_random_sub_vector(sampler, summing, 8) for _ in range(20)]
    expected = [ell1_parts_oracle(summing, partition, vec)
                for vec in vectors]
    calls = []
    restrict = MetricSpace.restrict

    def spy(self, *args, **kwargs):
        calls.append(args)
        return restrict(self, *args, **kwargs)

    monkeypatch.setattr(MetricSpace, "restrict", spy)
    for vec, parts in zip(vectors, expected):
        report = ell1_additivity_check(summing, partition, vec)
        assert report.parts == parts and report.passed
    assert calls == []


def test_additivity_refuses_a_partition_on_another_base(dw33):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    moved = SummandPartition(partition.summands[0][0], (
        (partition.base, *partition.summands[0][1:]),
        *partition.summands[1:]))
    check_partition(summing, moved)
    with pytest.raises(ValueError, match="differ in base point"):
        ell1_additivity_check(summing, moved,
                              molecule(summing, *moved.summands[1][:2]))


def test_projection_identity_rows(dw33):
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    sampler = Sampler(72)
    for trial in range(15):
        vec = _random_sub_vector(sampler, summing)
        report = projection_identity_check(partition, vec)
        assert report.passed, (vec, report)
        assert len(report.rows) == len(partition.summands) + 1
        n0, total0, lhs0, rhs0 = report.rows[0]
        assert (n0, lhs0, rhs0) == (0, 0, total0)
        nL, totalL, lhsL, rhsL = report.rows[-1]
        assert (lhsL, rhsL) == (totalL, 0)


def test_projection_identity_fails_under_original_metric(dw33):
    # The witness pair for c_low < 1 has a cross-slice shortcut past the
    # base, so the split norms over-count under the original metric; the
    # same vector mapped to the summing metric splits exactly.
    space, lm, cover, sub, kept, partition = _bottom_half(dw33)
    summing = summing_metric(sub, partition)
    report = equivalence_constants(sub, summing)
    i, j = report.low_pair
    if partition.summand_of(i) > partition.summand_of(j):
        i, j = j, i
    vec = point_mass(sub, i) - point_mass(sub, j)
    broken = projection_identity_check(partition, vec)
    assert not broken.passed
    cut = partition.summand_of(i) + 1
    n, total, lhs, rhs = broken.rows[cut]
    assert total == sub.distance(i, j)
    assert lhs + rhs == sub.distance(i, sub.base_point) \
        + sub.distance(j, sub.base_point)
    assert lhs + rhs > total

    moved = FreeVector(summing, vec.entries)
    assert projection_identity_check(partition, moved).passed
