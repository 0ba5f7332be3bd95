"""The integer matrix as the only distance store.

Core claims checked here:
  * the Fraction constructor and ``from_scaled`` store the same reduced
    integer matrix and give the same distances and ``Fraction`` view, on
    thirds and on numerators just below 2^60,
  * ``from_scaled`` divides out the common factor of a table whose
    factor breaks only in its last row block, or holds throughout,
  * the ``Fraction`` view is built once and kept, and takes its objects
    from the shared table, as distances, closures and shifted functionals
    do,
  * ``value_lookup`` maps every entry through its distinct value as
    ``np.unique`` does, on both of its paths, making each value once per
    table or once per block,
  * the summing metric, the equivalence constants (with the first pair
    in row order as each witness) and the pole cover equal pair-by-pair
    ``Fraction`` oracles, on random partitions of small stages, the
    omega stage's bottom half, non-dyadic scaled copies and random
    metrics,
  * the suite's metric-oracle check, which is ``validate_metric``, fails
    on a planted builder fault and names the violated triangle.
"""

from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diamondlab import lipschitz
from diamondlab import (
    OMEGA,
    DiamondSpec,
    MetricSpace,
    SuiteConfig,
    SummandPartition,
    build_cached,
    build_cover,
    cover_partition,
    distance_functional,
    equivalence_constants,
    finest_edges,
    run_check,
    shortest_path_closure,
    summing_metric,
)
from diamondlab import diamond, metric
from diamondlab.io import parse_fraction
from oracles import (cover_oracle, equivalence_constants_oracle,
                     summing_metric_oracle)


# -- Helpers ----------------------------------------------------------------

def _scaled_copy(space, num, den):
    """``space`` with every distance multiplied by ``num / den``."""
    mat, scale = space.integer_scaled()
    return MetricSpace.from_scaled(space.labels, mat.astype(object) * num,
                                   scale * den, space.base_point)


@cache
def _spaces():
    d13, _ = build_cached(DiamondSpec(1, 3))
    d23, _ = build_cached(DiamondSpec(2, 3))
    d33, _ = build_cached(DiamondSpec(3, 3))
    dw, lm = build_cached(DiamondSpec(OMEGA, 3, limit_width=3))
    half, _, _ = cover_partition(dw, lm, build_cover(dw, lm).bottom_half,
                                 lm.bottom)
    keep = sorted({*range(0, len(d33), 4), d33.base_point})
    sub, _ = d33.restrict(keep, d33.base_point)
    # A non-dyadic factor just below 1 that puts numerators near 2^56, so
    # a detour sum still fits the 60-bit store.
    mat, scale = d23.integer_scaled()
    k = (1 << 56) // (int(mat.max()) * scale)
    return {"d13": d13, "d23": d23, "restricted": sub, "omega-half": half,
            "non-dyadic": _scaled_copy(d23, k * scale, k * scale + 1)}


@st.composite
def partitioned(draw):
    """A space, a base point and a random partition of the other points
    into up to four summands (some possibly empty)."""
    space = _spaces()[draw(st.sampled_from(sorted(_spaces())))]
    base = draw(st.integers(0, len(space) - 1))
    width = draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(0, width - 1),
                           min_size=len(space), max_size=len(space)))
    summands = tuple(tuple(i for i in range(len(space))
                           if i != base and owners[i] == m)
                     for m in range(width))
    return space, SummandPartition(base, summands)


# -- One store, two constructors ----------------------------------------------

@pytest.mark.parametrize("numerators, denominator", [
    ([[0, 1, 2, 4], [1, 0, 3, 5], [2, 3, 0, 2], [4, 5, 2, 0]], 3),
    ([[0, 6, 9], [6, 0, 3], [9, 3, 0]], 9),
    ([[0, (1 << 60) - 1, (1 << 60) - 3], [(1 << 60) - 1, 0, 2],
      [(1 << 60) - 3, 2, 0]], 7),
])
def test_constructors_store_the_same_matrix(numerators, denominator):
    labels = [f"p{i}" for i in range(len(numerators))]
    rows = [[Fraction(v, denominator) for v in row] for row in numerators]
    plain = MetricSpace(labels, rows, 1)
    scaled = MetricSpace.from_scaled(labels, numerators, denominator, 1)
    (mat, scale), (smat, sscale) = (plain.integer_scaled(),
                                    scaled.integer_scaled())
    assert scale == sscale and mat.tolist() == smat.tolist()
    assert plain.dist_matrix == scaled.dist_matrix == tuple(map(tuple, rows))
    for i in range(len(labels)):
        for j in range(len(labels)):
            assert plain.distance(i, j) == scaled.distance(i, j) == rows[i][j]


def test_both_constructors_refuse_60_bit_numerators():
    big = Fraction(1 << 60, 3)
    with pytest.raises(OverflowError):
        MetricSpace(["a", "b"], [[0, big], [big, 0]], 0)
    with pytest.raises(OverflowError):
        MetricSpace.from_scaled(["a", "b"], [[0, 1 << 60], [1 << 60, 0]],
                                3, 0)


@pytest.mark.parametrize("factor, bump, common", [(4, 2, 2), (4, 1, 1),
                                                   (2, 0, 2)])
def test_from_scaled_reduces_across_row_blocks(factor, bump, common):
    # The common factor is taken a row block at a time: here it holds
    # through every block but the last, or through all of them.
    stage, _ = build_cached(DiamondSpec(4, 3))
    nums, scale = stage.integer_scaled()
    n = len(stage)
    assert n > 2 * (metric._GROUP_BYTES // (8 * n))
    mat = nums * factor
    mat[-1, -2] += bump
    den = 3 * factor * scale
    assert common == np.gcd(den, np.gcd.reduce(mat.ravel()))
    space = MetricSpace.from_scaled(stage.labels, mat, den, 0)
    stored, reduced = space.integer_scaled()
    assert reduced == den // common
    assert stored.tolist() == (mat // common).tolist()


def test_fraction_view_is_built_once(d23):
    space, _ = d23
    sub, _ = space.restrict(range(5), 0)
    assert sub.dist_matrix is sub.dist_matrix
    assert sub.dist_matrix[1][2] is sub.dist_matrix[2][1]


def test_equal_values_share_one_fraction(d23):
    space, _ = d23
    # A fresh space, so its view and its closure are made side by side.
    space, _ = space.restrict(range(len(space)), space.base_point)
    closure = shortest_path_closure(space, finest_edges(space))
    n = len(space)
    assert all(space.dist_matrix[i][j] is closure[i][j]
               for i in range(n) for j in range(n))
    assert space.distance(0, 1) is space.distance(1, 0)
    assert space.distance(0, 1) is space.dist_matrix[0][1]
    assert metric.fraction(6, 4) is metric.fraction(3, 2)
    assert parse_fraction("3/2") is metric.fraction(3, 2)
    assert parse_fraction("-6/4") == Fraction(-3, 2)
    shifted = distance_functional(space, 0).shift(Fraction(-1, 3))
    assert all(v is metric.fraction(v.numerator, v.denominator)
               for _, v in shifted.entries)


@pytest.mark.parametrize("array", [
    np.array([[0, 3, 3], [3, 0, 1], [3, 1, 0]]),
    np.array([[0, 5], [5, 0]]),            # an entry past the size: sorted
    np.array([2, -1, 2, 0]),               # a negative entry: sorted
    np.array([[0, 1 << 61], [1 << 61, 0]], dtype=object),
    np.zeros((0, 0), dtype=np.int64),
    np.array([[0, 1 << 40], [1 << 40, 0]]),  # a wide span: sorted
])
def test_distinct_values_match_unique(array):
    made = []

    def make(v):
        made.append(v)
        return f"v{v}"

    lookup = metric.value_lookup(array, make)
    expected = np.unique(array.ravel()).tolist()
    for blocks in (1, 2):
        got = lookup(array)
        assert got.shape == array.shape
        assert got.ravel().tolist() == [f"v{v}" for v in array.flat]
    # The table path makes each value once over both calls; sorting makes
    # each value once per call.
    table = array.dtype.kind == "i" and array.size and 0 <= array.min() \
        and array.max() < 99
    assert made == expected * (1 if table else 2)


# -- Integer ports against Fraction oracles -------------------------------------

@settings(max_examples=40, deadline=None)
@given(partitioned())
def test_summing_metric_matches_oracle(case):
    space, partition = case
    summing = summing_metric(space, partition)
    assert [list(row) for row in summing.dist_matrix] \
        == summing_metric_oracle(space, partition)


@settings(max_examples=40, deadline=None)
@given(partitioned())
def test_equivalence_constants_match_oracle(case):
    space, partition = case
    summing = summing_metric(space, partition)
    report = equivalence_constants(space, summing)
    assert (report.c_low, report.c_high, report.low_pair,
            report.high_pair) == equivalence_constants_oracle(space, summing)


def test_equivalence_witness_is_the_first_pair_in_row_order():
    # Ratios by pair: (0,1) 1/2, (0,2) 1, (0,3) 1, (1,2) 1/2 as 2/4,
    # (1,3) 1/2, (2,3) 1.  Each extreme is tied, across scales too.
    original = MetricSpace("abcd", [[0, 1, 2, 2], [1, 0, 2, 1],
                                    [2, 2, 0, 2], [2, 1, 2, 0]], 0)
    other = MetricSpace("abcd", [[0, 2, 2, 2], [2, 0, 4, 2],
                                 [2, 4, 0, 2], [2, 2, 2, 0]], 0)
    report = equivalence_constants(original, other)
    assert (report.c_low, report.low_pair) == (Fraction(1, 2), (0, 1))
    assert (report.c_high, report.high_pair) == (1, (0, 2))
    scaled = _scaled_copy(other, 1, 3)
    report = equivalence_constants(original, scaled)
    assert (report.c_low, report.low_pair) == (Fraction(3, 2), (0, 1))
    assert (report.c_high, report.high_pair) == (3, (0, 2))
    assert equivalence_constants_oracle(original, scaled) == (
        report.c_low, report.c_high, report.low_pair, report.high_pair)


def test_equivalence_witness_in_a_later_row_block():
    # All distances 2 but d1(150, 151) = 1: the largest ratio 2 is first
    # reached in the second block of rows, after (0, 1) set 1.
    n = 200
    labels = [f"p{i}" for i in range(n)]
    flat = [[0 if i == j else 2 for j in range(n)] for i in range(n)]
    original = MetricSpace(labels, flat, 0)
    flat[150][151] = flat[151][150] = 1
    summing = MetricSpace(labels, flat, 0)
    rows = lipschitz._rows_per_block(n, original, summing)
    assert rows <= 150 < 2 * rows < n
    report = equivalence_constants(original, summing)
    assert (report.c_high, report.high_pair) == (2, (150, 151))
    assert (report.c_low, report.low_pair) == (1, (0, 1))
    assert equivalence_constants_oracle(original, summing) == (
        report.c_low, report.c_high, report.low_pair, report.high_pair)


def test_equivalence_constants_read_only_pairs_i_below_j():
    # d(1, 0) = 4 on an asymmetric table is never a pair i < j.
    original = MetricSpace("abc", [[0, 1, 1], [4, 0, 1], [1, 1, 0]], 0)
    ones = MetricSpace("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]], 0)
    report = equivalence_constants(original, ones)
    assert (report.c_low, report.c_high, report.low_pair,
            report.high_pair) == (1, 1, (0, 1), (0, 1))


def test_equivalence_constants_refuse_a_zero_distance():
    original = MetricSpace("ab", [[0, 1], [1, 0]], 0)
    flat = MetricSpace("ab", [[0, 0], [0, 0]], 0)
    with pytest.raises(ValueError, match="non-positive"):
        equivalence_constants(original, flat)


_LIMITS = [DiamondSpec(OMEGA, 2, 1), DiamondSpec(OMEGA, 2, 2),
           DiamondSpec(OMEGA, 3, 2), DiamondSpec(OMEGA, 3, 3)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_LIMITS), st.integers(1, 60), st.integers(1, 60))
def test_build_cover_matches_oracle(spec, num, den):
    space, lm = build_cached(spec)
    # Scaling moves points across the 3/2 thresholds; at small factors a
    # half's complement is empty and every separation is None.
    copy = _scaled_copy(space, num, den)
    cover = build_cover(copy, lm)
    assert (cover.bottom_half, cover.top_half, cover.separation) \
        == cover_oracle(copy, lm.bottom, lm.top)


@st.composite
def random_metrics(draw):
    """The shortest-path closure of random positive weights k/den on a
    complete graph of 2 to 8 points."""
    n = draw(st.integers(2, 8))
    den = draw(st.integers(1, 6))
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(st.integers(1, 12))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                mat[i][j] = min(mat[i][j], mat[i][k] + mat[k][j])
    return MetricSpace.from_scaled([f"p{i}" for i in range(n)], mat, den, 0)


@settings(max_examples=60, deadline=None)
@given(random_metrics())
def test_build_cover_matches_oracle_on_random_metrics(space):
    # The cover reads only the poles (top 0, bottom 1) from the landmarks,
    # so any metric can stand in; unlike a diamond stage, one half's
    # complement can be empty while the other's is not.
    _, lm = build_cached(DiamondSpec(OMEGA, 2, 1))
    cover = build_cover(space, lm)
    assert (cover.bottom_half, cover.top_half, cover.separation) \
        == cover_oracle(space, lm.bottom, lm.top)


def test_metric_oracle_names_the_disagreeing_pair(monkeypatch):
    # A planted builder fault: poles 3 apart in the base stage, which
    # every stage inherits, so top - mid(1) - bottom is shorter.
    outer = diamond._outer_numerators

    def poles_too_far(n):
        out = outer(n)
        out[0, 1] = out[1, 0] = 3
        return out

    monkeypatch.setattr(diamond, "_outer_numerators", poles_too_far)
    monkeypatch.setattr(diamond, "_build_cache", {})
    result = run_check("metric-oracle", SuiteConfig(seed=0))
    assert result.status == "fail"
    assert result.details == (
        "MetricAxiomError: triangle violation: d(0,1) = 3 between top and "
        "bottom exceeds d(0,2) + d(2,1) = 2 through mid(1)")
