"""The narrow distance store.

Core claims checked here:
  * a space keeps its numerators in the narrowest signed integer dtype
    that holds them (int8 for the alpha=4 and alpha=5 stages, and for a
    height-6 stage, whose distances reach 64 = 2 * 32), and
    ``integer_scaled()`` is a read-only int64 copy of them,
  * every kernel gives on the narrow store what it gives on an int64 twin
    of the same numerators, also when the largest entry sits at the
    dtype's limit (127, 32,767 and 2^31 - 1), where a sum of two entries
    wraps unless a block is widened first,
  * no library path calls ``integer_scaled()``: building, validating,
    edges, closure, norms, certificates, a game and both file kinds run
    on the α=3 stage with the method replaced by one that raises,
  * ``dist_matrix``, ``write_space`` and ``read_space`` on the 779-point
    stage peak, beyond what they return, below a quarter of one n×n
    int64 table, and ``shortest_path_closure`` peaks in all below half
    of one (traced by ``tracemalloc``),
  * ``summing_metric`` on a limit stage's 4,183-point bottom half peaks
    below 1.5 times the store it returns, which it writes in place, with
    no wider table and no narrowing copy,
  * ``build_cached`` keeps the most recently used stages whose stores
    fit its byte cap, and a hit stays the same object.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from diamondlab import (OMEGA, AdversaryConfig, DiamondSpec, FreeVector,
                        LipschitzFunction, MetricSpace, SummandPartition,
                        build, build_cached, build_cover, cover_partition,
                        distance_functional, equivalence_constants,
                        finest_edges, free_norm, is_lipschitz_at_most,
                        lip_constant, mcshane_extend, molecule, norm_value,
                        prover_certify, shortest_path_closure,
                        summing_metric, verify_certificate,
                        verify_transcript)
from diamondlab import diamond
from diamondlab.diamond import closure_numerators
from diamondlab.io import (TranscriptDocument, read_space, read_transcript,
                           write_space, write_transcript)
from deadline import within

LIMITS = {np.int8: 127, np.int16: (1 << 15) - 1, np.int32: (1 << 31) - 1}


def _int64_twin(space):
    """The same space, with its store held as int64."""
    twin = MetricSpace.from_scaled(space.labels, *space.integer_scaled(),
                                   space.base_point)
    twin._scaled = space.integer_scaled()
    assert twin._stored()[0].dtype == np.int64
    return twin


@st.composite
def narrow_spaces(draw):
    """A metric on 3 to 7 points, stored as int8, int16 or int32, with its
    largest entry at that dtype's limit or, for int8, anywhere below."""
    n = draw(st.integers(3, 7))
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = mat[j][i] = draw(st.integers(1, 12))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                mat[i][j] = min(mat[i][j], mat[i][k] + mat[k][j])
    dtype = draw(st.sampled_from(sorted(LIMITS, key=LIMITS.get)))
    den = draw(st.sampled_from([1, 3, 4]))
    if draw(st.booleans()) or dtype is not np.int8:
        # Adding one constant off the diagonal keeps every triangle.
        top = LIMITS[dtype]
        lift = top - max(map(max, mat))
        mat = [[v + lift if i != j else 0 for j, v in enumerate(row)]
               for i, row in enumerate(mat)]
        if draw(st.booleans()):
            # Entries near 3/2 put points in both pole-cover halves, whose
            # margins then add two entries near the limit.
            den = 2 * top // 3 - draw(st.integers(0, 8))
    space = MetricSpace.from_scaled([f"p{i}" for i in range(n)], mat, den,
                                    draw(st.integers(0, n - 1)))
    stored, _ = space._stored()
    # A common factor with the denominator would be divided out.
    assume(stored.max() == max(map(max, mat)))
    assert stored.dtype == dtype
    return space


def _values(draw, space, size):
    points = draw(st.lists(st.integers(0, len(space) - 1), min_size=size,
                           max_size=size, unique=True))
    return [(p, Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 5))))
            for p in points]


# No shrinking: a wrapped sum can make an iterative kernel spin, and every
# shrinking step would then wait out the deadline.
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(space=narrow_spaces(), data=st.data())
def test_kernels_agree_on_the_narrow_store_and_an_int64_twin(
        tmp_path_factory, space, data):
    with within(5):
        _check_kernels(space, _int64_twin(space), data.draw,
                       tmp_path_factory.mktemp("files"))


def _check_kernels(space, twin, draw, folder):
    n = len(space)
    spaces = (space, twin)

    edges = finest_edges(space)
    assert edges == finest_edges(twin)
    for s in spaces:
        s.validate_metric()
    closures = [closure_numerators(s, edges) for s in spaces]
    assert np.array_equal(closures[0], closures[1])
    assert np.array_equal(closures[0], space.integer_scaled()[0])
    assert space.dist_matrix == twin.dist_matrix

    entries = _values(draw, space, draw(st.integers(1, n)))
    norms = [norm_value(FreeVector(s, entries)) for s in spaces]
    assert norms[0] == norms[1]
    certs = [free_norm(FreeVector(s, entries))[1] for s in spaces]
    assert certs[0].plan == certs[1].plan
    assert certs[0].potential.entries == certs[1].potential.entries
    assert verify_certificate(certs[0])

    values = _values(draw, space, draw(st.integers(2, n)))
    funcs = [LipschitzFunction(s, values) for s in spaces]
    assert lip_constant(funcs[0]) == lip_constant(funcs[1])
    bound = Fraction(draw(st.integers(0, 30)), draw(st.integers(1, 9)))
    assert (is_lipschitz_at_most(funcs[0], bound)
            == is_lipschitz_at_most(funcs[1], bound))
    extended = [mcshane_extend(f) for f in funcs]
    assert extended[0].entries == extended[1].entries
    anchor = draw(st.integers(0, n - 1))
    assert (distance_functional(space, anchor).entries
            == distance_functional(twin, anchor).entries)

    base = space.base_point
    owners = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    partition = SummandPartition(base, tuple(
        tuple(i for i in range(n) if i != base and owners[i] == m)
        for m in range(3)))
    summing = [summing_metric(s, partition) for s in spaces]
    assert np.array_equal(summing[0].integer_scaled()[0],
                          summing[1].integer_scaled()[0])
    assert (equivalence_constants(space, summing[0])
            == equivalence_constants(twin, summing[1]))

    _, lm = build_cached(DiamondSpec(OMEGA, 2, 1))  # poles 0 and 1 only
    covers = [build_cover(s, lm) for s in spaces]
    assert covers[0] == covers[1]

    paths = [folder / "narrow.txt", folder / "twin.txt"]
    for s, path in zip(spaces, paths):
        write_space(str(path), s)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    read, _, _ = read_space(str(paths[0]))
    assert np.array_equal(read._stored()[0], space._stored()[0])


@pytest.mark.parametrize("alpha", [4, 5])
def test_diamond_stores_are_int8(alpha):
    space, _ = build_cached(DiamondSpec(alpha, 3))
    stored, scale = space._stored()
    assert stored.dtype == np.int8
    wide, wide_scale = space.integer_scaled()
    assert wide.dtype == np.int64 and wide.flags.c_contiguous
    assert not wide.flags.writeable and wide_scale == scale
    assert np.array_equal(wide, stored)


@pytest.mark.parametrize("spec, edges", [
    (DiamondSpec(6, 2), 4 ** 6),
    (DiamondSpec(OMEGA, 2, limit_width=6), sum(4 ** k for k in range(1, 7))),
])
def test_height_six_stages_fill_int8_and_are_metrics(spec, edges):
    # Height 6 is the tallest int8 holds: distances reach 64 = 2 * 32, on
    # a successor and on a limit stage.
    space, _ = build(spec)
    stored, scale = space._stored()
    assert stored.dtype == np.int8 and stored.max() == 2 * scale == 64
    space.validate_metric()
    assert len(finest_edges(space)) == edges


def test_closure_sums_fit_its_working_dtype():
    # With 7 points and largest entry 4,000 the path bound 4,001 * 8 fits
    # int16, but the bound plus one more edge does not.
    n, top = 7, 4000
    mat = [[0 if i == j else top - (i + j) % 3 for j in range(n)]
           for i in range(n)]
    space = MetricSpace.from_scaled([f"p{i}" for i in range(n)], mat, 1, 0)
    closure = closure_numerators(space, finest_edges(space))
    assert np.array_equal(closure, space._stored()[0])


def test_closure_comes_back_in_the_narrowest_dtype():
    space, _ = build_cached(DiamondSpec(4, 3))
    closure = closure_numerators(space, finest_edges(space))
    assert closure.dtype == np.int8
    assert np.array_equal(closure, space._stored()[0])


def test_no_library_path_copies_the_store(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("integer_scaled() was called")

    monkeypatch.setattr(MetricSpace, "integer_scaled", refuse)
    spec = DiamondSpec(3, 3)
    space, lm = build(spec)
    space.validate_metric()
    edges = finest_edges(space)
    shortest_path_closure(space, edges)
    vec = molecule(space, lm.top, lm.bottom) + molecule(space, 3, 40)
    value = norm_value(vec)
    cert_value, cert = free_norm(vec)
    assert value == cert_value and verify_certificate(cert)
    config = AdversaryConfig("adaptive_dual", 3, Fraction(1, 10), 1)
    transcript = prover_certify(space, lm, 3, config)
    assert verify_transcript(space, transcript).passed

    echo, bare = tmp_path / "echo.txt", tmp_path / "bare.txt"
    write_space(str(echo), space, lm, spec)
    write_space(str(bare), space)
    assert read_space(str(echo))[0].labels == space.labels
    assert read_space(str(bare))[0].dist_matrix == space.dist_matrix
    game = tmp_path / "game.txt"
    write_transcript(str(game), TranscriptDocument(transcript), spec)
    doc, _, _ = read_transcript(str(game), space, lm)
    assert verify_transcript(space, doc.transcript).passed


def _traced(call):
    """``call()``, with what it leaves allocated and its traced peak."""
    tracemalloc.start()
    try:
        result = call()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return left, peak, result


def _extra_peak(call):
    """``call()`` and its traced peak beyond what it leaves allocated."""
    left, peak, result = _traced(call)
    return peak - left, result


def test_dense_passes_keep_no_table_sized_temporary(tmp_path):
    spec = DiamondSpec(4, 3)
    space, lm = build_cached(spec)
    n = len(space)
    quarter = n * n * 8 / 4
    edges = finest_edges(space)
    fresh, _ = build(spec)
    path = str(tmp_path / "space.txt")

    extra, rows = _extra_peak(lambda: fresh.dist_matrix)
    assert extra < quarter and rows == space.dist_matrix
    _, peak, rows = _traced(lambda: shortest_path_closure(space, edges))
    assert peak < 2 * quarter and rows == list(map(list, space.dist_matrix))
    extra, _ = _extra_peak(lambda: write_space(path, space, lm, spec))
    assert extra < quarter
    extra, (read, _, _) = _extra_peak(lambda: read_space(path))
    assert extra < quarter and read is space


def test_summing_metric_forms_no_table_beside_its_store():
    # The bottom half of omega (n=3, width 5) has 4,183 points in five
    # slices.  ``cover_partition`` validated the stage outside the trace,
    # and the half inherits that, so the summing metric checks nothing
    # more.
    space, lm = build(DiamondSpec(OMEGA, 3, limit_width=5))
    cover = build_cover(space, lm)
    sub, _, partition = cover_partition(space, lm, cover.bottom_half,
                                        lm.bottom)
    _, peak, summing = _traced(lambda: summing_metric(sub, partition))
    stored, scale = summing._stored()
    assert len(sub) == 4183 and stored.dtype == np.int8
    assert peak < 1.5 * stored.nbytes
    mat, sub_scale = sub.integer_scaled()
    owner = np.full(len(sub), -1)
    for m, members in enumerate(partition.summands):
        owner[list(members)] = m
    base = partition.base
    expected = np.where(owner[:, None] != owner,
                        mat[:, base, None] + mat[base], mat)
    assert scale == sub_scale and np.array_equal(stored, expected)


def test_build_cache_keeps_recent_stages_within_its_byte_cap(monkeypatch):
    specs = [DiamondSpec(2, 3), DiamondSpec(2, 4), DiamondSpec(1, 3)]
    sizes = [diamond.estimate_points(spec) ** 2 for spec in specs]
    monkeypatch.setattr(diamond, "_build_cache", {})
    monkeypatch.setattr(diamond, "_MATRIX_BYTES", sum(sizes) - 1)
    first, second, third = specs
    a, _ = build_cached(first)
    b, _ = build_cached(second)
    assert build_cached(first)[0] is a  # now the most recent
    build_cached(third)
    # The three int8 stores exceed the cap, so the least recent goes.
    assert list(diamond._build_cache) == [first, third]
    assert build_cached(first)[0] is a
    assert build_cached(second)[0] is not b
    monkeypatch.setattr(diamond, "_MATRIX_BYTES", 1)
    c, _ = build_cached(second)
    # The newest stage stays, even alone over the cap.
    assert list(diamond._build_cache) == [second]
    assert build_cached(second)[0] is c
