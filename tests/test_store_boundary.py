"""The boundary around the narrow distance store.

Core claims checked here:
  * only whole-table passes read the store itself: an ``ast`` scan of
    ``src/`` finds ``_stored()`` called by exactly the named passes, and
    ``_scaled`` read nowhere outside ``MetricSpace``,
  * only ``metric`` names the block budget ``_GROUP_BYTES``: every other
    module sizes its blocks through ``metric._row_blocks``,
  * the paths that read rows and blocks run on a built, validated stage
    with ``MetricSpace._stored`` replaced by one that raises: norms and
    certificates, the Lipschitz kernels and distance functionals, copy
    pulls and pole gluing, prove and verify for every adversary kind,
    and the box oracle,
  * a build adopts its matrix: the traced peak of the α=5 build stays
    within 1.3 times its store, and that of the ω build (n=3, width 5)
    within 1.25 times, since its summands are built inside its matrix;
    a limit build keeps no summand store: what the ω build (n=4, width
    4) leaves allocated stays within 1.25 times its store,
  * the equivalence constants read pair blocks: on the 1,985-point
    bottom half of that ω stage their traced peak stays within half of
    one n×n int64 table,
  * ``from_scaled`` copies: the caller's array stays writable and its
    own, and ``integer_scaled()`` is a fresh read-only int64 copy,
  * ``read_space`` parses a 779-point file a row of ``dist`` records at
    a time: the traced peak beyond what it keeps stays under a quarter
    of one n×n int64 table for a respelled echo file, and under half a
    table for a file with no echo, whose value codes and numerators
    each fill a table in the narrowest dtype that holds them.
"""

import ast
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

from diamondlab import (ADVERSARY_KINDS, OMEGA, AdversaryConfig, DiamondSpec,
                        LipschitzFunction, MetricSpace, adversary_family,
                        build, build_cached, collect_vectors,
                        decompose_limit, distance_functional,
                        equivalence_constants, free_norm, glue_poles,
                        is_lipschitz_at_most, lip_constant, mcshane_extend,
                        molecule, norm_value, prover_certify, pull_to_copy,
                        relative_derivation_oracle, verify_certificate,
                        verify_transcript)
from diamondlab.io import read_space, write_space

SRC = Path(__file__).resolve().parent.parent / "src" / "diamondlab"

# Functions that read the whole narrow table, as module.function or
# module.Class.method, and why.
WHOLE_TABLE_PASSES = {
    "metric._scan_edges",                  # the scan, the metric check
    "metric.closure_numerators",           # the closure's edge lengths
    "diamond.build_cached",                # the cache counts store bytes
    "diamond._stage",                      # the assembler copies tables
    "io._dist_rows",                       # space-file rows, written
    "io.read_space",                       # and compared
    "decomposition.summing_metric",
    "decomposition.build_cover",
}


def _store_readers():
    """(callers of ``_stored()``, readers of ``_scaled`` outside
    ``MetricSpace``), each as a set of qualified function names."""
    stored, scaled = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, scope, in_function):
            for child in ast.iter_child_nodes(node):
                inner, nested = scope, in_function
                # A nested function counts as the function around it.
                if (isinstance(child, (ast.FunctionDef, ast.ClassDef))
                        and not in_function):
                    inner = scope + (child.name,)
                    nested = isinstance(child, ast.FunctionDef)
                name = ".".join((path.stem, *inner))
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "_stored"):
                    stored.add(name)
                if (isinstance(child, ast.Attribute)
                        and child.attr == "_scaled"
                        and not name.startswith("metric.MetricSpace.")):
                    scaled.add(name)
                visit(child, inner, nested)

        visit(tree, (), False)
    return stored, scaled


def test_only_whole_table_passes_read_the_store():
    stored, scaled = _store_readers()
    assert stored - WHOLE_TABLE_PASSES == set(), "not a whole-table pass"
    assert WHOLE_TABLE_PASSES - stored == set(), "stale allow-list entry"
    assert scaled == set()


def test_only_metric_names_the_block_budget():
    # Every other module sizes its blocks through ``metric._row_blocks``.
    naming = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "_GROUP_BYTES" in (getattr(node, "id", None),
                                  getattr(node, "attr", None),
                                  getattr(node, "name", None)):
                naming.add(path.name)
    assert naming == {"metric.py"}


def test_row_and_block_paths_run_without_the_store(monkeypatch):
    spec = DiamondSpec(3, 3)
    space, lm = build(spec)
    space.validate_metric()
    pred_space, pred_lm = lm.predecessor

    def refuse(self):
        raise AssertionError("_stored() was called")

    monkeypatch.setattr(MetricSpace, "_stored", refuse)

    vec = molecule(space, lm.top, lm.bottom) + molecule(space, 3, 40)
    value = norm_value(vec)
    cert_value, cert = free_norm(vec)
    assert value == cert_value and verify_certificate(cert)

    anchor = distance_functional(space, lm.top)
    assert lip_constant(anchor) == 1 and is_lipschitz_at_most(anchor, 1)
    partial = LipschitzFunction(space, [(lm.top, 0), (lm.bottom, 1)])
    assert lip_constant(mcshane_extend(partial)) == Fraction(1, 2)

    unit = distance_functional(pred_space, pred_lm.top,
                               vanish_at=pred_lm.ell)
    plus = pull_to_copy(space, lm, "+", 3, unit)
    minus = pull_to_copy(space, lm, "-", 2, unit)
    glued = glue_poles(space, lm, 3, plus, 2, minus)
    assert glued.is_total and glued.value(lm.ell) == 0

    for kind in ADVERSARY_KINDS:
        config = AdversaryConfig(kind, 3, Fraction(1, 10), 1)
        transcript = prover_certify(space, lm, 3, config)
        assert verify_transcript(space, transcript).passed, kind
        survivors = relative_derivation_oracle(
            space, collect_vectors(transcript),
            adversary_family(space, lm, config), config.eta, Fraction(1), 2)
        assert transcript.root.target in survivors, kind


def _traced(call):
    """``call()``, its traced peak and what it leaves allocated."""
    tracemalloc.start()
    try:
        result = call()
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, left


def test_a_build_peaks_near_its_store():
    (space, _), peak, _ = _traced(lambda: build(DiamondSpec(5, 3)))
    store = space._stored()[0].nbytes
    assert store == len(space) ** 2  # int8
    assert peak <= 1.3 * store


def test_a_limit_build_peaks_near_its_store():
    # Summands are built inside the limit's matrix, never as stores.
    (space, _), peak, _ = _traced(lambda: build(DiamondSpec(OMEGA, 3, 5)))
    store = space._stored()[0].nbytes
    assert len(space) == 5597 and store == len(space) ** 2  # int8
    assert peak <= 1.25 * store


def test_a_limit_build_keeps_no_summand_store():
    (space, lm), _, left = _traced(lambda: build(DiamondSpec(OMEGA, 4, 4)))
    store = space._stored()[0].nbytes
    assert len(lm.summands) == 4
    assert left <= 1.25 * store


def test_an_extension_from_few_anchors_reads_few_rows_at_a_time():
    # Blocks on a few anchors are sized from the whole rows they copy,
    # not from their columns: the traced peak stays far below the store.
    space, lm = build_cached(DiamondSpec(5, 3))
    f = LipschitzFunction(space, {lm.top: Fraction(0),
                                  lm.bottom: Fraction(1, 2),
                                  lm.ell: Fraction(1, 4)})
    total, peak, _ = _traced(lambda: mcshane_extend(f, Fraction(1)))
    assert total.is_total and total.value(lm.ell) == Fraction(1, 4)
    assert peak <= space._stored()[0].nbytes / 16


def test_equivalence_constants_read_pair_blocks():
    space, lm = build(DiamondSpec(OMEGA, 4, 4))
    dec = decompose_limit(space, lm)
    sub, summing = dec.sub, dec.summing
    assert len(sub) == 1985
    report, peak, _ = _traced(lambda: equivalence_constants(sub, summing))
    assert report == dec.constants
    assert peak <= len(sub) ** 2 * 8 / 2


def test_from_scaled_copies_the_callers_array():
    # The common factor 2 is divided out of the space's numerators.
    mat = np.array([[0, 2, 4], [2, 0, 2], [4, 2, 0]], dtype=np.int64)
    space = MetricSpace.from_scaled(["a", "b", "c"], mat, 4, 0)
    assert mat.flags.writeable
    assert mat.tolist() == [[0, 2, 4], [2, 0, 2], [4, 2, 0]]
    mat[0, 1] = mat[1, 0] = 7
    assert space.distance(0, 1) == Fraction(1, 2)
    wide, scale = space.integer_scaled()
    assert scale == 2 and wide.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert wide.dtype == np.int64 and wide.flags.c_contiguous
    assert not wide.flags.writeable
    assert wide is not space.integer_scaled()[0]


def test_read_space_parses_a_row_at_a_time(tmp_path):
    spec = DiamondSpec(4, 3)
    space, lm = build_cached(spec)
    table = len(space) ** 2 * 8
    echo, bare = tmp_path / "echo.txt", tmp_path / "bare.txt"
    write_space(str(echo), space, lm, spec)
    text = echo.read_text()
    respelled = text.replace("\ndist 3 4 ", "\ndist 3  4 ", 1)
    assert respelled != text
    echo.write_text(respelled)
    write_space(str(bare), space)

    (read, _, _), peak, left = _traced(lambda: read_space(str(echo)))
    assert read is space and peak - left <= table / 4
    (read, _, _), peak, left = _traced(lambda: read_space(str(bare)))
    assert read.dist_matrix == space.dist_matrix
    assert peak - left <= table / 2
