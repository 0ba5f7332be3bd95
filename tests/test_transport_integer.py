"""The integer transport solver and dual potential.

Core claims checked here:
  * norms agree exactly with the spanning-tree oracle on diamond stages,
    a restricted subspace, a summing metric and a stage scaled so its
    distance numerators sit just below 2^60, for dyadic, non-dyadic and
    huge (near 3^40) coefficient denominators,
  * the dual is the largest potential that is tight on the plan, so the
    certificate potential is its McShane extension and verifies,
  * a feasible but non-optimal plan fails the optimality re-check,
  * the stage with numerators near 2^60 validates on Python-int edge
    closures, and a violation planted in it is refused,
  * certificate files for fixed vectors are byte-identical to the ones
    the Fraction solver wrote,
  * the suite's duality-gap check counts only its own solves and fails
    when a solve skips the primal-dual comparison,
  * norms agree exactly with networkx's min-cost flow on supports up to
    64 of the alpha=3, n=4 stage and on the near-2^60 stage,
  * the dual, and so the certificate potential, is the same whichever
    optimal plan it is built from, and a certificate built from another
    optimal plan verifies,
  * the ``paths`` counter counts one search per augmentation and
    nothing on a cache hit,
  * a space is collected once nothing outside the norm caches holds it.
"""

import gc
import itertools
import random
import weakref
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diamondlab import (
    OMEGA,
    CertificateError,
    DiamondSpec,
    FreeVector,
    LipschitzFunction,
    MetricAxiomError,
    MetricSpace,
    TransportCertificate,
    build,
    build_cached,
    build_cover,
    cover_partition,
    finest_edges,
    free_norm,
    mcshane_extend,
    molecule,
    norm_statistics,
    norm_value,
    run_check,
    summing_metric,
    verify_certificate,
)
from diamondlab import freespace
from diamondlab.diamond import closure_numerators
from diamondlab import io as dio
from diamondlab.suite import SuiteConfig
from oracles import free_norm_oracle, largest_potential_oracle

BIG = 3 ** 40  # above 2^63, so masses leave int64

GOLDEN = Path(__file__).resolve().parent / "golden"


@cache
def _spaces():
    d23, _ = build_cached(DiamondSpec(2, 3))
    d33, _ = build_cached(DiamondSpec(3, 3))
    dw, lm = build_cached(DiamondSpec(OMEGA, 3, limit_width=3))
    keep = sorted({*range(0, len(d33), 3), d33.base_point})
    sub, _ = d33.restrict(keep, d33.base_point)
    half, _, partition = cover_partition(dw, lm, build_cover(dw, lm)
                                         .bottom_half, lm.bottom)
    # d23 times the non-dyadic factor K*S/(K*S + 1): the dual's sums of
    # distance numerators no longer provably fit in int64.
    mat, scale = d23.integer_scaled()
    factor = (1 << 60) // (int(mat.max()) + 1)
    huge = MetricSpace.from_scaled(d23.labels, mat.astype(object) * factor,
                                   scale * factor + 1, d23.base_point)
    return {"d23": d23, "restricted": sub,
            "summing": summing_metric(half, partition), "huge": huge}


def _coefficients(kind):
    if kind == "dyadic":
        return st.builds(Fraction, st.integers(1, 64),
                         st.integers(0, 6).map(lambda k: 1 << k))
    if kind == "thirds":
        return st.builds(Fraction, st.integers(1, 90),
                         st.sampled_from([3, 6, 9, 5, 7, 15]))
    return st.builds(Fraction, st.integers(1, 2 * BIG),
                     st.integers(-4, 4).map(lambda j: BIG + j))


@st.composite
def vectors(draw):
    """A vector with up to 3 positive and 3 negative coefficients."""
    space = _spaces()[draw(st.sampled_from(sorted(_spaces())))]
    points = draw(st.lists(st.integers(0, len(space) - 1), min_size=1,
                           max_size=6, unique=True))
    split = draw(st.integers(0, min(3, len(points))))
    if len(points) - split > 3:
        points = points[:split + 3]
    kind = draw(st.sampled_from(["dyadic", "thirds", "huge"]))
    mags = draw(st.lists(_coefficients(kind), min_size=len(points),
                         max_size=len(points)))
    return FreeVector(space, [(p, m if k < split else -m)
                              for k, (p, m) in enumerate(zip(points, mags))])


@settings(max_examples=50, deadline=None)
@given(vectors())
def test_solver_matches_tree_oracle(vec):
    space = vec.space
    value, cert = free_norm(vec)
    assert value == free_norm_oracle(space, vec)
    assert verify_certificate(cert)
    nodes = sorted({space.base_point, *vec.support})
    largest = largest_potential_oracle(space, nodes, space.base_point,
                                       cert.plan)
    partial = LipschitzFunction(space, largest)
    assert cert.potential == mcshane_extend(partial)


def test_huge_space_runs_the_dual_on_python_ints():
    space = _spaces()["huge"]
    mat, _ = space.integer_scaled()
    # Four dual nodes: (4 + 2) * peak passes the int64 bound.
    assert 6 * int(mat.max()) >= 1 << 62
    d23 = _spaces()["d23"]
    entries = [(1, Fraction(1, 3)), (7, Fraction(-5, 2)), (19, Fraction(2))]
    ratio = space.distance(0, 1) / d23.distance(0, 1)
    assert norm_value(FreeVector(space, entries)) \
        == ratio * norm_value(FreeVector(d23, entries))


def test_huge_space_validates_on_python_int_closures():
    # (max + 1) * (n + 1) passes 2^60, so the closure rows hold Python
    # ints instead of raising OverflowError.
    space = _spaces()["huge"]
    mat, scale = space.integer_scaled()
    closure = closure_numerators(space, finest_edges(space))
    assert closure.dtype == object
    assert (closure == mat).all()
    space.validate_metric()
    d23 = _spaces()["d23"]
    top, bottom = d23.index_of("top"), d23.index_of("bottom")
    bad = mat.astype(object)
    bad[top, bottom] += 1
    bad[bottom, top] += 1
    planted = MetricSpace.from_scaled(space.labels, bad, scale,
                                      space.base_point)
    with pytest.raises(MetricAxiomError, match="triangle"):
        planted.validate_metric()


def test_optimality_recheck_rejects_a_non_optimal_plan(d23):
    # Crossing the two pairings is feasible but costs more: the tight
    # arcs then close a negative cycle.
    space, lm = d23
    near_top = space.index_of("+(2)/mid(2)")
    near_bottom = space.index_of("-(2)/mid(2)")
    vec = FreeVector(space, [(lm.top, 1), (lm.bottom, 1),
                             (near_top, -1), (near_bottom, -1)])
    one = Fraction(1)
    crossed = [(lm.top, near_bottom, one), (lm.bottom, near_top, one)]
    straight = [(lm.top, near_top, one), (lm.bottom, near_bottom, one)]
    assert norm_value(vec) == sum(space.distance(x, y)
                                  for x, y, _ in straight)
    assert freespace._dual_potential(space, vec, straight)
    with pytest.raises(CertificateError, match="optimality re-check"):
        freespace._dual_potential(space, vec, crossed)


FROZEN = [
    [("top", Fraction(3, 2)), ("bottom", Fraction(-1, 3))],
    [("+(1)/mid(1)", Fraction(2, 7)), ("-(2)/mid(3)", Fraction(-5, 8)),
     ("mid(2)", Fraction(1)), ("top", Fraction(-1, 3))],
    [("+(3)/mid(2)", Fraction(1, 3 ** 20)), ("-(1)/mid(1)", Fraction(-7, 2)),
     ("+(2)/mid(3)", Fraction(5, 9)), ("-(3)/mid(2)", Fraction(-1, 6)),
     ("bottom", Fraction(11, 4))],
]


@pytest.mark.parametrize("k", range(len(FROZEN)))
def test_certificate_files_are_frozen(d23, tmp_path, k):
    space, _ = d23
    vec = FreeVector(space, [(space.index_of(label), c)
                             for label, c in FROZEN[k]])
    freespace.clear_norm_caches(space)
    _, cert = free_norm(vec)
    path = tmp_path / "cert.txt"
    dio.write_certificate(str(path), cert, DiamondSpec(2, 3))
    assert (path.read_bytes()
            == (GOLDEN / f"certificate_d23_{k}.txt").read_bytes())


def test_duality_gap_check_counts_its_own_solves(monkeypatch):
    cfg = SuiteConfig()
    first = run_check("duality-gap", cfg)
    again = run_check("duality-gap", cfg)
    assert first.status == again.status == "pass"
    assert first.details == again.details
    monkeypatch.setattr(freespace, "_gap_check", lambda *args: None)
    skipped = run_check("duality-gap", cfg)
    assert skipped.status == "fail"
    assert "only 0 primal-dual comparisons" in skipped.details


def test_trusted_results_equal_checked_ones(d23):
    space, _ = d23
    f = LipschitzFunction(space, {0: Fraction(0), 5: Fraction(7, 3),
                                  9: Fraction(-1, 2)})
    for g in (mcshane_extend(f), f.shift(Fraction(5, 9)),
              f.scale(Fraction(-3, 2)), mcshane_extend(
                  LipschitzFunction(space, {}))):
        checked = LipschitzFunction(space, dict(g.entries))
        assert g == checked
        assert all(g.value(i) == v for i, v in checked.entries)


@st.composite
def wide_vectors(draw):
    """Up to 64 support points on the alpha=3, n=4 stage, or any support
    on the near-2^60 stage, with coefficients of one kind."""
    if draw(st.booleans()):
        space, _ = build_cached(DiamondSpec(3, 4))
    else:
        space = _spaces()["huge"]
    size = draw(st.integers(1, min(64, len(space) - 1)))
    points = draw(st.lists(st.integers(0, len(space) - 1), min_size=size,
                           max_size=size, unique=True))
    kind = draw(st.sampled_from(["dyadic", "thirds", "huge"]))
    mags = draw(st.lists(_coefficients(kind), min_size=size, max_size=size))
    signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return FreeVector(space, [(p, m if s else -m)
                              for p, m, s in zip(points, mags, signs)])


def _networkx_cost(nx, vec):
    """Cheapest flow on the complete digraph over the support plus base,
    the base absorbing the imbalance, as a numerator over ``M * S``."""
    space = vec.space
    mat, _ = space.integer_scaled()
    support, nums, _ = vec.integer_scaled()
    base = space.base_point
    graph = nx.DiGraph()
    for x, n in zip(support, nums):
        graph.add_node(x, demand=-n)
    graph.add_node(base, demand=sum(nums))
    for x, y in itertools.permutations(graph.nodes, 2):
        graph.add_edge(x, y, weight=int(mat[x, y]))
    return nx.min_cost_flow_cost(graph)


def _assert_matches_networkx(vec):
    nx = pytest.importorskip("networkx")
    _, _, den = vec.integer_scaled()
    scale = vec.space.integer_scaled()[1]
    assert norm_value(vec) == Fraction(_networkx_cost(nx, vec), den * scale)


@settings(max_examples=40, deadline=None)
@given(wide_vectors())
def test_solver_matches_networkx_min_cost_flow(vec):
    _assert_matches_networkx(vec)


@pytest.mark.parametrize("kind", ["dyadic", "thirds", "huge"])
def test_solver_matches_networkx_at_support_64(kind):
    rng = random.Random(kind)
    space, _ = build_cached(DiamondSpec(3, 4))
    masses = {"dyadic": lambda: Fraction(rng.randint(1, 64),
                                         1 << rng.randint(0, 6)),
              "thirds": lambda: Fraction(rng.randint(1, 90),
                                         rng.choice([3, 6, 9, 5, 7, 15])),
              "huge": lambda: Fraction(rng.randint(1, 2 * BIG),
                                       BIG + rng.randint(-4, 4))}[kind]
    points = rng.sample([i for i in range(len(space))
                         if i != space.base_point], 64)
    vec = FreeVector(space, [(p, rng.choice([-1, 1]) * masses())
                             for p in points])
    assert len(vec.support) == 64
    _assert_matches_networkx(vec)


def _tie_swap(space, plan):
    """Another optimal plan: two pairs of ``plan`` whose crossed pairing
    costs the same, with the smaller mass moved across; None if no two
    pairs tie."""
    for (x1, y1, m1), (x2, y2, m2) in itertools.combinations(plan, 2):
        if x1 == x2 or y1 == y2:
            continue
        straight = space.distance(x1, y1) + space.distance(x2, y2)
        if space.distance(x1, y2) + space.distance(x2, y1) != straight:
            continue
        moved = min(m1, m2)
        masses = {(x, y): m for x, y, m in plan}
        for pair, step in (((x1, y1), -moved), ((x2, y2), -moved),
                           ((x1, y2), moved), ((x2, y1), moved)):
            masses[pair] = masses.get(pair, 0) + step
        return tuple(sorted((x, y, m) for (x, y), m in masses.items() if m))
    return None


def _tied_vector(name):
    """top + bottom - mid(2) - mid(3) on alpha=2 and alpha=3 (the base is
    mid(1)); on the summing metric, two points of one summand against two
    of another, so every plan runs through the base and all cost the
    same."""
    if name == "summing":
        space = _spaces()["summing"]
        plus = ("sum(1)/mid(1)", "sum(1)/mid(2)")
        minus = ("sum(2)/mid(1)", "sum(2)/mid(2)")
    else:
        space = _spaces()["d23"] if name == "d23" else \
            build_cached(DiamondSpec(3, 3))[0]
        plus, minus = ("top", "bottom"), ("mid(2)", "mid(3)")
    return FreeVector(space, [(space.index_of(x), 1) for x in plus]
                      + [(space.index_of(y), -1) for y in minus])


@pytest.mark.parametrize("name", ["d23", "d33", "summing"])
def test_dual_does_not_depend_on_the_optimal_plan(name):
    vec = _tied_vector(name)
    space = vec.space
    freespace.clear_norm_caches(space)
    value, cert = free_norm(vec)
    other = _tie_swap(space, cert.plan)
    assert other is not None and other != cert.plan
    assert sum(m * space.distance(x, y) for x, y, m in other) == value
    dual = freespace._dual_potential(space, vec, other)
    assert dual == freespace._dual_potential(space, vec, cert.plan)
    scale = space.integer_scaled()[1]
    potential = mcshane_extend(LipschitzFunction(
        space, {i: Fraction(n, scale) for i, n in dual.items()}))
    assert potential == cert.potential
    assert verify_certificate(TransportCertificate(vec, value, other,
                                                   potential))


def test_paths_count_one_search_per_augmentation(d23):
    space, lm = d23
    freespace.clear_norm_caches(space)
    tied = _tied_vector("d23")
    counts = []
    for vec in (molecule(space, lm.top, lm.bottom), tied, tied):
        before = norm_statistics()["paths"]
        norm_value(vec)
        counts.append(norm_statistics()["paths"] - before)
    # One source and one target take one path; two and two take two;
    # a cache hit searches nothing.
    assert counts == [1, 2, 0]
    assert set(norm_statistics()) == {"norms", "gap_checks", "gap_failures",
                                      "paths"}


def test_a_space_is_collected_after_free_norm():
    space, lm = build(DiamondSpec(2, 3))
    assert free_norm(molecule(space, lm.top, lm.bottom))[0] == 1
    alive = weakref.ref(space)
    del space, lm
    gc.collect()
    assert alive() is None
