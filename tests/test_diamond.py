"""Diamond construction tests.

Core claims checked here:
  * point counts match closed-form values at every materialized stage,
  * subcopy injections are half-scale isometries and summand injections
    are unscaled isometries onto their images,
  * hand-computed cross-copy distances are hit exactly,
  * finest-edge closure reproduces the metric (against a Fraction
    Dijkstra oracle, independent of the int64 sweeps),
  * the finest edges are exactly the substitution graph's edges,
  * every stage equals the shortest-path metric of the graph grown by
    edge substitution, a generator sharing no code with the builder,
  * the integer matrix a stage is built with is the one its Fraction
    distances scale to,
  * budgets reject oversized specs before building anything,
  * spec fields are integers: floats and strings are refused, and NumPy
    integers become ints.
"""

from fractions import Fraction

import pytest

from diamondlab import (
    DEFAULT_BUDGET,
    OMEGA,
    BudgetExceededError,
    DiamondSpec,
    build,
    build_cached,
    estimate_points,
    finest_edges,
    format_ordinal,
    parse_address,
    parse_ordinal,
    shortest_path_closure,
)

from oracles import (diamond_graph, dijkstra_closure, graph_closure,
                     scaled_from_fractions)

HALF = Fraction(1, 2)


# -- Specs and budgets --------------------------------------------------------

def test_spec_validation():
    from diamondlab import OrdinalNotation

    with pytest.raises(ValueError):
        DiamondSpec(0, 3)
    with pytest.raises(ValueError):
        DiamondSpec(1, 1)
    with pytest.raises(ValueError):
        DiamondSpec(OMEGA, 3, limit_width=0)
    assert DiamondSpec(2, 3).alpha == OrdinalNotation.from_int(2)


def test_spec_fields_are_integers():
    import numpy as np

    # A float width or branch count is refused whether or not the cache
    # holds the integer spec it would equal.
    build_cached(DiamondSpec(2, 3))
    for args in ((2, 3.0), (2, 2.5), (OMEGA, 3, 3.0), ("2", 3), (2.0, 3)):
        with pytest.raises(TypeError):
            DiamondSpec(*args)
    spec = DiamondSpec(np.int64(2), np.int64(3), np.int8(2))
    assert spec == DiamondSpec(2, 3, 2) and hash(spec) == hash(
        DiamondSpec(2, 3, 2))
    assert type(spec.branches) is int and type(spec.limit_width) is int
    assert estimate_points(spec) == 23


def test_point_counts_frozen():
    cases = [
        (DiamondSpec(1, 3), 5),
        (DiamondSpec(1, 4), 6),
        (DiamondSpec(2, 3), 23),
        (DiamondSpec(2, 4), 38),
        (DiamondSpec(3, 3), 131),
        (DiamondSpec(3, 4), 294),
        (DiamondSpec(OMEGA, 3, limit_width=3), 155),
    ]
    for spec, count in cases:
        assert estimate_points(spec) == count
        space, _ = build_cached(spec)
        assert len(space) == count


def test_budget_guard():
    with pytest.raises(BudgetExceededError) as info:
        build(DiamondSpec(3, 4), budget=100)
    assert info.value.estimate == 294
    assert info.value.budget == 100
    # The guard applies on cache hits too.
    build_cached(DiamondSpec(1, 3))
    with pytest.raises(BudgetExceededError):
        build_cached(DiamondSpec(1, 3), budget=3)


def test_default_budget_refuses_from_the_estimate():
    # The default budget caps the int64 matrix at 2 GiB (16,384 points).
    # Checked first, so a larger default never starts the 18,726-point
    # build below.
    spec = DiamondSpec(5, 4)
    assert DEFAULT_BUDGET == 16_384 < estimate_points(spec) == 18_726
    for builder in (build, build_cached):
        with pytest.raises(BudgetExceededError) as info:
            builder(spec)
        assert info.value.estimate == 18_726
        assert info.value.budget == DEFAULT_BUDGET


def test_a_tall_successor_chain_is_sized_without_recursion():
    # With two branches a stage has 2 + (2 * 4^alpha - 2) / 3 points.
    spec = DiamondSpec(5000, 2)
    assert estimate_points(spec) == 2 + (2 * 4 ** 5000 - 2) // 3
    with pytest.raises(BudgetExceededError):
        build(spec)


def test_build_cached_shares_objects():
    a, la = build_cached(DiamondSpec(2, 3))
    b, lb = build_cached(DiamondSpec(2, 3))
    assert a is b and la is lb
    fresh, _ = build(DiamondSpec(2, 3))
    assert fresh is not a


# -- Landmarks and addresses -----------------------------------------------------

def test_base_stage_layout(d13):
    space, lm = d13
    assert space.labels[:2] == ("top", "bottom")
    assert space.label(lm.ell) == "mid(1)"
    assert space.base_point == lm.ell
    assert lm.mids == (2, 3, 4)
    assert space.distance(lm.top, lm.bottom) == 2
    for m in lm.mids:
        assert space.distance(lm.top, m) == 1
        assert space.distance(lm.bottom, m) == 1
    for a in lm.mids:
        for b in lm.mids:
            if a != b:
                assert space.distance(a, b) == 2


def test_pole_distances_at_every_stage(d23, d33, dw33):
    for space, lm in (d23, d33, dw33):
        assert space.distance(lm.top, lm.bottom) == 2
        for m in lm.mids:
            assert space.distance(lm.top, m) == 1
            assert space.distance(lm.bottom, m) == 1
        mids = lm.mids
        assert all(space.distance(a, b) == 2
                   for a in mids for b in mids if a != b)
        assert space.base_point == lm.ell == mids[0]


def test_addresses_roundtrip(d23, dw33):
    for space, _ in (d23, dw33):
        for label in space.labels:
            assert str(parse_address(label)) == label
        assert len(set(space.labels)) == len(space)


def test_parse_address_rejections():
    for text in ("mid(x)", "+(1)/middle", "what", "+(a)/top", "sum()/top"):
        with pytest.raises(ValueError):
            parse_address(text)


# -- Successor-stage geometry ------------------------------------------------------

def test_subcopy_injections_are_half_isometries(d23):
    space, lm = d23
    pred_space, _ = lm.predecessor
    for side in ("+", "-"):
        for branch in (1, 2, 3):
            inj = lm.subcopies[(side, branch)]
            assert len(inj) == len(pred_space)
            for p in range(len(pred_space)):
                for q in range(len(pred_space)):
                    assert (space.distance(inj[p], inj[q])
                            == pred_space.distance(p, q) * HALF)


def test_subcopy_endpoint_identification(d23):
    space, lm = d23
    pred_space, pred_lm = lm.predecessor
    inj_plus = lm.subcopies[("+", 2)]
    inj_minus = lm.subcopies[("-", 2)]
    mid2 = space.index_of("mid(2)")
    assert inj_plus[pred_lm.top] == lm.top
    assert inj_plus[pred_lm.bottom] == mid2
    assert inj_minus[pred_lm.top] == mid2
    assert inj_minus[pred_lm.bottom] == lm.bottom
    assert ("+", 4) not in lm.subcopies


def test_no_subcopies_on_base_or_limit(d13, dw33):
    for _, lm in (d13, dw33):
        assert lm.subcopies == {}


def test_cross_copy_distances_frozen(d23):
    space, _ = d23
    d = lambda a, b: space.distance(space.index_of(a), space.index_of(b))
    assert d("+(1)/mid(1)", "top") == HALF
    assert d("+(1)/mid(1)", "bottom") == Fraction(3, 2)
    assert d("+(1)/mid(1)", "+(1)/mid(2)") == 1
    assert d("+(1)/mid(1)", "+(2)/mid(1)") == 1
    assert d("+(1)/mid(1)", "-(1)/mid(1)") == 1
    assert d("+(1)/mid(1)", "-(2)/mid(3)") == 2


# -- Limit-stage geometry ------------------------------------------------------------

def test_summand_injections_are_isometries(dw33):
    space, lm = dw33
    assert len(lm.summands) == 3
    for info in lm.summands:
        sub, sub_lm = build(DiamondSpec(info.ordinal, 3, 3))
        assert sub_lm.top == info.landmarks.top
        assert sub.labels[2:] == tuple(
            space.label(p).split("/", 1)[1] for p in info.injection[2:])
        inj = info.injection
        assert len(inj) == len(sub)
        for p in range(len(sub)):
            for q in range(len(sub)):
                assert space.distance(inj[p], inj[q]) == sub.distance(p, q)
        assert inj[info.landmarks.top] == lm.top
        assert inj[info.landmarks.bottom] == lm.bottom


def test_summand_ordinals(dw33):
    _, lm = dw33
    assert [str(info.ordinal) for info in lm.summands] == ["1", "2", "3"]


def test_cross_summand_distances_frozen(dw33):
    space, _ = dw33
    d = lambda a, b: space.distance(space.index_of(a), space.index_of(b))
    assert d("sum(1)/mid(1)", "sum(2)/mid(1)") == 2
    assert d("sum(1)/mid(1)", "sum(2)/+(1)/mid(1)") == Fraction(3, 2)
    assert d("sum(1)/mid(2)", "sum(3)/mid(1)") == 2
    assert space.label(space.base_point) == "sum(1)/mid(1)"


def test_cross_summand_routes_through_poles(dw33):
    space, lm = dw33
    infos = lm.summands
    for ia in range(len(infos)):
        for ib in range(ia + 1, len(infos)):
            sa, sb = infos[ia], infos[ib]
            interior_a = [sa.injection[p] for p in range(len(sa.injection))
                          if sa.injection[p] not in (lm.top, lm.bottom)]
            interior_b = [sb.injection[p] for p in range(len(sb.injection))
                          if sb.injection[p] not in (lm.top, lm.bottom)]
            for a in interior_a[:6]:
                for b in interior_b[:6]:
                    via_top = space.distance(a, lm.top) + space.distance(
                        lm.top, b)
                    via_bot = space.distance(a, lm.bottom) + space.distance(
                        lm.bottom, b)
                    assert space.distance(a, b) == min(via_top, via_bot)


# -- Edge structure ---------------------------------------------------------------

def test_finest_edges_frozen_counts(d13, d23):
    space13, _ = d13
    edges13 = finest_edges(space13)
    assert len(edges13) == 6
    for i, j in edges13:
        assert space13.distance(i, j) == 1
        assert 0 in (i, j) or 1 in (i, j)

    space23, _ = d23
    assert len(finest_edges(space23)) == 36


def test_closure_reproduces_metric(d23):
    space, _ = d23
    edges = finest_edges(space)
    closure = shortest_path_closure(space, edges)
    oracle = dijkstra_closure(space, edges)
    n = len(space)
    for i in range(n):
        for j in range(n):
            assert closure[i][j] == space.distance(i, j)
            assert oracle[i][j] == space.distance(i, j)


def test_closure_rejects_disconnected(d13):
    space, _ = d13
    with pytest.raises(ValueError, match="connect"):
        shortest_path_closure(space, [(0, 2)])


def test_metric_axioms_hold(d24, dw33):
    for space, _ in (d24, dw33):
        space.validate_metric()


# -- Independent graph oracle ------------------------------------------------------

STAGES = [DiamondSpec(parse_ordinal(alpha), branches)
          for alpha in ("1", "2", "3", "w", "w+1") for branches in (2, 3)]
# A one-summand limit and a wider one; a limit summand built inside a
# limit (w*2); and w^(2), whose last summand w*2 keeps its scale.
STAGES += [DiamondSpec(OMEGA, 2, 1), DiamondSpec(OMEGA, 2, 4),
           DiamondSpec(parse_ordinal("w*2"), 2, 2),
           DiamondSpec(parse_ordinal("w^(2)"), 2, 2)]


def _stage_id(spec):
    """``alpha,branches``, with ``,width=k`` when the width is not the
    default 3."""
    width = "" if spec.limit_width == 3 else f",width={spec.limit_width}"
    return f"{format_ordinal(spec.alpha)},{spec.branches}{width}"


@pytest.mark.parametrize("spec", STAGES, ids=_stage_id)
def test_build_matches_substitution_graph(spec):
    space, _ = build(spec)
    edges = diamond_graph(spec.alpha, spec.branches, spec.limit_width)
    vertices = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    assert vertices == set(space.labels)
    # Dijkstra from all 923 points of w+1, n=3 takes seconds; every
    # ninth source still meets every copy and summand.
    sources = space.labels if len(space) <= 400 else space.labels[::9]
    for source, row in graph_closure(edges, sources).items():
        x = space.index_of(source)
        assert len(row) == len(space)
        for label, d in row.items():
            assert space.distance(x, space.index_of(label)) == d, \
                (source, label)


@pytest.mark.parametrize("spec", STAGES, ids=_stage_id)
def test_finest_edges_are_substitution_graph_edges(spec):
    space, _ = build(spec)
    expected = {}
    for u, v, w in diamond_graph(spec.alpha, spec.branches,
                                 spec.limit_width):
        i, j = sorted((space.index_of(u), space.index_of(v)))
        expected[i, j] = w
    edges = finest_edges(space)
    assert list(edges) == sorted(expected)
    assert all(space.distance(i, j) == w for (i, j), w in expected.items())


@pytest.mark.parametrize("spec", STAGES, ids=_stage_id)
def test_cached_integer_scaled_matches_fractions(spec):
    space, lm = build(spec)
    sub, _ = space.restrict(range(0, len(space), 2), lm.ell)
    for s in (space, sub):
        mat, scale = s.integer_scaled()
        expected, expected_scale = scaled_from_fractions(s)
        assert scale == expected_scale
        assert mat.tolist() == expected
