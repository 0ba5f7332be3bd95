"""Derivation game tests.

Core claims checked here:
  * weak neighborhoods enforce total base-vanishing functionals and use
    closed membership,
  * spine-anchored families cannot tell branches >= 2 apart, so the
    prover always escapes through the first clean branch pair,
  * certified transcripts verify node by node, with separation exactly 1
    and the full binary tree of follow-ups,
  * the box-derivation oracle keeps certified vectors alive, kills thin
    candidate sets, and returns exactly what subtracting every survivor
    pair returns,
  * the two lift combinators preserve verifiability as stated,
  * the prover builds each depth's certificate once, as a tower whose
    roots equal the pull-back/push-forward recursion's, with one escape
    search per certified pole molecule and every molecule formed in the
    stage itself,
  * every planted mutation is caught by the verifier,
  * an adversary family is built once per space and configuration until
    the norm caches are cleared, and the determinism check still sees a
    family that changes between builds.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from diamondlab import derivation
from diamondlab import (
    ADVERSARY_KINDS,
    MUTATION_KINDS,
    AdversaryConfig,
    DiamondSpec,
    FreeVector,
    GameNode,
    GameTranscript,
    InsufficientBranchingError,
    LipschitzFunction,
    Move,
    Sampler,
    SuiteConfig,
    WeakNeighborhood,
    adversary_family,
    build_cached,
    clear_norm_caches,
    collect_vectors,
    distance_functional,
    is_lipschitz_at_most,
    lip_constant,
    midpoint_lift,
    molecule,
    mutate_transcript,
    norm_value,
    point_mass,
    prover_certify,
    prover_escape,
    relative_derivation_oracle,
    run_check,
    spine_points,
    verify_transcript,
    walk_nodes,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)
ETA = Fraction(1, 10)


# -- Helpers ----------------------------------------------------------------

def _pole(space, lm):
    return molecule(space, lm.top, lm.bottom)


def _config(kind="distance_functions", seed=7):
    return AdversaryConfig(kind, count=3, eta=ETA, seed=seed)


def _game(d23, kind="distance_functions", depth=2, seed=7):
    space, lm = d23
    return prover_certify(space, lm, depth, _config(kind, seed))


# -- Neighborhoods ------------------------------------------------------------

def test_neighborhood_membership_is_closed(d13):
    space, lm = d13
    f = distance_functional(space, lm.top)
    hood = WeakNeighborhood([f], FreeVector(space), HALF)
    exact = point_mass(space, lm.bottom, HALF)
    assert hood.contains(exact)
    over = point_mass(space, lm.bottom, HALF + Fraction(1, 100))
    assert not hood.contains(over)


def test_neighborhood_validation(d13, d14):
    space, lm = d13
    center = FreeVector(space)
    f = distance_functional(space, lm.top)
    with pytest.raises(ValueError, match="at least one"):
        WeakNeighborhood([], center, ONE)
    with pytest.raises(ValueError, match="total"):
        WeakNeighborhood(
            [LipschitzFunction(space, [(0, Fraction(0))])], center, ONE)
    with pytest.raises(ValueError, match="vanish"):
        WeakNeighborhood([f.shift(ONE)], center, ONE)
    with pytest.raises(ValueError, match="positive"):
        WeakNeighborhood([f], center, Fraction(0))
    with pytest.raises(ValueError, match="different space"):
        WeakNeighborhood([distance_functional(d14[0], 0)], center, ONE)
    with pytest.raises(ValueError):
        hood = WeakNeighborhood([f], center, ONE)
        hood.contains(FreeVector(d14[0]))


def test_recentered_keeps_family(d13):
    space, lm = d13
    f = distance_functional(space, lm.top)
    hood = WeakNeighborhood([f], FreeVector(space), ONE)
    moved = hood.recentered(_pole(space, lm))
    assert moved.functionals == hood.functionals
    assert moved.eta == hood.eta
    assert moved.center == _pole(space, lm)


def test_game_node_validation(d13):
    space, lm = d13
    target = _pole(space, lm)
    with pytest.raises(ValueError):
        GameNode(target, -1, ONE)
    with pytest.raises(ValueError):
        GameNode(target, 0, Fraction(0))
    hood = WeakNeighborhood([distance_functional(space, lm.top)], target, ONE)
    leaf = GameNode(target, 0, ONE)
    with pytest.raises(ValueError):
        GameNode(target, 0, ONE, (Move(hood, target, leaf, leaf),))


def test_adversary_config_validation():
    with pytest.raises(ValueError):
        AdversaryConfig("nope", 3, ETA, 0)
    with pytest.raises(ValueError):
        AdversaryConfig("distance_functions", 0, ETA, 0)
    with pytest.raises(ValueError):
        AdversaryConfig("distance_functions", 3, Fraction(0), 0)


# -- Spines and adversaries ------------------------------------------------------

def test_spine_points_frozen(d13, d23, dw33):
    space13, lm13 = d13
    assert spine_points(space13, lm13) == (0, 1, 2)

    space23, lm23 = d23
    spine = spine_points(space23, lm23)
    assert len(spine) == 9
    labels = {space23.label(p) for p in spine}
    assert {"top", "bottom", "mid(1)"} <= labels
    assert all("(1)" in lab or lab in ("top", "bottom") for lab in labels)

    spacew, lmw = dw33
    spinew = spine_points(spacew, lmw)
    assert len(spinew) == 5
    assert {spacew.label(p) for p in spinew} == {
        "top", "bottom", "sum(1)/mid(1)", "sum(1)/mid(2)", "sum(1)/mid(3)"}


def test_spine_distances_blind_to_branch_swap(d23):
    space, lm = d23
    mids = lm.mids
    for s in spine_points(space, lm):
        assert space.distance(s, mids[1]) == space.distance(s, mids[2])


def test_adversary_families_are_deterministic_and_normalized(d23):
    space, lm = d23
    for kind in ADVERSARY_KINDS:
        cfg = AdversaryConfig(kind, count=4, eta=ETA, seed=5)
        fam1 = adversary_family(space, lm, cfg)
        clear_norm_caches(space)
        fam2 = adversary_family(space, lm, cfg)
        assert fam1 == fam2
        assert len(fam1) == 4
        for f in fam1:
            assert f.is_total
            assert f.value(space.base_point) == 0
            assert is_lipschitz_at_most(f, ONE)
        other = adversary_family(
            space, lm, AdversaryConfig(kind, count=4, eta=ETA, seed=6))
        assert len(other) == 4


def test_adversary_family_is_built_once_per_space(d23):
    space, lm = d23
    for kind in ADVERSARY_KINDS:
        cfg = AdversaryConfig(kind, count=3, eta=ETA, seed=9)
        first = adversary_family(space, lm, cfg)
        assert adversary_family(space, lm, cfg) is first
        clear_norm_caches(space)
        fresh = adversary_family(space, lm, cfg)
        assert fresh == first
        assert all(f is not g for f, g in zip(fresh, first))


def test_a_space_keeps_its_most_recently_used_families(d23):
    space, lm = d23
    clear_norm_caches(space)
    configs = [_config(seed=seed) for seed in range(derivation._FAMILIES + 1)]
    first = adversary_family(space, lm, configs[0])
    for cfg in configs[1:-1]:
        adversary_family(space, lm, cfg)
    # A hit makes the first family the newest, so the next draw evicts
    # the second.
    assert adversary_family(space, lm, configs[0]) is first
    adversary_family(space, lm, configs[-1])
    held = space._family_cache
    assert len(held) == derivation._FAMILIES
    assert (lm, configs[0]) in held and (lm, configs[1]) not in held
    assert adversary_family(space, lm, configs[0]) is first


def test_determinism_roundtrip_sees_a_family_that_changes(monkeypatch):
    # Every family build draws from a new seed, so equal configurations
    # give different families; the check must notice, memo or not.
    builds = itertools.count()

    class Drifting(Sampler):
        def __init__(self, seed):
            super().__init__(seed + next(builds))

    monkeypatch.setattr(derivation, "Sampler", Drifting)
    result = run_check("determinism-roundtrip", SuiteConfig())
    assert result.status == "fail"
    assert result.details == "equal seeds produced different transcript bytes"


# -- Escapes -----------------------------------------------------------------------

def test_prover_escape_uses_first_clean_pair(d13):
    space, lm = d13
    family = adversary_family(space, lm, _config())
    hood = WeakNeighborhood(family, _pole(space, lm), ETA)
    gamma = prover_escape(space, lm, hood)
    assert hood.contains(gamma)
    assert norm_value(gamma) <= 1
    assert norm_value(gamma - hood.center) == 1
    assert set(gamma.support) <= {lm.top, lm.bottom, lm.mids[1], lm.mids[2]}


def test_prover_escape_requires_pole_center(d13):
    space, lm = d13
    family = adversary_family(space, lm, _config())
    hood = WeakNeighborhood(family, FreeVector(space), ETA)
    with pytest.raises(ValueError, match="pole molecule"):
        prover_escape(space, lm, hood)


def test_insufficient_branching_reports_retry_hint():
    space, lm = build_cached(DiamondSpec(1, 2))
    family = (distance_functional(space, lm.top),)
    hood = WeakNeighborhood(family, _pole(space, lm), ETA)
    with pytest.raises(InsufficientBranchingError) as info:
        prover_escape(space, lm, hood)
    assert info.value.branches == 2
    assert info.value.retry_hint == 3


# -- Full games ---------------------------------------------------------------------

def test_depth_limits(d23, dw33):
    space, lm = d23
    with pytest.raises(ValueError, match="depth at most 2"):
        prover_certify(space, lm, 3, _config())
    spacew, lmw = dw33
    with pytest.raises(ValueError, match="summand"):
        prover_certify(spacew, lmw, 1, _config())
    leaf_game = prover_certify(spacew, lmw, 0, _config())
    assert verify_transcript(spacew, leaf_game).passed


def test_certified_games_verify(d23):
    space, lm = d23
    for kind in ADVERSARY_KINDS:
        transcript = _game((space, lm), kind)
        report = verify_transcript(space, transcript)
        assert report.passed, report.failures()
        assert len(report.entries) == 7
        root = transcript.root
        assert root.target == _pole(space, lm)
        assert root.depth == 2 and root.epsilon == 1
        assert norm_value(root.moves[0].response - root.target) == 1


def test_transcript_vectors_survive_oracle(d23):
    space, lm = d23
    cfg = _config()
    transcript = _game((space, lm))
    family = adversary_family(space, lm, cfg)
    vectors = collect_vectors(transcript)
    assert len(vectors) >= 3
    survivors = relative_derivation_oracle(
        space, vectors, family, eta=cfg.eta, epsilon=ONE, rounds=2)
    assert transcript.root.target.entries in {v.entries for v in survivors}


def test_determinism_across_runs(d23):
    a = _game(d23, "random_lipschitz")
    b = _game(d23, "random_lipschitz")
    assert a.root == b.root


# -- Box-derivation oracle -------------------------------------------------------------

def test_oracle_without_functionals_uses_full_diameter(d13):
    space, lm = d13
    gamma = (molecule(space, lm.top, lm.mids[2])
             + molecule(space, lm.mids[1], lm.bottom)) * HALF
    pair = [_pole(space, lm), gamma]
    assert relative_derivation_oracle(space, pair, [], ETA, ONE, 5) \
        == tuple(pair)
    assert relative_derivation_oracle(
        space, pair, [], ETA, Fraction(3, 2), 1) == ()
    assert relative_derivation_oracle(
        space, [_pole(space, lm)], [], ETA, ONE, 1) == ()


def test_oracle_requires_unit_ball(d13):
    space, lm = d13
    with pytest.raises(ValueError, match="unit ball"):
        relative_derivation_oracle(
            space, [_pole(space, lm) * 3], [], ETA, ONE, 1)


def test_oracle_survivors_shrink_with_rounds(d23):
    space, lm = d23
    cfg = _config()
    transcript = _game((space, lm))
    family = adversary_family(space, lm, cfg)
    vectors = collect_vectors(transcript)
    one = relative_derivation_oracle(space, vectors, family, ETA, ONE, 1)
    two = relative_derivation_oracle(space, vectors, family, ETA, ONE, 2)
    assert {v.entries for v in two} <= {w.entries for w in one}


_COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                    st.sampled_from([1, 2, 3, 8]))


@st.composite
def _oracle_inputs(draw):
    """Random unit-ball candidates and total functionals, optionally on
    top of a certified game's vectors and adversary family, where some
    candidates survive and some do not."""
    space, lm = build_cached(DiamondSpec(2, 3))
    n = len(space)
    candidates, family = [], []
    if draw(st.booleans()):
        cfg = _config(draw(st.sampled_from(ADVERSARY_KINDS)),
                      draw(st.integers(0, 50)))
        candidates += collect_vectors(prover_certify(space, lm, 2, cfg))
        family += adversary_family(space, lm, cfg)
    for _ in range(draw(st.integers(0, 6))):
        if candidates and draw(st.integers(0, 3)) == 0:
            candidates.append(draw(st.sampled_from(candidates)))
            continue
        points = draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=3, unique=True))
        raw = FreeVector(space, [(p, draw(_COEFFS)) for p in points])
        if raw.is_zero:
            candidates.append(raw)
            continue
        shrink = draw(st.sampled_from([ONE, HALF, Fraction(1, 3)]))
        candidates.append(raw * (shrink / norm_value(raw)))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            family.append(distance_functional(
                space, draw(st.integers(0, n - 1))))
        else:
            family.append(LipschitzFunction(space, [
                (p, draw(_COEFFS) / 8) for p in range(n)]))
    family = draw(st.permutations(family))
    eta = draw(st.sampled_from([Fraction(1, 10), Fraction(1, 4), HALF, ONE,
                                Fraction(2)]))
    epsilon = draw(st.sampled_from([Fraction(1, 4), HALF, ONE,
                                    Fraction(3, 2), Fraction(2)]))
    return space, candidates, family, eta, epsilon, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(_oracle_inputs())
def test_linear_oracle_matches_pairwise_subtraction(args):
    linear = relative_derivation_oracle(*args)
    pairwise = oracles.relative_derivation_oracle(*args)
    assert linear == pairwise
    assert all(a is b for a, b in zip(linear, pairwise))


# -- Lift combinators -------------------------------------------------------------------

def test_average_lift_combines_pushed_poles(d23):
    space, lm = d23
    plus = FreeVector(space, [(lm.top, ONE),
                              (space.index_of("mid(3)"), -ONE)])
    minus = FreeVector(space, [(space.index_of("mid(2)"), ONE),
                               (lm.bottom, -ONE)])
    combined = oracles.average_lift(space, lm, 3, GameNode(plus, 0, ONE),
                            2, GameNode(minus, 0, ONE))
    gamma = (molecule(space, lm.top, space.index_of("mid(3)"))
             + molecule(space, space.index_of("mid(2)"), lm.bottom)) * HALF
    assert combined.target == gamma


def test_average_lift_rejects_bad_branches(d23):
    space, lm = d23
    node = GameNode(FreeVector(space), 0, ONE)
    with pytest.raises(ValueError, match="branch 1"):
        oracles.average_lift(space, lm, 1, node, 2, node)
    with pytest.raises(ValueError, match="distinct"):
        oracles.average_lift(space, lm, 2, node, 2, node)
    with pytest.raises(ValueError, match="out of range"):
        oracles.average_lift(space, lm, 2, node, 4, node)


def test_average_lift_rejects_support_leak(d23):
    space, lm = d23
    leak = GameNode(_pole(space, lm), 0, ONE)
    inside = GameNode(FreeVector(space), 0, ONE)
    with pytest.raises(ValueError, match="leaks"):
        oracles.average_lift(space, lm, 2, leak, 3, inside)


def test_midpoint_lift_halves_epsilon(d23):
    space, lm = d23
    transcript = _game((space, lm))
    lifted = midpoint_lift(transcript.root, -transcript.root.target)
    assert lifted.target.is_zero
    assert lifted.epsilon == HALF
    assert lifted.depth == 2
    report = verify_transcript(space, GameTranscript(space, lifted))
    assert report.passed, report.failures()
    orig = transcript.root.moves[0].response
    assert lifted.moves[0].response == (orig - transcript.root.target) * HALF


def test_midpoint_lift_with_molecule_shift(d23):
    space, lm = d23
    transcript = _game((space, lm), "adaptive_dual")
    shift = molecule(space, lm.mids[1], lm.mids[2])
    lifted = midpoint_lift(transcript.root, shift)
    assert verify_transcript(space, GameTranscript(space, lifted)).passed
    assert lifted.target == (transcript.root.target + shift) * HALF


def test_midpoint_lift_requires_unit_shift(d23):
    space, lm = d23
    transcript = _game((space, lm))
    with pytest.raises(ValueError, match="unit ball"):
        midpoint_lift(transcript.root, _pole(space, lm) * 3)


# -- Verifier failure modes ---------------------------------------------------------------

def _leaf(target, epsilon=ONE):
    return GameNode(target, 0, epsilon)


def _failing_condition(space, node):
    report = verify_transcript(space, GameTranscript(space, node))
    assert not report.passed
    return report.failures()[0].condition


def test_verifier_rejects_oversized_target(d13):
    space, lm = d13
    bad = _leaf(_pole(space, lm) * 3)
    assert _failing_condition(space, bad) == "unit-ball"


def test_verifier_rejects_off_center_moves(d13):
    space, lm = d13
    target = _pole(space, lm)
    family = adversary_family(space, lm, _config())
    wrong = WeakNeighborhood(family, FreeVector(space), ETA)
    node = GameNode(target, 1, ONE,
                    (Move(wrong, target, _leaf(target), _leaf(target)),))
    assert _failing_condition(space, node) == "neighborhood-center"


def test_verifier_rejects_escaped_responses(d13):
    space, lm = d13
    target = _pole(space, lm)
    hood = WeakNeighborhood(
        (distance_functional(space, lm.bottom),), target, ETA)
    outside = -target
    node = GameNode(target, 1, ONE,
                    (Move(hood, outside, _leaf(outside), _leaf(target)),))
    assert _failing_condition(space, node) == "neighborhood-membership"


def test_verifier_rejects_small_separation(d13):
    space, lm = d13
    target = _pole(space, lm)
    family = adversary_family(space, lm, _config())
    hood = WeakNeighborhood(family, target, ETA)
    node = GameNode(target, 1, ONE,
                    (Move(hood, target, _leaf(target), _leaf(target)),))
    assert _failing_condition(space, node) == "separation"


def test_verifier_rejects_broken_subtrees(d13):
    space, lm = d13
    target = _pole(space, lm)
    family = adversary_family(space, lm, _config())
    hood = WeakNeighborhood(family, target, ETA)
    gamma = prover_escape(space, lm, hood)

    wrong_depth = GameNode(gamma, 1, ONE, (
        Move(hood.recentered(gamma), gamma, _leaf(gamma), _leaf(gamma)),))
    node = GameNode(target, 1, ONE,
                    (Move(hood, gamma, wrong_depth, _leaf(target)),))
    assert _failing_condition(space, node) == "subtree-depth"

    node = GameNode(target, 1, ONE,
                    (Move(hood, gamma, _leaf(gamma, HALF), _leaf(target)),))
    assert _failing_condition(space, node) == "subtree-epsilon"

    node = GameNode(target, 1, ONE,
                    (Move(hood, gamma, _leaf(target), _leaf(target)),))
    assert _failing_condition(space, node) == "subtree-response-target"

    node = GameNode(target, 1, ONE,
                    (Move(hood, gamma, _leaf(gamma), _leaf(gamma)),))
    assert _failing_condition(space, node) == "subtree-target-target"


def test_verifier_rejects_nodes_without_moves(d13):
    # A node of depth >= 1 claims its target survives a posed
    # neighborhood, so it must answer at least one.
    space, lm = d13
    node = GameNode(_pole(space, lm), 1, ONE)
    assert _failing_condition(space, node) == "no-moves"


def test_verifier_rejects_wrong_space(d13, d14):
    space, lm = d13
    transcript = GameTranscript(space, _leaf(_pole(space, lm)))
    with pytest.raises(ValueError):
        verify_transcript(d14[0], transcript)
    report = verify_transcript(d14[0], _leaf(_pole(space, lm)))
    assert report.failures()[0].condition == "space"


# -- Mutation fuzzing ---------------------------------------------------------------------

def test_every_mutation_kind_is_caught(d23):
    space, lm = d23
    transcript = _game((space, lm), "random_lipschitz", seed=3)
    assert verify_transcript(space, transcript).passed
    sampler = Sampler(99)
    for kind in MUTATION_KINDS:
        mutant = mutate_transcript(transcript, kind, sampler)
        report = verify_transcript(space, mutant)
        assert not report.passed, kind
    # The original is untouched by mutation.
    assert verify_transcript(space, transcript).passed


def test_unknown_mutation_kind_rejected(d23):
    space, lm = d23
    transcript = _game((space, lm))
    with pytest.raises(ValueError, match="unknown mutation"):
        mutate_transcript(transcript, "no-such-kind", Sampler(0))


def test_collect_vectors_deduplicates(d23):
    space, lm = d23
    transcript = _game((space, lm))
    vectors = collect_vectors(transcript)
    assert vectors[0] == transcript.root.target
    assert len({v.entries for v in vectors}) == len(vectors)


def test_walk_nodes_yields_parents_first(d23):
    transcript = _game(d23)
    paths = [path for path, _ in walk_nodes(transcript.root)]
    assert paths == ["root", "root.m0.r", "root.m0.r.m0.r", "root.m0.r.m0.t",
                     "root.m0.t", "root.m0.t.m0.r", "root.m0.t.m0.t"]
    root_move = transcript.root.moves[0]
    assert dict(walk_nodes(transcript.root))["root.m0.t"] is \
        root_move.target_subtree


def test_multi_move_order_visits_a_node_before_its_subtrees(d23):
    # collect_vectors lists all of a node's responses before anything in
    # its follow-ups; the walk itself visits a node's moves in order.
    space, _ = d23
    root = _game(d23, depth=2).root
    move = root.moves[0]
    other = molecule(space, 1, 2) * HALF
    second = Move(move.neighborhood, other, GameNode(other, 1, ONE),
                  move.target_subtree)
    two = GameNode(root.target, 2, ONE, (move, second))
    assert collect_vectors(two)[:3] == (root.target, move.response, other)
    assert [(p, len(n.moves)) for p, n in walk_nodes(two)][:5] == [
        ("root", 2), ("root.m0.r", 1), ("root.m0.r.m0.r", 0),
        ("root.m0.r.m0.t", 0), ("root.m0.t", 1)]


# -- Tower prover -------------------------------------------------------------

@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
def test_tower_matches_recursive_certificates(d33, kind):
    space, lm = d33
    config = _config(kind)
    family = adversary_family(space, lm, config)
    tower = derivation._certify_pole(space, lm, range(len(space)), 3, family,
                                     config.eta, ONE, {})
    assert [node.depth for node in tower] == [0, 1, 2, 3]
    for depth, node in enumerate(tower):
        expected = oracles.certify_pole(space, lm, depth, family,
                                        config.eta, ONE)
        assert node == expected
        assert prover_certify(space, lm, depth, config).root == expected
        if depth:
            assert node.moves[0].target_subtree is tower[depth - 1]


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
def test_depth_four_tower_matches_recursive_certificate(kind):
    space, lm = build_cached(DiamondSpec(4, 3))
    config = _config(kind)
    family = adversary_family(space, lm, config)
    expected = oracles.certify_pole(space, lm, 4, family, config.eta, ONE)
    assert prover_certify(space, lm, 4, config).root == expected


def test_prover_averages_each_node_pair_once(monkeypatch):
    # Towers share subtrees, so a proof meets the same (plus, minus) pair
    # more than once; every later meeting returns the first average.
    space, lm = build_cached(DiamondSpec(4, 3))
    calls = []
    combine = derivation._combine

    def spy(a, b, memo):
        node = combine(a, b, memo)
        calls.append((a, b, node))
        return node

    monkeypatch.setattr(derivation, "_combine", spy)
    root = prover_certify(space, lm, 4, _config()).root
    first = {}
    for a, b, node in calls:
        assert first.setdefault((id(a), id(b)), node) is node
    assert len(first) < len(calls)
    assert len({id(node) for node in first.values()}) == len(first)
    assert root == oracles.certify_pole(space, lm, 4,
                                        adversary_family(space, lm,
                                                         _config()),
                                        ETA, ONE)


def test_prover_forms_every_molecule_in_the_stage(monkeypatch):
    # Predecessor copies are placed in the stage, so no certificate level
    # is built over a predecessor space.
    space, lm = build_cached(DiamondSpec(4, 3))
    spaces = []
    make = derivation.molecule

    def recorded(where, x, y):
        spaces.append(where)
        return make(where, x, y)

    monkeypatch.setattr(derivation, "molecule", recorded)
    prover_certify(space, lm, 4, _config())
    assert spaces and all(where is space for where in spaces)


@pytest.mark.parametrize("alpha, depth", [(3, 1), (3, 2), (3, 3), (4, 4)])
def test_one_escape_search_per_certified_pole(monkeypatch, alpha, depth):
    space, lm = build_cached(DiamondSpec(alpha, 3))
    searches = []
    search = derivation._escape_pair

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(derivation, "_escape_pair", counted)
    prover_certify(space, lm, depth, _config())
    assert len(searches) == 2 ** depth - 1
