"""Free vectors and functionals on integer numerators.

Core claims checked here:
  * the integer ``FreeVector`` agrees with the ``Fraction`` reference of
    ``oracles.py`` on sums, differences, negation, multiples, quotients,
    pairings, entries, total mass, coefficients, equality and hashing,
    for dyadic, ternary and near-3^40 denominators,
  * weak-neighborhood membership is the closed condition: a vector whose
    pairing differs from the center's by exactly eta is inside, one just
    beyond it is outside, and the box oracle draws the same line,
  * equal vectors however formed are one norm-cache entry, and equal
    functionals however formed have equal integers and hashes, while
    equal numerators on another domain are another function,
  * verifying the golden transcripts hashes no ``Fraction``,
  * floats and other inexact scalars are refused at every entry point.
"""

from decimal import Decimal
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diamondlab import (
    ADVERSARY_KINDS,
    DiamondSpec,
    FreeVector,
    LipschitzFunction,
    MetricSpace,
    WeakNeighborhood,
    build_cached,
    clear_norm_caches,
    distance_functional,
    free_norm,
    is_lipschitz_at_most,
    lip_constant,
    mcshane_extend,
    molecule,
    norm_statistics,
    norm_value,
    point_mass,
    relative_derivation_oracle,
    verify_transcript,
)
from diamondlab.io import read_transcript
from oracles import FractionVector
from oracles import relative_derivation_oracle as reference_oracle

BIG = 3 ** 40
GOLDEN = Path(__file__).resolve().parent / "golden"
SETTINGS = settings(max_examples=60, deadline=None)


@cache
def _space() -> MetricSpace:
    return build_cached(DiamondSpec(2, 3))[0]


def _values(kind):
    if kind == "dyadic":
        return st.builds(Fraction, st.integers(-64, 64),
                         st.integers(0, 6).map(lambda k: 1 << k))
    if kind == "ternary":
        return st.builds(Fraction, st.integers(-90, 90),
                         st.integers(0, 5).map(lambda k: 3 ** k))
    return st.builds(Fraction, st.integers(-2 * BIG, 2 * BIG),
                     st.integers(-4, 4).map(lambda j: BIG + j))


KINDS = st.sampled_from(["dyadic", "ternary", "huge"])


@st.composite
def raw_entries(draw, kind=None):
    """Unnormalized entries: repeated indices, zeros and the base point,
    with coefficients of one denominator kind."""
    kind = kind or draw(KINDS)
    n = len(_space())
    return draw(st.lists(st.tuples(st.integers(0, n - 1), _values(kind)),
                         max_size=8))


@st.composite
def total_functions(draw, kind=None, vanish=False):
    """A total function (not necessarily Lipschitz) on the space."""
    kind = kind or draw(KINDS)
    space = _space()
    values = draw(st.lists(_values(kind), min_size=len(space),
                           max_size=len(space)))
    if vanish:
        values[space.base_point] = Fraction(0)
    return LipschitzFunction(space, enumerate(values))


def _check_against(vec, ref, func):
    assert vec.entries == ref.entries
    assert all(type(c) is Fraction for _, c in vec.entries)
    assert vec.support == tuple(i for i, _ in ref.entries)
    assert vec.total_mass == ref.total_mass
    assert all(vec.coefficient(i) == ref.coefficient(i)
               for i in range(len(vec.space)))
    assert vec.pair(func) == ref.pair(func)
    rebuilt = FreeVector(vec.space, ref.entries)
    assert vec == rebuilt and hash(vec) == hash(rebuilt)


@SETTINGS
@given(KINDS.flatmap(lambda kind: st.tuples(
    raw_entries(kind), raw_entries(kind), _values(kind),
    total_functions(kind))))
def test_arithmetic_matches_the_fraction_reference(case):
    a_raw, b_raw, scalar, func = case
    space = _space()
    a, b = FreeVector(space, a_raw), FreeVector(space, b_raw)
    ra, rb = FractionVector(space, a_raw), FractionVector(space, b_raw)
    pairs = [(a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb),
             (-a, -ra), (a * scalar, ra * scalar), (scalar * a, ra * scalar),
             (a * 3, ra * 3)]
    if scalar:
        pairs.append((a / scalar, ra / scalar))
    else:
        with pytest.raises(ZeroDivisionError):
            a / scalar
    for vec, ref in pairs:
        _check_against(vec, ref, func)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    assert (a - b).is_zero == (a == b)


@SETTINGS
@given(KINDS.flatmap(lambda kind: st.tuples(
    raw_entries(kind), raw_entries(kind), _values(kind),
    total_functions(kind, vanish=True))))
def test_membership_is_closed_at_eta(case):
    center_raw, direction_raw, eta, func = case
    space = _space()
    eta = abs(eta) or Fraction(1, 7)
    center = FreeVector(space, center_raw)
    direction = FreeVector(space, direction_raw)
    slope = direction.pair(func)
    if not slope:
        return
    hood = WeakNeighborhood([func], center, eta)
    for sign in (1, -1):
        step = sign * eta / slope
        on = center + direction * step
        assert (on - center).pair(func) == sign * eta
        assert hood.contains(on)
        assert hood.contains(center + direction * (step * (1 - Fraction(1, BIG))))
        assert not hood.contains(
            center + direction * (step * (1 + Fraction(1, BIG))))


@SETTINGS
@given(KINDS.flatmap(lambda kind: st.tuples(
    raw_entries(kind), raw_entries(kind), _values(kind),
    st.lists(total_functions(kind, vanish=True), min_size=1, max_size=3))))
def test_membership_matches_the_fraction_reference(case):
    center_raw, vec_raw, eta, family = case
    space = _space()
    eta = abs(eta) or Fraction(1, 7)
    hood = WeakNeighborhood(family, FreeVector(space, center_raw), eta)
    center = FractionVector(space, center_raw)
    vec = FractionVector(space, vec_raw)
    assert (hood.contains(FreeVector(space, vec_raw))
            == all(abs(vec.pair(f) - center.pair(f)) <= eta for f in family))


def test_box_oracle_keeps_a_candidate_exactly_eta_away(d23):
    space, lm = d23
    func = distance_functional(space, lm.top)
    center = molecule(space, lm.top, lm.bottom) * Fraction(1, 2)
    direction = molecule(space, lm.top, space.index_of("mid(2)")) \
        * Fraction(1, 4)
    eta = abs(direction.pair(func))
    assert eta > 0
    tiny = Fraction(1, BIG)
    for factor, survivors in ((1, 2), (1 + tiny, 0)):
        candidates = [center, center + direction * factor]
        for oracle in (relative_derivation_oracle, reference_oracle):
            kept = oracle(space, candidates, [func], eta, tiny, 1)
            assert len(kept) == survivors


def test_equal_vectors_share_one_cache_entry(d23):
    space, _ = d23
    a = FreeVector(space, [(3, Fraction(1, 3)), (7, Fraction(-5, 6))])
    b = FreeVector(space, [(7, Fraction(1, 2)), (11, Fraction(2, 9))])
    unreduced = FreeVector(space, [
        (7, -1), (3, Fraction(1, 6)), (11, 0), (3, Fraction(1, 6)),
        (space.base_point, Fraction(4, 7)), (7, Fraction(1, 6))])
    read_back = FreeVector._from_ratios(space, [(3, 4, 12), (7, -10, 12),
                                                (11, 0, 5)])
    forms = [a, (a + b) - b, a * 2 / 2, unreduced, read_back]
    assert all(v == a and hash(v) == hash(a) for v in forms)
    clear_norm_caches(space)
    before = norm_statistics()["norms"]
    assert len({norm_value(v) for v in forms}) == 1
    assert norm_statistics()["norms"] == before + 1
    assert len({free_norm(v)[0] for v in forms}) == 1
    assert norm_statistics()["norms"] == before + 2


def test_equal_functions_share_their_integers(d23):
    space, lm = d23
    f = distance_functional(space, lm.top)
    every, nums, den = f.integer_scaled()
    forms = [LipschitzFunction(space, f.entries),
             LipschitzFunction(space, dict(f.entries)),
             f.scale(3).scale(Fraction(1, 3)),
             f.shift(Fraction(1, 7)).shift(Fraction(-1, 7)),
             LipschitzFunction._from_numerators(space, every,
                                                [6 * n for n in nums],
                                                6 * den)]
    for g in forms:
        assert g == f and hash(g) == hash(f)
        assert g.integer_scaled()[1:] == (nums, den)
    partial = LipschitzFunction(space, {3: Fraction(2, 6), 1: Fraction(-1, 2)})
    idx, nums, den = partial.integer_scaled()
    assert (idx.tolist(), nums, den) == ([1, 3], (-3, 2), 6)
    assert partial.entries == ((1, Fraction(-1, 2)), (3, Fraction(1, 3)))
    assert partial.value(3) == Fraction(1, 3)
    assert not partial.defined_at(2) and partial.defined_at(1)
    with pytest.raises(KeyError):
        partial.value(2)
    with pytest.raises(KeyError):
        f.value(len(space))
    moved = LipschitzFunction(space, {2: Fraction(-1, 2), 3: Fraction(1, 3)})
    assert moved.integer_scaled()[1:] == (nums, den) and moved != partial


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
def test_golden_transcripts_verify_without_hashing_fractions(monkeypatch,
                                                             kind):
    calls = []
    original = Fraction.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    hash(Fraction(1, 3))
    assert len(calls) == 1  # the counter sees hashing
    calls.clear()
    doc, space, _ = read_transcript(str(GOLDEN / f"transcript_d23_{kind}.txt"))
    clear_norm_caches(space)
    assert verify_transcript(space, doc.transcript).passed
    assert calls == []


INEXACT = [0.1, Decimal("0.1"), float("inf")]


@pytest.mark.parametrize("bad", INEXACT)
def test_inexact_scalars_are_refused(d23, bad):
    space, lm = d23
    vec = point_mass(space, lm.top)
    func = distance_functional(space, lm.top)
    attempts = [
        lambda: FreeVector(space, [(1, bad)]),
        lambda: point_mass(space, 1, bad),
        lambda: vec * bad,
        lambda: bad * vec,
        lambda: vec / bad,
        lambda: LipschitzFunction(space, {0: bad}),
        lambda: func.scale(bad),
        lambda: func.shift(bad),
        lambda: WeakNeighborhood([func], vec, bad),
        lambda: is_lipschitz_at_most(func, bad),
        lambda: mcshane_extend(LipschitzFunction(space, {0: 0}), bad),
    ]
    for attempt in attempts:
        with pytest.raises(TypeError, match="exact rational"):
            attempt()


def test_exact_scalars_of_any_rational_type_are_taken(d23):
    space, lm = d23
    for scalar in (3, True, np.int64(3), Fraction(3)):
        vec = FreeVector(space, [(lm.top, scalar)])
        assert vec.entries == ((lm.top, Fraction(int(scalar))),)
        assert (vec * scalar) / scalar == vec
        func = LipschitzFunction(space, {0: scalar}).scale(scalar)
        assert func.value(0) == int(scalar) ** 2


def test_lip_constant_skips_coincident_points():
    # Distinct points at distance 0 bound no ratio; the constant is the
    # largest over the pairs at a positive distance.
    one = Fraction(1)
    space = MetricSpace(["a", "b", "c"],
                        [[0, 0, one], [0, 0, one], [one, one, 0]], 0)
    f = LipschitzFunction(space, {0: Fraction(0), 1: Fraction(5),
                                  2: Fraction(1)})
    assert lip_constant(f) == 4
