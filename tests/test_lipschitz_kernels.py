"""Integer Lipschitz kernels against plain-Fraction references.

Core claims checked here:
  * lip_constant, is_lipschitz_at_most and mcshane_extend agree exactly
    with the pairwise Fraction loops of ``oracles.py`` on diamond stages,
    a restricted subspace and a summing metric,
  * for dyadic and non-dyadic values alike, and for values whose
    denominators near 3^40 push every product past int64,
  * the at-most check is sharp: it holds at the exact constant and fails
    just below it, with no tolerance,
  * shift and scale carry a known constant over to their results.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from diamondlab import lipschitz, metric
from diamondlab import (
    OMEGA,
    DiamondSpec,
    LipschitzFunction,
    MetricSpace,
    build_cached,
    build_cover,
    cover_partition,
    is_lipschitz_at_most,
    lip_constant,
    mcshane_extend,
    summing_metric,
)
from oracles import is_lipschitz_oracle, lip_constant_oracle, mcshane_oracle

BIG = 3 ** 40  # above 2^63, so every function using it leaves int64

SETTINGS = settings(max_examples=40, deadline=None)


@cache
def _spaces():
    d23, _ = build_cached(DiamondSpec(2, 3))
    d33, _ = build_cached(DiamondSpec(3, 3))
    dw, lm = build_cached(DiamondSpec(OMEGA, 3, limit_width=3))
    keep = sorted({*range(0, len(d33), 3), d33.base_point})
    sub, _ = d33.restrict(keep, d33.base_point)
    half, _, partition = cover_partition(dw, lm, build_cover(dw, lm)
                                         .bottom_half, lm.bottom)
    return {"d23": d23, "d33": d33, "restricted": sub,
            "summing": summing_metric(half, partition)}


def _values(kind):
    if kind == "dyadic":
        return st.builds(Fraction, st.integers(-64, 64),
                         st.integers(0, 6).map(lambda k: 1 << k))
    if kind == "thirds":
        return st.builds(Fraction, st.integers(-90, 90),
                         st.sampled_from([3, 6, 9, 5, 7, 15]))
    return st.builds(Fraction, st.integers(-2 * BIG, 2 * BIG),
                     st.integers(-4, 4).map(lambda j: BIG + j))


# Total functions stay on the two small spaces: the pairwise oracles are
# quadratic in Fractions, which makes shrinking a failure slow.
SMALL = ("d23", "restricted")


@st.composite
def functions(draw, total=None):
    """``(space, entries)`` of a random partial or total function."""
    if total is None:
        total = draw(st.booleans())
    names = SMALL if total else sorted(_spaces())
    space = _spaces()[draw(st.sampled_from(names))]
    n = len(space)
    if total:
        domain = list(range(n))
    else:
        domain = draw(st.lists(st.integers(0, n - 1), max_size=8,
                               unique=True))
    kind = draw(st.sampled_from(["dyadic", "thirds", "huge"]))
    values = draw(st.lists(_values(kind), min_size=len(domain),
                           max_size=len(domain)))
    return space, list(zip(domain, values))


@SETTINGS
@given(functions())
def test_lip_constant_matches_oracle(case):
    space, entries = case
    assert (lip_constant(LipschitzFunction(space, entries))
            == lip_constant_oracle(space, sorted(entries)))


@SETTINGS
@given(functions(), st.integers(1, 1 << 70))
def test_at_most_is_sharp_at_the_constant(case, slack):
    space, entries = case
    f = LipschitzFunction(space, entries)
    constant = lip_constant_oracle(space, f.entries)
    assert is_lipschitz_at_most(f, constant)
    if constant > 0:
        below = constant - Fraction(1, 3 * slack)
        assert not is_lipschitz_at_most(f, below)
        assert not is_lipschitz_at_most(f, constant * (1 - Fraction(1, BIG)))


@SETTINGS
@given(functions(), st.builds(Fraction, st.integers(-40, 40),
                              st.sampled_from([1, 2, 3, 8, 9, BIG])))
def test_at_most_matches_oracle(case, bound):
    space, entries = case
    f = LipschitzFunction(space, entries)
    assert (is_lipschitz_at_most(f, bound)
            == is_lipschitz_oracle(space, f.entries, bound))


@SETTINGS
@given(functions(total=False), st.sampled_from(
    [None, Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2),
     Fraction(BIG + 1, BIG)]))
def test_mcshane_matches_oracle(case, extra):
    space, entries = case
    f = LipschitzFunction(space, entries)
    constant = lip_constant_oracle(space, f.entries)
    lip = constant if extra is None else constant + extra
    total = mcshane_extend(f, None if extra is None else lip)
    assert total.is_total
    assert ([v for _, v in total.entries]
            == mcshane_oracle(space, f.entries, lip))


@SETTINGS
@given(functions(total=False), st.integers(1, 1 << 70))
def test_mcshane_refuses_a_constant_below_the_actual_one(case, slack):
    space, entries = case
    f = LipschitzFunction(space, entries)
    constant = lip_constant_oracle(space, f.entries)
    if constant == 0:
        return
    with pytest.raises(ValueError, match="below"):
        mcshane_extend(f, constant - Fraction(1, 3 * slack))


def test_object_path_on_a_large_stage():
    space = _spaces()["d33"]
    entries = [(x, Fraction(x * x - 7 * x, BIG + x % 5))
               for x in range(0, len(space), 2)]
    f = LipschitzFunction(space, entries)
    constant = lip_constant_oracle(space, f.entries)
    assert lip_constant(f) == constant
    assert is_lipschitz_at_most(f, constant)
    assert not is_lipschitz_at_most(f, constant * (1 - Fraction(1, BIG)))
    assert ([v for _, v in mcshane_extend(f).entries]
            == mcshane_oracle(space, f.entries, constant))


@pytest.mark.parametrize("values", ["dyadic", "huge"])
def test_mcshane_matches_oracle_on_one_point_and_many_blocks(values):
    # On 779 points, a third of them as the domain needs several
    # byte-bounded blocks of pairs and of extended points.
    space, _ = build_cached(DiamondSpec(4, 3))
    many = list(range(0, len(space), 3))
    outside = len(space) - len(many)
    rows = next(metric._row_blocks(
        len(many), lipschitz._kernel_row_bytes(len(many), space))).stop
    assert outside > 2 * rows
    assert len(many) > 2 * rows
    den = 8 if values == "dyadic" else BIG
    for domain, lip in (([len(space) // 2], Fraction(1, 3)), (many, None)):
        entries = [(x, Fraction((x * 37) % 23 - 11, den)) for x in domain]
        f = LipschitzFunction(space, entries)
        constant = lip_constant_oracle(space, f.entries)
        assert lip_constant(f) == constant
        total = mcshane_extend(f, lip)
        assert total.is_total
        assert ([v for _, v in total.entries] == mcshane_oracle(
            space, f.entries, constant if lip is None else lip))


def test_shift_and_scale_keep_the_known_constant(d23):
    space, _ = d23
    f = LipschitzFunction(space, {0: Fraction(0), 5: Fraction(7, 3),
                                  9: Fraction(-1, 2)})
    constant = lip_constant(f)
    for g, want in ((f.shift(Fraction(5, 9)), constant),
                    (f.scale(Fraction(-3, 2)), constant * Fraction(3, 2)),
                    (f.scale(0), Fraction(0))):
        assert g._lip == want
        assert lip_constant(LipschitzFunction(space, g.entries)) == want
    fresh = LipschitzFunction(space, f.entries)
    assert fresh.scale(2)._lip is None and fresh.shift(1)._lip is None


def test_huge_factors_on_zero_values_and_distances(d23):
    # Zero values (or no values) and a one-point space make the largest
    # numerator 0, while the bound's own factors are past int64.
    space, _ = d23
    tiny = Fraction(1, BIG)
    assert is_lipschitz_at_most(LipschitzFunction(space, {}), tiny)
    zeros = LipschitzFunction(space, {0: Fraction(0), 3: Fraction(0)})
    assert is_lipschitz_at_most(zeros, tiny)
    assert is_lipschitz_at_most(zeros, -tiny) is False
    assert all(v == tiny * space.distance(x, 0) for x, v
               in mcshane_extend(LipschitzFunction(space, {0: Fraction(0)}),
                                 tiny).entries)
    point = MetricSpace(["p"], [[Fraction(0)]], 0)
    single = LipschitzFunction(point, {0: Fraction(BIG + 1, BIG)})
    assert is_lipschitz_at_most(single, Fraction(BIG, 7))
    assert lip_constant(single) == 0
    assert mcshane_extend(single, Fraction(BIG, 7)) == single
