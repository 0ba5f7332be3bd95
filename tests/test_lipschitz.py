"""Lipschitz function tests.

Core claims checked here:
  * exact constants, with the at-most test sharp at the boundary,
  * the extension operator keeps the constant, fixes the domain, and
    realizes the inf-convolution formula (making it the largest
    extension),
  * copy pullbacks halve values so the constant transfers exactly,
  * pole gluing joins two copy pieces into a total 1-Lipschitz function
    vanishing at the stage base, with every malformed input refused.
"""

from fractions import Fraction

import pytest

from diamondlab import (
    LipschitzFunction,
    Sampler,
    distance_functional,
    glue_poles,
    is_lipschitz_at_most,
    lip_constant,
    mcshane_extend,
    pull_to_copy,
)

ONE = Fraction(1)


# -- Helpers ----------------------------------------------------------------

def _random_partial(sampler, space, k):
    points = sampler.sample(range(len(space)), k)
    return LipschitzFunction(space,
                             [(p, sampler.fraction()) for p in points])


def _copy_piece(space, lm, side, branch):
    # A 1-Lipschitz partial function on one copy, zero at the copy image
    # of the predecessor base.
    pred_space, pred_lm = lm.predecessor
    anchor = distance_functional(pred_space, pred_lm.top,
                                 vanish_at=pred_lm.ell)
    return pull_to_copy(space, lm, side, branch, anchor)


# -- Construction -----------------------------------------------------------------

def test_constructor_and_access(d13):
    space, _ = d13
    f = LipschitzFunction(space, {0: Fraction(1), 3: Fraction(-1, 2)})
    assert f.domain == (0, 3)
    assert f.value(0) == 1
    assert f.defined_at(3) and not f.defined_at(1)
    assert not f.is_total
    with pytest.raises(ValueError, match="duplicate"):
        LipschitzFunction(space, [(0, ONE), (0, ONE)])
    with pytest.raises(IndexError):
        LipschitzFunction(space, [(9, ONE)])


def test_shift_scale_algebra(d13):
    space, _ = d13
    f = distance_functional(space, 0)
    g = f.shift(Fraction(3, 2))
    assert g.value(0) == f.value(0) + Fraction(3, 2)
    assert f.scale(2).value(1) == 2 * f.value(1)
    assert f.shifted_to_vanish(1).value(1) == 0
    assert lip_constant(f.scale(-3)) == 3 * lip_constant(f)


# -- Constants ---------------------------------------------------------------------

def test_distance_functional_constant_one(d23):
    space, _ = d23
    f = distance_functional(space, space.index_of("+(2)/mid(1)"))
    assert f.is_total
    assert f.value(space.base_point) == 0
    assert lip_constant(f) == 1


def test_lip_constant_frozen(d13):
    space, _ = d13
    f = LipschitzFunction(space, {0: Fraction(0), 1: Fraction(3, 2)})
    assert lip_constant(f) == Fraction(3, 4)
    assert lip_constant(LipschitzFunction(space, {0: ONE})) == 0


def test_is_lipschitz_at_most_sharp(d13):
    space, _ = d13
    f = distance_functional(space, 0)
    assert is_lipschitz_at_most(f, ONE)
    assert not is_lipschitz_at_most(f, Fraction(99, 100))
    sampler = Sampler(31)
    for trial in range(25):
        g = _random_partial(sampler, space, 3)
        c = lip_constant(g)
        assert is_lipschitz_at_most(g, c)
        if c > 0:
            assert not is_lipschitz_at_most(g, c * Fraction(9999, 10000))


# -- Extension ----------------------------------------------------------------------

def test_extension_matches_formula(d23):
    space, _ = d23
    sampler = Sampler(32)
    for trial in range(20):
        partial = _random_partial(sampler, space, sampler.integer(2, 5))
        lip = lip_constant(partial)
        total = mcshane_extend(partial)
        assert total.is_total
        assert lip_constant(total) == lip
        for p, v in partial.entries:
            assert total.value(p) == v
        for x in range(len(space)):
            want = min(v + lip * space.distance(x, s)
                       for s, v in partial.entries)
            assert total.value(x) == want


def test_extension_is_largest(d23):
    # Any other extension with the same constant sits pointwise below the
    # inf-convolution one.
    space, _ = d23
    sampler = Sampler(33)
    for trial in range(10):
        partial = _random_partial(sampler, space, 3)
        lip = lip_constant(partial)
        if lip == 0:
            continue
        total = mcshane_extend(partial)
        other = LipschitzFunction(
            space, [(x, max(v - lip * space.distance(x, s)
                            for s, v in partial.entries))
                    for x in range(len(space))])
        assert is_lipschitz_at_most(other, lip)
        for x in range(len(space)):
            assert other.value(x) <= total.value(x)


def test_extension_with_recorded_constant(d13):
    space, _ = d13
    partial = LipschitzFunction(space, {0: Fraction(0), 1: Fraction(1, 2)})
    relaxed = mcshane_extend(partial, ONE)
    assert relaxed.is_total
    assert is_lipschitz_at_most(relaxed, ONE)
    with pytest.raises(ValueError, match="below"):
        mcshane_extend(distance_functional(space, 0), Fraction(1, 2))


def test_extension_of_empty_domain_is_zero(d13):
    space, _ = d13
    total = mcshane_extend(LipschitzFunction(space, {}))
    assert total.is_total
    assert all(total.value(x) == 0 for x in range(len(space)))


# -- Copy pullbacks --------------------------------------------------------------------

def test_pull_to_copy_halves_values(d23):
    space, lm = d23
    pred_space, pred_lm = lm.predecessor
    f = distance_functional(pred_space, pred_lm.top)
    piece = pull_to_copy(space, lm, "-", 3, f)
    inj = lm.subcopies[("-", 3)]
    assert piece.domain == tuple(sorted(inj))
    for p in range(len(pred_space)):
        assert piece.value(inj[p]) == f.value(p) / 2
    assert lip_constant(piece) == lip_constant(f)


def test_pull_to_copy_rejections(d13, d23, dw33):
    space, lm = d23
    pred_space, pred_lm = lm.predecessor
    f = distance_functional(pred_space, pred_lm.top)
    with pytest.raises(ValueError, match="no copy"):
        pull_to_copy(space, lm, "+", 9, f)
    with pytest.raises(ValueError, match="total"):
        pull_to_copy(space, lm, "+", 2,
                     LipschitzFunction(pred_space, {0: ONE}))
    with pytest.raises(ValueError, match="predecessor"):
        pull_to_copy(space, lm, "+", 2, distance_functional(space, 0))
    for wrong_space, wrong_lm in (d13, dw33):
        with pytest.raises(ValueError, match="successor"):
            pull_to_copy(wrong_space, wrong_lm, "+", 2, f)


# -- Pole gluing -------------------------------------------------------------------------

def test_glue_poles_joins_exactly(d23):
    space, lm = d23
    f_plus = _copy_piece(space, lm, "+", 3)
    f_minus = _copy_piece(space, lm, "-", 2)
    glued = glue_poles(space, lm, 3, f_plus, 2, f_minus)
    assert glued.is_total
    assert glued.value(lm.ell) == 0
    assert is_lipschitz_at_most(glued, ONE)
    for p, v in f_plus.entries:
        assert glued.value(p) == v
    for p, v in f_minus.entries:
        assert glued.value(p) == v


def test_glue_poles_random_pieces_stay_one_lipschitz(d23):
    space, lm = d23
    pred_space, pred_lm = lm.predecessor
    sampler = Sampler(34)
    for trial in range(15):
        pieces = []
        for side, branch in (("+", 3), ("-", 2)):
            partial = _random_partial(sampler, pred_space, 3)
            c = lip_constant(partial)
            if c > 1:
                partial = partial.scale(ONE / c)
            total = mcshane_extend(partial, ONE)
            total = total.shifted_to_vanish(pred_lm.ell)
            pieces.append(pull_to_copy(space, lm, side, branch, total))
        glued = glue_poles(space, lm, 3, pieces[0], 2, pieces[1])
        assert glued.value(lm.ell) == 0
        assert is_lipschitz_at_most(glued, ONE)


def test_glue_poles_rejections(d23):
    space, lm = d23
    f_plus = _copy_piece(space, lm, "+", 3)
    f_minus = _copy_piece(space, lm, "-", 2)
    with pytest.raises(ValueError, match="branch 1"):
        glue_poles(space, lm, 1, f_plus, 2, f_minus)
    with pytest.raises(ValueError, match="distinct"):
        glue_poles(space, lm, 2, _copy_piece(space, lm, "+", 2), 2, f_minus)
    with pytest.raises(ValueError, match="domain"):
        glue_poles(space, lm, 2, f_plus, 3, f_minus)
    with pytest.raises(ValueError, match="vanish"):
        glue_poles(space, lm, 3, f_plus.shift(ONE), 2, f_minus)
    with pytest.raises(ValueError, match="exceeds"):
        glue_poles(space, lm, 3, f_plus.scale(4), 2, f_minus)
    pred_space, pred_lm = lm.predecessor
    on_pred = distance_functional(pred_space, pred_lm.top,
                                  vanish_at=pred_lm.ell)
    with pytest.raises(ValueError, match="partial functions on the stage"):
        glue_poles(space, lm, 3, on_pred, 2, f_minus)
