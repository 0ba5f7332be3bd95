"""Ordinal notation tests.

Core claims checked here:
  * format/parse is a bijection on canonical notations,
  * the order agrees with a polynomial-valuation oracle below w^4,
  * classification and fundamental sequences match hand-computed values,
  * non-canonical sums normalize and malformed inputs are rejected,
    as is nesting past a fixed depth, with ``OrdinalParseError`` and not
    a ``RecursionError``.
"""

import itertools

import pytest

from diamondlab import ordinal
from diamondlab import (
    OMEGA,
    ONE,
    ZERO,
    OrdinalNotation,
    OrdinalParseError,
    classify,
    compare,
    format_ordinal,
    fundamental_sequence,
    parse_ordinal,
)


# -- Helpers ----------------------------------------------------------------

def _pool():
    """All notations with exponents in 0..3 and coefficients in 1..3."""
    out = [ZERO]
    exps = [OrdinalNotation.from_int(e) for e in range(4)]
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            dec = sorted(subset, reverse=True)
            for coeffs in itertools.product((1, 2, 3), repeat=size):
                out.append(OrdinalNotation(
                    tuple((exps[e], c) for e, c in zip(dec, coeffs))))
    return out


def _poly_value(a):
    # Independent order oracle: valuation in a base far above any
    # coefficient, valid because every exponent in the pool is finite.
    base = 10 ** 6
    return sum(base ** expo.as_int() * c for expo, c in a.terms)


POOL = _pool()


# -- Ordering ----------------------------------------------------------------

def test_order_matches_polynomial_oracle():
    values = [_poly_value(a) for a in POOL]
    for (a, va), (b, vb) in itertools.product(zip(POOL, values), repeat=2):
        want = (va > vb) - (va < vb)
        assert compare(a, b) == want


def test_comparison_operators_consistent():
    a, b = OMEGA, parse_ordinal("w+1")
    assert a < b and b > a and a <= b and not b <= a
    assert a <= a and a >= a and compare(a, a) == 0


# -- Textual form ------------------------------------------------------------

def test_format_frozen_strings():
    cases = [
        (ZERO, "0"),
        (ONE, "1"),
        (OrdinalNotation.from_int(7), "7"),
        (OMEGA, "w"),
        (OrdinalNotation(((ONE, 3),)), "w*3"),
        (OrdinalNotation(((OrdinalNotation.from_int(2), 5),)), "w^(2)*5"),
        (OrdinalNotation(((OMEGA, 1),)), "w^(w)"),
        (parse_ordinal("w+1"), "w+1"),
        (parse_ordinal("w^(w+1)*2+w*3+4"), "w^(w+1)*2+w*3+4"),
    ]
    for value, text in cases:
        assert format_ordinal(value) == text


def test_roundtrip_on_pool():
    for a in POOL:
        text = format_ordinal(a)
        assert " " not in text
        assert parse_ordinal(text) == a


def test_roundtrip_with_infinite_exponents():
    for text in ("w^(w)", "w^(w*2)*3+w^(2)+1", "w^(w^(w))", "w^(w+2)*2"):
        assert format_ordinal(parse_ordinal(text)) == text


def test_parse_normalizes_left_sums():
    assert parse_ordinal("1+w") == OMEGA
    assert parse_ordinal("w+w") == parse_ordinal("w*2")
    assert parse_ordinal("w*2+w") == parse_ordinal("w*3")
    assert parse_ordinal("w^(2)+w^(3)") == parse_ordinal("w^(3)")
    assert parse_ordinal("2+3") == OrdinalNotation.from_int(5)
    assert parse_ordinal("w+1+w") == parse_ordinal("w*2")


def test_parse_rejects_malformed():
    for text in ("", "w^", "w*0", "x", "w^(2", "(w)", "w**2", "1 2", "-1",
                 "w+", "w^()"):
        with pytest.raises(OrdinalParseError):
            parse_ordinal(text)


# -- Classification ----------------------------------------------------------

def test_classify_frozen():
    assert classify(ZERO) == ("zero", None)
    assert classify(ONE) == ("successor", ZERO)
    assert classify(parse_ordinal("w+2")) == ("successor", parse_ordinal("w+1"))
    assert classify(OMEGA) == ("limit", None)
    assert classify(parse_ordinal("w^(2)*3")) == ("limit", None)


def test_successor_predecessor_roundtrip():
    for a in POOL:
        assert a.successor().predecessor() == a
        assert a < a.successor()
        if a.is_successor:
            assert a.predecessor().successor() == a
        else:
            with pytest.raises(ValueError):
                a.predecessor()


def test_kind_partition():
    for a in POOL:
        assert (a.is_zero, a.is_successor, a.is_limit).count(True) == 1
        assert a.kind == classify(a)[0]


def test_int_conversions():
    for n in range(10):
        assert OrdinalNotation.from_int(n).as_int() == n
        assert OrdinalNotation.from_int(n).is_finite
    with pytest.raises(ValueError):
        OMEGA.as_int()
    with pytest.raises(ValueError):
        OrdinalNotation.from_int(-1)
    assert not OMEGA.is_finite


# -- Fundamental sequences -----------------------------------------------------

def test_fundamental_sequence_frozen():
    cases = [
        ("w", 3, "3"),
        ("w^(2)", 3, "w*3"),
        ("w*2", 4, "w+4"),
        ("w^(w)", 2, "w^(2)"),
        ("w^(w)*2", 3, "w^(w)+w^(3)"),
        ("w^(2)+w", 5, "w^(2)+5"),
        ("w^(w+1)", 2, "w^(w)*2"),
    ]
    for text, m, want in cases:
        got = fundamental_sequence(parse_ordinal(text), m)
        assert format_ordinal(got) == want


def test_fundamental_sequence_is_increasing_below_limit():
    limits = [a for a in POOL if a.is_limit]
    limits += [parse_ordinal(t) for t in ("w^(w)", "w^(w*2)", "w^(w)+w^(2)")]
    for a in limits:
        entries = [fundamental_sequence(a, m) for m in (1, 2, 3)]
        assert entries[0] < entries[1] < entries[2] < a


def test_fundamental_sequence_rejects_non_limits():
    for a in (ZERO, ONE, parse_ordinal("w+1")):
        with pytest.raises(ValueError):
            fundamental_sequence(a, 1)
    with pytest.raises(ValueError):
        fundamental_sequence(OMEGA, 0)


def test_notation_validation():
    with pytest.raises(ValueError):
        OrdinalNotation(((ZERO, 0),))
    with pytest.raises(ValueError):
        OrdinalNotation(((ZERO, 1), (ONE, 1)))  # increasing exponents
    with pytest.raises(TypeError):
        OrdinalNotation(((1, 1),))


def test_nesting_past_the_fixed_depth_is_refused():
    def nested(depth):
        return "w^(" * depth + "w" + ")" * depth

    limit = ordinal._MAX_NESTING
    deepest = parse_ordinal(nested(limit))
    assert format_ordinal(deepest) == nested(limit)
    for depth in (limit + 1, 400, 5000):
        with pytest.raises(OrdinalParseError, match="nested more than"):
            parse_ordinal(nested(depth))
