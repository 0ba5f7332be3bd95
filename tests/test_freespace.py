"""Free-vector norm tests.

Core claims checked here:
  * molecule norms are exactly 1, in both orientations, on whole stages,
  * the transport solver agrees with a spanning-tree enumeration oracle
    on random vectors,
  * every certificate passes independent re-verification and tampered
    certificates are rejected,
  * norm axioms (homogeneity, symmetry, subadditivity, nondegeneracy)
    hold exactly, and restriction onto the support is isometric,
  * sums, differences, negations, multiples and pairings match a
    dict-of-Fraction reference, cancellations and base-point entries
    included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diamondlab import (
    CertificateError,
    DiamondSpec,
    FreeVector,
    LipschitzFunction,
    Sampler,
    TransportCertificate,
    build_cached,
    clear_norm_caches,
    free_norm,
    molecule,
    norm_statistics,
    norm_value,
    point_mass,
    verify_certificate,
)

from oracles import free_norm_oracle


# -- Helpers ----------------------------------------------------------------

def _random_vector(sampler, space, max_support=4):
    k = sampler.integer(1, max_support)
    points = sampler.sample(range(len(space)), k)
    entries = [(p, sampler.nonzero_fraction()) for p in points]
    return FreeVector(space, entries)


_COEFFS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 8]))


def _raw(size):
    """Unnormalized entry lists: repeated indices, zeros, the base point."""
    return st.lists(st.tuples(st.integers(0, size - 1), _COEFFS), max_size=6)


def _reference(space, *terms):
    """Sum of factor * coefficient over (factor, raw entries) terms, as a
    dict without zeros and without the base point."""
    acc = {}
    for factor, raw in terms:
        for i, c in raw:
            acc[i] = acc.get(i, Fraction(0)) + factor * c
    return {i: c for i, c in acc.items() if c and i != space.base_point}


def _assert_matches(vec, space, reference):
    assert vec.space is space
    assert vec.entries == tuple(sorted(reference.items()))
    assert all(type(c) is Fraction for _, c in vec.entries)
    checked = FreeVector(space, reference.items())
    assert vec == checked and hash(vec) == hash(checked)


# -- Vector algebra -----------------------------------------------------------

def test_entries_normalize(d13):
    space, lm = d13
    vec = FreeVector(space, [(0, Fraction(1)), (0, Fraction(2)),
                             (1, Fraction(0)), (lm.ell, Fraction(5))])
    assert vec.entries == ((0, Fraction(3)),)
    assert vec.coefficient(0) == 3
    assert vec.coefficient(1) == 0
    assert vec.support == (0,)
    assert not vec.is_zero
    assert FreeVector(space).is_zero


def test_vector_arithmetic(d13):
    space, _ = d13
    a = point_mass(space, 0, 2)
    b = point_mass(space, 1, 3)
    assert (a + b).entries == ((0, Fraction(2)), (1, Fraction(3)))
    assert (a - b).coefficient(1) == -3
    assert (-a).coefficient(0) == -2
    assert (a * Fraction(1, 2)).coefficient(0) == 1
    assert (a / 2).coefficient(0) == 1
    assert sum([a, b]) == a + b
    assert a.total_mass == 2


def test_cross_space_operations_rejected(d13, d14):
    a = point_mass(d13[0], 0)
    b = point_mass(d14[0], 0)
    with pytest.raises(ValueError):
        a + b


def test_molecule_requires_distinct_points(d13):
    with pytest.raises(ValueError):
        molecule(d13[0], 2, 2)


# -- Norm values ----------------------------------------------------------------

def test_molecule_norms_exhaustive(d13, d23):
    for space, _ in (d13, d23):
        n = len(space)
        for x in range(n):
            for y in range(n):
                if x != y:
                    assert norm_value(molecule(space, x, y)) == 1


def test_frozen_norm_values(d23):
    space, lm = d23
    top, bottom = lm.top, lm.bottom
    assert norm_value(point_mass(space, top) - point_mass(space, bottom)) == 2
    assert norm_value(point_mass(space, top) + point_mass(space, bottom)) == 2
    assert norm_value(
        point_mass(space, top) - point_mass(space, bottom, 2)) == 3
    assert norm_value(point_mass(space, space.index_of("+(1)/mid(1)"))) \
        == Fraction(1, 2)
    assert norm_value(FreeVector(space)) == 0


def test_point_mass_norm_is_base_distance(d23):
    space, _ = d23
    sampler = Sampler(23)
    for trial in range(20):
        x = sampler.below(len(space))
        if x == space.base_point:
            continue
        c = sampler.nonzero_fraction()
        assert norm_value(point_mass(space, x, c)) \
            == abs(c) * space.distance(x, space.base_point)


def test_solver_matches_tree_oracle(d23):
    space, _ = d23
    sampler = Sampler(41)
    for trial in range(60):
        vec = _random_vector(sampler, space)
        assert norm_value(vec) == free_norm_oracle(space, vec)


def test_norm_axioms(d23):
    space, _ = d23
    sampler = Sampler(42)
    for trial in range(30):
        a = _random_vector(sampler, space)
        b = _random_vector(sampler, space)
        c = sampler.nonzero_fraction()
        na, nb = norm_value(a), norm_value(b)
        assert na > 0
        assert norm_value(-a) == na
        assert norm_value(a * c) == abs(c) * na
        assert norm_value(a + b) <= na + nb


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(1, 3), (2, 3)]), st.data())
def test_norm_is_a_norm_matching_the_metric(shape, data):
    space, _ = build_cached(DiamondSpec(*shape))
    a = FreeVector(space, data.draw(_raw(len(space))))
    b = FreeVector(space, data.draw(_raw(len(space))))
    c = data.draw(_COEFFS)
    na, nb = norm_value(a), norm_value(b)
    assert norm_value(a + b) <= na + nb
    assert norm_value(a * c) == abs(c) * na
    assert (na == 0) == a.is_zero
    x, y = data.draw(st.lists(st.integers(0, len(space) - 1), min_size=2,
                              max_size=2, unique=True))
    delta = FreeVector(space, [(x, 1), (y, -1)])
    assert norm_value(delta) == space.distance(x, y)


# -- Certificates -----------------------------------------------------------------

def test_certificates_verify(d23):
    space, _ = d23
    sampler = Sampler(43)
    for trial in range(25):
        vec = _random_vector(sampler, space)
        value, cert = free_norm(vec)
        assert cert.value == value
        assert verify_certificate(cert)
        assert cert.potential.is_total
        assert vec.pair(cert.potential) == value


def test_tampered_value_rejected(d23):
    space, _ = d23
    _, cert = free_norm(molecule(space, 0, 1))
    bad = TransportCertificate(cert.vector, cert.value + 1, cert.plan,
                               cert.potential)
    with pytest.raises(CertificateError, match="plan cost 1 differs from "
                                               "claimed value 2"):
        verify_certificate(bad)


def test_tampered_plan_rejected(d23):
    space, _ = d23
    _, cert = free_norm(molecule(space, 0, 1))
    x, y, mass = cert.plan[0]
    bad_plan = ((x, y, mass * 2),) + cert.plan[1:]
    bad = TransportCertificate(cert.vector, cert.value, bad_plan,
                               cert.potential)
    with pytest.raises(CertificateError, match="marginals do not match"):
        verify_certificate(bad)


def test_tampered_potential_rejected(d23):
    space, _ = d23
    _, cert = free_norm(molecule(space, 0, 1))
    shifted = TransportCertificate(cert.vector, cert.value, cert.plan,
                                   cert.potential.shift(Fraction(1, 7)))
    with pytest.raises(CertificateError, match="vanish"):
        verify_certificate(shifted)
    scaled = TransportCertificate(cert.vector, cert.value, cert.plan,
                                  cert.potential.scale(2))
    with pytest.raises(CertificateError, match="not 1-Lipschitz"):
        verify_certificate(scaled)


@pytest.mark.parametrize("k", [0, 20, 61])
def test_nudged_potential_is_not_one_lipschitz(d23, k):
    # The plan pair (top, bottom) is tight, so raising the potential at
    # top by any positive amount, however small, breaks the 1-Lipschitz
    # bound; at k = 61 the check runs on Python integers.
    space, lm = d23
    _, cert = free_norm(molecule(space, lm.top, lm.bottom))
    assert verify_certificate(cert)
    nudge = Fraction(1, 3 * 2 ** k)
    potential = LipschitzFunction(
        space, [(i, v + nudge if i == lm.top else v)
                for i, v in cert.potential.entries])
    nudged = TransportCertificate(cert.vector, cert.value, cert.plan,
                                  potential)
    with pytest.raises(CertificateError, match="not 1-Lipschitz"):
        verify_certificate(nudged)


def test_certificate_error_is_value_error():
    assert issubclass(CertificateError, ValueError)


# -- Caching and statistics ---------------------------------------------------------

def test_norm_cache_hits(d13):
    space, _ = d13
    vec = FreeVector(space, [(0, Fraction(5, 3)), (3, Fraction(-1, 2))])
    before = norm_statistics()["norms"]
    first = norm_value(vec)
    mid = norm_statistics()["norms"]
    again = norm_value(FreeVector(space, vec.entries))
    after = norm_statistics()["norms"]
    assert first == again
    assert mid == before + 1
    assert after == mid


@pytest.mark.parametrize("first", ["norm_value", "free_norm"])
def test_one_solve_serves_value_and_certificate(d23, first):
    space, lm = d23
    clear_norm_caches(space)
    vec = FreeVector(space, [(lm.top, Fraction(3, 4)), (5, Fraction(-1, 3)),
                             (9, Fraction(2, 7))])
    before = norm_statistics()["norms"]
    if first == "norm_value":
        value = norm_value(vec)
        got, cert = free_norm(FreeVector(space, vec.entries))
    else:
        got, cert = free_norm(vec)
        value = norm_value(FreeVector(space, vec.entries))
    assert norm_statistics()["norms"] == before + 1
    assert got == value == cert.value
    again = free_norm(vec * 1)
    assert again[0] == value and again[1] is cert
    assert verify_certificate(cert)
    assert norm_statistics()["norms"] == before + 1
    clear_norm_caches(space)
    assert free_norm(vec)[1] is not cert
    assert norm_statistics()["norms"] == before + 2


def test_gap_counters_advance(d13):
    space, _ = d13
    sampler = Sampler(44)
    before = norm_statistics()
    vec = _random_vector(sampler, space)
    norm_value(vec)
    after = norm_statistics()
    assert after["gap_checks"] >= before["gap_checks"]
    assert after["gap_failures"] == before["gap_failures"]


# -- Restriction and reindexing ------------------------------------------------------

def test_support_restriction_is_isometric(d33):
    space, _ = d33
    sampler = Sampler(45)
    for trial in range(15):
        vec = _random_vector(sampler, space, max_support=5)
        keep = sorted(set(vec.support) | {space.base_point})
        sub, kept = space.restrict(keep, base=space.base_point)
        back = {old: new for new, old in enumerate(kept)}
        moved = vec.mapped(sub, back)
        assert norm_value(moved) == norm_value(vec)


def test_mapped_requires_covering_map(d13):
    space, _ = d13
    vec = point_mass(space, 0)
    with pytest.raises(ValueError, match="misses"):
        vec.mapped(space, {1: 1})


def test_pair_requires_same_space(d13, d14):
    from diamondlab import distance_functional

    vec = point_mass(d13[0], 0)
    func = distance_functional(d14[0], 0)
    with pytest.raises(ValueError):
        vec.pair(func)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_dict_reference(data):
    space, _ = build_cached(DiamondSpec(1, 3))
    a_raw = data.draw(_raw(len(space)))
    # Part of b cancels part of a, so sums hit zero coefficients.
    cut = data.draw(st.integers(0, len(a_raw)))
    b_raw = [(i, -c) for i, c in a_raw[:cut]] + data.draw(_raw(len(space)))
    scalar = data.draw(st.one_of(st.just(0), st.just(Fraction(0)), _COEFFS,
                                 st.integers(-3, 3)))
    a, b = FreeVector(space, a_raw), FreeVector(space, b_raw)
    one = Fraction(1)
    _assert_matches(a + b, space, _reference(space, (one, a_raw),
                                             (one, b_raw)))
    _assert_matches(a - b, space, _reference(space, (one, a_raw),
                                             (-one, b_raw)))
    _assert_matches(-a, space, _reference(space, (-one, a_raw)))
    _assert_matches(a * scalar, space,
                    _reference(space, (Fraction(scalar), a_raw)))
    _assert_matches(scalar * a, space,
                    _reference(space, (Fraction(scalar), a_raw)))
    assert (a - a).is_zero and (a + -a).is_zero
    values = data.draw(st.lists(_COEFFS, min_size=len(space),
                                max_size=len(space)))
    func = LipschitzFunction(space, enumerate(values))
    for vec in (a, b, a - b):
        paired = vec.pair(func)
        assert type(paired) is Fraction
        assert paired == sum((c * values[i] for i, c in vec.entries),
                             Fraction(0))
