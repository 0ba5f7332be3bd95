"""The one integer certificate check behind every solve and every
``verify_certificate`` call.

Core claims checked here:
  * each single-fault certificate is refused with its own message, and
    the untouched certificate verifies,
  * a plan index outside the space is refused, as a marginal that does
    not match, before any distance is read,
  * a solver whose cost and potential agree with each other but not with
    the distances (a doubled cost and potential, or a suboptimal plan
    with a potential scaled to pair to its cost) makes ``norm_value``
    raise, and ``diamondlab norm`` and ``diamondlab verify`` exit 1
    naming the check, instead of returning a wrong norm.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from diamondlab import (
    CertificateError,
    DiamondSpec,
    FreeVector,
    LipschitzFunction,
    TransportCertificate,
    build,
    cli,
    free_norm,
    norm_statistics,
    norm_value,
    verify_certificate,
)
from diamondlab import freespace
from diamondlab.io import read_space, write_vector

GOLDEN = Path(__file__).resolve().parent / "golden"


def _two_pair_vector(space):
    # top + bottom - (+(1)/mid(1)) - (-(1)/mid(1)): norm 1 with the plan
    # top -> +(1)/mid(1), bottom -> -(1)/mid(1); crossing the two pairs
    # costs 3.
    points = ("top", "bottom", "+(1)/mid(1)", "-(1)/mid(1)")
    return FreeVector(space, [(space.index_of(label), c)
                              for label, c in zip(points, (1, 1, -1, -1))])


@pytest.fixture(scope="module")
def certified():
    space, _ = build(DiamondSpec(2, 3))
    value, cert = free_norm(_two_pair_vector(space))
    assert value == 1
    assert [(space.label(x), space.label(y), m) for x, y, m in cert.plan] \
        == [("top", "+(1)/mid(1)", 1), ("bottom", "-(1)/mid(1)", 1)]
    return space, cert


def _with(cert, **changes):
    fields = dict(vector=cert.vector, value=cert.value, plan=cert.plan,
                  potential=cert.potential)
    fields.update(changes)
    return TransportCertificate(**fields)


def _raised_at(space, f, label, by):
    at = space.index_of(label)
    return LipschitzFunction(space, [(i, v + by if i == at else v)
                                     for i, v in f.entries])


def _zero_mass(space, cert):
    (x, y, _), rest = cert.plan[0], cert.plan[1:]
    return _with(cert, plan=cert.plan + ((x, rest[0][1], Fraction(0)),))


def _negative_mass(space, cert):
    # Same marginals and cost, but one triple carries mass -1.
    (x, y, m), rest = cert.plan[0], cert.plan[1:]
    return _with(cert, plan=((x, y, m + 1), (x, y, Fraction(-1))) + rest)


def _one_target(space, cert):
    (x, y, m), (u, _, n) = cert.plan
    return _with(cert, plan=((x, y, m), (u, y, n)))


def _crossed(space, cert):
    (x, y, m), (u, v, n) = cert.plan
    return _with(cert, plan=((x, v, m), (u, y, n)))


def _value_plus_one(space, cert):
    return _with(cert, value=cert.value + 1)


def _other_space(space, cert):
    twin, _ = build(DiamondSpec(2, 3))
    return _with(cert, potential=LipschitzFunction(twin,
                                                   cert.potential.entries))


def _partial(space, cert):
    keep = {space.base_point, *cert.vector.support}
    return _with(cert, potential=LipschitzFunction(
        space, [(i, v) for i, v in cert.potential.entries if i in keep]))


def _shifted(space, cert):
    return _with(cert, potential=cert.potential.shift(Fraction(1, 7)))


def _raised_on_support(space, cert):
    # top -> +(1)/mid(1) is a tight plan pair.
    return _with(cert, potential=_raised_at(space, cert.potential, "top",
                                            Fraction(1, 3)))


def _raised_off_support(space, cert):
    return _with(cert, potential=_raised_at(space, cert.potential, "mid(2)",
                                            Fraction(100)))


def _zero_potential(space, cert):
    return _with(cert, potential=LipschitzFunction(
        space, [(i, 0) for i in range(len(space))]))


# One fault per certificate, and the exact message each one must raise.
SINGLE_FAULTS = [
    (_zero_mass, "plan contains a non-positive mass"),
    (_negative_mass, "plan contains a non-positive mass"),
    (_one_target, "plan marginals do not match the vector"),
    (_crossed, "plan cost 3 differs from claimed value 1"),
    (_value_plus_one, "plan cost 1 differs from claimed value 2"),
    (_other_space, "potential lives over a different space"),
    (_partial, "potential is not a total function"),
    (_shifted, "potential does not vanish at the base point"),
    (_raised_on_support, "potential is not 1-Lipschitz"),
    (_raised_off_support, "potential is not 1-Lipschitz"),
    (_zero_potential, "potential pairs to 0, not to 1"),
]


def test_the_untouched_certificate_verifies(certified):
    _, cert = certified
    assert verify_certificate(cert)


@pytest.mark.parametrize("tamper, message", SINGLE_FAULTS,
                         ids=[t.__name__[1:] for t, _ in SINGLE_FAULTS])
def test_each_single_fault_keeps_its_message(certified, tamper, message):
    space, cert = certified
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        verify_certificate(tamper(space, cert))


@pytest.mark.parametrize("where", ["source", "target"])
@pytest.mark.parametrize("bad", [-1, "n"])
def test_a_plan_index_out_of_range_is_refused(certified, where, bad):
    space, cert = certified
    bad = len(space) if bad == "n" else bad
    (x, y, m), rest = cert.plan[0], cert.plan[1:]
    plan = ((bad, y, m) if where == "source" else (x, bad, m),) + rest
    with pytest.raises(CertificateError,
                       match="^plan marginals do not match the vector$"):
        verify_certificate(_with(cert, plan=plan))


def test_binary_float_masses_and_values_verify_exactly(certified):
    # Floats convert exactly at the boundary, as the Fraction verifier
    # compared them; a float a hair off the value is refused.
    _, cert = certified
    (x, y, m), rest = cert.plan[0], cert.plan[1:]
    assert verify_certificate(_with(cert, plan=((x, y, float(m)),) + rest))
    assert verify_certificate(_with(cert, value=float(cert.value)))
    with pytest.raises(CertificateError, match="differs from claimed value"):
        verify_certificate(_with(cert, value=float(cert.value) + 2 ** -40))


# -- Planted solver faults ---------------------------------------------------

def _plant_doubling(monkeypatch):
    """Twice the cost and twice the potential: they still pair exactly."""
    transport, dual = freespace._min_cost_transport, freespace._dual_potential

    def doubled_transport(space, pos, neg):
        cost, plan = transport(space, pos, neg)
        return 2 * cost, plan

    def doubled_dual(space, vec, plan):
        return {i: 2 * v for i, v in dual(space, vec, plan).items()}

    monkeypatch.setattr(freespace, "_min_cost_transport", doubled_transport)
    monkeypatch.setattr(freespace, "_dual_potential", doubled_dual)


def _plant_crossing(monkeypatch):
    """The two plan pairs crossed, at their true cost, and the optimal
    potential scaled by that cost over the optimum, so it pairs to it."""
    transport, dual = freespace._min_cost_transport, freespace._dual_potential
    factors = []

    def crossed_transport(space, pos, neg):
        cost, ((x, y, m), (u, v, n)) = transport(space, pos, neg)
        plan = sorted([(x, v, m), (u, y, n)])
        scale = space.integer_scaled()[1]
        worse = sum(m * space.distance(a, b) * scale for a, b, m in plan)
        factor, rest = divmod(int(worse), cost)
        assert not rest and factor > 1
        factors.append(factor)
        return int(worse), plan

    def scaled_dual(space, vec, plan):
        optimal = dual(space, vec, transport(space, *freespace._split_parts(
            vec))[1])
        return {i: factors[-1] * v for i, v in optimal.items()}

    monkeypatch.setattr(freespace, "_min_cost_transport", crossed_transport)
    monkeypatch.setattr(freespace, "_dual_potential", scaled_dual)


PLANTS = {
    # delta_3 + delta_5 - delta_7 - delta_9 has norm 3/2; doubled, 3.
    "doubling": (_plant_doubling, [(3, 1), (5, 1), (7, -1), (9, -1)],
                 "plan cost 3/2 differs from claimed value 3"),
    # The crossed plan costs 3 against the optimum 1.
    "crossing": (_plant_crossing, None, "potential is not 1-Lipschitz"),
}


def _planted_vector(space, entries):
    if entries is None:
        return _two_pair_vector(space)
    return FreeVector(space, entries)


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_a_planted_solver_fault_raises(monkeypatch, name):
    plant, entries, message = PLANTS[name]
    space, _ = build(DiamondSpec(2, 3))
    vec = _planted_vector(space, entries)
    honest = norm_value(vec)
    freespace.clear_norm_caches(space)
    plant(monkeypatch)
    before = norm_statistics()
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        norm_value(vec)
    with pytest.raises(CertificateError):
        free_norm(vec)
    after = norm_statistics()
    assert after["gap_checks"] - before["gap_checks"] == 2
    assert after["gap_failures"] - before["gap_failures"] == 2
    assert not space._solve_cache
    monkeypatch.undo()
    assert norm_value(vec) == honest


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_a_planted_solver_fault_fails_the_norm_command(monkeypatch, tmp_path,
                                                       capsys, name):
    plant, entries, message = PLANTS[name]
    space_file, vec_file = tmp_path / "d23.txt", tmp_path / "vec.txt"
    assert cli.main(["gen", "--alpha", "2", "--branches", "3",
                     "--out", str(space_file)]) == 0
    space, _, _ = read_space(str(space_file))
    write_vector(str(vec_file), _planted_vector(space, entries))
    # The reader may hand back a cached stage, with this norm cached.
    freespace.clear_norm_caches(space)
    capsys.readouterr()
    plant(monkeypatch)
    assert cli.main(["norm", "--space", str(space_file),
                     "--vector", str(vec_file)]) == 1
    assert capsys.readouterr().err == f"check failure: {message}\n"


def test_a_planted_solver_fault_fails_verify_at_the_check(monkeypatch,
                                                          tmp_path, capsys):
    space_file = tmp_path / "d23.txt"
    assert cli.main(["gen", "--alpha", "2", "--branches", "3",
                     "--out", str(space_file)]) == 0
    freespace.clear_norm_caches(read_space(str(space_file))[0])
    capsys.readouterr()
    _plant_doubling(monkeypatch)
    assert cli.main(["verify", "--space", str(space_file), "--transcript",
                     str(GOLDEN / "transcript_d23_adaptive_dual.txt")]) == 1
    assert capsys.readouterr().err == ("check failure: plan cost 1 differs "
                                       "from claimed value 2\n")
