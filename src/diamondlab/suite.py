"""The verification suite: ten exact checks behind one report.

Each check pins a finite, machine-checkable statement about the
constructions in this package: metric correctness, exact molecule norms,
isometric embeddings, closed duality gaps, escape moves, full derivation
games, the two certificate combinators, pole gluings, summing-metric
constants and determinism of every serialized artifact.  The same check
functions back both the command-line ``suite`` command and the
acceptance tests, so the shipped report and the test run cannot drift
apart.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import io as dio
from .decomposition import (LimitDecomposition, decompose_limit,
                            ell1_additivity_check, projection_identity_check)
from .derivation import (ADVERSARY_KINDS, MUTATION_KINDS, AdversaryConfig,
                         WeakNeighborhood, adversary_family, collect_vectors,
                         midpoint_lift, mutate_transcript,
                         prover_certify, prover_escape,
                         relative_derivation_oracle, verify_transcript)
from .diamond import DEFAULT_BUDGET, DiamondSpec, build_cached
from .errors import BudgetExceededError, FormatError
from .freespace import (FreeVector, clear_norm_caches, free_norm, molecule,
                        norm_statistics, norm_value, point_mass)
from .lipschitz import (LipschitzFunction, distance_functional, glue_poles,
                        lip_constant, mcshane_extend, pull_to_copy)
from .metric import MetricSpace
from .ordinal import OMEGA
from .sampling import Sampler

__all__ = [
    "TOOL_VERSION",
    "SuiteConfig",
    "CheckResult",
    "SuiteReport",
    "CHECKS",
    "run_check",
    "run_suite",
    "write_report",
    "read_report",
]

TOOL_VERSION = "0.1.0"

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        # Refused before any check runs, so bad input is not reported as
        # failed checks.
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class CheckResult:
    """One suite row; wall time is informational and never serialized."""

    check_id: str
    claim: str
    status: str
    details: str
    wall_time: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SuiteReport:
    version: str
    seed: int
    budget: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        """No row failed and at least one passed: a run that skipped
        every check shows nothing."""
        statuses = {r.status for r in self.results}
        return "fail" not in statuses and "pass" in statuses

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


# ---------------------------------------------------------------------------
# building blocks shared by several checks


def _random_vector(sampler: Sampler, space: MetricSpace,
                   max_support: int) -> FreeVector:
    while True:
        width = 2 + sampler.below(max(1, max_support - 1))
        points = sampler.sample(range(len(space)), min(width, len(space)))
        vec = FreeVector(space, [(p, sampler.nonzero_fraction())
                                 for p in points])
        if not vec.is_zero:
            return vec


def _balanced_copy_vector(sampler: Sampler, space: MetricSpace,
                          injection: tuple[int, ...]) -> FreeVector:
    while True:
        points = sampler.sample(injection, min(3, len(injection)))
        entries = [(p, sampler.nonzero_fraction()) for p in points[:-1]]
        mass = sum(c for _, c in entries)
        entries.append((points[-1], -mass))
        vec = FreeVector(space, entries)
        if not vec.is_zero and vec.total_mass == 0:
            return vec


def _game_spaces():
    return ((1, DiamondSpec(1, 8)), (2, DiamondSpec(2, 4)),
            (3, DiamondSpec(3, 3)))


# ---------------------------------------------------------------------------
# the ten checks


def check_metric_oracle(cfg: SuiteConfig) -> tuple[str, str]:
    specs = [DiamondSpec(a, n) for a in (1, 2, 3) for n in (3, 4)]
    specs.append(DiamondSpec(OMEGA, 3, 3))
    start = time.monotonic()
    pairs = 0
    for spec in specs:
        space, _ = build_cached(spec, cfg.budget)
        space.validate_metric()
        pairs += len(space) * (len(space) - 1) // 2
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        return "fail", f"runtime {elapsed:.1f}s exceeded the 60s budget"
    return "pass", (f"{len(specs)} spaces validated; {pairs} pairwise "
                    f"distances equal the closure exactly")


def check_molecule_norms(cfg: SuiteConfig) -> tuple[str, str]:
    total = 0
    for spec in (DiamondSpec(1, 4), DiamondSpec(2, 3)):
        space, _ = build_cached(spec, cfg.budget)
        for x in range(len(space)):
            for y in range(len(space)):
                if x == y:
                    continue
                if norm_value(molecule(space, x, y)) != 1:
                    return ("fail", f"molecule {space.label(x)} -> "
                            f"{space.label(y)} in {spec} is not norm one")
                total += 1
    space, _ = build_cached(DiamondSpec(3, 3), cfg.budget)
    sampler = Sampler(cfg.seed)
    for _ in range(100):
        x, y = sampler.sample(range(len(space)), 2)
        if norm_value(molecule(space, x, y)) != 1:
            return ("fail", f"molecule {space.label(x)} -> {space.label(y)} "
                    f"is not norm one")
        total += 1
    return "pass", f"{total} molecules all have free norm exactly 1"


def check_embedding_isometry(cfg: SuiteConfig) -> tuple[str, str]:
    sampler = Sampler(cfg.seed)
    space, _ = build_cached(DiamondSpec(3, 3), cfg.budget)
    for _ in range(100):
        x, y = sampler.sample(range(len(space)), 2)
        diff = point_mass(space, x) - point_mass(space, y)
        if norm_value(diff) != space.distance(x, y):
            return ("fail", f"evaluation difference at {space.label(x)}, "
                    f"{space.label(y)} does not match the distance")
    small, _ = build_cached(DiamondSpec(2, 3), cfg.budget)
    base = small.base_point
    for _ in range(50):
        vec = _random_vector(sampler, small, 6)
        ambient = norm_value(vec)
        indices = sorted(set(vec.support) | {base})
        sub, kept = small.restrict(indices, base)
        back = {old: new for new, old in enumerate(kept)}
        if norm_value(vec.mapped(sub, back)) != ambient:
            return "fail", f"restriction changed the norm of {vec!r}"
    return "pass", ("100 point pairs embed isometrically; 50 vectors keep "
                    "their norm under restriction to support plus base")


def check_duality_gap(cfg: SuiteConfig) -> tuple[str, str]:
    space, _ = build_cached(DiamondSpec(2, 3), cfg.budget)
    clear_norm_caches(space)
    sampler = Sampler(cfg.seed)
    before = norm_statistics()
    for _ in range(5):
        norm_value(_random_vector(sampler, space, 5))
    stats = {key: count - before[key]
             for key, count in norm_statistics().items()}
    if stats["norms"] == 0:
        return "fail", "no norm computations were recorded"
    if stats["gap_checks"] < stats["norms"]:
        return ("fail", f"{stats['norms']} solves ran only "
                f"{stats['gap_checks']} primal-dual comparisons")
    if stats["gap_failures"]:
        return ("fail", f"{stats['gap_failures']} of {stats['gap_checks']} "
                f"primal-dual comparisons left a gap")
    return "pass", (f"{stats['gap_checks']} primal-dual comparisons closed "
                    f"exactly, one per fresh solve of this check")


def check_escape_neighborhood(cfg: SuiteConfig) -> tuple[str, str]:
    space, lm = build_cached(DiamondSpec(1, 8), cfg.budget)
    target = molecule(space, lm.top, lm.bottom)
    sampler = Sampler(cfg.seed)
    eta = Fraction(1, 20)
    for trial in range(20):
        count = 1 + sampler.below(5)
        fns = []
        for _ in range(count):
            anchor = sampler.below(len(space))
            scale = sampler.nonzero_fraction(max_abs_num=1, max_den_pow=2)
            fns.append(distance_functional(space, anchor).scale(scale))
        hood = WeakNeighborhood(fns, target, eta)
        gamma = prover_escape(space, lm, hood)
        if not hood.contains(gamma):
            return "fail", f"family {trial}: escape left the neighborhood"
        if norm_value(gamma - target) != 1:
            return ("fail", f"family {trial}: escape separation is not "
                    f"exactly 1")
    return "pass", ("20 seeded families of up to 5 functionals at eta 1/20 "
                    "all admit an escape at separation exactly 1")


def check_depth_game(cfg: SuiteConfig) -> tuple[str, str]:
    games = 0
    deep_elapsed = 0.0
    for depth, spec in _game_spaces():
        space, lm = build_cached(spec, cfg.budget)
        for kind in ADVERSARY_KINDS:
            for seed in (1, 2, 3):
                adv = AdversaryConfig(kind, 3, Fraction(1, 10), seed)
                start = time.monotonic()
                transcript = prover_certify(space, lm, depth, adv)
                report = verify_transcript(space, transcript)
                if depth == 3:
                    deep_elapsed += time.monotonic() - start
                if not report.passed:
                    bad = report.failures()[0]
                    return ("fail", f"depth {depth} {kind} seed {seed}: "
                            f"{bad.path} violates {bad.condition}")
                family = adversary_family(space, lm, adv)
                survivors = relative_derivation_oracle(
                    space, collect_vectors(transcript), family, adv.eta,
                    transcript.root.epsilon, depth)
                if transcript.root.target not in survivors:
                    return ("fail", f"depth {depth} {kind} seed {seed}: "
                            f"root target eliminated before round {depth}")
                games += 1
    if deep_elapsed >= 120:
        return ("fail", f"depth-3 games took {deep_elapsed:.1f}s, over "
                f"the 120s budget")
    return "pass", (f"{games} games certified, verified, and sound against "
                    f"the box-derivation oracle at their full depth")


def check_midpoint_combinator(cfg: SuiteConfig) -> tuple[str, str]:
    space, lm = build_cached(DiamondSpec(2, 4), cfg.budget)
    runs = [(kind, seed) for kind in ADVERSARY_KINDS for seed in (1, 2, 3)]
    runs.append(("distance_functions", 4))
    lifted_count = 0
    for kind, seed in runs:
        adv = AdversaryConfig(kind, 3, Fraction(1, 10), seed)
        transcript = prover_certify(space, lm, 2, adv)
        if not verify_transcript(space, transcript).passed:
            return "fail", f"{kind} seed {seed}: base certificate invalid"
        lifted = midpoint_lift(transcript.root, -transcript.root.target)
        if not lifted.target.is_zero:
            return "fail", f"{kind} seed {seed}: lift missed the zero vector"
        if lifted.epsilon != transcript.root.epsilon * _HALF:
            return "fail", f"{kind} seed {seed}: lift kept the old epsilon"
        if not verify_transcript(space, lifted).passed:
            return "fail", f"{kind} seed {seed}: lifted certificate fails"
        lifted_count += 1
    return "pass", (f"{lifted_count} midpoint lifts certify the zero vector "
                    f"at half epsilon and pass verification")


def _random_unit_lipschitz(sampler: Sampler, space: MetricSpace,
                           vanish_at: int) -> LipschitzFunction:
    while True:
        width = 2 + sampler.below(4)
        points = sampler.sample(range(len(space)), min(width, len(space)))
        partial = LipschitzFunction(
            space, [(p, sampler.fraction()) for p in points])
        constant = lip_constant(partial)
        if constant == 0:
            continue
        partial = partial.scale(_ONE / constant)
        total = mcshane_extend(partial, _ONE)
        return total.shifted_to_vanish(vanish_at)


def check_pole_gluing(cfg: SuiteConfig) -> tuple[str, str]:
    sampler = Sampler(cfg.seed)
    trials = 0
    for t in range(50):
        alpha = 2 + (t % 2)
        space, lm = build_cached(DiamondSpec(alpha, 3), cfg.budget)
        pred_space, pred_lm = lm.predecessor
        minus_branch, plus_branch = sampler.sample((2, 3), 2)
        piece_plus = pull_to_copy(
            space, lm, "+", plus_branch,
            _random_unit_lipschitz(sampler, pred_space, pred_lm.ell))
        piece_minus = pull_to_copy(
            space, lm, "-", minus_branch,
            _random_unit_lipschitz(sampler, pred_space, pred_lm.ell))
        glued = glue_poles(space, lm, plus_branch, piece_plus,
                           minus_branch, piece_minus)
        if glued.value(lm.ell) != 0:
            return "fail", f"trial {t}: glued function misses 0 at the base"
        if lip_constant(glued) != 1:
            return ("fail", f"trial {t}: glued constant is "
                    f"{lip_constant(glued)}, not exactly 1")

        plus_inj = lm.subcopies[("+", plus_branch)]
        minus_inj = lm.subcopies[("-", minus_branch)]
        upper = _balanced_copy_vector(sampler, space, plus_inj)
        lower = _balanced_copy_vector(sampler, space, minus_inj)
        n_upper, n_lower = norm_value(upper), norm_value(lower)
        average = (upper + lower) * _HALF
        n_average = norm_value(average)
        if n_average != (n_upper + n_lower) * _HALF:
            return ("fail", f"trial {t}: averaged norm {n_average} differs "
                    f"from the half-sum {(n_upper + n_lower) * _HALF}")
        if n_average < min(n_upper, n_lower):
            return "fail", f"trial {t}: averaging lost separation"
        dual_plus = free_norm(upper)[1].potential
        dual_minus = free_norm(lower)[1].potential
        origin_plus = plus_inj[pred_lm.ell]
        origin_minus = minus_inj[pred_lm.ell]
        witness = glue_poles(
            space, lm, plus_branch,
            LipschitzFunction(space, [(p, dual_plus.value(p)
                                       - dual_plus.value(origin_plus))
                                      for p in plus_inj]),
            minus_branch,
            LipschitzFunction(space, [(p, dual_minus.value(p)
                                       - dual_minus.value(origin_minus))
                                      for p in minus_inj]))
        if average.pair(witness) != n_average:
            return ("fail", f"trial {t}: glued dual witness pairs to "
                    f"{average.pair(witness)}, not the norm {n_average}")
        trials += 1
    return "pass", (f"{trials} gluings are exactly 1-Lipschitz, vanish at "
                    f"the base, and attain the averaged-halves norm "
                    f"identity through a glued dual witness")


def _decomposition_rows(dec: LimitDecomposition,
                        vectors: Sequence[FreeVector]
                        ) -> tuple[CheckResult, ...]:
    """The cover, constants, additivity and projection rows of a limit
    decomposition, the last two over ``vectors`` (a zero vector is
    counted but not checked).  ``diamondlab decomp`` prints them, and
    the summing-constants check fails with the first failing one."""
    cover, minimum, eq = dec.cover, dec.cover.minimum, dec.constants
    # The separation has one entry per point of the stage.
    complete = (len(set(cover.bottom_half) | set(cover.top_half))
                == len(cover.separation))
    checked = [vec for vec in vectors if not vec.is_zero]
    bad_add = sum(not ell1_additivity_check(dec.summing, dec.partition,
                                            vec).passed for vec in checked)
    bad_proj = sum(not projection_identity_check(dec.partition, vec).passed
                   for vec in checked)
    rows = (
        ("decomp-cover", "pole cover is complete with separation >= 1/2",
         complete and minimum is not None and minimum >= _HALF,
         f"{len(cover.bottom_half)}+{len(cover.top_half)} points, minimum "
         f"separation "
         f"{dio.format_fraction(minimum) if minimum is not None else 'inf'}"),
        ("decomp-constants", "metric equivalence constants lie in [1/3, 1]",
         eq.c_low >= _THIRD and eq.c_high <= _ONE,
         f"c_low {dio.format_fraction(eq.c_low)}, "
         f"c_high {dio.format_fraction(eq.c_high)}"),
        ("decomp-additivity", "summing norm splits exactly across summands",
         bad_add == 0, f"{len(vectors)} vectors, {bad_add} failures"),
        ("decomp-projection", "norm splits exactly at every summand cut",
         bad_proj == 0, f"{len(vectors)} vectors, {bad_proj} failures"))
    return tuple(CheckResult(check_id, claim, "pass" if ok else "fail",
                             details)
                 for check_id, claim, ok, details in rows)


def check_summing_constants(cfg: SuiteConfig) -> tuple[str, str]:
    space, lm = build_cached(DiamondSpec(OMEGA, 3, 3), cfg.budget)
    dec = decompose_limit(space, lm)
    sampler = Sampler(cfg.seed)
    for row in _decomposition_rows(
            dec, [_random_vector(sampler, dec.summing, 8)
                  for _ in range(30)]):
        if row.status == "fail":
            return "fail", f"{row.check_id}: {row.details}"
    eq = dec.constants
    return "pass", (f"cover complete, separation minimum {dec.cover.minimum}, "
                    f"constants ({eq.c_low}, {eq.c_high}) within [1/3, 1], "
                    f"30 additivity and 30 projection identities exact")


def check_determinism_roundtrip(cfg: SuiteConfig) -> tuple[str, str]:
    spec = DiamondSpec(2, 3)
    space, lm = build_cached(spec, cfg.budget)
    with tempfile.TemporaryDirectory(prefix="diamondlab-") as workdir:

        def path(name: str) -> str:
            return os.path.join(workdir, name)

        adv = AdversaryConfig("adaptive_dual", 3, Fraction(1, 8), cfg.seed + 1)
        first = prover_certify(space, lm, 2, adv)
        # The second proof draws its family and its norms afresh.
        clear_norm_caches(space)
        second = prover_certify(space, lm, 2, adv)
        doc1 = dio.TranscriptDocument(first).with_report(
            verify_transcript(space, first))
        doc2 = dio.TranscriptDocument(second).with_report(
            verify_transcript(space, second))
        dio.write_transcript(path("t1.txt"), doc1, spec)
        dio.write_transcript(path("t2.txt"), doc2, spec)
        if _read_bytes(path("t1.txt")) != _read_bytes(path("t2.txt")):
            return "fail", "equal seeds produced different transcript bytes"

        rows = (CheckResult("alpha", "first claim", "pass", "details one"),
                CheckResult("beta", "second claim", "skip", "details two"))
        report = SuiteReport(TOOL_VERSION, cfg.seed, cfg.budget, rows)
        write_report(path("r1.txt"), report)
        write_report(path("r2.txt"), report)
        if _read_bytes(path("r1.txt")) != _read_bytes(path("r2.txt")):
            return "fail", "report serialization is not byte-stable"
        if read_report(path("r1.txt")) != report:
            return "fail", "report did not round-trip"

        dio.write_space(path("space.txt"), space, lm, spec)
        loaded = dio.read_space(path("space.txt"))
        if (loaded[0] is not space or loaded[1] is not lm
                or loaded[2] != spec):
            return "fail", "space file did not round-trip to the shared object"

        sampler = Sampler(cfg.seed)
        vec = _random_vector(sampler, space, 5)
        dio.write_vector(path("vec.txt"), vec, spec)
        if dio.read_vector(path("vec.txt"), space) != vec:
            return "fail", "vector file did not round-trip"

        func = free_norm(vec)[1].potential
        dio.write_function(path("fn.txt"), func, spec)
        if dio.read_function(path("fn.txt"), space) != func:
            return "fail", "function file did not round-trip"

        cert = free_norm(vec)[1]
        dio.write_certificate(path("cert.txt"), cert, spec)
        loaded_cert = dio.read_certificate(path("cert.txt"), space)
        if (loaded_cert.vector != cert.vector
                or loaded_cert.value != cert.value
                or loaded_cert.plan != cert.plan
                or loaded_cert.potential != cert.potential):
            return "fail", "certificate file did not round-trip"

        limit_spec = DiamondSpec(OMEGA, 3, 3)
        limit_space, limit_lm = build_cached(limit_spec, cfg.budget)
        dec = decompose_limit(limit_space, limit_lm)
        dio.write_partition(path("part.txt"), dec.sub, dec.partition)
        if dio.read_partition(path("part.txt"), dec.sub) != dec.partition:
            return "fail", "partition file did not round-trip"

        loaded_doc, _, _ = dio.read_transcript(path("t1.txt"), space, lm)
        if (loaded_doc.transcript.root != first.root
                or loaded_doc.transcript.adversary != first.adversary):
            return "fail", "transcript file did not round-trip"

        deep_space, deep_lm = build_cached(DiamondSpec(3, 3), cfg.budget)
        deep = prover_certify(deep_space, deep_lm, 3,
                              AdversaryConfig("distance_functions", 3,
                                              Fraction(1, 10), 5))
        mutants = 0
        for kind in MUTATION_KINDS:
            for _ in range(4):
                mutated = mutate_transcript(deep, kind, sampler)
                if verify_transcript(deep_space, mutated).passed:
                    return "fail", f"a {kind} mutant passed verification"
                mutants += 1
        return "pass", (f"equal seeds give identical bytes, all six file "
                        f"kinds round-trip, and {mutants}/{mutants} mutants "
                        f"fail verification")


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


CHECKS: tuple[tuple[str, str, Callable[[SuiteConfig],
                                       tuple[str, str]]], ...] = (
    ("metric-oracle",
     "construction distances equal the shortest-path closure of the "
     "finest edge set",
     check_metric_oracle),
    ("molecule-norms",
     "two-point molecules have free norm exactly one",
     check_molecule_norms),
    ("embedding-isometry",
     "point differences embed isometrically and norms survive restriction",
     check_embedding_isometry),
    ("duality-gap",
     "every norm computation closes its primal-dual gap exactly",
     check_duality_gap),
    ("escape-neighborhood",
     "posed weak neighborhoods of the pole molecule admit unit-separated "
     "escapes",
     check_escape_neighborhood),
    ("depth-game",
     "derivation games certify, verify and stay sound at depths 1 to 3",
     check_depth_game),
    ("midpoint-combinator",
     "midpoint lifts with the reflected target certify zero at half epsilon",
     check_midpoint_combinator),
    ("pole-gluing",
     "pole gluings are exactly 1-Lipschitz and give the averaged-halves "
     "norm identity",
     check_pole_gluing),
    ("summing-constants",
     "cover, separation margin, equivalence constants and sum identities "
     "hold on the limit truncation",
     check_summing_constants),
    ("determinism-roundtrip",
     "equal seeds give identical bytes, files round-trip, mutants fail",
     check_determinism_roundtrip),
)


def run_check(check_id: str, cfg: SuiteConfig) -> CheckResult:
    for cid, claim, fn in CHECKS:
        if cid == check_id:
            break
    else:
        raise ValueError(f"unknown check {check_id!r}")
    start = time.monotonic()
    try:
        status, details = fn(cfg)
    except BudgetExceededError as exc:
        status, details = "skip", f"budget: {exc}"
    except Exception as exc:  # a crashed check is a failed check
        status, details = "fail", f"{type(exc).__name__}: {exc}"
    return CheckResult(cid, claim, status, details,
                       time.monotonic() - start)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    results = tuple(run_check(cid, cfg) for cid, _, _ in CHECKS)
    return SuiteReport(TOOL_VERSION, cfg.seed, cfg.budget, results)


# ---------------------------------------------------------------------------
# report files


def write_report(path: str, report: SuiteReport) -> None:
    lines = ["diamondlab report 1", f"version {report.version}",
             f"seed {report.seed}", f"budget {report.budget}"]
    for row in report.results:
        lines.append(f"check {row.check_id} {row.status} | {row.claim} | "
                     f"{row.details}")
    lines.append(f"verdict {report.verdict}")
    lines.append("end")
    dio._write(path, lines)


def read_report(path: str) -> SuiteReport:
    with dio._Reader(path) as rd:
        dio._check_header(rd, "report")
        version = rd.expect("version", 2)[1]
        seed = int(rd.expect("seed", 2)[1])
        budget = int(rd.expect("budget", 2)[1])
        rows = []
        for tokens in rd.run("check"):
            _, claim, details = " ".join(tokens).split(" | ", 2)
            check_id, status = tokens[1], tokens[2]
            if status not in ("pass", "fail", "skip"):
                raise rd.error(f"unknown status {status!r}")
            rows.append(CheckResult(check_id, claim, status, details))
        verdict = rd.expect("verdict", 2)[1]
        rd.end()
    report = SuiteReport(version, seed, budget, tuple(rows))
    if report.verdict != verdict:
        raise FormatError(f"{path}: stored verdict {verdict!r} contradicts "
                          f"the rows")
    return report
