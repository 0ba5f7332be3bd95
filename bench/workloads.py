"""The three benchmark workloads: inputs, set-up, rounds and output checks.

A workload is run in rounds.  ``nominal_round_s`` is a round's wall
time measured when the workload was defined (2-vCPU VM, Python 3.11);
``run.py`` uses it to size a run from ``--seconds``.  Each round is a fixed mix of operations
whose inputs come only from ``random.Random(f"{name}/{seed}/{round}")``,
so the same seed and round give the same inputs on every commit, and
the program under test never influences them.  Every operation checks
its own outputs exactly and feeds them to a :class:`Recorder`, whose
per-round digest is compared with the digests stored for shipped seeds.

Library calls go through the ``diamondlab`` package and ``diamondlab.io``
module attributes, so the tracer's rebinding sees them.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
import traceback
from fractions import Fraction

HALF = Fraction(1, 2)


class Recorder:
    """Counts operations and failures, times them and digests their outputs.

    ``plant`` is the index, counted over every value passed to
    :meth:`out` in the process, of one value to corrupt before any check
    sees it; the self-test uses it to show that the checks can fail.
    """

    def __init__(self, plant: int = -1):
        self.plant = plant
        self.emitted = 0
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self.mutants = 0
        self.mutants_caught = 0
        self._digest = hashlib.sha256()

    def out(self, value):
        """Record one exact output value and return it (corrupted if planted)."""
        if self.emitted == self.plant:
            value = _corrupt(value)
        self.emitted += 1
        self._digest.update(_canonical(value).encode() + b"\n")
        return value

    def run(self, name: str, op, *args) -> None:
        """Run one operation; it returns False or raises when a check fails."""
        start = time.perf_counter()
        try:
            ok = op(self, *args)
            detail = "output check failed"
        except Exception as exc:  # a failed operation is counted, not fatal
            ok = False
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = (f"{type(exc).__name__}: {exc} "
                      f"({os.path.basename(where.filename)}:{where.lineno})")
        self.latencies_ms.append((time.perf_counter() - start) * 1e3)
        self.ops += 1
        if not ok:
            self.fail(f"{name}: {detail}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def take_digest(self) -> str:
        """Digest of the outputs since the last call, then start afresh."""
        digest = self._digest.hexdigest()
        self._digest = hashlib.sha256()
        return digest


def _canonical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    return str(value)


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, bytes):
        return value + b"!"
    return f"{value}!"


def _dyadic(rng: random.Random) -> Fraction:
    """Nonzero p / 2^k with |p| <= 8 and k <= 3, as the library's tests use."""
    p = rng.choice([x for x in range(-8, 9) if x])
    return Fraction(p, 1 << rng.randrange(4))


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# stage: cold construction and derived metric structure


class Stage:
    """Build two stages cold and derive their metric structure.

    Builds go through ``build_cached`` and each round is the first use of
    its specs in a fresh interpreter, so a round never runs twice in one
    process (``cold_rounds``).  Point and edge counts are known from the
    construction: a successor stage at height k has (2n)^k finest edges,
    and the omega limit of width 3 has (2n) + (2n)^2 + (2n)^3.
    """

    name = "stage"
    cold_rounds = True
    nominal_round_s = 24.0
    # (alpha text, branches, points, finest edges)
    STAGES = (("w", 4, 334, 8 + 64 + 512), ("4", 3, 779, 6 ** 4))
    SUMMING_POINTS = 237        # bottom half of the limit-stage cover
    VECTORS = 10
    SUPPORT = 8

    def inputs(self, seed: int, round_no: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}/{round_no}")
        vectors = [[(p, _dyadic(rng))
                    for p in rng.sample(range(self.SUMMING_POINTS),
                                        self.SUPPORT)]
                   for _ in range(self.VECTORS)]
        checked_pairs = [(rng.randrange(779), rng.randrange(779))
                         for _ in range(64)]
        return {"vectors": vectors, "pairs": checked_pairs}

    def setup(self, dl, dio, workdir: str) -> dict:
        return {"dl": dl, "dio": dio, "workdir": workdir}

    def run_round(self, ctx: dict, inputs: dict, rec: Recorder) -> None:
        dl = ctx["dl"]
        for alpha, branches, points, edges in self.STAGES:
            spec = dl.DiamondSpec(dl.parse_ordinal(alpha), branches, 3)
            st = {"spec": spec, "points": points, "edges": edges,
                  "path": os.path.join(ctx["workdir"], f"space-{alpha}.txt")}
            tag = f"{alpha},{branches}"
            for name, op in (("build", _stage_build),
                             ("integer_scaled", _stage_integer_scaled),
                             ("validate_metric", _stage_validate),
                             ("finest_edges", _stage_edges),
                             ("closure", _stage_closure),
                             ("write_space", _stage_write),
                             ("read_space", _stage_read)):
                rec.run(f"{tag} {name}", op, ctx, st, inputs)
            if alpha == "w":
                for name, op in (("build_cover", _stage_cover),
                                 ("cover_partition", _stage_partition),
                                 ("summing_metric", _stage_summing),
                                 ("equivalence_constants", _stage_constants)):
                    rec.run(f"{tag} {name}", op, ctx, st, inputs)
                for k, entries in enumerate(inputs["vectors"]):
                    rec.run(f"{tag} ell1 vector {k}", _stage_ell1,
                            ctx, st, entries)
                    rec.run(f"{tag} projection vector {k}",
                            _stage_projection, ctx, st, entries)


def _stage_build(rec, ctx, st, inputs) -> bool:
    dl = ctx["dl"]
    st["space"], st["lm"] = dl.build_cached(st["spec"])
    n = rec.out(len(st["space"]))
    return n == st["points"] == dl.estimate_points(st["spec"])


def _stage_integer_scaled(rec, ctx, st, inputs) -> bool:
    space = st["space"]
    n = len(space)
    mat, scale = space.integer_scaled()
    rec.out(scale)
    rec.out(hashlib.sha256(mat.tobytes()).hexdigest())
    if mat.shape != (n, n) or scale <= 0:
        return False
    return all(rec.out(Fraction(int(mat[i % n, j % n]), scale))
               == space.distance(i % n, j % n) for i, j in inputs["pairs"])


def _stage_validate(rec, ctx, st, inputs) -> bool:
    st["space"].validate_metric()
    return rec.out(True)


def _stage_edges(rec, ctx, st, inputs) -> bool:
    st["edges_found"] = edges = ctx["dl"].finest_edges(st["space"])
    rec.out(hashlib.sha256(repr(edges).encode()).hexdigest())
    return (rec.out(len(edges)) == st["edges"]
            and all(i < j for i, j in edges))


def _stage_closure(rec, ctx, st, inputs) -> bool:
    closure = ctx["dl"].shortest_path_closure(st["space"], st["edges_found"])
    stored = st["space"].dist_matrix
    return rec.out(all(list(row) == c for row, c in zip(stored, closure)))


def _stage_write(rec, ctx, st, inputs) -> bool:
    ctx["dio"].write_space(st["path"], st["space"], st["lm"], st["spec"])
    data = rec.out(_read(st["path"]))
    return data.startswith(b"diamondlab space 1\n") and data.endswith(b"end\n")


def _stage_read(rec, ctx, st, inputs) -> bool:
    space, lm, spec = ctx["dio"].read_space(st["path"])
    os.remove(st["path"])
    same = (space.labels == st["space"].labels
            and space.base_point == st["space"].base_point
            and space.dist_matrix == st["space"].dist_matrix
            and spec == st["spec"])
    return rec.out(same)


def _stage_cover(rec, ctx, st, inputs) -> bool:
    st["cover"] = cover = ctx["dl"].build_cover(st["space"], st["lm"])
    covered = set(cover.bottom_half) | set(cover.top_half)
    minimum = rec.out(cover.minimum)
    rec.out(len(cover.bottom_half))
    rec.out(len(cover.top_half))
    return covered == set(range(len(st["space"]))) and minimum >= HALF


def _stage_partition(rec, ctx, st, inputs) -> bool:
    lm = st["lm"]
    sub, _, part = ctx["dl"].cover_partition(st["space"], lm,
                                             st["cover"].bottom_half,
                                             lm.bottom)
    st["sub"], st["partition"] = sub, part
    sizes = [rec.out(len(s)) for s in part.summands]
    return (rec.out(len(sub)) == Stage.SUMMING_POINTS
            and sum(sizes) == len(sub) - 1)


def _stage_summing(rec, ctx, st, inputs) -> bool:
    sub = st["sub"]
    st["summing"] = summing = ctx["dl"].summing_metric(sub, st["partition"])
    rec.out(sum((sum(row, Fraction(0)) for row in summing.dist_matrix),
                Fraction(0)))
    return all(a <= b for ra, rb in zip(sub.dist_matrix, summing.dist_matrix)
               for a, b in zip(ra, rb))


def _stage_constants(rec, ctx, st, inputs) -> bool:
    eq = ctx["dl"].equivalence_constants(st["sub"], st["summing"])
    low, high = rec.out(eq.c_low), rec.out(eq.c_high)
    return Fraction(1, 3) <= low <= high <= 1


def _stage_ell1(rec, ctx, st, entries) -> bool:
    dl = ctx["dl"]
    vec = dl.FreeVector(st["summing"], entries)
    report = dl.ell1_additivity_check(st["summing"], st["partition"], vec)
    total = rec.out(report.total)
    parts = [rec.out(p) for p in report.parts]
    return rec.out(report.passed) and total == sum(parts, Fraction(0))


def _stage_projection(rec, ctx, st, entries) -> bool:
    dl = ctx["dl"]
    vec = dl.FreeVector(st["summing"], entries)
    report = dl.projection_identity_check(st["partition"], vec)
    exact = True
    for _, total, lhs, rhs in report.rows:
        exact &= rec.out(total) == rec.out(lhs) + rec.out(rhs)
    return rec.out(report.passed) and exact


# ---------------------------------------------------------------------------
# transport: norms, certificates and pole gluing on one stage


class Transport:
    """Seeded norm requests and gluing operations on the alpha=3, n=4 stage.

    A round of 62 requests, in seeded order, has exactly: 36 fresh
    ``norm_value`` requests with the support counts of ``NORM_SUPPORTS``
    (support 2 means molecules and point differences); 12 fresh
    ``free_norm`` + ``verify_certificate`` requests (a quarter of the
    fresh ones); 12 requests repeating an earlier vector of the round
    (about one in five); and 2 pole-gluing operations.  The fixed counts
    put as many requests below the support-8 norms as above them, so the
    median falls in the middle of that class and p90 inside the
    certified requests, whichever vectors a seed draws.
    """

    name = "transport"
    cold_rounds = False
    nominal_round_s = 6.5
    POINTS = 294
    PRED_POINTS = 38
    NORM_SUPPORTS = {2: 6, 4: 6, 8: 14, 16: 6, 32: 3, 64: 1}
    CERT_SUPPORTS = (2, 4, 8, 16) * 3
    REPEATS = 12
    GLUES = 2

    def inputs(self, seed: int, round_no: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}/{round_no}")
        fresh = []
        for support, count in self.NORM_SUPPORTS.items():
            for k in range(count):
                fresh.append(("norm", self._vector(rng, support, k % 2 == 0)))
        for k, support in enumerate(self.CERT_SUPPORTS):
            fresh.append(("cert", self._vector(rng, support, k % 2 == 0)))
        fresh += [("glue", self._glue(rng)) for _ in range(self.GLUES)]
        rng.shuffle(fresh)
        requests = list(fresh)
        for _ in range(self.REPEATS):
            pos = rng.randrange(1, len(requests) + 1)
            earlier = [r for r in requests[:pos] if r[0] != "glue"]
            if not earlier:
                pos, earlier = len(requests), [r for r in requests
                                               if r[0] != "glue"]
            requests.insert(pos, ("repeat", rng.choice(earlier)[1]))
        return {"requests": requests}

    def _vector(self, rng: random.Random, support: int,
                balanced: bool) -> dict:
        points = rng.sample(range(self.POINTS), support)
        if support == 2:
            # Molecules and unnormalized point differences.
            kind = "molecule" if balanced else "difference"
            return {"kind": kind, "points": points}
        coeffs = [_dyadic(rng) for _ in points]
        if balanced:
            while sum(coeffs[:-1]) == 0:
                coeffs[0] = _dyadic(rng)
            coeffs[-1] = -sum(coeffs[:-1])
        return {"kind": "general", "entries": list(zip(points, coeffs))}

    def _glue(self, rng: random.Random) -> dict:
        minus, plus = rng.sample((2, 3, 4), 2)

        def unit_lipschitz():
            width = rng.randrange(2, 6)
            while True:
                values = [Fraction(rng.randrange(-8, 9), 1 << rng.randrange(4))
                          for _ in range(width)]
                if len(set(values)) > 1:
                    break
            return list(zip(rng.sample(range(self.PRED_POINTS), width),
                            values))

        def copy_vector():
            while True:
                coeffs = [_dyadic(rng), _dyadic(rng)]
                if sum(coeffs):
                    break
            return list(zip(rng.sample(range(self.PRED_POINTS), 3),
                            coeffs + [-sum(coeffs)]))

        return {"plus": plus, "minus": minus,
                "f_plus": unit_lipschitz(), "f_minus": unit_lipschitz(),
                "upper": copy_vector(), "lower": copy_vector()}

    def setup(self, dl, dio, workdir: str) -> dict:
        space, lm = dl.build_cached(dl.DiamondSpec(3, 4))
        if len(space) != self.POINTS or len(lm.predecessor[0]) != self.PRED_POINTS:
            raise RuntimeError("the alpha=3, n=4 stage has an unexpected size")
        return {"dl": dl, "space": space, "lm": lm}

    def run_round(self, ctx: dict, inputs: dict, rec: Recorder) -> None:
        seen: dict[int, Fraction] = {}
        for k, (kind, arg) in enumerate(inputs["requests"]):
            op = {"norm": _norm_request, "cert": _cert_request,
                  "repeat": _repeat_request, "glue": _glue_op}[kind]
            rec.run(f"request {k} {kind}", op, ctx, arg, seen)


def _vector_of(ctx: dict, spec: dict):
    dl, space = ctx["dl"], ctx["space"]
    if spec["kind"] == "molecule":
        return dl.molecule(space, *spec["points"])
    if spec["kind"] == "difference":
        x, y = spec["points"]
        return dl.point_mass(space, x) - dl.point_mass(space, y)
    return dl.FreeVector(space, spec["entries"])


def _expected_norm(ctx: dict, spec: dict):
    """The exact norm known without a solver, or None."""
    if spec["kind"] == "molecule":
        return Fraction(1)
    if spec["kind"] == "difference":
        return ctx["space"].distance(*spec["points"])
    return None


def _norm_bounds_hold(ctx: dict, vec, value: Fraction) -> bool:
    """|<v, d(., base)>| <= norm <= sum |c| d(x, base), both exact."""
    space = ctx["space"]
    base = space.base_point
    weighted = [(c, space.distance(i, base)) for i, c in vec.entries]
    lower = abs(sum((c * d for c, d in weighted), Fraction(0)))
    upper = sum((abs(c) * d for c, d in weighted), Fraction(0))
    return lower <= value <= upper


def _norm_request(rec, ctx, spec, seen) -> bool:
    vec = _vector_of(ctx, spec)
    value = rec.out(ctx["dl"].norm_value(vec))
    seen[id(spec)] = value
    expected = _expected_norm(ctx, spec)
    return (value == expected if expected is not None
            else _norm_bounds_hold(ctx, vec, value))


def _cert_request(rec, ctx, spec, seen) -> bool:
    dl = ctx["dl"]
    vec = _vector_of(ctx, spec)
    value, cert = dl.free_norm(vec)
    value = rec.out(value)
    seen[id(spec)] = value
    verified = rec.out(dl.verify_certificate(cert))
    expected = _expected_norm(ctx, spec)
    return (verified is True and value == cert.value
            and (value == expected if expected is not None
                 else _norm_bounds_hold(ctx, vec, value)))


def _repeat_request(rec, ctx, spec, seen) -> bool:
    value = rec.out(ctx["dl"].norm_value(_vector_of(ctx, spec)))
    return value == seen[id(spec)]


def _glue_op(rec, ctx, spec, seen) -> bool:
    """One pole-gluing trial, as the suite's ``pole-gluing`` check runs it."""
    dl, space, lm = ctx["dl"], ctx["space"], ctx["lm"]
    pred_space, pred_lm = lm.predecessor
    one = Fraction(1)
    plus, minus = spec["plus"], spec["minus"]

    def unit(entries):
        partial = dl.LipschitzFunction(pred_space, entries)
        partial = partial.scale(one / dl.lip_constant(partial))
        total = dl.mcshane_extend(partial, one)
        return total.shifted_to_vanish(pred_lm.ell)

    piece_plus = dl.pull_to_copy(space, lm, "+", plus, unit(spec["f_plus"]))
    piece_minus = dl.pull_to_copy(space, lm, "-", minus, unit(spec["f_minus"]))
    glued = dl.glue_poles(space, lm, plus, piece_plus, minus, piece_minus)
    at_base = rec.out(glued.value(lm.ell))
    constant = rec.out(dl.lip_constant(glued))

    plus_inj = lm.subcopies[("+", plus)]
    minus_inj = lm.subcopies[("-", minus)]
    upper = dl.FreeVector(space, [(plus_inj[p], c) for p, c in spec["upper"]])
    lower = dl.FreeVector(space, [(minus_inj[p], c) for p, c in spec["lower"]])
    n_upper = rec.out(dl.norm_value(upper))
    n_lower = rec.out(dl.norm_value(lower))
    average = (upper + lower) * HALF
    n_average = rec.out(dl.norm_value(average))

    dual_plus = dl.free_norm(upper)[1].potential
    dual_minus = dl.free_norm(lower)[1].potential
    origin_plus = plus_inj[pred_lm.ell]
    origin_minus = minus_inj[pred_lm.ell]
    witness = dl.glue_poles(
        space, lm, plus,
        dl.LipschitzFunction(space, [(p, dual_plus.value(p)
                                      - dual_plus.value(origin_plus))
                                     for p in plus_inj]),
        minus,
        dl.LipschitzFunction(space, [(p, dual_minus.value(p)
                                      - dual_minus.value(origin_minus))
                                     for p in minus_inj]))
    pairing = rec.out(average.pair(witness))
    return (at_base == 0 and constant == 1
            and n_average == (n_upper + n_lower) * HALF
            and pairing == n_average)


# ---------------------------------------------------------------------------
# game: derivation games, verification, oracle, mutants and transcripts


class Game:
    """Certified derivation games on the alpha=3 and alpha=4, n=3 stages.

    One operation is one game: prove, verify, run the box-derivation
    oracle at full depth, plant every mutation kind and expect each to be
    rejected, and round-trip the transcript file.  A round plays every
    adversary kind with ``SEEDS_PER_KIND`` fresh adversary seeds per
    stage, in seeded order.  The uneven seed counts keep the median
    inside the depth-3 games and p90 inside the depth-4 ones.
    """

    name = "game"
    cold_rounds = False
    nominal_round_s = 3.5
    # (alpha, branches, points, depth, seeds per adversary kind)
    STAGES = ((3, 3, 131, 3, 4), (4, 3, 779, 4, 2))
    KINDS = ("distance_functions", "random_lipschitz", "adaptive_dual")
    ETA = Fraction(1, 10)
    FAMILY_SIZE = 3

    def inputs(self, seed: int, round_no: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}/{round_no}")
        games = [{"stage": k, "kind": kind,
                  "seed": rng.randrange(1 << 32),
                  "mutation_seed": rng.randrange(1 << 32)}
                 for k, (*_, per_kind) in enumerate(self.STAGES)
                 for kind in self.KINDS for _ in range(per_kind)]
        rng.shuffle(games)
        return {"games": games}

    def setup(self, dl, dio, workdir: str) -> dict:
        stages = []
        for alpha, branches, points, depth, _ in self.STAGES:
            spec = dl.DiamondSpec(alpha, branches)
            space, lm = dl.build_cached(spec)
            if len(space) != points:
                raise RuntimeError(f"stage {spec} has {len(space)} points, "
                                   f"expected {points}")
            stages.append({"spec": spec, "space": space, "lm": lm,
                           "depth": depth})
        return {"dl": dl, "dio": dio, "stages": stages,
                "path": os.path.join(workdir, "transcript.txt")}

    def run_round(self, ctx: dict, inputs: dict, rec: Recorder) -> None:
        for k, game in enumerate(inputs["games"]):
            rec.run(f"game {k} {game['kind']} stage {game['stage']}",
                    _play, ctx, game, self)


def _play(rec, ctx, game, workload) -> bool:
    dl, dio = ctx["dl"], ctx["dio"]
    st = ctx["stages"][game["stage"]]
    space, lm, depth = st["space"], st["lm"], st["depth"]
    adv = dl.AdversaryConfig(game["kind"], workload.FAMILY_SIZE,
                             workload.ETA, game["seed"])
    transcript = dl.prover_certify(space, lm, depth, adv)
    report = dl.verify_transcript(space, transcript)
    passed = rec.out(report.passed)
    rec.out(len(report.entries))

    family = dl.adversary_family(space, lm, adv)
    survivors = dl.relative_derivation_oracle(
        space, dl.collect_vectors(transcript), family, adv.eta,
        transcript.root.epsilon, depth)
    rec.out(len(survivors))
    survives = rec.out(transcript.root.target in survivors)

    sampler = dl.Sampler(game["mutation_seed"])
    caught = 0
    for kind in dl.MUTATION_KINDS:
        mutant = dl.mutate_transcript(transcript, kind, sampler)
        caught += not rec.out(dl.verify_transcript(space, mutant).passed)
    rec.mutants += len(dl.MUTATION_KINDS)
    rec.mutants_caught += caught

    doc = dio.TranscriptDocument(transcript).with_report(report)
    dio.write_transcript(ctx["path"], doc, st["spec"])
    rec.out(_read(ctx["path"]))
    loaded, _, _ = dio.read_transcript(ctx["path"], space, lm)
    os.remove(ctx["path"])
    round_trip = rec.out(loaded.transcript.root == transcript.root
                         and loaded.transcript.adversary == adv
                         and loaded.statuses == doc.statuses)
    return (passed is True and survives is True and round_trip is True
            and caught == len(dl.MUTATION_KINDS))


WORKLOADS = {w.name: w for w in (Stage(), Transport(), Game())}
