"""A finite two-player game certifying slow weak-topology derivation.

The adversary presents weak neighborhoods of a target vector: finitely
many Lipschitz functionals with a tolerance ``eta``.  The prover answers
each neighborhood with a unit-ball vector inside it that sits at norm
distance at least ``epsilon`` from the target, and certifies recursively
that both the response and the target keep surviving one level down.  A
verified depth-k transcript is a machine-checkable witness that, against
the presented functional families, the target cannot be separated from
far company in fewer than k rounds of the box-derivation procedure in
:func:`relative_derivation_oracle`.

Transcripts are finite and relative: they quantify over the posed
families only, never over the full weak topology, so they give sound
lower bounds and make no completeness claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Iterable, Optional, Sequence

from .errors import InsufficientBranchingError
from .diamond import DiamondLandmarks
from .freespace import FreeVector, free_norm, molecule, norm_value
from .lipschitz import (LipschitzFunction, distance_functional, lip_constant,
                        mcshane_extend)
from .metric import MetricSpace, exact
from .sampling import Sampler

__all__ = [
    "WeakNeighborhood",
    "Move",
    "GameNode",
    "GameTranscript",
    "AdversaryConfig",
    "ADVERSARY_KINDS",
    "adversary_family",
    "spine_points",
    "prover_escape",
    "prover_certify",
    "midpoint_lift",
    "verify_transcript",
    "VerificationReport",
    "NodeCheck",
    "relative_derivation_oracle",
    "collect_vectors",
    "walk_nodes",
    "mutate_transcript",
    "MUTATION_KINDS",
]

_HALF = Fraction(1, 2)
_ONE = Fraction(1)
# Families a space keeps, least recently used first out: more than a
# suite check or a benchmark round reads (at most 18), at 40-50 KB each
# on 779 points.
_FAMILIES = 32


# ---------------------------------------------------------------------------
# neighborhoods


class WeakNeighborhood:
    """Vectors whose pairings with a functional family stay near a center.

    Membership is the closed condition |pair(f, v - center)| <= eta for
    every functional f of the family.  Functionals must be total and
    vanish at the base point so the pairings are well defined on the
    whole free space.  Eta must be an exact positive rational.
    """

    __slots__ = ("_functionals", "_center", "_eta", "_center_pairs")

    def __init__(self, functionals: Sequence[LipschitzFunction],
                 center: FreeVector, eta: Fraction):
        functionals = tuple(functionals)
        if not functionals:
            raise ValueError("a weak neighborhood needs at least one "
                             "functional")
        space = center.space
        base = space.base_point
        for f in functionals:
            if f.space is not space:
                raise ValueError("functional lives over a different space")
            if not f.is_total:
                raise ValueError("functionals must be total")
            # A total function's numerators are in point order.
            if f.integer_scaled()[1][base]:
                raise ValueError("functionals must vanish at the base point")
        eta = exact(eta)
        if eta <= 0:
            raise ValueError("eta must be positive")
        self._functionals = functionals
        self._center = center
        self._eta = eta
        self._center_pairs: Optional[tuple[tuple[int, int], ...]] = None

    @property
    def functionals(self) -> tuple[LipschitzFunction, ...]:
        return self._functionals

    @property
    def center(self) -> FreeVector:
        return self._center

    @property
    def eta(self) -> Fraction:
        return self._eta

    @property
    def space(self) -> MetricSpace:
        return self._center.space

    def contains(self, vec: FreeVector) -> bool:
        # Pairing is linear, so pair(f, vec - center) is the difference of
        # the two pairings; the center's are formed on first use.  With
        # pairings a/b and c/d and eta = p/q (positive denominators), the
        # test |a/b - c/d| <= p/q is |a*d - c*b| * q <= p * b * d.
        if vec.space is not self.space:
            raise ValueError("vector lives over a different space")
        if self._center_pairs is None:
            self._center_pairs = tuple(self._center._pairing(f)
                                       for f in self._functionals)
        p, q = self._eta.numerator, self._eta.denominator
        for f, (c, d) in zip(self._functionals, self._center_pairs):
            a, b = vec._pairing(f)
            if abs(a * d - c * b) * q > p * b * d:
                return False
        return True

    def recentered(self, center: FreeVector) -> "WeakNeighborhood":
        return WeakNeighborhood(self._functionals, center, self._eta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeakNeighborhood):
            return NotImplemented
        return (self._functionals == other._functionals
                and self._center == other._center
                and self._eta == other._eta)

    def __repr__(self) -> str:
        return (f"WeakNeighborhood({len(self._functionals)} functionals, "
                f"eta={self._eta})")


# ---------------------------------------------------------------------------
# transcripts


@dataclass(frozen=True)
class Move:
    """One posed neighborhood with the prover's answer and follow-ups."""

    neighborhood: WeakNeighborhood
    response: FreeVector
    response_subtree: "GameNode"
    target_subtree: "GameNode"


@dataclass(frozen=True)
class GameNode:
    """Claim that ``target`` survives ``depth`` rounds at gap ``epsilon``."""

    target: FreeVector
    depth: int
    epsilon: Fraction
    moves: tuple[Move, ...] = ()

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.depth == 0 and self.moves:
            raise ValueError("depth-0 nodes take no moves")


@dataclass(frozen=True)
class GameTranscript:
    space: MetricSpace
    root: GameNode
    adversary: Optional["AdversaryConfig"] = None


def walk_nodes(node: GameNode, path: str = "root"):
    """Every (path, node), parents first; move k of the node at ``p``
    leads to ``p.mk.r`` (response follow-up) and ``p.mk.t`` (target)."""
    yield path, node
    for k, move in enumerate(node.moves):
        yield from walk_nodes(move.response_subtree, f"{path}.m{k}.r")
        yield from walk_nodes(move.target_subtree, f"{path}.m{k}.t")


def collect_vectors(tree) -> tuple[FreeVector, ...]:
    """All targets and responses in first-visit order, deduplicated."""
    root = tree.root if isinstance(tree, GameTranscript) else tree
    seen: dict[FreeVector, None] = {}
    for _, node in walk_nodes(root):
        seen.setdefault(node.target)
        for move in node.moves:
            seen.setdefault(move.response)
    return tuple(seen)


# ---------------------------------------------------------------------------
# adversaries

ADVERSARY_KINDS = ("distance_functions", "random_lipschitz", "adaptive_dual")


@dataclass(frozen=True)
class AdversaryConfig:
    """Seeded recipe for the functional family a game is played against."""

    kind: str
    count: int
    eta: Fraction
    seed: int

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")


def spine_points(space: MetricSpace,
                 landmarks: DiamondLandmarks) -> tuple[int, ...]:
    """Points whose distances are blind to swapping branches >= 2.

    The poles plus the entire branch-1 substructure (first copy pair at
    successor stages, first summand at limit stages).  Functionals built
    from these points evaluate identically on all higher branch
    midpoints, at every recursion level, which keeps every escape pair
    available to the prover.
    """
    pts = {landmarks.top, landmarks.bottom}
    if landmarks.summands:
        pts.update(landmarks.summands[0].injection)
    elif landmarks.subcopies:
        pts.update(landmarks.subcopies[("+", 1)])
        pts.update(landmarks.subcopies[("-", 1)])
    else:
        pts.add(landmarks.ell)
    return tuple(sorted(pts))


def adversary_family(space: MetricSpace, landmarks: DiamondLandmarks,
                     config: AdversaryConfig) -> tuple[LipschitzFunction, ...]:
    """Build the fixed functional family for one game.

    The family is drawn once, before play, and every node of the
    transcript is challenged with it; this uniformity is what makes the
    box-derivation soundness argument go through.  The adaptive kind
    harvests dual potentials from norm computations of probe molecules.
    A family is built once per landmarks and configuration and kept on
    the space beside its solves, which
    :func:`~diamondlab.freespace.clear_norm_caches` empties with it; the
    space keeps its ``_FAMILIES`` most recently used families.
    """
    cache, key = space._family_cache, (landmarks, config)
    family = cache.pop(key, None)
    if family is None:
        family = _draw_family(space, landmarks, config)
    cache[key] = family
    if len(cache) > _FAMILIES:
        del cache[next(iter(cache))]
    return family


def _draw_family(space: MetricSpace, landmarks: DiamondLandmarks,
                 config: AdversaryConfig) -> tuple[LipschitzFunction, ...]:
    sampler = Sampler(config.seed)
    spine = spine_points(space, landmarks)
    family: list[LipschitzFunction] = []
    if config.kind == "distance_functions":
        for _ in range(config.count):
            family.append(distance_functional(space, sampler.choice(spine)))
    elif config.kind == "random_lipschitz":
        for _ in range(config.count):
            width = 2 + sampler.below(3)
            anchors = sampler.sample(spine, min(width, len(spine)))
            partial = LipschitzFunction(
                space, [(p, sampler.fraction()) for p in anchors])
            constant = lip_constant(partial)
            if constant > 1:
                partial = partial.scale(_ONE / constant)
            total = mcshane_extend(partial)
            family.append(total.shifted_to_vanish(space.base_point))
    else:
        probe = molecule(space, landmarks.top, landmarks.bottom)
        family.append(free_norm(probe)[1].potential)
        while len(family) < config.count:
            x, y = sampler.sample(spine, 2)
            family.append(free_norm(molecule(space, x, y))[1].potential)
    return tuple(family)


# ---------------------------------------------------------------------------
# prover


def _pole_molecule(space: MetricSpace, landmarks: DiamondLandmarks,
                   place: Sequence[int]) -> FreeVector:
    return molecule(space, place[landmarks.top], place[landmarks.bottom])


def _escape_pair(space: MetricSpace, landmarks: DiamondLandmarks,
                 place: Sequence[int], neighborhood: WeakNeighborhood
                 ) -> tuple[int, int, FreeVector]:
    top, bottom = place[landmarks.top], place[landmarks.bottom]
    mids = [place[m] for m in landmarks.mids]
    n = len(mids)
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            gamma = (molecule(space, top, mids[j - 1])
                     + molecule(space, mids[i - 1], bottom)) * _HALF
            if neighborhood.contains(gamma):
                return i, j, gamma
    raise InsufficientBranchingError(
        f"no branch pair 2 <= i < j <= {n} lands in the posed "
        f"neighborhood; rebuild with more branches",
        branches=n, retry_hint=n + 1)


def prover_escape(space: MetricSpace, landmarks: DiamondLandmarks,
                  neighborhood: WeakNeighborhood) -> FreeVector:
    """Half-sum of two single-branch molecules lying in the neighborhood.

    The neighborhood must be centered at the pole molecule.  Candidates
    exclude branch 1, which carries the base point; the lexicographically
    first qualifying pair (i, j) wins, for determinism.  The returned
    vector differs from the center by half a midpoint-to-midpoint jump,
    so its separation is exactly 1 at every stage.
    """
    place = range(len(space))
    if neighborhood.center != _pole_molecule(space, landmarks, place):
        raise ValueError("neighborhood is not centered at the pole molecule")
    return _escape_pair(space, landmarks, place, neighborhood)[2]


def _combine(a: GameNode, b: GameNode, memo: dict) -> GameNode:
    """The average of two certificates of one shape, answering the same
    challenges.  ``memo`` maps the identities of a pair already averaged
    to the pair and its average, so a subtree shared down a tower is
    averaged once; it holds the pair, so no identity is reused.
    """
    hit = memo.get((id(a), id(b)))
    if hit is not None:
        return hit[2]
    if a.depth != b.depth:
        raise ValueError("mismatched depths")
    if a.epsilon != b.epsilon:
        raise ValueError("mismatched epsilons")
    if len(a.moves) != len(b.moves):
        raise ValueError("mismatched move counts")
    target = (a.target + b.target) * _HALF
    moves = []
    for ma, mb in zip(a.moves, b.moves):
        if (ma.neighborhood.functionals != mb.neighborhood.functionals
                or ma.neighborhood.eta != mb.neighborhood.eta):
            raise ValueError("paired moves answer different challenges")
        response = (ma.response + mb.response) * _HALF
        moves.append(Move(
            ma.neighborhood.recentered(target),
            response,
            _combine(ma.response_subtree, mb.response_subtree, memo),
            _combine(ma.target_subtree, mb.target_subtree, memo)))
    node = GameNode(target, a.depth, a.epsilon, tuple(moves))
    memo[id(a), id(b)] = (a, b, node)
    return node


def midpoint_lift(node: GameNode, shift: FreeVector) -> GameNode:
    """Certificate for the midpoint of the target with a unit-ball vector.

    Every vector v in the tree becomes (v + shift) / 2 and every epsilon
    is halved; neighborhoods are recentered at the moved targets.
    Pairings of moved differences are exactly half the originals, so
    membership survives with the original eta, and separations halve.
    """
    if norm_value(shift) > 1:
        raise ValueError("the shift vector must lie in the unit ball")
    return _halfway(node, shift)


def _halfway(node: GameNode, shift: FreeVector) -> GameNode:
    target = (node.target + shift) * _HALF
    moves = tuple(Move(m.neighborhood.recentered(target),
                       (m.response + shift) * _HALF,
                       _halfway(m.response_subtree, shift),
                       _halfway(m.target_subtree, shift))
                  for m in node.moves)
    return GameNode(target, node.depth, node.epsilon * _HALF, moves)


def _stage_height(landmarks: DiamondLandmarks) -> Optional[int]:
    height = 0
    current = landmarks
    while True:
        if current.summands:
            return None
        if not current.subcopies:
            return height + 1
        height += 1
        current = current.predecessor[1]


def _certify_pole(space: MetricSpace, landmarks: DiamondLandmarks,
                  place: Sequence[int], depth: int,
                  family: tuple[LipschitzFunction, ...],
                  eta: Fraction, epsilon: Fraction,
                  memo: dict) -> list[GameNode]:
    """Pole-molecule certificates for depths 0 to ``depth`` of the
    sub-stage described by ``landmarks``, built in ``space`` at the points
    ``place`` (``place[x]`` is the stage index of sub-stage point x):
    element k's move has element k - 1 as target follow-up, and as
    response the leaf at the escape vector (k = 1) or the average of
    element k - 1 of the towers placed in the escape vector's two copies,
    whose placements compose ``place`` with the copy injections.
    ``memo`` is the averaging memo of :func:`_combine`, shared by the
    whole proof."""
    target = _pole_molecule(space, landmarks, place)
    tower = [GameNode(target, 0, epsilon, ())]
    if depth == 0:
        return tower
    hood = WeakNeighborhood(family, target, eta)
    i, j, gamma = _escape_pair(space, landmarks, place, hood)
    responses = [GameNode(gamma, 0, epsilon, ())]
    if depth >= 2:
        pred_lm = landmarks.predecessor[1]
        plus, minus = (
            _certify_pole(space, pred_lm,
                          [place[x] for x in landmarks.subcopies[copy]],
                          depth - 1, family, eta, epsilon, memo)[1:]
            for copy in (("+", j), ("-", i)))
        responses += (_combine(a, b, memo) for a, b in zip(plus, minus))
    for k, response_node in enumerate(responses, start=1):
        move = Move(hood, gamma, response_node, tower[k - 1])
        tower.append(GameNode(target, k, epsilon, (move,)))
    return tower


def prover_certify(space: MetricSpace, landmarks: DiamondLandmarks,
                   depth: int, adversary: AdversaryConfig,
                   epsilon: Fraction = _ONE) -> GameTranscript:
    """Play the pole-molecule game to the requested depth.

    The stage must be a finite successor tower tall enough for the
    depth; limit stages are not playable directly (certify a summand
    instead).  Each level escapes into two fresh branch copies, whose
    half-molecules restate the pole molecule one stage down.  Every
    level is built in this stage: a copy's certificate is formed at the
    points its composed injections place it on, tested against this
    stage's family, and the two copies' certificates are averaged.
    Deterministic given the adversary seed.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    epsilon = exact(epsilon)
    height = _stage_height(landmarks)
    if depth > 0:
        if height is None:
            raise ValueError("limit stages are not playable; certify a "
                             "summand stage instead")
        if depth > height:
            raise ValueError(f"stage supports depth at most {height}, "
                             f"requested {depth}")
    family = adversary_family(space, landmarks, adversary) if depth else ()
    root = _certify_pole(space, landmarks, range(len(space)), depth, family,
                         exact(adversary.eta), epsilon, {})[-1]
    return GameTranscript(space, root, adversary)


# ---------------------------------------------------------------------------
# verifier


@dataclass(frozen=True)
class NodeCheck:
    path: str
    ok: bool
    condition: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple[NodeCheck, ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> tuple[NodeCheck, ...]:
        return tuple(e for e in self.entries if not e.ok)


def verify_transcript(space: MetricSpace, tree) -> VerificationReport:
    """Recheck every invariant of a transcript, node by node.

    Independent of how the transcript was produced: only norms and
    pairings are consulted.  Each node contributes one entry; a failing
    entry names the first violated condition on that node.
    """
    root = tree.root if isinstance(tree, GameTranscript) else tree
    if isinstance(tree, GameTranscript) and tree.space is not space:
        raise ValueError("transcript lives over a different space")
    entries: list[NodeCheck] = []

    def fail(path: str, condition: str, detail: str) -> None:
        entries.append(NodeCheck(path, False, condition, detail))

    def walk(node: GameNode, path: str) -> None:
        if node.target.space is not space:
            fail(path, "space", "target lives over a different space")
            return
        tnorm = norm_value(node.target)
        if tnorm > 1:
            fail(path, "unit-ball", f"target norm {tnorm} exceeds 1")
            return
        if node.depth == 0:
            if node.moves:
                fail(path, "leaf-moves", "depth-0 node carries moves")
                return
            entries.append(NodeCheck(path, True, "", ""))
            return
        if not node.moves:
            fail(path, "no-moves",
                 f"depth-{node.depth} node answers no neighborhood")
            return
        for k, move in enumerate(node.moves):
            hood = move.neighborhood
            if hood.center != node.target:
                fail(path, "neighborhood-center",
                     f"move {k} is not centered at the node target")
                return
            if not hood.contains(move.response):
                fail(path, "neighborhood-membership",
                     f"move {k} response escapes the posed neighborhood")
                return
            rnorm = norm_value(move.response)
            if rnorm > 1:
                fail(path, "unit-ball",
                     f"move {k} response norm {rnorm} exceeds 1")
                return
            sep = norm_value(move.response - node.target)
            if sep < node.epsilon:
                fail(path, "separation",
                     f"move {k} separation {sep} below {node.epsilon}")
                return
            for sub, name in ((move.response_subtree, "response"),
                              (move.target_subtree, "target")):
                if sub.depth != node.depth - 1:
                    fail(path, "subtree-depth",
                         f"move {k} {name} subtree depth {sub.depth}, "
                         f"expected {node.depth - 1}")
                    return
                if sub.epsilon != node.epsilon:
                    fail(path, "subtree-epsilon",
                         f"move {k} {name} subtree changes epsilon")
                    return
            if move.response_subtree.target != move.response:
                fail(path, "subtree-response-target",
                     f"move {k} follow-up does not certify the response")
                return
            if move.target_subtree.target != node.target:
                fail(path, "subtree-target-target",
                     f"move {k} follow-up does not certify the target")
                return
        entries.append(NodeCheck(path, True, "", ""))
        for k, move in enumerate(node.moves):
            walk(move.response_subtree, f"{path}.m{k}.r")
            walk(move.target_subtree, f"{path}.m{k}.t")

    walk(root, "root")
    return VerificationReport(tuple(entries))


# ---------------------------------------------------------------------------
# box-derivation oracle


def relative_derivation_oracle(space: MetricSpace,
                               candidates: Iterable[FreeVector],
                               functionals: Sequence[LipschitzFunction],
                               eta: Fraction, epsilon: Fraction,
                               rounds: int) -> tuple[FreeVector, ...]:
    """Iterate the single-box derivation over a finite candidate set.

    A candidate survives a round when its eta-box (with respect to the
    given functionals) inside the current survivor set has norm diameter
    at least epsilon.  With an empty functional list every box is the
    whole survivor set.  Exact arithmetic; survivors shrink monotonically
    with the round count.

    Pairing is linear, so each candidate is paired with each functional
    once and a box compares those pairings, in integers: functional k's
    pairings are brought to one common denominator D_k, and with eta =
    p/q two candidates share a box when their numerators, times q, differ
    by at most p * D_k for every k.  Survivors are positions in the
    deduplicated candidate list and keep its order, so a box's pairs are
    always (earlier, later) and each pair's distance is solved once per
    call, whichever boxes and rounds share it.
    """
    pool: dict[FreeVector, None] = {}
    for v in candidates:
        if v.space is not space:
            raise ValueError("candidate lives over a different space")
        if norm_value(v) > 1:
            raise ValueError("candidates must lie in the unit ball")
        pool.setdefault(v)
    for f in functionals:
        if f.space is not space or not f.is_total:
            raise ValueError("functionals must be total on the space")
    vectors = list(pool)
    eta = exact(eta)
    columns, bounds = [], []
    for f in functionals:
        pairs = [v._pairing(f) for v in vectors]
        common = math.lcm(*(d for _, d in pairs))
        columns.append([a * (common // d) * eta.denominator
                        for a, d in pairs])
        bounds.append(eta.numerator * common)
    pairings = list(zip(*columns)) if columns else [()] * len(vectors)

    @cache
    def distance(a: int, b: int) -> Fraction:
        return norm_value(vectors[a] - vectors[b])

    survivors = list(range(len(vectors)))
    for _ in range(rounds):
        if not survivors:
            break
        kept = []
        for v in survivors:
            pv = pairings[v]
            box = [w for w in survivors
                   if all(abs(a - b) <= bound for a, b, bound
                          in zip(pairings[w], pv, bounds))]
            diameter = Fraction(0)
            for a in range(len(box)):
                for b in range(a + 1, len(box)):
                    d = distance(box[a], box[b])
                    if d > diameter:
                        diameter = d
            if diameter >= epsilon:
                kept.append(v)
        survivors = kept
    return tuple(vectors[v] for v in survivors)


# ---------------------------------------------------------------------------
# mutation fuzzing

MUTATION_KINDS = ("inflate-response", "shift-functional", "double-epsilon",
                  "tamper-subtree-target", "drop-response-entry")


def _rebuild(node: GameNode, path: str, site: tuple[str, int],
             editor) -> GameNode:
    moves = []
    for k, move in enumerate(node.moves):
        if (path, k) == site:
            move = editor(move)
        else:
            move = Move(move.neighborhood, move.response,
                        _rebuild(move.response_subtree, f"{path}.m{k}.r",
                                 site, editor),
                        _rebuild(move.target_subtree, f"{path}.m{k}.t",
                                 site, editor))
        moves.append(move)
    return GameNode(node.target, node.depth, node.epsilon, tuple(moves))


def mutate_transcript(transcript: GameTranscript, kind: str,
                      sampler: Sampler) -> GameTranscript:
    """Plant one defect of the requested kind; the result must not verify.

    Used by the fuzzing checks: every mutation breaks a specific
    transcript invariant (ball, membership, separation or linkage), so a
    verifier accepting a mutant is a verifier bug.
    """
    if kind not in MUTATION_KINDS:
        raise ValueError(f"unknown mutation kind {kind!r}")
    space = transcript.space
    root = transcript.root

    if kind == "double-epsilon":
        mutated = GameNode(root.target, root.depth, root.epsilon * 2,
                           root.moves)
        return GameTranscript(space, mutated, transcript.adversary)

    sites = [(path, k) for path, node in walk_nodes(root)
             for k in range(len(node.moves))]
    if not sites:
        raise ValueError("transcript has no moves to mutate")
    site = sites[sampler.below(len(sites))]

    def edit(move: Move) -> Move:
        if kind == "inflate-response":
            return Move(move.neighborhood, move.response * 3,
                        move.response_subtree, move.target_subtree)
        if kind == "drop-response-entry":
            entries = move.response.entries
            if not entries:
                raise ValueError("response has no entries to drop")
            slim = FreeVector(space, entries[1:])
            return Move(move.neighborhood, slim,
                        move.response_subtree, move.target_subtree)
        if kind == "tamper-subtree-target":
            base = space.base_point
            a, b = [p for p in range(len(space)) if p != base][:2]
            sub = move.target_subtree
            bumped = GameNode(sub.target + molecule(space, a, b),
                              sub.depth, sub.epsilon, sub.moves)
            return Move(move.neighborhood, move.response,
                        move.response_subtree, bumped)
        # shift-functional: push one functional away from the response
        # by more than eta can absorb.
        hood = move.neighborhood
        diff = move.response - hood.center
        if diff.is_zero:
            raise ValueError("response coincides with the center")
        point, coeff = diff.entries[0]
        delta = (2 * hood.eta + 1) / abs(coeff)
        r = sampler.below(len(hood.functionals))
        # Neighborhood functionals are total: a point's value sits at its
        # own index.
        domain, nums, den = hood.functionals[r].integer_scaled()
        common = math.lcm(den, delta.denominator)
        nums = [n * (common // den) for n in nums]
        nums[point] += delta.numerator * (common // delta.denominator)
        bumped_fn = LipschitzFunction._from_numerators(space, domain, nums,
                                                       common)
        family = tuple(bumped_fn if s == r else f
                       for s, f in enumerate(hood.functionals))
        return Move(WeakNeighborhood(family, hood.center, hood.eta),
                    move.response, move.response_subtree, move.target_subtree)

    mutated_root = _rebuild(root, "root", site, edit)
    return GameTranscript(space, mutated_root, transcript.adversary)
