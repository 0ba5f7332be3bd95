"""Command-line front end for building, measuring, playing and checking.

Every command works with the canonical text formats and exact rational
flags; nothing accepts or prints floating point.  Exit codes: 0 on
success, 1 when a verification or check fails, 2 on usage or format
problems, 3 when a construction exceeds its point budget.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from . import io as dio
from .decomposition import decompose_limit
from .derivation import (ADVERSARY_KINDS, AdversaryConfig, prover_certify,
                         verify_transcript)
from .diamond import DEFAULT_BUDGET, DiamondSpec, build_cached
from .errors import (BudgetExceededError, CertificateError, FormatError,
                     InsufficientBranchingError)
from .freespace import FreeVector, free_norm, verify_certificate
from .lipschitz import lip_constant, mcshane_extend
from .metric import MetricAxiomError
from .ordinal import parse_ordinal
from .sampling import Sampler
from .suite import (SuiteConfig, SuiteReport, TOOL_VERSION,
                    _decomposition_rows, run_suite, write_report)

__all__ = ["main"]


def _spec_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", required=True,
                     help="ordinal expression, e.g. 3 or w or w*2+1")
    sub.add_argument("--branches", required=True, type=int)
    sub.add_argument("--limit-width", type=int, default=3)
    sub.add_argument("--budget-points", type=int, default=DEFAULT_BUDGET)


def _parse_spec(args) -> DiamondSpec:
    return DiamondSpec(parse_ordinal(args.alpha), args.branches,
                       args.limit_width)


def _fraction(text: str) -> Fraction:
    try:
        return dio.parse_fraction(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamondlab",
        description="exact free-space laboratory over diamond graphs")
    parser.add_argument("--version", action="version",
                        version=f"diamondlab {TOOL_VERSION}")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser(
        "gen", help="build a truncation and write its space file")
    _spec_args(gen)
    gen.add_argument("--out", required=True)
    gen.add_argument("--dot", help="also write a DOT graph of finest edges")
    gen.set_defaults(fn=_cmd_gen)

    dist = commands.add_parser(
        "dist", help="print the distance between two labelled points")
    dist.add_argument("--space", required=True)
    dist.add_argument("--x", required=True)
    dist.add_argument("--y", required=True)
    dist.set_defaults(fn=_cmd_dist)

    norm = commands.add_parser(
        "norm", help="free norm of a vector file, with optional certificate")
    norm.add_argument("--space", required=True)
    norm.add_argument("--vector", required=True)
    norm.add_argument("--certificate", help="write the certificate here")
    norm.set_defaults(fn=_cmd_norm)

    extend = commands.add_parser(
        "extend", help="extend a partial function to the whole space")
    extend.add_argument("--space", required=True)
    extend.add_argument("--function", required=True)
    extend.add_argument("--constant", type=_fraction,
                        help="extension constant; defaults to the "
                        "function's own")
    extend.add_argument("--out", required=True)
    extend.set_defaults(fn=_cmd_extend)

    game = commands.add_parser(
        "game", help="play and verify a derivation game, write a transcript")
    _spec_args(game)
    game.add_argument("--depth", required=True, type=int)
    game.add_argument("--adversary", required=True, choices=ADVERSARY_KINDS)
    game.add_argument("--count", type=int, default=3,
                      help="functionals per family")
    game.add_argument("--eta", type=_fraction, default=Fraction(1, 10))
    game.add_argument("--epsilon", type=_fraction, default=Fraction(1))
    game.add_argument("--seed", type=int, default=0)
    game.add_argument("--out", required=True)
    game.set_defaults(fn=_cmd_game)

    verify = commands.add_parser(
        "verify", help="re-check a transcript file independently")
    verify.add_argument("--transcript", required=True)
    verify.add_argument("--space", help="space file; default: rebuild from "
                        "the transcript's echo")
    verify.add_argument("--budget-points", type=int, default=DEFAULT_BUDGET)
    verify.add_argument("--out", help="rewrite the transcript with fresh "
                        "statuses")
    verify.set_defaults(fn=_cmd_verify)

    decomp = commands.add_parser(
        "decomp", help="summing-metric checks on a limit truncation")
    _spec_args(decomp)
    decomp.add_argument("--count", type=int, default=30,
                        help="random vectors per identity check")
    decomp.add_argument("--seed", type=int, default=0)
    decomp.add_argument("--out", help="write the cover partition here")
    decomp.add_argument("--report")
    decomp.set_defaults(fn=_cmd_decomp)

    suite = commands.add_parser(
        "suite", help="run all ten verification checks and report")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--budget-points", type=int, default=DEFAULT_BUDGET)
    suite.add_argument("--report")
    suite.set_defaults(fn=_cmd_suite)

    return parser


# ---------------------------------------------------------------------------
# commands


def _cmd_gen(args) -> int:
    spec = _parse_spec(args)
    space, landmarks = build_cached(spec, args.budget_points)
    dio.write_space(args.out, space, landmarks, spec)
    if args.dot:
        dio.write_dot(args.dot, space)
    print(f"wrote {args.out}: {len(space)} points, "
          f"base {space.label(space.base_point)}")
    return 0


def _cmd_dist(args) -> int:
    space, _, _ = dio.read_space(args.space)
    try:
        x = space.index_of(args.x)
        y = space.index_of(args.y)
    except KeyError as exc:
        raise FormatError(str(exc.args[0]))
    print(dio.format_fraction(space.distance(x, y)))
    return 0


def _cmd_norm(args) -> int:
    space, _, spec = dio.read_space(args.space)
    vec = dio.read_vector(args.vector, space)
    value, cert = free_norm(vec)
    verify_certificate(cert)
    print(dio.format_fraction(value))
    if args.certificate:
        dio.write_certificate(args.certificate, cert, spec)
        print(f"certificate written to {args.certificate}")
    return 0


def _cmd_extend(args) -> int:
    space, _, spec = dio.read_space(args.space)
    func = dio.read_function(args.function, space)
    total = mcshane_extend(func, args.constant)
    dio.write_function(args.out, total, spec)
    print(f"extended to {len(space)} points with constant "
          f"{dio.format_fraction(lip_constant(total))}")
    return 0


def _cmd_game(args) -> int:
    spec = _parse_spec(args)
    space, landmarks = build_cached(spec, args.budget_points)
    adversary = AdversaryConfig(args.adversary, args.count, args.eta,
                                args.seed)
    transcript = prover_certify(space, landmarks, args.depth, adversary,
                                args.epsilon)
    report = verify_transcript(space, transcript)
    doc = dio.TranscriptDocument(transcript).with_report(report)
    dio.write_transcript(args.out, doc, spec)
    nodes = len(report.entries)
    if not report.passed:
        bad = report.failures()[0]
        print(f"transcript written to {args.out}; verification FAILED at "
              f"{bad.path}: {bad.condition}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}: depth {args.depth}, {nodes} nodes verified")
    return 0


def _cmd_verify(args) -> int:
    space = landmarks = None
    if args.space:
        space, landmarks, _ = dio.read_space(args.space, args.budget_points)
    doc, space, landmarks = dio.read_transcript(
        args.transcript, space, landmarks, budget=args.budget_points)
    report = verify_transcript(space, doc.transcript)
    if args.out:
        dio.write_transcript(args.out, doc.with_report(report), doc.spec)
    if not report.passed:
        for bad in report.failures():
            print(f"fail {bad.path} {bad.condition}: {bad.detail}",
                  file=sys.stderr)
        return 1
    print(f"pass: {len(report.entries)} nodes verified")
    return 0


def _cmd_decomp(args) -> int:
    if args.count < 1:
        raise ValueError("count must be at least 1")
    spec = _parse_spec(args)
    space, landmarks = build_cached(spec, args.budget_points)
    dec = decompose_limit(space, landmarks)
    sampler = Sampler(args.seed)
    # One point of each nonempty slice per vector.
    vectors = [FreeVector(dec.summing, [
        (members[sampler.below(len(members))], sampler.nonzero_fraction())
        for members in dec.partition.summands if members])
        for _ in range(args.count)]
    rows = _decomposition_rows(dec, vectors)
    if args.out:
        dio.write_partition(args.out, dec.sub, dec.partition)
    report = SuiteReport(TOOL_VERSION, args.seed, args.budget_points, rows)
    if args.report:
        write_report(args.report, report)
    for row in rows:
        print(f"{row.status} {row.check_id}: {row.details}")
    print(f"verdict: {report.verdict}")
    return 0 if report.passed else 1


def _cmd_suite(args) -> int:
    cfg = SuiteConfig(seed=args.seed, budget=args.budget_points)
    report = run_suite(cfg)
    for row in report.results:
        print(f"{row.status:4s} {row.check_id} ({row.wall_time:.2f}s): "
              f"{row.details}")
    print(f"verdict: {report.verdict}")
    if args.report:
        write_report(args.report, report)
    return 0 if report.passed else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InsufficientBranchingError as exc:
        print(f"insufficient branching: {exc} (rebuild with --branches "
              f"{exc.retry_hint})", file=sys.stderr)
        return 1
    except (CertificateError, MetricAxiomError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
