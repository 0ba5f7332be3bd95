"""File format and command-line tests.

Core claims checked here:
  * fraction syntax is exact and strict (no floats, no zero
    denominators),
  * every writer is byte-deterministic and every reader inverts it;
    golden transcript files and the demo's stage-2 space and DOT files
    pin the exact bytes,
  * spec echoes rebind files to the shared cached construction and
    mismatches are refused with located errors; a space file without an
    echo must hold a metric,
  * a writer that fails leaves neither a partial nor a temporary file,
    and the determinism check removes the files it writes,
  * truncated records, references to undeclared transcript nodes or
    moves, move indices other than 0..k-1 and unknown statuses are
    refused with FormatError, never a KeyError or IndexError,
  * the command-line entry point implements the documented commands and
    exit codes (0 ok, 1 failed check, 2 usage, 3 budget).
"""

import dataclasses
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from diamondlab import (
    ADVERSARY_KINDS,
    AdversaryConfig,
    BudgetExceededError,
    CheckResult,
    DiamondSpec,
    FormatError,
    FreeVector,
    GameNode,
    GameTranscript,
    LipschitzFunction,
    MetricSpace,
    Move,
    Sampler,
    SuiteReport,
    SummandPartition,
    WeakNeighborhood,
    build_cached,
    cli,
    estimate_points,
    free_norm,
    molecule,
    mutate_transcript,
    point_mass,
    prover_certify,
    SuiteConfig,
    read_report,
    run_check,
    verify_certificate,
    verify_transcript,
    write_report,
)
from diamondlab import decomposition
from diamondlab import io as dio
from diamondlab.io import (
    TranscriptDocument,
    format_fraction,
    parse_fraction,
    read_certificate,
    read_function,
    read_partition,
    read_space,
    read_transcript,
    read_vector,
    write_certificate,
    write_dot,
    write_function,
    write_partition,
    write_space,
    write_transcript,
    write_vector,
)
from deadline import within

ETA = Fraction(1, 10)
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ONE = Fraction(1)


# -- Helpers ----------------------------------------------------------------

def _bytes(path):
    return path.read_bytes()


def _transcript(d23, seed=7):
    space, lm = d23
    cfg = AdversaryConfig("distance_functions", 3, ETA, seed)
    return prover_certify(space, lm, 2, cfg)


# -- Fractions ---------------------------------------------------------------

def test_format_fraction_always_explicit():
    assert format_fraction(Fraction(1, 2)) == "1/2"
    assert format_fraction(Fraction(-3, 4)) == "-3/4"
    assert format_fraction(Fraction(2)) == "2/1"
    assert format_fraction(Fraction(0)) == "0/1"


def test_parse_fraction_accepts_exact_forms():
    assert parse_fraction("1/2") == Fraction(1, 2)
    assert parse_fraction("-3/4") == Fraction(-3, 4)
    assert parse_fraction("7") == 7
    assert parse_fraction("0") == 0
    assert parse_fraction("2/4") == Fraction(1, 2)


def test_parse_fraction_rejects_everything_else():
    for text in ("1.5", "0.5", "1/0", "1/-2", "+1", "1/2/3", "", " 1/2",
                 "1e3", "nan"):
        with pytest.raises(FormatError):
            parse_fraction(text)


# -- Space files --------------------------------------------------------------

def test_space_roundtrip_with_echo(tmp_path, d23):
    space, lm = d23
    path = tmp_path / "space.txt"
    write_space(str(path), space, lm, DiamondSpec(2, 3))
    first = _bytes(path)
    write_space(str(path), space, lm, DiamondSpec(2, 3))
    assert _bytes(path) == first

    loaded, loaded_lm, spec = read_space(str(path))
    assert loaded is space
    assert loaded_lm is lm
    assert spec == DiamondSpec(2, 3)


def test_space_roundtrip_without_echo(tmp_path, d13):
    space, lm = d13
    path = tmp_path / "plain.txt"
    write_space(str(path), space, lm)
    loaded, loaded_lm, spec = read_space(str(path))
    assert loaded is not space
    assert loaded_lm is None and spec is None
    assert loaded.labels == space.labels
    assert loaded.base_point == space.base_point
    assert loaded.dist_matrix == space.dist_matrix


def test_space_reader_rejects_tampered_distance(tmp_path, d13):
    space, lm = d13
    path = tmp_path / "space.txt"
    write_space(str(path), space, lm, DiamondSpec(1, 3))
    text = path.read_text()
    assert "dist 0 1 2/1" in text
    # Wrong, off the space's scale, negative, and past the int64 range.
    for stored in ("3/1", "5/2", "1/3", "-2/1", f"{1 << 70}/1"):
        path.write_text(text.replace("dist 0 1 2/1", f"dist 0 1 {stored}"))
        with pytest.raises(FormatError,
                           match="does not match the spec echo"):
            read_space(str(path))


def test_space_reader_validates_a_file_without_echo(tmp_path, capsys, d13):
    space, _ = d13
    path = tmp_path / "plain.txt"
    write_space(str(path), space)
    text = path.read_text()
    assert "dist 0 1 2/1" in text
    # top - mid(1) - bottom is 2, so a stored 3 breaks the triangle.
    path.write_text(text.replace("dist 0 1 2/1", "dist 0 1 3/1"))
    end = len(text.splitlines())
    with pytest.raises(FormatError,
                       match=rf"plain\.txt:{end}: triangle violation"):
        read_space(str(path))
    assert cli.main(["dist", "--space", str(path),
                     "--x", "top", "--y", "bottom"]) == 2
    assert "triangle violation" in capsys.readouterr().err


def test_space_writer_leaves_no_partial_or_temporary_file(tmp_path, d13):
    # Every writer refuses a space with a label no reader could take back,
    # even one its file would not name, and leaves no partial or
    # temporary file.
    space, lm = d13
    path = tmp_path / "space.txt"
    write_space(str(path), space, lm)
    first = _bytes(path)
    for label in ("mid 2", ""):
        bad = MetricSpace.from_scaled(["top", "bottom", "mid(1)", label,
                                       "mid(3)"], *space.integer_scaled(), 2)
        top = point_mass(bad, 0)
        rest = tuple(p for p in range(len(bad)) if p != bad.base_point)
        writers = (
            # The base label is fine, so a space file's header is not
            # the first line that could name the label.
            lambda p: write_space(p, bad),
            lambda p: write_vector(p, top),
            lambda p: write_function(p, LipschitzFunction(bad, {0: ONE})),
            lambda p: write_certificate(p, free_norm(molecule(bad, 0, 1))[1]),
            lambda p: write_partition(p, bad, SummandPartition(
                bad.base_point, (rest,))),
            lambda p: write_transcript(p, TranscriptDocument(
                GameTranscript(bad, GameNode(top, 0, ONE)))),
        )
        for write in writers:
            for target in (path, tmp_path / "new.txt"):
                with pytest.raises(FormatError, match=rf"label "
                                   rf"{re.escape(repr(label))} is empty"):
                    write(str(target))
            assert [p.name for p in tmp_path.iterdir()] == ["space.txt"]
    assert _bytes(path) == first


def test_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("diamondlab vector 1\nend\n")
    with pytest.raises(FormatError, match="not a diamondlab space file"):
        read_space(str(path))


def test_reader_rejects_truncated_file(tmp_path, d13):
    space, lm = d13
    path = tmp_path / "space.txt"
    write_space(str(path), space, lm)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(FormatError):
        read_space(str(path))


# -- Vector, function, certificate and partition files -----------------------------

def test_vector_roundtrip(tmp_path, d23):
    space, lm = d23
    vec = FreeVector(space, [(lm.top, Fraction(2, 3)),
                             (5, Fraction(-7, 2))])
    path = tmp_path / "vec.txt"
    write_vector(str(path), vec, DiamondSpec(2, 3))
    assert read_vector(str(path), space) == vec
    first = _bytes(path)
    write_vector(str(path), vec, DiamondSpec(2, 3))
    assert _bytes(path) == first


def test_vector_reader_errors_carry_line_numbers(tmp_path, d13):
    space, _ = d13
    path = tmp_path / "vec.txt"
    path.write_text("diamondlab vector 1\nspace points=5 base=mid(1)\n"
                    "entry top 0.5\nend\n")
    with pytest.raises(FormatError, match="not an exact rational"):
        read_vector(str(path), space)
    path.write_text("diamondlab vector 1\nspace points=5 base=mid(1)\n"
                    "entry nowhere 1/2\nend\n")
    with pytest.raises(FormatError, match=r"vec.txt:3: unknown point"):
        read_vector(str(path), space)


def test_vector_reader_checks_space_shape(tmp_path, d13, d14):
    space13, _ = d13
    path = tmp_path / "vec.txt"
    write_vector(str(path), point_mass(space13, 0))
    with pytest.raises(FormatError, match="-point"):
        read_vector(str(path), d14[0])


def test_function_roundtrip_and_total_claim(tmp_path, d13):
    space, _ = d13
    partial = LipschitzFunction(space, {0: Fraction(1, 3), 4: Fraction(-2)})
    path = tmp_path / "func.txt"
    write_function(str(path), partial)
    loaded = read_function(str(path), space)
    assert loaded == partial
    assert not loaded.is_total

    text = path.read_text().replace("domain partial", "domain total")
    path.write_text(text)
    with pytest.raises(FormatError, match="misses points"):
        read_function(str(path), space)


def test_certificate_roundtrip(tmp_path, d23):
    space, lm = d23
    value, cert = free_norm(molecule(space, lm.top, 7))
    path = tmp_path / "cert.txt"
    write_certificate(str(path), cert, DiamondSpec(2, 3))
    loaded = read_certificate(str(path), space)
    assert loaded.vector == cert.vector
    assert loaded.value == value
    assert loaded.plan == cert.plan
    assert loaded.potential == cert.potential
    assert verify_certificate(loaded)


def test_partition_roundtrip(tmp_path, d13):
    space, _ = d13
    base = space.base_point
    rest = [p for p in range(len(space)) if p != base]
    partition = SummandPartition(base, ((rest[0], rest[1]), tuple(rest[2:])))
    path = tmp_path / "part.txt"
    write_partition(str(path), space, partition)
    loaded = read_partition(str(path), space)
    assert loaded.base == base
    assert loaded.summands == partition.summands


@pytest.mark.parametrize("summands, message", [
    (lambda base, rest: ((base, *rest[:2]), tuple(rest[2:])),
     "the base point belongs to no summand"),
    (lambda base, rest: (tuple(rest[:2]), tuple(rest[1:])),
     "appears in two summands"),
    (lambda base, rest: (tuple(rest[:2]), tuple(rest[3:])),
     "not covered by any summand"),
], ids=["base-in-summand", "listed-twice", "left-out"])
def test_partition_reader_refuses_what_check_partition_refuses(
        tmp_path, d13, summands, message):
    space, _ = d13
    base = space.base_point
    rest = [p for p in range(len(space)) if p != base]
    path = tmp_path / "part.txt"
    write_partition(str(path), space,
                    SummandPartition(base, summands(base, rest)))
    end = path.read_text().splitlines().index("end") + 1
    with pytest.raises(FormatError, match=f"part.txt:{end}: .*{message}"):
        read_partition(str(path), space)


# -- Transcript files ------------------------------------------------------------

def test_transcript_roundtrip_with_statuses(tmp_path, d23):
    space, _ = d23
    transcript = _transcript(d23)
    report = verify_transcript(space, transcript)
    doc = TranscriptDocument(transcript).with_report(report)
    path = tmp_path / "game.txt"
    write_transcript(str(path), doc, DiamondSpec(2, 3))
    first = _bytes(path)
    write_transcript(str(path), doc, DiamondSpec(2, 3))
    assert _bytes(path) == first

    loaded_doc, loaded_space, loaded_lm = read_transcript(str(path))
    assert loaded_space is space
    assert loaded_doc.transcript.root == transcript.root
    assert loaded_doc.transcript.adversary == transcript.adversary
    assert loaded_doc.statuses["root"] == ("pass", "")
    assert all(status == "pass"
               for status, _ in loaded_doc.statuses.values())
    assert verify_transcript(loaded_space, loaded_doc.transcript).passed


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
def test_transcript_files_are_frozen(tmp_path, d23, kind):
    space, lm = d23
    transcript = prover_certify(space, lm, 2, AdversaryConfig(kind, 3, ETA, 7))
    doc = TranscriptDocument(transcript).with_report(
        verify_transcript(space, transcript))
    golden = GOLDEN / f"transcript_d23_{kind}.txt"
    path = tmp_path / "game.txt"
    write_transcript(str(path), doc, DiamondSpec(2, 3))
    assert _bytes(path) == golden.read_bytes()

    loaded, loaded_space, _ = read_transcript(str(golden))
    assert loaded_space is space
    assert loaded.spec == DiamondSpec(2, 3)
    assert loaded.transcript.root == transcript.root
    assert loaded.transcript.adversary == transcript.adversary
    assert loaded.statuses == doc.statuses
    write_transcript(str(path), loaded, loaded.spec)
    assert _bytes(path) == golden.read_bytes()


def test_transcript_families_are_keyed_by_value(tmp_path, d23):
    space, _ = d23
    transcript = _transcript(d23)
    path = tmp_path / "game.txt"
    write_transcript(str(path), TranscriptDocument(transcript))
    original = _bytes(path)

    # Equal functionals in a fresh tuple object still form one family.
    def copy_families(node):
        moves = tuple(Move(WeakNeighborhood(
            tuple(LipschitzFunction(space, f.entries)
                  for f in m.neighborhood.functionals),
            m.neighborhood.center, m.neighborhood.eta), m.response,
            copy_families(m.response_subtree),
            copy_families(m.target_subtree)) for m in node.moves)
        return GameNode(node.target, node.depth, node.epsilon, moves)

    copied = GameTranscript(space, copy_families(transcript.root),
                            transcript.adversary)
    write_transcript(str(path), TranscriptDocument(copied))
    assert _bytes(path) == original

    # A shifted functional makes a second family, and it reads back.
    mutant = mutate_transcript(transcript, "shift-functional", Sampler(3))
    write_transcript(str(path), TranscriptDocument(mutant))
    assert "families 2\n" in path.read_text()
    loaded, _, _ = read_transcript(str(path), space)
    assert loaded.transcript.root == mutant.root


def test_transcript_without_statuses_reads_none(tmp_path, d23):
    transcript = _transcript(d23)
    path = tmp_path / "game.txt"
    write_transcript(str(path), TranscriptDocument(transcript),
                     DiamondSpec(2, 3))
    loaded_doc, _, _ = read_transcript(str(path))
    assert set(loaded_doc.statuses.values()) == {("none", "")}
    assert len(loaded_doc.statuses) == 7


def test_transcript_needs_echo_or_space(tmp_path, d23):
    space, _ = d23
    transcript = _transcript(d23)
    path = tmp_path / "game.txt"
    write_transcript(str(path), TranscriptDocument(transcript))
    with pytest.raises(FormatError, match="no construction echo"):
        read_transcript(str(path))
    loaded_doc, loaded_space, _ = read_transcript(str(path), space)
    assert loaded_space is space
    assert loaded_doc.transcript.root == transcript.root


def _transcript_text(tmp_path, d23):
    path = tmp_path / "game.txt"
    write_transcript(str(path), TranscriptDocument(_transcript(d23)),
                     DiamondSpec(2, 3))
    return path, path.read_text()


def _retarget(text, kind, node_path):
    """Point the first ``kind`` line at ``node_path``."""
    line = next(l for l in text.splitlines() if l.startswith(kind + " "))
    tokens = line.split()
    tokens[1] = node_path
    return text.replace(line, " ".join(tokens), 1)


@pytest.mark.parametrize("kind", ["tentry", "status", "move", "rentry"])
def test_transcript_reader_rejects_undeclared_node(tmp_path, d23, kind):
    path, text = _transcript_text(tmp_path, d23)
    path.write_text(_retarget(text, kind, "root.m7.r"))
    with pytest.raises(FormatError, match="undeclared node 'root.m7.r'"):
        read_transcript(str(path))


def test_transcript_reader_rejects_unknown_status(tmp_path, d23):
    path, text = _transcript_text(tmp_path, d23)
    path.write_text(text.replace("status root none", "status root maybe", 1))
    with pytest.raises(FormatError, match="unknown status 'maybe'"):
        read_transcript(str(path))


def test_transcript_reader_rejects_redeclared_node(tmp_path, d23):
    path, text = _transcript_text(tmp_path, d23)
    line = next(l for l in text.splitlines() if l.startswith("node "))
    path.write_text(text.replace(line, f"{line}\n{line}", 1))
    with pytest.raises(FormatError, match="node 'root' declared twice"):
        read_transcript(str(path))


@pytest.mark.parametrize("edit", ["gap", "duplicate", "renumbered"])
def test_transcript_reader_rejects_misnumbered_moves(tmp_path, d23, edit):
    # A node's moves must be numbered 0..k-1 in order: the tree numbers
    # them by position, so any other index would rename the subtrees.
    path, text = _transcript_text(tmp_path, d23)
    lines = text.splitlines()
    k = next(n for n, l in enumerate(lines) if l.startswith("move root 0 "))
    if edit == "gap":
        lines.insert(k + 1, lines[k].replace(" root 0 ", " root 2 "))
        where, found, expected = k + 2, 2, 1
    elif edit == "duplicate":
        lines.insert(k + 1, lines[k])
        where, found, expected = k + 2, 0, 1
    else:
        # The root's move, its responses and its subtrees all say 2.
        lines = [l.replace(" root 0 ", " root 2 ").replace("root.m0.",
                                                           "root.m2.")
                 for l in lines]
        where, found, expected = k + 1, 2, 0
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError,
                       match=rf"game\.txt:{where}: move {found} of 'root' "
                             rf"is out of order, expected move {expected}"):
        read_transcript(str(path))


@pytest.mark.parametrize("edit", ["tentry-after-status",
                                  "follow-up-before-move"])
def test_transcript_reader_requires_writer_order(tmp_path, d23, edit):
    path, text = _transcript_text(tmp_path, d23)
    lines = text.splitlines()
    if edit == "tentry-after-status":
        moved = next(n for n, l in enumerate(lines)
                     if l.startswith("tentry root "))
        to = lines.index("status root none")
        message = "'tentry' record of node 'root'"
    else:
        moved = next(n for n, l in enumerate(lines)
                     if l.startswith("node root.m0.r "))
        to = next(n for n, l in enumerate(lines)
                  if l.startswith("move root 0 "))
        message = "'node' record of node 'root.m0.r'"
    lines.insert(to, lines.pop(moved))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError,
                       match=rf"game\.txt:{to + 1}: {message} is out of "
                             rf"writer order"):
        read_transcript(str(path))


def test_transcript_reader_rejects_unlisted_functionals(tmp_path, d23):
    # A claimed family size must be backed by fvalue records, so a large
    # claim fails without allocating one slot per claimed functional.
    path, text = _transcript_text(tmp_path, d23)
    line = next(l for l in text.splitlines() if l.startswith("family "))
    path.write_text(text.replace(line, "family 0 size 999999999", 1))
    with pytest.raises(FormatError, match="lists 3 of its 999999999"):
        read_transcript(str(path))


def test_transcript_reader_rejects_a_repeated_functional_point(tmp_path,
                                                              d23):
    path, text = _transcript_text(tmp_path, d23)
    line = next(l for l in text.splitlines() if l.startswith("fvalue "))
    path.write_text(text.replace(line, f"{line}\n{line}", 1))
    with pytest.raises(FormatError,
                       match="a functional of family 0 repeats a point"):
        read_transcript(str(path))


def test_readers_reject_non_utf8_bytes(tmp_path, d13):
    space, _ = d13
    path = tmp_path / "vec.txt"
    path.write_bytes(b"diamondlab vector 1\nspace points=\xff\nend\n")
    with pytest.raises(FormatError, match="not UTF-8"):
        read_vector(str(path), space)


def test_space_line_is_one_parser_for_every_reader(tmp_path, d23):
    # A token without '=' is refused on the space line of every file kind,
    # and the transcript reader gives the vector reader's messages.
    space, lm = d23
    path, text = _transcript_text(tmp_path, d23)
    vec_path = tmp_path / "vec.txt"
    write_vector(str(vec_path), molecule(space, lm.top, lm.bottom))
    for target, read in ((path, read_transcript),
                         (vec_path, lambda p: read_vector(p, space))):
        original = target.read_text()
        target.write_text(original.replace(" points=", " stray points=", 1))
        with pytest.raises(FormatError, match="malformed field 'stray'"):
            read(str(target))
        target.write_text(original.replace(" points=", " points=9", 1))
        with pytest.raises(FormatError, match="for a 923-point space"):
            read(str(target))
        target.write_text(original.replace(" base=", " base=x", 1))
        with pytest.raises(FormatError, match="a different base point"):
            read(str(target))


def test_transcript_reader_rejects_response_of_undeclared_move(tmp_path, d23):
    path, text = _transcript_text(tmp_path, d23)
    line = next(l for l in text.splitlines() if l.startswith("rentry "))
    tokens = line.split()
    tokens[2] = "5"
    path.write_text(text.replace(line, " ".join(tokens), 1))
    with pytest.raises(FormatError, match="undeclared move 5"):
        read_transcript(str(path))


def test_transcript_reader_rejects_missing_child_node(tmp_path, d23):
    path, text = _transcript_text(tmp_path, d23)
    kept = [l for l in text.splitlines()
            if l.split()[1:2] != ["root.m0.t"]]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(FormatError, match="missing node 'root.m0.t'"):
        read_transcript(str(path))


@pytest.mark.parametrize("field", ["kind", "count", "eta", "seed"])
def test_transcript_reader_rejects_adversary_missing_field(tmp_path, d23,
                                                           field):
    path, text = _transcript_text(tmp_path, d23)
    line = next(l for l in text.splitlines() if l.startswith("adversary "))
    tokens = [t for t in line.split() if not t.startswith(field + "=")]
    path.write_text(text.replace(line, " ".join(tokens), 1))
    with pytest.raises(FormatError, match=f"missing field {field!r}"):
        read_transcript(str(path))


@pytest.mark.parametrize("kind", ["tentry", "rentry", "fvalue"])
def test_transcript_reader_rejects_truncated_records(tmp_path, d23, kind):
    path, text = _transcript_text(tmp_path, d23)
    line = next(l for l in text.splitlines() if l.startswith(kind + " "))
    path.write_text(text.replace(line, " ".join(line.split()[:-1]), 1))
    with pytest.raises(FormatError, match=kind):
        read_transcript(str(path))


def test_space_reader_rejects_truncated_distance(tmp_path, d13):
    space, lm = d13
    path = tmp_path / "d13.txt"
    write_space(str(path), space, lm, DiamondSpec(1, 3))
    text = path.read_text()
    line = next(l for l in text.splitlines() if l.startswith("dist "))
    path.write_text(text.replace(line, " ".join(line.split()[:-1]), 1))
    with pytest.raises(FormatError, match="malformed dist line"):
        read_space(str(path))


def _written(tmp_path, kind, d13, d23):
    """A file of ``kind`` as its writer emits it, and its reader."""
    space, lm = d13
    path = tmp_path / f"{kind}.txt"
    if kind == "space":
        write_space(str(path), space, lm, DiamondSpec(1, 3))
        return path, read_space
    if kind == "vector":
        write_vector(str(path), molecule(space, 0, 1))
        return path, lambda p: read_vector(p, space)
    if kind == "function":
        write_function(str(path), LipschitzFunction(space, {0: ONE}))
        return path, lambda p: read_function(p, space)
    if kind == "certificate":
        write_certificate(str(path), free_norm(molecule(space, 0, 1))[1])
        return path, lambda p: read_certificate(p, space)
    if kind == "partition":
        rest = tuple(p for p in range(len(space)) if p != space.base_point)
        write_partition(str(path), space,
                        SummandPartition(space.base_point, (rest,)))
        return path, lambda p: read_partition(p, space)
    path, _ = _transcript_text(tmp_path, d23)
    return path, read_transcript


@pytest.mark.parametrize("kind, keyword", [
    ("space", "points"), ("space", "base"), ("space", "point"),
    ("vector", "entry"), ("function", "domain"), ("function", "value"),
    ("certificate", "entry"), ("certificate", "value"),
    ("certificate", "plan"), ("certificate", "potential"),
    ("partition", "base"), ("partition", "summand"),
    ("transcript", "families"), ("transcript", "family"),
    ("transcript", "fvalue"),
])
def test_readers_reject_keyword_only_lines(tmp_path, d13, d23, kind,
                                           keyword):
    path, reader = _written(tmp_path, kind, d13, d23)
    text = path.read_text()
    line = next(l for l in text.splitlines()
                if l.startswith(keyword + " "))
    path.write_text(text.replace(line, keyword, 1))
    with pytest.raises(FormatError, match=f"truncated {keyword!r} line"):
        reader(str(path))


@pytest.mark.parametrize("kind, keyword", [
    ("space", "dist"), ("space-bare", "point"), ("vector", "entry"),
    ("function", "value"), ("certificate", "plan"),
    ("partition", "summand"), ("transcript", "rentry"), ("report", "check"),
])
def test_reader_errors_name_physical_lines(tmp_path, d13, d23, kind,
                                           keyword):
    # Blank and whitespace-only lines are skipped but counted, so a damaged
    # record after them is reported at its line in the file.
    if kind == "space-bare":
        path, reader = tmp_path / "bare.txt", read_space
        write_space(str(path), d13[0])
    elif kind == "report":
        path, reader = tmp_path / "report.txt", read_report
        write_report(str(path), _toy_report())
    else:
        path, reader = _written(tmp_path, kind, d13, d23)
    lines = path.read_text().splitlines()
    k = max(n for n, l in enumerate(lines) if l.startswith(keyword + " "))
    lines[k] = keyword
    lines[k:k] = ["", " \t "]
    lines[1:1] = ["", "  "]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as info:
        reader(str(path))
    assert str(info.value).startswith(f"{path}:{k + 5}: ")


READERS = ["space", "vector", "function", "certificate", "partition",
           "transcript"]


@pytest.mark.parametrize("trailer", ["dist 0 1 1/1", "x", "end"])
@pytest.mark.parametrize("kind", READERS)
def test_readers_refuse_records_after_end(tmp_path, d13, d23, kind,
                                          trailer):
    # A writer's file ends at its ``end`` line; the first nonblank record
    # after it is refused at its physical line, past the blank ones.
    path, reader = _written(tmp_path, kind, d13, d23)
    text = path.read_text()
    path.write_text(text + "\n \t\n" + trailer + "\n")
    with pytest.raises(FormatError) as info:
        reader(str(path))
    line = text.count("\n") + 3
    assert str(info.value) == (f"{path}:{line}: {trailer.split()[0]!r} "
                               f"record after 'end'")


@pytest.mark.parametrize("kind", READERS)
def test_readers_accept_blank_lines_after_end(tmp_path, d13, d23, kind):
    path, reader = _written(tmp_path, kind, d13, d23)
    expected = reader(str(path))
    path.write_text(path.read_text() + "\n \t\n\n")
    got = reader(str(path))
    if kind == "transcript":
        (doc, space, _), (want, _, _) = got, expected
        assert space is d23[0] and doc.statuses == want.statuses
        assert verify_transcript(space, doc.transcript).passed
    else:
        assert got == expected


def test_cli_refuses_records_after_end_with_exit_2(tmp_path, capsys, d23):
    space_file = tmp_path / "d13.txt"
    cli.main(["gen", "--alpha", "1", "--branches", "3",
              "--out", str(space_file)])
    capsys.readouterr()
    space_file.write_text(space_file.read_text() + "dist 0 1 1/1\n")
    assert cli.main(["dist", "--space", str(space_file),
                     "--x", "top", "--y", "bottom"]) == 2
    assert "'dist' record after 'end'" in capsys.readouterr().err
    path, text = _transcript_text(tmp_path, d23)
    path.write_text(text + "end\n")
    assert cli.main(["verify", "--transcript", str(path)]) == 2
    assert "'end' record after 'end'" in capsys.readouterr().err


@pytest.mark.parametrize("echo", [False, True])
def test_space_reader_refuses_budget_before_the_table(tmp_path, capsys,
                                                      echo):
    # 16,385 points is one over the default budget: the claim is refused
    # at its line, before any point or distance is read.
    spec = "spec alpha=6 branches=3 limit-width=3" if echo else "spec none"
    path = tmp_path / "big.txt"
    path.write_text(f"diamondlab space 1\n{spec}\npoints 16385\nbase top\n")
    with pytest.raises(BudgetExceededError):
        read_space(str(path))
    assert cli.main(["dist", "--space", str(path),
                     "--x", "top", "--y", "top"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_cli_dist_truncated_point_line_exits_2(tmp_path, capsys):
    space_file = tmp_path / "d13.txt"
    cli.main(["gen", "--alpha", "1", "--branches", "3",
              "--out", str(space_file)])
    capsys.readouterr()
    text = space_file.read_text()
    line = next(l for l in text.splitlines() if l.startswith("point 0 "))
    space_file.write_text(text.replace(line, "point 0", 1))
    assert cli.main(["dist", "--space", str(space_file),
                     "--x", "top", "--y", "bottom"]) == 2
    assert "truncated 'point' line" in capsys.readouterr().err


def test_cli_dist_out_of_range_distance_exits_2(tmp_path, capsys, d13):
    # Without a spec echo the file's values are stored as int64 numerators
    # over the lcm of their denominators, which must stay below 2^60.
    space, _ = d13
    space_file = tmp_path / "plain.txt"
    write_space(str(space_file), space)
    text = space_file.read_text()
    assert "dist 0 1 2/1" in text
    # 2^59 passes alone, but a third elsewhere puts the scale at 3.
    for stored in (f"{1 << 70}/1", f"{1 << 59}/1"):
        tampered = text.replace("dist 0 1 2/1", f"dist 0 1 {stored}")
        space_file.write_text(tampered.replace("dist 0 2 1/1",
                                               "dist 0 2 1/3"))
        assert cli.main(["dist", "--space", str(space_file),
                         "--x", "top", "--y", "bottom"]) == 2
        assert "exceeds the int64 scale" in capsys.readouterr().err


def test_cli_norm_truncated_vector_entry_exits_2(tmp_path, capsys):
    space_file = tmp_path / "d13.txt"
    cli.main(["gen", "--alpha", "1", "--branches", "3",
              "--out", str(space_file)])
    capsys.readouterr()
    space, _, _ = read_space(str(space_file))
    vec_file = tmp_path / "vec.txt"
    write_vector(str(vec_file), point_mass(space, space.index_of("top")))
    text = vec_file.read_text()
    vec_file.write_text(text.replace("entry top 1/1", "entry top", 1))
    assert cli.main(["norm", "--space", str(space_file),
                     "--vector", str(vec_file)]) == 2
    assert "truncated 'entry' line" in capsys.readouterr().err


def test_cli_verify_missing_node_exits_2(tmp_path, d23, capsys):
    path, text = _transcript_text(tmp_path, d23)
    line = next(l for l in text.splitlines()
                if l.startswith("node root.m0.t "))
    path.write_text(text.replace(line + "\n", ""))
    assert cli.main(["verify", "--transcript", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_fails_a_node_without_moves(tmp_path, d23, capsys):
    # The root keeps its target and status but answers no neighborhood.
    path, text = _transcript_text(tmp_path, d23)
    lines = text.splitlines()
    kept = [l for l in lines[:lines.index("status root none") + 1]
            if l.split()[0] not in ("family", "fvalue")]
    kept[kept.index(next(l for l in kept if l.startswith("families ")))] = (
        "families 0")
    path.write_text("\n".join(kept + ["end"]) + "\n")
    assert cli.main(["verify", "--transcript", str(path)]) == 1
    assert "fail root no-moves" in capsys.readouterr().err


def test_cli_verify_refuses_deep_transcripts(tmp_path, d23, capsys):
    # A chain of 1,200 nested moves: each follow-up of the response nests
    # one level deeper, and each target follow-up is a leaf.
    path, text = _transcript_text(tmp_path, d23)
    lines = text.splitlines()
    head = lines[:next(n for n, l in enumerate(lines)
                       if l.startswith("node "))]
    levels = 1200
    paths = ["root"]
    for _ in range(levels):
        paths.append(paths[-1] + ".m0.r")
    chain = []
    for depth, node_path in zip(range(levels, -1, -1), paths):
        chain.append(f"node {node_path} depth={depth} epsilon=1/1")
        if depth:
            chain.append(f"move {node_path} 0 family=0 eta=1/10")
    for depth, node_path in enumerate(reversed(paths[:-1])):
        chain.append(f"node {node_path}.m0.t depth={depth} epsilon=1/1")
    path.write_text("\n".join(head + chain + ["end"]) + "\n")
    assert cli.main(["verify", "--transcript", str(path)]) == 2
    err = capsys.readouterr().err
    assert "levels deep" in err and "Traceback" not in err


# -- DOT output --------------------------------------------------------------------

def test_dot_output(tmp_path, d13):
    space, _ = d13
    path = tmp_path / "space.dot"
    write_dot(str(path), space)
    text = path.read_text()
    assert text.startswith("graph diamond {")
    assert text.rstrip().endswith("}")
    assert 'n0 [xlabel="top"]' in text
    edges = [line for line in text.splitlines() if " -- " in line]
    assert len(edges) == 6
    assert all('label="1/1"' in line for line in edges)


def test_dot_output_escapes_labels(tmp_path):
    labels = ["top", 'bot"tom', "mid", "a\\b", "e"]
    flat = [[0 if i == j else 2 for j in range(5)] for i in range(5)]
    space = MetricSpace.from_scaled(labels, flat, 1, 0)
    path = tmp_path / "space.dot"
    write_dot(str(path), space)
    text = path.read_text()
    assert 'n1 [xlabel="bot\\"tom"];' in text
    assert 'n3 [xlabel="a\\\\b"];' in text


# -- Report files -------------------------------------------------------------------

def _toy_report():
    rows = (CheckResult("metric-oracle", "distances agree", "pass",
                        "64502 pairs agree"),
            CheckResult("depth-game", "games verify", "skip",
                        "budget: too small"))
    return SuiteReport("0.1.0", 3, 1000, rows)


def test_report_roundtrip(tmp_path):
    report = _toy_report()
    path = tmp_path / "report.txt"
    write_report(str(path), report)
    first = _bytes(path)
    write_report(str(path), report)
    assert _bytes(path) == first
    loaded = read_report(str(path))
    assert loaded == report
    assert loaded.verdict == "pass"
    assert "wall" not in path.read_text()


def test_report_verdict_consistency(tmp_path):
    path = tmp_path / "report.txt"
    write_report(str(path), _toy_report())
    path.write_text(path.read_text().replace("verdict pass", "verdict fail"))
    with pytest.raises(FormatError, match="contradicts"):
        read_report(str(path))
    path2 = tmp_path / "bad.txt"
    write_report(str(path2), _toy_report())
    path2.write_text(path2.read_text().replace(
        "metric-oracle pass", "metric-oracle maybe"))
    with pytest.raises(FormatError, match="unknown status"):
        read_report(str(path2))


@pytest.mark.parametrize("extra", ["check x pass | claim | details",
                                   "verdict pass"])
def test_report_refuses_records_after_end(tmp_path, extra):
    path = tmp_path / "report.txt"
    write_report(str(path), _toy_report())
    text = path.read_text()
    path.write_text(f"{text}\n{extra}\nverdict pass\n")
    line = len(text.splitlines()) + 2  # past the blank line
    keyword = extra.split()[0]
    with pytest.raises(FormatError,
                       match=f":{line}: '{keyword}' record after 'end'"):
        read_report(str(path))


def test_report_of_skipped_checks_does_not_pass(tmp_path):
    rows = (CheckResult("depth-game", "games verify", "skip",
                        "budget: too small"),)
    report = SuiteReport("0.1.0", 3, 0, rows)
    assert report.verdict == "fail"
    assert SuiteReport("0.1.0", 3, 0, ()).verdict == "fail"
    path = tmp_path / "report.txt"
    write_report(str(path), report)
    path.write_text(path.read_text().replace("verdict fail", "verdict pass"))
    with pytest.raises(FormatError, match="contradicts"):
        read_report(str(path))


# -- Command line --------------------------------------------------------------------

def test_cli_gen_dist_norm_flow(tmp_path, capsys):
    space_file = str(tmp_path / "d23.txt")
    assert cli.main(["gen", "--alpha", "2", "--branches", "3",
                     "--out", space_file]) == 0
    out = capsys.readouterr().out
    assert "23 points" in out and "mid(1)" in out

    assert cli.main(["dist", "--space", space_file,
                     "--x", "top", "--y", "bottom"]) == 0
    assert capsys.readouterr().out.strip() == "2/1"

    space, _, _ = read_space(space_file)
    vec_file = str(tmp_path / "vec.txt")
    write_vector(vec_file, molecule(space, 0, 1), DiamondSpec(2, 3))
    cert_file = str(tmp_path / "cert.txt")
    assert cli.main(["norm", "--space", space_file, "--vector", vec_file,
                     "--certificate", cert_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1/1"
    assert verify_certificate(read_certificate(cert_file, space))


def test_cli_gen_writes_dot(tmp_path, capsys):
    space_file = str(tmp_path / "d13.txt")
    dot_file = str(tmp_path / "d13.dot")
    assert cli.main(["gen", "--alpha", "1", "--branches", "3",
                     "--out", space_file, "--dot", dot_file]) == 0
    capsys.readouterr()
    assert "graph diamond" in open(dot_file).read()


def test_cli_gen_into_a_missing_directory_names_the_target(tmp_path, capsys):
    out = str(tmp_path / "missing" / "s.txt")
    assert cli.main(["gen", "--alpha", "2", "--branches", "3",
                     "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {out!r}\n")
    assert not (tmp_path / "missing").exists()


def test_cli_extend(tmp_path, capsys):
    space_file = str(tmp_path / "d13.txt")
    cli.main(["gen", "--alpha", "1", "--branches", "3", "--out", space_file])
    space, _, _ = read_space(space_file)
    func_file = str(tmp_path / "partial.txt")
    write_function(func_file,
                   LipschitzFunction(space, {0: Fraction(0), 1: Fraction(2)}))
    out_file = str(tmp_path / "total.txt")
    assert cli.main(["extend", "--space", space_file, "--function", func_file,
                     "--out", out_file]) == 0
    out = capsys.readouterr().out
    assert "constant 1/1" in out
    total = read_function(out_file, space)
    assert total.is_total


def test_cli_game_and_verify(tmp_path, capsys):
    game_file = str(tmp_path / "game.txt")
    assert cli.main(["game", "--alpha", "2", "--branches", "3",
                     "--depth", "2", "--adversary", "distance_functions",
                     "--out", game_file]) == 0
    out = capsys.readouterr().out
    assert "7 nodes verified" in out

    assert cli.main(["verify", "--transcript", game_file]) == 0
    assert "pass: 7 nodes verified" in capsys.readouterr().out

    text = open(game_file).read()
    line = next(l for l in text.splitlines() if l.startswith("rentry root 0"))
    tampered = text.replace(line, " ".join(line.split()[:-1]) + " 9/1")
    open(game_file, "w").write(tampered)
    assert cli.main(["verify", "--transcript", game_file]) == 1
    captured = capsys.readouterr()
    assert "fail root" in captured.err


def test_cli_verify_out_keeps_the_echo(tmp_path, capsys):
    game_file = str(tmp_path / "game.txt")
    rewritten = str(tmp_path / "verified.txt")
    assert cli.main(["game", "--alpha", "2", "--branches", "3",
                     "--depth", "2", "--adversary", "distance_functions",
                     "--out", game_file]) == 0
    assert cli.main(["verify", "--transcript", game_file,
                     "--out", rewritten]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--transcript", rewritten]) == 0
    assert "pass: 7 nodes verified" in capsys.readouterr().out
    assert open(rewritten).read() == open(game_file).read()


def test_cli_insufficient_branching_advice(tmp_path, capsys):
    code = cli.main(["game", "--alpha", "1", "--branches", "2",
                     "--depth", "1", "--adversary", "distance_functions",
                     "--out", str(tmp_path / "g.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert "--branches 3" in captured.err


def test_cli_budget_exit_code(tmp_path, capsys):
    code = cli.main(["gen", "--alpha", "3", "--branches", "4",
                     "--budget-points", "100",
                     "--out", str(tmp_path / "big.txt")])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget exceeded" in captured.err


@pytest.mark.parametrize("alpha", ["900", "2000", "20000"])
def test_cli_refuses_a_tall_stage_by_its_budget(tmp_path, capsys, alpha):
    # Past 18 digits the message gives the point count's first two digits
    # and its order of magnitude: at alpha 2000 and 20000 the count has
    # more digits than Python converts to decimal by default.
    out = tmp_path / "tall.txt"
    code = cli.main(["gen", "--alpha", alpha, "--branches", "2",
                     "--out", str(out)])
    assert code == 3
    found = re.fullmatch(r"budget exceeded: spec needs at least (\d)\.(\d)"
                         r"e(\d+) points, budget is 16384\n",
                         capsys.readouterr().err)
    assert found is not None
    lead, unit = int(found[1] + found[2]), 10 ** (int(found[3]) - 1)
    count = estimate_points(DiamondSpec(int(alpha), 2))
    assert 10 <= lead and lead * unit <= count < (lead + 1) * unit
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    ["--alpha", "1000000", "--branches", "3"],
    ["--alpha", "99999999999999999999999", "--branches", "3"],
    ["--alpha", "w", "--branches", "3", "--limit-width", "100000000"],
    ["--alpha", "w^(w^(w))", "--branches", "2", "--limit-width", "40"],
])
def test_cli_refuses_a_stage_far_past_its_budget_at_once(tmp_path, capsys,
                                                         spec):
    # The guard refuses each without forming its count, so it names a
    # lower bound on it, as "at least".
    out = tmp_path / "huge.txt"
    with within(2):
        code = cli.main(["gen", *spec, "--out", str(out)])
    assert code == 3
    assert re.fullmatch(r"budget exceeded: spec needs at least \S+ points, "
                        r"budget is 16384\n", capsys.readouterr().err)
    assert not out.exists()


def test_cli_refuses_an_echo_far_past_its_budget_at_once(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("diamondlab space 1\n"
                    "spec alpha=w branches=3 limit-width=100000000\n"
                    "points 2\nbase top\nend\n\n")
    with within(2):
        code = cli.main(["dist", "--space", str(path), "--x", "top",
                         "--y", "bottom"])
    assert code == 3
    assert "budget exceeded: spec needs at least" in capsys.readouterr().err


def test_deep_ordinal_nesting_is_a_usage_error(tmp_path, capsys):
    alpha = "w^(" * 400 + "w" + ")" * 400
    out = tmp_path / "deep.txt"
    code = cli.main(["gen", "--alpha", alpha, "--branches", "3",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "nested more than" in err and "Traceback" not in err
    assert not out.exists()
    path = tmp_path / "echo.txt"
    path.write_text(f"diamondlab space 1\nspec alpha={alpha} branches=3 "
                    f"limit-width=3\npoints 2\nbase top\nend\n")
    with pytest.raises(FormatError, match=r"echo\.txt:2: .*nested more than"):
        read_space(str(path))
    assert cli.main(["dist", "--space", str(path), "--x", "top",
                     "--y", "bottom"]) == 2
    assert "nested more than" in capsys.readouterr().err


def test_cli_suite_that_skips_every_check_fails(tmp_path, capsys):
    report_file = str(tmp_path / "report.txt")
    code = cli.main(["suite", "--budget-points", "0",
                     "--report", report_file])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.count("skip ") == 10
    assert "verdict: fail" in captured.out
    assert read_report(report_file).verdict == "fail"


def test_cli_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["gen", "--branches", "3", "--out", "x.txt"])
    assert info.value.code == 2
    capsys.readouterr()

    code = cli.main(["gen", "--alpha", "bogus", "--branches", "3",
                     "--out", str(tmp_path / "x.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err

    code = cli.main(["dist", "--space", str(tmp_path / "missing.txt"),
                     "--x", "a", "--y", "b"])
    captured = capsys.readouterr()
    assert code == 2

    # A bad number on the command line is named without a file location.
    with pytest.raises(SystemExit) as info:
        cli.main(["game", "--alpha", "2", "--branches", "3", "--eta", "x/1",
                  "--out", str(tmp_path / "g.txt")])
    assert info.value.code == 2
    assert ("argument --eta: not an exact rational: 'x/1'"
            in capsys.readouterr().err)


def test_cli_dist_unknown_label(tmp_path, capsys):
    space_file = str(tmp_path / "d13.txt")
    cli.main(["gen", "--alpha", "1", "--branches", "3", "--out", space_file])
    capsys.readouterr()
    code = cli.main(["dist", "--space", space_file,
                     "--x", "top", "--y", "nowhere"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no point labeled 'nowhere'" in captured.err


def test_cli_decomp(tmp_path, capsys):
    report_file = str(tmp_path / "decomp-report.txt")
    part_file = str(tmp_path / "partition.txt")
    code = cli.main(["decomp", "--alpha", "w", "--branches", "3",
                     "--limit-width", "3", "--count", "5",
                     "--out", part_file, "--report", report_file])
    captured = capsys.readouterr()
    assert code == 0
    assert "verdict: pass" in captured.out
    report = read_report(report_file)
    assert report.passed
    assert [row.check_id for row in report.results] == [
        "decomp-cover", "decomp-constants", "decomp-additivity",
        "decomp-projection"]
    from diamondlab import OMEGA

    space, lm = build_cached(DiamondSpec(OMEGA, 3, 3))
    # The partition file targets the bottom-half restriction, not the
    # ambient space, so it reads back against that restriction.
    from diamondlab import build_cover, cover_partition

    cover = build_cover(space, lm)
    sub, _, partition = cover_partition(space, lm, cover.bottom_half,
                                        lm.bottom)
    loaded = read_partition(part_file, sub)
    assert loaded.base == partition.base
    assert tuple(tuple(sorted(m)) for m in loaded.summands) == tuple(
        tuple(sorted(m)) for m in partition.summands)


def test_cli_decomp_report_is_frozen(tmp_path, capsys):
    # A report holds no wall time, so its bytes pin the constants.
    path = tmp_path / "decomp.txt"
    code = cli.main(["decomp", "--alpha", "w", "--branches", "3",
                     "--count", "5", "--seed", "0", "--report", str(path)])
    capsys.readouterr()
    assert code == 0
    assert _bytes(path) == (GOLDEN / "decomp_w_n3_seed0.txt").read_bytes()


def test_decomp_and_the_suite_fail_with_one_row(monkeypatch, capsys):
    real = decomposition.equivalence_constants
    monkeypatch.setattr(
        decomposition, "equivalence_constants",
        lambda *args: dataclasses.replace(real(*args), c_low=Fraction(1, 4)))
    code = cli.main(["decomp", "--alpha", "w", "--branches", "3"])
    assert code == 1
    assert ("fail decomp-constants: c_low 1/4, c_high 1/1\n"
            in capsys.readouterr().out)
    result = run_check("summing-constants", SuiteConfig())
    assert (result.status, result.details) == (
        "fail", "decomp-constants: c_low 1/4, c_high 1/1")


def test_determinism_roundtrip_leaves_no_files(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    result = run_check("determinism-roundtrip", SuiteConfig())
    assert result.status == "pass", result.details
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_decomp_refuses_a_count_below_one(count, capsys):
    code = cli.main(["decomp", "--alpha", "w", "--branches", "3",
                     "--count", count])
    captured = capsys.readouterr()
    assert code == 2
    assert "count must be at least 1" in captured.err
    assert "verdict" not in captured.out


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_cli_suite_refuses_a_seed_out_of_range(seed, capsys):
    code = cli.main(["suite", "--seed", seed])
    captured = capsys.readouterr()
    assert code == 2
    assert "seed must be an unsigned 64-bit integer" in captured.err
    assert captured.out == ""


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


# -- Demo output --------------------------------------------------------------

def test_demo_stage2_files_are_frozen(tmp_path, d23):
    space, lm = d23
    write_space(str(tmp_path / "stage2.txt"), space, lm, DiamondSpec(2, 3))
    write_dot(str(tmp_path / "stage2.dot"), space)
    for name in ("stage2.txt", "stage2.dot"):
        assert (_bytes(tmp_path / name)
                == (ROOT / "demos" / "output" / name).read_bytes())
