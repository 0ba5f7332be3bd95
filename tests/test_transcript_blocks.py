"""Transcript reading in blocks.

Core claims checked here:
  * a family's ``fvalue`` lines and each ``tentry``/``rentry`` run are
    taken as blocks when they are the writer's, and the document read
    that way equals the one read record by record (a blank line or a
    respaced line inside every block forces that path), for every
    adversary kind and every mutation kind;
  * a run that is not the writer's, even the last one after blocks were
    taken, or one holding bytes that are not UTF-8, restarts the read
    record by record, which gives the record reader's document or error;
  * a damaged value inside a block is still reported at its own line;
  * a family that no move references is refused at its own line.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from diamondlab import (ADVERSARY_KINDS, MUTATION_KINDS, AdversaryConfig,
                        DiamondSpec, FormatError, Sampler, mutate_transcript,
                        prover_certify, verify_transcript, walk_nodes)
from diamondlab import io as dio
from diamondlab.io import TranscriptDocument, read_transcript, write_transcript

ETA = Fraction(1, 10)
GOLDEN = Path(__file__).resolve().parent / "golden"
_RUN = re.compile(r"(fvalue \d+|tentry \S+|rentry \S+ \d+) ")


def _run_key(line):
    match = _RUN.match(line)
    return match and match.group(1)


def _broken(text, how):
    """The text with every run of ``fvalue``, ``tentry`` and ``rentry``
    lines that has a second line broken after its first: by a blank line,
    or by spelling the second line with a doubled space, which the record
    reader accepts."""
    lines = text.split("\n")
    out = []
    for k, line in enumerate(lines):
        key = _run_key(line)
        if key and 0 < k and _run_key(lines[k - 1]) == key and (
                k < 2 or _run_key(lines[k - 2]) != key):
            if how == "blank":
                out.append("")
            else:
                line = line.replace(" ", "  ", 1)
        out.append(line)
    return "\n".join(out)


@pytest.fixture
def taken_runs(monkeypatch):
    """Counts of the runs ``take_run`` takes as blocks, and of its calls
    that take none (a read with runs off)."""
    counts = {"taken": 0, "handed back": 0}
    original = dio._Reader.take_run

    def spy(self, prefix, parse):
        result = original(self, prefix, parse)
        counts["handed back" if result is None else "taken"] += 1
        return result

    monkeypatch.setattr(dio._Reader, "take_run", spy)
    return counts


def _documents(tmp_path, transcript, counts):
    """The document read from the written file, and those read from the
    same file with every block broken by a blank line or a respaced
    line."""
    path = tmp_path / "game.txt"
    write_transcript(str(path), TranscriptDocument(transcript),
                     DiamondSpec(2, 3))
    text = path.read_text()
    blocked, _, _ = read_transcript(str(path))
    assert counts["taken"] > 0 and counts["handed back"] == 0
    recorded = []
    for how in ("blank", "respaced"):
        broken = tmp_path / f"{how}.txt"
        broken.write_text(_broken(text, how))
        assert broken.read_text() != text
        counts["taken"] = 0
        recorded.append(read_transcript(str(broken))[0])
        assert counts["taken"] == 0 and counts["handed back"] > 0
    return blocked, recorded


def _same(a, b):
    assert a.transcript.root == b.transcript.root
    assert a.transcript.adversary == b.transcript.adversary
    assert a.statuses == b.statuses
    assert a.spec == b.spec


def _read_by_records(monkeypatch, path):
    """``read_transcript`` with ``take_run`` taking no run: the reference
    read, record by record."""
    with monkeypatch.context() as patch:
        patch.setattr(dio._Reader, "take_run",
                      lambda self, prefix, parse: None)
        return read_transcript(str(path))


@pytest.mark.parametrize("kind", ADVERSARY_KINDS)
def test_block_reading_equals_record_reading(tmp_path, d23, taken_runs,
                                             kind):
    space, lm = d23
    transcript = prover_certify(space, lm, 2,
                                AdversaryConfig(kind, 3, ETA, 5))
    blocked, recorded = _documents(tmp_path, transcript, taken_runs)
    for other in recorded:
        _same(blocked, other)
    assert blocked.transcript.root == transcript.root


@pytest.mark.parametrize("mutation", MUTATION_KINDS)
def test_block_reading_equals_record_reading_on_mutants(tmp_path, d23,
                                                        taken_runs,
                                                        mutation):
    space, lm = d23
    transcript = prover_certify(space, lm, 2, AdversaryConfig(
        "random_lipschitz", 3, ETA, 5))
    mutant = mutate_transcript(transcript, mutation, Sampler(3))
    blocked, recorded = _documents(tmp_path, mutant, taken_runs)
    for other in recorded:
        _same(blocked, other)
    # A shifted functional is a second family, read as a second block.
    families = {move.neighborhood.functionals
                for _, node in walk_nodes(blocked.transcript.root)
                for move in node.moves}
    assert len(families) == (2 if mutation == "shift-functional" else 1)
    # A file states no centers: read neighborhoods are centered at their
    # node's target, so a tampered subtree target reads back recentered.
    assert not verify_transcript(space, blocked.transcript).passed


def test_a_last_run_not_as_written_restarts_after_blocks(tmp_path, d23,
                                                         taken_runs,
                                                         monkeypatch):
    space, lm = d23
    transcript = prover_certify(space, lm, 2, AdversaryConfig(
        "adaptive_dual", 3, ETA, 5))
    path = tmp_path / "game.txt"
    write_transcript(str(path), TranscriptDocument(transcript),
                     DiamondSpec(2, 3))
    lines = path.read_text().split("\n")
    last = max(k for k, line in enumerate(lines) if line.startswith("rentry "))
    assert _run_key(lines[last - 1]) == _run_key(lines[last])
    lines[last] = lines[last].replace(" ", "  ", 1)
    path.write_text("\n".join(lines))
    got = read_transcript(str(path))[0]
    # Blocks were taken up to the last run; the second read took none.
    assert taken_runs["taken"] > 0 and taken_runs["handed back"] > 0
    _same(got, _read_by_records(monkeypatch, path)[0])
    assert got.transcript.root == transcript.root


@pytest.mark.parametrize("kind", ["fvalue", "tentry", "rentry"])
def test_bytes_that_are_not_utf8_inside_a_run_fail_as_records_do(
        tmp_path, d33, monkeypatch, kind):
    space, lm = d33
    transcript = prover_certify(space, lm, 3, AdversaryConfig(
        "adaptive_dual", 3, ETA, 5))
    path = tmp_path / "game.txt"
    write_transcript(str(path), TranscriptDocument(transcript),
                     DiamondSpec(3, 3))
    lines = path.read_bytes().split(b"\n")
    run = [k for k, line in enumerate(lines)
           if line.startswith(kind.encode() + b" ")]
    k = [k for k in run if k - 1 in run][-1]
    start = k - 1
    while start - 1 in run:
        start -= 1
    # Trailing spaces on the record before the run move line k to start
    # 10 bytes before an 8192-byte decoding chunk ends, so the bad byte
    # at its end is decoded while the run is read.
    offset = sum(len(line) + 1 for line in lines[:k])
    lines[start - 1] += b" " * ((8192 - 10 - offset) % 8192)
    lines[k] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    restarted = []
    take_run = dio._Reader.take_run

    def spy(self, prefix, parse):
        try:
            return take_run(self, prefix, parse)
        except dio._NotAsWritten:
            restarted.append(prefix)
            raise

    monkeypatch.setattr(dio._Reader, "take_run", spy)
    with pytest.raises(FormatError) as got:
        read_transcript(str(path))
    assert [prefix.split()[0] for prefix in restarted] == [kind]
    with pytest.raises(FormatError) as expected:
        _read_by_records(monkeypatch, path)
    assert "not UTF-8" in str(got.value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("kind", ["fvalue", "tentry", "rentry"])
def test_damaged_value_inside_a_block_names_its_line(tmp_path, d23, kind):
    space, lm = d23
    transcript = prover_certify(space, lm, 2, AdversaryConfig(
        "adaptive_dual", 3, ETA, 5))
    path = tmp_path / "game.txt"
    write_transcript(str(path), TranscriptDocument(transcript),
                     DiamondSpec(2, 3))
    lines = path.read_text().split("\n")
    run = [k for k, line in enumerate(lines) if line.startswith(kind + " ")]
    k = run[len(run) // 2] if kind == "fvalue" else run[1]
    assert _run_key(lines[k - 1]) == _run_key(lines[k])
    lines[k] = lines[k].rsplit(" ", 1)[0] + " x/1"
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError) as info:
        read_transcript(str(path))
    assert str(info.value) == f"{path}:{k + 1}: not an exact rational: 'x/1'"


def test_unreferenced_family_is_refused(tmp_path):
    text = (GOLDEN / "transcript_d23_distance_functions.txt").read_text()
    lines = text.split("\n")
    assert lines[3] == "families 1"
    lines[3] = "families 2"
    at = next(k for k, line in enumerate(lines) if line.startswith("node "))
    lines[at:at] = ["family 1 size 1", "fvalue 1 0 top 5/1"]
    path = tmp_path / "game.txt"
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError) as info:
        read_transcript(str(path))
    assert str(info.value) == (f"{path}:{at + 1}: family 1 is referenced by "
                               f"no move")
