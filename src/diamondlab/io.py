"""Canonical text formats for spaces, vectors, functions and transcripts.

Every writer emits a deterministic byte sequence for equal in-memory
values: entries are ordered by point index, fractions appear in lowest
terms with an explicit denominator, and files end with an ``end`` line.
Readers parse records, the whitespace-separated tokens of a line, in
writer order; blank lines are skipped and a fraction need not be in
lowest terms, so files spelled other than the writer spells them still
read.  Only blank lines may follow the ``end`` line.  Anything else
raises :class:`~diamondlab.errors.FormatError` with a line.  Parsed
values are the shared ``Fraction`` objects of
:func:`diamondlab.metric.fraction`.

Two readers first try the writer's exact spelling, and on anything else
read the file again from its first line on the record parser, so other
spellings read and every error keeps its message, line and precedence.
:func:`read_space` compares a file that has a construction echo, byte
for byte, with the text the writer gives the rebuilt stage, and returns
the rebuilt space when they are identical.  :func:`read_transcript`
takes a run of lines that share a prefix as one block when it is the
writer's: a family's ``fvalue`` lines, checked against the writer's
heads in one pass and each distinct value text parsed once, and a
node's ``tentry`` or a move's ``rentry`` lines, each distinct run built
into its vector once per read, since targets and responses repeat down
a tree.

Writers stream their lines into a temporary file renamed over the
target, so a writer that fails leaves no file.  Every ``label value``
line is spelled from a vector's or function's integers by one formatter.
A space is refused, whatever the file names of it, when one of its
labels is empty or holds whitespace, since no reader could take it back.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator, Optional, TypeVar

import numpy as np

from .derivation import (AdversaryConfig, GameNode, GameTranscript, Move,
                         VerificationReport, WeakNeighborhood, walk_nodes)
from .diamond import (DEFAULT_BUDGET, DiamondLandmarks, DiamondSpec,
                      build_cached, finest_edges)
from .decomposition import SummandPartition, check_partition
from .errors import BudgetExceededError, FormatError
from .freespace import FreeVector, TransportCertificate
from .lipschitz import LipschitzFunction
from .metric import MetricSpace, fraction, narrowest, value_lookup
from .ordinal import format_ordinal, parse_ordinal

__all__ = [
    "format_fraction",
    "parse_fraction",
    "write_space",
    "read_space",
    "write_vector",
    "read_vector",
    "write_function",
    "read_function",
    "write_certificate",
    "read_certificate",
    "write_partition",
    "read_partition",
    "TranscriptDocument",
    "write_transcript",
    "read_transcript",
    "write_dot",
]

_FRACTION_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")
_T = TypeVar("_T")


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _parse_ratio(text: str) -> tuple[int, int]:
    """Numerator and positive denominator of "p/q" or a plain integer, as
    written (not reduced); no floats."""
    if not _FRACTION_RE.match(text):
        raise FormatError(f"not an exact rational: {text!r}")
    numerator, _, denominator = text.partition("/")
    return int(numerator), int(denominator or 1)


def parse_fraction(text: str) -> Fraction:
    """Exact rational from "p/q" or a plain integer; no floats.

    The value is the shared object of :func:`diamondlab.metric.fraction`.
    """
    return fraction(*_parse_ratio(text))


def _ratio_text(numerator: int, denominator: int) -> str:
    """``numerator / denominator`` in lowest terms, as "p/q"."""
    common = math.gcd(numerator, denominator)
    return f"{numerator // common}/{denominator // common}"


class _NotAsWritten(Exception):
    """A run of lines was read but is not the writer's; the lines cannot
    be read again, so the read starts over with runs off."""


class _Reader:
    """Streaming token-line cursor with one-line lookahead and located
    errors.

    The file is read one line at a time.  Blank lines are skipped but
    counted, so errors name physical line numbers.  As a context manager
    around a whole read, it closes the file and turns any other
    ``ValueError`` into a :class:`FormatError` at the current line.  A
    ``FormatError`` that does not name the file yet, such as a bad
    number from :func:`parse_fraction`, is located the same way.

    With ``runs`` on, :meth:`take_run` takes a run of lines that share a
    prefix as one block; with it off, every line is read as a record.
    """

    def __init__(self, path: str, runs: bool = True):
        self.path = path
        self.runs = runs
        self._fh = open(path, "r", encoding="utf-8")
        self._read = 0  # physical lines read so far
        self._ahead: Optional[list[str]] = None  # [] at end of file
        self.lineno = 0  # physical line of the last record taken

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        self._fh.close()
        if (isinstance(exc, ValueError)
                and not str(exc).startswith(f"{self.path}:")):
            raise self.error(str(exc)) from exc

    def error(self, message: str, line: Optional[int] = None
              ) -> FormatError:
        """``message`` located at ``line``, by default the last record's."""
        return FormatError(f"{self.path}:{line or self.lineno}: {message}")

    def peek(self) -> Optional[list[str]]:
        """The next record's tokens, or None at end of file."""
        try:
            while self._ahead is None:
                line = self._fh.readline()
                self._read += 1
                # A blank line leaves None, to read on; end of file gives [].
                self._ahead = line.split() or (None if line else [])
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: not UTF-8 text: {exc}") from None
        return self._ahead or None

    def next(self) -> list[str]:
        tokens = self.peek()
        if tokens is None:
            raise FormatError(f"{self.path}: unexpected end of file")
        self.lineno, self._ahead = self._read, None
        return tokens

    def take_run(self, prefix: str, parse: Callable[[list[str]], _T]
                 ) -> Optional[_T]:
        """``parse`` of the physical lines, from the next one on, that
        start with ``prefix``.  Returns None, having read nothing, when
        runs are off or the next record was already looked at.

        The run must end at the end of the file or at a nonblank line of
        another keyword than the prefix's first word, and ``parse`` must
        not return None; otherwise, or at bytes that are not UTF-8, the
        lines read are lost and :class:`_NotAsWritten` is raised.
        """
        if not self.runs or self._ahead is not None:
            return None
        lines: list[str] = []
        end = ""  # the line after the run; "" at the end of the file
        try:
            for line in self._fh:
                if not line.startswith(prefix):
                    end = line
                    break
                lines.append(line)
        except UnicodeDecodeError:
            raise _NotAsWritten from None
        tokens = end.split()
        if end and (not tokens or tokens[0] == prefix.split()[0]):
            raise _NotAsWritten  # a blank or respelled line of the run
        result = parse(lines)
        if result is None:
            raise _NotAsWritten
        if lines:
            self._read += len(lines)
            self.lineno = self._read
        # The line after the run is the lookahead, as ``peek`` leaves it.
        self._ahead = tokens
        self._read += bool(end)
        return result

    def run(self, keyword: str, size: int = 1) -> Iterator[list[str]]:
        """The consecutive ``keyword`` records from here on, each of
        which must carry at least ``size`` tokens, keyword included."""
        while (tokens := self.peek()) and tokens[0] == keyword:
            self.lineno, self._ahead = self._read, None
            if len(tokens) < size:
                raise self.error(f"truncated {keyword!r} line")
            yield tokens

    def end(self) -> None:
        """The ``end`` record, which must be the last nonblank line."""
        self.expect("end")
        self.last()

    def last(self) -> None:
        """Refuse any record after the ``end`` record just taken; blank
        lines may follow it."""
        if self.peek() is not None:
            keyword = self.next()[0]  # taken, so the error names its line
            raise self.error(f"{keyword!r} record after 'end'")

    def expect(self, keyword: str, size: int = 1) -> list[str]:
        """The next record, which must be a ``keyword`` record of at
        least ``size`` tokens."""
        for tokens in self.run(keyword, size):
            return tokens
        found = self.next()[0]  # taken, so the error names its line
        raise self.error(f"expected {keyword!r}, found {found!r}")


def _write(path: str, lines: Iterable[str]) -> None:
    """Stream ``lines``, each ended by a newline, into a file beside
    ``path`` and rename it over ``path``, so a writer that fails leaves no
    partial file behind.  A "line" may be a text of several."""
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(temporary, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        # Name the file the caller asked for, not the temporary beside it.
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            for line in lines:
                fh.write(f"{line}\n")
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


def _holds(path: str, lines: Iterable[str]) -> bool:
    """Whether the file at ``path`` is exactly what :func:`_write` writes
    for ``lines``, compared one line's bytes at a time."""
    with open(path, "rb") as fh:
        for line in lines:
            data = f"{line}\n".encode()
            if fh.read(len(data)) != data:
                return False
        return not fh.read(1)


def _header(kind: str) -> str:
    return f"diamondlab {kind} 1"


def _check_header(rd: _Reader, kind: str) -> None:
    tokens = rd.next()
    if tokens != ["diamondlab", kind, "1"]:
        raise rd.error(f"not a diamondlab {kind} file")


# ---------------------------------------------------------------------------
# spec echo lines


def _spec_fields(spec: DiamondSpec) -> str:
    return (f"alpha={format_ordinal(spec.alpha)} "
            f"branches={spec.branches} limit-width={spec.limit_width}")


def _spec_line(spec: Optional[DiamondSpec]) -> str:
    return "spec none" if spec is None else f"spec {_spec_fields(spec)}"


def _fields(rd: _Reader, tokens: list[str],
            required: tuple[str, ...] = ()) -> dict[str, str]:
    """``key=value`` tokens as a dict, with every required key present."""
    fields = {}
    for tok in tokens:
        if "=" not in tok:
            raise rd.error(f"malformed field {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
    for key in required:
        if key not in fields:
            raise rd.error(f"missing field {key!r}")
    return fields


def _spec_from_fields(rd: _Reader, fields: dict[str, str]) -> DiamondSpec:
    missing = {"alpha", "branches", "limit-width"} - fields.keys()
    if missing:
        raise rd.error(f"missing field {min(missing)!r}")
    return DiamondSpec(parse_ordinal(fields["alpha"]),
                       int(fields["branches"]), int(fields["limit-width"]))


def _check_labels(space: MetricSpace) -> None:
    """Refuse a space with a label that is empty or holds whitespace,
    which no reader could take back, naming the first in point order.
    Splitting the joined labels gives them back exactly when all are
    fit, so the check is one pass in C."""
    labels = space.labels
    if " ".join(labels).split() != list(labels):
        bad = next(label for label in labels if label.split() != [label])
        raise FormatError(f"label {bad!r} is empty or contains whitespace")


def _space_line(space: MetricSpace, spec: Optional[DiamondSpec]) -> str:
    """The ``space`` line that binds a file to ``space``, whose labels
    are checked here."""
    _check_labels(space)
    head = "space" if spec is None else f"space {_spec_fields(spec)}"
    return f"{head} points={len(space)} base={space.label(space.base_point)}"


def _read_space_line(rd: _Reader, space: Optional[MetricSpace] = None,
                     landmarks: Optional[DiamondLandmarks] = None,
                     budget: int = DEFAULT_BUDGET
                     ) -> tuple[MetricSpace, Optional[DiamondLandmarks],
                                Optional[DiamondSpec]]:
    """The ``space`` line: its construction echo, and the space the file
    binds to, rebuilt from the echo when none is given."""
    fields = _fields(rd, rd.expect("space")[1:])
    spec = _spec_from_fields(rd, fields) if "alpha" in fields else None
    if space is None:
        if spec is None:
            raise rd.error("file has no construction echo; a space must "
                           "be supplied")
        space, landmarks = build_cached(spec, budget)
    if "points" in fields and int(fields["points"]) != len(space):
        raise rd.error(f"file was written for a {fields['points']}-point "
                       f"space, got {len(space)} points")
    if "base" in fields and fields["base"] != space.label(space.base_point):
        raise rd.error("file was written for a space with a different "
                       "base point")
    return space, landmarks, spec


def _index_of(rd: _Reader, space: MetricSpace, label: str) -> int:
    try:
        return space.index_of(label)
    except KeyError:
        raise rd.error(f"unknown point label {label!r}")


def _labelled_lines(head: str, space: MetricSpace,
                    value: FreeVector | LipschitzFunction) -> list[str]:
    """The ``head label value`` lines of a vector's or a function's
    entries, in point order, spelled from its integers: each distinct
    numerator is formatted once."""
    idx, nums, den = value.integer_scaled()
    texts = {n: _ratio_text(n, den) for n in set(nums)}
    labels = space.labels
    return [f"{head} {labels[i]} {texts[n]}"
            for i, n in zip(np.asarray(idx).tolist(), nums)]


def _read_labelled(rd: _Reader, space: MetricSpace,
                   keyword: str) -> list[tuple[int, Fraction]]:
    """The run of ``keyword label value`` lines, as (index, value)."""
    return [(_index_of(rd, space, tokens[1]), parse_fraction(tokens[2]))
            for tokens in rd.run(keyword, 3)]


# ---------------------------------------------------------------------------
# spaces


def _dist_rows(space: MetricSpace) -> Iterator[str]:
    """The ``dist`` lines of each row i < n - 1, as one text per row.

    Each distinct value is formatted once, and a row is one join of its
    pieces, so a row costs O(n) temporaries.
    """
    n = len(space)
    mat, scale = space._stored()
    ends = value_lookup(mat, lambda v: f"{_ratio_text(v, scale)}\n")
    heads = [f"{j} " for j in range(n)]
    for i in range(n - 1):
        parts = [f"dist {i} "] * (3 * (n - 1 - i))
        parts[1::3] = heads[i + 1:]
        parts[2::3] = ends(mat[i, i + 1:]).tolist()
        parts[-1] = parts[-1][:-1]  # the row's last line has no newline
        yield "".join(parts)


def _space_lines(space: MetricSpace,
                 landmarks: Optional[DiamondLandmarks],
                 spec: Optional[DiamondSpec]) -> Iterator[str]:
    """The lines of a space file, each row of ``dist`` lines as one."""
    _check_labels(space)
    n = len(space)
    yield from (_header("space"), _spec_line(spec), f"points {n}",
                f"base {space.label(space.base_point)}")
    for i in range(n):
        yield f"point {i} {space.label(i)}"
    if landmarks is not None:
        for name, i in (("top", landmarks.top), ("bottom", landmarks.bottom),
                        ("ell", landmarks.ell)):
            yield f"landmark {name} {space.label(i)}"
        for k, m in enumerate(landmarks.mids, start=1):
            yield f"landmark mid {k} {space.label(m)}"
    yield from _dist_rows(space)
    yield "end"


def write_space(path: str, space: MetricSpace,
                landmarks: Optional[DiamondLandmarks] = None,
                spec: Optional[DiamondSpec] = None) -> None:
    _write(path, _space_lines(space, landmarks, spec))


def read_space(path: str, budget: int = DEFAULT_BUDGET
               ) -> tuple[MetricSpace, Optional[DiamondLandmarks],
                          Optional[DiamondSpec]]:
    """Load a space file; re-derive landmarks when a spec echo is present.

    With a spec echo the construction is rebuilt through the cache and
    checked against the stored labels and distances, so vectors written
    against the file bind to the shared space object.  Without one, the
    stored table must pass :meth:`MetricSpace.validate_metric`.

    A file that is byte for byte what :func:`write_space` writes for the
    rebuilt stage is not parsed further; any other file is parsed record
    by record from its ``points`` line on.
    """
    with _Reader(path) as rd:
        _check_header(rd, "space")
        tokens = rd.expect("spec")[1:]
        spec = (None if tokens == ["none"]
                else _spec_from_fields(rd, _fields(rd, tokens)))
        if spec is not None:
            space, landmarks = build_cached(spec, budget)
            if _holds(path, _space_lines(space, landmarks, spec)):
                return space, landmarks, spec
        count = int(rd.expect("points", 2)[1])
        if count > budget:
            raise BudgetExceededError(f"file claims {count} points, "
                                      f"budget is {budget}", count, budget)
        base_label = rd.expect("base", 2)[1]
        labels = []
        for i in range(count):
            tokens = rd.expect("point", 3)
            if int(tokens[1]) != i:
                raise rd.error("point lines out of order")
            labels.append(tokens[2])
        for _ in rd.run("landmark"):
            pass
        # One pass over the ``dist`` records, a row at a time.  Each
        # distinct text is parsed once: code k stands for ``values[k]``,
        # and code 0 for the diagonal's 0.  A file without an echo fills
        # a table with codes, in the narrowest dtype that holds them,
        # widened when a new code needs it; a file with one has each row
        # compared with the rebuilt stage's, where a value that is not a
        # multiple of 1/scale, or too large to scale, becomes -1, which
        # no distance of the stage equals.
        parsed: dict[str, int] = {}
        values, scaled = [Fraction(0)], [0]
        if spec is None:
            table = np.zeros((count, count), dtype=np.int8)
        else:
            stage, scale = space._stored()
            compare = list(space.labels) == labels
        taken, row, wrong = 0, [], None
        pairs = itertools.combinations(range(count), 2)
        for (i, j), tokens in zip(pairs, rd.run("dist")):
            if len(tokens) != 4:
                raise rd.error("malformed dist line")
            if int(tokens[1]) != i or int(tokens[2]) != j:
                raise rd.error("dist lines out of order")
            code = parsed.get(tokens[3])
            if code is None:
                v = parse_fraction(tokens[3])
                code = parsed[tokens[3]] = len(values)
                values.append(v)
                if spec is not None:
                    fits = (scale % v.denominator == 0
                            and abs(v) * scale < 1 << 62)
                    scaled.append(int(v * scale) if fits else -1)
                elif code > np.iinfo(table.dtype).max:
                    table = table.astype(narrowest(0, code))
            row.append(code)
            taken += 1
            if j == count - 1:
                if spec is None:
                    table[i, i + 1:] = table[i + 1:, i] = row
                elif compare and wrong is None:
                    differs = np.flatnonzero(
                        np.array([scaled[c] for c in row]) != stage[i, i + 1:])
                    if differs.size:
                        wrong = (i, i + 1 + int(differs[0]))
                row = []
        if taken < count * (count - 1) // 2:
            rd.expect("dist")  # the table ends early: refused here
        rd.end()
        if base_label not in labels:
            raise rd.error(f"base label {base_label!r} is not a point")
        base = labels.index(base_label)
        if spec is None:
            scale = math.lcm(*(v.denominator for v in values))
            nums = [v.numerator * (scale // v.denominator) for v in values]
            if any(abs(x) >= 1 << 60 for x in nums):
                raise rd.error("a stored distance exceeds the int64 scale")
            lookup = np.array(nums, dtype=narrowest(min(nums), max(nums)))
            stored = np.empty(table.shape, dtype=lookup.dtype)
            for i, line in enumerate(table):  # a row of codes at a time
                stored[i] = lookup[line]
            space = MetricSpace._adopt(labels, stored, scale, base)
            space.validate_metric()
            return space, None, None
        if list(space.labels) != labels or space.base_point != base:
            raise rd.error("stored points do not match the spec echo")
        if wrong is not None:
            raise rd.error(f"stored distance ({wrong[0]},{wrong[1]}) does "
                           f"not match the spec echo")
        return space, landmarks, spec


# ---------------------------------------------------------------------------
# vectors and functions


def write_vector(path: str, vec: FreeVector,
                 spec: Optional[DiamondSpec] = None) -> None:
    space = vec.space
    lines = [_header("vector"), _space_line(space, spec),
             *_labelled_lines("entry", space, vec), "end"]
    _write(path, lines)


def read_vector(path: str, space: MetricSpace) -> FreeVector:
    with _Reader(path) as rd:
        _check_header(rd, "vector")
        _read_space_line(rd, space)
        entries = _read_labelled(rd, space, "entry")
        rd.end()
        return FreeVector(space, entries)


def write_function(path: str, func: LipschitzFunction,
                   spec: Optional[DiamondSpec] = None) -> None:
    space = func.space
    lines = [_header("function"), _space_line(space, spec),
             "domain " + ("total" if func.is_total else "partial"),
             *_labelled_lines("value", space, func), "end"]
    _write(path, lines)


def read_function(path: str, space: MetricSpace) -> LipschitzFunction:
    with _Reader(path) as rd:
        _check_header(rd, "function")
        _read_space_line(rd, space)
        marker = rd.expect("domain", 2)[1]
        if marker not in ("total", "partial"):
            raise rd.error(f"unknown domain marker {marker!r}")
        values = _read_labelled(rd, space, "value")
        rd.end()
        func = LipschitzFunction(space, values)
        if marker == "total" and not func.is_total:
            raise rd.error("file claims a total function but misses points")
        return func


def write_certificate(path: str, cert: TransportCertificate,
                      spec: Optional[DiamondSpec] = None) -> None:
    space = cert.vector.space
    lines = [_header("certificate"), _space_line(space, spec),
             *_labelled_lines("entry", space, cert.vector),
             f"value {format_fraction(cert.value)}"]
    for i, j, mass in cert.plan:
        lines.append(f"plan {space.label(i)} {space.label(j)} "
                     f"{format_fraction(mass)}")
    lines += _labelled_lines("potential", space, cert.potential)
    lines.append("end")
    _write(path, lines)


def read_certificate(path: str, space: MetricSpace) -> TransportCertificate:
    with _Reader(path) as rd:
        _check_header(rd, "certificate")
        _read_space_line(rd, space)
        entries = _read_labelled(rd, space, "entry")
        value = parse_fraction(rd.expect("value", 2)[1])
        plan = tuple((_index_of(rd, space, tokens[1]),
                      _index_of(rd, space, tokens[2]),
                      parse_fraction(tokens[3]))
                     for tokens in rd.run("plan", 4))
        potential = _read_labelled(rd, space, "potential")
        rd.end()
        return TransportCertificate(FreeVector(space, entries), value, plan,
                                    LipschitzFunction(space, potential))


# ---------------------------------------------------------------------------
# partitions


def write_partition(path: str, space: MetricSpace,
                    partition: SummandPartition,
                    spec: Optional[DiamondSpec] = None) -> None:
    lines = [_header("partition"), _space_line(space, spec),
             f"base {space.label(partition.base)}"]
    for m, members in enumerate(partition.summands):
        labels = " ".join(space.label(i) for i in sorted(members))
        lines.append(f"summand {m} {labels}".rstrip())
    lines.append("end")
    _write(path, lines)


def read_partition(path: str, space: MetricSpace) -> SummandPartition:
    with _Reader(path) as rd:
        _check_header(rd, "partition")
        _read_space_line(rd, space)
        base = _index_of(rd, space, rd.expect("base", 2)[1])
        summands = []
        for tokens in rd.run("summand", 2):
            if int(tokens[1]) != len(summands):
                raise rd.error("summand lines out of order")
            summands.append(tuple(_index_of(rd, space, lab)
                                  for lab in tokens[2:]))
        rd.end()
        partition = SummandPartition(base, tuple(summands))
        check_partition(space, partition)
        return partition


# ---------------------------------------------------------------------------
# transcripts


@dataclass(frozen=True)
class TranscriptDocument:
    """A transcript plus the per-node verification statuses on record.

    ``statuses`` maps node paths to (status, condition) with status one
    of pass, fail or none; nodes missing from the map are written as
    none.  ``spec`` is the construction echo a file was read with, so a
    rewritten file can carry it on.  Built from a fresh game, or from a
    verification report via :meth:`with_report`.
    """

    transcript: GameTranscript
    statuses: dict[str, tuple[str, str]] = field(default_factory=dict)
    spec: Optional[DiamondSpec] = None

    def with_report(self, report: VerificationReport) -> "TranscriptDocument":
        statuses = {e.path: ("pass" if e.ok else "fail", e.condition)
                    for e in report.entries}
        return TranscriptDocument(self.transcript, statuses, self.spec)


def write_transcript(path: str, doc: TranscriptDocument,
                     spec: Optional[DiamondSpec] = None) -> None:
    transcript = doc.transcript
    space = transcript.space
    lines = [_header("transcript"), _space_line(space, spec)]
    adv = transcript.adversary
    if adv is None:
        lines.append("adversary none")
    else:
        lines.append(f"adversary kind={adv.kind} count={adv.count} "
                     f"eta={format_fraction(adv.eta)} seed={adv.seed}")

    # Targets and responses repeat down a tree: each distinct vector's
    # lines are spelled once, without their head.
    tails: dict[FreeVector, list[str]] = {}

    def vector_lines(head: str, vec: FreeVector) -> list[str]:
        if vec not in tails:
            tails[vec] = _labelled_lines("", space, vec)
        return [head + tail for tail in tails[vec]]

    # Moves share functional tuples, so a family is found by the tuple's
    # identity; a distinct tuple object is keyed once, by value (the
    # functionals hash and compare on their integers).
    family_of: dict[int, int] = {}
    by_value: dict[tuple[LipschitzFunction, ...], int] = {}
    for _, node in walk_nodes(transcript.root):
        for move in node.moves:
            fns = move.neighborhood.functionals
            if id(fns) not in family_of:
                family_of[id(fns)] = by_value.setdefault(fns, len(by_value))
    lines.append(f"families {len(by_value)}")
    for fid, fns in enumerate(by_value):
        lines.append(f"family {fid} size {len(fns)}")
        table = [line for k, fn in enumerate(fns)
                 for line in _labelled_lines(f"fvalue {fid} {k}", space, fn)]
        if table:
            lines.append("\n".join(table))

    for node_path, node in walk_nodes(transcript.root):
        lines.append(f"node {node_path} depth={node.depth} "
                     f"epsilon={format_fraction(node.epsilon)}")
        lines += vector_lines(f"tentry {node_path}", node.target)
        status, condition = doc.statuses.get(node_path, ("none", ""))
        lines.append(f"status {node_path} {status} {condition}".rstrip())
        for k, move in enumerate(node.moves):
            fid = family_of[id(move.neighborhood.functionals)]
            lines.append(f"move {node_path} {k} family={fid} "
                         f"eta={format_fraction(move.neighborhood.eta)}")
            lines += vector_lines(f"rentry {node_path} {k}", move.response)
    lines.append("end")
    _write(path, lines)


def read_transcript(path: str, space: Optional[MetricSpace] = None,
                    landmarks: Optional[DiamondLandmarks] = None,
                    budget: int = DEFAULT_BUDGET
                    ) -> tuple[TranscriptDocument, MetricSpace,
                               Optional[DiamondLandmarks]]:
    """Load a transcript; rebuild its space from the echo when needed.

    Pass a space to bind the transcript to an existing object; without
    one, the file must carry a construction echo.  Records must come in
    writer order, and nodes nested deeper than a quarter of the
    interpreter's recursion limit are refused.

    Runs of lines are taken as blocks while they are the writer's; at the
    first that is not, the file is read again record by record.
    """
    try:
        return _read_transcript(path, space, landmarks, budget, runs=True)
    except _NotAsWritten:
        return _read_transcript(path, space, landmarks, budget, runs=False)


def _read_transcript(path: str, space: Optional[MetricSpace],
                     landmarks: Optional[DiamondLandmarks], budget: int,
                     runs: bool) -> tuple[TranscriptDocument, MetricSpace,
                                          Optional[DiamondLandmarks]]:
    """:func:`read_transcript`, taking runs as blocks if ``runs``."""
    with _Reader(path, runs) as rd:
        _check_header(rd, "transcript")
        space, landmarks, spec = _read_space_line(rd, space, landmarks,
                                                  budget)

        tokens = rd.expect("adversary")
        adversary = None
        if tokens[1:] != ["none"]:
            adv = _fields(rd, tokens[1:], ("kind", "count", "eta", "seed"))
            adversary = AdversaryConfig(adv["kind"], int(adv["count"]),
                                        parse_fraction(adv["eta"]),
                                        int(adv["seed"]))

        # Each distinct value text is parsed once: epsilons and etas to
        # shared Fractions, vector and functional values to integers.
        value = cache(parse_fraction)
        ratio = cache(_parse_ratio)
        labelled = [f"{label} " for label in space.labels]
        every = np.arange(len(space), dtype=np.intp)

        def functional(domain: np.ndarray, texts: list[str]
                       ) -> LipschitzFunction:
            """The functional with value ``texts[m]`` at ``domain[m]``;
            each distinct text, which may end in a newline, is parsed
            once."""
            terms = {text: ratio(text.rstrip("\n")) for text in set(texts)}
            den = math.lcm(*(q for _, q in terms.values()))
            scaled = {text: p * (den // q) for text, (p, q) in terms.items()}
            return LipschitzFunction._from_numerators(
                space, domain, list(map(scaled.__getitem__, texts)), den)

        def family_table(lines: list[str], fid: int, size: int
                         ) -> Optional[tuple[LipschitzFunction, ...]]:
            """Family ``fid`` from its ``fvalue`` lines, when they hold
            every point of each functional in order, as the writer puts
            them."""
            count = len(labelled)
            if len(lines) != size * count:
                return None
            heads = [head for k in range(size) for head in map(
                f"fvalue {fid} {k} ".__add__, labelled)]
            if not all(map(str.startswith, lines, heads)):
                return None
            texts = list(map(str.removeprefix, lines, heads))
            try:
                return tuple(functional(every, texts[start:start + count])
                             for start in range(0, len(texts), count))
            except FormatError:
                return None

        # Targets and responses repeat down a tree: each distinct run of
        # ``label value`` texts is built once.
        vectors: dict[str, FreeVector] = {}

        def vector(lines: list[str], start: int) -> Optional[FreeVector]:
            tails = [line[start:] for line in lines]
            key = "".join(tails)
            vec = vectors.get(key)
            if vec is None:
                try:
                    pairs = [tail.split() for tail in tails]
                    points = [space.index_of(label) for label, _ in pairs]
                    parsed = {text: ratio(text) for _, text in pairs}
                except (KeyError, ValueError):
                    return None
                vec = vectors[key] = FreeVector._from_ratios(
                    space, [(i, *parsed[text])
                            for i, (_, text) in zip(points, pairs)])
            return vec

        def vector_run(prefix: str) -> Optional[FreeVector]:
            """The vector of the run of lines starting with ``prefix``,
            when each is ``prefix label value``."""
            return rd.take_run(prefix, lambda lines: vector(lines,
                                                            len(prefix)))

        family_count = int(rd.expect("families", 2)[1])
        families: list[tuple[LipschitzFunction, ...]] = []
        family_lines: list[int] = []  # where each family is declared
        for fid in range(family_count):
            tokens = rd.expect("family", 4)
            if int(tokens[1]) != fid:
                raise rd.error("family lines out of order")
            family_lines.append(rd.lineno)
            size = int(tokens[3])
            table = rd.take_run(f"fvalue {fid} ",
                                lambda lines: family_table(lines, fid, size))
            if table is not None:
                families.append(table)
                continue
            # Keyed by functional, so a claimed size allocates nothing.
            values: dict[int, list[tuple[int, str]]] = {}
            for tokens in rd.run("fvalue", 2):
                if (len(tokens) != 5 or int(tokens[1]) != fid
                        or not 0 <= (k := int(tokens[2])) < size):
                    raise rd.error("malformed fvalue record")
                i = _index_of(rd, space, tokens[3])
                ratio(tokens[4])  # parsed here, so an error names its line
                values.setdefault(k, []).append((i, tokens[4]))
            if len(values) != size:
                raise rd.error(f"family {fid} lists {len(values)} of its "
                               f"{size} functionals")
            functionals = []
            for k in range(size):
                domain, texts = zip(*sorted(values[k]))
                if len(set(domain)) < len(domain):
                    raise rd.error(f"a functional of family {fid} repeats "
                                   f"a point")
                functionals.append(functional(
                    np.array(domain, dtype=np.intp), list(texts)))
            families.append(tuple(functionals))

        # Every node read so far, with its status on record.
        statuses: dict[str, tuple[str, str]] = {}
        max_level = sys.getrecursionlimit() // 4

        def misplaced(tokens: list[str], expected: str = "") -> FormatError:
            """The error for a record that writer order does not put
            here, where the line of node ``expected``, if given, belongs."""
            kind, node_path = tokens[0], " ".join(tokens[1:2])
            if kind == "node" and node_path in statuses:
                return rd.error(f"node {node_path!r} declared twice")
            if expected and node_path not in statuses:
                return rd.error(f"missing node {expected!r}")
            if node_path in statuses or kind == "node":
                return rd.error(f"{kind!r} record of node {node_path!r} is "
                                f"out of writer order")
            if kind in ("tentry", "status", "move", "rentry"):
                return rd.error(f"record for undeclared node {node_path!r}")
            return rd.error(f"unexpected record {kind!r}")

        def of_node(records: Iterator[list[str]],
                    node_path: str) -> Iterator[list[str]]:
            for tokens in records:
                if tokens[1] != node_path:
                    raise misplaced(tokens)
                yield tokens

        def response_terms(node_path: str, k: int
                           ) -> Iterator[tuple[int, int, int]]:
            """The ``rentry`` records of move ``k``, as (index, p, q)."""
            for tokens in of_node(rd.run("rentry", 5), node_path):
                if int(tokens[2]) > k:
                    raise rd.error(f"response for undeclared move "
                                   f"{int(tokens[2])} of {node_path!r}")
                if int(tokens[2]) < k:
                    raise misplaced(tokens)
                yield _index_of(rd, space, tokens[3]), *ratio(tokens[4])

        def read_node(node_path: str, level: int) -> GameNode:
            """The node at ``node_path`` and its subtree, read in the order
            of :func:`write_transcript`."""
            tokens = rd.next()
            if tokens[:2] != ["node", node_path]:
                raise misplaced(tokens, node_path)
            if level > max_level:
                raise rd.error(f"node {node_path!r} is nested more than "
                               f"{max_level} levels deep")
            fields = _fields(rd, tokens[2:], ("depth", "epsilon"))
            depth, epsilon = int(fields["depth"]), value(fields["epsilon"])
            statuses[node_path] = ("none", "")
            target = vector_run(f"tentry {node_path} ")
            if target is None:
                target = FreeVector._from_ratios(space, [
                    (_index_of(rd, space, tokens[2]), *ratio(tokens[3]))
                    for tokens in of_node(rd.run("tentry", 4), node_path)])
            for tokens in of_node(rd.run("status", 3), node_path):
                if tokens[2] not in ("pass", "fail", "none"):
                    raise rd.error(f"unknown status {tokens[2]!r}")
                statuses[node_path] = (tokens[2], " ".join(tokens[3:4]))
                break  # a second status is out of writer order
            posed = []
            for tokens in of_node(rd.run("move", 3), node_path):
                k = int(tokens[2])
                if k != len(posed):
                    raise rd.error(f"move {k} of {node_path!r} is out of "
                                   f"order, expected move {len(posed)}")
                fields = _fields(rd, tokens[3:], ("family", "eta"))
                fid = int(fields["family"])
                if not 0 <= fid < len(families):
                    raise rd.error(f"move references unknown family {fid}")
                referenced.add(fid)
                hood = WeakNeighborhood(families[fid], target,
                                        value(fields["eta"]))
                response = vector_run(f"rentry {node_path} {k} ")
                if response is None:
                    response = FreeVector._from_ratios(
                        space, list(response_terms(node_path, k)))
                posed.append((hood, response))
            moves = tuple(Move(hood, response,
                               read_node(f"{node_path}.m{k}.r", level + 1),
                               read_node(f"{node_path}.m{k}.t", level + 1))
                          for k, (hood, response) in enumerate(posed))
            return GameNode(target, depth, epsilon, moves)

        referenced: set[int] = set()
        root = read_node("root", 0)
        tokens = rd.next()
        if tokens[0] != "end":
            raise misplaced(tokens)
        rd.last()
        for fid, line in enumerate(family_lines):
            if fid not in referenced:
                raise rd.error(f"family {fid} is referenced by no move",
                               line)
        transcript = GameTranscript(space, root, adversary)
        return TranscriptDocument(transcript, statuses, spec), space, landmarks


# ---------------------------------------------------------------------------
# reports and plots


def write_dot(path: str, space: MetricSpace) -> None:
    """Graph of non-redundant edges with exact length labels; each point
    label is a DOT string, with ``\\`` and ``"`` escaped."""
    lines = ["graph diamond {", "  node [shape=point];"]
    for i, label in enumerate(space.labels):
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [xlabel="{label}"];')
    for i, j in finest_edges(space):
        lines.append(f'  n{i} -- n{j} '
                     f'[label="{format_fraction(space.distance(i, j))}"];')
    lines.append("}")
    _write(path, lines)
