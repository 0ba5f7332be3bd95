"""Canonical text formats for spaces, vectors, functions and transcripts.

Every writer emits a deterministic byte sequence for equal in-memory
values: entries are ordered by point index, fractions appear in lowest
terms with an explicit denominator, and files end with an ``end`` line.
Readers stream a file and accept exactly what writers emit, in order,
raising :class:`~diamondlab.errors.FormatError` with a line otherwise.

A space table is written a row at a time, each row of ``dist`` lines as
one joined text.  When a space file's construction echo rebuilds the
stored points, :func:`read_space` compares the file, by characters and
a few thousand at a time, with the row the writer gives the rebuilt
space, and takes the row unparsed when they are identical; the file is
not split into lines.  At the first row that differs it splits what it
read into physical lines, hands them back and parses every line from
there on, exactly as without the check, so other valid spellings still
read and every error keeps its message, line and precedence.  A file
without an echo is parsed line by line throughout.  Parsed values are
the shared ``Fraction`` objects of :func:`diamondlab.metric.fraction`.

A transcript is read the same way, in runs of lines that share a prefix.
A family's ``fvalue`` lines are taken as one block when they start with
exactly the writer's heads, ``fvalue fid k label`` for every point of
every functional in order, checked in one pass; each distinct value text
is parsed once, and each functional is formed from its integers.  A node's
``tentry`` lines and a move's ``rentry`` lines are taken as one run, and
each distinct run builds its vector once per read: targets and responses
repeat down a tree.  A run that does not end at a nonblank record of
another kind, or that holds anything the block parse does not expect,
is handed back and read record by record, so other spellings still read
and errors keep their messages and lines.  The writer formats a family
table as one join from the functionals' integers.
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
from .decomposition import SummandPartition
from .errors import BudgetExceededError, FormatError
from .freespace import FreeVector, TransportCertificate
from .lipschitz import LipschitzFunction
from .metric import MetricSpace, distinct_values, fraction
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
# Characters per read in ``_Reader.take_text``.  A read of n characters
# decodes chunks of max(8192, b·n) bytes, where b <= 4 is the last
# chunk's bytes per character, so reads of 2048 decode the same 8192-byte
# chunks as ``readline``, and bytes that are not UTF-8 raise the same
# error, at the same position, either way.
_TEXT_PIECE = 2048
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


def _safe_label(label: str) -> str:
    if not label or any(ch.isspace() for ch in label):
        raise FormatError(f"label {label!r} is empty or contains whitespace")
    return label


class _Reader:
    """Streaming token-line cursor with one-line lookahead and located
    errors.

    The file is read one line at a time.  Blank lines are skipped but
    counted, so errors name physical line numbers.  As a context manager
    around a whole read, it closes the file and turns any other
    ``ValueError`` into a :class:`FormatError` at the current line.  A
    ``FormatError`` that does not name the file yet, such as a bad
    number from :func:`parse_fraction`, is located the same way.

    :meth:`take_text` takes a block of physical lines whole when it is
    exactly an expected text, and :meth:`take_run` a run of lines that
    share a prefix when a parser accepts it; otherwise either hands the
    lines back, so the token records read on as if it had not been
    called.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "r", encoding="utf-8")
        self._read = 0  # physical lines read so far
        self._ahead: Optional[list[str]] = None  # [] at end of file
        self._ahead_line = ""  # the lookahead's physical line
        self._back: list[str] = []  # lines handed back, last one first
        # A decoding error met ahead of the lines handed back: raised when
        # reading gets past them, where reading line by line meets it.
        self._undecodable: Optional[UnicodeDecodeError] = None
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

    def _line(self) -> str:
        if self._back:
            return self._back.pop()
        if self._undecodable is not None:
            raise self._undecodable
        return self._fh.readline()

    def peek(self) -> Optional[list[str]]:
        """The next record's tokens, or None at end of file."""
        try:
            while self._ahead is None:
                line = self._ahead_line = self._line()
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

    def take_text(self, text: str, count: int) -> bool:
        """Take the next ``count`` physical lines, starting at the next
        record, if together they are exactly ``text``; otherwise hand back
        what was read and return False.  Once lines were handed back, or
        at the end of the file, nothing is taken.

        The file is read for as many characters as ``text`` holds, in
        pieces of ``_TEXT_PIECE``, and compared with it once; it is not
        split into lines.  On a difference, what was read is split into
        physical lines, the last one finished with ``readline``, and
        handed back, so the records read on from the same lines, with the
        same numbers and decoding errors, as if this had not been called.
        A read that meets bytes that are not UTF-8 has the lines read
        again one at a time instead (:meth:`_reread`).
        """
        if self._back or self._undecodable or self._ahead == []:
            return False
        got = "" if self._ahead is None else self._ahead_line
        self._read -= self._ahead is not None
        self._ahead = None
        if text.startswith(got):
            read = self._fh.read
            pieces, rest = divmod(len(text) - len(got), _TEXT_PIECE)
            try:
                got = "".join([got, *(read(_TEXT_PIECE)
                                      for _ in range(pieces)), read(rest)])
            except UnicodeDecodeError:
                self._back = self._reread(count)[::-1]
                return False
        if got == text:
            self._read += count
            self.lineno = self._read
            return True
        lines = got.split("\n")
        last = lines.pop()
        lines = [line + "\n" for line in lines]
        if last:
            try:
                lines.append(last + self._fh.readline())
            except UnicodeDecodeError as exc:
                self._undecodable = exc
        self._back = lines[::-1]
        return False

    def _reread(self, count: int) -> list[str]:
        """Up to ``count`` lines from the next physical line on, read
        again one at a time from a fresh handle.

        A failed ``read`` drops what it had decoded, but ``readline``
        returns every line before the bytes it cannot decode.  Both
        decode the same chunks, so the line reading ends with the error
        that line-by-line reading meets, which is kept for later.
        """
        self._fh.close()
        self._fh = open(self.path, "r", encoding="utf-8")
        for _ in range(self._read):
            self._fh.readline()
        lines: list[str] = []
        try:
            while len(lines) < count and (line := self._fh.readline()):
                lines.append(line)
        except UnicodeDecodeError as exc:
            self._undecodable = exc
        return lines

    def take_run(self, prefix: str, parse: Callable[[list[str]], _T]
                 ) -> Optional[_T]:
        """``parse`` of the physical lines, from the next record on, that
        start with ``prefix``, taken when the run ends at the end of the
        file or at a nonblank line of another keyword than the prefix's
        first word, and ``parse`` does not return None.  Otherwise the
        lines are handed back and None returned.  As with
        :meth:`take_text`, once lines were handed back, or at the end of
        the file, nothing is taken.
        """
        if self._back or self._undecodable or self._ahead == []:
            return None
        ahead = [] if self._ahead is None else [self._ahead_line]
        self._read -= len(ahead)
        self._ahead = None
        lines: list[str] = []
        end: Optional[str] = ""  # the line after the run; "" at the end
        try:
            for line in itertools.chain(ahead, self._fh):
                if not line.startswith(prefix):
                    end = line
                    break
                lines.append(line)
        except UnicodeDecodeError as exc:
            self._undecodable = exc
            end = None
        tokens = end.split() if end else []
        result = None
        if end == "" or tokens and tokens[0] != prefix.split()[0]:
            result = parse(lines)
        if result is None:
            self._back = lines[::-1]
            if end:
                self._back.insert(0, end)
            return None
        if lines:
            self._read += len(lines)
            self.lineno = self._read
        # The line after the run is the lookahead, as ``peek`` leaves it.
        self._ahead, self._ahead_line = tokens, end
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

    def expect(self, keyword: str, size: int = 1) -> list[str]:
        """The next record, which must be a ``keyword`` record of at
        least ``size`` tokens."""
        for tokens in self.run(keyword, size):
            return tokens
        found = self.next()[0]  # taken, so the error names its line
        raise self.error(f"expected {keyword!r}, found {found!r}")


def _write(path: str, lines: Iterable[str], per_write: int = 1 << 15
           ) -> None:
    """Stream ``lines`` into a file beside ``path`` and rename it over
    ``path``, so a writer that fails leaves no partial file behind.

    Lines are joined ``per_write`` at a time (about a megabyte for the
    default); a "line" may be a block of several.
    """
    temporary = f"{path}.{os.getpid()}.tmp"
    fh = open(temporary, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            lines = iter(lines)
            while chunk := list(itertools.islice(lines, per_write)):
                fh.write("\n".join(chunk) + "\n")
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise


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


def _space_line(space: MetricSpace, spec: Optional[DiamondSpec]) -> str:
    head = "space" if spec is None else f"space {_spec_fields(spec)}"
    return (f"{head} points={len(space)}"
            f" base={_safe_label(space.label(space.base_point))}")


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


def _labelled_lines(keyword: str, space: MetricSpace, entries) -> list[str]:
    return [f"{keyword} {_safe_label(space.label(i))} {format_fraction(v)}"
            for i, v in entries]


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
    pieces, so a row costs O(n) temporaries beyond the value codes.
    """
    n = len(space)
    mat, scale = space.integer_scaled()
    values, codes = distinct_values(mat)
    codes = codes.reshape(n, n)
    texts = [format_fraction(fraction(v, scale)) for v in values.tolist()]
    ends = np.array([f"{text}\n" for text in texts], dtype=object)
    heads = [f"{j} " for j in range(n)]
    for i in range(n - 1):
        row = codes[i, i + 1:]
        parts = [f"dist {i} "] * (3 * len(row))
        parts[1::3] = heads[i + 1:]
        parts[2::3] = ends[row].tolist()
        parts[-1] = texts[row[-1]]  # the row's last line has no newline
        yield "".join(parts)


def write_space(path: str, space: MetricSpace,
                landmarks: Optional[DiamondLandmarks] = None,
                spec: Optional[DiamondSpec] = None) -> None:
    n = len(space)
    head = [_header("space"), _spec_line(spec), f"points {n}",
            f"base {_safe_label(space.label(space.base_point))}"]
    points = (f"point {i} {_safe_label(space.label(i))}" for i in range(n))
    marks = []
    if landmarks is not None:
        marks = [f"landmark {name} {space.label(i)}" for name, i
                 in (("top", landmarks.top), ("bottom", landmarks.bottom),
                     ("ell", landmarks.ell))]
        marks += [f"landmark mid {k} {space.label(m)}"
                  for k, m in enumerate(landmarks.mids, start=1)]
    # A row holds up to n lines: join about 32768 lines per write.
    _write(path, itertools.chain(head, points, marks, _dist_rows(space),
                                 ["end"]),
           per_write=max(1, (1 << 15) // max(n, 1)))


def read_space(path: str, budget: int = DEFAULT_BUDGET
               ) -> tuple[MetricSpace, Optional[DiamondLandmarks],
                          Optional[DiamondSpec]]:
    """Load a space file; re-derive landmarks when a spec echo is present.

    With a spec echo the construction is rebuilt through the cache and
    checked against the stored labels and distances, so vectors written
    against the file bind to the shared space object.  Without one, the
    stored table must pass :meth:`MetricSpace.validate_metric`.

    When the stored labels are the rebuilt ones, rows of ``dist`` lines
    that are exactly the writer's text are taken unparsed, up to the
    first row that differs (see the module docstring).
    """
    with _Reader(path) as rd:
        _check_header(rd, "space")
        tokens = rd.expect("spec")[1:]
        spec = (None if tokens == ["none"]
                else _spec_from_fields(rd, _fields(rd, tokens)))
        if spec is not None:
            space, landmarks = build_cached(spec, budget)
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
        # Rows before ``start`` are taken whole, by their text.
        start = 0
        if spec is not None and labels == list(space.labels):
            for text in _dist_rows(space):
                if not rd.take_text(text + "\n", count - 1 - start):
                    break
                start += 1
        # Each distinct distance text is parsed once; codes[k] indexes the
        # value of the k-th parsed dist line in ``values``.
        parsed: dict[str, int] = {}
        values: list[Fraction] = []
        codes = []
        pairs = itertools.combinations(range(start, count), 2)
        for (i, j), tokens in zip(pairs, rd.run("dist")):
            if len(tokens) != 4:
                raise rd.error("malformed dist line")
            if int(tokens[1]) != i or int(tokens[2]) != j:
                raise rd.error("dist lines out of order")
            code = parsed.get(tokens[3])
            if code is None:
                values.append(parse_fraction(tokens[3]))
                code = parsed[tokens[3]] = len(values) - 1
            codes.append(code)
        if len(codes) < (count - start) * (count - start - 1) // 2:
            rd.expect("dist")  # the table ends early: refused here
        rd.expect("end")
        if base_label not in labels:
            raise rd.error(f"base label {base_label!r} is not a point")
        base = labels.index(base_label)
        # The pairs of the rows parsed line by line, in file order.
        rows, cols = np.triu_indices(count - start, 1)
        rows += start
        cols += start
        if spec is None:
            scale = math.lcm(*(v.denominator for v in values))
            nums = [v.numerator * (scale // v.denominator) for v in values]
            if any(abs(x) >= 1 << 60 for x in nums):
                raise rd.error("a stored distance exceeds the int64 scale")
            mat = np.zeros((count, count), dtype=np.int64)
            mat[rows, cols] = mat[cols, rows] = np.array(nums,
                                                         np.int64)[codes]
            space = MetricSpace.from_scaled(labels, mat, scale, base)
            space.validate_metric()
            return space, None, None
        if list(space.labels) != labels or space.base_point != base:
            raise rd.error("stored points do not match the spec echo")
        mat, scale = space.integer_scaled()
        # A stored value that is not a multiple of 1/scale, or too large to
        # scale, becomes -1, which no distance of the built space equals.
        scaled = np.full(len(values), -1, dtype=np.int64)
        for k, v in enumerate(values):
            if scale % v.denominator == 0 and abs(v) * scale < 1 << 62:
                scaled[k] = int(v * scale)
        mismatch = np.flatnonzero(scaled[codes] != mat[rows, cols])
        if mismatch.size:
            k = mismatch[0]
            raise rd.error(f"stored distance ({rows[k]},{cols[k]}) does not "
                           f"match the spec echo")
        return space, landmarks, spec


# ---------------------------------------------------------------------------
# vectors and functions


def write_vector(path: str, vec: FreeVector,
                 spec: Optional[DiamondSpec] = None) -> None:
    space = vec.space
    lines = [_header("vector"), _space_line(space, spec),
             *_labelled_lines("entry", space, vec.entries), "end"]
    _write(path, lines)


def read_vector(path: str, space: MetricSpace) -> FreeVector:
    with _Reader(path) as rd:
        _check_header(rd, "vector")
        _read_space_line(rd, space)
        entries = _read_labelled(rd, space, "entry")
        rd.expect("end")
        return FreeVector(space, entries)


def write_function(path: str, func: LipschitzFunction,
                   spec: Optional[DiamondSpec] = None) -> None:
    space = func.space
    lines = [_header("function"), _space_line(space, spec),
             "domain " + ("total" if func.is_total else "partial"),
             *_labelled_lines("value", space, func.entries), "end"]
    _write(path, lines)


def read_function(path: str, space: MetricSpace) -> LipschitzFunction:
    with _Reader(path) as rd:
        _check_header(rd, "function")
        _read_space_line(rd, space)
        marker = rd.expect("domain", 2)[1]
        if marker not in ("total", "partial"):
            raise rd.error(f"unknown domain marker {marker!r}")
        values = _read_labelled(rd, space, "value")
        rd.expect("end")
        func = LipschitzFunction(space, values)
        if marker == "total" and not func.is_total:
            raise rd.error("file claims a total function but misses points")
        return func


def write_certificate(path: str, cert: TransportCertificate,
                      spec: Optional[DiamondSpec] = None) -> None:
    space = cert.vector.space
    lines = [_header("certificate"), _space_line(space, spec),
             *_labelled_lines("entry", space, cert.vector.entries),
             f"value {format_fraction(cert.value)}"]
    for i, j, mass in cert.plan:
        lines.append(f"plan {space.label(i)} {space.label(j)} "
                     f"{format_fraction(mass)}")
    lines += _labelled_lines("potential", space, cert.potential.entries)
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
        rd.expect("end")
        return TransportCertificate(FreeVector(space, entries), value, plan,
                                    LipschitzFunction(space, potential))


# ---------------------------------------------------------------------------
# partitions


def write_partition(path: str, space: MetricSpace,
                    partition: SummandPartition,
                    spec: Optional[DiamondSpec] = None) -> None:
    lines = [_header("partition"), _space_line(space, spec),
             f"base {_safe_label(space.label(partition.base))}"]
    for m, members in enumerate(partition.summands):
        labels = " ".join(_safe_label(space.label(i))
                          for i in sorted(members))
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
        rd.expect("end")
        return SummandPartition(base, tuple(summands))


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

    # Values are formatted from their integers: hashing a Fraction costs
    # more than formatting it.
    def text(value: Fraction) -> str:
        return f"{value.numerator}/{value.denominator}"

    # Targets and responses repeat down a tree: each distinct vector's
    # ``label value`` texts are formatted once.
    tails: dict[FreeVector, list[str]] = {}

    def vector_lines(head: str, vec: FreeVector) -> list[str]:
        if vec not in tails:
            support, nums, den = vec.integer_scaled()
            tails[vec] = [f" {space.label(i)} {_ratio_text(n, den)}"
                          for i, n in zip(support, nums)]
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
    # A family's table is one join: per value, its head, label and text.
    labels = [f"{label} " for label in space.labels]
    for fid, fns in enumerate(by_value):
        lines.append(f"family {fid} size {len(fns)}")
        parts: list[str] = []
        for k, fn in enumerate(fns):
            idx, nums, den = fn.integer_scaled()
            texts = {n: f"{_ratio_text(n, den)}\n" for n in set(nums)}
            piece = [f"fvalue {fid} {k} "] * (3 * len(nums))
            piece[1::3] = [labels[i] for i in idx.tolist()]
            piece[2::3] = [texts[n] for n in nums]
            parts += piece
        if parts:
            lines.append("".join(parts)[:-1])

    for node_path, node in walk_nodes(transcript.root):
        lines.append(f"node {node_path} depth={node.depth} "
                     f"epsilon={text(node.epsilon)}")
        lines += vector_lines(f"tentry {node_path}", node.target)
        status, condition = doc.statuses.get(node_path, ("none", ""))
        lines.append(f"status {node_path} {status} {condition}".rstrip())
        for k, move in enumerate(node.moves):
            fid = family_of[id(move.neighborhood.functionals)]
            lines.append(f"move {node_path} {k} family={fid} "
                         f"eta={text(move.neighborhood.eta)}")
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
    """
    with _Reader(path) as rd:
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

        def ratios(texts: Iterable[str]) -> Optional[dict[str, tuple]]:
            """Each distinct value text, as (p, q); None if one is bad."""
            try:
                return {text: ratio(text.rstrip("\n")) for text in texts}
            except FormatError:
                return None

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
            parsed = ratios(set(texts))
            if parsed is None:
                return None
            functionals = []
            for start in range(0, len(texts), count):
                chunk = texts[start:start + count]
                terms = {text: parsed[text] for text in set(chunk)}
                den = math.lcm(*(q for _, q in terms.values()))
                scaled = {text: p * (den // q)
                          for text, (p, q) in terms.items()}
                functionals.append(LipschitzFunction._from_numerators(
                    space, every, list(map(scaled.__getitem__, chunk)), den))
            return tuple(functionals)

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
                except (KeyError, ValueError):
                    return None
                parsed = ratios({text for _, text in pairs})
                if parsed is None:
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
            values: dict[int, list[tuple[int, int, int]]] = {}
            for tokens in rd.run("fvalue", 2):
                if (len(tokens) != 5 or int(tokens[1]) != fid
                        or not 0 <= (k := int(tokens[2])) < size):
                    raise rd.error("malformed fvalue record")
                i = _index_of(rd, space, tokens[3])
                values.setdefault(k, []).append((i, *ratio(tokens[4])))
            if len(values) != size:
                raise rd.error(f"family {fid} lists {len(values)} of its "
                               f"{size} functionals")
            functionals = []
            for k in range(size):
                triples = sorted(values[k])
                domain = [i for i, _, _ in triples]
                if len(set(domain)) < len(domain):
                    raise rd.error(f"a functional of family {fid} repeats "
                                   f"a point")
                den = math.lcm(*{q for _, _, q in triples})
                functionals.append(LipschitzFunction._from_numerators(
                    space, np.array(domain, dtype=np.intp),
                    [p * (den // q) for _, p, q in triples], den))
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
        for fid, line in enumerate(family_lines):
            if fid not in referenced:
                raise rd.error(f"family {fid} is referenced by no move",
                               line)
        transcript = GameTranscript(space, root, adversary)
        return TranscriptDocument(transcript, statuses, spec), space, landmarks


# ---------------------------------------------------------------------------
# reports and plots


def write_dot(path: str, space: MetricSpace) -> None:
    """Graph of non-redundant edges with exact length labels."""
    lines = ["graph diamond {", "  node [shape=point];"]
    for i in range(len(space)):
        lines.append(f'  n{i} [xlabel="{space.label(i)}"];')
    for i, j in finest_edges(space):
        lines.append(f'  n{i} -- n{j} '
                     f'[label="{format_fraction(space.distance(i, j))}"];')
    lines.append("}")
    _write(path, lines)
