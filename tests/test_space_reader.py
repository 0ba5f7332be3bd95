"""The space writer and the echo-checked space reader.

``read_space`` returns the rebuilt space when a file with a construction
echo is byte for byte the writer's text for that stage, and otherwise
parses every line.  Checked here: on damaged and non-canonical files,
inside the distance table and outside it, it agrees with
``oracles.read_space_reference``, the reader that parses every line, in
the space it returns or in the exact ``FormatError`` message; a
canonical echo file is not parsed past its ``spec`` line; bytes that
are not UTF-8 are reported where line-by-line reading meets them; the
writer's bytes are pinned; and a bare file with more distinct values
than the shared ``Fraction`` table holds reads correctly.
"""

import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diamondlab import (DiamondSpec, FormatError, MetricSpace, build_cached,
                        parse_ordinal)
from diamondlab import io as dio
from diamondlab.io import read_space, write_space
from diamondlab.metric import _SHARED_FRACTIONS, _shared

from oracles import read_space_reference


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    """Kind -> valid file text, with and without a construction echo."""
    root = tmp_path_factory.mktemp("rows")
    spec = DiamondSpec(2, 3)
    space, lm = build_cached(spec)
    out = {}
    for kind, args in (("echo", (space, lm, spec)), ("bare", (space,))):
        path = root / f"{kind}.txt"
        write_space(str(path), *args)
        out[kind] = path.read_text()
    return root, out


def _outcome(read, path):
    """What a reader makes of a file: the space it binds, or its error."""
    try:
        space, landmarks, spec = read(str(path))
    except FormatError as exc:
        return ("error", type(exc).__name__, str(exc))
    mat, scale = space.integer_scaled()
    return ("read", space.labels, space.base_point, scale, mat.tobytes(),
            landmarks, spec)


def _unreduce(value: str, k: int) -> str:
    """``p/q`` as ``kp/kq``, or as a plain integer when q = k = 1."""
    num, _, den = value.partition("/")
    if den == "1" and k == 1:
        return num
    return f"{int(num) * k}/{int(den) * k}"


# Lines put in place of, or before, a line of each kind outside the
# table; the ``end`` ones go after the ``end`` line.
_OUTSIDE = {
    "spec": ["spec none", "spec alpha=2 branches=3 limit-width=3",
             "spec alpha=1 branches=3 limit-width=3",
             "spec alpha=2 branches=2 limit-width=3",
             "spec  alpha=2 branches=3 limit-width=3",
             "spec limit-width=3 branches=3 alpha=2", "spec alpha=2"],
    "points": ["points 22", "points 24", "points  23", "points x", "points"],
    "base": ["base top", "base  mid(1)", "base nowhere", "base"],
    "point": ["point 0 top", "point 2 nowhere", "point 5  +(1)/mid(1)",
              "point 3 mid(2)", "point x top", ""],
    "landmark": ["landmark top top", "landmark  ell mid(1)",
                 "landmark mid 9 nowhere", ""],
    "end": ["end", "x", "dist 0 1 1/1", " "],
}


@st.composite
def _damage(draw, text):
    """Up to three edits of ``text``: inside the distance table, to the
    lines before it, or after its ``end`` line."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([
            "blank", "whitespace", "unreduce", "swap", "delete", "extra",
            "truncate", "last", "value", "index", *_OUTSIDE]))
        if kind in _OUTSIDE:
            at = [k for k, line in enumerate(lines)
                  if line.split(" ")[0] == kind]
            if at:
                k = draw(st.sampled_from(at))
                line = draw(st.sampled_from(_OUTSIDE[kind]))
                if kind == "end":
                    lines.insert(k + 1, line)
                elif draw(st.booleans()):
                    lines[k] = line
                else:
                    lines.insert(k, line)
            continue
        table = [k for k, line in enumerate(lines) if line.startswith("dist")]
        if not table:
            break
        k = draw(st.sampled_from(table))
        tokens = lines[k].split(" ")
        if kind == "blank":
            lines.insert(draw(st.integers(table[0], table[-1] + 1)),
                         draw(st.sampled_from(["", " ", "\t", "  \t "])))
        elif kind == "whitespace":
            gap = draw(st.sampled_from(["\t", "  ", " \t"]))
            at = draw(st.integers(0, len(tokens)))
            if at in (0, len(tokens)):
                lines[k] = gap + lines[k] if at == 0 else lines[k] + gap
            else:
                lines[k] = (" ".join(tokens[:at]) + gap
                            + " ".join(tokens[at:]))
        elif (kind == "unreduce" and len(tokens) == 4
              and re.fullmatch(r"-?\d+/[1-9]\d*", tokens[3])):
            tokens[3] = _unreduce(tokens[3], draw(st.integers(1, 4)))
            lines[k] = " ".join(tokens)
        elif kind == "swap":
            other = draw(st.sampled_from(table))
            lines[k], lines[other] = lines[other], lines[k]
        elif kind == "delete":
            del lines[k]
        elif kind == "extra":
            lines.insert(k, draw(st.sampled_from(
                [lines[k], "dist 0 1 1/1", "dist 99 100 1/2", "dist"])))
        elif kind == "truncate":
            cut = sum(len(line) + 1 for line in lines[:k])
            return "\n".join(lines)[:cut + draw(st.integers(0,
                                                             len(lines[k])))]
        elif kind in ("last", "value"):
            at = table[-1] if kind == "last" else k
            tokens = lines[at].split(" ")
            tokens[-1] = draw(st.sampled_from(
                ["1/1", "3/2", "1/4", "0/1", "-1/2", "2/4", "x/1", "1.5",
                 "1/0", ""]))
            lines[at] = " ".join(tokens)
        elif kind == "index" and len(tokens) == 4:
            t = draw(st.integers(1, 2))
            tokens[t] = draw(st.sampled_from(
                ["x", "-1", "0", "1", "2", "21", "22", "23"]))
            lines[k] = " ".join(tokens)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reader_agrees_with_the_line_by_line_reference(texts, data):
    root, kinds = texts
    kind = data.draw(st.sampled_from(sorted(kinds)))
    path = root / "damaged.txt"
    path.write_text(data.draw(_damage(kinds[kind])))
    assert _outcome(read_space, path) == _outcome(read_space_reference, path)


def test_canonical_files_read_unchanged(texts):
    root, kinds = texts
    for kind, text in kinds.items():
        path = root / f"canonical-{kind}.txt"
        path.write_text(text)
        got = _outcome(read_space, path)
        assert got[0] == "read"
        assert got == _outcome(read_space_reference, path)


def test_only_files_not_as_written_reach_the_dist_records(texts,
                                                         monkeypatch):
    root, kinds = texts
    keywords = []
    run = dio._Reader.run

    def spy(self, keyword, size=1):
        keywords.append(keyword)
        return run(self, keyword, size)

    monkeypatch.setattr(dio._Reader, "run", spy)
    text = kinds["echo"]
    respelled = text.replace("\ndist 3 4 ", "\ndist 3  4 ", 1)
    assert respelled != text
    path = root / "spied.txt"
    for content, parsed in ((text, False), (respelled, True)):
        path.write_text(content)
        keywords.clear()
        got = _outcome(read_space, path)
        assert ("dist" in keywords) == parsed
        assert got[0] == "read"
        assert got == _outcome(read_space_reference, path)


@pytest.fixture(scope="module")
def large_echo(tmp_path_factory):
    """A spec-echo file of several decoding chunks (131 points)."""
    spec = DiamondSpec(3, 3)
    space, lm = build_cached(spec)
    path = tmp_path_factory.mktemp("utf8") / "space.txt"
    write_space(str(path), space, lm, spec)
    return path.read_bytes()


@pytest.mark.parametrize("fraction", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("earlier", ["none", "same-row", "rows-before"])
def test_bytes_that_are_not_utf8_are_met_where_lines_meet_them(
        large_echo, tmp_path, fraction, earlier):
    data = bytearray(large_echo)
    at = data.index(b"\n", int(len(data) * fraction)) + 1
    data[at:at] = b"\xff"
    if earlier != "none":
        # Damage a line before the bad byte, in its row or well before.
        back = 2 if earlier == "same-row" else 400
        line = at
        for _ in range(back):
            line = data.rindex(b"\n", 0, line - 1) + 1
        data[line:line] = b"#"
    path = tmp_path / "bad.txt"
    path.write_bytes(bytes(data))
    got = _outcome(read_space, path)
    assert got[0] == "error"
    assert got == _outcome(read_space_reference, path)


# -- fixed damage to one canonical row ----------------------------------------


def _row_span(text: str, row: int) -> tuple[int, int]:
    """Start and end offsets of the ``dist`` lines of ``row``, the end
    just past its last line's last character."""
    start = text.index(f"dist {row} {row + 1} ")
    nxt = text.find(f"dist {row + 1} ", start)
    end = (text.index("\nend", start) if nxt < 0 else nxt - 1)
    return start, end


def _damaged_row(text: str, kind: str, row: int) -> bytes:
    start, end = _row_span(text, row)
    if kind == "first":
        text = text[:start] + "x" + text[start + 1:]
    elif kind == "last":
        digit = "5" if text[end - 1] == "7" else "7"
        text = text[:end - 1] + digit + text[end:]
    elif kind == "truncate":
        text = text[:(start + end) // 2]
    elif kind == "crlf":
        text = text.replace("\n", "\r\n")
    return text.encode()


@pytest.mark.parametrize("kind", ["first", "last", "truncate", "crlf"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_one_damaged_row_reads_as_line_by_line(texts, kind, where):
    root, kinds = texts
    text = kinds["echo"]
    count = text.count("\npoint ")
    row = {"first": 0, "middle": count // 2, "last": count - 2}[where]
    path = root / f"row-{kind}-{where}.txt"
    path.write_bytes(_damaged_row(text, kind, row))
    got = _outcome(read_space, path)
    assert got[0] == ("read" if kind == "crlf" else "error")
    assert got == _outcome(read_space_reference, path)


@pytest.mark.parametrize("at", [0, 0.5, 1])
def test_bytes_that_are_not_utf8_in_the_first_row_taken_whole(texts, at):
    root, kinds = texts
    text = kinds["echo"]
    start, end = _row_span(text, 0)
    cut = len(text[:start + int(at * (end - start))].encode())
    data = text.encode()
    path = root / f"row-utf8-{at}.txt"
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    got = _outcome(read_space, path)
    assert got[0] == "error" and "not UTF-8" in got[2]
    assert got == _outcome(read_space_reference, path)


@pytest.mark.parametrize("before", ["none", "same-row", "respelled-row"])
def test_bytes_that_are_not_utf8_past_a_decoding_chunk(tmp_path, before):
    # Rows of the 779-point stage are up to 13,000 characters, longer than
    # one 8192-byte decoding chunk.  The bad byte sits 10,000 characters
    # into a row; before it, either nothing, a damaged line of the same
    # row (reported first), or a row spelled with a double space, which
    # reads on line by line from there.
    spec = DiamondSpec(4, 3)
    space, lm = build_cached(spec)
    path = tmp_path / "space.txt"
    write_space(str(path), space, lm, spec)
    data = bytearray(path.read_bytes())
    row = 2 if before == "respelled-row" else 0
    start = data.index(b"dist %d %d " % (row, row + 1))
    at = data.index(b"\n", start + 10000) + 1
    data[at:at] = b"\xff"
    if before == "same-row":
        line = data.index(b"\n", start + 3000) + 1
        data[line:line] = b"#"
    elif before == "respelled-row":
        line = data.index(b"dist 1 2 ")
        data[line:line + 4] = b"dist "
    path.write_bytes(bytes(data))
    got = _outcome(read_space, path)
    assert got[0] == "error"
    assert ("not UTF-8" in got[2]) == (before != "same-row")
    assert got == _outcome(read_space_reference, path)


# -- pinned writer bytes ------------------------------------------------------


@pytest.mark.parametrize("alpha, branches, digest", [
    ("w", 4, "49d437c768a97d04a42582a8bcc03e7bb42f138aca3cff5f8512e117a10a4d78"),
    ("4", 3, "7cf0d38c4311243f5eafc8a8789029b20a2a77b1cee5c90e1afc8ac0ff83981c"),
])
def test_space_file_bytes_are_pinned(tmp_path, alpha, branches, digest):
    spec = DiamondSpec(parse_ordinal(alpha), branches, 3)
    space, lm = build_cached(spec)
    path = tmp_path / "space.txt"
    write_space(str(path), space, lm, spec)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# -- the shared Fraction table ------------------------------------------------


def test_bare_file_with_more_values_than_the_table_reads(tmp_path):
    # Every distance lies in [1, 2), so any such table is a metric; each
    # pair gets its own value, and there are more pairs than table slots.
    n = 370
    assert n * (n - 1) // 2 > _SHARED_FRACTIONS
    scale = 1 << 20
    mat = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            k += 1
            mat[i][j] = mat[j][i] = scale + k
    space = MetricSpace.from_scaled([f"p{i}" for i in range(n)], mat,
                                    scale, 0)
    path = tmp_path / "many.txt"
    write_space(str(path), space)
    read, landmarks, spec = read_space(str(path))
    assert (landmarks, spec) == (None, None)
    assert read.labels == space.labels
    got, got_scale = read.integer_scaled()
    assert got_scale == scale and got.tolist() == mat
    assert read.distance(n - 2, n - 1) == Fraction(scale + k, scale)
    info = _shared.cache_info()
    assert info.maxsize == _SHARED_FRACTIONS
    assert info.currsize == _SHARED_FRACTIONS
