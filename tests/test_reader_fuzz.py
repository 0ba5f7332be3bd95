"""Mutation fuzzing of the six file readers.

Core claim checked here: a reader given a damaged file either reads it
or raises FormatError, never a bare ValueError, KeyError or IndexError.
Each example takes one valid file (spaces with and without a
construction echo, a vector, a function, a certificate, a partition of
the omega stage's bottom half and a transcript) and truncates it,
deletes or duplicates one line, or replaces one token.  A damaged
number in any file kind is reported at its line.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diamondlab import (OMEGA, AdversaryConfig, DiamondSpec, FormatError,
                        build_cached, build_cover, cover_partition,
                        distance_functional, free_norm, molecule,
                        prover_certify)
from diamondlab.io import (TranscriptDocument, read_certificate,
                           read_function, read_partition, read_space,
                           read_transcript, read_vector, write_certificate,
                           write_function, write_partition, write_space,
                           write_transcript, write_vector)

# Replacement tokens: malformed numbers, rationals and fields, valid
# tokens in the wrong place, and the empty token (a dropped token).
_JUNK = ("", "abc", "1e3", "1.5", "-1", "0", "2", "1/0", "0/1", "-1/2",
         "=", "x=y", "none", "total", "pass", "maybe", "root", "root.m9.r",
         "epsilon=0/1", "depth=-1", "kind=bogus", "family=9", "eta=0/1",
         "alpha=w", "points=1", "end", "point", "dist", "family")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Name -> (valid text, reader) for every file kind."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = DiamondSpec(2, 3)
    space, lm = build_cached(spec)
    vec = molecule(space, lm.top, lm.bottom)
    wide, wide_lm = build_cached(DiamondSpec(OMEGA, 3, limit_width=3))
    sub, _, partition = cover_partition(wide, wide_lm,
                                        build_cover(wide, wide_lm).bottom_half,
                                        wide_lm.bottom)
    game = prover_certify(space, lm, 2, AdversaryConfig(
        "random_lipschitz", 3, Fraction(1, 10), 5))
    writers = {
        "space-echo": (lambda p: write_space(p, space, lm, spec), read_space),
        "space-bare": (lambda p: write_space(p, space), read_space),
        "vector": (lambda p: write_vector(p, vec, spec),
                   lambda p: read_vector(p, space)),
        "function": (lambda p: write_function(
            p, distance_functional(space, lm.top), spec),
            lambda p: read_function(p, space)),
        "certificate": (lambda p: write_certificate(p, free_norm(vec)[1],
                                                    spec),
                        lambda p: read_certificate(p, space)),
        "partition": (lambda p: write_partition(p, sub, partition),
                      lambda p: read_partition(p, sub)),
        "transcript": (lambda p: write_transcript(
            p, TranscriptDocument(game), spec), read_transcript),
    }
    out = {}
    for name, (write, read) in writers.items():
        path = root / f"{name}.txt"
        write(str(path))
        read(str(path))  # the unmutated file reads
        out[name] = (path.read_text(), read)
    return root, out


@st.composite
def _mutation(draw, text):
    lines = text.split("\n")
    kind = draw(st.sampled_from(["truncate", "delete", "duplicate",
                                 "replace"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    else:
        tokens = lines[k].split(" ")
        t = draw(st.integers(0, len(tokens) - 1))
        tokens[t] = draw(st.sampled_from(_JUNK))
        lines[k] = " ".join(tokens)
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_damaged_files_read_or_raise_format_error(files, data):
    root, kinds = files
    name = data.draw(st.sampled_from(sorted(kinds)))
    text, read = kinds[name]
    damaged = root / "damaged.txt"
    damaged.write_text(data.draw(_mutation(text)))
    try:
        read(str(damaged))
    except FormatError:
        pass


@pytest.mark.parametrize("name", ["space-echo", "space-bare", "vector",
                                  "function", "certificate", "transcript"])
def test_bad_number_names_its_line(files, name):
    root, texts = files
    text, read = texts[name]
    lines = text.split("\n")
    k = next(k for k, line in enumerate(lines)
             if re.fullmatch(r"-?\d+/\d+", line.split(" ")[-1]))
    tokens = lines[k].split(" ")
    tokens[-1] = "x/1"
    lines[k] = " ".join(tokens)
    path = root / f"bad-{name}.txt"
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError) as info:
        read(str(path))
    assert str(info.value) == (f"{path}:{k + 1}: not an exact rational: "
                               f"'x/1'")
