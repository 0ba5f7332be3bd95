"""Ordinal notations in Cantor normal form below epsilon_0.

A notation is a finite sum ``w^(e_1)*c_1 + ... + w^(e_k)*c_k`` with
strictly decreasing exponents (themselves notations) and positive integer
coefficients.  The empty sum is zero.  The type is a pure value: ordering,
classification and fundamental sequences are total functions on it.

Arithmetic on notations is deliberately not exposed; the parser performs
the one left-to-right sum normalization needed to accept inputs such as
``"1+w"`` (which denotes ``w``).  Every function here recurses once per
level of exponent nesting, so the parser refuses an expression nested
more than ``_MAX_NESTING`` levels deep, well inside the interpreter's
recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "OrdinalNotation",
    "OrdinalParseError",
    "ZERO",
    "ONE",
    "OMEGA",
    "parse_ordinal",
    "format_ordinal",
    "compare",
    "classify",
    "fundamental_sequence",
]

# Exponents nested deeper than this are refused by the parser.
_MAX_NESTING = 100


class OrdinalParseError(ValueError):
    """The input does not match the ordinal expression grammar."""


@dataclass(frozen=True)
class OrdinalNotation:
    """Cantor normal form: tuple of (exponent, coefficient) terms."""

    terms: tuple[tuple["OrdinalNotation", int], ...] = ()

    def __post_init__(self):
        prev: Optional[OrdinalNotation] = None
        for expo, coeff in self.terms:
            if not isinstance(expo, OrdinalNotation):
                raise TypeError("exponents must be OrdinalNotation values")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError("coefficients must be integers >= 1")
            if prev is not None and compare(expo, prev) >= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = expo

    # -- classification -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    @property
    def kind(self) -> str:
        if self.is_zero:
            return "zero"
        return "successor" if self.is_successor else "limit"

    def predecessor(self) -> "OrdinalNotation":
        if not self.is_successor:
            raise ValueError(f"{self} is not a successor")
        expo, coeff = self.terms[-1]
        if coeff > 1:
            return OrdinalNotation(self.terms[:-1] + ((expo, coeff - 1),))
        return OrdinalNotation(self.terms[:-1])

    def successor(self) -> "OrdinalNotation":
        if self.is_successor:
            expo, coeff = self.terms[-1]
            return OrdinalNotation(self.terms[:-1] + ((expo, coeff + 1),))
        return OrdinalNotation(self.terms + ((ZERO, 1),))

    # -- conversions -----------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "OrdinalNotation":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return cls(((ZERO, n),))

    def as_int(self) -> int:
        """The finite value, or ValueError when the notation is infinite."""
        if self.is_zero:
            return 0
        if len(self.terms) == 1 and self.terms[0][0].is_zero:
            return self.terms[0][1]
        raise ValueError(f"{self} is not a finite ordinal")

    @property
    def is_finite(self) -> bool:
        return self.is_zero or (len(self.terms) == 1
                                and self.terms[0][0].is_zero)

    # -- ordering --------------------------------------------------------

    def __lt__(self, other: "OrdinalNotation") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "OrdinalNotation") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "OrdinalNotation") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "OrdinalNotation") -> bool:
        return compare(self, other) >= 0

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"OrdinalNotation({format_ordinal(self)!r})"


ZERO = OrdinalNotation()
ONE = OrdinalNotation(((ZERO, 1),))
OMEGA = OrdinalNotation(((ONE, 1),))


def compare(a: OrdinalNotation, b: OrdinalNotation) -> int:
    """Total order on notations: -1, 0 or 1."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def classify(a: OrdinalNotation) -> tuple[str, Optional[OrdinalNotation]]:
    """("zero", None), ("successor", predecessor) or ("limit", None)."""
    if a.is_zero:
        return ("zero", None)
    if a.is_successor:
        return ("successor", a.predecessor())
    return ("limit", None)


def fundamental_sequence(a: OrdinalNotation, m: int) -> OrdinalNotation:
    """The m-th entry (m >= 1) of the canonical sequence converging to a.

    With ``a = g + w^(e)*c`` (last term split as ``g + w^(e)*(c-1) + w^(e)``):
    when e is a successor the entry is ``g + w^(e)*(c-1) + w^(e-1)*m``;
    when e is a limit it is ``g + w^(e)*(c-1) + w^(e[m])``.
    """
    if not a.is_limit:
        raise ValueError(f"{a} is not a limit ordinal")
    if m < 1:
        raise ValueError("sequence index must be >= 1")
    expo, coeff = a.terms[-1]
    prefix = a.terms[:-1]
    if coeff > 1:
        prefix = prefix + ((expo, coeff - 1),)
    if expo.is_successor:
        return OrdinalNotation(prefix + ((expo.predecessor(), m),))
    return OrdinalNotation(prefix + ((fundamental_sequence(expo, m), 1),))


# -- textual form --------------------------------------------------------

def format_ordinal(a: OrdinalNotation) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for expo, coeff in a.terms:
        if expo.is_zero:
            parts.append(str(coeff))
            continue
        if expo == ONE:
            head = "w"
        else:
            head = f"w^({format_ordinal(expo)})"
        parts.append(head if coeff == 1 else f"{head}*{coeff}")
    return "+".join(parts)


_TOKEN = re.compile(r"\s*(\d+|w|\^|\(|\)|\*|\+)")


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OrdinalParseError(
                f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # exponents open at the current token

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise OrdinalParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise OrdinalParseError(f"expected {tok!r}, got {got!r}")

    def parse_expr(self) -> OrdinalNotation:
        value = self.parse_term()
        while self.peek() == "+":
            self.take()
            value = _cnf_sum(value, self.parse_term())
        return value

    def parse_term(self) -> OrdinalNotation:
        tok = self.take()
        if tok.isdigit():
            return OrdinalNotation.from_int(int(tok))
        if tok != "w":
            raise OrdinalParseError(f"expected 'w' or a natural, got {tok!r}")
        expo = ONE
        if self.peek() == "^":
            self.take()
            self.expect("(")
            if self.depth == _MAX_NESTING:
                raise OrdinalParseError(
                    f"exponents nested more than {_MAX_NESTING} levels deep")
            self.depth += 1
            expo = self.parse_expr()
            self.depth -= 1
            self.expect(")")
        coeff = 1
        if self.peek() == "*":
            self.take()
            ctok = self.take()
            if not ctok.isdigit():
                raise OrdinalParseError(
                    f"expected a natural coefficient, got {ctok!r}")
            coeff = int(ctok)
            if coeff == 0:
                raise OrdinalParseError("zero coefficient is not allowed")
        if expo.is_zero:
            return OrdinalNotation.from_int(coeff)
        return OrdinalNotation(((expo, coeff),))


def _cnf_sum(a: OrdinalNotation, b: OrdinalNotation) -> OrdinalNotation:
    """Left-to-right ordinal sum, used only to normalize parsed input."""
    if b.is_zero:
        return a
    lead = b.terms[0][0]
    kept = [t for t in a.terms if compare(t[0], lead) > 0]
    merged = list(b.terms)
    if len(kept) < len(a.terms) and compare(a.terms[len(kept)][0], lead) == 0:
        merged[0] = (lead, a.terms[len(kept)][1] + b.terms[0][1])
    return OrdinalNotation(tuple(kept) + tuple(merged))


def parse_ordinal(text: str) -> OrdinalNotation:
    """Parse an ordinal expression, normalizing non-canonical sums."""
    tokens = _tokenize(text)
    if not tokens:
        raise OrdinalParseError("empty ordinal expression")
    parser = _Parser(tokens)
    value = parser.parse_expr()
    if parser.peek() is not None:
        raise OrdinalParseError(f"trailing input at token {parser.peek()!r}")
    return value


