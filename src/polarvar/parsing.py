"""Text format for polynomials and polynomial systems.

Grammar (whitespace-insensitive)::

    poly   := ["-"] term { ("+"|"-") term }
    term   := integer [ "*" factor { "*" factor } ] | factor { "*" factor }
    factor := "x" index [ "^" natural ]
    index  := natural in [1, n]

`Polynomial.__str__` emits the same grammar with terms in decreasing
degrevlex order, so print/parse round-trips on canonical forms.

System files hold one polynomial per line; blank lines and `#` comments are
skipped, and an optional first line `vars: n` pins the ambient variable
count (otherwise it is inferred from the largest index used).
"""

from __future__ import annotations

import re

from .field import PrimeField
from .poly import Monomial, Polynomial, add_multiple

MAX_EXPONENT = 10**6


class ParseError(ValueError):
    """Syntax or range error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.bare_message = message
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start:self.pos])


def parse_polynomial(text: str, n: int, field: PrimeField) -> Polynomial:
    """Parse one polynomial in n variables; coefficients reduce mod q."""
    sc = _Scanner(text)
    acc: dict[Monomial, int] = {}
    q = field.q

    def add_term(sign: int) -> None:
        coeff, mono = _parse_term(sc, n)
        add_multiple(acc, {tuple(mono): 1}, sign * coeff, q)

    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    elif sc.peek() == "+":
        sc.take()
    add_term(sign)
    while True:
        ch = sc.peek()
        if ch == "":
            break
        if ch == "+":
            sc.take()
            add_term(1)
        elif ch == "-":
            sc.take()
            add_term(-1)
        else:
            raise ParseError(f"unexpected character {ch!r}", sc.pos)
    return Polynomial(field, n, acc, _clean=True)


def _parse_term(sc: _Scanner, n: int) -> tuple[int, list[int]]:
    exps = [0] * n
    ch = sc.peek()
    if ch.isdigit():
        coeff = sc.natural()
        # a bare integer is a constant term
        while sc.peek() == "*":
            sc.take()
            _parse_factor(sc, exps, n)
        return coeff, exps
    if ch == "x":
        _parse_factor(sc, exps, n)
        while sc.peek() == "*":
            sc.take()
            _parse_factor(sc, exps, n)
        return 1, exps
    raise ParseError("expected a term", sc.pos)


def _parse_factor(sc: _Scanner, exps: list[int], n: int) -> None:
    pos = sc.pos
    ch = sc.peek()
    if ch != "x":
        raise ParseError("expected a variable factor", sc.pos)
    sc.take()
    idx_pos = sc.pos
    idx = sc.natural()
    if not 1 <= idx <= n:
        raise ParseError(f"variable index {idx} out of range 1..{n}", idx_pos)
    e = 1
    if sc.peek() == "^":
        sc.take()
        exp_pos = sc.pos
        e = sc.natural()
        if e > MAX_EXPONENT:
            raise ParseError(f"exponent {e} exceeds cap {MAX_EXPONENT}", exp_pos)
    if exps[idx - 1] + e > MAX_EXPONENT:
        raise ParseError("accumulated exponent overflow", pos)
    exps[idx - 1] += e


_VAR_RE = re.compile(r"x(\d+)")
_VARS_HEADER_RE = re.compile(r"^\s*vars\s*:\s*(\d+)\s*$")


def parse_system(text: str, field: PrimeField) -> tuple[list[Polynomial], int]:
    """Parse a system file body; returns (polynomials, ambient n)."""
    lines: list[tuple[int, str]] = []
    declared: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _VARS_HEADER_RE.match(line)
        if m:
            if lines or declared is not None:
                raise ParseError("vars: header must be the first non-comment line", 0)
            declared = int(m.group(1))
            continue
        lines.append((lineno, line))
    if not lines:
        raise ParseError("system file contains no polynomials", 0)
    n = declared
    if n is None:
        seen = 0
        for _, line in lines:
            for m in _VAR_RE.finditer(line):
                seen = max(seen, int(m.group(1)))
        if seen == 0:
            raise ParseError("cannot infer variable count from constants only", 0)
        n = seen
    polys: list[Polynomial] = []
    for lineno, line in lines:
        try:
            polys.append(parse_polynomial(line, n, field))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.bare_message}",
                             exc.position) from None
    return polys, n
