"""Literal syntaxes: element expressions, point literals, bundle literals.

Element grammar (whitespace free between tokens, left associative):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := rational | 'i' | 'e' digits | '(' expr ')'

There is no unary minus; the canonical printer emits ``0 - ...`` when an
element's leading term is negative, which stays inside the grammar.

Point literals are comma-separated coordinates ``a/b+c/di`` with optional
parts and signs, e.g. ``1/4, 1/2+1/2i``. Bundle literals are bracketed
rational lists like ``[0, 0, 1/2, 0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .clifford import CliffordElement, Signature
from .errors import ArityMismatchError, IndexOutOfRangeError, ParseError
from .picard import BundleClass
from .scalars import GaussianRational, _reduced, format_rational
from .torus import LatticeSpec, TorusPoint


@dataclass(frozen=True)
class Literal:
    value: GaussianRational


@dataclass(frozen=True)
class Generator:
    index: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: ElementExpr
    right: ElementExpr


@dataclass(frozen=True)
class Power:
    base: ElementExpr
    exponent: int


ElementExpr = Union[Literal, Generator, BinOp, Power]


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int
    value: int = 0


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    length = len(src)
    while pos < length:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < length and src[pos].isdigit():
                pos += 1
            tokens.append(_Token("int", src[start:pos], start, int(src[start:pos])))
            continue
        if ch == "i":
            tokens.append(_Token("i", "i", pos))
            pos += 1
            continue
        if ch == "e":
            start = pos
            pos += 1
            digits_start = pos
            while pos < length and src[pos].isdigit():
                pos += 1
            if pos == digits_start:
                raise ParseError("generator needs an index, like e1", start)
            index = int(src[digits_start:pos])
            if index < 1:
                raise ParseError("generator indices start at 1", start)
            tokens.append(_Token("gen", src[start:pos], start, index))
            continue
        if ch in "+-*^()/":
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", "", length))
    return tokens


class _ElementParser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.cursor = 0

    def peek(self) -> _Token:
        return self.tokens[self.cursor]

    def advance(self) -> _Token:
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {kind!r}, found {token.text or 'end of input'!r}", token.pos)
        return self.advance()

    def parse(self) -> ElementExpr:
        expr = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing {tail.text!r}", tail.pos)
        return expr

    def expr(self) -> ElementExpr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ElementExpr:
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> ElementExpr:
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            exponent = self.expect("int")
            return Power(node, exponent.value)
        return node

    def atom(self) -> ElementExpr:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            numerator = token.value
            if self.peek().kind == "/":
                self.advance()
                denominator = self.expect("int")
                if denominator.value == 0:
                    raise ParseError("zero denominator", denominator.pos)
                return Literal(_reduced(numerator, 0, denominator.value))
            return Literal(_reduced(numerator, 0, 1))
        if token.kind == "i":
            self.advance()
            return Literal(GaussianRational(0, 1))
        if token.kind == "gen":
            self.advance()
            return Generator(token.value)
        if token.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {token.text or 'end of input'!r}", token.pos)


def parse_element(src: str) -> ElementExpr:
    """Parse an element expression into its syntax tree."""
    return _ElementParser(src).parse()


def evaluate(expr: ElementExpr, sig: Signature) -> CliffordElement:
    """Evaluate a syntax tree in the given signature, multiplying in written order."""
    if isinstance(expr, Literal):
        return CliffordElement.scalar(sig, expr.value)
    if isinstance(expr, Generator):
        if expr.index > sig.n:
            raise IndexOutOfRangeError(
                f"generator e{expr.index} outside the {sig.n}-generator algebra"
            )
        return CliffordElement.generator(sig, expr.index)
    if isinstance(expr, Power):
        return evaluate(expr.base, sig) ** expr.exponent
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, sig)
        right = evaluate(expr.right, sig)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise TypeError(f"not an element expression: {expr!r}")


def evaluate_element(src: str, sig: Signature) -> CliffordElement:
    return evaluate(parse_element(src), sig)


def _blade_source(mask: int) -> str:
    return "*".join(f"e{j + 1}" for j in range(mask.bit_length()) if mask >> j & 1)


def _coefficient_source(c: GaussianRational) -> tuple[bool, str]:
    """Split a coefficient into (is_negative, magnitude source)."""
    a, b = c.re, c.im
    if not b:
        return a < 0, format_rational(abs(a))
    if not a:
        magnitude = "i" if abs(b) == 1 else f"{format_rational(abs(b))}*i"
        return b < 0, magnitude
    negative = a < 0
    if negative:
        a, b = -a, -b
    sign = "+" if b > 0 else "-"
    imag = "i" if abs(b) == 1 else f"{format_rational(abs(b))}*i"
    return negative, f"({format_rational(a)}{sign}{imag})"


def element_source(u: CliffordElement) -> str:
    """Canonical grammar-conformant source for an element; parses back to u."""
    terms = u.terms()
    if not terms:
        return "0"
    chunks: list[str] = []
    for mask, coeff in terms:
        negative, magnitude = _coefficient_source(coeff)
        blades = _blade_source(mask)
        if not mask:
            body = magnitude
        elif magnitude == "1":
            body = blades
        else:
            body = f"{magnitude}*{blades}"
        if not chunks:
            chunks.append(f"0 - {body}" if negative else body)
        else:
            chunks.append(f"{'-' if negative else '+'} {body}")
    return " ".join(chunks)


def _parse_sign(src: str, pos: int) -> tuple[int, int]:
    if pos < len(src) and src[pos] in "+-":
        return (-1 if src[pos] == "-" else 1), pos + 1
    return 1, pos


def _parse_uint(src: str, pos: int, base: int) -> tuple[int, int]:
    start = pos
    while pos < len(src) and src[pos].isdigit():
        pos += 1
    if pos == start:
        raise ParseError("expected digits", base + start)
    return int(src[start:pos]), pos


def parse_rational(src: str, base_offset: int = 0) -> Fraction:
    """Parse a plain rational literal like ``3``, ``-1/2``."""
    return Fraction(*_parse_ratio(src, base_offset))


def _parse_ratio(src: str, base_offset: int) -> tuple[int, int]:
    """``parse_rational`` as ints: the numerator and positive denominator, as written."""
    text = src.strip()
    shift = base_offset + src.index(text) if text else base_offset
    if not text:
        raise ParseError("empty rational literal", base_offset)
    sign, pos = _parse_sign(text, 0)
    numerator, pos = _parse_uint(text, pos, shift)
    denominator = 1
    if pos < len(text) and text[pos] == "/":
        denominator, pos = _parse_uint(text, pos + 1, shift)
        if denominator == 0:
            raise ParseError("zero denominator", shift + pos - 1)
    if pos != len(text):
        raise ParseError(f"unexpected {text[pos]!r} in rational literal", shift + pos)
    return sign * numerator, denominator


def parse_gaussian(src: str, base_offset: int = 0) -> GaussianRational:
    """Parse a coordinate literal like ``1/4``, ``1/2+1/2i``, ``-i``, ``5/4-1/2i``."""
    text = src.strip()
    if not text:
        raise ParseError("empty coordinate", base_offset)
    shift = base_offset + src.index(text)

    # Each part as (numerator, positive denominator), as written.
    real: tuple[int, int] | None = None
    imag: tuple[int, int] | None = None
    pos = 0
    while pos < len(text):
        sign, pos = _parse_sign(text, pos)
        if pos < len(text) and text[pos] == "i":
            numerator, denominator = 1, 1
            pos += 1
            is_imag = True
        else:
            numerator, pos = _parse_uint(text, pos, shift)
            denominator = 1
            if pos < len(text) and text[pos] == "/":
                denominator, pos = _parse_uint(text, pos + 1, shift)
                if denominator == 0:
                    raise ParseError("zero denominator", shift + pos - 1)
            is_imag = pos < len(text) and text[pos] == "i"
            if is_imag:
                pos += 1
        if is_imag:
            if imag is not None:
                raise ParseError("two imaginary parts in one coordinate", shift + pos - 1)
            imag = sign * numerator, denominator
        else:
            if real is not None:
                raise ParseError("two real parts in one coordinate", shift + pos - 1)
            real = sign * numerator, denominator
        if pos < len(text) and text[pos] not in "+-":
            raise ParseError(f"unexpected {text[pos]!r} in coordinate", shift + pos)
    (a, q), (b, s) = real or (0, 1), imag or (0, 1)
    return _reduced(a * s, b * q, q * s)


def parse_point(src: str, k: int, lattice: LatticeSpec | None = None) -> TorusPoint:
    """Parse a comma-separated point literal with exactly 2^k coordinates."""
    lattice = lattice or LatticeSpec.default(k)
    if lattice.k != k:
        raise ArityMismatchError(f"lattice is for k={lattice.k}, requested k={k}")
    pieces = src.split(",")
    if len(pieces) != 1 << k:
        raise ArityMismatchError(
            f"expected {1 << k} coordinates for k={k}, got {len(pieces)}"
        )
    offset = 0
    coords = []
    for piece in pieces:
        coords.append(parse_gaussian(piece, offset))
        offset += len(piece) + 1
    return lattice.reduce(coords)


def parse_bundle(src: str, k: int | None = None) -> BundleClass:
    """Parse a bracketed bundle literal like ``[0, 0, 1/2, 0]``."""
    text = src.strip()
    if not text.startswith("["):
        raise ParseError("bundle literal must start with '['", src.index(text) if text else 0)
    if not text.endswith("]"):
        raise ParseError("bundle literal must end with ']'", len(src) - 1)
    inner = text[1:-1]
    pieces = inner.split(",") if inner.strip() else []
    offset = src.index("[") + 1
    chars = []
    for piece in pieces:
        chars.append(_parse_ratio(piece, offset))
        offset += len(piece) + 1
    if k is None:
        size = len(chars)
        if size < 4 or size & (size - 1):
            raise ArityMismatchError(
                f"a bundle needs 2^(k+1) >= 4 components, got {size}"
            )
        k = size.bit_length() - 2
    if len(chars) != 2 << k:
        raise ArityMismatchError(
            f"expected {2 << k} components for k={k}, got {len(chars)}"
        )
    den = math.lcm(*[d for _, d in chars])
    return BundleClass.from_numerators(k, den, [n * (den // d) % den for n, d in chars])


def point_source(p: TorusPoint) -> str:
    return str(p)


def bundle_source(bundle: BundleClass) -> str:
    return str(bundle)
