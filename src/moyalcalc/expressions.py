"""Expression grammar for elements, with a canonical printer.

    element := sum
    sum     := product (("+"|"-") product)*
    product := factor (("*")? factor)*          (juxtaposition allowed;
                                                 products are pointwise)
    factor  := complex | monomial | wave | "(" sum ")"
    monomial:= "x" index ("^" nat)?
    wave    := "W[" real ("," real)* "]"
    complex := real | real "i" | "(" real ("+"|"-") real "i" ")"
    index   := nonzero decimal <= D

Digits are the Unicode decimal digits that ``int()`` and ``float()`` read
(``x٣`` is ``x3``); a superscript is not a digit.

A product of literals (real, imaginary and complex numbers, monomials and
waves) is built as one term ``(alpha, k, c)``, with the IEEE operations the
element path makes: ``0j + complex(v)`` per literal, then per ``*`` the
summed exponents, ``_clean_k`` of the summed wave vector and
``0j + c1 * c2``.  After every factor the one-term form of the element prune
applies: a zero term vanishes, a non-finite coefficient or an overflowing
modulus raises ``ValueError``.  Later factors are still read and checked
after a zero, so an error comes from the same factor, with the same message,
as when every factor is an element.  Only a parenthesised sum is an element,
multiplied with ``pointwise``.

A sum merges its products' terms into one term map that is pruned and sorted
once, so parsing is linear in the term count and finishes one element.  From
the first product that shares a key with the terms before it, the sum folds
term by term with ``+`` and ``-``, because there the intermediate prunes
decide which cancelled terms survive (``1e13 + x1 - 1e13`` is ``0``); that
fold is still quadratic in the term count.  Either way the result equals the
fold of the whole sum bit for bit.

Syntax and range errors carry 1-based column positions.  The printer emits
one canonical form per element (sorted terms, explicit "*", repr floats), so
parse(print(e)) reproduces e exactly and printing is idempotent; it builds
each distinct monomial string and each distinct ``W[...]`` string once per
call.
"""

from __future__ import annotations

import re
from operator import add

from .elements import MoyalElement, _clean_k, _kept, pointwise
from .structure import SymplecticStructure

__all__ = ["ExpressionError", "parse_expression", "format_element"]

_WS = re.compile(r"\s*")
# a run of digits and dots, then an exponent only where a digit follows it;
# \d is exactly the digits int() and float() accept (not superscripts)
_NUMBER = re.compile(r"[\d.]*(?:[eE][+-]?\d+)?")
_INTEGER = re.compile(r"\d+")
# the coefficient monomials and waves get: 0j + complex(1.0)
_ONE = 1 + 0j


class ExpressionError(ValueError):
    """Syntax or range error with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _terms(value) -> dict:
    """A fresh term dict of a product value: a term, ``None`` or an element."""
    if isinstance(value, MoyalElement):
        return dict(value.terms)
    return {} if value is None else {(value[0], value[1]): value[2]}


class _Parser:
    """Recursive descent over the grammar.

    A literal factor and a product of literals are one term ``(alpha, k, c)``,
    or ``None`` once the product is zero; a parenthesised sum is an element.
    """

    def __init__(self, text: str, s: SymplecticStructure):
        self.text = text
        self.pos = 0
        self.s = s
        self.zero_alpha = (0,) * s.D
        self.zero_k = (0.0,) * s.D

    def skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def peek(self) -> str:
        self.pos = pos = _WS.match(self.text, self.pos).end()
        return self.text[pos : pos + 1]

    def column(self) -> int:
        return self.pos + 1

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ExpressionError(f"expected {ch!r}", self.column())
        self.pos += 1

    def number(self, signed: bool = False) -> float:
        self.skip_ws()
        start = digits = self.pos
        text = self.text
        if signed and text.startswith(("+", "-"), start):
            digits += 1
        end = _NUMBER.match(text, digits).end()
        if end == digits:
            raise ExpressionError("expected a number", start + 1)
        self.pos = end
        try:
            return float(text[start:end])
        except ValueError as exc:
            raise ExpressionError(str(exc), start + 1) from exc

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        match = _INTEGER.match(self.text, start)
        if match is None:
            raise ExpressionError("expected an integer", start + 1)
        self.pos = match.end()
        try:
            return int(match.group())
        except ValueError as exc:  # more digits than int() converts
            raise ExpressionError(str(exc), start + 1) from exc

    def parse(self) -> MoyalElement:
        value = self.sum()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExpressionError("trailing input", self.column())
        return value

    def sum(self) -> MoyalElement:
        # leading unary minus accepted as a convenience superset of the grammar;
        # negating kept terms keeps them all, as the element's prune would
        if self.peek() == "-":
            self.pos += 1
            merged = {key: -c for key, c in self.product().items()}
        else:
            merged = self.product()
        value = None
        while (ch := self.peek()) in ("+", "-"):
            self.pos += 1
            p = self.product()
            if value is None and not merged.keys().isdisjoint(p):
                # a shared key can cancel, and the intermediate prunes then
                # decide which small terms survive, so the rest folds term by
                # term; up to here one prune keeps what step-by-step prunes
                # keep, because the largest term survives them all
                value = MoyalElement._trusted(self.s, merged)
            if value is None:
                # a new key gets 0j + c or 0j - c, the value + and - give it
                for key, c in p.items():
                    merged[key] = 0j + c if ch == "+" else 0j - c
            else:
                p = MoyalElement._trusted(self.s, p)
                value = value + p if ch == "+" else value - p
        return MoyalElement._trusted(self.s, merged) if value is None else value

    def _starts_factor(self, ch: str) -> bool:
        return bool(ch) and (ch in "(xW." or ch.isdecimal())

    def product(self) -> dict:
        """The product's pruned, sorted terms (a fresh dict)."""
        # the grammar product is the pointwise product: expressions describe
        # carrier functions, star composition is an algebra operation
        value = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
            elif not self._starts_factor(ch):
                break
            value = self._times(value, self.factor())
        return _terms(value)

    def _times(self, a, b):
        """``pointwise`` of two factors, computed on terms where both are terms.

        The term product makes the IEEE operations ``pointwise`` makes for
        one term pair: summed exponents, ``_clean_k`` of the summed wave
        vector, ``0j + c1 * c2``, then the one-term prune.
        """
        if isinstance(a, MoyalElement) or isinstance(b, MoyalElement):
            return pointwise(self._element(a), self._element(b))
        if a is None or b is None:
            return None
        (alpha1, k1, c1), (alpha2, k2, c2) = a, b
        # adding the zero vector to a snapped vector and snapping again
        # returns it unchanged (snapped components are never -0.0)
        if k1 is self.zero_k:
            k = k2
        elif k2 is self.zero_k:
            k = k1
        else:
            k = _clean_k(map(add, k1, k2))
        c = 0j + c1 * c2
        return (tuple(map(add, alpha1, alpha2)), k, c) if _kept(c) else None

    def _element(self, value) -> MoyalElement:
        if isinstance(value, MoyalElement):
            return value
        return MoyalElement._trusted(self.s, _terms(value))

    def _literal(self, v):
        """The term ``unit(s, v)`` holds: ``0j + complex(v)``, pruned."""
        c = 0j + complex(v)
        return (self.zero_alpha, self.zero_k, c) if _kept(c) else None

    def factor(self):
        ch = self.peek()
        if ch == "x":
            return self.monomial()
        if ch == "W":
            return self.wave()
        if ch == "(":
            return self.paren()
        if ch.isdecimal() or ch == ".":
            return self.scalar()
        raise ExpressionError("expected a factor", self.column())

    def monomial(self) -> tuple:
        col = self.column()
        self.expect("x")
        idx = self.integer()
        if not 1 <= idx <= self.s.D:
            raise ExpressionError(
                f"coordinate index {idx} out of range 1..{self.s.D}", col
            )
        power = 1
        if self.peek() == "^":
            self.pos += 1
            power = self.integer()
        alpha = [0] * self.s.D
        alpha[idx - 1] = power
        return (tuple(alpha), self.zero_k, _ONE)

    def wave(self) -> tuple:
        col = self.column()
        self.expect("W")
        self.expect("[")
        comps = [self.number(signed=True)]
        while self.peek() == ",":
            self.pos += 1
            comps.append(self.number(signed=True))
        self.expect("]")
        if len(comps) != self.s.D:
            raise ExpressionError(
                f"wave vector needs {self.s.D} components, got {len(comps)}", col
            )
        return (self.zero_alpha, _clean_k(comps), _ONE)

    def scalar(self):
        value = self.number()
        if self.pos < len(self.text) and self.text[self.pos] == "i":
            self.pos += 1
            return self._literal(1j * value)
        return self._literal(value)

    def paren(self):
        # try the parenthesised complex literal "(re +- im i)" first
        save = self.pos
        self.expect("(")
        try:
            re_ = self.number(signed=True)
            sign_ch = self.peek()
            if sign_ch not in "+-":
                raise ExpressionError("not a complex literal", self.column())
            self.pos += 1
            im_ = self.number()
            if not (self.pos < len(self.text) and self.text[self.pos] == "i"):
                raise ExpressionError("not a complex literal", self.column())
            self.pos += 1
            self.expect(")")
            return self._literal(complex(re_, im_ if sign_ch == "+" else -im_))
        except ExpressionError:
            self.pos = save
        self.expect("(")
        value = self.sum()
        self.expect(")")
        return value


def parse_expression(text: str, s: SymplecticStructure) -> MoyalElement:
    """Parse the grammar above into an element over ``s``."""
    return _Parser(text, s).parse()


def _signed_coeff(c: complex) -> tuple:
    """(sign, literal) with the literal valid as a grammar factor."""
    if c.imag == 0.0:
        return ("-", repr(-c.real)) if c.real < 0 else ("+", repr(c.real))
    if c.real == 0.0:
        return ("-", f"{-c.imag!r}i") if c.imag < 0 else ("+", f"{c.imag!r}i")
    sign = "+" if c.imag >= 0 else "-"
    return ("+", f"({c.real!r}{sign}{abs(c.imag)!r}i)")


def format_element(a: MoyalElement) -> str:
    """Canonical printable form; parse(format(a)) == a."""
    if not a.terms:
        return "0.0"
    # many terms share a monomial or a wave, so each string is built once
    monomials, waves = {}, {}
    out = []
    for (alpha, k), c in a.terms.items():
        sign, lit = _signed_coeff(c)
        x = monomials.get(alpha)
        if x is None:
            x = monomials[alpha] = "".join(
                f"*x{i}" if e == 1 else f"*x{i}^{e}" for i, e in enumerate(alpha, 1) if e
            )
        w = waves.get(k)
        if w is None:
            w = waves[k] = "*W[" + ",".join(map(repr, k)) + "]" if any(k) else ""
        term = lit + x + w
        if not out:
            out.append(term if sign == "+" else f"-{term}")
        else:
            out.append(f"{sign} {term}")
    return " ".join(out)
