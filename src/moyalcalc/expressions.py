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

Every factor and product is a pruned term map ``{(alpha, k): c}``, ``{}``
once zero.  Two one-term maps multiply as one term with the IEEE operations
``pointwise`` makes for one pair: summed exponents, ``_clean_k`` of the
summed wave vector, ``0j + c1 * c2``, then the one-term prune, which drops a
zero and raises ``ValueError`` on a non-finite or overflowing coefficient.
Any other product goes through ``pointwise``.  A literal is
``0j + complex(v)``, and later factors are still read and checked after a
zero, so an error comes from the same factor as with elements.

A sum keeps one running term map, merges each product into it with ``+`` or
``-`` as ``MoyalElement`` does, and finishes one element, equal bit for bit
to the left fold of its products.  At a product that shares a key the
fold's prunes decide which cancelled terms survive (``1e13 + x1 - 1e13`` is
``0``), so there the running map is pruned first and the combined
coefficients are checked where the fold's prune would raise.  Parsing is
linear in the term count, plus one prune of the running map per product
that shares a key.

Syntax and range errors carry 1-based column positions, as do a number that
reads as infinity and parentheses nested deeper than ``_MAX_NESTING``.  The
printer emits one canonical form per element (sorted terms, explicit "*",
repr floats), so parse(print(e)) reproduces e exactly and printing is
idempotent; it builds each distinct monomial string and each distinct
``W[...]`` string once per call.
"""

from __future__ import annotations

import math
import re
from operator import add, sub

from .elements import MoyalElement, _clean_k, _kept, _pruned, pointwise
from .structure import SymplecticStructure

__all__ = ["ExpressionError", "parse_expression", "format_element"]

_WS = re.compile(r"\s*")
# a run of digits and dots, then an exponent only where a digit follows it;
# \d is exactly the digits int() and float() accept (not superscripts)
_NUMBER = re.compile(r"[\d.]*(?:[eE][+-]?\d+)?")
_INTEGER = re.compile(r"\d+")
# the coefficient monomials and waves get: 0j + complex(1.0)
_ONE = 1 + 0j
# parenthesised sums nested deeper than this are an error
_MAX_NESTING = 100


class ExpressionError(ValueError):
    """Syntax or range error with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class _Parser:
    """Recursive descent over the grammar.

    Every factor and product is a pruned term map ``{(alpha, k): c}``, ``{}``
    once it is zero.
    """

    def __init__(self, text: str, s: SymplecticStructure):
        self.text = text
        self.pos = 0
        self.s = s
        self.zero_alpha = (0,) * s.D
        self.zero_k = (0.0,) * s.D
        self.depth = 0

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
            value = float(text[start:end])
        except ValueError as exc:
            raise ExpressionError(str(exc), start + 1) from exc
        if not math.isfinite(value):
            raise ExpressionError(f"numbers must be finite, got {value}", start + 1)
        return value

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
        while (ch := self.peek()) in ("+", "-"):
            self.pos += 1
            p = self.product()
            op = add if ch == "+" else sub
            # the left fold prunes after every product.  From one product that
            # shares a key to the next no coefficient changes and the largest
            # modulus only grows, so one prune at the next keeps what those
            # prunes keep.  A shared key can cancel, so the map is pruned
            # before it is combined, as the fold's was
            shared = not merged.keys().isdisjoint(p)
            if shared:
                merged = _pruned(merged)
            for key, c in p.items():
                merged[key] = op(merged.get(key, 0j), c)
            if shared:
                # raise where the fold's prune raises: only a combined
                # coefficient can stop being finite
                _pruned({key: merged[key] for key in p})
        return MoyalElement._trusted(self.s, merged)

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
        return value

    def _times(self, a: dict, b: dict) -> dict:
        """``pointwise`` of two factors, computed on the terms for one-term maps.

        The term product makes the IEEE operations ``pointwise`` makes for
        one term pair: summed exponents, ``_clean_k`` of the summed wave
        vector, ``0j + c1 * c2``, then the one-term prune.
        """
        if len(a) != 1 or len(b) != 1:
            a, b = MoyalElement._trusted(self.s, a), MoyalElement._trusted(self.s, b)
            return pointwise(a, b).terms
        [((alpha1, k1), c1)], [((alpha2, k2), c2)] = a.items(), b.items()
        # adding the zero vector to a snapped vector and snapping again
        # returns it unchanged (snapped components are never -0.0)
        if k1 is self.zero_k:
            k = k2
        elif k2 is self.zero_k:
            k = k1
        else:
            k = _clean_k(map(add, k1, k2))
        c = 0j + c1 * c2
        return {(tuple(map(add, alpha1, alpha2)), k): c} if _kept(c) else {}

    def _literal(self, v) -> dict:
        """The term ``unit(s, v)`` holds: ``0j + complex(v)``, pruned."""
        c = 0j + complex(v)
        return {(self.zero_alpha, self.zero_k): c} if _kept(c) else {}

    def factor(self) -> dict:
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

    def monomial(self) -> dict:
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
        return {(tuple(alpha), self.zero_k): _ONE}

    def wave(self) -> dict:
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
        return {(self.zero_alpha, _clean_k(comps)): _ONE}

    def scalar(self) -> dict:
        value = self.number()
        if self.pos < len(self.text) and self.text[self.pos] == "i":
            self.pos += 1
            return self._literal(1j * value)
        return self._literal(value)

    def paren(self) -> dict:
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
        # a sum recurses through product and factor, so its depth is bounded
        # before the interpreter's recursion limit is reached
        if self.depth == _MAX_NESTING:
            raise ExpressionError(f"parentheses nest deeper than {_MAX_NESTING} levels", self.column())
        self.expect("(")
        self.depth += 1
        # a fresh dict: nothing else holds the sum's element
        terms = self.sum().terms
        self.depth -= 1
        self.expect(")")
        return terms


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
