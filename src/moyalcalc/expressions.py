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

A sum merges its products into one term map that is pruned and sorted once,
so parsing is linear in the term count.  From the first product that shares
a key with the terms before it, the sum folds term by term with ``+`` and
``-``, because there the intermediate prunes decide which cancelled terms
survive (``1e13 + x1 - 1e13`` is ``0``).  Either way the result equals the
fold of the whole sum bit for bit.

Syntax and range errors carry 1-based column positions.  The printer emits
one canonical form per element (sorted terms, explicit "*", repr floats), so
parse(print(e)) reproduces e exactly and printing is idempotent.
"""

from __future__ import annotations

from .elements import MoyalElement, monomial, plane_wave, pointwise, unit
from .structure import SymplecticStructure

__all__ = ["ExpressionError", "parse_expression", "format_element"]


class ExpressionError(ValueError):
    """Syntax or range error with a 1-based column position."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def column(self) -> int:
        return self.pos + 1

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ExpressionError(f"expected {ch!r}", self.column())
        self.pos += 1

    def number(self, signed: bool = False) -> float:
        self.skip_ws()
        start = self.pos
        i = self.pos
        text = self.text
        if signed and i < len(text) and text[i] in "+-":
            i += 1
        digits = i
        while i < len(text) and (text[i].isdigit() or text[i] == "."):
            i += 1
        if i < len(text) and text[i] in "eE":
            j = i + 1
            if j < len(text) and text[j] in "+-":
                j += 1
            if j < len(text) and text[j].isdigit():
                i = j
                while i < len(text) and text[i].isdigit():
                    i += 1
        if i == digits:
            raise ExpressionError("expected a number", self.column())
        self.pos = i
        try:
            return float(text[start:i])
        except ValueError as exc:
            raise ExpressionError(str(exc), start + 1) from exc

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExpressionError("expected an integer", start + 1)
        return int(self.text[start : self.pos])


class _Parser:
    def __init__(self, text: str, s: SymplecticStructure):
        self.sc = _Scanner(text)
        self.s = s

    def parse(self) -> MoyalElement:
        value = self.sum()
        self.sc.skip_ws()
        if self.sc.pos != len(self.sc.text):
            raise ExpressionError("trailing input", self.sc.column())
        return value

    def sum(self) -> MoyalElement:
        # leading unary minus accepted as a convenience superset of the grammar
        if self.sc.peek() == "-":
            self.sc.pos += 1
            first = -self.product()
        else:
            first = self.product()
        merged, value = dict(first.terms), None
        while (ch := self.sc.peek()) in ("+", "-"):
            self.sc.pos += 1
            p = self.product()
            if value is None and not merged.keys().isdisjoint(p.terms):
                # a shared key can cancel, and the intermediate prunes then
                # decide which small terms survive, so the rest folds term by
                # term; up to here one prune keeps what step-by-step prunes
                # keep, because the largest term survives them all
                value = MoyalElement._trusted(self.s, merged)
            if value is None:
                # a new key gets 0j + c or 0j - c, the value + and - give it
                for key, c in p.terms.items():
                    merged[key] = 0j + c if ch == "+" else 0j - c
            else:
                value = value + p if ch == "+" else value - p
        return MoyalElement._trusted(self.s, merged) if value is None else value

    def _starts_factor(self, ch: str) -> bool:
        return bool(ch) and (ch in "(xW" or ch.isdigit() or ch == ".")

    def product(self) -> MoyalElement:
        # the grammar product is the pointwise product: expressions describe
        # carrier functions, star composition is an algebra operation
        value = self.factor()
        while True:
            ch = self.sc.peek()
            if ch == "*":
                self.sc.pos += 1
                value = pointwise(value, self.factor())
            elif self._starts_factor(ch):
                value = pointwise(value, self.factor())
            else:
                return value

    def factor(self) -> MoyalElement:
        ch = self.sc.peek()
        if ch == "x":
            return self.monomial()
        if ch == "W":
            return self.wave()
        if ch == "(":
            return self.paren()
        if ch.isdigit() or ch == ".":
            return self.scalar()
        raise ExpressionError("expected a factor", self.sc.column())

    def monomial(self) -> MoyalElement:
        col = self.sc.column()
        self.sc.expect("x")
        idx = self.sc.integer()
        if not 1 <= idx <= self.s.D:
            raise ExpressionError(
                f"coordinate index {idx} out of range 1..{self.s.D}", col
            )
        power = 1
        if self.sc.peek() == "^":
            self.sc.pos += 1
            power = self.sc.integer()
        alpha = [0] * self.s.D
        alpha[idx - 1] = power
        return monomial(self.s, alpha)

    def wave(self) -> MoyalElement:
        col = self.sc.column()
        self.sc.expect("W")
        self.sc.expect("[")
        comps = [self.sc.number(signed=True)]
        while self.sc.peek() == ",":
            self.sc.pos += 1
            comps.append(self.sc.number(signed=True))
        self.sc.expect("]")
        if len(comps) != self.s.D:
            raise ExpressionError(
                f"wave vector needs {self.s.D} components, got {len(comps)}", col
            )
        return plane_wave(self.s, comps)

    def scalar(self) -> MoyalElement:
        value = self.sc.number()
        if self.sc.pos < len(self.sc.text) and self.sc.text[self.sc.pos] == "i":
            self.sc.pos += 1
            return unit(self.s, 1j * value)
        return unit(self.s, value)

    def paren(self) -> MoyalElement:
        # try the parenthesised complex literal "(re +- im i)" first
        save = self.sc.pos
        self.sc.expect("(")
        try:
            re_ = self.sc.number(signed=True)
            sign_ch = self.sc.peek()
            if sign_ch not in "+-":
                raise ExpressionError("not a complex literal", self.sc.column())
            self.sc.pos += 1
            im_ = self.sc.number()
            if not (self.sc.pos < len(self.sc.text) and self.sc.text[self.sc.pos] == "i"):
                raise ExpressionError("not a complex literal", self.sc.column())
            self.sc.pos += 1
            self.sc.expect(")")
            return unit(self.s, complex(re_, im_ if sign_ch == "+" else -im_))
        except ExpressionError:
            self.sc.pos = save
        self.sc.expect("(")
        value = self.sum()
        self.sc.expect(")")
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
    out = []
    for (alpha, k), c in a.terms.items():
        sign, lit = _signed_coeff(c)
        factors = [lit]
        for i, e in enumerate(alpha):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        if any(x != 0.0 for x in k):
            factors.append("W[" + ",".join(repr(x) for x in k) + "]")
        term = "*".join(factors)
        if not out:
            out.append(term if sign == "+" else f"-{term}")
        else:
            out.append(f"{'+' if sign == '+' else '-'} {term}")
    return " ".join(out)
