from functools import reduce

import numpy as np
import pytest

from moyalcalc import (
    ExpressionError,
    MoyalElement,
    SymplecticStructure,
    format_element,
    monomial,
    parse_expression,
    plane_wave,
    pointwise,
    star,
    unit,
)

S2 = SymplecticStructure(2, 1.0)


def test_two_term_example():
    e = parse_expression("x1^2 x2 + (0+1i) W[1.0,0.0]", S2)
    expect = monomial(S2, (2, 1)) + plane_wave(S2, (1.0, 0.0), 1j)
    assert len(e.terms) == 2
    assert (e - expect).norm() == 0.0


def test_index_error_with_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("x3", S2)
    assert err.value.column == 1
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1 + x7^2", S2)
    assert err.value.column == 6


def test_syntax_errors_carry_positions():
    with pytest.raises(ExpressionError):
        parse_expression("x1 +", S2)
    with pytest.raises(ExpressionError):
        parse_expression("W[1.0]", S2)  # wrong arity
    with pytest.raises(ExpressionError):
        parse_expression("x1 ) x2", S2)


def test_explicit_and_implicit_products_agree():
    a = parse_expression("2.0*x1*x2", S2)
    b = parse_expression("2.0 x1 x2", S2)
    assert (a - b).norm() == 0.0
    assert (a - monomial(S2, (1, 1), 2.0)).norm() == 0.0


def test_products_are_pointwise():
    # x1 * x1 is the monomial x1^2, with no star correction term
    a = parse_expression("x1 x2", S2)
    assert len(a.terms) == 1
    w = parse_expression("W[0.5,0.0] W[0.5,0.0]", S2)
    assert (w - plane_wave(S2, (1.0, 0.0))).norm() == 0.0


def test_complex_literal_forms():
    assert (parse_expression("2.5", S2) - unit(S2, 2.5)).norm() == 0.0
    assert (parse_expression("2.5i", S2) - unit(S2, 2.5j)).norm() == 0.0
    assert (parse_expression("(1.5-0.5i)", S2) - unit(S2, 1.5 - 0.5j)).norm() == 0.0
    assert (parse_expression("(-1+2i)", S2) - unit(S2, -1 + 2j)).norm() == 0.0


def test_parenthesised_sums():
    e = parse_expression("(x1 + x2) (x1 - x2)", S2)
    expect = monomial(S2, (2, 0)) - monomial(S2, (0, 2))
    assert (e - expect).norm() < 1e-15


def _random_element(rng, s):
    """1-4 random terms; wave components on the quarter grid or at 8192 and
    above, where they are not snapped to the 2^-40 grid."""
    terms = {}
    for _t in range(int(rng.integers(1, 5))):
        alpha = tuple(int(v) for v in rng.integers(0, 4, size=s.D))
        k = tuple(
            float(v) / 4.0 if rng.random() < 0.7 else float(rng.choice([-1, 1]) * rng.uniform(8192, 1e5))
            for v in rng.integers(-6, 7, size=s.D)
        )
        terms[(alpha, k)] = complex(rng.normal(), float(rng.integers(0, 2)) * rng.normal())
    return MoyalElement(s, terms)


@pytest.mark.parametrize("D", [2, 4], ids=["D2", "D4"])
def test_round_trip_corpus(D):
    """print(parse(s)) is the identity on printed forms of random elements and
    of their star products."""
    s = SymplecticStructure(D, 1.0)
    rng = np.random.default_rng(23)
    elements = [_random_element(rng, s) for _ in range(50)]
    products = [star(a, b) for a, b in zip(elements[::2], elements[1::2])]
    assert any(len(c.terms) > 20 for c in products)
    for a in elements + products:
        printed = format_element(a)
        reparsed = parse_expression(printed, s)
        assert reparsed.terms == a.terms
        assert format_element(reparsed) == printed


def test_wave_negative_components():
    e = parse_expression("W[-1.5,0.25]", S2)
    assert (e - plane_wave(S2, (-1.5, 0.25))).norm() == 0.0


S4 = SymplecticStructure(4, 1.0)

# coefficients from 1e-13 to 1e13 make the relative prune drop terms
_SCALARS = ("2.0", "0.5", "3i", "(1.5-0.25i)", "1e13", "1e-13", "7.25")


def _random_factor(rng, s, wide):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return _SCALARS[int(rng.integers(0, len(_SCALARS)))]
    if kind == 1:
        power = int(rng.integers(1, 9 if wide else 3))
        return f"x{int(rng.integers(1, s.D + 1))}^{power}"
    comps = rng.integers(-8 if wide else -1, 9 if wide else 2, size=s.D) / 4.0
    return "W[" + ",".join(repr(float(c)) for c in comps) + "]"


def _random_product(rng, s, depth, wide):
    """(text, value) of a random product; parenthesised sums fold by reference."""
    texts, value = [], None
    for _ in range(int(rng.integers(1, 4))):
        if depth > 0 and rng.random() < 0.2:
            inner, v = _random_sum(rng, s, depth - 1, wide)
            text = f"({inner})"
        else:
            text = _random_factor(rng, s, wide)
            v = parse_expression(text, s)
        texts.append(text)
        value = v if value is None else pointwise(value, v)
    return "*".join(texts), value


def _random_sum(rng, s, depth, wide):
    """(text, value) of a random sum; the value is the left fold with + and -."""
    texts, value = [], None
    for j in range(int(rng.integers(1, 7))):
        text, v = _random_product(rng, s, depth, wide)
        minus = rng.random() < 0.4
        if j == 0:
            texts.append(f"-{text}" if minus else text)
            value = -v if minus else v
        else:
            texts.append(f" {'-' if minus else '+'} {text}")
            value = value - v if minus else value + v
    return "".join(texts), value


def _bits(e):
    return [(key, repr(c)) for key, c in e.terms.items()]


@pytest.mark.parametrize("s", [S2, S4], ids=["D2", "D4"])
def test_sum_parsing_matches_the_fold(s):
    """Sums parse to the left fold of + and - over their products, bit for bit."""
    rng = np.random.default_rng(5)
    # few distinct keys repeat across products; many distinct keys rarely do
    cases = [_random_sum(rng, s, 2, wide) for wide in (False, True) for _ in range(150)]
    x1, one = parse_expression("x1", s), unit(s, 1e13)
    cases += [
        ("x1 + x1 - x1", x1 + x1 - x1),
        ("1e13 + x1 - 1e13", one + x1 - one),
        ("1e13 + 1e-13*x1", one + pointwise(unit(s, 1e-13), x1)),
        ("-x1 - 1e13 + (x1 - x1)", -x1 - one + (x1 - x1)),
    ]

    def wave(*k):
        k += (0.0,) * (s.D - len(k))
        return "W[" + ",".join(map(repr, k)) + "]", plane_wave(s, k)

    def x(i, power=1):
        return monomial(s, tuple(power if j == i else 0 for j in range(1, s.D + 1)))

    # literal products: signed zeros, wave sums below and above the snapping
    # limit, complex coefficients, and a zero factor before later ones
    (w01, v01), (w02, v02) = wave(0.1, 0.0), wave(0.2, 0.0)
    (w9k, v9k), (w025, v025) = wave(9000.5, 0.0), wave(0.25, 0.0)
    products = [
        ("-0.0*x1 + x2", [unit(s, -0.0), x(1)], x(2)),
        (f"{w01}*{w02}", [v01, v02], None),
        (f"{w9k}*{w025}*x1", [v9k, v025, x(1)], None),
        ("2.5i*(1.5-0.25i)*x1^2*x2", [unit(s, 2.5j), unit(s, 1.5 - 0.25j), x(1, 2), x(2)], None),
        ("x1*0*x2", [x(1), unit(s, 0.0), x(2)], None),
    ]
    for text, factors, plus in products:
        value = reduce(pointwise, factors)
        cases.append((text, value if plus is None else value + plus))
    for text, expect in cases:
        assert _bits(parse_expression(text, s)) == _bits(expect), text


def test_sum_parsing_does_linear_work(monkeypatch):
    """A sum of n distinct terms passes O(n) entries through the prune."""
    from moyalcalc import elements

    n = 2000
    e = MoyalElement(S2, {((i % 50, i // 50), (0.0, 0.0)): 1.0 + i for i in range(n)})
    text = format_element(e)
    sizes = []
    pruned = elements._pruned

    def counting(merged):
        sizes.append(len(merged))
        return pruned(merged)

    monkeypatch.setattr(elements, "_pruned", counting)
    assert _bits(parse_expression(text, S2)) == _bits(e)
    assert sum(sizes) <= 10 * n


def test_literal_products_build_no_elements(monkeypatch):
    """A printed element parses without ``pointwise`` and finishes at most one
    element per product."""
    from moyalcalc import expressions

    rng = np.random.default_rng(11)
    products = [star(_random_element(rng, S2), _random_element(rng, S2)) for _ in range(4)]
    e = reduce(MoyalElement.__add__, products)
    assert len(e.terms) > 100
    text = format_element(e)
    calls = {"pointwise": 0, "finish": 0}
    pointwise_, finish = expressions.pointwise, MoyalElement._finish

    def counting_pointwise(a, b):
        calls["pointwise"] += 1
        return pointwise_(a, b)

    def counting_finish(self, structure, merged):
        calls["finish"] += 1
        return finish(self, structure, merged)

    monkeypatch.setattr(expressions, "pointwise", counting_pointwise)
    monkeypatch.setattr(MoyalElement, "_finish", counting_finish)
    assert parse_expression(text, S2).terms == e.terms
    assert calls["pointwise"] == 0
    assert calls["finish"] <= len(e.terms)


def test_literal_product_errors_come_from_the_same_factor():
    """A zero product still checks its later factors, and a coefficient that
    stops being finite raises the element's own message."""
    with pytest.raises(ExpressionError) as err:
        parse_expression("0*x3", S2)
    assert err.value.column == 3
    with pytest.raises(ValueError, match=r"^coefficients must be finite$"):
        parse_expression("1e200*1e200*x1", S2)
    with pytest.raises(ValueError, match="^coefficients must be finite, got a modulus that overflows$"):
        parse_expression("(1.5e308+1.5e308i)*x1", S2)


def test_digits_are_the_digits_int_reads():
    """Superscripts end a number with a positioned error; other decimal digits read."""
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1^²", S2)
    assert err.value.column == 4
    with pytest.raises(ExpressionError) as err:
        parse_expression("x²", S2)
    assert err.value.column == 2
    with pytest.raises(ExpressionError) as err:
        parse_expression("2²", S2)
    assert err.value.column == 2
    # an exponent longer than int() converts is positioned too
    with pytest.raises(ExpressionError) as err:
        parse_expression("x1^" + "9" * 5000, S2)
    assert err.value.column == 4
    assert parse_expression("x٣", S4).terms == monomial(S4, (0, 0, 1, 0)).terms
    assert parse_expression("٢.٥ x١^٢", S2).terms == monomial(S2, (2, 0), 2.5).terms


def test_shared_key_prefix_keeps_sum_parsing_linear(monkeypatch):
    """A key shared early does not make the rest of the sum fold term by term."""
    from moyalcalc import elements, expressions

    n = 2000
    e = MoyalElement(S2, {((i % 50, i // 50), (0.0, 0.0)): 1.0 + i for i in range(n)})
    text = "x1 + x1 + " + format_element(e)
    x1 = parse_expression("x1", S2)
    sizes = []
    pruned = elements._pruned

    def counting(merged):
        sizes.append(len(merged))
        return pruned(merged)

    monkeypatch.setattr(elements, "_pruned", counting)
    monkeypatch.setattr(expressions, "_pruned", counting, raising=False)
    assert _bits(parse_expression(text, S2)) == _bits(x1 + x1 + e)
    assert sum(sizes) <= 10 * n


def _signed_text(products):
    """The text of a sum: each product is a signed literal product such as
    ``"+x1"`` (unsigned when first), or ``(sign, factor, inner)`` for
    ``factor*(inner sum)``."""
    out = []
    for p in products:
        if isinstance(p, str):
            out.append(p)
        else:
            sign, factor, inner = p
            out.append(f"{sign}{factor}*({_signed_text(inner)})")
    return " ".join(out)


def _left_fold(products, s):
    """The left fold with + and - of separately parsed products; a
    parenthesised sum is itself folded, then multiplied with ``pointwise``."""
    value = None
    for p in products:
        if isinstance(p, str):
            sign, text = (p[0], p[1:]) if p[0] in "+-" else ("+", p)
            v = parse_expression(text, s)
        else:
            sign, factor, inner = p
            v = pointwise(parse_expression(factor, s), _left_fold(inner, s))
        if value is None:
            value = v
        else:
            value = value + v if sign == "+" else value - v
    return value


_CANCELLING = ["1e13", "+x1", "+x2", "-1e13", "+x1"]
_PRUNED_BEFORE = ["1e20", "+1e-10*x1", "+x2", "+1e-10*x1", "-1e20", "+x1"]


@pytest.mark.parametrize(
    "products",
    [
        # the top term cancels after a long run of new keys
        _CANCELLING,
        ["1e13", "+x1", "+x2", "+x1*x2", "+W[0.5,0.0]", "-1e13", "+x2", "-x1"],
        # the shared key's earlier value was already pruned by the fold
        ["1e20", "+1e-10*x1", "+1e-10*x1"],
        _PRUNED_BEFORE,
        ["1e20", "+1e-10*x1", "-1e20", "+1e-10*x1", "+x2", "-x2"],
        # shared keys inside parentheses
        ["x1", ("+", "1.0", _CANCELLING), "-x2"],
        ["x2", ("-", "x2", _PRUNED_BEFORE), "+x1*x2", ("+", "3.0", ["x1", "-x1"])],
    ],
)
def test_sum_parsing_matches_the_fold_at_shared_keys(products):
    """At each shared key the sum equals the left fold of its separately
    parsed products, bit for bit."""
    text = _signed_text(products)
    assert _bits(parse_expression(text, S2)) == _bits(_left_fold(products, S2)), text


@pytest.mark.parametrize(
    "text, message",
    [
        ("1e308 + 1e308 + )", "coefficients must be finite"),
        ("x2 - 1e308*x1 - 1e308*x1 + x9", "coefficients must be finite"),
        ("1.3e308*x1 + 1.3e308i*x1 + *", "coefficients must be finite, got a modulus that overflows"),
    ],
)
def test_shared_key_overflow_raises_at_its_product(text, message):
    """A combined coefficient that stops being finite raises before later
    input is read, as the fold's prune does."""
    with pytest.raises(ValueError) as err:
        parse_expression(text, S2)
    assert str(err.value) == message


def test_parenthesis_nesting_limit():
    """Parenthesised sums nest up to a fixed depth, and deeper ones raise at
    the first parenthesis past it."""
    from moyalcalc.expressions import _MAX_NESTING

    depth = _MAX_NESTING
    text = "(" * depth + "x1" + ")" * depth
    assert parse_expression(text, S2).terms == monomial(S2, (1, 0)).terms
    # a parenthesised complex literal is not a nested sum
    inner = "(" * depth + "(1.5-0.25i)*x1" + ")" * depth
    assert parse_expression(inner, S2).terms == monomial(S2, (1, 0), 1.5 - 0.25j).terms
    with pytest.raises(ExpressionError) as err:
        parse_expression("x2 + " + "(" * (depth + 1) + "x1" + ")" * (depth + 1), S2)
    assert err.value.column == 5 + depth + 1


def test_infinite_literal_is_positioned():
    """A number that reads as infinity raises at its own column."""
    with pytest.raises(ExpressionError, match="finite") as err:
        parse_expression("x1 + 1e400", S2)
    assert err.value.column == 6
    with pytest.raises(ExpressionError, match="finite") as err:
        parse_expression("W[0,-1e400]", S2)
    assert err.value.column == 5
    # a product of finite literals that overflows keeps the element's message
    with pytest.raises(ValueError, match=r"^coefficients must be finite$"):
        parse_expression("1e200*1e200*x1", S2)
