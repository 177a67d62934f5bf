"""Financial quantity parsing and the numeric comparison policy used for scoring.

Quantities keep their written (surface) magnitude: "1.5 billion" has mantissa
1.5 with the scale word recorded as metadata, because reasoning programs apply
unit conversions explicitly through constants. Parenthesized numbers are
negative, following accounting convention.

Scoring compares values in integer arithmetic. ``values_equal`` widens each
value to an integer pair (n, d) with d > 0, and each tolerance as
``Fraction()`` widens it, then decides each clause as one inequality between
integer products: the absolute and relative clauses by cross-multiplying
the difference, the rounding clause by rounding n·10^P half up with one
floor division, P being the reference's displayed decimal places.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple


class NotANumber(ValueError):
    """The given text cannot be read as a single financial quantity."""


# Digits with optional thousands-style comma groups and optional decimals.
_NUM = r"(?:[0-9]{1,3}(?:,[0-9]{3})+|[0-9]+)(?:\.[0-9]+)?|\.[0-9]+"

# A minus sign counts only when it does not directly follow a word character,
# so ranges like "2006-2008" read as two positive numbers.
_SIGN = r"(?<![\w.])[-−]"

#: One quantity token. Every match starts with one of ``$ ( - − .`` or a digit.
_QUANTITY_BODY = rf"""
    (?:(?P<cur_a>\$)\s*)?
    (?:
        \(\s*(?:(?P<cur_b>\$)\s*)?(?P<pnum>{_NUM})\s*\)
      | (?:(?P<sign>{_SIGN})\s*)?(?:(?P<cur_c>\$)\s*)?(?P<num>{_NUM})
    )
    (?:
        \s*(?P<pct>%)
      | \s*(?P<scale>thousand|million|billion|trillion)s?\b
    )?
    """

# The lookahead admits only the characters a match can start with, so the
# engine rejects every other position after one character test; the matches
# are those of the body alone.
_QUANTITY_RE = re.compile(r"(?=[$(\-−.0-9])" + _QUANTITY_BODY, re.VERBOSE | re.IGNORECASE)

# A plain number, an ASCII minus at most before it: most cells, literals and
# answers. ``_QUANTITY_RE`` matches every such text with the same sign and
# digits, so ``parse_mantissa`` reads it here first.
_PLAIN_RE = re.compile(rf"(-?)({_NUM})")


def format_decimal(value: Decimal) -> str:
    """Render a decimal in plain notation, without exponent or trailing zeros."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


class Quantity(NamedTuple):
    """One number as written in a sentence, with its decoration split off.

    ``mantissa`` is the written magnitude with the sign applied; scale words,
    percent signs, and currency marks are recorded but never folded into it.
    """

    surface_text: str
    mantissa: Decimal
    scale_word: str | None = None
    is_percent: bool = False
    is_currency: bool = False
    span: tuple[int, int] = (0, 0)

    def render(self) -> str:
        """Canonical surface form; parsing it back reproduces the mantissa."""
        text = format_decimal(self.mantissa)
        if self.is_currency:
            text = ("-$" + text[1:]) if text.startswith("-") else "$" + text
        if self.is_percent:
            text += "%"
        elif self.scale_word:
            text += " " + self.scale_word
        return text


def _signed(digits: str, negative: str | None) -> Decimal:
    """The value of ``_NUM`` digits, negated when ``negative`` is a nonempty text; a negated zero reads as 0.

    ``copy_negate`` flips the sign alone, so every digit is kept: unary minus
    would round to the context's 28 digits.
    """
    mantissa = Decimal(digits.replace(",", ""))
    return mantissa.copy_negate() if negative and mantissa else mantissa


def _mantissa(groups: tuple) -> Decimal:
    """The signed written magnitude of a match's groups: parentheses or a minus negate."""
    _, _, pnum, sign, _, num, _, _ = groups
    return _signed(pnum or num, pnum or sign)


def _quantity_from_match(m: re.Match, source: str, offset: int = 0) -> Quantity:
    """The quantity of a match in ``source``; its span is shifted by ``offset``."""
    cur_a, cur_b, cur_c, pct, scale = m.group("cur_a", "cur_b", "cur_c", "pct", "scale")
    start, end = m.span()
    return Quantity(
        surface_text=source[start:end],
        mantissa=_mantissa(m.groups()),
        scale_word=scale.lower() if scale else None,
        is_percent=bool(pct),
        is_currency=bool(cur_a or cur_b or cur_c),
        span=(start + offset, end + offset),
    )


def _full_match(text: str) -> tuple[str, re.Match]:
    """``text`` without surrounding whitespace, and its match as one quantity token."""
    stripped = text.strip()
    if not stripped:
        raise NotANumber("empty token")
    m = _QUANTITY_RE.fullmatch(stripped)
    if m is None:
        raise NotANumber(f"not a quantity token: {text!r}")
    return stripped, m


def parse_quantity(text: str) -> Quantity:
    """Parse a single candidate quantity token.

    Accepts $, %, thousands commas, parentheses (negative), a leading minus,
    and one trailing scale word. Raises NotANumber when no digit is present or
    the token has leftover characters.
    """
    stripped, m = _full_match(text)
    return _quantity_from_match(m, stripped, len(text) - len(text.lstrip()))


def parse_mantissa(text: str) -> Decimal:
    """``parse_quantity(text).mantissa``, without building the Quantity; raises NotANumber alike."""
    m = _PLAIN_RE.fullmatch(text)
    if m is not None:
        sign, digits = m.groups()
        return _signed(digits, sign)
    _, m = _full_match(text)
    return _mantissa(m.groups())


def extract_numbers(sentence: str) -> list[Quantity]:
    """All maximal quantity tokens of a sentence, left to right.

    Spans are non-overlapping and strictly increasing. Bare 4-digit years are
    included; they are legal program arguments.
    """
    return [_quantity_from_match(m, sentence) for m in _QUANTITY_RE.finditer(sentence)]


def mantissas(texts: Iterable[str]) -> Iterator[Decimal]:
    """The mantissas ``extract_numbers`` reads from the texts, in order, as they are read.

    Only the sign and digits of each match are read; no ``Quantity`` is built.
    """
    for text in texts:
        for groups in _QUANTITY_RE.findall(text):
            yield _mantissa(groups)


def first_mantissa(text: str) -> Decimal | None:
    """The mantissa of the first quantity ``extract_numbers`` reads from ``text``; None when it reads none."""
    m = _QUANTITY_RE.search(text)
    if m is None:
        return None
    return _mantissa(m.groups())


#: The most decimal digits that the numerator or the denominator of a number
#: literal's or a constant's exact value, in lowest terms, may have; a record's
#: numeric answer and table cells obey it too. Reported figures have far
#: fewer; docs/grammar.md says why the bound is 100.
MAX_NUMBER_DIGITS = 100

#: Decimal arithmetic that never rounds, whatever the number of digits.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _fits(value: Decimal) -> bool:
    """Whether ``value`` is finite and within MAX_NUMBER_DIGITS, decided exactly.

    The digits are read from ``str(value)``, one character each, and only
    when the magnitude alone does not refuse the value.
    """
    if not value.is_finite():
        return False
    if not value:
        return True  # 0/1, whatever the exponent
    adjusted = value.adjusted()
    if adjusted >= MAX_NUMBER_DIGITS:
        return False  # |value| >= 10**adjusted, so its numerator is at least as large
    text = str(value)
    if len(text) <= MAX_NUMBER_DIGITS and "E" not in text:
        return True  # at most MAX_NUMBER_DIGITS digits and fewer places: n and d are below 10**MAX_NUMBER_DIGITS
    mantissa, _, exponent_text = text.partition("E")
    if "." in mantissa:
        mantissa = mantissa.rstrip("0")  # zeros past the point; the value is unchanged
    shift = int(exponent_text or 0)
    exponent = shift - len(mantissa.partition(".")[2])
    kept = adjusted - exponent + 1  # the digits without trailing zeros, when exponent < 0
    # A value that fits is n/d with d = 2**x * 5**y < 10**MAX_NUMBER_DIGITS:
    # it is written with k = max(x, y) < 3.33 * MAX_NUMBER_DIGITS places and
    # fewer than k + MAX_NUMBER_DIGITS digits, so kept + |exponent| stays
    # below 7.7 * MAX_NUMBER_DIGITS. A longer one is refused before its
    # Fraction is built, which takes time quadratic in its length.
    if kept + abs(exponent) > 8 * MAX_NUMBER_DIGITS:
        return False
    exact = Fraction(f"{mantissa}E{shift}")
    return max(abs(exact.numerator), exact.denominator) < 10**MAX_NUMBER_DIGITS


def oversized_number(text: str) -> str | None:
    """Why ``text`` reads as a number past MAX_NUMBER_DIGITS, or None; a text no longer than that is not read."""
    try:
        if len(text) <= MAX_NUMBER_DIGITS or _fits(parse_mantissa(text)):
            return None
    except NotANumber:
        return None
    return f"a number must have terms of at most {MAX_NUMBER_DIGITS} digits"


def exact_ratio(value: Decimal) -> tuple[int, int]:
    """``value.as_integer_ratio()``, in time linear in the length of a ``value`` that ``_fits``.

    That method takes time quadratic in the coefficient's digits, and a value
    that fits may have any number of trailing zeros; so a value written with
    more than MAX_NUMBER_DIGITS characters drops them first, in linear time.
    """
    if len(str(value)) > MAX_NUMBER_DIGITS:
        value = value.normalize(_EXACT)
    return value.as_integer_ratio()


def to_fraction(value) -> Fraction:
    """Widen a number to an exact Fraction.

    Floats go through their shortest decimal representation, so 0.1 becomes
    1/10 rather than the binary float's exact expansion.
    """
    return Fraction(*_ratio(value))


def decimal_places(value) -> int | None:
    """Number of displayed decimal places, or None when undeterminable.

    Decimals and floats carry their own precision; a Fraction exposes one only
    when its denominator divides a power of ten.
    """
    if isinstance(value, Fraction):
        den = value.denominator
        twos = (den & -den).bit_length() - 1  # the position of the lowest set bit
        den >>= twos
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den != 1:
            return None
        return max(twos, fives)
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return 0
    if isinstance(value, float):
        value = Decimal(repr(value))
    if isinstance(value, Decimal):
        exponent = value.as_tuple().exponent
        if not isinstance(exponent, int):
            return None
        return max(0, -exponent)
    return None


def _ratio(value) -> tuple[int, int]:
    """``to_fraction(value)`` as a reduced (numerator, denominator), testing Decimal (the reference type) first."""
    if isinstance(value, Decimal):
        return exact_ratio(value)
    if isinstance(value, bool):
        raise TypeError("boolean is not a numeric value")
    if isinstance(value, (Fraction, int)):
        return value.numerator, value.denominator
    if isinstance(value, float):
        return Decimal(repr(value)).as_integer_ratio()
    if isinstance(value, str):
        return exact_ratio(Decimal(value))
    raise TypeError(f"not a numeric value: {value!r}")


class TolerancePolicy(NamedTuple):
    """Clauses under which two answer values count as equal.

    A pair matches when the absolute difference is within ``abs_tol``, the
    difference relative to max(1, |a|, |b|) is within ``rel_tol``, or the
    candidate rounded to the reference value's displayed decimal places equals
    the reference. ``percent_insensitive`` additionally tries the candidate
    multiplied and divided by 100; it is off by default. A tolerance may be
    an int, a float, a ``Decimal`` or a ``Fraction``, and is read at its
    exact value, as ``Fraction()`` reads it.
    """

    abs_tol: Fraction = Fraction(1, 100_000)
    rel_tol: Fraction = Fraction(1, 10_000)
    round_to_reference: bool = True
    percent_insensitive: bool = False


DEFAULT_TOLERANCE = TolerancePolicy()


def values_equal(a, b, policy: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """Whether a computed value matches a reference value under the policy.

    ``b`` is the reference: the rounding clause rounds ``a`` to ``b``'s
    displayed precision. The absolute and relative clauses are symmetric.

    Both values are widened as ``to_fraction`` widens them, to a = an/ad and
    b = bn/bd with ad, bd > 0, and each tolerance as ``Fraction()`` widens it
    (a float keeps its exact binary value), to Tn/Td and Rn/Rd. Each clause
    is then one inequality between integers:

    - absolute: |an·bd − bn·ad|·Td <= Tn·ad·bd;
    - relative: |an·bd − bn·ad|·Rd <= Rn·max(ad·bd, |an|·bd, |bn|·ad);
    - rounding, with P = ``decimal_places(b)`` and m = (2·|an|·10^P + ad) //
      (2·ad), the magnitude of a·10^P rounded half up:
      sign(an)·m·bd == bn·10^P.

    The percent-insensitive candidates are (an·100, ad) and (an, ad·100).
    """
    an, ad = _ratio(a)
    bn, bd = _ratio(b)
    tn, td = policy.abs_tol.as_integer_ratio()
    rn, rd = policy.rel_tol.as_integer_ratio()
    candidates = [(an, ad)]
    if policy.percent_insensitive:
        candidates += [(an * 100, ad), (an, ad * 100)]
    for n, d in candidates:
        diff = abs(n * bd - bn * d)
        if diff * td <= tn * d * bd or diff * rd <= rn * max(d * bd, abs(n) * bd, abs(bn) * d):
            return True
    # The clauses are pure, so the rounding one can come last, when b's places are needed.
    places = decimal_places(b) if policy.round_to_reference else None
    if places is None:
        return False
    scale = 10**places
    for n, d in candidates:
        m = (2 * abs(n) * scale + d) // (2 * d)
        if (-m if n < 0 else m) * bd == bn * scale:
            return True
    return False
