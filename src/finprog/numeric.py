"""Financial quantity parsing and the numeric comparison policy used for scoring.

Quantities keep their written (surface) magnitude: "1.5 billion" has mantissa
1.5 with the scale word recorded as metadata, because reasoning programs apply
unit conversions explicitly through constants. Parenthesized numbers are
negative, following accounting convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Iterator


class NotANumber(ValueError):
    """The given text cannot be read as a single financial quantity."""


# Digits with optional thousands-style comma groups and optional decimals.
_NUM = r"(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+"

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
_QUANTITY_RE = re.compile(r"(?=[$(\-−.\d])" + _QUANTITY_BODY, re.VERBOSE | re.IGNORECASE)


def format_decimal(value: Decimal) -> str:
    """Render a decimal in plain notation, without exponent or trailing zeros."""
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("", "-"):
        return "0"
    return text


@dataclass(frozen=True)
class Quantity:
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


def _mantissa(pnum: str | None, sign: str | None, num: str | None) -> Decimal:
    """The signed written magnitude of a match: parentheses or a minus negate."""
    digits = pnum or num
    try:
        mantissa = Decimal(digits.replace(",", ""))
    except InvalidOperation:  # pragma: no cover - regex precludes this
        raise NotANumber(f"unreadable number: {digits!r}")
    return -mantissa if pnum or sign else mantissa


def _quantity_from_match(m: re.Match, source: str, offset: int = 0) -> Quantity:
    """The quantity of a match in ``source``; its span is shifted by ``offset``."""
    cur_a, cur_b, pnum, sign, cur_c, num, pct, scale = m.groups()
    start, end = m.span()
    return Quantity(
        surface_text=source[start:end],
        mantissa=_mantissa(pnum, sign, num),
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
    _, m = _full_match(text)
    _, _, pnum, sign, _, num, _, _ = m.groups()
    return _mantissa(pnum, sign, num)


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
        for _, _, pnum, sign, _, num, _, _ in _QUANTITY_RE.findall(text):
            yield _mantissa(pnum, sign, num)


def mantissa_set(texts: Iterable[str]) -> frozenset[Decimal]:
    """The mantissas ``extract_numbers`` reads from the texts, as one set."""
    return frozenset(mantissas(texts))


def to_fraction(value) -> Fraction:
    """Widen a number to an exact Fraction.

    Floats go through their shortest decimal representation, so 0.1 becomes
    1/10 rather than the binary float's exact expansion.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a numeric value")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Decimal):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(Decimal(repr(value)))
    if isinstance(value, str):
        return Fraction(Decimal(value))
    raise TypeError(f"not a numeric value: {value!r}")


def decimal_places(value) -> int | None:
    """Number of displayed decimal places, or None when undeterminable.

    Decimals and floats carry their own precision; a Fraction exposes one only
    when its denominator divides a power of ten.
    """
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
    if isinstance(value, Fraction):
        den = value.denominator
        twos = 0
        while den % 2 == 0:
            den //= 2
            twos += 1
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den != 1:
            return None
        return max(twos, fives)
    return None


def round_half_up(value: Fraction, places: int) -> Fraction:
    """Round an exact rational to a decimal place count, halves away from zero."""
    scale = Fraction(10) ** places
    scaled = value * scale
    sign = -1 if scaled < 0 else 1
    magnitude = (abs(scaled.numerator) * 2 + scaled.denominator) // (2 * scaled.denominator)
    return Fraction(sign * magnitude, 1) / scale


@dataclass(frozen=True)
class TolerancePolicy:
    """Clauses under which two answer values count as equal.

    A pair matches when the absolute difference is within ``abs_tol``, the
    difference relative to max(1, |a|, |b|) is within ``rel_tol``, or the
    candidate rounded to the reference value's displayed decimal places equals
    the reference. ``percent_insensitive`` additionally tries the candidate
    multiplied and divided by 100; it is off by default.
    """

    abs_tol: Fraction = Fraction(1, 100_000)
    rel_tol: Fraction = Fraction(1, 10_000)
    round_to_reference: bool = True
    percent_insensitive: bool = False


DEFAULT_TOLERANCE = TolerancePolicy()


def _clauses_match(a: Fraction, b: Fraction, ref_places: int | None, policy: TolerancePolicy) -> bool:
    diff = abs(a - b)
    if diff <= policy.abs_tol:
        return True
    if diff <= policy.rel_tol * max(Fraction(1), abs(a), abs(b)):
        return True
    if policy.round_to_reference and ref_places is not None:
        if round_half_up(a, ref_places) == b:
            return True
    return False


def values_equal(a, b, policy: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """Whether a computed value matches a reference value under the policy.

    ``b`` is the reference: the rounding clause rounds ``a`` to ``b``'s
    displayed precision. The absolute and relative clauses are symmetric.
    """
    fa = to_fraction(a)
    fb = to_fraction(b)
    places = decimal_places(b)
    candidates = [fa]
    if policy.percent_insensitive:
        candidates += [fa * 100, fa / 100]
    return any(_clauses_match(c, fb, places, policy) for c in candidates)
