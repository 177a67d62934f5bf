import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finprog.context import EvidenceContext, FinTable
from finprog.dsl import parse_program, validate
from finprog.numeric import (
    _QUANTITY_BODY,
    _QUANTITY_RE,
    NotANumber,
    Quantity,
    TolerancePolicy,
    decimal_places,
    extract_numbers,
    first_mantissa,
    format_decimal,
    mantissas,
    parse_mantissa,
    parse_quantity,
    to_fraction,
    values_equal,
)

from generators import (
    oracle_decimal_places,
    oracle_values_equal,
    random_context,
    random_number_text,
    round_half_up,
)


class TestParseQuantity:
    def test_percent(self):
        q = parse_quantity("5%")
        assert q.mantissa == Decimal("5")
        assert q.is_percent and not q.is_currency and q.scale_word is None

    def test_parenthesized_is_negative(self):
        assert parse_quantity("(23.1)").mantissa == Decimal("-23.1")

    def test_scale_word_is_metadata_only(self):
        q = parse_quantity("1.5 billion")
        assert q.mantissa == Decimal("1.5")
        assert q.scale_word == "billion"
        assert not q.is_percent

    def test_currency_with_commas(self):
        q = parse_quantity("$1,500")
        assert q.mantissa == Decimal("1500")
        assert q.is_currency

    def test_bare_year(self):
        assert parse_quantity("2006").mantissa == Decimal("2006")

    def test_negative_sign(self):
        assert parse_quantity("-3.5").mantissa == Decimal("-3.5")

    def test_currency_inside_parens(self):
        q = parse_quantity("$(12.0)")
        assert q.mantissa == Decimal("-12.0")
        assert q.is_currency

    def test_plural_scale(self):
        assert parse_quantity("3 millions").scale_word == "million"

    @pytest.mark.parametrize("bad", ["", "abc", "$", "()", "%", "5% million", "1.2.3"])
    def test_malformed(self, bad):
        with pytest.raises(NotANumber):
            parse_quantity(bad)

    def test_span_covers_token(self):
        q = parse_quantity("  5% ")
        assert q.span == (2, 4)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["", " ", "\t ", "\u00a0"]), st.sampled_from(["", " ", "\n"]))
    def test_padded_token_reads_as_in_a_sentence(self, seed, left, right):
        text = left + random_number_text(Random(seed)) + right
        assert parse_quantity(text) == extract_numbers(text)[0]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 2**32).map(lambda seed: random_number_text(Random(seed))),
            st.text(alphabet=" \t\u00a0$()%,.-−0159abilmnot"),
            st.from_regex(r"-?[0-9,.]{1,40}", fullmatch=True),
            st.text(),
        )
    )
    # parse_mantissa reads a plain number, a minus at most before it, on its
    # own path: a negated zero still reads as 0, a minus before more than 28
    # digits keeps every digit as _QUANTITY_RE's path does, and every other
    # text falls through to the quantity pattern.
    @example("-0")
    @example("-.0")
    @example("-0.000")
    @example("1,234")
    @example("-1,234,567.00")
    @example("1,23")
    @example(" 5")
    @example("5\n")
    @example("−5")
    @example("\u0661")
    @example("-")
    @example("--5")
    @example("-" + "9" * 40)
    def test_mantissa_is_the_quantitys(self, text):
        try:
            expected = parse_quantity(text).mantissa
        except NotANumber as e:
            with pytest.raises(NotANumber, match=re.escape(str(e))):
                parse_mantissa(text)
        else:
            got = parse_mantissa(text)
            assert (repr(got), got.as_tuple()) == (repr(expected), expected.as_tuple())


class TestLongNegatives:
    """A negative number keeps every digit, past the 28 of decimal's default context too."""

    DIGITS = "1234567890" * 10

    @pytest.mark.parametrize("length", [28, 29, 30, 41, 64, 99, 100])
    def test_every_digit_is_kept(self, length):
        digits = self.DIGITS[:length]
        grouped = f"{int(digits):,}"
        for text, written in [
            (f"-{digits}", f"-{digits}"),
            (f"-{digits}.25", f"-{digits}.25"),
            (f"-.{digits}", f"-0.{digits}"),
            (f"({digits})", f"-{digits}"),
            (f"\u2212{digits}", f"-{digits}"),
            (f"-${grouped}", f"-{digits}"),
            (f"( $ {grouped} ) million", f"-{digits}"),
        ]:
            expected = Decimal(written)  # the constructor is exact; unary minus would round
            assert parse_quantity(text).mantissa.as_tuple() == expected.as_tuple(), text
            assert parse_mantissa(text).as_tuple() == expected.as_tuple(), text
            sentence = f"the balance was {text} in 2019 ."
            assert [q.mantissa for q in extract_numbers(sentence)] == [expected, 2019]
            assert list(mantissas([sentence])) == [expected, 2019]
            assert first_mantissa(sentence) == expected
            assert EvidenceContext.build([sentence]).mentions(expected)

    @pytest.mark.parametrize("text", ["-0", "-.0", "-0.000", "(0)", "-$0.00", "\u22120", "-0,000"])
    def test_a_negated_zero_reads_as_a_non_negative_zero(self, text):
        for value in (parse_quantity(text).mantissa, parse_mantissa(text)):
            assert value == 0 and not value.is_signed(), text
        assert parse_mantissa("-0.000").as_tuple() == Decimal("0.000").as_tuple()


class TestExtractNumbers:
    def test_mixed_sentence(self):
        got = extract_numbers("revenue grew 5% to $1,500 in 2006")
        assert [q.mantissa for q in got] == [Decimal("5"), Decimal("1500"), Decimal("2006")]
        assert got[0].is_percent and got[1].is_currency
        assert not got[2].is_percent and not got[2].is_currency

    def test_no_numbers(self):
        assert extract_numbers("no numbers here") == []

    def test_accounting_negative_with_scale(self):
        got = extract_numbers("(0.5) billion vs 50 million")
        assert [(q.mantissa, q.scale_word) for q in got] == [
            (Decimal("-0.5"), "billion"),
            (Decimal("50"), "million"),
        ]

    def test_year_range_is_two_positives(self):
        got = extract_numbers("over 2006-2008 margins fell")
        assert [q.mantissa for q in got] == [Decimal("2006"), Decimal("2008")]

    def test_spans_strictly_increasing_and_exact(self):
        rng = Random(40)
        for _ in range(300):
            sentence = " ".join(random_number_text(rng) for _ in range(rng.randint(1, 6)))
            previous_end = -1
            for q in extract_numbers(sentence):
                start, end = q.span
                assert start > previous_end
                assert sentence[start:end] == q.surface_text
                previous_end = end


# Texts made of the characters a quantity is built from, plus a NUL, a
# non-ASCII digit (Arabic-Indic three, which no quantity reads) and scale words.
_scan_texts = st.lists(
    st.sampled_from(
        list("0123456789,.$()%-−") + [" ", "\t", "\n", "\x00", "\u0663"]
        + ["thousand", "Million", "billions", "trillion", "x"]
    ),
    max_size=24,
).map("".join)

_UNGATED_RE = re.compile(_QUANTITY_BODY, re.VERBOSE | re.IGNORECASE)


def _scan(pattern, text):
    return [(m.span(), m.groups()) for m in pattern.finditer(text)]


class TestQuantityScan:
    @settings(max_examples=1000)
    @given(_scan_texts)
    def test_lookahead_keeps_every_match(self, text):
        assert _scan(_QUANTITY_RE, text) == _scan(_UNGATED_RE, text)
        assert bool(_QUANTITY_RE.fullmatch(text)) == bool(_UNGATED_RE.fullmatch(text))

    @given(st.lists(_scan_texts, max_size=4), st.lists(_scan_texts, min_size=2, max_size=2))
    def test_number_values_are_extracted_mantissas(self, sentences, row):
        table = FinTable.from_rows([["", "2019"], row])
        ctx = EvidenceContext.build(sentences, table)
        texts = [*sentences, "", "2019", *row]
        assert ctx.number_values == {q.mantissa for t in texts for q in extract_numbers(t)}
        tokens = [format_decimal(q.mantissa) for t in texts for q in extract_numbers(t)]
        assert ctx.number_tokens() == list(dict.fromkeys(tokens))

    def test_number_values_on_generated_contexts(self):
        rng = Random(41)
        for _ in range(200):
            ctx = random_context(rng)
            texts = [*ctx.text_sentences, *ctx.table.header]
            for name, cells in ctx.table.rows:
                texts += [name, *cells]
            expected = {q.mantissa for t in texts for q in extract_numbers(t)}
            assert ctx.number_values == expected
            tokens = [format_decimal(q.mantissa) for t in texts for q in extract_numbers(t)]
            assert ctx.number_tokens() == list(dict.fromkeys(tokens))
            assert all(isinstance(v, Decimal) for v in ctx.number_values)
            for value in [*expected, Decimal(rng.randint(-9999, 9999)).scaleb(-rng.randint(0, 3))]:
                for spelling in (value, -value):
                    assert ctx.mentions(spelling) == (spelling in expected)

    def test_number_tokens_in_first_appearance_order(self):
        table = FinTable.from_rows([["", "2019", "1.5"], ["row 4", "7", "9"]])
        ctx = EvidenceContext.build(["sales rose 1.50 to 7 .", "costs were 3 ."], table)
        assert ctx.number_tokens() == ["1.5", "7", "3", "2019", "4", "9"]

    def test_membership_by_value(self):
        ctx = EvidenceContext.build(["margin rose 1.5 points ; the change was -0 ."])
        assert Fraction(3, 2) in ctx.number_values
        assert Decimal("1.50") in ctx.number_values
        assert 0 in ctx.number_values and Fraction(0) in ctx.number_values
        assert Fraction(-3, 2) not in ctx.number_values


# Texts with parentheses, both minus signs, bare-dot decimals, comma groups,
# percent and scale words, non-ASCII digits and words, or with no number.
_first_number_texts = st.lists(
    st.sampled_from(
        list("0123456789,.$()%-−") + [" ", "\u0663", "\u0969", "x", "net", "Million", "billions"]
        + ["$.5", "(12)", "(1,234.5)", "−3", "1,000,000", "12.5%", "4 thousand", "2006-2008"]
    ),
    max_size=16,
).map("".join)


class TestFirstMantissa:
    @settings(max_examples=500)
    @given(_first_number_texts)
    def test_first_mantissa_is_the_first_extracted_quantitys(self, text):
        quantities = extract_numbers(text)
        first = first_mantissa(text)
        if quantities:
            assert repr(first) == repr(quantities[0].mantissa)
        else:
            assert first is None

    @pytest.mark.parametrize("text", ["sales \u0663\u0664 million", "\u0663", "$\u0663.\u0665", "(\u0663)", ".\u0665"])
    def test_non_ascii_digits_are_not_read(self, text):
        # docs/grammar.md's digit is "0" to "9"; Decimal would read these.
        assert first_mantissa(text) is None
        assert extract_numbers(text) == []
        with pytest.raises(NotANumber):
            parse_mantissa(text)


# Texts built from number pieces that differ from a literal's canonical
# digits: leading dots and zeros, trailing zeros, thousands commas, signs,
# parentheses, currency, percent and scale words.
_mention_texts = st.lists(
    st.sampled_from(
        list("0123456789,.$()%-−") + [" ", "\t", "\u0663", "x", "thousand", "Million"]
        + [".5", "0.5", "00.50", "1,000", "1000", "1,000.000", "(3)", "-0", "0.0", ".0", "$(1.2)", "12.5%"]
    ),
    max_size=24,
).map("".join)

_literals = st.one_of(
    st.sampled_from(
        [Decimal(x) for x in ("0", "-0", "0.0", "0.5", ".5", "-0.5", "0.50", "1000", "1E+3", "1000.00",
                              "-1000", "3", "-3", "1.2", "-1.2", "12.5", "5", "50", "0.05", "100", "10")]
    ),
    st.builds(lambda n, e: Decimal(n).scaleb(e), st.integers(-(10**7), 10**7), st.integers(-6, 3)),
)


class TestMentions:
    """``mentions`` answers exactly as membership in the set of ``mantissas`` of the context's texts."""

    @settings(max_examples=1000)
    @given(st.lists(_mention_texts, max_size=4), st.lists(_mention_texts, min_size=2, max_size=2), _literals)
    @example(["\u22121,000 \u0663"], ["net sales", "1,000"], Decimal("-1000"))  # not ASCII, and holds the value
    def test_mentions_is_membership(self, sentences, row, value):
        ctx = EvidenceContext.build(sentences, FinTable.from_rows([["", "2019"], row]))
        texts = [*sentences, "", "2019", *row]
        assert ctx.mentions(value) == (value in frozenset(mantissas(texts)))

    @given(st.lists(_mention_texts, min_size=1, max_size=4), st.data())
    def test_every_number_is_mentioned_in_any_spelling(self, sentences, data):
        ctx = EvidenceContext.build(sentences)
        for value in frozenset(mantissas(sentences)):
            trailing = data.draw(st.integers(0, 3))
            for spelling in (value, -value, value + Decimal(0).scaleb(-trailing)):
                assert ctx.mentions(spelling) == (spelling in ctx.number_values)

    def test_spellings(self):
        ctx = EvidenceContext.build(
            ["sales were $1,000 million and (3.50)% lower", "rose .5 points", "a 0.0 change", "up 7%"]
        )
        for value in ("1000", "1E+3", "1000.0", "-3.5", "0.5", ".50", "0", "-0", "7"):
            assert ctx.mentions(Decimal(value)), value
        # "100" and "10" are digits of "1000", "3.5" of "(3.50)", "70" of nothing.
        for value in ("100", "10", "3.5", "-0.5", "70", "-7", "5"):
            assert not ctx.mentions(Decimal(value)), value

    @pytest.mark.parametrize("length", [29, 40, 100])
    def test_a_number_past_28_digits(self, length):
        digits = ("1234567890" * 10)[:length]
        ctx = EvidenceContext.build([f"assets of {digits} and ({digits[1:]}.5) ."])
        for value in (digits, f"-{digits[1:]}.5", f"-{digits[1:]}.50"):
            assert ctx.mentions(Decimal(value)), value
        for value in (f"-{digits}", str(int(digits) + 1), f"{digits[1:]}.5"):
            assert not ctx.mentions(Decimal(value)), value
        assert validate(parse_program(f"add({digits}, const_1)"), ctx) == []


_mantissas = st.decimals(
    min_value=Decimal("-999999999"),
    max_value=Decimal("999999999"),
    allow_nan=False,
    allow_infinity=False,
    places=4,
)


class TestRoundTrip:
    @given(_mantissas, st.sampled_from([None, "thousand", "million", "billion", "trillion"]),
           st.booleans(), st.booleans())
    def test_render_parse_preserves_mantissa(self, mantissa, scale, percent, currency):
        if percent and scale:
            scale = None
        q = Quantity(
            surface_text="",
            mantissa=mantissa,
            scale_word=scale,
            is_percent=percent,
            is_currency=currency,
        )
        parsed = parse_quantity(q.render())
        assert parsed.mantissa == mantissa
        assert parsed.is_percent == percent
        assert parsed.is_currency == currency
        assert parsed.scale_word == scale

    def test_format_decimal_plain(self):
        assert format_decimal(Decimal("1500")) == "1500"
        assert format_decimal(Decimal("1.50")) == "1.5"
        assert format_decimal(Decimal("-0.50")) == "-0.5"
        assert format_decimal(Decimal("0")) == "0"
        assert format_decimal(Decimal("1E+2")) == "100"


class TestValuesEqual:
    def test_identity(self):
        assert values_equal(Fraction(1164, 100), Fraction(1164, 100))

    @given(st.fractions(max_denominator=10**6))
    def test_identity_property(self, value):
        assert values_equal(value, value)

    def test_percent_factor_rejected_by_default(self):
        assert not values_equal(Fraction(11637, 100000), Decimal("11.64"))

    def test_percent_insensitive_flag(self):
        policy = TolerancePolicy(percent_insensitive=True)
        assert values_equal(Fraction(11637, 100000), Decimal("11.64"), policy)

    def test_gold_precision_rounding(self):
        # round(3.3333333, 2) == 3.33 by hand
        assert values_equal(Fraction(33333333, 10000000), Decimal("3.33"))
        assert not values_equal(Fraction(33433333, 10000000), Decimal("3.33"))

    def test_rounding_clause_treats_reference_precision(self):
        assert values_equal(Fraction(1164, 8249), Decimal("0.14111"))
        assert not values_equal(Fraction(1164, 8249), Decimal("0.14121"))

    @given(st.fractions(max_denominator=1000), st.fractions(max_denominator=1000))
    def test_abs_rel_clauses_symmetric(self, a, b):
        policy = TolerancePolicy(round_to_reference=False)
        assert values_equal(a, b, policy) == values_equal(b, a, policy)

    def test_round_half_up(self):
        assert round_half_up(Fraction(5, 1000), 2) == Fraction(1, 100)
        assert round_half_up(Fraction(-5, 1000), 2) == Fraction(-1, 100)
        assert round_half_up(Fraction(33333333, 10000000), 2) == Fraction(333, 100)

    def test_float_tolerance_is_its_shortest_decimal(self):
        # eval's --abs-tol and --rel-tol are floats; the policy holds their exact decimal value.
        assert to_fraction(1e-5) == Fraction(1, 100_000)
        assert to_fraction(0.1) == Fraction(1, 10)

    def test_decimal_places(self):
        assert decimal_places(Decimal("3.33")) == 2
        assert decimal_places(7) == 0
        assert decimal_places(Fraction(3, 4)) == 2
        assert decimal_places(Fraction(1, 3)) is None
        assert decimal_places(0.25) == 2
        assert decimal_places(True) is None
        assert decimal_places(Decimal("NaN")) is None
        assert decimal_places(Decimal("-Infinity")) is None
        assert decimal_places("1.25") is None


# Differential tests: ``values_equal`` and ``decimal_places`` work in integers;
# the oracles in tests/generators.py are the Fraction formulation they replace.

_TOLERANCES = st.one_of(
    st.sampled_from([0, 1, Fraction(1, 100_000), Fraction(1, 10_000), 1e-5, 1e-4, 0.1, Decimal("0.0001"), Decimal("1E-5")]),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**7),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
    st.decimals(min_value=0, max_value=1, allow_nan=False, allow_infinity=False),
)

_POLICIES = st.builds(
    TolerancePolicy,
    abs_tol=_TOLERANCES,
    rel_tol=_TOLERANCES,
    round_to_reference=st.booleans(),
    percent_insensitive=st.booleans(),
)

#: Decimals written with any exponent: 1E+2, -0.50, 0E-7, 12.3450.
_DECIMALS = st.one_of(
    st.sampled_from([Decimal("1E+2"), Decimal("-0.50"), Decimal("0E-7"), Decimal("-0"), Decimal("1.50E-3")]),
    st.builds(
        lambda sign, digits, exponent: Decimal((sign, digits, exponent)),
        st.integers(0, 1),
        st.lists(st.integers(0, 9), min_size=1, max_size=20).map(tuple),
        st.integers(-15, 6),
    ),
)

_VALUES = st.one_of(
    st.fractions(max_denominator=10**9).filter(lambda f: abs(f) < 10**15),
    st.integers(-(10**15), 10**15),
    st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
    _DECIMALS,
)


@st.composite
def _edge_pairs(draw):
    """A reference, a policy, and a candidate on or just beside one of the policy's clause boundaries."""
    b = draw(st.one_of(_DECIMALS, st.integers(-(10**6), 10**6), st.fractions(max_denominator=1000)))
    policy = draw(_POLICIES)
    fb = to_fraction(b)
    tol = Fraction(policy.abs_tol)
    rel = Fraction(policy.rel_tol)
    places = decimal_places(b)
    half = Fraction(1, 2 * 10**places) if places is not None else Fraction(1, 2)
    edges = [tol, -tol, rel, -rel, fb * rel, -fb * rel, half, -half, Fraction(0)]
    if rel != 1:
        edges.append(fb * rel / (1 - rel))
    a = fb + draw(st.sampled_from(edges))
    nudge = draw(st.sampled_from([0, 1, -1]))
    a += nudge * Fraction(1, 10 ** draw(st.integers(1, 30)))
    a *= draw(st.sampled_from([1, 1, 100, Fraction(1, 100)]))
    kind = draw(st.sampled_from(["fraction", "fraction", "int", "float", "decimal", "str"]))
    places = oracle_decimal_places(a)
    if kind == "int" and a.denominator == 1:
        a = int(a)
    elif kind == "float":
        a = float(a)
    elif kind in ("decimal", "str") and places is not None:
        text = f"{a.numerator * 10**places // a.denominator}E-{places}"
        a = Decimal(text) if kind == "decimal" else text
    return a, b, policy


class TestIntegerTolerance:
    @given(_VALUES, _VALUES, _POLICIES)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_fraction_formulation(self, a, b, policy):
        assert values_equal(a, b, policy) == oracle_values_equal(a, b, policy)

    @given(_edge_pairs())
    @settings(max_examples=1500, deadline=None)
    def test_matches_the_fraction_formulation_at_clause_boundaries(self, pair):
        a, b, policy = pair
        assert values_equal(a, b, policy) == oracle_values_equal(a, b, policy)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (Fraction(5, 1000), Decimal("0.01"), True),  # half-up tie, away from zero
            (Fraction(-5, 1000), Decimal("-0.01"), True),
            (Fraction(4999, 1_000_000), Decimal("0.01"), False),
            (Fraction(-15, 10), Decimal("-2"), True),
            (Fraction(-25, 10), Decimal("-2"), False),
            (Fraction(1163, 1) + Fraction(1, 2), Decimal("1164"), True),
            (Fraction(1164, 1) + Fraction(1, 2), Decimal("1164"), False),
            (Fraction(125), Decimal("1.25E+2"), True),
            (Fraction(100), Decimal("1E+2"), True),
            (Fraction(-1, 2), Decimal("-0.50"), True),
        ],
    )
    def test_rounding_clause_ties(self, a, b, expected):
        policy = TolerancePolicy(abs_tol=0, rel_tol=0)
        assert values_equal(a, b, policy) is expected
        assert oracle_values_equal(a, b, policy) is expected

    @pytest.mark.parametrize("round_to_reference", [True, False])
    @pytest.mark.parametrize("percent_insensitive", [True, False])
    def test_rounding_cut_matches_the_uncut_formula_near_its_edge(self, round_to_reference, percent_insensitive):
        # Past P = bits(d) + bits(bd), values_equal decides the rounding clause
        # without building 10**P. A negative tolerance leaves a = b to that clause.
        rng = Random(97)
        seen = Counter()
        for _ in range(3000):
            bd = rng.choice([1, 2, 4, 5, 8, 10, 20, 25, 125, 1000])
            fb = Fraction(rng.randint(-(10**6), 10**6), bd)
            rounds = rng.random() < 0.2  # a ≠ b within half a unit of b's last place, far below the edge
            places = rng.randint(3, 40)
            if rounds:
                fa = fb + Fraction(rng.choice([-1, 1]), rng.randint(3, 9) * 10**places)
            else:
                fa = rng.choice([fb, fb * 100, fb / 100, fb + Fraction(rng.randint(-3, 3), rng.randint(1, 2**60))])
            denominators = [fa.denominator] + [fa.denominator * 100] * percent_insensitive
            edge = max(denominators).bit_length() + fb.denominator.bit_length()
            if not rounds:
                places = max(edge + rng.randint(-4, 3), 3)
            b = Decimal(f"{fb.numerator * 10**places // fb.denominator}E-{places}")
            tolerance = rng.choice([0, Fraction(-1, 10**12)])
            policy = TolerancePolicy(tolerance, tolerance, round_to_reference, percent_insensitive)
            got = values_equal(fa, b, policy)
            assert got == oracle_values_equal(fa, b, policy), (fa, b, policy)
            seen[places > edge, got] += 1
        assert len(seen) == 4 and min(seen.values()) > 100, seen

    def test_float_tolerance_is_its_exact_binary_value(self):
        # 0.1 as a float is a little more than 1/10, so a difference of exactly 1/10 is within it.
        policy = TolerancePolicy(abs_tol=0.1, rel_tol=0, round_to_reference=False)
        assert values_equal(Fraction(11, 10), 1, policy)
        policy = TolerancePolicy(abs_tol=0.3, rel_tol=0, round_to_reference=False)
        assert not values_equal(Fraction(13, 10), 1, policy)  # the float 0.3 is below 3/10
        assert values_equal(Fraction(13, 10), 1, TolerancePolicy(abs_tol=Fraction(3, 10), rel_tol=0))

    def test_decimal_tolerances(self):
        policy = TolerancePolicy(abs_tol=Decimal(0), rel_tol=Decimal("0.01"), round_to_reference=False)
        assert values_equal(Fraction(101), 100, policy)
        assert not values_equal(Fraction(10201, 100), 100, policy)

    @pytest.mark.parametrize("a, b", [(True, 1), (1, False), (None, 1), (1, [1])])
    def test_booleans_and_non_numbers_raise_type_error(self, a, b):
        with pytest.raises(TypeError):
            values_equal(a, b)
        with pytest.raises(TypeError):
            oracle_values_equal(a, b, TolerancePolicy())

    @given(st.integers(-(10**40), 10**40), st.integers(0, 200), st.integers(0, 200), st.sampled_from([1, 3, 7, 9, 11]))
    @example(1, 0, 0, 1)
    @example(0, 0, 0, 1)
    def test_decimal_places_matches_division_loops(self, numerator, twos, fives, other):
        value = Fraction(numerator, 2**twos * 5**fives * other)
        assert decimal_places(value) == oracle_decimal_places(value)
