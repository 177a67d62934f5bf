import re
import sys
import time
import tracemalloc
from decimal import Decimal
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finprog.context import EvidenceContext, FinTable
from finprog.dsl import (
    ALL_OPS,
    MAX_NUMBER_DIGITS,
    MAX_PROGRAM_STEPS,
    TABLE_OPS,
    ArityError,
    Constant,
    ForwardStepRef,
    NumberLiteral,
    OperationStep,
    Program,
    ProgramError,
    ProgramSyntaxError,
    RowName,
    StepRef,
    UnknownOperation,
    _fits,
    _Parser,
    constant_value,
    is_valid,
    parse_program,
    render_program,
    tokenize_program,
    validate,
)
from finprog.equiv import compare_programs
from finprog.executor import ExecutionError, execute

from generators import (
    char_loop_tokens,
    oracle_fits,
    random_context,
    random_evidence_program,
    random_program,
    random_symbolic_program,
)


class TestParse:
    def test_three_step_program(self):
        p = parse_program("divide(9413, 100), divide(8249, 100), subtract(#0, #1)")
        assert len(p.steps) == 3
        assert p.steps[0].op == "divide"
        assert p.steps[2].args == (StepRef(0), StepRef(1))

    def test_symbolic_arguments_parse_as_names(self):
        p = parse_program("add(a_1, a_2), add(a_3, a_4), subtract(#0, #1)")
        assert p.steps[0].args == (RowName("a_1"), RowName("a_2"))
        assert not is_valid(validate(p))
        assert is_valid(validate(p, allow_symbols=True))

    def test_forward_step_ref(self):
        with pytest.raises(ForwardStepRef):
            parse_program("subtract(#1, 5)")

    def test_self_reference_is_forward(self):
        with pytest.raises(ForwardStepRef):
            parse_program("add(1, 2), subtract(#1, 5)")

    def test_unknown_operation(self):
        with pytest.raises(UnknownOperation):
            parse_program("frobnicate(1, 2)")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("add(1, 2, 3)", "add takes 2 argument(s), got more than 2 (step 0)"),
            # What follows the extra ',' is never read: not a syntax error, not a forward reference.
            ("add(1, 2, ", "add takes 2 argument(s), got more than 2 (step 0)"),
            ("add(1, 2, ))", "add takes 2 argument(s), got more than 2 (step 0)"),
            ("add(1, 2, #5)", "add takes 2 argument(s), got more than 2 (step 0)"),
            ("table-sum(a, b)", "table-sum takes 1 argument(s), got more than 1 (step 0)"),
            ("add(1)", "add takes 2 argument(s), got 1 (step 0)"),
        ],
    )
    def test_arity_errors(self, text, message):
        with pytest.raises(ArityError) as caught:
            parse_program(text)
        assert str(caught.value) == message

    def test_syntax_error_carries_position(self):
        with pytest.raises(ProgramSyntaxError) as excinfo:
            parse_program("add(1,, 2)")
        assert excinfo.value.position == 6
        with pytest.raises(ProgramSyntaxError):
            parse_program("")
        with pytest.raises(ProgramSyntaxError):
            parse_program("add(1, 2), ")
        with pytest.raises(ProgramSyntaxError):
            parse_program("add(1, 2")

    def test_whitespace_insensitive(self):
        a = parse_program("add( 1 ,2 ) ,subtract(#0,  3)")
        b = parse_program("add(1, 2), subtract(#0, 3)")
        assert a == b

    def test_decorated_numbers_stripped(self):
        p = parse_program("divide($1500, 5%)")
        assert p.steps[0].args == (
            NumberLiteral(Decimal("1500")),
            NumberLiteral(Decimal("5")),
        )

    def test_row_names_keep_spaces_and_hyphens(self):
        p = parse_program("table-average(risk-free interest rate)")
        assert p.steps[0].args == (RowName("risk-free interest rate"),)
        # Whitespace around a name is any that str.isspace knows, and is dropped.
        p = parse_program("table-sum( net sales\u00a0 ), add(#0 , 1\t)")
        assert p.steps[0].args == (RowName("net sales"),)

    def test_constants(self):
        p = parse_program("multiply(5, const_1000)")
        assert p.steps[0].args[1] == Constant("const_1000")


class TestAsciiDigits:
    """docs/grammar.md's ``digit`` is "0" to "9": no other decimal digit is read as one."""

    def test_literal(self):
        program = parse_program("add(\u0663, 1)")
        assert program.steps[0].args[0] == RowName("\u0663")
        assert [d.code for d in validate(program)] == ["bad-argument-kind"]
        with pytest.raises(ExecutionError):
            execute(program)

    def test_step_reference(self):
        program = parse_program("add(1, 2), add(#\u0660, 1)")
        assert program.steps[1].args[0] == RowName("#\u0660")
        assert not is_valid(validate(program))

    @pytest.mark.parametrize("name", ["const_\u0663", "const_m\u0663", "const_1.\u0665", "const_\uff17"])
    def test_constant(self, name):
        assert constant_value(name) is None
        with pytest.raises(ProgramError, match="unknown constant"):
            parse_program(f"add(1, {name})")


class TestRender:
    def test_canonical_spacing(self):
        p = parse_program("add( 1,2 )")
        assert render_program(p) == "add(1, 2)"

    def test_flagship_example_round_trips(self):
        text = "add(a_1, a_2), add(a_3, a_4), subtract(#0, #1)"
        assert render_program(parse_program(text)) == text

    def test_random_programs_round_trip(self):
        rng = Random(17)
        for _ in range(500):
            ctx = random_context(rng)
            program = random_program(rng, ctx)
            assert parse_program(render_program(program)) == program
        for _ in range(500):
            program = random_symbolic_program(rng)
            assert parse_program(render_program(program)) == program


def _number(n):
    return NumberLiteral(Decimal(n))


class TestWellFormedByConstruction:
    @pytest.mark.parametrize(
        "build, error, text, message",
        [
            (
                lambda: OperationStep("sqrt", (_number(4), _number(2))),
                UnknownOperation,
                "sqrt(4, 2)",
                "unknown operation 'sqrt' at position 0",
            ),
            (
                lambda: OperationStep("table-sum", (RowName("a"), RowName("b"))),
                ArityError,
                "table-sum(a, b)",
                "table-sum takes 1 argument(s), got more than 1 (step 0)",
            ),
            (
                lambda: OperationStep("table-sum", (StepRef(0),)),
                ProgramError,
                "add(1, 2), table-sum(#0)",
                "table-sum takes a table row name, not a step reference at position 21",
            ),
            (
                lambda: Program(steps=()),
                ProgramError,
                "",
                "unexpected end of program at position 0 (expected operation name)",
            ),
            (
                lambda: Program(steps=(OperationStep("add", (StepRef(0), _number(1))),)),
                ForwardStepRef,
                "add(#0, 1)",
                "step 0 references #0, which is not an earlier step",
            ),
        ],
        ids=["unknown-operation", "arity", "table-argument", "empty-program", "forward-step-ref"],
    )
    def test_structural_rule_holds_when_built(self, build, error, text, message):
        with pytest.raises(ProgramError) as built:
            build()
        assert type(built.value) is error
        with pytest.raises(ProgramError) as parsed:
            parse_program(text)
        assert str(parsed.value) == message

    def test_step_ref_in_table_op_is_a_parse_error_after_the_forward_check(self):
        with pytest.raises(ForwardStepRef, match="step 0 references #0"):
            parse_program("table-sum(#0)")
        with pytest.raises(ArityError):
            parse_program("add(1, 2), table-sum(#0, b)")
        with pytest.raises(ProgramSyntaxError) as excinfo:
            parse_program("add(1, 2), table-max( #0 )")
        assert excinfo.value.position == 22  # of "#0"

    @pytest.mark.parametrize(
        "build, text, message",
        [
            (
                lambda: Program(
                    steps=(
                        OperationStep("greater", (_number(5), _number(3))),
                        OperationStep("add", (StepRef(0), _number(1))),
                    )
                ),
                "greater(5, 3), add(#0, 1)",
                "step 1 feeds the boolean result of step 0 into add",
            ),
            (
                lambda: Constant("const_foo"),
                "add(a, const_foo)",
                "unknown constant 'const_foo'",
            ),
            (
                lambda: Constant("const_" + "9" * 5000),
                "add(const_" + "9" * 5000 + ", x)",
                "unknown constant 'const_" + "9" * 5000 + "'",
            ),
            (
                lambda: NumberLiteral(Decimal("9" * 5000)),
                "add(" + "9" * 5000 + ", x)",
                "a number literal must be finite, with terms of at most 100 digits",
            ),
            (
                lambda: NumberLiteral(Decimal("0." + "0" * 5000 + "1")),
                "add(0." + "0" * 5000 + "1, x)",
                "a number literal must be finite, with terms of at most 100 digits",
            ),
            (lambda: OperationStep("add", ("a", 1)), None, "add takes program arguments, not 'a'"),
        ],
        ids=["boolean-operand", "unknown-constant", "huge-constant", "huge-literal", "tiny-literal", "not-an-argument"],
    )
    def test_argument_rule_holds_when_built(self, build, text, message):
        with pytest.raises(ProgramError) as built:
            build()
        assert type(built.value) is ProgramError and str(built.value) == message
        if text is not None:  # parsed text cannot hold a non-argument
            with pytest.raises(ProgramError) as parsed:
                parse_program(text)
            assert str(parsed.value) == message

    def test_number_bound_is_on_exact_lowest_terms(self):
        fits = [
            "9" * MAX_NUMBER_DIGITS,
            "-1" + "0" * (MAX_NUMBER_DIGITS - 1),
            "0.5" + "0" * 5000,  # 1/2
            # 2**-332 = 5**332 / 10**332: 332 places, and a denominator of 100 digits
            f"{5**332}E-332",
        ]
        for text in fits:
            NumberLiteral(Decimal(text))
        too_large = ["1" + "0" * MAX_NUMBER_DIGITS, f"{5**333}E-333", "1E+5000", "1E-999999"]
        for text in too_large + ["NaN", "-Infinity"]:
            with pytest.raises(ProgramError):
                NumberLiteral(Decimal(text))
        assert Constant("const_m" + "9" * MAX_NUMBER_DIGITS).render().startswith("const_m9")
        with pytest.raises(ProgramError):
            Constant("const_1" + "0" * MAX_NUMBER_DIGITS)

    def test_long_step_reference_is_forward(self):
        with pytest.raises(ForwardStepRef):
            parse_program("add(1, 2), add(#" + "9" * 5000 + ", 1)")
        assert parse_program("add(1, 2), add(#00, 1)").steps[1].args[0] == StepRef(0)

    def test_step_cap(self):
        def chain(n):
            return ", ".join(["add(1, 2)"] + [f"add(#{i - 1}, {i})" for i in range(1, n)])

        program = parse_program(chain(MAX_PROGRAM_STEPS))
        assert len(program) == MAX_PROGRAM_STEPS
        message = f"a program may have at most {MAX_PROGRAM_STEPS} steps"
        with pytest.raises(ProgramError, match=message):
            parse_program(chain(MAX_PROGRAM_STEPS + 1))
        with pytest.raises(ProgramError, match=message):
            Program(program.steps + program.steps[-1:])
        # The text past the bound is not read: its syntax error goes unseen.
        with pytest.raises(ProgramError, match=message):
            parse_program(chain(MAX_PROGRAM_STEPS + 1) + ", ) frobnicate((")

    def test_long_line_refused_without_reading_it(self):
        text = ", ".join(["add(1, 2)"] + [f"add(#{i - 1}, {i})" for i in range(1, 200_000)])
        start = time.perf_counter()
        with pytest.raises(ProgramError):
            parse_program(text)
        assert time.perf_counter() - start < 0.1  # reading all 4 MB takes about 0.5 s

    # A step is refused at the first ',' past its arity, so no argument
    # after it is read; building all 333,334 of them took over 2 s.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("add(" + "1, " * 333_333 + "1)", "add takes 2 argument(s), got more than 2 (step 0)"),
            ("table-sum(a" + ", b" * 333_333 + ")", "table-sum takes 1 argument(s), got more than 1 (step 0)"),
        ],
        ids=["add", "table-sum"],
    )
    def test_step_with_a_million_characters_of_arguments_refused_at_its_arity(self, text, message):
        start = time.perf_counter()
        with pytest.raises(ArityError) as caught:
            parse_program(text)
        assert time.perf_counter() - start < 0.05
        assert str(caught.value) == message

    # Lines on which a backtracking step pattern would try every shorter atom
    # or space run before giving up.
    @pytest.mark.parametrize(
        "text",
        [
            "a " * 500_000,
            "add(" + " " * 10**6 + "1",
            "table-sum(" + "net sales " * 100_000,
        ],
        ids=["words-without-punctuation", "spaces-before-an-argument", "unclosed-row-name"],
    )
    def test_long_line_without_a_step_refused_quickly(self, text):
        start = time.perf_counter()
        with pytest.raises(ProgramError):
            parse_program(text)
        assert time.perf_counter() - start < 0.1

    def test_any_table_argument_but_a_row_name_is_refused(self):
        for arg in (_number(5), Constant("const_100")):
            with pytest.raises(ProgramError, match="table-min takes a table row name"):
                OperationStep("table-min", (arg,))


# Program text: operations, arguments, punctuation, and whitespace that
# str.isspace knows, ASCII or not.
_WHITESPACE = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "\u3000"]
_PIECES = [*"(),#", *_WHITESPACE, *"0129.$%-_abxz", "add", "divide", "table-sum", "const_100", "#0", "#1", "net sales"]
_PAD = st.sampled_from(["", "", "", *_WHITESPACE])


def _token_reader(text):
    return _Parser(text).parse([])


def _outcome(read, text):
    """The Program ``read`` gives, or its error's class, message and position."""
    try:
        return "program", repr(read(text))
    except ProgramError as e:
        return type(e).__name__, str(e), getattr(e, "position", None)


@st.composite
def _program_texts(draw):
    """A random program's canonical text, with whitespace drawn around every token."""
    rng = Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        program = random_symbolic_program(rng, max_steps=6)
    else:
        program = random_program(rng, random_context(rng), max_steps=6)
    return "".join(draw(_PAD) + piece + draw(_PAD) for piece in re.split(r"([(),])", render_program(program)))


@st.composite
def _mutated(draw, texts):
    """A text with one piece inserted, deleted or replaced."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    piece = draw(st.sampled_from(_PIECES))
    return draw(st.sampled_from([text[:i] + piece + text[i:], text[:i] + text[i + 1:], text[:i] + piece + text[i + 1:]]))


@st.composite
def _capped_lines(draw):
    """Chains about MAX_PROGRAM_STEPS long, ending well or not."""
    n = draw(st.integers(MAX_PROGRAM_STEPS - 2, MAX_PROGRAM_STEPS + 3))
    steps = ["add(1, 2)"] + [f"add(#{i}, {i})" for i in range(n - 1)]
    return ", ".join(steps) + draw(st.sampled_from(["", ",", " x", ", add(", ", ) frobnicate((", ", table-sum(#0)"]))


_TEXTS = st.one_of(
    _program_texts(),
    _mutated(_program_texts()),
    st.lists(st.sampled_from(_PIECES), max_size=30).map("".join),
    _capped_lines(),
)


class TestTokenReader:
    def test_re_whitespace_is_str_isspace(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_TEXTS)
    def test_tokens_match_the_character_loop(self, text):
        tokens = list(tokenize_program(text))
        assert tokens == char_loop_tokens(text)
        for token, _ in tokens:
            assert token and token == token.strip()

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(_TEXTS)
    def test_step_pattern_reads_as_the_token_reader(self, text):
        assert _outcome(parse_program, text) == _outcome(_token_reader, text)

    # Steps that the step pattern reads but that break one rule of the
    # constructors: the token reader must name each, as it would alone.
    @pytest.mark.parametrize(
        "step, error",
        [
            ("frobnicate(1, 2)", UnknownOperation),
            ("frobnicate(a)", UnknownOperation),
            ("add(1)", ArityError),
            ("table-sum(a, b)", ArityError),
            ("add(1, 2, 3)", ArityError),
            ("table-sum(#0)", None),  # a forward reference at step 0, a syntax error later
            ("add(#7, 1)", ForwardStepRef),
            ("subtract(1, #00009)", ForwardStepRef),
            ("add(const_foo, 1)", ProgramError),
            ("divide(2, 1" + "0" * MAX_NUMBER_DIGITS + ")", ProgramError),
        ],
        ids=[
            "unknown-operation",
            "unknown-table-like-operation",
            "one-argument",
            "two-table-arguments",
            "three-arguments",
            "step-reference-in-table",
            "forward-reference",
            "padded-forward-reference",
            "unknown-constant",
            "long-literal",
        ],
    )
    @pytest.mark.parametrize("before", ["", "add(1, 2), subtract(#0, 3), "], ids=["step-0", "step-2"])
    @pytest.mark.parametrize("after", ["", ", add(1, 2)"], ids=["last", "not-last"])
    def test_step_breaking_one_rule_is_named_by_the_token_reader(self, step, error, before, after):
        text = before + step + after
        outcome = _outcome(parse_program, text)
        assert outcome == _outcome(_token_reader, text)
        if error is None:
            error = ProgramSyntaxError if before else ForwardStepRef
        assert outcome[0] == error.__name__

    @pytest.mark.parametrize(
        "text, message",
        [
            ("add(1, 2),", "unexpected end of program at position 10 (expected operation name)"),
            ("add(1, 2) x", "unexpected token 'x' at position 10 (expected ',' or end of program)"),
            ("add(1, 2), ad(#0, 3)", "unknown operation 'ad' at position 11"),
            ("add(1, 2), table-sum(#0)", "table-sum takes a table row name, not a step reference at position 21"),
            ("add(1, 2), table-sum(a, b)", "table-sum takes 1 argument(s), got more than 1 (step 1)"),
            ("add(1, 2), add(3), frobnicate(", "add takes 2 argument(s), got 1 (step 1)"),
        ],
    )
    def test_error_after_read_steps_is_the_token_readers(self, text, message):
        with pytest.raises(ProgramError) as caught:
            parse_program(text)
        assert message in str(caught.value)
        assert _outcome(parse_program, text) == _outcome(_token_reader, text)


_REASONS = {"canonical-match", "randomized-agreement", "counterexample", "incomparable-types", "degenerate"}

# Any decimal, mostly small finite ones, and long ones on both sides of
# MAX_NUMBER_DIGITS.
_DECIMALS = st.one_of(
    st.integers(-(10**4), 10**4).map(Decimal),
    st.decimals(min_value=-(10**6), max_value=10**6, places=3),
    st.decimals(),
    st.builds(lambda n, e: Decimal(f"{n}E{e}"), st.integers(-(10**110), 10**110), st.integers(-400, 400)),
)
_ARGUMENTS = {
    "number": _DECIMALS.map(NumberLiteral),
    "constant": (st.sampled_from(["const_100", "const_m1", "const_2.5", "const_bogus"]) | st.text()).map(Constant),
    "row": (st.sampled_from(["a", "b", "Net Sales"]) | st.text()).map(RowName),
    "step": st.integers(-1, 4).map(StepRef),
    "other": st.integers() | st.text() | st.none(),
}


@st.composite
def _drawn_program(draw):
    """A Program built from drawn steps, mostly well-formed; ProgramError propagates."""
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(ALL_OPS * 3 + ("sqrt",)))
        count = 1 if op in TABLE_OPS else 2
        if draw(st.integers(0, 9)) == 0:
            count = draw(st.integers(0, 3))
        kinds = ["row"] * 6 if op in TABLE_OPS else ["number"] * 3 + ["constant", "row", "step", "step"]
        args = [draw(_ARGUMENTS[draw(st.sampled_from(kinds + ["other"]))]) for _ in range(count)]
        steps.append(OperationStep(op, tuple(args)))
    return Program(tuple(steps))


# Coefficients with long zero runs (leading, inner and trailing) around the
# digit bound, in exponent form with exponents up to a million either way.
_COEFFICIENTS = st.lists(
    st.sampled_from(["1", "5", "25", "3", "9" * MAX_NUMBER_DIGITS] + ["0" * n for n in (1, 99, 100, 101, 332, 333, 801)]),
    min_size=1,
    max_size=6,
).map("".join)
_EXPONENT_FORM = st.builds(
    lambda sign, coefficient, exponent: Decimal(f"{sign}{coefficient}E{exponent}"),
    st.sampled_from(["", "-"]),
    _COEFFICIENTS,
    st.integers(-1200, 1200) | st.integers(-(10**6), 10**6),
)


class TestNumberBound:
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(_EXPONENT_FORM | _DECIMALS)
    @example(Decimal("1E+5000"))
    @example(Decimal("1E-999999"))
    @example(Decimal("0.5" + "0" * 5000))
    @example(Decimal(f"{5**332}E-332"))
    @example(Decimal(f"{5**333}E-333"))
    @example(Decimal("-1" + "0" * 100 + "E-1"))
    # (10**100 - 1) / 2**332 fits, and is written with 333 digits and 332 places
    @example(Decimal(f"{(10**100 - 1) * 5**332}E-332"))
    def test_fits_agrees_with_the_digit_tuple_reading(self, value):
        if value.is_zero():
            assert _fits(value)  # 0/1 fits, where the tuple reading refuses more than 800 zeros
        else:
            assert _fits(value) == oracle_fits(value)

    def test_zero_fits_whatever_its_exponent(self):
        for text in ("0." + "0" * 5000, "-0E-999999", "0E+5000"):
            assert _fits(Decimal(text))
        assert not oracle_fits(Decimal("0." + "0" * 5000))
        assert parse_program("add(0." + "0" * 5000 + ", 1)").steps[0].args[0].render() == "0"

    def test_a_long_value_is_refused_by_its_magnitude_alone(self):
        value = Decimal("1" * 400_000)
        tracemalloc.start()
        try:
            assert not _fits(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096

    def test_long_digits_are_read_at_a_few_bytes_each(self):
        for text in ("0." + "1" * 400_000, "0.5" + "0" * 400_000):
            value = Decimal(text)
            tracemalloc.start()
            try:
                fits = _fits(value)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert fits == oracle_fits(value)
            assert peak < 3 * 400_000  # a digit tuple holds an 8-byte pointer per digit


class TestConstructorsFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_a_built_program_is_safe_downstream(self, data):
        try:
            program = data.draw(_drawn_program())
        except ProgramError:
            return
        for allow_symbols in (False, True):
            assert isinstance(validate(program, allow_symbols=allow_symbols), list)
        try:
            execute(program)
        except ExecutionError:
            pass
        for other in (program, parse_program("add(1, 2)")):
            assert compare_programs(program, other).reason in _REASONS


class TestValidate:
    def test_clean_program(self):
        assert validate(parse_program("greater(5, 3)")) == []

    def test_ungrounded_number_needs_context(self):
        ctx = EvidenceContext.build(
            ["profit was 42"], FinTable.from_rows([["", "2019"], ["net income", "17"]])
        )
        diags = validate(parse_program("divide(9999, 2)"), ctx)
        assert any(d.code == "ungrounded-number" for d in diags)
        assert validate(parse_program("divide(42, 17)"), ctx) == []

    def test_row_resolution_against_context(self):
        ctx = EvidenceContext.build(
            [], FinTable.from_rows([["", "a"], ["Net Income", "17"]])
        )
        assert validate(parse_program("table-sum(net income)"), ctx) == []
        diags = validate(parse_program("table-sum(gross margin)"), ctx)
        assert any(d.code == "unknown-row-name" for d in diags)

    def test_duplicate_row_name_warns(self):
        ctx = EvidenceContext.build(
            [], FinTable.from_rows([["", "a"], ["total", "1"], ["Total", "2"]])
        )
        diags = validate(parse_program("table-sum(total)"), ctx)
        assert any(d.code == "duplicate-row-name" and d.severity == "warning" for d in diags)
        assert is_valid(diags)

    def test_boolean_step_in_arithmetic(self):
        # A boolean fed into arithmetic never reaches validate: building it is refused.
        with pytest.raises(ProgramError, match="feeds the boolean result of step 0 into add"):
            parse_program("greater(5, 3), add(#0, 1)")

    def test_unknown_and_nonstandard_constants(self):
        # An unknown constant never reaches validate: building it is refused.
        with pytest.raises(ProgramError, match="unknown constant 'const_bogus'"):
            parse_program("multiply(5, const_bogus)")
        diags = validate(parse_program("multiply(5, const_250)"))
        assert any(d.code == "nonstandard-constant" and d.severity == "warning" for d in diags)
        assert is_valid(diags)

    def test_random_programs_validate_clean(self):
        rng = Random(23)
        for _ in range(300):
            ctx = random_context(rng)
            assert validate(random_program(rng, ctx)) == []

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32), duplicate_row=st.booleans(), nonstandard=st.booleans())
    def test_without_evidence_is_grounded_validation_minus_grounding(self, seed, duplicate_row, nonstandard):
        """What ``load_records`` checks of a gold program: no reject or warning depends on the evidence."""
        rng = Random(seed)
        ctx = random_context(rng)
        if duplicate_row:
            table = ctx.table
            ctx = EvidenceContext(ctx.text_sentences, FinTable(table.header, table.rows + table.rows[:1]))
        program = random_evidence_program(rng, ctx)
        if nonstandard:
            program = Program(program.steps + (OperationStep("multiply", (_number(5), Constant("const_250"))),))
        grounding = {"ungrounded-number", "unknown-row-name", "duplicate-row-name"}
        assert validate(program) == [d for d in validate(program, ctx) if d.code not in grounding]
