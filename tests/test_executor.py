import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finprog.context import EvidenceContext, FinTable
from finprog.dsl import (
    MATH_OPS,
    Constant,
    NumberLiteral,
    OperationStep,
    Program,
    ProgramError,
    RowName,
    StepRef,
    parse_program,
    render_program,
    validate,
)
from finprog.executor import (
    MAX_POWER_BITS,
    DivisionByZero,
    DomainError,
    EmptyNumericRow,
    ExecutionError,
    InvalidProgram,
    RowNotFound,
    UngroundedNumber,
    _iroot,
    aggregate_row,
    execute,
    power,
    render_value,
)

from generators import (
    OracleFailure,
    _oracle_constant,
    naive_execute,
    oracle_render_value,
    random_context,
    random_evidence_program,
    random_program,
)


@pytest.fixture()
def table_ctx():
    table = FinTable.from_rows(
        [
            ["", "q1", "q2", "q3"],
            ["steady", "1", "2", "3"],
            ["mixed", "5", "(2)", "7"],
            ["noisy", "n/a", "—", ""],
            ["risk-free interest rate", "5%", "4.2%", ""],
        ]
    )
    return EvidenceContext.build(["the total was 11.64 in 2006"], table)


class TestBasics:
    def test_two_step_arithmetic(self):
        assert execute(parse_program("subtract(100, 25), divide(#0, 100)")) == Fraction(3, 4)

    def test_greater_returns_boolean(self):
        assert execute(parse_program("greater(5, 3)")) is True
        assert execute(parse_program("greater(3, 5)")) is False

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            execute(parse_program("divide(5, 0)"))

    def test_exp(self):
        assert execute(parse_program("exp(2, 3)")) == 8
        assert execute(parse_program("exp(1.05, 3)")) == Fraction(1157625, 1000000)
        assert execute(parse_program("exp(16, 0.25)")) == 2
        assert execute(parse_program("exp(5, 0)")) == 1

    def test_exp_domain_errors(self):
        with pytest.raises(DomainError):
            execute(parse_program("exp(-2, 0.5)"))
        with pytest.raises(DivisionByZero):
            execute(parse_program("exp(0, -1)"))

    def test_constants_resolve(self):
        assert execute(parse_program("multiply(5, const_1000)")) == 5000
        assert execute(parse_program("multiply(5, const_m1)")) == -5

    def test_step_reference_lookup(self):
        assert execute(parse_program("add(11.64, 0), multiply(#0, 1)")) == Fraction(
            Decimal("11.64")
        )

    def test_boolean_into_math_rejected(self):
        # Such a program cannot be built, so execute never sees it.
        with pytest.raises(ProgramError, match="feeds the boolean result of step 0 into add"):
            Program(
                (
                    OperationStep("greater", (NumberLiteral(Decimal(5)), NumberLiteral(Decimal(3)))),
                    OperationStep("add", (StepRef(0), NumberLiteral(Decimal(1)))),
                )
            )

    def test_final_step_is_answer(self):
        assert execute(parse_program("add(1, 1), add(2, 2)")) == 4


class TestTableOps:
    def test_average(self, table_ctx):
        assert execute(parse_program("table-average(steady)"), table_ctx) == 2

    def test_min_with_accounting_negative(self, table_ctx):
        assert execute(parse_program("table-min(mixed)"), table_ctx) == -2

    def test_max(self, table_ctx):
        assert execute(parse_program("table-max(mixed)"), table_ctx) == 7

    def test_sum_skips_non_numeric(self, table_ctx):
        assert execute(parse_program("table-sum(risk-free interest rate)"), table_ctx) == Fraction(
            Decimal("9.2")
        )

    def test_empty_numeric_row(self, table_ctx):
        with pytest.raises(EmptyNumericRow):
            execute(parse_program("table-sum(noisy)"), table_ctx)

    def test_row_not_found(self, table_ctx):
        with pytest.raises(RowNotFound):
            execute(parse_program("table-sum(absent row)"), table_ctx)

    def test_row_resolution_is_normalized(self, table_ctx):
        assert execute(parse_program("table-max(Risk-Free Interest Rate)"), table_ctx) == 5

    def test_duplicate_rows_use_first(self):
        table = FinTable.from_rows([["", "a"], ["total", "1"], ["Total", "100"]])
        ctx = EvidenceContext.build([], table)
        assert execute(parse_program("table-sum(total)"), ctx) == 1


class TestGrounding:
    def test_lenient_by_default(self, table_ctx):
        assert execute(parse_program("add(123456, 1)"), table_ctx) == 123457

    def test_strict_mode_rejects_ungrounded(self, table_ctx):
        with pytest.raises(UngroundedNumber):
            execute(parse_program("add(123456, 1)"), table_ctx, strict_grounding=True)

    def test_strict_mode_names_the_literal(self, table_ctx):
        # 7 is in the table, -7 is not.
        with pytest.raises(UngroundedNumber, match="^-7 does not appear in the evidence$"):
            execute(parse_program("add(-7, 1)"), table_ctx, strict_grounding=True)

    def test_strict_mode_accepts_other_spellings(self, table_ctx):
        # "(2)" is -2, "4.2%" is 4.2 and "11.64" is 11.640.
        program = parse_program("add(-2, 4.20), add(#0, 11.640)")
        assert execute(program, table_ctx, strict_grounding=True) == Fraction(Decimal("13.84"))

    def test_strict_mode_accepts_grounded(self, table_ctx):
        assert execute(
            parse_program("add(11.64, 2006)"), table_ctx, strict_grounding=True
        ) == Fraction(Decimal("2017.64"))


#: The exception that each of validate's error codes stands for.
_RULE_ERRORS = {
    "bad-argument-kind": InvalidProgram,
    "unknown-row-name": RowNotFound,
    "ungrounded-number": UngroundedNumber,
}


def _first_errors(program, ctx, codes):
    return [d for d in validate(program, ctx) if d.severity == "error" and d.code in codes]


class TestEvidenceRules:
    """The executor and validate read each argument by the same rule, with the same message."""

    @pytest.mark.parametrize("text", ["add(1, steady)", "add(1, absent row)", "add(steady, 77777)"])
    def test_row_name_in_math_operation_is_invalid_program(self, table_ctx, text):
        # Refused from the operation alone: no row is read, found or not.
        message = validate(parse_program(text), table_ctx)[0].message
        assert message.startswith("add takes numbers, constants, or step references, not ")
        for strict in (False, True):
            with pytest.raises(InvalidProgram) as info:
                execute(parse_program(text), table_ctx, strict_grounding=strict)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "text", ["add(operating incomes, 1)", "add(operating income, 1)", "add(operating income, 77777)"]
    )
    def test_sample_record_row_name_in_math_operation(self, sample_records, text):
        # The class does not hang on what the table holds: the record's one
        # row is "operating income", and 1 and 77777 are not in its evidence.
        ctx = next(r for r in sample_records if r.id == "alpha/2019/page_12.pdf-0").context()
        first = validate(parse_program(text), ctx)[0]
        assert first.code == "bad-argument-kind"
        for strict in (False, True):
            with pytest.raises(InvalidProgram) as info:
                execute(parse_program(text), ctx, strict_grounding=strict)
            assert str(info.value) == first.message

    @pytest.mark.parametrize("strict", [True, False])
    def test_execute_raises_validates_first_error(self, strict):
        # Lenient mode grounds no literal, so there ungrounded-number is left out.
        codes = [code for code in _RULE_ERRORS if strict or code != "ungrounded-number"]
        classes = tuple(_RULE_ERRORS[code] for code in codes)
        rng = Random(83)
        raised = Counter()
        for _ in range(2000):
            ctx = random_context(rng)
            program = random_evidence_program(rng, ctx)
            errors = _first_errors(program, ctx, codes)
            try:
                execute(program, ctx, strict_grounding=strict)
            except classes as exc:
                # so a program that validate passes raises none of them
                assert errors, render_program(program)
                first = errors[0]
                assert (_RULE_ERRORS[first.code], first.message) == (type(exc), str(exc)), render_program(program)
                raised[type(exc)] += 1
            except ExecutionError:
                pass
        assert min(raised[cls] for cls in classes) > 100, raised

    def test_row_names_in_math_operations_match_tree_walking_oracle(self):
        rng = Random(89)
        checked = 0
        for _ in range(1500):
            ctx = random_context(rng)
            program = random_evidence_program(rng, ctx)
            assert _outcome(program, ctx) == naive_execute(program, ctx), render_program(program)
            checked += any(
                isinstance(arg, RowName) for step in program.steps if step.op in MATH_OPS for arg in step.args
            )
        assert checked > 500


class TestPieces:
    def test_aggregate_row(self):
        cells = [(10, 1), (20, 1), (30, 1), (40, 1)]
        assert aggregate_row(cells, "sum") == (100, 1)
        assert aggregate_row(cells, "average") == (25, 1)
        assert aggregate_row(cells, "max") == (40, 1)
        assert aggregate_row(cells, "min") == (10, 1)
        # reduced: 1/2 + 3/2 is 2, and (1/6 + 1/3 + 1/2) / 3 is 1/3
        assert aggregate_row([(1, 2), (3, 2)], "sum") == (2, 1)
        assert aggregate_row([(1, 6), (1, 3), (1, 2)], "average") == (1, 3)
        assert aggregate_row([(-3, 4), (-2, 3)], "max") == (-2, 3)
        assert aggregate_row([(-3, 4), (-2, 3)], "min") == (-3, 4)
        with pytest.raises(EmptyNumericRow):
            aggregate_row([], "sum")
        with pytest.raises(ValueError, match="unknown aggregation 'median'"):
            aggregate_row([], "median")  # the kind is checked before the row

    @pytest.mark.parametrize(
        "text, value",
        [
            ("exp(2, 3)", 8),
            ("exp(2.25, 0.5)", Fraction(3, 2)),
            ("table-average(steady)", 2),
            ("divide(1, 6), divide(1, 3), add(#0, #1)", Fraction(1, 2)),
            ("divide(1, 6), divide(2, 3), subtract(#0, #1)", Fraction(-1, 2)),
            ("divide(-4, 3), divide(3, 8), multiply(#0, #1)", Fraction(-1, 2)),
            # the sign moves to the numerator
            ("divide(0.75, -4.5)", Fraction(-1, 6)),
            ("divide(0, -4.5)", 0),
            ("greater(1.5, 1.5)", False),
            ("divide(-1, 3), divide(-1, 2), greater(#0, #1)", True),
            # each kind of argument
            ("add(11.64, 0), add(#0, 0)", Fraction(291, 25)),
            ("add(-1.50, 0)", Fraction(-3, 2)),
            ("add(const_m1, 0)", -1),
            ("table-sum(steady)", 6),
            ("table-sum(risk-free interest rate)", Fraction(46, 5)),
            ("table-min(risk-free interest rate)", Fraction(21, 5)),
        ],
    )
    def test_each_operation_and_argument(self, table_ctx, text, value):
        result = execute(parse_program(text), table_ctx)
        assert result == value and isinstance(result, bool) == isinstance(value, bool)

    def test_unresolved_row_names(self, table_ctx):
        with pytest.raises(RowNotFound):
            execute(parse_program("table-sum(absent row)"), table_ctx)
        with pytest.raises(InvalidProgram):
            execute(parse_program("add(steady, 1)"), table_ctx)

    def test_power_exact_and_widened(self):
        assert power(Fraction(2), Fraction(-2)) == Fraction(1, 4)
        assert power(Fraction(9, 4), Fraction(1, 2)) == Fraction(3, 2)
        widened = power(Fraction(2), Fraction(1, 2))
        assert widened == Fraction(float(2**0.5))
        # past float precision, and past float range
        for root in (10**20 + 12345, 3**50 + 7, 2**600 + 1):
            assert power(Fraction(root**2), Fraction(1, 2)) == root
        assert power(Fraction((10**15 + 7) ** 3, 8), Fraction(2, 3)) == Fraction((10**15 + 7) ** 2, 4)

    def test_power_root_past_float_precision_takes_a_newton_correction(self):
        # from a float estimate good to about 50 bits, the first Newton step
        # can land above a root of more than about 100 bits, and later steps
        # come down to it: two of them for 3**150 - 2
        for root in (3**150 - 2, 2**200 + 1):
            assert _iroot(root**3, 3) == root
            assert _iroot(root**3 - 1, 3) is None
            assert power(Fraction(root**5, 32), Fraction(2, 5)) == Fraction(root**2, 4)

    def test_power_past_float_range_without_an_exact_root_is_a_domain_error(self):
        # 2·10**396 is no square, and the float fallback cannot hold it
        with pytest.raises(DomainError, match="^exponentiation out of range: "):
            power(Fraction(2 * 10**396), Fraction(1, 2))
        big = "1" + "0" * 99
        program = parse_program(f"multiply(2, {big}), multiply(#0, {big}), multiply(#1, {big}), "
                                f"multiply(#2, {big}), exp(#3, 0.5)")
        with pytest.raises(DomainError, match="^exponentiation out of range: "):
            execute(program)

    def test_power_large_root_index_is_fast(self):
        # a root just above a power of two, with a five-digit root index:
        # Newton steps from a power-of-two start need thousands of steps here
        started = time.perf_counter()
        assert power(Fraction(524289**10001), Fraction(1, 10001)) == 524289
        assert power(Fraction(524289), Fraction(10001, 10000)) == Fraction(524289.0**1.0001)
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize(
        "program",
        ["exp(3, 8192)", "exp(0.5, 8192)", "exp(1.07, 2340)", "exp(1.0000001, 682)", "exp(4, 4095.5)"],
    )
    def test_power_at_the_size_bound_executes_and_renders_fast(self, program):
        started = time.perf_counter()
        value = execute(parse_program(program))
        render_value(value)
        assert time.perf_counter() - started < 0.5
        assert max(value.numerator.bit_length(), value.denominator.bit_length()) <= MAX_POWER_BITS

    @pytest.mark.parametrize(
        "program",
        ["exp(3, 1000000)", "exp(3, 10000000)", "exp(0.5, 8193)", "exp(1.07, -2341)", "exp(4, 8192.5)"],
    )
    def test_power_past_the_size_bound_is_a_domain_error(self, program):
        started = time.perf_counter()
        with pytest.raises(DomainError):
            render_value(execute(parse_program(program)))
        assert time.perf_counter() - started < 0.5

    def test_each_step_result_is_reduced(self):
        # Reduced, every divide brings back the start value. Unreduced, the
        # numerator would gain the literal's 329 bits at each multiply and
        # pass MAX_POWER_BITS within 50 rounds.
        literal = "9" * 99
        steps = [f"multiply(1.5, {literal})", f"divide(#0, {literal})"]
        for index in range(1, 64):
            steps += [f"multiply(#{2 * index - 1}, {literal})", f"divide(#{2 * index}, {literal})"]
        program = parse_program(", ".join(steps))
        assert len(program.steps) == 128
        assert execute(program) == Fraction(3, 2)

    def test_products_past_the_size_bound_are_a_domain_error(self):
        started = time.perf_counter()
        program = parse_program("exp(1.07, 2340), multiply(#0, #0), multiply(#1, #1), multiply(#2, #2)")
        with pytest.raises(DomainError, match="exceeds the 16384-bit bound"):
            render_value(execute(program))
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("program", ["exp(1, 1000000000)", "exp(-1, 1000000001)", "exp(0, 1000000000)"])
    def test_power_of_zero_and_unit_bases_is_exempt(self, program):
        assert abs(execute(parse_program(program))) <= 1

    def test_zero_to_a_negative_fractional_power(self):
        with pytest.raises(DivisionByZero):
            execute(parse_program("exp(0, -0.5)"))

    def test_render_value(self):
        assert render_value(True) == "yes"
        assert render_value(False) == "no"
        assert render_value(Fraction(3, 4)) == "0.75"
        assert render_value(Fraction(100, 3)) == "100/3"
        assert render_value(Fraction(-1164)) == "-1164"

    @pytest.mark.parametrize(
        "program",
        ["exp(15, 4000), divide(#0, 7)", "exp(15, 4000), divide(7, #0)", "exp(15, 4000), divide(#0, 7), subtract(0, #1)"],
    )
    def test_long_non_terminating_result_renders_exactly(self, program):
        value = execute(parse_program(program))
        numerator, denominator = render_value(value).split("/")
        assert max(len(numerator), len(denominator)) > 4300  # past Python's int/str limit
        assert (Decimal(numerator), Decimal(denominator)) == (value.numerator, value.denominator)

    @given(st.integers(-(10**80), 10**80), st.integers(0, 60), st.integers(0, 60), st.sampled_from([1, 3, 7]))
    def test_render_value_is_exact(self, numerator, twos, fives, other):
        value = Fraction(numerator, 2**twos * 5**fives * other)
        text = render_value(value)
        terminates = other == 1 or value.denominator % other != 0
        if terminates:
            assert Fraction(Decimal(text)) == value and "/" not in text
        else:
            n, d = text.split("/")
            assert Fraction(int(n), int(d)) == value

    @given(
        st.integers(-(10**80), 10**80),
        st.integers(0, 300),
        st.integers(0, 300),
        st.sampled_from([1, 3, 7, 9, 11, 2**61 - 1]),
    )
    @example(0, 0, 0, 1)
    @example(-1, 300, 0, 1)
    @example(7, 0, 300, 1)
    def test_render_value_matches_the_fraction_scaling_rule(self, numerator, twos, fives, other):
        value = Fraction(numerator, 2**twos * 5**fives * other)
        assert render_value(value) == oracle_render_value(value)

    @pytest.mark.parametrize("value", [True, False, Fraction(15**4000, 2**9000), Fraction(-(3**9000), 5**7000)])
    def test_render_value_matches_the_fraction_scaling_rule_at_the_extremes(self, value):
        assert render_value(value) == oracle_render_value(value)

    def test_long_terminating_value_keeps_every_digit(self):
        assert render_value(Fraction(123456789012345678901234567890123, 1000)) == "123456789012345678901234567890.123"
        assert render_value(Fraction(-(10**40) - 1)) == "-1" + "0" * 39 + "1"


# Constant names by the grammar's spelling, mostly outside DEFAULT_CONSTANTS:
# leading and trailing zeros, fractions, negatives, and values on both sides
# of the digit bound (a name past it does not construct). Some are spelled
# with decimal digits other than "0" to "9", which do not construct either.
_CONSTANT_NAMES = st.builds(
    lambda minus, whole, fraction: f"const_{minus}{whole}{fraction}",
    st.sampled_from(["", "m"]),
    st.sampled_from(["0", "1", "7", "007", "1" + "0" * 99, "9" * 100, "\u0663", "1\u0660", "\uff17"])
    | st.integers(0, 10**6).map(str)
    | st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3),
    st.sampled_from(["", ".0", ".5", ".125", ".000", "." + "0" * 98 + "1", "." + "0" * 99 + "1", ".\u0665"]),
)


def _oracle_refuses(name):
    try:
        _oracle_constant(name)
    except OracleFailure:
        return True
    return False


@st.composite
def _constant_programs(draw):
    """Drawn constant names, and two or three arithmetic steps over them (None when a name does not construct)."""
    names = [draw(_CONSTANT_NAMES) for _ in range(3)]
    try:
        constants = [Constant(name) for name in names]
    except ProgramError:
        return names, None
    ops = st.sampled_from(["add", "subtract", "multiply", "divide"])
    steps = [
        OperationStep(draw(ops), (constants[0], draw(st.sampled_from([constants[1], NumberLiteral(Decimal(3))])))),
        OperationStep(draw(ops), (StepRef(0), constants[2])),
    ]
    if draw(st.booleans()):
        steps.append(OperationStep("greater", (StepRef(1), constants[0])))
    return names, Program(tuple(steps))


class TestProperties:
    def test_commutative_argument_swap(self):
        rng = Random(61)
        checked = 0
        for _ in range(700):
            ctx = random_context(rng)
            program = random_program(rng, ctx)
            targets = [
                i for i, s in enumerate(program.steps) if s.op in ("add", "multiply")
            ]
            if not targets:
                continue
            index = rng.choice(targets)
            step = program.steps[index]
            swapped = Program(
                steps=program.steps[:index]
                + (OperationStep(op=step.op, args=(step.args[1], step.args[0])),)
                + program.steps[index + 1 :]
            )
            assert _outcome(program, ctx) == _outcome(swapped, ctx)
            checked += 1
        assert checked > 200

    def test_noncommutative_swap_changes_result(self):
        # subtract and greater agree only for equal operands; divide only for
        # equal magnitudes (a/b == b/a iff a**2 == b**2); exp is excluded
        # because true coincidences exist (2**4 == 4**2).
        rng = Random(67)
        for _ in range(300):
            ctx = random_context(rng)
            a = Decimal(rng.choice(ctx.number_tokens()))
            b = Decimal(rng.choice(ctx.number_tokens()))
            for op in ("subtract", "greater"):
                base = execute(parse_program(f"{op}({a}, {b})"))
                swapped = execute(parse_program(f"{op}({b}, {a})"))
                assert (base == swapped) == (a == b), (op, a, b)
            if a != 0 and b != 0:
                base = execute(parse_program(f"divide({a}, {b})"))
                swapped = execute(parse_program(f"divide({b}, {a})"))
                assert (base == swapped) == (abs(a) == abs(b)), (a, b)

    def test_table_sum_is_average_times_count(self):
        rng = Random(71)
        checked = 0
        for _ in range(300):
            ctx = random_context(rng)
            rows = [name for name in ctx.table.row_names if name]
            if not rows:
                continue
            name = rng.choice(rows)
            index = ctx.table.find_row(name)
            count = len(ctx.table.numeric_cells(index))
            if count == 0:
                continue
            total = execute(parse_program(f"table-sum({name})"), ctx)
            average = execute(parse_program(f"table-average({name})"), ctx)
            assert total == average * count
            checked += 1
        assert checked > 150

    @given(
        st.lists(st.sampled_from(["Net Sales", "net-sales", " net sales ", "gross", "", "GROSS!", "x"]), max_size=8),
        st.sampled_from(["net sales", "NET  SALES", "gross", "x", "absent", ""]),
    )
    def test_find_row_is_the_first_matching_row(self, names, query):
        table = FinTable(header=("", "2019"), rows=tuple((name, ("1",)) for name in names))
        assert table.find_row(query) == (table.matching_rows(query) or [None])[0]

    @pytest.mark.parametrize(
        "program",
        [
            "table-sum(decorated)", "table-average(decorated)", "table-max(decorated)", "table-min(decorated)",
            "table-sum(negative)", "table-average(negative)", "table-max(negative)", "table-min(negative)",
            "table-sum(zero)", "table-max(zero)", "table-min(zero), divide(1, #0)",
            "table-average(thirds)", "table-average(shared factor)", "table-sum(shared factor)",
            "divide(5, -2)", "divide(-5, -2.5)", "divide(0, -3)", "table-min(negative), divide(#0, -0.25)",
            "divide(3, -0)", "divide(5, -2), greater(#0, 0)",
            "subtract(1.50, 1.5)", "multiply(-0.5, -0.50)", "add(-1.25, 1.25)",
            "greater(1.50, 1.5)", "greater(1.5, 1.50)", "greater(-1.50, -1.5)", "greater(1.500001, 1.5)",
            "table-max(decorated), greater(#0, 1234.50)", "table-average(negative), greater(-0.25, #0)",
        ],
    )
    def test_pair_arithmetic_matches_tree_walking_oracle(self, program):
        # cells in every spelling the readers take, negatives and zeros; an
        # average whose sum shares a factor with the count (4.5 / 3)
        table = FinTable.from_rows(
            [
                ["", "2019", "2018", "2017", "note"],
                ["decorated", "$1,234.5", "(12.50)", "4.5%", "$ 7 million"],
                ["negative", "-3", "−1.25", "(0.5)", "n/a"],
                ["zero", "0", "-0", "0.000", "(0)"],
                ["thirds", "0.1", "0.2", "0.3", ""],
                ["shared factor", "1.5", "1.50", "1.500", "*"],
            ]
        )
        ctx = EvidenceContext.build([], table)
        parsed = parse_program(program)
        value, error = _outcome(parsed, ctx)
        assert (value, error) == naive_execute(parsed, ctx)
        assert error is not None or type(value) in (Fraction, bool)

    def test_matches_tree_walking_oracle(self):
        rng = Random(73)
        for _ in range(1000):
            ctx = random_context(rng)
            program = random_program(rng, ctx)
            assert _outcome(program, ctx) == naive_execute(program, ctx), render_program(
                program
            )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_constant_programs())
    @example((["const_7"], parse_program("add(const_7, 1)")))
    def test_nonstandard_constants_match_tree_walking_oracle(self, drawn):
        names, program = drawn
        # A name is refused exactly where the grammar's spelling or the digit
        # bound refuses it.
        assert (program is None) == any(map(_oracle_refuses, names)), names
        if program is None:
            return
        ctx = EvidenceContext.build([])
        assert _outcome(program, ctx) == naive_execute(program, ctx), render_program(program)


def _outcome(program, ctx):
    try:
        return execute(program, ctx), None
    except ExecutionError as exc:
        return None, type(exc).__name__
