from decimal import Decimal
from random import Random

import pytest

from finprog.context import EvidenceContext, FinTable
from finprog.dsl import (
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
    is_valid,
    parse_program,
    render_program,
    validate,
)

from generators import random_context, random_program, random_symbolic_program


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

    def test_arity_errors(self):
        with pytest.raises(ArityError):
            parse_program("add(1, 2, 3)")
        with pytest.raises(ArityError):
            parse_program("table-sum(a, b)")
        with pytest.raises(ArityError):
            parse_program("add(1)")

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

    def test_constants(self):
        p = parse_program("multiply(5, const_1000)")
        assert p.steps[0].args[1] == Constant("const_1000")


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
                "table-sum takes 1 argument(s), got 2 (step 0)",
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

    def test_any_table_argument_but_a_row_name_is_refused(self):
        for arg in (_number(5), Constant("const_100")):
            with pytest.raises(ProgramError, match="table-min takes a table row name"):
                OperationStep("table-min", (arg,))


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
        diags = validate(parse_program("greater(5, 3), add(#0, 1)"))
        assert any(d.code == "boolean-step-in-arithmetic" for d in diags)

    def test_unknown_and_nonstandard_constants(self):
        diags = validate(parse_program("multiply(5, const_bogus)"))
        assert any(d.code == "unknown-constant" for d in diags)
        diags = validate(parse_program("multiply(5, const_250)"))
        assert any(d.code == "nonstandard-constant" and d.severity == "warning" for d in diags)
        assert is_valid(diags)

    def test_random_programs_validate_clean(self):
        rng = Random(23)
        for _ in range(300):
            ctx = random_context(rng)
            assert validate(random_program(rng, ctx)) == []
