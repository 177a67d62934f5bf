"""What the program, record and report objects promise, whatever defines them.

Equality is by class and fields, equal objects hash alike, fields cannot be
assigned, ``repr`` reads ``Name(field=value, ...)``, both positional and
keyword construction work, ``to_dict`` keeps the field order, and pickling
gives back an equal object.
"""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from finprog.context import EvidenceContext, FinTable
from finprog.corpus import (
    LoadResult,
    PredictionRecord,
    RejectedRecord,
    candidate_facts,
    dataset_stats,
    load_records,
)
from finprog.decoding import DecodeState, build_vocabulary
from finprog.dsl import (
    Constant,
    Diagnostic,
    NumberLiteral,
    OperationStep,
    Program,
    ProgramError,
    RowName,
    StepRef,
    parse_program,
    validate,
)
from finprog.equiv import compare_programs
from finprog.evaluate import breakdown_report
from finprog.numeric import TolerancePolicy, parse_quantity
from finprog.retrieve import build_index, single_op_answer

TABLE = FinTable(header=("", "2019"), rows=(("revenue", ("5",)),))
PROGRAM_TEXT = "add(1.5, const_100), table-sum(revenue), divide(#0, #1)"


#: The first field of each immutable class.
FIRST_FIELDS = {
    "NumberLiteral": "value",
    "Constant": "name",
    "RowName": "name",
    "StepRef": "index",
    "OperationStep": "op",
    "Program": "steps",
    "Diagnostic": "code",
    "FinTable": "header",
    "EvidenceContext": "text_sentences",
    "EvidenceRecord": "id",
    "RejectedRecord": "id",
    "PredictionRecord": "id",
    "StatsReport": "examples",
    "Quantity": "surface_text",
    "TolerancePolicy": "abs_tol",
    "TokenVocabulary": "input_numbers",
    "DecodeState": "op",
    "EquivalenceReport": "equivalent",
    "RecordVerdict": "id",
    "BucketScore": "count",
    "EvalReport": "execution_accuracy",
    "TfIdfIndex": "facts",
    "SingleOpResult": "program_text",
}


def _instances(records) -> dict:
    """One object of each immutable class, by class name."""
    record = records[0]
    ctx = EvidenceContext.build(["revenue rose 5 % ."], TABLE)
    program = parse_program(PROGRAM_TEXT)
    report = breakdown_report([PredictionRecord(record.id, "add(1, 2)")], records)
    return {
        "NumberLiteral": NumberLiteral(Decimal("1.5")),
        "Constant": Constant("const_100"),
        "RowName": RowName("revenue"),
        "StepRef": StepRef(0),
        "OperationStep": program.steps[0],
        "Program": program,
        "Diagnostic": validate(parse_program("add(a, 1)"))[0],
        "FinTable": TABLE,
        "EvidenceContext": ctx,
        "EvidenceRecord": record,
        "RejectedRecord": RejectedRecord("r", "qa", "missing"),
        "PredictionRecord": PredictionRecord("p", None),
        "StatsReport": dataset_stats(records),
        "Quantity": parse_quantity("$1,234.5 million"),
        "TolerancePolicy": TolerancePolicy(),
        "TokenVocabulary": build_vocabulary(ctx, 3),
        "DecodeState": DecodeState(),
        "EquivalenceReport": compare_programs(program, program),
        "RecordVerdict": report.verdicts[0],
        "BucketScore": next(iter(report.by_source.values())),
        "EvalReport": report,
        "TfIdfIndex": build_index(candidate_facts(record)),
        "SingleOpResult": single_op_answer(record),
    }


@pytest.fixture(scope="module")
def instances(sample_records):
    return _instances(sample_records)


def test_every_class_is_covered(instances):
    assert list(instances) == list(FIRST_FIELDS)  # with LoadResult, the 24 value classes
    assert all(type(obj).__name__ == name for name, obj in instances.items())


class TestEquality:
    def test_objects_of_different_classes_are_unequal(self):
        assert Constant("const_5") != RowName("const_5")
        assert RowName("const_5") != Constant("const_5")
        assert NumberLiteral(Decimal(5)) != Constant("const_5")
        assert StepRef(1) != (1,)
        assert (1,) != StepRef(1)
        assert RowName("a") != ("a",)
        step = OperationStep("add", (StepRef(0), StepRef(0)))
        assert step != ("add", (StepRef(0), StepRef(0)))
        steps = (OperationStep("table-sum", (RowName("a"),)),)
        assert Program(steps) != (steps,)
        assert TABLE != (TABLE.header, TABLE.rows)

    def test_equal_objects_hash_alike(self, sample_path, sample_records):
        pairs = [
            (StepRef(3), StepRef(3)),
            (Constant("const_m1"), Constant("const_m1")),
            (NumberLiteral(Decimal("1.50")), NumberLiteral(Decimal("1.50"))),
            (RowName("net income"), RowName("net income")),
            (parse_program(PROGRAM_TEXT), parse_program(" " + PROGRAM_TEXT.replace(", ", ","))),
            (TABLE, FinTable.from_rows([["", "2019"], ["revenue", "5"]])),
            (EvidenceContext.build(["a ."], TABLE), EvidenceContext.build(("a .",), TABLE)),
        ]
        again = load_records(sample_path).records
        assert len(again) == len(sample_records)
        pairs += list(zip(sample_records, again))
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b)
        assert parse_program("add(1, 2)") != parse_program("add(2, 1)")

    def test_copies_are_equal(self, instances):
        for name, obj in instances.items():
            assert copy.copy(obj) == obj, name
            assert copy.deepcopy(obj) == obj, name


class TestImmutability:
    def test_assigning_a_field_raises(self, instances):
        for name, obj in instances.items():
            field = FIRST_FIELDS[name]
            before = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, before)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert getattr(obj, field) is before, name


class TestRepr:
    def test_program_objects(self):
        assert repr(StepRef(index=0)) == "StepRef(index=0)"
        assert repr(parse_program("add(1.50, const_2), table-max(net income)")) == (
            "Program(steps=(OperationStep(op='add', args=(NumberLiteral(value=Decimal('1.50')), "
            "Constant(name='const_2'))), OperationStep(op='table-max', args=(RowName(name='net income'),))))"
        )

    def test_evidence_and_reports(self, instances):
        assert repr(TABLE) == "FinTable(header=('', '2019'), rows=(('revenue', ('5',)),))"
        assert repr(EvidenceContext.build(["a ."])) == (
            "EvidenceContext(text_sentences=('a .',), table=FinTable(header=('',), rows=()))"
        )
        assert repr(instances["Diagnostic"]) == (
            "Diagnostic(code='bad-argument-kind', message=\"add takes numbers, constants, "
            "or step references, not 'a'\", step=0, severity='error')"
        )
        assert repr(instances["PredictionRecord"]) == "PredictionRecord(id='p', program_text=None)"
        assert repr(instances["RejectedRecord"]) == "RejectedRecord(id='r', field_path='qa', reason='missing')"
        assert repr(instances["EquivalenceReport"]) == (
            "EquivalenceReport(equivalent=True, reason='canonical-match', points=0)"
        )
        assert repr(TolerancePolicy()) == (
            "TolerancePolicy(abs_tol=Fraction(1, 100000), rel_tol=Fraction(1, 10000), "
            "round_to_reference=True, percent_insensitive=False)"
        )
        assert repr(instances["Quantity"]) == (
            "Quantity(surface_text='$1,234.5 million', mantissa=Decimal('1234.5'), scale_word='million', "
            "is_percent=False, is_currency=True, span=(0, 16))"
        )
        assert repr(DecodeState()) == "DecodeState(op=None, slot=0, step_kinds=(), tokens=())"
        verdict = instances["RecordVerdict"]
        assert repr(verdict) == (
            f"RecordVerdict(id={verdict.id!r}, exe_correct=False, prog_correct=False, "
            "failure='value-mismatch', predicted_value='3')"
        )
        record = instances["EvidenceRecord"]
        assert repr(record).startswith(f"EvidenceRecord(id={record.id!r}, pre_text=(")
        assert repr(record).endswith(f", warnings={record.warnings!r})")

    def test_program_errors_name_the_argument_by_its_repr(self):
        with pytest.raises(ProgramError) as raised:
            OperationStep("table-sum", (StepRef(0),))
        assert str(raised.value) == "table-sum takes a table row name, not StepRef(index=0)"
        with pytest.raises(ProgramError) as raised:
            OperationStep("add", (RowName("a"), 2))
        assert str(raised.value) == "add takes program arguments, not 2"
        with pytest.raises(ProgramError) as raised:
            RowName("#4")
        assert str(raised.value) == "row name would read as a step reference: '#4'"


class TestConstruction:
    def test_positional_and_keyword_arguments_build_equal_objects(self):
        args = (NumberLiteral(value=Decimal(2)), StepRef(index=0))
        first = OperationStep(op="table-sum", args=(RowName(name="revenue"),))
        assert OperationStep(op="multiply", args=args) == OperationStep("multiply", args)
        assert Program(steps=(first, OperationStep("multiply", args))) == Program((first, OperationStep("multiply", args)))
        assert FinTable(header=TABLE.header, rows=TABLE.rows) == FinTable(TABLE.header, TABLE.rows)
        assert Constant(name="const_2") == Constant("const_2")
        assert Diagnostic("code", "message") == Diagnostic(code="code", message="message", step=None, severity="error")
        assert PredictionRecord(id="a", program_text="add(1, 2)") == PredictionRecord("a", "add(1, 2)")
        assert RejectedRecord(id="a", field_path="", reason="r") == RejectedRecord("a", "", "r")
        assert TolerancePolicy(rel_tol=Fraction(1)) == TolerancePolicy(Fraction(1, 100_000), Fraction(1))
        assert DecodeState(slot=1) == DecodeState(None, 1, (), ())

    def test_load_result(self, sample_records):
        loaded = LoadResult(records=list(sample_records), rejects=[])
        assert loaded == LoadResult(list(sample_records), [])
        assert loaded.records == list(sample_records) and loaded.rejects == []


class TestToDict:
    def test_keys_keep_the_field_order(self, instances):
        verdict = instances["RecordVerdict"]
        assert list(verdict.to_dict()) == ["id", "exe_correct", "prog_correct", "failure", "predicted_value"]
        assert list(verdict.to_dict().values()) == [
            verdict.id, verdict.exe_correct, verdict.prog_correct, verdict.failure, verdict.predicted_value
        ]
        bucket = instances["BucketScore"]
        assert bucket.to_dict() == {
            "count": bucket.count,
            "execution_accuracy": bucket.execution_accuracy,
            "program_accuracy": bucket.program_accuracy,
        }
        assert list(bucket.to_dict()) == ["count", "execution_accuracy", "program_accuracy"]
        assert list(instances["EvalReport"].to_dict()) == [
            "execution_accuracy", "program_accuracy", "by_source", "by_steps", "by_constants",
            "failure_counts", "verdicts",
        ]
        stats = instances["StatsReport"]
        assert list(stats.to_dict()) == [
            "examples", "report_pages", "vocabulary", "avg_text_sentences", "avg_text_tokens",
            "avg_table_rows", "avg_table_tokens", "avg_input_tokens", "max_input_tokens",
            "avg_question_tokens", "source_pct", "fact_count_pct", "fact_distance_pct", "op_pct", "step_pct",
        ]
        assert stats.to_dict()["op_pct"] is stats.op_pct


class TestPickle:
    def test_loaded_records_round_trip(self, sample_records):
        assert pickle.loads(pickle.dumps(sample_records)) == sample_records
        again = pickle.loads(pickle.dumps(sample_records, pickle.HIGHEST_PROTOCOL))
        assert again == sample_records
        assert [r.context() for r in again] == [r.context() for r in sample_records]
        # Records of one page share their evidence objects, in the copy too.
        shared = [i for i in range(1, len(again)) if sample_records[i].table is sample_records[i - 1].table]
        assert shared and all(again[i].table is again[i - 1].table for i in shared)

    def test_every_class_round_trips(self, instances):
        for name, obj in instances.items():
            for protocol in (0, 2, pickle.HIGHEST_PROTOCOL):
                assert pickle.loads(pickle.dumps(obj, protocol)) == obj, (name, protocol)
        loaded = LoadResult(records=[instances["EvidenceRecord"]], rejects=[instances["RejectedRecord"]])
        assert pickle.loads(pickle.dumps(loaded)) == loaded

    def test_a_round_tripped_context_still_reads_its_numbers(self, instances):
        ctx = instances["EvidenceContext"]
        assert ctx.number_values  # read before the copy is made
        again = pickle.loads(pickle.dumps(ctx))
        assert again.number_values == ctx.number_values and again.mentions(Decimal(5))
