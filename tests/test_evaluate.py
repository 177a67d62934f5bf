import json
import time
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest

from finprog.corpus import PredictionRecord, SchemaError
from finprog.dsl import render_program
from finprog.evaluate import (
    RecordVerdict,
    breakdown_report,
    parse_answer,
    score_record,
)
from finprog.numeric import TolerancePolicy


def gold_predictions(records):
    return [PredictionRecord(id=r.id, program_text=render_program(r.gold_program)) for r in records]


class TestParseAnswer:
    def test_forms(self):
        assert parse_answer("yes") is True
        assert parse_answer("No") is False
        assert parse_answer(True) is True
        assert parse_answer(0.14111) == Decimal("0.14111")
        assert parse_answer("25%") == Decimal("25")
        assert parse_answer("$1,500") == Decimal("1500")
        assert parse_answer(-1164) == Decimal("-1164")
        assert parse_answer("n.m.") is None
        assert parse_answer(None) is None
        assert parse_answer(["1"]) is None


class TestExecutionAccuracy:
    def test_gold_as_predictions_is_perfect(self, sample_records):
        assert breakdown_report(gold_predictions(sample_records), sample_records).execution_accuracy == 1.0

    def test_all_unparseable_is_zero(self, sample_records):
        preds = [PredictionRecord(id=r.id, program_text="][ junk") for r in sample_records]
        assert breakdown_report(preds, sample_records).execution_accuracy == 0.0

    def test_partial_credit_fraction(self, sample_records):
        records = sample_records[:4]
        preds = gold_predictions(records[:1]) + [
            PredictionRecord(id=r.id, program_text="add(1, 1)") for r in records[1:]
        ]
        assert breakdown_report(preds, records).execution_accuracy == 0.25

    def test_missing_predictions_count_incorrect(self, sample_records):
        records = sample_records[:4]
        assert breakdown_report(gold_predictions(records[:2]), records).execution_accuracy == 0.5

    def test_unknown_prediction_id(self, sample_records):
        preds = [PredictionRecord(id="nope-0", program_text="add(1, 2)")]
        with pytest.raises(SchemaError, match="^prediction id 'nope-0' matches no record$"):
            breakdown_report(preds, sample_records)

    def test_repeated_prediction_id(self, sample_records):
        record_id = sample_records[0].id
        preds = [PredictionRecord(id=record_id, program_text=p) for p in ("add(1, 2)", None)]
        with pytest.raises(SchemaError, match=f"prediction id {record_id!r} appears more than once"):
            breakdown_report(preds, sample_records)


class TestProgramAccuracy:
    def test_gold_as_predictions_is_perfect(self, sample_records):
        assert breakdown_report(gold_predictions(sample_records), sample_records).program_accuracy == 1.0

    def test_commutative_swap_still_perfect(self, sample_records):
        preds = []
        for record in sample_records:
            program = record.gold_program
            steps = []
            for step in program.steps:
                if step.op in ("add", "multiply"):
                    steps.append(type(step)(op=step.op, args=(step.args[1], step.args[0])))
                else:
                    steps.append(step)
            preds.append(
                PredictionRecord(
                    id=record.id,
                    program_text=render_program(type(program)(steps=tuple(steps))),
                )
            )
        assert breakdown_report(preds, sample_records).program_accuracy == 1.0

    def test_subtract_swap_strictly_below_one(self, sample_records):
        preds = []
        for record in sample_records:
            program = record.gold_program
            steps = []
            for step in program.steps:
                if step.op in ("subtract", "divide"):
                    steps.append(type(step)(op=step.op, args=(step.args[1], step.args[0])))
                else:
                    steps.append(step)
            preds.append(
                PredictionRecord(
                    id=record.id,
                    program_text=render_program(type(program)(steps=tuple(steps))),
                )
            )
        assert breakdown_report(preds, sample_records).program_accuracy < 1.0


class TestScoreRecord:
    def test_failure_reasons(self, sample_records):
        record = sample_records[0]
        assert score_record(None, record).failure == "missing"
        assert score_record("junk(", record).failure.startswith("parse-error")
        verdict = score_record("divide(1, 0)", record)
        assert verdict.failure == "exec-error: DivisionByZero"
        verdict = score_record("add(1, 1)", record)
        assert verdict.failure == "value-mismatch" and not verdict.exe_correct

    def test_step_ref_in_table_op_is_a_parse_error(self, sample_records):
        verdict = score_record("add(a, b), table-sum(#0)", sample_records[0])
        assert verdict.failure.startswith("parse-error: table-sum takes a table row name")
        assert not verdict.prog_correct

    def test_not_equivalent_when_value_matches_by_luck(self, sample_records):
        record = next(r for r in sample_records if r.id.startswith("alpha") and r.id.endswith("-0"))
        # different program, same value: 1164 = 2 * 582
        verdict = score_record("multiply(582, 2)", record)
        assert verdict.exe_correct and not verdict.prog_correct
        assert verdict.failure == "not-equivalent"

    def test_boolean_answers_compare_as_yes_no(self, sample_records):
        record = next(r for r in sample_records if r.gold_answer == "yes")
        verdict = score_record(render_program(record.gold_program), record)
        assert verdict.exe_correct and verdict.predicted_value == "yes"
        flipped = score_record("greater(1, 2)", record)
        assert not flipped.exe_correct

    def test_number_never_matches_boolean_gold(self, sample_records):
        record = next(r for r in sample_records if r.gold_answer == "yes")
        verdict = score_record("add(1, 1)", record)
        assert not verdict.exe_correct

    def test_text_answer_compares_as_text(self, sample_records):
        record = sample_records[0]._replace(gold_answer="1/3")
        verdict = score_record("divide(1, 3)", record)
        assert verdict == RecordVerdict(record.id, True, False, "not-equivalent", "1/3")

    def test_boolean_value_never_matches_numeric_gold(self, sample_records):
        record = sample_records[0]._replace(gold_answer=5)
        verdict = score_record("greater(2, 1)", record)
        assert verdict == RecordVerdict(record.id, False, False, "value-mismatch", "yes")

    def test_answer_with_a_megabyte_of_trailing_zeros_scores_fast(self, sample_records):
        record = sample_records[0]  # gold 1164
        long = record._replace(gold_answer="1164." + "0" * 1_000_000)
        started = time.perf_counter()
        assert score_record("multiply(582, 2)", long) == score_record("multiply(582, 2)", record)
        assert time.perf_counter() - started < 2.0

    def test_tolerance_policy_flows_through(self, sample_records):
        record = sample_records[0]  # gold 1164
        tight = TolerancePolicy(abs_tol=Fraction(1, 10**9), rel_tol=Fraction(1, 10**9), round_to_reference=False)
        loose = TolerancePolicy(abs_tol=Fraction(1), rel_tol=Fraction(1, 10**9), round_to_reference=False)
        assert not score_record("add(1164.5, 0)", record, tight).exe_correct
        assert score_record("add(1164.5, 0)", record, loose).exe_correct


class TestBreakdown:
    def test_buckets_partition_corpus(self, sample_records):
        report = breakdown_report(gold_predictions(sample_records), sample_records)
        for buckets in (report.by_source, report.by_steps, report.by_constants):
            assert sum(score.count for score in buckets.values()) == len(sample_records)

    def test_constants_bucket_membership(self, sample_records):
        report = breakdown_report(gold_predictions(sample_records), sample_records)
        with_constants = [
            r
            for r in sample_records
            if any("const_" in arg.render() for s in r.gold_program.steps for arg in s.args)
        ]
        assert report.by_constants["with"].count == len(with_constants)
        assert report.by_constants["with"].count > 0

    def test_source_buckets_present(self, sample_records):
        report = breakdown_report(gold_predictions(sample_records), sample_records)
        assert set(report.by_source) == {"table-only", "text-only", "table-text"}

    def test_step_buckets(self, sample_records):
        report = breakdown_report(gold_predictions(sample_records), sample_records)
        ones = sum(1 for r in sample_records if len(r.gold_program.steps) == 1)
        assert report.by_steps["1"].count == ones

    def test_order_independence(self, sample_records):
        rng = Random(3)
        preds = gold_predictions(sample_records)
        base = breakdown_report(preds, sample_records)
        shuffled_records = sample_records[:]
        rng.shuffle(shuffled_records)
        shuffled_preds = preds[:]
        rng.shuffle(shuffled_preds)
        again = breakdown_report(shuffled_preds, shuffled_records)
        assert base.execution_accuracy == again.execution_accuracy
        assert base.program_accuracy == again.program_accuracy
        assert base.to_dict() == again.to_dict()

    def test_failure_counts_sum(self, sample_records):
        preds = [PredictionRecord(id=r.id, program_text=None) for r in sample_records]
        report = breakdown_report(preds, sample_records)
        assert report.failure_counts == {"missing": len(sample_records)}

    def test_to_dict_keeps_the_field_order(self, sample_records):
        preds = gold_predictions(sample_records)[:-3] + [
            PredictionRecord(id=sample_records[-3].id, program_text=None),
            PredictionRecord(id=sample_records[-2].id, program_text="][ junk"),
            PredictionRecord(id=sample_records[-1].id, program_text="add(1, 2)"),
        ]
        report = breakdown_report(preds, sample_records)
        buckets = [*report.by_source.values(), *report.by_steps.values(), *report.by_constants.values()]
        for verdict in report.verdicts:
            expected = {
                "id": verdict.id,
                "exe_correct": verdict.exe_correct,
                "prog_correct": verdict.prog_correct,
                "failure": verdict.failure,
                "predicted_value": verdict.predicted_value,
            }
            assert json.dumps(verdict.to_dict()) == json.dumps(expected)
        for bucket in buckets:
            expected = {
                "count": bucket.count,
                "execution_accuracy": bucket.execution_accuracy,
                "program_accuracy": bucket.program_accuracy,
            }
            assert json.dumps(bucket.to_dict()) == json.dumps(expected)

    def test_report_formats(self, sample_records):
        report = breakdown_report(gold_predictions(sample_records), sample_records)
        assert "execution accuracy" in report.format_table()
        payload = report.to_dict()
        assert payload["execution_accuracy"] == 1.0
        assert len(payload["verdicts"]) == len(sample_records)

