import json
import time
from collections import Counter
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_PATH
from generators import per_record_stats, random_context
from finprog.context import EvidenceContext, FinTable
from finprog.corpus import (
    FileUnreadable,
    PredictionRecord,
    SchemaError,
    candidate_facts,
    dataset_stats,
    linearize_table,
    load_predictions,
    load_records,
    normalize_program_text,
    page_runs,
    _fact_position,
)
from finprog.dsl import MAX_NUMBER_DIGITS, MAX_PROGRAM_STEPS, _fits, render_program, validate
from finprog.evaluate import score_record
from finprog.numeric import NotANumber, parse_mantissa


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def minimal_record(**overrides):
    record = {
        "id": "co/2019/page_1.pdf-0",
        "pre_text": ["net sales were 100 in 2019 and 80 in 2018 ."],
        "post_text": [],
        "table": [["", "2019", "2018"], ["net sales", "100", "80"]],
        "qa": {
            "question": "what was the change in net sales?",
            "program": "subtract(100, 80)",
            "exe_ans": 20,
            "gold_inds": ["text:0"],
        },
    }
    record.update(overrides)
    return record


def _with_number(field, number):
    """A minimal record with ``number`` as its ``qa.exe_ans``, or as the last cell of its ``table``."""
    if field == "table":
        return minimal_record(table=[["", "2019", "2018"], ["net sales", "100", number]])
    record = minimal_record()
    record["qa"] = dict(record["qa"], exe_ans=number)
    return record


class TestLinearize:
    def test_row_template_shape(self):
        table = FinTable.from_rows([["", "2006"], ["risk-free interest rate", "5%"]])
        assert linearize_table(table) == ["the risk-free interest rate of 2006 is 5% ;"]

    def test_three_columns_three_clauses(self):
        table = FinTable.from_rows([["", "a", "b", "c"], ["x", "1", "2", "3"]])
        assert linearize_table(table) == ["the x of a is 1 ; the x of b is 2 ; the x of c is 3 ;"]

    def test_empty_cell_omits_clause(self):
        table = FinTable.from_rows([["", "a", "b"], ["x", "", "2"]])
        assert linearize_table(table) == ["the x of b is 2 ;"]

    def test_one_sentence_per_row_even_when_blank(self):
        table = FinTable.from_rows([["", "a"], ["x", ""], ["y", "1"]])
        out = linearize_table(table)
        assert len(out) == 2 and out[0] == ""

    def test_row_name_appears_verbatim(self):
        table = FinTable.from_rows(
            [["", "2020", "2019"], ["Total Debt, Net", "10", "20"], ["eps", "1", "2"]]
        )
        for (name, _), sentence in zip(table.rows, linearize_table(table)):
            assert name in sentence


class TestCandidateFacts:
    def test_document_order_and_ids(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record(
            pre_text=["a 100 .", "b 80 .", "c ."],
            post_text=["d ."],
        )
        write_jsonl(path, [record])
        loaded = load_records(path)
        facts = candidate_facts(loaded.records[0])
        assert [f.id for f in facts] == ["text:0", "text:1", "text:2", "row:0", "text:3"]
        assert [f.source for f in facts] == ["text", "text", "text", "table", "text"]
        assert facts[0] == ("text:0", "a 100 .", "text")

    def test_ids_stable_across_loads(self, tmp_path, sample_path):
        first = load_records(sample_path)
        second = load_records(sample_path)
        for a, b in zip(first.records, second.records):
            assert [f.id for f in candidate_facts(a)] == [f.id for f in candidate_facts(b)]

    def test_gold_ids_resolve_on_sample(self, sample_records):
        for record in sample_records:
            ids = {f.id for f in candidate_facts(record)}
            assert record.gold_fact_ids <= ids


class TestLoadRecords:
    def test_bundled_sample_loads_clean(self, sample_path):
        loaded = load_records(sample_path)
        assert len(loaded.records) == 20
        assert loaded.rejects == []
        assert all(not r.warnings for r in loaded.records)

    def test_forward_step_ref_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        bad = minimal_record()
        bad["qa"] = dict(bad["qa"], program="subtract(#1, 5)")
        write_jsonl(path, [minimal_record(id="ok-1"), bad])
        loaded = load_records(path)
        assert len(loaded.records) == 1 and len(loaded.rejects) == 1
        reject = loaded.rejects[0]
        assert reject.field_path == "qa.program" and "#1" in reject.reason

    @pytest.mark.parametrize(
        "program, reason",
        [
            ("greater(5, 3), add(#0, 1)", "step 1 feeds the boolean result of step 0 into add"),
            ("multiply(5, const_bogus)", "unknown constant 'const_bogus'"),
            ("add(operating income, 1)", "add takes numbers, constants, or step references, not 'operating income'"),
            ("add(999999, 1), add(net sales, #0)", "add takes numbers, constants, or step references, not 'net sales'"),
        ],
    )
    def test_argument_rule_rejected(self, tmp_path, program, reason):
        path = tmp_path / "records.jsonl"
        bad = minimal_record()
        bad["qa"] = dict(bad["qa"], program=program)
        write_jsonl(path, [bad])
        (reject,) = load_records(path).rejects
        assert (reject.field_path, reject.reason) == ("qa.program", reason)

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_records(path)

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(FileUnreadable):
            load_records(tmp_path / "absent.jsonl")

    def test_json_array_form_accepted(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text(json.dumps([minimal_record()]))
        assert len(load_records(path).records) == 1

    def test_invalid_json_line_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(minimal_record()) + "\n{ not json }\n")
        loaded = load_records(path)
        assert len(loaded.records) == 1
        assert loaded.rejects[0].id == "line-2"

    def test_field_paths_in_rejects(self, tmp_path):
        path = tmp_path / "records.jsonl"
        cases = [
            (minimal_record(pre_text="not-a-list"), "pre_text"),
            (minimal_record(table=[["", "a"], ["x", "1", "2"]]), "table"),
            (minimal_record(qa={"program": "add(1, 2)"}), "qa.question"),
        ]
        write_jsonl(path, [case[0] for case in cases])
        loaded = load_records(path)
        assert [r.field_path for r in loaded.rejects] == [case[1] for case in cases]

    def test_ragged_table_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [minimal_record(table=[["", "a", "b"], ["x", "1"]])])
        loaded = load_records(path)
        assert loaded.rejects and loaded.rejects[0].field_path == "table"

    @pytest.mark.parametrize(
        "table, index",
        [
            ([["", "2019"], 5], 1),
            ([["", "2019"], None], 1),
            ([5], 0),
            ([["", "2019"], "ab"], 1),
            ([{"a": 1}], 0),
        ],
    )
    def test_table_row_that_is_not_a_list_rejected(self, tmp_path, table, index):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [minimal_record(table=table)])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.field_path, r.reason) for r in loaded.rejects] == [
            ("table", f"row {index} is not a list")
        ]

    @pytest.mark.parametrize(
        "table, row, column",
        [
            ([["", None], [None, {"a": 1}]], 0, 1),
            ([[5, "2019"], ["net sales", "100"]], 0, 0),
            ([["", "2019"], [None, "100"]], 1, 0),
            ([["", "2019"], ["net sales", 100]], 1, 1),
            ([["", "2019", "2018"], ["net sales", "100", ["80"]]], 1, 2),
        ],
    )
    def test_non_string_table_value_rejected(self, tmp_path, table, row, column):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [minimal_record(table=table)])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.field_path, r.reason) for r in loaded.rejects] == [
            ("table", f"row {row} column {column} is not a string")
        ]

    def test_unknown_gold_ind_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        bad = minimal_record()
        bad["qa"] = dict(bad["qa"], gold_inds=["text:99"])
        write_jsonl(path, [bad])
        loaded = load_records(path)
        assert loaded.rejects and loaded.rejects[0].field_path == "qa.gold_inds"

    # Two pre-table sentences, two rows and one post-table sentence: the
    # candidate facts are text:0, text:1, row:0, row:1 and text:2.
    @staticmethod
    def _page_record(gold_inds):
        record = minimal_record(
            pre_text=["filler sentence .", "net sales were 100 in 2019 and 80 in 2018 ."],
            post_text=["closing note ."],
            table=[["", "2019", "2018"], ["net sales", "100", "80"], ["cost", "60", "50"]],
        )
        record["qa"] = dict(record["qa"], gold_inds=gold_inds)
        return record

    @pytest.mark.parametrize("key", ["text:01", "row:00", "row:2", "text:3", "text:\u0663"])
    def test_canonical_id_outside_the_facts_rejected(self, tmp_path, key):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [self._page_record(["text:0", key])])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.field_path, r.reason) for r in loaded.rejects] == [
            ("qa.gold_inds", f"{key!r} does not resolve to a candidate fact")
        ]

    def test_canonical_and_legacy_ids_resolve_together(self, tmp_path):
        path = tmp_path / "records.jsonl"
        gold_inds = {
            "text_0": "net sales were 100 in 2019 and 80 in 2018 .",
            "row:1": "content is not read for canonical ids",
            "table_0": "the net sales of 2019 is 100 ; the net sales of 2018 is 80 ;",
            "text_2": "closing note .",
        }
        write_jsonl(path, [self._page_record(gold_inds)])
        loaded = load_records(path)
        assert not loaded.rejects
        got = loaded.records[0]
        assert got.gold_fact_ids == {"text:1", "row:1", "row:0", "text:2"}
        assert got.warnings == (
            "matched legacy fact id 'text_0' to 'text:1' by content",
            "mapped legacy fact id 'table_0' to 'row:0'",
            "mapped legacy fact id 'text_2' to 'text:2'",
        )

    def test_legacy_ids_map_by_index_with_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(record["qa"], gold_inds=["text_0", "table_0"])
        write_jsonl(path, [record])
        loaded = load_records(path)
        got = loaded.records[0]
        assert got.gold_fact_ids == {"text:0", "row:0"}
        assert any("legacy" in w for w in got.warnings)

    def test_legacy_dict_matches_by_content_when_index_disagrees(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record(
            pre_text=["filler sentence .", "net sales were 100 in 2019 and 80 in 2018 ."],
        )
        record["qa"] = dict(
            record["qa"],
            program="subtract(100, 80)",
            gold_inds={"text_0": "net sales were 100 in 2019 and 80 in 2018 ."},
        )
        write_jsonl(path, [record])
        loaded = load_records(path)
        assert loaded.records[0].gold_fact_ids == {"text:1"}

    @pytest.mark.parametrize("key", ["text_\u0661", "table_\u0661"])
    def test_legacy_index_of_non_ascii_digits_rejected(self, tmp_path, key):
        # text:1 and row:1 exist, but a legacy index is written in "0" to "9".
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [self._page_record(["text:0", key])])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.field_path, r.reason) for r in loaded.rejects] == [
            ("qa.gold_inds", f"{key!r} does not resolve to a candidate fact")
        ]

    def test_long_legacy_index_in_a_list_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        key = "text_" + "1" * 5000
        write_jsonl(path, [self._page_record(["text:0", key])])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.field_path, r.reason) for r in loaded.rejects] == [
            ("qa.gold_inds", f"{key!r} does not resolve to a candidate fact")
        ]

    def test_long_zero_padded_legacy_index_maps_by_value(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [self._page_record(["text_" + "0" * 5000 + "2"])])
        loaded = load_records(path)
        assert not loaded.rejects
        assert loaded.records[0].gold_fact_ids == {"text:2"}

    def test_long_legacy_index_in_a_dict_matches_by_content(self, tmp_path):
        path = tmp_path / "records.jsonl"
        key = "text_" + "1" * 5000
        write_jsonl(path, [self._page_record({key: "net sales were 100 in 2019 and 80 in 2018 ."})])
        loaded = load_records(path)
        assert not loaded.rejects
        got = loaded.records[0]
        assert got.gold_fact_ids == {"text:1"}
        assert got.warnings == (f"matched legacy fact id {key!r} to 'text:1' by content",)

    def test_none_argument_normalized(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(
            record["qa"], program="table-sum(net sales, none)", exe_ans=180
        )
        write_jsonl(path, [record])
        loaded = load_records(path)
        got = loaded.records[0]
        assert len(got.gold_program.steps[0].args) == 1
        assert any("none" in w for w in got.warnings)

    def test_ungrounded_gold_number_loads_and_validate_reports_it(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(record["qa"], program="subtract(999999, 80)", exe_ans=999919)
        write_jsonl(path, [record])
        loaded = load_records(path)
        assert not loaded.rejects
        (got,) = loaded.records
        assert got.warnings == ()
        assert any("999999" in d.message for d in validate(got.gold_program, got.context()))

    def test_ungrounded_gold_literal_warning_text(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(record["qa"], program="subtract(100, 80), divide(#0, 81)", exe_ans=0.24691)
        write_jsonl(path, [record])
        (got,) = load_records(path).records
        assert got.warnings == ()
        assert [d.message for d in validate(got.gold_program, got.context())] == [
            "81 does not appear in the evidence"
        ]

    def test_literal_grounded_in_another_spelling(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record(pre_text=["sales were $1,000.50 million , up .5 % ; costs were (30) ."])
        record["qa"] = dict(record["qa"], program="add(1000.5, 0.50), add(#0, -30)", exe_ans=971)
        write_jsonl(path, [record])
        (got,) = load_records(path).records
        assert got.warnings == ()
        assert validate(got.gold_program, got.context()) == []

    def test_nonstandard_constant_stays_a_record_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(record["qa"], program="subtract(100, 80), multiply(#0, const_7)", exe_ans=140)
        write_jsonl(path, [record])
        (got,) = load_records(path).records
        assert got.warnings == ("gold program: constant 'const_7' is outside the configured vocabulary",)

    def test_load_grounds_no_gold_program(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("load_records grounded a gold program")

        expected = load_records(SAMPLE_PATH)
        monkeypatch.setattr(EvidenceContext, "mentions", refuse)
        monkeypatch.setattr(EvidenceContext, "build", refuse)
        monkeypatch.setattr(FinTable, "matching_rows", refuse)
        assert load_records(SAMPLE_PATH) == expected
        assert expected.records and not expected.rejects

    def test_program_over_the_step_cap_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        steps = ["subtract(100, 80)"] + [f"add(#{i}, 80)" for i in range(MAX_PROGRAM_STEPS)]
        record["qa"] = dict(record["qa"], program=", ".join(steps))
        write_jsonl(path, [record])
        (reject,) = load_records(path).rejects
        assert (reject.field_path, reject.reason) == (
            "qa.program", f"a program may have at most {MAX_PROGRAM_STEPS} steps"
        )

    def test_warning_order(self, tmp_path):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(
            record["qa"],
            program="table-sum(net sales, none), add(#0, 999999)",
            exe_ans=1000179,
            gold_inds=["text_0"],
        )
        write_jsonl(path, [record])
        (got,) = load_records(path).records
        assert got.warnings == (
            "dropped placeholder 'none' argument from a table operation",
            "mapped legacy fact id 'text_0' to 'text:0'",
        )
        assert [d.message for d in validate(got.gold_program, got.context())] == [
            "999999 does not appear in the evidence"
        ]

    @pytest.mark.parametrize("value", [5, None, "x", [1]])
    @pytest.mark.parametrize("form", ["jsonl", "array"])
    def test_non_object_record_rejected(self, tmp_path, value, form):
        path = tmp_path / "records.json"
        if form == "jsonl":
            write_jsonl(path, [minimal_record(), value])
            ordinal = 2
        else:
            path.write_text(json.dumps([minimal_record(), value]))
            ordinal = 1
        loaded = load_records(path)
        assert len(loaded.records) == 1
        assert [(r.id, r.field_path, r.reason) for r in loaded.rejects] == [
            (f"record-{ordinal}", "", "record is not an object")
        ]

    @pytest.mark.parametrize("value", [{"a": 1}, 5, ["x"], True, 0])
    def test_non_string_id_rejected(self, tmp_path, value):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [minimal_record(), minimal_record(id=value)])
        loaded = load_records(path)
        assert [r.id for r in loaded.records] == ["co/2019/page_1.pdf-0"]
        assert [(r.id, r.field_path, r.reason) for r in loaded.rejects] == [
            ("record-2", "id", "must be a string")
        ]

    @pytest.mark.parametrize("value", [None, "", "absent"])
    def test_missing_id_defaults_to_ordinal(self, tmp_path, value):
        path = tmp_path / "records.jsonl"
        record = minimal_record(id=value)
        if value == "absent":
            del record["id"]
        write_jsonl(path, [minimal_record(), record])
        loaded = load_records(path)
        assert not loaded.rejects
        assert [r.id for r in loaded.records] == ["co/2019/page_1.pdf-0", "record-2"]

    def test_duplicate_id_rejected_and_first_kept(self, tmp_path):
        path = tmp_path / "records.jsonl"
        qa = minimal_record()["qa"]
        later = dict(qa, question="what were net sales in 2019?")
        write_jsonl(
            path,
            [
                minimal_record(id="b", qa=5),  # rejected, so a later "b" still loads
                minimal_record(),
                minimal_record(qa=later),
                minimal_record(id="record-5"),
                minimal_record(id=""),  # line 5: record-5
                minimal_record(id="b", qa=later),
            ],
        )
        loaded = load_records(path)
        assert [(r.id, r.question) for r in loaded.records] == [
            ("co/2019/page_1.pdf-0", qa["question"]),
            ("record-5", qa["question"]),
            ("b", later["question"]),
        ]
        duplicate = "duplicate of an earlier record's id"
        assert [(r.id, r.field_path, r.reason) for r in loaded.rejects] == [
            ("b", "qa", "must be an object"),
            ("co/2019/page_1.pdf-0", "id", duplicate),
            ("record-5", "id", duplicate),
        ]

    @pytest.mark.parametrize("content", [None, 5, ["None"], {"a": 1}])
    def test_non_string_legacy_content_rejected(self, tmp_path, content):
        path = tmp_path / "records.jsonl"
        # The sentence "None" is what str(None) would have matched by content.
        record = minimal_record(pre_text=["net sales were 100 in 2019 and 80 in 2018 .", "None"])
        record["qa"] = dict(record["qa"], gold_inds={"text_0": "net sales were 100 in 2019 and 80 in 2018 .", "text_7": content})
        write_jsonl(path, [record])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.field_path, r.reason) for r in loaded.rejects] == [
            ("qa.gold_inds", "content of 'text_7' is not a string")
        ]

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("exe_ans", None, "missing"),
            ("gold_inds", None, "missing"),
            ("gold_inds", "text:0", "must be a list or an object"),
        ],
    )
    def test_absent_or_malformed_qa_field_rejected(self, tmp_path, field, value, reason):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = {key: item for key, item in record["qa"].items() if key != field}
        if value is not None:
            record["qa"][field] = value
        write_jsonl(path, [record])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.field_path, r.reason) for r in loaded.rejects] == [(f"qa.{field}", reason)]

    @pytest.mark.parametrize("gold_inds", [[], {}])
    def test_empty_gold_inds_rejected(self, tmp_path, gold_inds):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(record["qa"], gold_inds=gold_inds)
        write_jsonl(path, [record])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.field_path, r.reason) for r in loaded.rejects] == [
            ("qa.gold_inds", "must name at least one fact")
        ]

    @pytest.mark.parametrize("exe_ans", [None, {"a": 1}, [1]])
    def test_non_scalar_exe_ans_rejected(self, tmp_path, exe_ans):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(record["qa"], exe_ans=exe_ans)
        write_jsonl(path, [record])
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.id, r.field_path, r.reason) for r in loaded.rejects] == [
            ("co/2019/page_1.pdf-0", "qa.exe_ans", "must be a number, a string or a boolean")
        ]

    @pytest.mark.parametrize("exe_ans", [20.5, "20%", True])
    def test_scalar_exe_ans_kept_verbatim(self, tmp_path, exe_ans):
        path = tmp_path / "records.jsonl"
        record = minimal_record()
        record["qa"] = dict(record["qa"], exe_ans=exe_ans)
        write_jsonl(path, [record])
        (got,) = load_records(path).records
        assert got.gold_answer == exe_ans and type(got.gold_answer) is type(exe_ans)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_exe_ans_rejected(self, tmp_path, literal):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(minimal_record()).replace('"exe_ans": 20', f'"exe_ans": {literal}'))
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.id, r.field_path, r.reason) for r in loaded.rejects] == [
            ("co/2019/page_1.pdf-0", "qa.exe_ans", "must be a finite number")
        ]

    @pytest.mark.parametrize("field", ["qa.exe_ans", "table"])
    @pytest.mark.parametrize(
        "exe_ans",
        [
            "1" + "0" * MAX_NUMBER_DIGITS,
            "-$" + "9" * (MAX_NUMBER_DIGITS + 1) + "%",
            "0." + "0" * MAX_NUMBER_DIGITS + "1",
            "0." + "0" * 4_000_000 + "1",
            "1" * 4_000_000,
        ],
    )
    def test_numeric_exe_ans_past_the_literal_bound_rejected(self, tmp_path, exe_ans, field):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [_with_number(field, exe_ans)])
        started = time.perf_counter()
        loaded = load_records(path)
        assert time.perf_counter() - started < 2.0
        assert not loaded.records
        reason = "a number must have terms of at most 100 digits"
        assert [(r.id, r.field_path, r.reason) for r in loaded.rejects] == [
            ("co/2019/page_1.pdf-0", field, reason if field == "qa.exe_ans" else f"row 1 column 2: {reason}")
        ]

    @pytest.mark.parametrize("field", ["qa.exe_ans", "table"])
    @pytest.mark.parametrize(
        "exe_ans",
        [
            "9" * MAX_NUMBER_DIGITS,
            "0." + "0" * (MAX_NUMBER_DIGITS - 3) + "1",
            " " * MAX_NUMBER_DIGITS + "20",
            "0" * 4_000_000 + "20",
            "$" + "9" * MAX_NUMBER_DIGITS,
            "20.000" + "0" * MAX_NUMBER_DIGITS,
            "not a number " * 10,
        ],
    )
    def test_exe_ans_within_the_literal_bound_or_not_numeric_loads(self, tmp_path, exe_ans, field):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [_with_number(field, exe_ans)])
        (got,) = load_records(path).records
        assert (got.gold_answer if field == "qa.exe_ans" else got.table.rows[0][1][1]) == exe_ans

    @given(st.text(alphabet="0123456789", min_size=1, max_size=MAX_NUMBER_DIGITS), st.integers(-1, MAX_NUMBER_DIGITS))
    @example("9" * MAX_NUMBER_DIGITS, -1)
    @example("9" * MAX_NUMBER_DIGITS, 1)
    @example("9" * MAX_NUMBER_DIGITS, 0)
    @example("0" * (MAX_NUMBER_DIGITS - 1) + "1", 1)
    @settings(max_examples=300, deadline=None)
    def test_every_short_numeric_surface_fits_the_literal_bound(self, digits, point):
        # Why the loader parses only strings longer than MAX_NUMBER_DIGITS.
        surface = (digits if point < 0 else digits[:point] + "." + digits[point:])[:MAX_NUMBER_DIGITS]
        try:
            value = parse_mantissa(surface)
        except NotANumber:
            return
        assert _fits(value)

    def test_file_that_is_not_utf8_is_unreadable(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_bytes(json.dumps(minimal_record()).encode() + b"\n\xff\n")
        with pytest.raises(FileUnreadable, match="cannot read"):
            load_records(path)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
    def test_unicode_line_separator_inside_a_sentence(self, tmp_path, separator):
        path = tmp_path / "records.jsonl"
        sentence = f"net sales were 100 in 2019 {separator} and 80 in 2018 ."
        path.write_text(
            json.dumps(minimal_record(pre_text=[sentence]), ensure_ascii=False) + "\n", encoding="utf-8"
        )
        loaded = load_records(path)
        assert loaded.rejects == []
        assert [r.pre_text for r in loaded.records] == [(sentence,)]

    @pytest.mark.parametrize(
        "line",
        ['{"id": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["5000-digit-integer", "nested-100000-deep"],
    )
    def test_line_json_cannot_decode_rejected(self, tmp_path, line):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(minimal_record()) + "\n" + line + "\n")
        loaded = load_records(path)
        assert len(loaded.records) == 1
        assert [(r.id, r.field_path) for r in loaded.rejects] == [("line-2", "")]
        assert loaded.rejects[0].reason.startswith("invalid JSON: ")

    def test_deeply_nested_array_file_is_schema_error(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SchemaError, match="is not valid JSON"):
            load_records(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_numbers_count_physical_lines(self, tmp_path, newline):
        path = tmp_path / "records.jsonl"
        lines = ["", " \t ", "{bad", json.dumps(minimal_record(id=None)), "  "]
        path.write_bytes(newline.join(lines).encode())
        loaded = load_records(path)
        assert [r.id for r in loaded.records] == ["record-4"]
        assert [r.id for r in loaded.rejects] == ["line-3"]

    def test_invalid_json_rejects_come_first(self, tmp_path):
        path = tmp_path / "records.jsonl"
        bad = minimal_record(id="bad-0", pre_text="x")
        path.write_text("\n".join([json.dumps(bad), "{bad", json.dumps(minimal_record())]))
        loaded = load_records(path)
        assert [(r.id, r.field_path) for r in loaded.rejects] == [("line-2", ""), ("bad-0", "pre_text")]


class TestLoadPredictions:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a-0", "program": "add(1, 2)"}\n{"id": "b-0", "program": null}\n')
        preds = load_predictions(path)
        assert preds[0] == PredictionRecord(id="a-0", program_text="add(1, 2)")
        assert preds[1].program_text is None

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("not json\n")
        with pytest.raises(SchemaError):
            load_predictions(path)

    def test_file_that_is_not_utf8_is_unreadable(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_bytes(b'{"id": "a-0", "program": "add(1, 2)"}\n\xff\n')
        with pytest.raises(FileUnreadable, match="cannot read"):
            load_predictions(path)

    @pytest.mark.parametrize(
        "line",
        ['{"id": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["5000-digit-integer", "nested-100000-deep"],
    )
    def test_line_json_cannot_decode_is_schema_error(self, tmp_path, line):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(SchemaError, match=r":2 is not valid JSON: "):
            load_predictions(path)

    @pytest.mark.parametrize("value", [None, ["a-0"], 5])
    def test_id_that_is_not_a_string_is_schema_error(self, tmp_path, value):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a-0", "program": null}\n' + json.dumps({"id": value, "program": "add(1, 2)"}) + "\n")
        with pytest.raises(SchemaError, match=r":2 id must be a string$"):
            load_predictions(path)

    @pytest.mark.parametrize("line", ['["a-0", "add(1, 2)"]', '{"program": "add(1, 2)"}'], ids=["array", "no-id"])
    def test_line_that_is_not_an_object_with_an_id_is_schema_error(self, tmp_path, line):
        path = tmp_path / "preds.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(SchemaError, match=r":1 must be an object with an id$"):
            load_predictions(path)

    def test_unicode_line_separator_inside_a_program(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "a-0", "program": "add(1,\u2028 2)"}\n', encoding="utf-8")
        assert load_predictions(path) == [PredictionRecord(id="a-0", program_text="add(1,\u2028 2)")]


class TestPageSharing:
    """Adjacent records with equal evidence share what was built from it."""

    def test_records_equal_to_loading_each_line_alone(self, tmp_path, aaba_path):
        alone = []
        for i, line in enumerate(aaba_path.read_text(encoding="utf-8").splitlines()):
            one = tmp_path / f"one-{i}.jsonl"
            one.write_text(line + "\n", encoding="utf-8")
            alone.extend(load_records(one).records)
        assert len(alone) == 4
        assert load_records(aaba_path).records == alone

    def test_adjacent_records_of_one_page_share_evidence(self, aaba_path):
        first, second, other, last = load_records(aaba_path).records
        assert first.pre_text is second.pre_text
        assert first.post_text is second.post_text
        assert first.table is second.table
        assert other.table is not first.table
        assert list(page_runs([first, second, other, last])) == [[first, second], [other], [last]]

    @pytest.mark.parametrize(
        "change",
        [
            {"pre_text": ["net sales were 100 in 2019 and 80 in 2018 .", "more ."]},
            {"post_text": ["net sales were 100 in 2019 and 80 in 2018 ."]},
            {"pre_text": [], "post_text": ["net sales were 100 in 2019 and 80 in 2018 ."]},
            {"table": [["", "2019", "2018"], ["net sales", "100", "81"]]},
        ],
    )
    def test_adjacent_records_differing_in_one_field(self, tmp_path, change):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [minimal_record(), minimal_record(id="co/2019/page_1.pdf-1", **change)])
        first, second = load_records(path).records
        assert list(page_runs([first, second])) == [[first], [second]]
        write_jsonl(path, [minimal_record(id="co/2019/page_1.pdf-1", **change)])
        assert [second] == load_records(path).records
        assert (first.pre_text, first.post_text, first.table) != (
            second.pre_text,
            second.post_text,
            second.table,
        )

    def test_rejected_table_rejected_again(self, tmp_path):
        path = tmp_path / "records.jsonl"
        bad_table = [["", "2019"], ["net sales", 100]]
        write_jsonl(
            path,
            [minimal_record(id="p-0", table=bad_table), minimal_record(id="p-1", table=bad_table)],
        )
        loaded = load_records(path)
        assert not loaded.records
        assert [(r.id, r.field_path, r.reason) for r in loaded.rejects] == [
            ("p-0", "table", "row 1 column 1 is not a string"),
            ("p-1", "table", "row 1 column 1 is not a string"),
        ]

    def test_each_record_keeps_its_own_grounding_warnings(self, tmp_path):
        path = tmp_path / "records.jsonl"
        ungrounded = minimal_record(id="co/2019/page_1.pdf-1")
        ungrounded["qa"] = dict(ungrounded["qa"], program="subtract(999999, 80)", exe_ans=999919)
        write_jsonl(path, [minimal_record(), ungrounded])
        first, second = load_records(path).records
        assert first.table is second.table
        assert (first.warnings, second.warnings) == ((), ())
        assert validate(first.gold_program, first.context()) == []
        assert [d.message for d in validate(second.gold_program, second.context())] == [
            "999999 does not appear in the evidence"
        ]


class TestNormalizeProgramText:
    def test_trailing_none_dropped(self):
        cleaned, warnings = normalize_program_text("table-average(net sales, none)")
        assert cleaned == "table-average(net sales)"
        assert warnings

    def test_plain_text_untouched(self):
        cleaned, warnings = normalize_program_text("add(1, 2), subtract(#0, 3)")
        assert cleaned == "add(1, 2), subtract(#0, 3)" and not warnings


class TestDatasetStats:
    def test_single_record(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [minimal_record(qa={
            "question": "what is the ratio?",
            "program": "divide(100, 80)",
            "exe_ans": 1.25,
            "gold_inds": ["text:0"],
        })])
        stats = dataset_stats(load_records(path).records)
        assert stats.op_pct == {"divide": 100.0}
        assert stats.step_pct["1"] == 100.0
        assert stats.examples == 1 and stats.report_pages == 1

    def test_two_records_step_split(self, tmp_path):
        path = tmp_path / "records.jsonl"
        one = minimal_record(id="a-0")
        three = minimal_record(id="b-0")
        three["qa"] = dict(
            three["qa"], program="subtract(100, 80), add(#0, 100), divide(#1, 80)"
        )
        write_jsonl(path, [one, three])
        stats = dataset_stats(load_records(path).records)
        assert stats.step_pct == {"1": 50.0, "2": 0.0, ">2": 50.0}

    def test_distributions_sum_to_hundred(self, sample_records):
        stats = dataset_stats(sample_records)
        for dist in (stats.source_pct, stats.fact_count_pct, stats.op_pct, stats.step_pct):
            assert sum(dist.values()) == pytest.approx(100.0)
        assert sum(stats.fact_distance_pct.values()) == pytest.approx(100.0)

    def test_page_grouping(self, sample_records):
        stats = dataset_stats(sample_records)
        # alpha page and charlie page each host two questions
        assert stats.examples == 20 and stats.report_pages == 18

    def test_page_suffix_is_ascii_digits(self, tmp_path):
        path = tmp_path / "records.jsonl"
        ids = ["a.pdf-0", "a.pdf-1", "a.pdf-\u0662"]
        write_jsonl(path, [minimal_record(id=i) for i in ids])
        stats = dataset_stats(load_records(path).records)
        # "-\u0662" is not a question suffix, so that id names a page of its own.
        assert stats.examples == 3 and stats.report_pages == 2

    def test_fact_distance_buckets(self, sample_records):
        stats = dataset_stats(sample_records)
        assert stats.fact_distance_pct[">6"] > 0  # the nine-sentence record

    def test_fact_distance_of_four_to_six(self, tmp_path):
        path = tmp_path / "records.jsonl"
        pre_text = ["net sales were 100 in 2019 and 80 in 2018 .", "b .", "c .", "d .", "e ."]
        record = minimal_record(pre_text=pre_text)
        record["qa"] = dict(record["qa"], gold_inds=["text:0", "text:4"])
        write_jsonl(path, [record])
        stats = dataset_stats(load_records(path).records)
        assert stats.fact_distance_pct == {"<=3": 0.0, "4-6": 100.0, ">6": 0.0}

    def test_fact_positions_from_counts(self, sample_records):
        records = list(sample_records)
        rng = Random(11)
        for _ in range(200):
            ctx = random_context(rng)
            cut = rng.randint(0, len(ctx.text_sentences))
            records.append(
                sample_records[0]._replace(
                    pre_text=ctx.text_sentences[:cut],
                    post_text=ctx.text_sentences[cut:],
                    table=ctx.table,
                )
            )
        for record in records:
            for position, fact in enumerate(candidate_facts(record)):
                assert _fact_position(record, fact.id) == position

    def test_source_buckets(self, sample_records):
        stats = dataset_stats(sample_records)
        assert stats.source_pct["table-text"] > 0
        assert stats.source_pct["table-only"] > 0
        assert stats.source_pct["text-only"] > 0

    def test_machine_and_table_forms(self, sample_records):
        stats = dataset_stats(sample_records)
        payload = stats.to_dict()
        assert payload["examples"] == 20
        text = stats.format_table()
        assert "operations" in text and "report pages" in text

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            dataset_stats([])

    # repr, not ==: it also pins the order of each distribution's keys.
    def test_equals_per_record_oracle(self, sample_records, aaba_path):
        for records in (sample_records, load_records(aaba_path).records, *([r] for r in sample_records)):
            assert repr(dataset_stats(records)) == repr(per_record_stats(records))

    def test_generated_runs_equal_per_record_oracle(self, sample_records):
        rng = Random(37)
        for _ in range(150):
            pages = []
            for _ in range(rng.randint(1, 3)):
                ctx = random_context(rng)
                cut = rng.randint(0, len(ctx.text_sentences))
                pages.append((ctx.text_sentences[:cut], ctx.text_sentences[cut:], ctx.table))
            # Pages that differ from the first in one field, by words that lowering merges.
            extra = ("Revenue revenue REVENUE \u03a3 \u03c3 .",)
            pre_text, post_text, table = pages[0]
            pages.append((pre_text + extra, post_text, table))
            pages.append((pre_text, post_text + extra, table))
            more_rows = table.rows + (("Revenue", table.header[1:]),)
            pages.append((pre_text, post_text, FinTable(table.header, more_rows)))
            records, page = [], rng.choice(pages)
            for i in range(rng.randint(1, 8)):
                if rng.random() < 0.5:  # else the next record asks about the same page
                    page = rng.choice(pages)
                pre_text, post_text, table = page
                if rng.random() < 0.3:  # equal evidence held in objects of its own
                    pre_text, post_text = tuple(list(pre_text)), tuple(list(post_text))
                    table = FinTable(header=tuple(list(table.header)), rows=tuple(list(table.rows)))
                record = rng.choice(sample_records)._replace(
                    id=f"gen/page_{pages.index(page)}.pdf-{i}",
                    pre_text=pre_text,
                    post_text=post_text,
                    table=table,
                    question=" ".join(rng.choices(["what", "was", "the", "Change", "?"], k=rng.randint(1, 6))),
                )
                fact_ids = [fact.id for fact in candidate_facts(record)]
                gold = rng.sample(fact_ids, rng.randint(1, min(3, len(fact_ids))))
                records.append(record._replace(gold_fact_ids=frozenset(gold)))
            assert repr(dataset_stats(records)) == repr(per_record_stats(records))

    def test_each_run_tokenizes_its_page_texts_once(self, monkeypatch, aaba_path):
        import finprog.corpus

        records = load_records(aaba_path).records
        calls = Counter()

        def counted(text):
            calls[text] += 1
            return len(text.split())

        monkeypatch.setattr(finprog.corpus, "_tokens", counted)
        assert repr(dataset_stats(records)) == repr(per_record_stats(records))
        expected = Counter(record.question for record in records)
        for page in (records[0], records[2], records[3]):  # the runs: A A, B, A
            table = page.table
            expected.update([*page.pre_text, *page.post_text, *table.header, *table.row_names])
            expected.update(cell for _, cells in table.rows for cell in cells)
        assert calls == expected


_CASE_TEXT = st.text(
    st.sampled_from(
        [" ", "\t", "\n", "\x1c", "\x85", "\u2028", "\u3000"]  # whitespace that str.split splits at
        + ["a", "B", "\u0130", "\u00df", "\u03a3", "\u03c2", "\u03c3"]  # letters: \u0130 lowers to two characters
        + ["'", ".", ":", "\u2019", "\u00ad", "\u0301", "\u0345", "\u180e", "\u200b"]  # case-ignorable
    ),
    max_size=24,
)


class TestLowerThenSplit:
    """``dataset_stats`` adds ``text.lower().split()`` to the vocabulary, one lowering per text."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(_CASE_TEXT)
    @example("a\u03a3 b\u03a3\u00ad a\u03a3\u0301b \u03a3")
    def test_same_words_as_lowering_each_word(self, text):
        # str.lower picks final or medial sigma from the characters around a capital sigma.
        assert {word.lower() for word in text.split()} == set(text.lower().split())



# Every field_path a reject may name (docs/formats.md, Rejects).
_RECORD_FIELDS = [("", k) for k in ("id", "pre_text", "post_text", "table", "qa")] + [
    ("qa", k) for k in ("question", "program", "exe_ans", "gold_inds")
]
_FIELD_PATHS = {""} | {f"{owner}.{key}" if owner else key for owner, key in _RECORD_FIELDS}
_RECORD_LINES = SAMPLE_PATH.read_text(encoding="utf-8").splitlines()
_PREDICTION_LINES = [
    json.dumps({"id": r["id"], "program": r["qa"]["program"]}) for r in map(json.loads, _RECORD_LINES)
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_HOSTILE_LINES = [
    b'{"id": ' + b"1" * 5000 + b"}",
    b"[" * 2000 + b"]" * 2000,
    _RECORD_LINES[0].replace("the increase was", "the increase\u2028was").encode(),
    _RECORD_LINES[2].replace('"exe_ans": 3251', '"exe_ans": 1e400').encode(),
    b'{"id": "\xff\xfe"}',
]


@st.composite
def _mutated_line(draw, lines, fields):
    """A line with one field (top level, or under qa) set to an arbitrary JSON value."""
    raw = json.loads(draw(st.sampled_from(lines)))
    owner, key = draw(st.sampled_from(fields))
    (raw[owner] if owner else raw)[key] = draw(_JSON_VALUES)
    return json.dumps(raw).encode()


def _files(lines, fields):
    """One to four lines, each kept as it is, mutated, or hostile."""
    kept = st.sampled_from([line.encode() for line in lines])
    line = kept | _mutated_line(lines, fields) | st.sampled_from(_HOSTILE_LINES)
    return st.lists(line, min_size=1, max_size=4).map(b"\n".join)


class TestLoaderFuzz:
    """Mutated and hostile lines: only the loaders' own errors escape, and what loads scores."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_files(_RECORD_LINES, _RECORD_FIELDS))
    def test_load_records(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzz-records.jsonl"
        path.write_bytes(content)
        try:
            loaded = load_records(path)
        except (FileUnreadable, SchemaError):
            return
        for reject in loaded.rejects:
            assert isinstance(reject.id, str) and reject.id
            assert reject.field_path in _FIELD_PATHS
        assert len({record.id for record in loaded.records}) == len(loaded.records)
        for record in loaded.records:
            assert score_record(render_program(record.gold_program), record).id == record.id

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_files(_PREDICTION_LINES, [("", "id"), ("", "program")]))
    def test_load_predictions(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "fuzz-predictions.jsonl"
        path.write_bytes(content)
        try:
            predictions = load_predictions(path)
        except (FileUnreadable, SchemaError):
            return
        for prediction in predictions:
            assert isinstance(prediction.id, str)
            assert prediction.program_text is None or isinstance(prediction.program_text, str)
