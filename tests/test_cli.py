import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finprog
from finprog.cli import cli_dispatch, main
from finprog.corpus import candidate_facts, load_records
from finprog.dsl import MAX_PROGRAM_STEPS, render_program
from finprog.retrieve import build_index, rank


@pytest.fixture()
def gold_preds_path(tmp_path, sample_records):
    path = tmp_path / "preds.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for record in sample_records:
            handle.write(
                json.dumps({"id": record.id, "program": render_program(record.gold_program)}) + "\n"
            )
    return path


FACTORED = "add(a, b), multiply(#0, c)"
DISTRIBUTED = "multiply(a, c), multiply(b, c), add(#0, #1)"
# The reject line of '{"id": "bad"}', on stderr and in an input error.
BAD_REJECT = "record 'bad' was rejected at table: must be a list of rows"


def _exp_of_squarings(a, b, c, d):
    """Two equivalent programs whose exact exp base is about 16,000 bits long at a sample point."""
    squarings = [f"multiply(#{k}, #{k})" for k in range(1, 9)]
    left = [f"add({a}, {b})", f"multiply(#0, {c})", *squarings[:7], f"exp(#8, {d})"]
    right = [f"multiply({a}, {c})", f"multiply({b}, {c})", "add(#0, #1)", *squarings[1:], f"exp(#9, {d})"]
    return ", ".join(left), ", ".join(right)


class TestEquivCommand:
    def test_equivalent_pair(self, capsys):
        code = cli_dispatch(["equiv", "add(1, 2)", "add(2, 1)"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "equivalent"

    def test_prints_canonical_text(self, capsys):
        assert cli_dispatch(["equiv", "add(a, b)", "add(b, a)"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "equivalent",
            "reason: canonical-match",
            "points: 0",
            "canonical a: (+ 1*s0 1*s1)",
            "canonical b: (+ 1*s0 1*s1)",
        ]

    def test_not_equivalent(self, capsys):
        code = cli_dispatch(["equiv", "subtract(1, 2)", "subtract(2, 1)"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "not equivalent"

    def test_unparseable_program_is_usage_error(self, capsys):
        assert cli_dispatch(["equiv", "add(1, 2)", "nope("]) == 2

    def test_step_ref_in_table_op_is_usage_error(self, capsys):
        assert cli_dispatch(["equiv", "add(a, b), table-sum(#0)", "add(a, b)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid program:")

    @pytest.mark.parametrize(
        "left, right",
        [
            ("greater(a, b), add(#0, c)", "add(a, c)"),
            ("add(a, const_foo)", "add(const_foo, a)"),
            ("add(" + "9" * 5000 + ", x)", "add(1, x)"),
        ],
        ids=["boolean-operand", "unknown-constant", "huge-literal"],
    )
    def test_argument_rule_is_usage_error(self, capsys, left, right):
        assert cli_dispatch(["equiv", left, right]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid program:")

    def test_program_past_the_step_cap_is_usage_error(self, capsys):
        steps = ["add(a, b)"] + [f"add(#{i}, b)" for i in range(MAX_PROGRAM_STEPS)]
        assert cli_dispatch(["equiv", ", ".join(steps), "add(a, b)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid program: a program may have at most {MAX_PROGRAM_STEPS} steps\n"

    @pytest.mark.parametrize(
        "left, right, cap, lines",
        [
            # the degree bound asks for 2 of the points MAX_SAMPLE_POINTS allows
            (FACTORED, DISTRIBUTED, 32, ["equivalent", "reason: randomized-agreement", "points: 2"]),
            (FACTORED, DISTRIBUTED, 1, ["equivalent", "reason: randomized-agreement", "points: 1"]),
            ("add(a, b)", "add(a, c)", 32, ["not equivalent", "reason: counterexample", "points: 1"]),
            # a pair ending in greater compares its operands' differences, as a number pair does
            (f"{FACTORED}, greater(#1, d)", f"{DISTRIBUTED}, greater(#2, d)", 5,
             ["equivalent", "reason: randomized-agreement", "points: 2"]),
            # a zero-form divisor decides without sampling
            ("subtract(a, a), divide(b, #0)", "subtract(a, a), divide(c, #0)", 32,
             ["not equivalent", "reason: degenerate", "points: 0"]),
        ],
    )
    def test_prints_the_points_compared(self, capsys, monkeypatch, left, right, cap, lines):
        monkeypatch.setattr("finprog.equiv.MAX_SAMPLE_POINTS", cap)
        start = time.perf_counter()
        assert cli_dispatch(["equiv", left, right]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out.splitlines()[:3] == lines
        assert elapsed < 1.0, elapsed

    def test_exp_of_a_long_exact_value_decides(self, capsys):
        assert cli_dispatch(["equiv", *_exp_of_squarings("a", "b", "c", "d")]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["equivalent", "reason: randomized-agreement"]

    def test_capped_reused_step_chain_prints_an_elision(self, capsys):
        # Each level reuses the step before it twice, so its text grows 4x per level.
        steps = ["add(a, b)", "multiply(#0, e)"]
        for k in range(1, MAX_PROGRAM_STEPS - 2, 3):
            steps += [f"divide(#{k}, c)", f"divide(#{k}, d)", f"add(#{k + 1}, #{k + 2})"]
        assert len(steps) == MAX_PROGRAM_STEPS
        start = time.perf_counter()
        code = cli_dispatch(["equiv", ", ".join(steps), "add(a, b)"])
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and elapsed < 1.0, elapsed
        assert re.fullmatch(r"canonical a: \(elided: \d+ characters\)", lines[3]), lines[3]
        assert int(lines[3].split()[3]) > 10**14
        assert lines[4] == "canonical b: (+ 1*s0 1*s1)"

    def test_flagship_pair(self, capsys):
        code = cli_dispatch(
            [
                "equiv",
                "add(a_1, a_2), add(a_3, a_4), subtract(#0, #1)",
                "add(a_4, a_3), add(a_1, a_2), subtract(#1, #0)",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0 and "equivalent" in out and "canonical-match" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert cli_dispatch([]) == 2

    def test_missing_records_file(self, capsys, tmp_path):
        code = cli_dispatch(["stats", "--records", str(tmp_path / "absent.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("argv", [["validate", "add(1, 2)"], ["exec", "add(1, 2)"], ["mask"]])
    def test_id_without_records_is_usage_error(self, capsys, argv):
        assert cli_dispatch([*argv, "--id", "nope"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --id needs --records\n")

    @pytest.mark.parametrize("argv", [["validate", "add(1, 2)"], ["exec", "add(1, 2)"], ["mask"]])
    def test_records_of_several_need_an_id(self, capsys, sample_path, argv):
        assert cli_dispatch([*argv, "--records", str(sample_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --id is required when the record file has several records\n"

    @pytest.mark.parametrize("argv", [["validate", "add(1, 2)"], ["exec", "add(1, 2)"], ["mask"]])
    def test_records_of_none_loaded_say_so(self, capsys, tmp_path, argv):
        records = tmp_path / "only_reject.jsonl"
        records.write_text('{"id": "bad"}\n', encoding="utf-8")
        assert cli_dispatch([*argv, "--records", str(records)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{BAD_REJECT}\nerror: no records loaded\n")

    @pytest.mark.parametrize("argv", [["linearize"], ["validate", "add(1, 2)"], ["exec", "add(1, 2)"], ["mask"]])
    def test_empty_id_selects_no_record(self, capsys, sample_path, argv):
        assert cli_dispatch([*argv, "--records", str(sample_path), "--id", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("no record with id ''\n")

    @pytest.mark.parametrize("argv", [["linearize"], ["validate", "add(1, 2)"], ["exec", "add(1, 2)"], ["mask"]])
    @pytest.mark.parametrize(
        "record_id, message",
        [("bad", BAD_REJECT), ("record-3", "record 'record-3' was rejected: record is not an object")],
    )
    def test_id_of_a_rejected_record_names_the_reject(self, capsys, tmp_path, sample_path, argv, record_id, message):
        records = tmp_path / "with_rejects.jsonl"
        first = sample_path.read_text(encoding="utf-8").splitlines()[0]
        records.write_text(f'{first}\n{{"id": "bad"}}\n5\n', encoding="utf-8")
        assert cli_dispatch([*argv, "--records", str(records), "--id", record_id]) == 2
        captured = capsys.readouterr()
        reject_lines = f"{BAD_REJECT}\nrecord 'record-3' was rejected: record is not an object\n"
        assert (captured.out, captured.err) == ("", f"{reject_lines}error: {message}\n")

    @pytest.mark.parametrize("argv", [["exec", "add(1, 2)"], ["stats", "--records", "SAMPLE"]])
    def test_a_closed_stdout_exits_zero(self, monkeypatch, sample_path, argv):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli_dispatch([str(sample_path) if arg == "SAMPLE" else arg for arg in argv]) == 0

    def test_console_script_names_main(self):
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert 'finprog = "finprog.cli:main"' in scripts.splitlines()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["exec", "add(1, 2)"], 0),
            (["exec", "divide(1, 0)"], 1),
            (["retrieve", "--records", str(pathlib.Path(__file__).parent / "data" / "sample_records.jsonl"),
              "--k", "0"], 2),
        ],
    )
    def test_main_exits_with_the_dispatch_code(self, capsys, monkeypatch, argv, code):
        assert cli_dispatch(argv) == code
        monkeypatch.setattr(sys, "argv", ["finprog", *argv])
        with pytest.raises(SystemExit) as exited:
            main()
        assert exited.value.code == code


class TestEmptyGoldRecords:
    """A record naming no gold facts is rejected at ingest, never a crash."""

    @pytest.fixture()
    def paths(self, tmp_path, sample_path):
        good = json.loads(sample_path.read_text(encoding="utf-8").splitlines()[0])
        empty_list = dict(good, id="empty-list", qa=dict(good["qa"], gold_inds=[]))
        empty_dict = dict(good, id="empty-dict", qa=dict(good["qa"], gold_inds={}))
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join(json.dumps(r) for r in (good, empty_list, empty_dict)))
        only_empty = tmp_path / "only_empty.jsonl"
        only_empty.write_text(json.dumps(empty_list))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            "\n".join(
                json.dumps({"id": r["id"], "program": r["qa"]["program"]})
                for r in (good, empty_list, empty_dict)
            )
        )
        only_empty_preds = tmp_path / "only_empty_preds.jsonl"
        only_empty_preds.write_text(preds.read_text().splitlines()[1])
        return {"mixed": (mixed, preds), "only_empty": (only_empty, only_empty_preds)}

    @pytest.mark.parametrize(
        "command, file, expected",
        [
            ("retrieve", "mixed", 1),
            ("stats", "mixed", 1),
            ("eval", "mixed", 1),
            ("retrieve", "only_empty", 2),
            ("stats", "only_empty", 2),
            ("eval", "only_empty", 1),
        ],
    )
    def test_exit_codes(self, capsys, paths, command, file, expected):
        records, preds = paths[file]
        argv = [command, "--records", str(records), "--format", "machine"]
        if command == "eval":
            argv += ["--preds", str(preds)]
        assert cli_dispatch(argv) == expected
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if file == "mixed":
            payload = json.loads(captured.out)
            if command == "stats":
                assert sum(payload["source_pct"].values()) == pytest.approx(100.0)
            elif command == "retrieve":
                assert [r["id"] for r in payload["per_record"]] == ["alpha/2019/page_12.pdf-0"]
            else:
                assert [r["field"] for r in payload["rejects"]] == ["qa.gold_inds"] * 2
                assert sum(b["count"] for b in payload["by_source"].values()) == 1

    def test_prediction_scored_when_a_reject_shares_its_id(self, capsys, tmp_path, sample_path):
        good = json.loads(sample_path.read_text(encoding="utf-8").splitlines()[0])
        twin = dict(good, qa=dict(good["qa"], gold_inds=[]))
        records = tmp_path / "records.jsonl"
        records.write_text("\n".join(json.dumps(r) for r in (good, twin)))
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": good["id"], "program": good["qa"]["program"]}))
        argv = ["eval", "--records", str(records), "--preds", str(preds), "--format", "machine"]
        assert cli_dispatch(argv) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["execution_accuracy"] == 1.0


class TestRejectLines:
    """A command that reads a record file writes one stderr line per reject; stdout and exit codes stay."""

    @pytest.fixture()
    def files(self, tmp_path, sample_path):
        first = sample_path.read_text(encoding="utf-8").splitlines()[0]
        clean, with_reject, preds = tmp_path / "clean.jsonl", tmp_path / "with_reject.jsonl", tmp_path / "preds.jsonl"
        clean.write_text(first + "\n", encoding="utf-8")
        with_reject.write_text(first + '\n{"id": "bad"}\n', encoding="utf-8")
        record = json.loads(first)
        preds.write_text(json.dumps({"id": record["id"], "program": record["qa"]["program"]}) + "\n", encoding="utf-8")
        return clean, with_reject, preds

    @pytest.mark.parametrize("command", ["eval", "retrieve", "stats"])
    def test_each_reject_has_one_stderr_line(self, capsys, files, command):
        clean, with_reject, preds = files
        extra = ["--preds", str(preds)] if command == "eval" else []
        assert cli_dispatch([command, "--records", str(clean), *extra]) == 0
        expected = capsys.readouterr()
        assert cli_dispatch([command, "--records", str(with_reject), *extra]) == 1
        captured = capsys.readouterr()
        assert (expected.err, captured.err) == ("", BAD_REJECT + "\n")
        if command == "eval":  # its table adds a count of the rejects
            assert captured.out == expected.out.rstrip("\n") + "\nrejected records        1\n"
        else:
            assert captured.out == expected.out

    def test_exec_of_a_loaded_record_still_succeeds(self, capsys, files, sample_records):
        _, with_reject, _ = files
        argv = ["exec", "add(1, 2)", "--records", str(with_reject), "--id", sample_records[0].id]
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr() == ("3\n", BAD_REJECT + "\n")


class TestEvalCommand:
    def test_gold_predictions_score_perfectly(self, capsys, sample_path, gold_preds_path):
        code = cli_dispatch(
            ["eval", "--records", str(sample_path), "--preds", str(gold_preds_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "execution accuracy  100.00%" in out.splitlines()
        assert "program accuracy    100.00%" in out.splitlines()

    def test_table_counts_failures_by_reason(self, capsys, tmp_path, sample_path, sample_records):
        preds = tmp_path / "preds.jsonl"
        wrong = [(sample_records[0].id, "add(1, 1)"), (sample_records[1].id, "divide(1, 0)")]
        preds.write_text("".join(json.dumps({"id": rid, "program": program}) + "\n" for rid, program in wrong))
        assert cli_dispatch(["eval", "--records", str(sample_path), "--preds", str(preds)]) == 0
        assert capsys.readouterr().out.endswith(
            "failures\n"
            "  exec-error               1\n"
            f"  missing                  {len(sample_records) - 2}\n"
            "  value-mismatch           1\n"
        )

    def test_machine_format(self, capsys, sample_path, gold_preds_path):
        code = cli_dispatch(
            [
                "eval",
                "--records", str(sample_path),
                "--preds", str(gold_preds_path),
                "--format", "machine",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["execution_accuracy"] == 1.0
        assert payload["rejects"] == []

    def test_out_file(self, tmp_path, sample_path, gold_preds_path):
        out_path = tmp_path / "report.json"
        code = cli_dispatch(
            [
                "eval",
                "--records", str(sample_path),
                "--preds", str(gold_preds_path),
                "--format", "machine",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert json.loads(out_path.read_text())["program_accuracy"] == 1.0

    def test_rejects_exit_code(self, capsys, tmp_path, gold_preds_path, sample_path):
        records_path = tmp_path / "records.jsonl"
        lines = sample_path.read_text().splitlines()
        bad = json.loads(lines[0])
        bad["id"] = "broken-0"
        bad["qa"] = dict(bad["qa"], program="subtract(#3, 1)")
        records_path.write_text("\n".join(lines + [json.dumps(bad)]) + "\n")
        code = cli_dispatch(
            ["eval", "--records", str(records_path), "--preds", str(gold_preds_path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "rejected records" in out

    def test_unknown_prediction_id_is_input_error(self, capsys, tmp_path, sample_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": "nope", "program": "add(1, 2)"}) + "\n")
        code = cli_dispatch(["eval", "--records", str(sample_path), "--preds", str(preds)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: prediction id 'nope' matches no record\n"
        assert captured.out == ""

    @pytest.mark.parametrize("programs", [("add(1, 2)", None), (None, "add(1, 2)")])
    def test_repeated_prediction_id_is_input_error(self, capsys, tmp_path, sample_path, sample_records, programs):
        record_id = sample_records[0].id
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps({"id": record_id, "program": p}) + "\n" for p in programs))
        code = cli_dispatch(["eval", "--records", str(sample_path), "--preds", str(preds)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: prediction id {record_id!r} appears more than once\n"
        assert captured.out == ""

    def test_prediction_id_that_is_not_a_string_is_input_error(self, capsys, tmp_path, sample_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": 5, "program": "add(1, 2)"}) + "\n")
        code = cli_dispatch(["eval", "--records", str(sample_path), "--preds", str(preds)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {preds}:1 id must be a string\n"
        assert captured.out == ""

    def test_argument_rules_are_parse_errors(self, capsys, tmp_path, sample_path):
        lines = sample_path.read_text(encoding="utf-8").splitlines()[:5]
        programs = [
            "add(" + "9" * 5000 + ", 1)",
            "add(const_" + "9" * 5000 + ", 1)",
            "add(0." + "0" * 5000 + "1, 1)",
            "greater(1, 2), add(#0, 1)",
            "multiply(5, const_bogus)",
        ]
        records, preds = tmp_path / "records.jsonl", tmp_path / "preds.jsonl"
        records.write_text("\n".join(lines) + "\n")
        preds.write_text(
            "".join(json.dumps({"id": json.loads(line)["id"], "program": p}) + "\n" for line, p in zip(lines, programs))
        )
        argv = ["eval", "--records", str(records), "--preds", str(preds), "--format", "machine"]
        assert cli_dispatch(argv) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        failures = [v["failure"] for v in json.loads(captured.out)["verdicts"]]
        assert all(f.startswith("parse-error: ") for f in failures), failures

    def test_exp_of_a_long_exact_value_scores(self, capsys, tmp_path):
        gold, pred = _exp_of_squarings(2, 3, 5, 7)
        qa = {"question": "q", "program": gold, "exe_ans": 0, "gold_inds": ["text:0"]}
        record = {"id": "r", "pre_text": ["the values were 2 , 3 , 5 and 7 ."], "post_text": [], "table": [["", "a"]], "qa": qa}
        records, preds = tmp_path / "records.jsonl", tmp_path / "preds.jsonl"
        records.write_text(json.dumps(record) + "\n")
        preds.write_text(json.dumps({"id": "r", "program": pred}) + "\n")
        argv = ["eval", "--records", str(records), "--preds", str(preds), "--format", "machine"]
        assert cli_dispatch(argv) == 0
        (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdict["prog_correct"] and verdict["failure"] == "value-mismatch"

    def test_prediction_past_the_int_str_limit_scores(self, capsys, tmp_path, sample_path):
        record = sample_path.read_text(encoding="utf-8").splitlines()[0]
        records, preds = tmp_path / "records.jsonl", tmp_path / "preds.jsonl"
        records.write_text(record + "\n")
        preds.write_text(json.dumps({"id": json.loads(record)["id"], "program": "exp(15, 4000), divide(#0, 7)"}))
        argv = ["eval", "--records", str(records), "--preds", str(preds), "--format", "machine"]
        assert cli_dispatch(argv) == 0
        (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
        assert verdict["failure"] == "value-mismatch"

    @pytest.mark.parametrize(
        "record_id, program, field, expected",
        [
            # 1 MB of arguments: the step is refused at the first ',' past its arity
            ("bravo/2017/page_45.pdf-0", "add(" + "1, " * 333_333 + "1)", "failure",
             "parse-error: add takes 2 argument(s), got more than 2 (step 0)"),
            # greater is decided by its operands' difference modulo p * q, never in exact arithmetic
            ("echo/2018/page_7.pdf-0",
             ", ".join(["add(120, 100)", *(f"multiply(#{k}, #{k})" for k in range(18)), "greater(#18, 100)"]),
             "prog_correct", False),
        ],
        ids=["1mb-add-step", "squared-greater"],
    )
    def test_long_prediction_line_scores_fast(self, capsys, tmp_path, sample_path, record_id, program, field, expected):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": record_id, "program": program}) + "\n")
        start = time.perf_counter()
        code = cli_dispatch(["eval", "--records", str(sample_path), "--preds", str(preds), "--format", "machine"])
        elapsed = time.perf_counter() - start
        verdicts = {v["id"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
        assert code == 0 and elapsed < 1.0, elapsed
        assert verdicts[record_id][field] == expected

    def test_deep_prediction_scored(self, capsys, tmp_path, sample_path):
        record = sample_path.read_text(encoding="utf-8").splitlines()[0]
        records = tmp_path / "records.jsonl"
        records.write_text(record + "\n")
        steps = ["add(1, 2)"] + [
            f"{'add' if i % 2 == 0 else 'multiply'}(#{i - 1}, {i + 2})" for i in range(1, 2000)
        ]
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": json.loads(record)["id"], "program": ", ".join(steps)}))
        argv = ["eval", "--records", str(records), "--preds", str(preds), "--format", "machine"]
        assert cli_dispatch(argv) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out)
        assert payload["program_accuracy"] == 0.0

    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e400", "-1", "x"])
    def test_tolerance_that_is_not_finite_and_nonnegative_is_usage_error(
        self, capsys, sample_path, gold_preds_path, flag, value
    ):
        argv = ["eval", "--records", str(sample_path), "--preds", str(gold_preds_path), f"{flag}={value}"]
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
    def test_zero_tolerance_accepted(self, capsys, sample_path, gold_preds_path, flag):
        argv = ["eval", "--records", str(sample_path), "--preds", str(gold_preds_path), flag, "0"]
        assert cli_dispatch(argv) == 0

    @pytest.mark.parametrize(
        "flags, golden",
        [
            ([], "eval_tolerance_default.json"),
            (["--percent-insensitive"], "eval_tolerance_percent.json"),
            (["--abs-tol", "0.5", "--rel-tol", "0", "--no-gold-rounding"], "eval_tolerance_abs.json"),
        ],
    )
    def test_tolerance_edge_predictions_match_golden_file(self, capsys, sample_path, flags, golden):
        # One prediction per sample record, on or beside a clause's boundary:
        # abs_tol and rel_tol edges, half-up ties, 100x errors, repeating
        # decimals and negatives. The golden files predate integer scoring.
        data = pathlib.Path(__file__).parent / "data"
        preds = data / "eval_tolerance_preds.jsonl"
        argv = ["eval", "--records", str(sample_path), "--preds", str(preds), "--format", "machine", *flags]
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().out == (data / golden).read_text(encoding="utf-8")

    def test_non_finite_gold_answer_is_a_reject(self, capsys, tmp_path, sample_path):
        line = sample_path.read_text(encoding="utf-8").splitlines()[0]
        records = tmp_path / "records.jsonl"
        records.write_text(line.replace('"exe_ans": 1164', '"exe_ans": NaN') + "\n")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"id": json.loads(line)["id"], "program": "add(1, 2)"}) + "\n")
        argv = ["eval", "--records", str(records), "--preds", str(preds), "--format", "machine"]
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["rejects"] == [
            {"id": "alpha/2019/page_12.pdf-0", "field": "qa.exe_ans", "reason": "must be a finite number"}
        ]


class TestHostileFiles:
    """Record and prediction files that json, UTF-8 or line splitting trip over."""

    @pytest.mark.parametrize(
        "command, which",
        [("stats", "records"), ("retrieve", "records"), ("eval", "records"), ("eval", "preds")],
    )
    def test_file_that_is_not_utf8_is_input_error(
        self, capsys, tmp_path, sample_path, gold_preds_path, command, which
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\n")
        files = {"records": sample_path, "preds": gold_preds_path, which: bad}
        argv = [command, "--records", str(files["records"])]
        if command == "eval":
            argv += ["--preds", str(files["preds"])]
        assert cli_dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: ")

    def test_line_separator_inside_a_sentence_loads(self, capsys, tmp_path, sample_path):
        record = json.loads(sample_path.read_text(encoding="utf-8").splitlines()[0])
        record["pre_text"][2] = "the increase was driven\u2028by the services segment ."
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert cli_dispatch(["stats", "--records", str(path), "--format", "machine"]) == 0
        assert json.loads(capsys.readouterr().out)["examples"] == 1

    @pytest.mark.parametrize(
        "line",
        ['{"id": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
        ids=["5000-digit-integer", "nested-100000-deep"],
    )
    def test_line_json_cannot_decode(self, capsys, tmp_path, sample_path, gold_preds_path, line):
        records = tmp_path / "records.jsonl"
        records.write_text(sample_path.read_text(encoding="utf-8") + line + "\n")
        argv = ["eval", "--records", str(records), "--preds", str(gold_preds_path), "--format", "machine"]
        assert cli_dispatch(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert [r["id"] for r in json.loads(captured.out)["rejects"]] == ["line-21"]
        assert cli_dispatch(["stats", "--records", str(records)]) == 1
        assert "Traceback" not in capsys.readouterr().err

        preds = tmp_path / "preds.jsonl"
        preds.write_text(line + "\n")
        assert cli_dispatch(["eval", "--records", str(sample_path), "--preds", str(preds)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {preds}:1 is not valid JSON: ")

    def test_deeply_nested_array_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "records.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli_dispatch(["stats", "--records", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON: ")

    @pytest.mark.parametrize("out", ["nul\x00byte", "."], ids=["nul", "directory"])
    def test_unwritable_out_is_input_error(self, capsys, sample_path, out):
        assert cli_dispatch(["stats", "--records", str(sample_path), "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_nul_in_records_path_is_input_error(self, capsys):
        assert cli_dispatch(["stats", "--records", "nul\x00byte"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read nul\x00byte: ")

    def test_lone_surrogate_is_written_escaped(self, tmp_path, sample_path):
        # JSON strings may hold lone surrogates, which UTF-8 cannot encode. A
        # real process's stdout shows what the fuzz test's StringIO hides.
        lines = sample_path.read_text(encoding="utf-8").splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[2])
        first["id"], second["id"] = "\ud800x", "caf\u00e9"
        second["table"].append(["\udfff row"] + ["1"] * (len(second["table"][0]) - 1))
        records, out = tmp_path / "records.jsonl", tmp_path / "out.txt"
        records.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n", encoding="ascii")
        src = pathlib.Path(finprog.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8"}

        def run(*argv: str) -> bytes:
            done = subprocess.run([sys.executable, "-m", "finprog.cli", *argv], capture_output=True, env=env)
            assert done.returncode == 0 and b"Traceback" not in done.stderr, done.stderr
            return done.stdout

        table = run("retrieve", "--records", str(records))
        assert b"\n  \\ud800x: recall " in table and "\n  caf\u00e9: recall ".encode() in table
        run("retrieve", "--records", str(records), "--out", str(out))
        assert out.read_bytes() == table
        mask = run("mask", "--records", str(records), "--id", "caf\u00e9", "--prefix", "table-sum (")
        assert b"\n\\udfff row\n" in mask

    @pytest.mark.parametrize(
        "command, prefix",
        [("validate", "error: bad-argument-kind (step 0): "), ("exec", "error: InvalidProgram: ")],
        ids=["validate", "exec"],
    )
    def test_text_the_stdout_encoding_cannot_hold_is_written_escaped(self, command, prefix):
        src = pathlib.Path(finprog.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "ascii"}
        argv = [sys.executable, "-m", "finprog.cli", command, "add(\u00e9, 1)"]
        done = subprocess.run(argv, capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (1, b"")
        message = "add takes numbers, constants, or step references, not '\\xe9'"
        assert done.stdout == f"{prefix}{message}\n".encode("ascii")

    def test_reject_ids_count_physical_lines(self, capsys, tmp_path, sample_path, gold_preds_path):
        records = tmp_path / "records.jsonl"
        records.write_text("\n\n{bad\n" + sample_path.read_text(encoding="utf-8"))
        argv = ["eval", "--records", str(records), "--preds", str(gold_preds_path), "--format", "machine"]
        assert cli_dispatch(argv) == 1
        assert [r["id"] for r in json.loads(capsys.readouterr().out)["rejects"]] == ["line-3"]


class TestExecCommand:
    @pytest.mark.parametrize(
        "program, result", [("subtract(100, 25), divide(#0, 100)", "0.75"), ("divide(9413, const_100)", "94.13")]
    )
    def test_pure_arithmetic(self, capsys, program, result):
        assert cli_dispatch(["exec", program]) == 0
        assert capsys.readouterr().out.strip() == result

    def test_with_record_context(self, capsys, sample_path):
        code = cli_dispatch(
            [
                "exec",
                "table-sum(net sales)",
                "--records", str(sample_path),
                "--id", "bravo/2017/page_45.pdf-0",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "3251"

    def test_one_record_file_needs_no_id(self, capsys, tmp_path, sample_path):
        records = tmp_path / "one.jsonl"
        records.write_text(sample_path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
        assert cli_dispatch(["exec", "table-sum(operating income)", "--records", str(records)]) == 0
        assert capsys.readouterr().out == "2100\n"

    def test_execution_error_exit_one(self, capsys):
        assert cli_dispatch(["exec", "divide(1, 0)"]) == 1

    @pytest.mark.parametrize("length", [29, 31, 50, 100])
    def test_a_long_negative_literal_keeps_every_digit(self, capsys, length):
        digits = ("1234567890" * 10)[:length]
        assert cli_dispatch(["exec", f"add(-{digits}, 0)"]) == 0
        assert capsys.readouterr().out == f"-{digits}\n"
        assert cli_dispatch(["exec", f"multiply(-{digits}.5, const_m1)"]) == 0
        assert capsys.readouterr().out == f"{digits}.5\n"

    @pytest.mark.parametrize(
        "program, message",
        [
            ("add(1, 2),", "unexpected end of program at position 10 (expected operation name)"),
            ("add(1, 2) x", "unexpected token 'x' at position 10 (expected ',' or end of program)"),
            ("multiply(5, const_bogus)", "unknown constant 'const_bogus'"),
        ],
    )
    def test_invalid_program_exit_one(self, capsys, program, message):
        assert cli_dispatch(["exec", program]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"

    def test_result_past_the_int_str_limit_renders(self, capsys):
        assert cli_dispatch(["exec", "exp(15, 4000), divide(#0, 7)"]) == 0
        numerator, denominator = capsys.readouterr().out.strip().split("/")
        assert (Decimal(numerator), denominator) == (15**4000, "7")


class TestValidateCommand:
    @pytest.mark.parametrize(
        "program, record_id", [("greater(5, 3)", None), ("table-sum(net sales)", "bravo/2017/page_45.pdf-0")]
    )
    def test_valid(self, capsys, sample_path, program, record_id):
        context = ["--records", str(sample_path), "--id", record_id] if record_id else []
        assert cli_dispatch(["validate", program, *context]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_diagnostics_exit_one(self, capsys):
        code = cli_dispatch(["validate", "add(a, b)"])
        out = capsys.readouterr().out
        assert code == 1 and "bad-argument-kind" in out

    def test_symbolic_mode(self, capsys):
        assert cli_dispatch(["validate", "add(a, b)", "--symbolic"]) == 0

    @pytest.mark.parametrize(
        "program, record_id",
        [("divide(123456, 2)", "alpha/2019/page_12.pdf-0"), ("add(987654321, 1)", "bravo/2017/page_45.pdf-0")],
    )
    def test_grounding_against_record(self, capsys, sample_path, program, record_id):
        code = cli_dispatch(["validate", program, "--records", str(sample_path), "--id", record_id])
        out = capsys.readouterr().out
        assert code == 1 and "ungrounded-number" in out

    @pytest.mark.parametrize(
        "program, code, status, exec_out",
        [
            ("add(operating incomes, 1)", "bad-argument-kind", 1, "error: InvalidProgram: {}\n"),
            ("add(987654321, 1)", "ungrounded-number", 0, "987654322\n"),
        ],
    )
    def test_exec_and_validate_print_one_message(self, capsys, sample_path, program, code, status, exec_out):
        # exec and validate read each argument by the same evidence rule;
        # only validate grounds a literal in the evidence.
        context = ["--records", str(sample_path), "--id", "alpha/2019/page_12.pdf-0"]
        assert cli_dispatch(["validate", program, *context]) == 1
        first = capsys.readouterr().out.splitlines()[0]
        prefix = f"error: {code} (step 0): "
        assert first.startswith(prefix) and len(first) > len(prefix), first
        assert cli_dispatch(["exec", program, *context]) == status
        assert capsys.readouterr().out == exec_out.format(first[len(prefix):])


class TestStatsCommand:
    def test_table_output(self, capsys, sample_path):
        assert cli_dispatch(["stats", "--records", str(sample_path)]) == 0
        assert "operations" in capsys.readouterr().out

    def test_machine_output(self, capsys, sample_path):
        code = cli_dispatch(["stats", "--records", str(sample_path), "--format", "machine"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["examples"] == 20

    @pytest.mark.parametrize("fmt, golden", [("machine", "stats_sample.json"), ("table", "stats_sample.txt")])
    def test_output_matches_golden_file(self, capsys, sample_path, fmt, golden):
        expected = (pathlib.Path(__file__).parent / "data" / golden).read_text(encoding="utf-8")
        assert cli_dispatch(["stats", "--records", str(sample_path), "--format", fmt]) == 0
        assert capsys.readouterr().out == expected


class TestRetrieveCommand:
    def test_recall_report(self, capsys, sample_path):
        code = cli_dispatch(["retrieve", "--records", str(sample_path), "--k", "3"])
        out = capsys.readouterr().out
        assert code == 0 and "recall@3" in out

    def test_machine_payload(self, capsys, sample_path):
        code = cli_dispatch(
            ["retrieve", "--records", str(sample_path), "--k", "5", "--format", "machine"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["k"] == 5
        assert len(payload["per_record"]) == 20
        assert all(len(entry["fact"]) > 0 for r in payload["rankings"].values() for entry in r)

    def test_machine_output_matches_golden_file(self, capsys, sample_path):
        # Scores are correctly rounded sums, so one file holds on every Python.
        golden = pathlib.Path(__file__).parent / "data" / "retrieve_sample_k5.json"
        code = cli_dispatch(
            ["retrieve", "--records", str(sample_path), "--k", "5", "--format", "machine"]
        )
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_every_score_matches_golden_file(self, capsys, sample_path, sample_records):
        # k = 50 exceeds every sample record's candidate count: all scores are pinned.
        assert max(len(candidate_facts(r)) for r in sample_records) <= 50
        golden = pathlib.Path(__file__).parent / "data" / "retrieve_sample_all.json"
        code = cli_dispatch(
            ["retrieve", "--records", str(sample_path), "--k", "50", "--format", "machine"]
        )
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_is_usage_error(self, capsys, sample_path, k):
        assert cli_dispatch(["retrieve", "--records", str(sample_path), "--k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--k: must be at least 1 and finite, got {k}" in captured.err

    def test_one_index_per_run_of_equal_evidence(self, capsys, monkeypatch, aaba_path):
        import finprog.retrieve
        from finprog.corpus import candidate_facts, load_records
        from finprog.retrieve import build_index, rank, recall_at_k

        fresh_recall, fresh_rankings = [], {}
        for record in load_records(aaba_path).records:
            ranked = rank(record.question, build_index(candidate_facts(record)), 3)
            recall = recall_at_k(ranked, record.gold_fact_ids, 3)
            fresh_recall.append({"id": record.id, "recall": recall})
            fresh_rankings[record.id] = [{"fact": f, "score": score} for f, score in ranked]
        built = []

        def counted(facts):
            built.append(1)
            return build_index(facts)

        monkeypatch.setattr(finprog.retrieve, "build_index", counted)
        code = cli_dispatch(["retrieve", "--records", str(aaba_path), "--format", "machine"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["per_record"] == fresh_recall
        assert payload["rankings"] == fresh_rankings
        assert len(built) == 3


    def test_duplicate_id_is_a_reject(self, capsys, tmp_path, sample_path):
        lines = sample_path.read_text(encoding="utf-8").splitlines()
        again = json.loads(lines[0])
        again["qa"]["question"] = "what was the total of the operating income?"
        path = tmp_path / "records.jsonl"
        path.write_text("\n".join([lines[0], json.dumps(again)]) + "\n", encoding="utf-8")
        assert cli_dispatch(["retrieve", "--records", str(path), "--format", "machine"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in payload["per_record"]] == list(payload["rankings"]) == [again["id"]]

    def test_each_record_lists_its_own_facts(self, capsys, tmp_path, sample_path):
        # Two records share a page; each table line shows the record's own ranking.
        first = json.loads(sample_path.read_text(encoding="utf-8").splitlines()[0])
        twin = dict(first, id="alpha/2019/page_12.pdf-9", qa=dict(first["qa"], question="what was operating income?"))
        records = tmp_path / "twins.jsonl"
        records.write_text(json.dumps(first) + "\n" + json.dumps(twin) + "\n", encoding="utf-8")
        assert cli_dispatch(["retrieve", "--records", str(records)]) == 0
        tops = [line.split("top: ")[1] for line in capsys.readouterr().out.splitlines()[1:]]
        loaded = load_records(records).records
        expected = [", ".join(f for f, _ in rank(r.question, build_index(candidate_facts(r)), 3)) for r in loaded]
        assert tops == expected and tops[0] != tops[1]


class TestLinearizeCommand:
    def test_single_record(self, capsys, sample_path):
        code = cli_dispatch(
            ["linearize", "--records", str(sample_path), "--id", "bravo/2017/page_45.pdf-0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "the net sales of q1 is 1200.5 ;" in out

    def test_unknown_id(self, capsys, sample_path):
        assert cli_dispatch(["linearize", "--records", str(sample_path), "--id", "zz"]) == 2
        assert capsys.readouterr().err == "error: no record with id 'zz'\n"

    @pytest.mark.parametrize("select", [[], ["--id", "alpha/2019/page_12.pdf-0"]])
    def test_rejects_exit_one(self, capsys, sample_path, tmp_path, select):
        first = sample_path.read_text(encoding="utf-8").splitlines()[0]
        clean, with_reject = tmp_path / "clean.jsonl", tmp_path / "with_reject.jsonl"
        clean.write_text(first + "\n", encoding="utf-8")
        with_reject.write_text(first + '\n{"id": "bad"}\n', encoding="utf-8")
        assert cli_dispatch(["linearize", "--records", str(clean), *select]) == 0
        expected = capsys.readouterr()
        assert cli_dispatch(["linearize", "--records", str(with_reject), *select]) == 1
        assert capsys.readouterr() == (expected.out, BAD_REJECT + "\n")
        assert "the " in expected.out and expected.err == ""

    def test_found_record_without_rows(self, capsys, sample_path, tmp_path):
        first = json.loads(sample_path.read_text(encoding="utf-8").splitlines()[0])
        first["table"] = first["table"][:1]
        records = tmp_path / "header_only.jsonl"
        records.write_text(json.dumps(first) + "\n", encoding="utf-8")
        code = cli_dispatch(["linearize", "--records", str(records), "--id", first["id"]])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "\n" and captured.err == ""


class TestMaskCommand:
    def test_start_state(self, capsys):
        code = cli_dispatch(["mask"])
        out = capsys.readouterr().out.split()
        assert code == 0
        assert "add" in out and "table-sum" not in out  # empty context has no rows

    def test_with_context_and_prefix(self, capsys, sample_path):
        code = cli_dispatch(
            [
                "mask",
                "--records", str(sample_path),
                "--id", "bravo/2017/page_45.pdf-0",
                "--prefix", "table-sum (",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "net sales" in out and "gross profit" in out

    @pytest.mark.parametrize(
        "prefix, token, position", [(") (", ")", 0), ("add ( const_1 , const_2 ) (", "(", 6)]
    )
    def test_illegal_prefix(self, capsys, prefix, token, position):
        assert cli_dispatch(["mask", "--prefix", prefix]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"prefix is not mask-legal: token {token!r} at position {position} is not allowed\n"

    @pytest.mark.parametrize("max_steps, out", [("2", "(may stop here)\n,\n"), ("1", "(may stop here)\n")])
    def test_complete_prefix_may_stop(self, capsys, max_steps, out):
        assert cli_dispatch(["mask", "--prefix", "add ( const_1 , const_2 )", "--max-steps", max_steps]) == 0
        assert capsys.readouterr().out == out

    def test_max_steps_past_the_step_cap_is_usage_error(self, capsys):
        assert cli_dispatch(["mask", "--max-steps", str(MAX_PROGRAM_STEPS + 1)]) == 2
        assert f"argument --max-steps: must be at most {MAX_PROGRAM_STEPS}" in capsys.readouterr().err

    @pytest.mark.parametrize("max_steps", ["0", "-1"])
    def test_max_steps_below_one_is_usage_error(self, capsys, max_steps):
        assert cli_dispatch(["mask", "--max-steps", max_steps]) == 2
        captured = capsys.readouterr()
        assert "argument --max-steps: must be at least 1" in captured.err
        assert captured.out == ""


_PROGRAMS = (
    "add(1, 2)", "add(a, b), multiply(#0, c)", "multiply(a, c), multiply(b, c), add(#0, #1)",
    "table-sum(net sales)", "greater(a, b)", "divide(1, 0)", "subtract(a, a), divide(b, #0)",
    "exp(15, 4000), divide(#0, 7)", "add(", "",
)
# Each command's positional arguments and options, and each option's values:
# a pool, where a name in capitals stands for one of the fuzz files.
_ARGS = {
    "validate": (1, ("--records", "--id", "--symbolic")),
    "exec": (1, ("--records", "--id")),
    "equiv": (2, ("--seed",)),
    "eval": (0, ("--records", "--preds", "--abs-tol", "--rel-tol", "--no-gold-rounding", "--percent-insensitive",
                 "--seed", "--out", "--format")),
    "retrieve": (0, ("--records", "--k", "--out", "--format")),
    "stats": (0, ("--records", "--out", "--format")),
    "linearize": (0, ("--records", "--id", "--out")),
    "mask": (0, ("--prefix", "--records", "--id", "--max-steps")),
}
_NUMBERS = ("1", "2", "3", "5", "0", "-1", "129", "4300", "1000000", "9" * 30, "nan", "1e-3", "x")
_POOLS = {
    "--records": ("RECORDS", "RECORDS", "PREDS", "NOT_UTF8", "DIRECTORY", "MISSING", "nul\x00byte"),
    "--preds": ("PREDS", "PREDS", "RECORDS", "NOT_UTF8", "DIRECTORY", "MISSING", "nul\x00byte"),
    "--out": ("OUT", "OUT", "NO_DIR", "DIRECTORY", "nul\x00byte"),
    "--id": ("alpha/2019/page_12.pdf-0", "bravo/2017/page_45.pdf-0", "zz"),
    "--format": ("table", "machine", "json"),
    "--prefix": ("add (", "table-sum (", ") (", "add ( 1 , 2 )", ""),
    "--k": _NUMBERS, "--seed": _NUMBERS, "--max-steps": _NUMBERS,
    "--abs-tol": _NUMBERS, "--rel-tol": _NUMBERS,
}


@st.composite
def _argv(draw, files: dict):
    command = draw(st.sampled_from(tuple(_ARGS)))
    positional, options = _ARGS[command]
    groups = [[draw(st.sampled_from(_PROGRAMS) | st.text(max_size=12))] for _ in range(positional)]
    for option in options:
        if draw(st.integers(0, 7)) >= (1 if option in ("--records", "--preds") else 4):
            groups.append([option])
            if option in _POOLS:
                pool = st.sampled_from(_POOLS[option]).map(lambda value: files.get(value, value))
                groups[-1].append(draw(st.one_of(pool, pool, pool, st.text(max_size=8))))
    if not draw(st.integers(0, 4)):  # now and then a token out of place: a flag, a stray value or noise
        groups.append([draw(st.sampled_from(("-h", "--k", "--bogus")) | st.text(max_size=8))])
    return [command, *[token for group in draw(st.permutations(groups)) for token in group]]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, sample_path):
    """Small record and prediction files, and paths that cannot be read or written, by pool name."""
    root = tmp_path_factory.mktemp("fuzz")
    records = root / "records.jsonl"
    lines = sample_path.read_text(encoding="utf-8").splitlines()[:3]
    records.write_text("\n".join([*lines, "{not json"]) + "\n", encoding="utf-8")
    preds = root / "preds.jsonl"
    rows = [json.loads(line) for line in lines]
    preds.write_text(
        "".join(json.dumps({"id": r["id"], "program": r["qa"]["program"]}) + "\n" for r in rows[:2])
        + json.dumps({"id": rows[2]["id"], "program": "add("}) + "\n",
        encoding="utf-8",
    )
    not_utf8 = root / "not_utf8.jsonl"
    not_utf8.write_bytes(b"\xff\n")
    paths = {
        "RECORDS": records, "PREDS": preds, "NOT_UTF8": not_utf8, "DIRECTORY": root,
        "MISSING": root / "missing.jsonl", "NO_DIR": root / "no_dir" / "out.txt", "OUT": root / "out.txt",
    }
    return root, {name: str(path) for name, path in paths.items()}


class TestArgvFuzz:
    """Any argv over small files ends in the error taxonomy: exit 0, 1 or 2, never a traceback."""

    @settings(
        derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_arbitrary_argv_exits_in_the_taxonomy(self, fuzz_files, data):
        root, paths = fuzz_files
        argv = data.draw(_argv(paths), label="argv")
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # a relative --out lands here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_dispatch(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue() + out.getvalue(), argv
