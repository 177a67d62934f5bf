"""What importing the package and running a command load: checked by module set, not by time.

Each check runs in a fresh interpreter and reads the modules that the
statement under test added to ``sys.modules``.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import finprog

SRC = pathlib.Path(finprog.__file__).parents[1]

#: The names ``finprog`` exports, by the module that defines each.
EXPORTS = {
    "context": ["EvidenceContext", "FinTable", "normalize_row_name"],
    "corpus": [
        "EvidenceRecord", "Fact", "FileUnreadable", "LoadResult", "PredictionRecord", "RejectedRecord",
        "SchemaError", "StatsReport", "candidate_facts", "dataset_stats", "linearize_table",
        "load_predictions", "load_records",
    ],
    "decoding": [
        "DecodeState", "IllegalToken", "TokenVocabulary", "advance", "build_vocabulary", "next_token_mask",
        "replay",
    ],
    "dsl": [
        "ALL_OPS", "DEFAULT_CONSTANTS", "MATH_OPS", "TABLE_OPS", "Argument", "ArityError", "Constant",
        "Diagnostic", "ForwardStepRef", "NumberLiteral", "OperationStep", "Program", "ProgramError",
        "ProgramSyntaxError", "RowName", "StepRef", "UnknownOperation", "constant_value", "is_valid",
        "parse_program", "render_program", "validate",
    ],
    "equiv": ["EquivalenceReport", "canonical_texts", "compare_programs"],
    "evaluate": ["EvalReport", "RecordVerdict", "breakdown_report", "parse_answer", "score_record"],
    "executor": [
        "DivisionByZero", "DomainError", "EmptyNumericRow", "ExecutionError", "InvalidProgram", "RowNotFound",
        "Value", "aggregate_row", "execute", "render_value",
    ],
    "numeric": [
        "DEFAULT_TOLERANCE", "NotANumber", "Quantity", "TolerancePolicy", "extract_numbers", "parse_quantity",
        "values_equal",
    ],
    "retrieve": [
        "EmptyCorpus", "NoGoldFacts", "RankedFacts", "SingleOpResult", "TfIdfIndex", "build_index",
        "corpus_recall", "rank", "recall_at_k", "single_op_answer",
    ],
}

#: What reading a record or prediction file never needs.
NOT_FOR_LOADING = [
    "argparse", "dataclasses", "hashlib",
    "finprog.decoding", "finprog.equiv", "finprog.evaluate", "finprog.executor", "finprog.retrieve",
]

#: What executing or validating one program never needs.
NOT_FOR_ONE_PROGRAM = [
    "dataclasses", "hashlib", "finprog.decoding", "finprog.equiv", "finprog.evaluate", "finprog.retrieve",
]


def _imported_by(statement: str) -> tuple[set[str], str]:
    """The modules that ``statement`` adds to a fresh interpreter's ``sys.modules``, and its stdout."""
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "sys.stdout.flush()\n"
        "print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stderr.splitlines()[-1])), done.stdout


def _command(*argv: str) -> str:
    """A statement that runs ``python -m finprog.cli *argv`` and prints its exit status last."""
    return (
        "import runpy\n"
        f"sys.argv = ['finprog', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('finprog.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(f'exit {exc.code}')"
    )


def test_loading_imports_only_what_loading_needs():
    modules, _ = _imported_by("from finprog import load_records, load_predictions")
    assert {"finprog.corpus", "finprog.context", "finprog.dsl", "finprog.numeric"} <= modules
    assert sorted(modules & set(NOT_FOR_LOADING)) == []


def test_importing_the_package_imports_no_module_of_it():
    modules, _ = _imported_by("import finprog")
    assert sorted(m for m in modules if m.startswith("finprog.")) == []


@pytest.mark.parametrize(
    "argv, out",
    [
        (["exec", "add(1, 2)"], "3\nexit 0\n"),
        (["exec", "table-sum(a), divide(#0, 2)"], "error: RowNotFound: no table row matches 'a'\nexit 1\n"),
        (["validate", "add(1, 2)"], "valid\nexit 0\n"),
        (["validate", "add(1, 2"], "invalid: unexpected end of program at position 8 (expected ',' or ')')\nexit 1\n"),
    ],
)
def test_one_program_commands_import_no_checker_scorer_retriever_or_decoder(argv, out):
    modules, stdout = _imported_by(_command(*argv))
    assert stdout == out
    assert sorted(modules & set(NOT_FOR_ONE_PROGRAM)) == []
    assert "finprog.corpus" not in modules  # no record file, so no reader


def test_every_exported_name_resolves():
    names = {name for names in EXPORTS.values() for name in names}
    assert set(finprog.__all__) == names
    assert names | set(EXPORTS) <= set(dir(finprog))
    for module, module_names in EXPORTS.items():
        assert getattr(finprog, module) is importlib.import_module(f"finprog.{module}")
        for name in module_names:
            assert getattr(finprog, name) is getattr(importlib.import_module(f"finprog.{module}"), name)
    star: dict = {}
    exec("from finprog import *", star)
    assert names <= set(star)


def test_a_submodule_resolves_before_it_is_bound(monkeypatch):
    module = importlib.import_module("finprog.retrieve")
    monkeypatch.delattr(finprog, "retrieve")  # as before anything imported it
    assert finprog.retrieve is module


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'finprog' has no attribute 'nonexistent'"):
        finprog.nonexistent  # noqa: B018
    with pytest.raises(ImportError):
        exec("from finprog import nonexistent", {})
