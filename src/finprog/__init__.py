"""Toolchain for numerical reasoning programs over financial-report evidence.

Parse, validate, and execute ten-operation reasoning programs; decide
mathematical equivalence of argument-symbolized programs; ingest record
files; linearize tables into sentences; run TF-IDF retrieval with recall@k;
and score predictions for execution and program accuracy.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it. A name is imported from its
# module when it is first read, so ``from finprog import load_records`` loads
# only the modules that loading needs (PEP 562).
_EXPORTS = {
    "context": ("EvidenceContext", "FinTable", "normalize_row_name"),
    "corpus": (
        "EvidenceRecord", "Fact", "FileUnreadable", "LoadResult", "PredictionRecord", "RejectedRecord",
        "SchemaError", "StatsReport", "candidate_facts", "dataset_stats", "linearize_table",
        "load_predictions", "load_records",
    ),
    "decoding": (
        "DecodeState", "IllegalToken", "TokenVocabulary", "advance", "build_vocabulary", "next_token_mask",
        "replay",
    ),
    "dsl": (
        "ALL_OPS", "DEFAULT_CONSTANTS", "MATH_OPS", "TABLE_OPS", "Argument", "ArityError", "Constant",
        "Diagnostic", "ForwardStepRef", "NumberLiteral", "OperationStep", "Program", "ProgramError",
        "ProgramSyntaxError", "RowName", "StepRef", "UnknownOperation", "constant_value", "is_valid",
        "parse_program", "render_program", "validate",
    ),
    "equiv": ("EquivalenceReport", "canonical_texts", "compare_programs"),
    "evaluate": ("EvalReport", "RecordVerdict", "breakdown_report", "parse_answer", "score_record"),
    "executor": (
        "DivisionByZero", "DomainError", "EmptyNumericRow", "ExecutionError", "InvalidProgram", "RowNotFound",
        "Value", "aggregate_row", "execute", "render_value",
    ),
    "numeric": (
        "DEFAULT_TOLERANCE", "NotANumber", "Quantity", "TolerancePolicy", "extract_numbers", "parse_quantity",
        "values_equal",
    ),
    "retrieve": (
        "EmptyCorpus", "NoGoldFacts", "RankedFacts", "SingleOpResult", "TfIdfIndex", "build_index",
        "corpus_recall", "rank", "recall_at_k", "single_op_answer",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import an exported name, or a submodule, when it is first read."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
