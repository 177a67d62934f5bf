"""Toolchain for numerical reasoning programs over financial-report evidence.

Parse, validate, and execute ten-operation reasoning programs; decide
mathematical equivalence of argument-symbolized programs; ingest record
files; linearize tables into sentences; run TF-IDF retrieval with recall@k;
and score predictions for execution and program accuracy.
"""

from .context import EvidenceContext, FinTable, normalize_row_name
from .corpus import (
    EvidenceRecord,
    Fact,
    FileUnreadable,
    LoadResult,
    PredictionRecord,
    RejectedRecord,
    SchemaError,
    StatsReport,
    candidate_facts,
    dataset_stats,
    linearize_table,
    load_predictions,
    load_records,
)
from .decoding import (
    DecodeState,
    IllegalToken,
    TokenVocabulary,
    advance,
    build_vocabulary,
    next_token_mask,
    replay,
)
from .dsl import (
    ALL_OPS,
    DEFAULT_CONSTANTS,
    MATH_OPS,
    TABLE_OPS,
    Argument,
    ArityError,
    Constant,
    Diagnostic,
    ForwardStepRef,
    NumberLiteral,
    OperationStep,
    Program,
    ProgramError,
    ProgramSyntaxError,
    RowName,
    StepRef,
    UnknownOperation,
    constant_value,
    is_valid,
    parse_program,
    render_program,
    validate,
)
from .equiv import (
    EquivalenceReport,
    canonical_texts,
    compare_programs,
)
from .evaluate import (
    EvalReport,
    RecordVerdict,
    UnknownRecordId,
    breakdown_report,
    parse_answer,
    score_record,
)
from .executor import (
    DivisionByZero,
    DomainError,
    EmptyNumericRow,
    ExecutionError,
    InvalidProgram,
    RowNotFound,
    UngroundedNumber,
    Value,
    aggregate_row,
    execute,
    render_value,
)
from .numeric import (
    DEFAULT_TOLERANCE,
    NotANumber,
    Quantity,
    TolerancePolicy,
    extract_numbers,
    parse_quantity,
    values_equal,
)
from .retrieve import (
    EmptyCorpus,
    NoGoldFacts,
    RankedFacts,
    SingleOpResult,
    TfIdfIndex,
    build_index,
    corpus_recall,
    rank,
    recall_at_k,
    single_op_answer,
)

__version__ = "0.1.0"
