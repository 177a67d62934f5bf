"""Corpus-level scoring: execution accuracy, program accuracy, breakdowns.

A prediction scores correct on execution when its program parses, runs
without error, and its value matches the stored answer under the tolerance
policy (comparison results compare as yes/no). Missing, unparseable, and
erroring predictions all count incorrect; nothing is skipped, so coverage
cannot be gamed. Per-record verdicts carry machine-readable failure reasons
for error analysis.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Iterable, NamedTuple, Optional

from .corpus import EvidenceRecord, PredictionRecord, SchemaError, source_bucket, steps_bucket
from .dsl import Constant, ProgramError, parse_program
from .equiv import compare_programs
from .executor import ExecutionError, execute, render_value
from .numeric import DEFAULT_TOLERANCE, NotANumber, TolerancePolicy, parse_mantissa, values_equal


def parse_answer(raw) -> bool | Decimal | None:
    """Interpret a stored gold answer: yes/no booleans or a numeric surface.

    Decoration ($, %, commas) is stripped to the written mantissa; the
    original value stays on the record for audit. None means unparseable.
    """
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, (int, float)):
        return Decimal(repr(raw))
    if isinstance(raw, str):
        lowered = raw.strip().lower()
        if lowered in ("yes", "true"):
            return True
        if lowered in ("no", "false"):
            return False
        try:
            return parse_mantissa(raw)
        except NotANumber:
            return None
    return None


class RecordVerdict(NamedTuple):
    id: str
    exe_correct: bool
    prog_correct: bool
    failure: Optional[str]
    predicted_value: Optional[str]

    def to_dict(self) -> dict:
        return self._asdict()  # the fields, in their order


def _predictions_by_id(
    preds: Iterable[PredictionRecord], records: list[EvidenceRecord]
) -> dict[str, Optional[str]]:
    known = {r.id for r in records}
    table: dict[str, Optional[str]] = {}
    for pred in preds:
        if pred.id not in known:
            raise SchemaError(f"prediction id {pred.id!r} matches no record")
        if pred.id in table:
            raise SchemaError(f"prediction id {pred.id!r} appears more than once")
        table[pred.id] = pred.program_text
    return table


def score_record(
    program_text: Optional[str],
    record: EvidenceRecord,
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
    *,
    seed: int = 0,
    strict_grounding: bool = False,
) -> RecordVerdict:
    """Score one prediction for both metrics, with a failure reason."""
    if program_text is None:
        return RecordVerdict(record.id, False, False, "missing", None)
    try:
        program = parse_program(program_text)
    except ProgramError as exc:
        return RecordVerdict(record.id, False, False, f"parse-error: {exc}", None)

    prog_correct = compare_programs(program, record.gold_program, seed=seed).equivalent

    try:
        value = execute(program, record.context(), strict_grounding=strict_grounding)
    except ExecutionError as exc:
        reason = f"exec-error: {type(exc).__name__}"
        return RecordVerdict(record.id, False, prog_correct, reason, None)

    gold = parse_answer(record.gold_answer)
    if gold is None:
        exe_correct = render_value(value).lower() == str(record.gold_answer).strip().lower()
    elif isinstance(gold, bool):
        exe_correct = isinstance(value, bool) and value == gold
    elif isinstance(value, bool):
        exe_correct = False
    else:
        exe_correct = values_equal(value, gold, policy)
    if not exe_correct:
        failure = "value-mismatch"
    elif not prog_correct:
        failure = "not-equivalent"
    else:
        failure = None
    return RecordVerdict(record.id, exe_correct, prog_correct, failure, render_value(value))


class BucketScore(NamedTuple):
    count: int
    execution_accuracy: float
    program_accuracy: float

    def to_dict(self) -> dict:
        return self._asdict()  # the fields, in their order


class EvalReport(NamedTuple):
    """Corpus accuracies plus the standard breakdown dimensions.

    Buckets partition the scored records: by gold fact source (table-only,
    text-only, table-text), by gold program step count (1, 2, >2), and by
    whether the gold program uses constants.
    """

    execution_accuracy: float
    program_accuracy: float
    verdicts: tuple[RecordVerdict, ...]
    by_source: dict
    by_steps: dict
    by_constants: dict
    failure_counts: dict

    def to_dict(self) -> dict:
        return {
            "execution_accuracy": self.execution_accuracy,
            "program_accuracy": self.program_accuracy,
            "by_source": {k: v.to_dict() for k, v in self.by_source.items()},
            "by_steps": {k: v.to_dict() for k, v in self.by_steps.items()},
            "by_constants": {k: v.to_dict() for k, v in self.by_constants.items()},
            "failure_counts": dict(self.failure_counts),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def format_table(self) -> str:
        lines = [
            f"execution accuracy  {100 * self.execution_accuracy:.2f}%",
            f"program accuracy    {100 * self.program_accuracy:.2f}%",
        ]

        def block(title: str, buckets: dict) -> None:
            lines.append(title)
            for name, score in buckets.items():
                lines.append(
                    f"  {name:<12} n={score.count:<6} "
                    f"exe {100 * score.execution_accuracy:6.2f}%  "
                    f"prog {100 * score.program_accuracy:6.2f}%"
                )

        block("by fact source", self.by_source)
        block("by program steps", self.by_steps)
        block("by constants", self.by_constants)
        if self.failure_counts:
            lines.append("failures")
            for reason, count in sorted(self.failure_counts.items()):
                lines.append(f"  {reason:<24} {count}")
        return "\n".join(lines)


def _constants_bucket(record: EvidenceRecord) -> str:
    for step in record.gold_program.steps:
        if any(isinstance(arg, Constant) for arg in step.args):
            return "with"
    return "without"


def _bucket_scores(verdicts, records, classify) -> dict:
    groups: dict[str, list[RecordVerdict]] = {}
    for verdict, record in zip(verdicts, records):
        groups.setdefault(classify(record), []).append(verdict)
    scores = {}
    for name in sorted(groups):
        members = groups[name]
        scores[name] = BucketScore(
            count=len(members),
            execution_accuracy=sum(v.exe_correct for v in members) / len(members),
            program_accuracy=sum(v.prog_correct for v in members) / len(members),
        )
    return scores


def breakdown_report(
    preds: Iterable[PredictionRecord],
    records: list[EvidenceRecord],
    policy: TolerancePolicy = DEFAULT_TOLERANCE,
    *,
    seed: int = 0,
    strict_grounding: bool = False,
) -> EvalReport:
    """Score every record and aggregate; order-independent and idempotent.

    A prediction id that matches no record, or one that appears more than
    once, raises SchemaError.
    """
    by_id = _predictions_by_id(preds, records)
    ordered = sorted(records, key=lambda r: r.id)
    verdicts = tuple(
        score_record(by_id.get(record.id), record, policy, seed=seed, strict_grounding=strict_grounding)
        for record in ordered
    )
    n = len(ordered)
    failure_counts: dict[str, int] = {}
    for verdict in verdicts:
        if verdict.failure:
            reason = verdict.failure.split(":")[0]
            failure_counts[reason] = failure_counts.get(reason, 0) + 1
    return EvalReport(
        execution_accuracy=sum(v.exe_correct for v in verdicts) / n if n else 0.0,
        program_accuracy=sum(v.prog_correct for v in verdicts) / n if n else 0.0,
        verdicts=verdicts,
        by_source=_bucket_scores(verdicts, ordered, source_bucket),
        by_steps=_bucket_scores(verdicts, ordered, steps_bucket),
        by_constants=_bucket_scores(verdicts, ordered, _constants_bucket),
        failure_counts=failure_counts,
    )
