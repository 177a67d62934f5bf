"""Dataset ingestion, table linearization, candidate facts, and corpus stats.

The record file holds one JSON object per line (a whole-file JSON array is
also accepted) with fields ``{id, pre_text[], post_text[], table[][],
qa{question, program, exe_ans, gold_inds}}``; docs/formats.md documents the
format bit-exactly. Malformed records are collected into a rejects report
rather than silently dropped, and legacy spellings (``text_3`` fact ids,
trailing "none" arguments on table operations) are normalized with warnings.
Prediction files are read here too, through the same line reader.
"""

from __future__ import annotations

import json
import math
import re
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .context import EvidenceContext, FinTable
from .dsl import Program, ProgramError, parse_program, validate
from .numeric import oversized_number


class FileUnreadable(Exception):
    pass


class SchemaError(Exception):
    """A file-level format problem; per-record problems become rejects."""


class Fact(NamedTuple):
    """One candidate supporting fact: a text sentence or a linearized row."""

    id: str
    content: str
    source: str  # "text" or "table"


class EvidenceRecord(NamedTuple):
    """One question on one report page, with its gold program, answer and supporting facts."""

    id: str
    pre_text: tuple[str, ...]
    post_text: tuple[str, ...]
    table: FinTable
    question: str
    gold_program: Program
    gold_answer: object
    gold_fact_ids: frozenset[str]
    warnings: tuple[str, ...] = ()

    def context(self) -> EvidenceContext:
        return EvidenceContext.build(self.pre_text + self.post_text, self.table)


class RejectedRecord(NamedTuple):
    id: str
    field_path: str
    reason: str


class LoadResult(NamedTuple):
    records: list[EvidenceRecord]
    rejects: list[RejectedRecord]


class PredictionRecord(NamedTuple):
    """One model output: a program text, or None when marked absent."""

    id: str
    program_text: Optional[str]


def linearize_table(table: FinTable) -> list[str]:
    """One templated sentence per row: "the <row> of <column> is <cell> ; ...".

    Columns whose cell is empty contribute no clause. The output always has
    exactly one entry per table row, even when every clause is omitted.
    """
    sentences = []
    for name, cells in table.rows:
        clauses = [
            f"the {name} of {label} is {cell}"
            for label, cell in zip(table.column_labels, cells)
            if cell.strip()
        ]
        sentences.append(" ; ".join(clauses) + " ;" if clauses else "")
    return sentences


def candidate_facts(record: EvidenceRecord) -> list[Fact]:
    """All supporting-fact candidates in document order.

    Text sentences keep a single running index across pre- and post-table
    text; table rows sit at the table's position with their own row indexes.
    Ids are stable across loads.
    """
    return _facts(record.pre_text, record.table, record.post_text)


def _facts(pre_text: tuple[str, ...], table: FinTable, post_text: tuple[str, ...]) -> list[Fact]:
    facts = [Fact(f"text:{i}", s, "text") for i, s in enumerate(pre_text)]
    facts += [Fact(f"row:{i}", s, "table") for i, s in enumerate(linearize_table(table))]
    offset = len(pre_text)
    facts += [Fact(f"text:{offset + i}", s, "text") for i, s in enumerate(post_text)]
    return facts


_NONE_ARG_RE = re.compile(
    r"(table-(?:sum|average|max|min)\s*\(\s*[^(),]*?)\s*,\s*none\s*\)",
    re.IGNORECASE,
)


def normalize_program_text(text: str) -> tuple[str, list[str]]:
    """Ingestion clean-up for legacy program spellings, with warnings."""
    warnings = []
    cleaned = text.strip()
    replaced = _NONE_ARG_RE.sub(r"\1)", cleaned)
    if replaced != cleaned:
        warnings.append("dropped placeholder 'none' argument from a table operation")
        cleaned = replaced
    return cleaned, warnings


# Exactly the ids _facts gives: no leading zeros, ASCII digits only.
_CANONICAL_ID_RE = re.compile(r"(text|row):(0|[1-9][0-9]*)")
_RELEASE_ID_RE = re.compile(r"(text|table)_([0-9]+)")


def _normalize_content(text: str) -> str:
    text = re.sub(r"\s+", " ", str(text).lower()).strip()
    return text.rstrip(" ;.")


def _map_gold_ind(
    key: str,
    content: Optional[str],
    facts: dict[str, Fact],
    warnings: list[str],
) -> Optional[str]:
    """Map one legacy gold fact id, preferring content verification.

    ``facts`` maps each candidate fact id to its fact, in document order.
    """
    m = _RELEASE_ID_RE.fullmatch(key)
    if m is None:
        return None
    kind, digits = m.group(1), m.group(2).lstrip("0") or "0"
    mapped = None
    # An index with more digits than the fact count names no fact; the length
    # test also keeps int() off an unbounded digit string.
    if len(digits) <= len(str(len(facts))):
        mapped = f"text:{int(digits)}" if kind == "text" else f"row:{int(digits)}"
    if content is not None:
        want = _normalize_content(content)
        got = facts.get(mapped)
        if got is not None and _normalize_content(got.content) == want:
            warnings.append(f"mapped legacy fact id {key!r} to {mapped!r}")
            return mapped
        for f in facts.values():
            if _normalize_content(f.content) == want:
                warnings.append(f"matched legacy fact id {key!r} to {f.id!r} by content")
                return f.id
    if mapped in facts:
        warnings.append(f"mapped legacy fact id {key!r} to {mapped!r}")
        return mapped
    return None


class _BuildError(Exception):
    def __init__(self, field_path: str, reason: str):
        self.field_path = field_path
        self.reason = reason
        super().__init__(f"{field_path}: {reason}")


def _sentences(raw: dict, name: str) -> tuple[str, ...]:
    value = raw.get(name, [])
    if not isinstance(value, list) or any(not isinstance(s, str) for s in value):
        raise _BuildError(name, "must be a list of sentences")
    return tuple(value)


#: A record's evidence as built at load: its pre_text, post_text and table.
_Page = tuple[tuple[str, ...], tuple[str, ...], FinTable]


def _page(raw: dict) -> _Page:
    """Build a record's evidence, or raise _BuildError at its first malformed field."""
    pre_text = _sentences(raw, "pre_text")
    post_text = _sentences(raw, "post_text")
    raw_table = raw.get("table")
    if not isinstance(raw_table, list):
        raise _BuildError("table", "must be a list of rows")
    try:
        table = FinTable.from_rows(raw_table)
    except ValueError as exc:
        raise _BuildError("table", str(exc))
    return pre_text, post_text, table


def _build_record(
    raw, ordinal: int, page_of: Callable[[dict], _Page]
) -> EvidenceRecord | RejectedRecord:
    """Build one record, or reject it at its first malformed field.

    ``page_of`` builds the record's evidence (see ``_page``). The gold program
    is validated without a context: an error (a row name in a math operation)
    rejects the record and a warning (a nonstandard constant) becomes a record
    warning. Its grounding in the evidence is not checked here;
    ``validate(record.gold_program, record.context())`` reports it.
    """
    if not isinstance(raw, dict):
        return RejectedRecord(
            id=f"record-{ordinal}", field_path="", reason="record is not an object"
        )
    record_id = raw.get("id")
    if record_id is None or record_id == "":
        record_id = f"record-{ordinal}"
    elif not isinstance(record_id, str):
        return RejectedRecord(id=f"record-{ordinal}", field_path="id", reason="must be a string")
    try:
        pre_text, post_text, table = page_of(raw)
        qa = raw.get("qa")
        if not isinstance(qa, dict):
            raise _BuildError("qa", "must be an object")
        question = qa.get("question")
        if not isinstance(question, str) or not question.strip():
            raise _BuildError("qa.question", "must be a non-empty string")
        program_text = qa.get("program")
        if not isinstance(program_text, str):
            raise _BuildError("qa.program", "must be a string")
        program_text, warnings = normalize_program_text(program_text)
        try:
            program = parse_program(program_text)
        except ProgramError as exc:
            raise _BuildError("qa.program", str(exc))
        diagnostics = validate(program)
        for diag in diagnostics:
            if diag.severity == "error":
                raise _BuildError("qa.program", diag.message)
        if "exe_ans" not in qa:
            raise _BuildError("qa.exe_ans", "missing")
        # bool is an int: parse_answer reads true and false as yes and no.
        if not isinstance(qa["exe_ans"], (int, float, str)):
            raise _BuildError("qa.exe_ans", "must be a number, a string or a boolean")
        # json reads NaN, Infinity and 1e400 as floats that no answer can equal.
        if isinstance(qa["exe_ans"], float) and not math.isfinite(qa["exe_ans"]):
            raise _BuildError("qa.exe_ans", "must be a finite number")
        # A numeric string must fit a literal's bound, so that no answer stalls the scorer.
        if isinstance(qa["exe_ans"], str) and (reason := oversized_number(qa["exe_ans"])):
            raise _BuildError("qa.exe_ans", reason)
        gold_ids = _gold_ids(qa.get("gold_inds"), pre_text, table, post_text, warnings)
    except _BuildError as exc:
        return RejectedRecord(id=record_id, field_path=exc.field_path, reason=exc.reason)
    warnings.extend(f"gold program: {diag.message}" for diag in diagnostics)
    return EvidenceRecord(
        id=record_id,
        pre_text=pre_text,
        post_text=post_text,
        table=table,
        question=question,
        gold_program=program,
        gold_answer=qa["exe_ans"],
        gold_fact_ids=gold_ids,
        warnings=tuple(warnings),
    )


def _gold_ids(
    raw_inds,
    pre_text: tuple[str, ...],
    table: FinTable,
    post_text: tuple[str, ...],
    warnings: list[str],
) -> frozenset[str]:
    """Resolve gold fact ids against the record's candidate facts.

    A canonical id is checked against the sentence and row counts; the facts
    themselves (which linearize the table) are built only for legacy ids.
    """
    if raw_inds is None:
        raise _BuildError("qa.gold_inds", "missing")
    if isinstance(raw_inds, dict):
        for key, content in raw_inds.items():
            if not isinstance(content, str):
                raise _BuildError("qa.gold_inds", f"content of {key!r} is not a string")
        items: Iterable[tuple[str, Optional[str]]] = raw_inds.items()
    elif isinstance(raw_inds, list):
        items = ((str(k), None) for k in raw_inds)
    else:
        raise _BuildError("qa.gold_inds", "must be a list or an object")
    if not raw_inds:
        raise _BuildError("qa.gold_inds", "must name at least one fact")
    counts = {"text": len(pre_text) + len(post_text), "row": len(table.rows)}
    by_id: Optional[dict[str, Fact]] = None
    ids = set()
    for key, content in items:
        m = _CANONICAL_ID_RE.fullmatch(key)
        if m is not None:
            kind, digits = m.groups()
            count = counts[kind]
            # The length test keeps int() cheap on an absurdly long index.
            exists = len(digits) <= len(str(count)) and int(digits) < count
            mapped = key if exists else None
        else:
            if by_id is None:
                by_id = {f.id: f for f in _facts(pre_text, table, post_text)}
            mapped = _map_gold_ind(key, content, by_id, warnings)
        if mapped is None:
            raise _BuildError(
                "qa.gold_inds", f"{key!r} does not resolve to a candidate fact"
            )
        ids.add(mapped)
    return frozenset(ids)


def _decode(text: str):
    """Decode JSON text, raising ValueError also for nesting past the recursion limit."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def _read(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, or a NUL in the path
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def _json_lines(text: str, invalid: Callable[[int, str], None]) -> Iterator[tuple[int, object]]:
    """(line number, value) for each non-blank line, counted from 1; only "\\n" ends a line.

    A line json cannot decode (malformed, an integer past Python's digit limit,
    nested too deep) goes to ``invalid(line_no, message)``, which raises or records it.
    """
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line and not line.isspace():
            try:
                value = _decode(line)
            except ValueError as exc:
                invalid(line_no, str(exc))
                continue
            yield line_no, value


_NON_BLANK_RE = re.compile(r"\S")


def load_records(path) -> LoadResult:
    """Load and schema-validate a record file.

    Raises FileUnreadable for a file that cannot be read as UTF-8 and
    SchemaError for file-level format problems (an empty file, or an array
    that is not valid JSON). Per-record problems become RejectedRecord entries.

    Adjacent records with equal evidence (several questions on one report
    page, a run of ``page_runs``) share its immutable objects: their
    ``pre_text``, ``post_text`` and ``table`` are the same objects. Every
    record still gets its own parse, checks, warnings and gold ids. No
    evidence context is built: a gold program is not grounded at load.

    Ids are unique among loaded records: a record whose id a loaded record
    already has is rejected at ``id``, and the first keeps it.
    """
    text = _read(path)
    first = _NON_BLANK_RE.search(text)
    if first is None:
        raise SchemaError(f"{path} is empty")

    # Kept apart so that invalid-JSON rejects come first, ahead of build rejects.
    invalid_json: list[RejectedRecord] = []
    items: Iterable[tuple[int, object]]
    if text.startswith("[", first.start()):
        try:
            parsed = _decode(text.strip())
        except ValueError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}")
        items = enumerate(parsed)  # JSON text that starts with "[" is an array
    else:
        items = _json_lines(
            text, lambda n, msg: invalid_json.append(RejectedRecord(f"line-{n}", "", f"invalid JSON: {msg}"))
        )

    # The last page whose evidence built: its raw evidence and what was built
    # from it. Rejected evidence never enters, so the slot holds only lists of
    # strings; raw evidence equal to it is equal string for string (no
    # 1 == True == 1.0) and builds equal objects, so the next record reuses them.
    last_raw, last_page = None, None

    def page_of(raw: dict) -> _Page:
        nonlocal last_raw, last_page
        evidence = (raw.get("pre_text", []), raw.get("post_text", []), raw.get("table"))
        if evidence != last_raw:
            last_page = _page(raw)
            last_raw = evidence
        return last_page

    records: list[EvidenceRecord] = []
    rejects: list[RejectedRecord] = []
    loaded_ids: set[str] = set()
    for ordinal, raw in items:
        built = _build_record(raw, ordinal, page_of)
        if isinstance(built, EvidenceRecord) and built.id in loaded_ids:
            built = RejectedRecord(id=built.id, field_path="id", reason="duplicate of an earlier record's id")
        if isinstance(built, EvidenceRecord):
            records.append(built)
            loaded_ids.add(built.id)
        else:
            rejects.append(built)
    return LoadResult(records=records, rejects=invalid_json + rejects)


def page_runs(records: Iterable[EvidenceRecord]) -> Iterator[list[EvidenceRecord]]:
    """Each run of adjacent records with equal evidence, in order: one report page's questions.

    Evidence is ``(pre_text, post_text, table)``; records that ``load_records``
    built from one page hold the same objects, so each comparison is cheap.
    """
    for _, run in groupby(records, attrgetter("pre_text", "post_text", "table")):
        yield list(run)


def load_predictions(path) -> list[PredictionRecord]:
    """Read a prediction file: one JSON object {"id", "program"} per line."""

    def invalid(line_no: int, message: str) -> None:
        raise SchemaError(f"{path}:{line_no} is not valid JSON: {message}")

    predictions = []
    for line_no, raw in _json_lines(_read(path), invalid):
        if not isinstance(raw, dict) or "id" not in raw:
            raise SchemaError(f"{path}:{line_no} must be an object with an id")
        if not isinstance(raw["id"], str):
            raise SchemaError(f"{path}:{line_no} id must be a string")
        program = raw.get("program")
        if program is not None and not isinstance(program, str):
            raise SchemaError(f"{path}:{line_no} program must be a string or null")
        predictions.append(PredictionRecord(id=raw["id"], program_text=program))
    return predictions


def _tokens(text: str) -> int:
    return len(text.split())


_PAGE_SUFFIX_RE = re.compile(r"-[0-9]+$")


class StatsReport(NamedTuple):
    """Corpus-level statistics in the shape of the dataset's summary table."""

    examples: int
    report_pages: int
    vocabulary: int
    avg_text_sentences: float
    avg_text_tokens: float
    avg_table_rows: float
    avg_table_tokens: float
    avg_input_tokens: float
    max_input_tokens: int
    avg_question_tokens: float
    source_pct: dict
    fact_count_pct: dict
    fact_distance_pct: dict
    op_pct: dict
    step_pct: dict

    def to_dict(self) -> dict:
        return self._asdict()  # the fields, in their order; the inner dicts are the report's own

    def format_table(self) -> str:
        lines = [
            f"examples                 {self.examples}",
            f"report pages             {self.report_pages}",
            f"vocabulary               {self.vocabulary}",
            f"avg sentences in text    {self.avg_text_sentences:.2f}",
            f"avg tokens in text       {self.avg_text_tokens:.2f}",
            f"avg rows in table        {self.avg_table_rows:.2f}",
            f"avg tokens in table      {self.avg_table_tokens:.2f}",
            f"avg tokens in all inputs {self.avg_input_tokens:.2f}",
            f"max tokens in all inputs {self.max_input_tokens}",
            f"avg question length      {self.avg_question_tokens:.2f}",
        ]

        def block(title: str, pct: dict) -> None:
            lines.append(title)
            for key, value in pct.items():
                lines.append(f"  {key:<12} {value:.2f}%")

        block("fact sources", self.source_pct)
        block("fact counts", self.fact_count_pct)
        block("fact distances (2+ facts)", self.fact_distance_pct)
        block("operations", self.op_pct)
        block("program steps", self.step_pct)
        return "\n".join(lines)


def source_bucket(record: EvidenceRecord) -> str:
    """Where the gold facts come from: text-only, table-only or table-text."""
    sources = {fact_id.split(":")[0] for fact_id in record.gold_fact_ids}
    if sources == {"text"}:
        return "text-only"
    if sources == {"row"}:
        return "table-only"
    return "table-text"


def _count_bucket(count: int) -> str:
    return str(count) if count <= 2 else ">2"


def steps_bucket(record: EvidenceRecord) -> str:
    """The gold program's step count: "1", "2" or ">2"."""
    return _count_bucket(len(record.gold_program.steps))


def _fact_position(record: EvidenceRecord, fact_id: str) -> int:
    """The index of a fact id in ``candidate_facts(record)``, from counts alone."""
    kind, index = fact_id.split(":")
    k = int(index)
    if kind == "row":
        return len(record.pre_text) + k
    return k if k < len(record.pre_text) else k + len(record.table.rows)


def _pct(counts: dict, total: int) -> dict:
    if total == 0:
        return {k: 0.0 for k in counts}
    return {k: 100.0 * v / total for k, v in counts.items()}


def dataset_stats(records: list[EvidenceRecord]) -> StatsReport:
    """Counts, averages, and distributions over a loaded corpus.

    Token counts use whitespace tokenization; one table row counts as one
    "sentence" for fact distances, which are measured over the candidate-fact
    ordering. The texts of each ``page_runs`` run (one report page) are
    counted once, and their counts weigh once per question.
    """
    if not records:
        raise ValueError("need at least one record")

    n = len(records)
    pages = {_PAGE_SUFFIX_RE.sub("", r.id) for r in records}
    vocabulary: set[str] = set()
    text_sentences = text_tokens = table_rows = table_tokens = 0
    max_input_tokens = 0
    question_tokens = 0
    source_counts = {"text-only": 0, "table-only": 0, "table-text": 0}
    fact_count_counts = {"1": 0, "2": 0, ">2": 0}
    fact_distance_counts = {"<=3": 0, "4-6": 0, ">6": 0}
    multi_fact_records = 0
    op_counts: dict[str, int] = {}
    total_steps = 0
    step_counts = {"1": 0, "2": 0, ">2": 0}

    for run in page_runs(records):
        page = run[0]
        sentences = page.pre_text + page.post_text
        page_text_tokens = sum(_tokens(s) for s in sentences)
        rows = page.table.rows
        table_texts = [*page.table.header, *(name for name, _ in rows)]
        table_texts += (cell for _, cells in rows for cell in cells)
        page_table_tokens = sum(_tokens(text) for text in table_texts)
        for text in (*sentences, *table_texts):
            vocabulary.update(text.lower().split())

        questions = len(run)
        text_sentences += questions * len(sentences)
        text_tokens += questions * page_text_tokens
        table_rows += questions * len(rows)
        table_tokens += questions * page_table_tokens
        max_input_tokens = max(max_input_tokens, page_text_tokens + page_table_tokens)

    for record in records:
        question_tokens += _tokens(record.question)
        source_counts[source_bucket(record)] += 1

        count = len(record.gold_fact_ids)
        if count:
            fact_count_counts[_count_bucket(count)] += 1
        if count >= 2:
            multi_fact_records += 1
            spots = sorted(_fact_position(record, fid) for fid in record.gold_fact_ids)
            distance = spots[-1] - spots[0]
            if distance <= 3:
                fact_distance_counts["<=3"] += 1
            elif distance <= 6:
                fact_distance_counts["4-6"] += 1
            else:
                fact_distance_counts[">6"] += 1

        total_steps += len(record.gold_program.steps)
        step_counts[steps_bucket(record)] += 1
        for step in record.gold_program.steps:
            op_counts[step.op] = op_counts.get(step.op, 0) + 1

    return StatsReport(
        examples=n,
        report_pages=len(pages),
        vocabulary=len(vocabulary),
        avg_text_sentences=text_sentences / n,
        avg_text_tokens=text_tokens / n,
        avg_table_rows=table_rows / n,
        avg_table_tokens=table_tokens / n,
        avg_input_tokens=(text_tokens + table_tokens) / n,
        max_input_tokens=max_input_tokens,
        avg_question_tokens=question_tokens / n,
        source_pct=_pct(source_counts, n),
        fact_count_pct=_pct(fact_count_counts, n),
        fact_distance_pct=_pct(fact_distance_counts, multi_fact_records),
        op_pct=_pct(op_counts, total_steps),
        step_pct=_pct(step_counts, n),
    )
