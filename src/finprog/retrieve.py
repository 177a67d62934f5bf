"""TF-IDF fact retrieval, recall@k, and the retrieve-then-divide baseline.

The weighting is the common smoothed variant: raw term counts scaled by
idf = ln((1+N)/(1+df)) + 1, L2-normalized, cosine-scored. A token is a run
of ASCII ``[a-z0-9]`` in ``str.lower()`` of the text; every other character,
``é``, ``ß`` and other non-ASCII letters and digits included, ends a token.
Numbers are kept as tokens.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .corpus import EvidenceRecord, Fact, candidate_facts
from .dsl import ProgramError, parse_program
from .executor import ExecutionError, Value, execute
from .numeric import first_mantissa, format_decimal

#: Keeps the bytes of ``[a-z0-9]`` and blanks every other byte.
_BLANK_NON_TOKEN = bytes(
    b if chr(b) in "abcdefghijklmnopqrstuvwxyz0123456789" else ord(" ") for b in range(256)
)

#: Ranked retrieval output: (fact id, score) with scores non-increasing.
RankedFacts = list[tuple[str, float]]


def tokenize(text: str) -> list[str]:
    """The ``[a-z0-9]`` runs of the lowered text, by one byte-table pass.

    Every UTF-8 byte of a non-ASCII character, a lone surrogate's included
    (``surrogatepass``), is 0x80 or above, so the table blanks it.
    """
    return text.lower().encode("utf-8", "surrogatepass").translate(_BLANK_NON_TOKEN).decode().split()


class EmptyCorpus(ValueError):
    pass


class NoGoldFacts(ValueError):
    pass


class TfIdfIndex(NamedTuple):
    """An index over one fact collection; queries do not mutate it.

    ``facts`` keeps the insertion order, which is the tie-break order for
    equal scores; build from facts in document order. ``postings`` maps each
    term to ``{fact position: raw count}`` for the facts that hold it, in
    position order, so a term's document frequency is the size of its
    postings. ``norms`` holds each fact's L2 norm under idf weighting. A
    fact's unit weight for a term, ``count * idf / norm``, is computed at
    query time, and only for the facts that the query's terms reach. A query
    gathers the products of its weights and a fact's in one list per fact
    and scores the fact with ``fsum`` of that list.
    """

    facts: tuple[Fact, ...]
    idf: dict[str, float]
    postings: dict[str, dict[int, int]]
    norms: tuple[float, ...]


def _norm(counts: dict[str, int], idf: dict) -> float:
    """L2 norm of the counts weighted by idf; ``0.0`` for empty counts.

    ``fsum`` rounds the exact sum of the squared weights once, so the norm's
    bits are the same on any Python and in any token order.
    """
    return math.sqrt(math.fsum([(w := c * idf[t]) * w for t, c in counts.items()]))


def build_index(facts: Iterable[Fact]) -> TfIdfIndex:
    """Index a fact collection; raises EmptyCorpus when there are no facts."""
    fact_list = list(facts)
    if not fact_list:
        raise EmptyCorpus("no facts to index")
    postings: dict[str, dict[int, int]] = {}
    for position, fact in enumerate(fact_list):
        for token in tokenize(fact.content):
            if (posting := postings.get(token)) is None:
                postings[token] = {position: 1}
            else:
                posting[position] = posting.get(position, 0) + 1
    n = len(fact_list)
    by_df = [math.log((1 + n) / (1 + d)) + 1.0 for d in range(n + 1)]
    idf: dict[str, float] = {}
    squares: list[list[float]] = [[] for _ in fact_list]
    for term, posting in postings.items():
        t_idf = idf[term] = by_df[len(posting)]
        t_square = t_idf * t_idf
        for position, c in posting.items():
            squares[position].append(t_square if c == 1 else (w := c * t_idf) * w)
    # The squares of each fact's weights, as ``_norm`` forms them (a count of
    # 1 gives the same float); fsum's one rounding makes the order in which
    # they were gathered irrelevant.
    norms = tuple(map(math.sqrt, map(math.fsum, squares)))
    return TfIdfIndex(facts=tuple(fact_list), idf=idf, postings=postings, norms=norms)


def _top(question: str, index: TfIdfIndex, k: int) -> list[tuple[int, float]]:
    """(position, score) of the top-k facts by cosine; ties by position.

    A question with no indexed term scores every fact ``0`` (an int); a fact
    that no query term reaches scores ``0.0``.
    """
    idf = index.idf
    counts: dict[str, int] = {}
    for term in tokenize(question):
        if term in idf:
            counts[term] = counts.get(term, 0) + 1
    if counts:
        norm = _norm(counts, idf)
        norms = index.norms
        products: list[list[float]] = [[] for _ in norms]
        for term, q_count in counts.items():
            t_idf = idf[term]
            w = q_count * t_idf / norm
            for position, c in index.postings[term].items():
                products[position].append(w * (c * t_idf / norms[position]))
        # fsum rounds the exact sum of a fact's shared-term products once,
        # whatever their order, and gives 0.0 for a fact no term reaches.
        scores = list(map(math.fsum, products))
    else:
        scores = [0] * len(index.facts)
    # A stable sort keeps equal scores in position order, also in reverse.
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return [(p, scores[p]) for p in order[: max(k, 0)]]


def rank(question: str, index: TfIdfIndex, k: int) -> RankedFacts:
    """Top-k facts by cosine similarity; ties break by document order."""
    facts = index.facts
    return [(facts[p].id, score) for p, score in _top(question, index, k)]


def recall_at_k(ranked: RankedFacts, gold_ids: frozenset, k: int) -> float:
    """|gold among the top k| / |gold|. Raises NoGoldFacts on empty gold."""
    if not gold_ids:
        raise NoGoldFacts("the record has no gold facts")
    top = {fact_id for fact_id, _ in ranked[: max(k, 0)]}
    return len(top & set(gold_ids)) / len(gold_ids)


def ranked_recall(
    records: Iterable[EvidenceRecord], k: int
) -> tuple[float, list[tuple[str, float, RankedFacts]]]:
    """Mean per-record recall@k, with each record's id, recall and top-k facts.

    Adjacent records with equal evidence (several questions on one report
    page) are ranked against one index, built for the first of them.
    """
    per_record = []
    indexed = index = None
    for record in records:
        evidence = (record.pre_text, record.table, record.post_text)
        if evidence != indexed:
            indexed, index = evidence, build_index(candidate_facts(record))
        ranked = rank(record.question, index, k)
        per_record.append((record.id, recall_at_k(ranked, record.gold_fact_ids, k), ranked))
    if not per_record:
        raise EmptyCorpus("no records to evaluate")
    mean = sum(r for _, r, _ in per_record) / len(per_record)
    return mean, per_record


def corpus_recall(records: Iterable[EvidenceRecord], k: int) -> tuple[float, list[tuple[str, float]]]:
    """Mean per-record recall@k, with the per-record values."""
    mean, per_record = ranked_recall(records, k)
    return mean, [(record_id, recall) for record_id, recall, _ in per_record]


class SingleOpResult(NamedTuple):
    """The baseline's emitted program, and its value or failure reason."""

    program_text: str
    value: Optional[Value]
    error: Optional[str]


def single_op_answer(
    record: EvidenceRecord, index: Optional[TfIdfIndex] = None
) -> SingleOpResult:
    """Retrieve the top two facts and divide their first numbers.

    When a retrieved fact has no number the program is emitted with whatever
    numbers exist and fails execution, scoring incorrect; the baseline never
    raises. A given ``index`` supplies the facts, so it must be built from
    ``candidate_facts(record)``.
    """
    if index is None:
        index = build_index(candidate_facts(record))
    operands = []
    for position, _ in _top(record.question, index, 2):
        first = first_mantissa(index.facts[position].content)
        if first is not None:
            operands.append(format_decimal(first))
    program_text = f"divide({', '.join(operands)})"
    try:
        program = parse_program(program_text)
        value = execute(program)
    except (ProgramError, ExecutionError) as exc:
        return SingleOpResult(program_text=program_text, value=None, error=str(exc))
    return SingleOpResult(program_text=program_text, value=value, error=None)
