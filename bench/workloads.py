"""Seeded workload generation with oracle-settled expectations.

Every input file is a pure function of (workload, seed, size): the same
arguments give byte-identical record and prediction files. Records come in
page groups of 1-3 questions sharing one page-sized evidence block (tens of
sentences, several table rows), built by combining the small contexts of
``tests/generators.py``, so no record repeats and per-evidence state is
shared the way the release shares it across ``...pdf-0/-1/-2`` ids.

Expected verdicts come only from the independent oracles in
``tests/generators.py`` (``naive_execute``, ``oracle_equivalent``) plus this
file's own exact-arithmetic value test; a generated prediction whose verdict
those do not settle clearly is discarded and drawn again.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from random import Random

from finprog.context import EvidenceContext, FinTable
from finprog.dsl import (
    Constant,
    NumberLiteral,
    OperationStep,
    Program,
    RowName,
    StepRef,
    TABLE_OPS,
    parse_program,
    render_program,
)
from finprog.numeric import extract_numbers

from generators import (
    generically_evaluable,
    mutate_breaking,
    mutate_preserving,
    naive_execute,
    oracle_equivalent,
    random_context,
    random_number_text,
    random_program,
    reorder_independent_steps,
)

WORKLOADS = ("eval-canonical", "eval-rewrite", "retrieve")

#: Records per workload file at full size.
SIZES = {"eval-canonical": 2000, "eval-rewrite": 1000, "retrieve": 1200}

#: Gold program lengths: step count -> weight. The weights are the step counts
#: of the 20 gold programs in tests/data/sample_records.jsonl, the only
#: program-length figures in the repository.
STEP_COUNTS = {1: 14, 2: 4, 3: 1, 4: 1}

#: Prediction classes and their exact shares of each eval workload's records.
#: No source gives the class mix of real predictions: these shares are design
#: choices that send each workload down its equivalence paths (see
#: README.md), not measured traffic.
CLASS_SHARES = {
    "eval-canonical": {
        "gold": 0.30,
        "reordered": 0.25,
        "wrong": 0.22,
        "wrong-type": 0.03,
        "malformed": 0.10,
        "missing": 0.10,
    },
    "eval-rewrite": {"rewrite": 0.93, "broken-rewrite": 0.05, "degenerate": 0.02},
    "retrieve": {},
}

_COMPANIES = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel")
_QUESTION_SHAPES = (
    "what was the change in {words} ?",
    "what is the ratio of {words} ?",
    "what portion of {words} was reported ?",
    "what was the total {words} ?",
    "how much did {words} grow ?",
)
_WORD_RE = re.compile(r"[a-z]{3,}")
_MAX_VALUE = Fraction(10**12)


@dataclass(frozen=True)
class Expected:
    """The oracle's verdict for one record: both metrics and the failure class.

    ``failure`` uses the scorer's vocabulary with parse errors reduced to
    ``"parse-error"``; ``equivalent`` is the oracle's equivalence verdict, or
    None when no decision is made (missing or unparseable prediction).
    """

    exe_correct: bool
    prog_correct: bool
    failure: str | None
    equivalent: bool | None
    kind: str


@dataclass
class Workload:
    name: str
    seed: int
    records: list = field(default_factory=list)  # raw record dicts
    predictions: list = field(default_factory=list)  # raw prediction dicts
    expected: dict = field(default_factory=dict)  # record id -> Expected
    pages: int = 0

    def records_bytes(self) -> bytes:
        return "".join(json.dumps(r) + "\n" for r in self.records).encode()

    def predictions_bytes(self) -> bytes:
        return "".join(json.dumps(p) + "\n" for p in self.predictions).encode()


# ---------------------------------------------------------------------------
# evidence pages


def _fit_cells(rng: Random, cells: tuple, width: int) -> list[str]:
    cells = list(cells[:width])
    while len(cells) < width:
        cells.append(random_number_text(rng))
    return cells


def _page(rng: Random) -> tuple[list[str], list[str], list[list[str]]]:
    """Pre-text, post-text and a table grid sized like one report page."""
    contexts = [random_context(rng) for _ in range(rng.randint(7, 12))]
    sentences = [s for ctx in contexts for s in ctx.text_sentences]
    header = list(contexts[0].table.header)
    width = len(header) - 1
    rows, seen = [], set()
    for ctx in contexts:
        for name, cells in ctx.table.rows:
            key = _WORD_RE.findall(name.lower())
            if tuple(key) in seen:
                continue
            seen.add(tuple(key))
            rows.append([name] + _fit_cells(rng, cells, width))
    rows = rows[: rng.randint(4, 8)]
    split = rng.randint(len(sentences) // 3, (2 * len(sentences)) // 3)
    return sentences[:split], sentences[split:], [header] + rows


def _context(pre: list[str], post: list[str], grid: list[list[str]]) -> EvidenceContext:
    return EvidenceContext.build(pre + post, FinTable.from_rows(grid))


# ---------------------------------------------------------------------------
# values, answers and facts


def _exe_answer(value) -> object:
    """The stored answer: yes/no, or the value written to at most 5 places."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    written = (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
        Decimal("0.00001"), rounding=ROUND_HALF_UP
    )
    text = format(written.normalize(), "f")
    number = float(text)
    return number if Decimal(repr(number)) == Decimal(text) else text


def _answer_value(answer) -> object:
    if answer in ("yes", "no"):
        return answer == "yes"
    return Fraction(Decimal(str(answer)))


def _clearly_different(value, answer) -> bool:
    """True when no tolerance clause of the scorer could match the two.

    The scorer's widest default clause accepts rounding the value to the
    answer's written places; a gap above max(1, 1% of the larger magnitude)
    survives any such rounding.
    """
    if isinstance(value, bool) or isinstance(answer, bool):
        return isinstance(value, bool) != isinstance(answer, bool) or value != answer
    gap = abs(value - answer)
    return gap > max(Fraction(1), max(abs(value), abs(answer)) / 100)


def _sane(value) -> bool:
    if isinstance(value, bool):
        return True
    return abs(value) <= _MAX_VALUE and value.denominator.bit_length() <= 64


@dataclass
class _Page:
    """One evidence block and the exact values each of its facts holds."""

    pre: list[str]
    post: list[str]
    grid: list[list[str]]

    def __post_init__(self) -> None:
        self.ctx = _context(self.pre, self.post, self.grid)
        self.literals = [Decimal(t) for t in self.ctx.number_tokens()] or [Decimal(1)]
        self.sentence_values = [
            {Fraction(q.mantissa) for q in quantities}
            for quantities in self.ctx.sentence_quantities
        ]
        self.row_values = [
            {Fraction(q.mantissa) for cell in cells for q in extract_numbers(cell)}
            for _, cells in self.ctx.table.rows
        ]

    def gold_facts(self, program: Program) -> list[str]:
        """Fact ids holding the program's literals and rows."""
        wanted = set()
        rows = set()
        for step in program.steps:
            for arg in step.args:
                if isinstance(arg, NumberLiteral):
                    wanted.add(Fraction(arg.value))
                elif isinstance(arg, RowName) and step.op in TABLE_OPS:
                    index = self.ctx.table.find_row(arg.name)
                    if index is not None:
                        rows.add(index)
        ids = []
        for i, values in enumerate(self.sentence_values):
            if values & wanted:
                ids.append(f"text:{i}")
                wanted -= values
        for i, values in enumerate(self.row_values):
            if i in rows or values & wanted:
                ids.append(f"row:{i}")
                wanted -= values
        return ids

    def question(self, rng: Random, fact_ids: list[str]) -> str:
        texts = []
        for fid in fact_ids:
            kind, index = fid.split(":")
            if kind == "text":
                texts.append((self.pre + self.post)[int(index)])
            else:
                texts.append(self.grid[int(index) + 1][0])
        words = sorted({w for t in texts for w in _WORD_RE.findall(t.lower())})
        picked = rng.sample(words, min(len(words), rng.randint(2, 3))) if words else ["revenue"]
        return rng.choice(_QUESTION_SHAPES).format(words=" and ".join(picked))


# ---------------------------------------------------------------------------
# program trees, used to write algebraic rewrites of a gold program


def _to_tree(program: Program):
    def build(index: int):
        step = program.steps[index]
        if step.op in TABLE_OPS:
            return ("table", step.op, step.args[0])
        children = tuple(
            build(a.index) if isinstance(a, StepRef) else ("arg", a) for a in step.args
        )
        return (step.op,) + children

    return build(len(program.steps) - 1)


def _from_tree(tree) -> Program:
    steps: list[OperationStep] = []
    emitted: dict = {}

    def emit(node):
        if node[0] == "arg":
            return node[1]
        if node in emitted:
            return StepRef(emitted[node])
        if node[0] == "table":
            step = OperationStep(op=node[1], args=(node[2],))
        else:
            step = OperationStep(op=node[0], args=tuple(emit(c) for c in node[1:]))
        steps.append(step)
        emitted[node] = len(steps) - 1
        return StepRef(emitted[node])

    emit(tree)
    return Program(steps=tuple(steps))


_SUMS = ("add", "subtract")


def _rewrites(node) -> list:
    """Distributive rewrites of this node that normalization leaves apart."""
    if node[0] in ("arg", "table"):
        return []
    op, left, right = node
    found = []
    if op == "multiply" and left[0] in _SUMS:
        found.append((left[0], ("multiply", left[1], right), ("multiply", left[2], right)))
    if op == "multiply" and right[0] in _SUMS:
        found.append((right[0], ("multiply", left, right[1]), ("multiply", left, right[2])))
    if op == "divide" and left[0] in _SUMS:
        found.append((left[0], ("divide", left[1], right), ("divide", left[2], right)))
    if op in _SUMS and left[0] == right[0] == "multiply" and left[2] == right[2]:
        found.append(("multiply", (op, left[1], right[1]), left[2]))
    if op in _SUMS and left[0] == right[0] == "divide" and left[2] == right[2]:
        found.append(("divide", (op, left[1], right[1]), left[2]))
    return found


def _rewrite_sites(tree, path=()):
    sites = [(path, r) for r in _rewrites(tree)]
    if tree[0] not in ("arg", "table"):
        for i, child in enumerate(tree[1:], start=1):
            sites += _rewrite_sites(child, path + (i,))
    return sites


def _replace(tree, path, new):
    if not path:
        return new
    i = path[0]
    return tree[:i] + (_replace(tree[i], path[1:], new),) + tree[i + 1 :]


def _break(rewritten):
    """Drop one factor from a distributed term: (a+b)c -> ac + b."""
    op, first, second = rewritten
    if second[0] in ("multiply", "divide"):
        return (op, first, second[1])
    return (op, first, ("add", second, second))


# ---------------------------------------------------------------------------
# generation


class _Generator:
    def __init__(self, name: str, seed: int):
        self.rng = Random(f"finprog-bench:{name}:{seed}")

    def steps(self) -> int:
        """A gold program length drawn from STEP_COUNTS."""
        return self.rng.choices(tuple(STEP_COUNTS), weights=tuple(STEP_COUNTS.values()))[0]

    def gold(self, page: _Page, steps: int, needs_rewrite: bool):
        """A grounded gold program of ``steps`` steps, its exact value and its
        fact ids. A rewrite workload wraps a program that has no rewrite site
        in a longer template."""
        for _ in range(200):
            program = random_program(self.rng, page.ctx, max_steps=steps)
            if len(program.steps) != steps:
                continue
            if needs_rewrite and not _rewrite_sites(_to_tree(program)):
                program = self._rewrite_template(program, page.literals)
            value, error = naive_execute(program, page.ctx)
            if error or not _sane(value) or not generically_evaluable(program):
                continue
            facts = page.gold_facts(program)
            if facts:
                return program, value, facts
        raise RuntimeError("could not draw a gold program for this page")

    def _rewrite_template(self, program: Program, literals) -> Program:
        """Wrap a program into a growth, scaled-sum or average shape."""
        rng = self.rng
        x = ("arg", NumberLiteral(rng.choice(literals)))
        y = ("arg", NumberLiteral(rng.choice(literals)))
        tree = _to_tree(program)
        if tree[0] == "greater":
            tree = tree[1] if tree[1][0] != "arg" else ("add", tree[1], x)
        shape = rng.randrange(3)
        if shape == 0:
            wrapped = ("divide", ("subtract", tree, x), x)
        elif shape == 1:
            wrapped = ("multiply", (rng.choice(_SUMS), tree, x), y)
        else:
            wrapped = ("divide", ("add", tree, x), ("arg", Constant("const_2")))
        return _from_tree(wrapped)

    def prediction(self, kind: str, gold: Program, literals):
        """Prediction text for one class, or None when this draw is unusable."""
        rng = self.rng
        if kind == "missing":
            return None
        if kind == "gold":
            return render_program(gold)
        if kind == "reordered":
            program = mutate_preserving(rng, gold)
            for _ in range(rng.randint(0, 2)):
                program = mutate_preserving(rng, program)
            moved = reorder_independent_steps(program)
            if moved is not None and rng.random() < 0.6:
                program = moved
            return render_program(program) if program != gold else None
        if kind == "wrong":
            program = mutate_breaking(rng, gold) if rng.random() < 0.6 else self._new_operand(gold, literals)
            return render_program(program) if program != gold else None
        if kind == "wrong-type":
            last = len(gold.steps) - 1
            if gold.steps[-1].op == "greater":
                return render_program(Program(gold.steps[:-1])) if last > 0 else None
            extra = OperationStep("greater", (StepRef(last), NumberLiteral(rng.choice(literals))))
            return render_program(Program(gold.steps + (extra,)))
        if kind == "malformed":
            text = render_program(gold)
            damage = rng.randrange(4)
            if damage == 0:
                return text[:-1]
            if damage == 1:
                return text.replace("(", " ( ,", 1)
            if damage == 2:
                return "sum" + text[text.index("(") :]
            return text + f", add(#{len(gold.steps) + 3}, 1)"
        tree = _to_tree(gold)
        sites = _rewrite_sites(tree)
        if not sites:
            return None
        path, rewritten = rng.choice(sites)
        if kind == "broken-rewrite":
            rewritten = _break(rewritten)
        tree = _replace(tree, path, rewritten)
        if kind == "degenerate":
            operand = ("arg", NumberLiteral(rng.choice(literals)))
            tree = ("divide", tree, ("subtract", operand, operand))
        return render_program(_from_tree(tree))

    def _new_operand(self, gold: Program, literals) -> Program:
        rng = self.rng
        sites = [
            (i, j)
            for i, step in enumerate(gold.steps)
            for j, arg in enumerate(step.args)
            if isinstance(arg, NumberLiteral) and (step.op, j) != ("exp", 1)
        ]
        if not sites:
            return mutate_breaking(rng, gold)
        i, j = rng.choice(sites)
        step = gold.steps[i]
        args = list(step.args)
        args[j] = NumberLiteral(rng.choice(literals))
        steps = list(gold.steps)
        steps[i] = OperationStep(step.op, tuple(args))
        return Program(tuple(steps))


def _settle(kind: str, text: str | None, gold: Program, answer, ctx) -> Expected | None:
    """The oracle verdict for a prediction, or None when it is not clear-cut."""
    if kind == "missing":
        return Expected(False, False, "missing", None, kind)
    if kind == "malformed":
        return Expected(False, False, "parse-error", None, kind)
    program = parse_program(text)
    verdict = oracle_equivalent(program, gold)
    if verdict is None and kind != "degenerate":
        return None
    prog_correct = bool(verdict)
    value, error = naive_execute(program, ctx)
    if error:
        return Expected(False, prog_correct, f"exec-error: {error}", prog_correct, kind)
    if not _sane(value):
        return None
    if isinstance(value, bool) == isinstance(answer, bool) and _answer_value(
        _exe_answer(value)
    ) == answer:
        exe_correct = True
    elif _clearly_different(value, answer):
        exe_correct = False
    else:
        return None
    if not exe_correct:
        failure = "value-mismatch"
    elif not prog_correct:
        failure = "not-equivalent"
    else:
        failure = None
    return Expected(exe_correct, prog_correct, failure, prog_correct, kind)


def _class_schedule(rng: Random, shares: dict, n: int) -> list[str]:
    """Exactly round(share * n) records of each class, in seeded order."""
    schedule = []
    for kind, share in shares.items():
        schedule += [kind] * round(share * n)
    schedule = (schedule + [next(iter(shares))] * n)[:n]  # rounding may leave one short
    rng.shuffle(schedule)
    return schedule


def generate(name: str, seed: int, size: int | None = None) -> Workload:
    """Build one workload's records, predictions and expected verdicts."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    n = SIZES[name] if size is None else size
    gen = _Generator(name, seed)
    rng = gen.rng
    shares = CLASS_SHARES[name]
    schedule = _class_schedule(rng, shares, n) if shares else []
    work = Workload(name=name, seed=seed)
    while len(work.records) < n:
        page = _Page(*_page(rng))
        page_id = f"{rng.choice(_COMPANIES)}/{2010 + rng.randrange(12)}/page_{work.pages}.pdf"
        work.pages += 1
        for q in range(min(rng.randint(1, 3), n - len(work.records))):
            record_id = f"{page_id}-{q}"
            kind = schedule[len(work.records)] if schedule else None
            program, value, facts, expected, text = _record(gen, page, kind)
            work.records.append(
                {
                    "id": record_id,
                    "pre_text": page.pre,
                    "post_text": page.post,
                    "table": page.grid,
                    "qa": {
                        "question": page.question(rng, facts),
                        "program": render_program(program),
                        "exe_ans": _exe_answer(value),
                        "gold_inds": facts,
                    },
                }
            )
            if kind is None:
                continue
            work.expected[record_id] = expected
            if kind == "missing" and rng.random() < 0.5:
                continue  # absent from the prediction file altogether
            work.predictions.append({"id": record_id, "program": text})
    return work


def _record(gen: _Generator, page: _Page, kind: str | None):
    """Gold program, value and facts, plus the prediction of the given class.

    A gold program that admits no clear-cut prediction of the class is drawn
    again; after repeated misses the record falls back to a gold prediction.
    """
    needs_rewrite = kind in ("rewrite", "broken-rewrite", "degenerate")
    steps = gen.steps()
    for _ in range(20):
        program, value, facts = gen.gold(page, steps, needs_rewrite)
        if kind is None:
            return program, value, facts, None, None
        answer = _answer_value(_exe_answer(value))
        for _ in range(3):
            text = gen.prediction(kind, program, page.literals)
            if text is None and kind != "missing":
                continue
            expected = _settle(kind, text, program, answer, page.ctx)
            if expected is not None:
                return program, value, facts, expected, text
    gold = Expected(True, True, None, True, "gold")
    return program, value, facts, gold, render_program(program)
