"""Seeded random generators and independent oracles used across the suite.

The oracles here deliberately avoid the package's execution and equivalence
machinery: the tree-walking interpreter recomputes every step by recursive
substitution instead of a memoized environment, the randomized program
oracle evaluates symbolic programs step by step without building, normalizing,
or pruning expression trees, and the canonical-key oracle builds each step's
normalized form as a string that embeds its parts' strings in full, with no
intern table. The interpreter reads a constant's value from the grammar's
spelling, not through ``dsl.constant_value``. The tolerance, decimal-places
and rendering oracles work in ``Fraction`` arithmetic where the package
works in integers, and the literal-bound oracle reads a value's digit tuple
where the package reads its text. Shared pieces
are limited to definitional layers: quantity parsing, the widening rule
(``numeric.to_fraction``), the displayed precision of a non-Fraction,
decimal formatting, the hashed sample-point convention, and the stats
report's buckets and percentages; the symbol-identity rule
(``_oracle_symbol_key``) is restated here from the constant and row-name
oracles. The stats oracle counts every record's page texts, where the package
counts each page once.
"""

from __future__ import annotations

import math
import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from random import Random

from finprog.context import EvidenceContext, FinTable
from finprog.corpus import (
    _PAGE_SUFFIX_RE,
    StatsReport,
    _count_bucket,
    _fact_position,
    _pct,
    source_bucket,
    steps_bucket,
)
from finprog.decoding import DecodeState, TokenVocabulary, advance, next_token_mask
from finprog.dsl import (
    DEFAULT_CONSTANTS,
    MATH_OPS,
    MAX_NUMBER_DIGITS,
    TABLE_OPS,
    Constant,
    NumberLiteral,
    OperationStep,
    Program,
    RowName,
    StepRef,
    is_valid,
    parse_program,
    validate,
)
from finprog.equiv import _hashed_int
from finprog.numeric import (
    NotANumber,
    TolerancePolicy,
    decimal_places,
    format_decimal,
    parse_quantity,
    to_fraction,
)

_WORDS = (
    "revenue", "income", "assets", "liabilities", "equity", "expense",
    "margin", "shares", "dividend", "segment", "interest", "rate",
    "benefit", "goodwill", "inventory", "backlog", "royalty", "lease",
)

_SENTENCE_SHAPES = (
    "the {w1} of the {w2} segment was {n1} compared with {n2} a year earlier .",
    "{w1} increased to {n1} from {n2} , driven by {w2} .",
    "as of year end , total {w1} was {n1} .",
    "the company recorded {n1} of {w1} and {n2} of {w2} .",
)


def random_number_text(rng: Random) -> str:
    """A written number: plain, decimal, negative, currency, or percent."""
    magnitude = rng.choice((rng.randint(0, 9), rng.randint(10, 999), rng.randint(1000, 99999)))
    if rng.random() < 0.45:
        text = str(magnitude)
    else:
        places = rng.randint(1, 3)
        text = f"{magnitude}.{rng.randint(0, 10 ** places - 1):0{places}d}"
    roll = rng.random()
    if roll < 0.10:
        return f"( {text} )".replace(" ", "")
    if roll < 0.20:
        return f"${text}"
    if roll < 0.30:
        return f"{text}%"
    if roll < 0.36:
        return f"-{text}"
    return text


def random_context(rng: Random) -> EvidenceContext:
    """A small synthetic evidence context with text numbers and a table."""
    sentences = []
    for _ in range(rng.randint(1, 4)):
        shape = rng.choice(_SENTENCE_SHAPES)
        sentences.append(
            shape.format(
                w1=rng.choice(_WORDS),
                w2=rng.choice(_WORDS),
                n1=random_number_text(rng),
                n2=random_number_text(rng),
            )
        )
    columns = rng.randint(1, 3)
    header = ("",) + tuple(str(2015 + i) for i in range(columns))
    used = set()
    rows = []
    for _ in range(rng.randint(1, 4)):
        name = f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}"
        if name in used:
            continue
        used.add(name)
        cells = []
        for _ in range(columns):
            if rng.random() < 0.12:
                cells.append(rng.choice(("n/a", "-", "")))
            else:
                cells.append(random_number_text(rng))
        rows.append((name, tuple(cells)))
    return EvidenceContext.build(sentences, FinTable(header=header, rows=tuple(rows)))


def _literal_pool(ctx: EvidenceContext) -> list[Decimal]:
    values = [Decimal(token) for token in ctx.number_tokens()]
    return values or [Decimal(1)]


def random_program(rng: Random, ctx: EvidenceContext, max_steps: int = 5) -> Program:
    """A structurally valid program grounded in the given context.

    Exponents are kept to small integer literals so all arithmetic stays in
    the rationals and magnitudes remain tractable.
    """
    literals = _literal_pool(ctx)
    small_literals = [
        d for d in literals if d == d.to_integral_value() and abs(d) <= 4
    ]
    exponent_constants = ("const_2", "const_3", "const_4", "const_5", "const_m1")
    rows = [name for name in ctx.table.row_names if name]
    steps: list[OperationStep] = []
    kinds: list[str] = []
    n_steps = rng.randint(1, max_steps)
    for index in range(n_steps):
        ops = list(MATH_OPS)
        if rows:
            ops += list(TABLE_OPS)
        op = rng.choice(ops)
        if op in TABLE_OPS:
            steps.append(OperationStep(op=op, args=(RowName(rng.choice(rows)),)))
            kinds.append("number")
            continue

        def math_arg():
            numeric_refs = [i for i in range(index) if kinds[i] == "number"]
            roll = rng.random()
            if numeric_refs and roll < 0.35:
                return StepRef(rng.choice(numeric_refs))
            if roll < 0.55:
                return Constant(rng.choice(list(DEFAULT_CONSTANTS)))
            return NumberLiteral(rng.choice(literals))

        first = math_arg()
        if op == "exp":
            # keep exponents small and expressible over the vocabulary
            if small_literals and rng.random() < 0.5:
                second: object = NumberLiteral(rng.choice(small_literals))
            else:
                second = Constant(rng.choice(exponent_constants))
        else:
            second = math_arg()
        steps.append(OperationStep(op=op, args=(first, second)))
        kinds.append("bool" if op == "greater" else "number")
    return Program(steps=tuple(steps))


def random_evidence_program(rng: Random, ctx: EvidenceContext, max_steps: int = 4) -> Program:
    """A program whose arguments read against ``ctx`` in every way the evidence rules tell apart.

    Math positions take numbers the evidence holds, numbers it does not,
    constants, step references, and row names; table positions take row
    names. A row name matches a table row (in another spelling, sometimes)
    or matches none. Unlike ``random_program``, the result may break any
    rule of ``validate``. Exponents stay small integers, or row names, so
    that ``naive_execute`` can follow.
    """
    evidence = _literal_pool(ctx)
    rows = [name for name in ctx.table.row_names if name] or ["revenue"]

    def row_name() -> RowName:
        name = rng.choice(rows)
        roll = rng.random()
        if roll < 0.3:
            return RowName(f"{name} {rng.choice(_WORDS)}")  # matches no row
        if roll < 0.5:
            return RowName(name.upper().replace(" ", "-"))
        return RowName(name)

    def number() -> NumberLiteral:
        if rng.random() < 0.5:
            return NumberLiteral(rng.choice(evidence))
        return NumberLiteral(Decimal(rng.randint(100_001, 999_999)) / 10)  # one the evidence rarely holds

    steps: list[OperationStep] = []
    for index in range(rng.randint(1, max_steps)):
        op = rng.choice(MATH_OPS + TABLE_OPS)
        if op in TABLE_OPS:
            steps.append(OperationStep(op, (row_name(),)))
            continue
        refs = [i for i in range(index) if steps[i].op != "greater"]

        def math_arg():
            roll = rng.random()
            if roll < 0.25:
                return row_name()
            if refs and roll < 0.45:
                return StepRef(rng.choice(refs))
            if roll < 0.55:
                return Constant(rng.choice(list(DEFAULT_CONSTANTS)))
            return number()

        first = math_arg()
        if op == "exp":
            second = row_name() if rng.random() < 0.3 else NumberLiteral(Decimal(rng.randint(0, 3)))
        else:
            second = math_arg()
        steps.append(OperationStep(op, (first, second)))
    return Program(steps=tuple(steps))


_SYMBOLS = ("a", "b", "c", "d", "e", "f", "g", "h")


def random_symbolic_program(rng: Random, max_steps: int = 5) -> Program:
    """A valid program over free symbols, small literals, and constants."""
    steps: list[OperationStep] = []
    kinds: list[str] = []
    for index in range(rng.randint(1, max_steps)):
        op = rng.choice(MATH_OPS + (TABLE_OPS if rng.random() < 0.15 else ()))
        if op in TABLE_OPS:
            steps.append(OperationStep(op=op, args=(RowName(rng.choice(_SYMBOLS)),)))
            kinds.append("number")
            continue

        def arg():
            numeric_refs = [i for i in range(index) if kinds[i] == "number"]
            roll = rng.random()
            if numeric_refs and roll < 0.4:
                return StepRef(rng.choice(numeric_refs))
            if roll < 0.5:
                return NumberLiteral(Decimal(rng.randint(1, 9)))
            if roll < 0.6:
                return Constant(rng.choice(list(DEFAULT_CONSTANTS)))
            return RowName(rng.choice(_SYMBOLS))

        first = arg()
        second = NumberLiteral(Decimal(rng.randint(-3, 4))) if op == "exp" else arg()
        steps.append(OperationStep(op=op, args=(first, second)))
        kinds.append("bool" if op == "greater" else "number")
    return Program(steps=tuple(steps))


# ---------------------------------------------------------------------------
# independent tree-walking interpreter (oracle for the executor)


class OracleFailure(Exception):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(kind)


_NORM_RE = re.compile(r"[^0-9a-z]+")


def _oracle_norm(name: str) -> str:
    return _NORM_RE.sub(" ", name.lower()).strip()


def oracle_matching_rows(table: FinTable, name: str) -> list[int]:
    """Indexes, in order, of the rows whose name normalizes as ``name`` does, by normalizing every row anew."""
    wanted = _oracle_norm(name)
    return [i for i, (row_name, _) in enumerate(table.rows) if _oracle_norm(row_name) == wanted]


def _oracle_row_cells(ctx: EvidenceContext, name: str) -> list[Fraction]:
    rows = oracle_matching_rows(ctx.table, name)
    if not rows:
        raise OracleFailure("RowNotFound")
    values = []
    for cell in ctx.table.rows[rows[0]][1]:
        try:
            values.append(Fraction(parse_quantity(cell).mantissa))
        except NotANumber:
            pass
    return values


def _oracle_power(base: Fraction, exponent: Fraction) -> Fraction:
    if exponent.denominator != 1:
        raise OracleFailure("DomainError")
    if base == 0 and exponent < 0:
        raise OracleFailure("DivisionByZero")
    result = Fraction(1)
    e = abs(exponent.numerator)
    for _ in range(e):
        result *= base
    return result if exponent >= 0 else Fraction(1) / result


# docs/grammar.md: constant = "const_" , [ "m" ] , digit , { digit } , [ "." , digit , { digit } ]
_ORACLE_CONSTANT_RE = re.compile(r"const_(m?)([0-9]+(?:\.[0-9]+)?)")


def _oracle_constant(name: str) -> Fraction:
    """A constant's value read from its spelling, within the literal digit bound."""
    m = _ORACLE_CONSTANT_RE.fullmatch(name)
    if m is None:
        raise OracleFailure("InvalidProgram")
    value = Fraction(m.group(2))
    if max(value.numerator, value.denominator) >= 10**MAX_NUMBER_DIGITS:
        raise OracleFailure("InvalidProgram")
    return -value if m.group(1) else value


def naive_execute(program: Program, ctx: EvidenceContext):
    """Evaluate each step as a recursively substituted tree, first error wins.

    Returns (value, None) or (None, error_kind), where error kinds use the
    executor's exception class names.
    """

    def eval_step_tree(index: int):
        step = program.steps[index]

        def number_arg(arg):
            if isinstance(arg, NumberLiteral):
                return Fraction(arg.value)
            if isinstance(arg, Constant):
                return _oracle_constant(arg.name)
            if isinstance(arg, StepRef):
                inner = eval_step_tree(arg.index)
                if isinstance(inner, bool):
                    raise OracleFailure("BooleanInArithmetic")
                return inner
            raise OracleFailure("InvalidProgram")

        if step.op in TABLE_OPS:
            arg = step.args[0]
            if not isinstance(arg, RowName):
                raise OracleFailure("InvalidProgram")
            cells = _oracle_row_cells(ctx, arg.name)
            if not cells:
                raise OracleFailure("EmptyNumericRow")
            if step.op == "table-sum":
                return sum(cells, Fraction(0))
            if step.op == "table-average":
                return sum(cells, Fraction(0)) / len(cells)
            if step.op == "table-max":
                return max(cells)
            return min(cells)

        left = number_arg(step.args[0])
        right = number_arg(step.args[1])
        if step.op == "add":
            return left + right
        if step.op == "subtract":
            return left - right
        if step.op == "multiply":
            return left * right
        if step.op == "divide":
            if right == 0:
                raise OracleFailure("DivisionByZero")
            return left / right
        if step.op == "exp":
            return _oracle_power(left, right)
        if step.op == "greater":
            return left > right
        raise OracleFailure("InvalidProgram")

    try:
        value = None
        for index in range(len(program.steps)):
            value = eval_step_tree(index)
        return value, None
    except OracleFailure as exc:
        return None, exc.kind


def oracle_fits(value: Decimal) -> bool:
    """The literal bound decided from the value's digit tuple: the reference for ``numeric._fits``.

    A nonzero value must agree with ``_fits``. A zero with more than about
    800 places or zeros is refused here, though its exact value 0/1 fits.
    """
    if not value.is_finite():
        return False
    _, digits, exponent = value.as_tuple()
    if len(digits) + max(exponent, 0) <= MAX_NUMBER_DIGITS and -exponent < MAX_NUMBER_DIGITS:
        return True
    kept = len(bytes(digits).rstrip(b"\0"))
    exponent += len(digits) - kept
    if kept + abs(exponent) > 8 * MAX_NUMBER_DIGITS:
        return False
    exact = Fraction(Decimal((0, digits[:kept], exponent)))
    return max(exact.numerator, exact.denominator) < 10**MAX_NUMBER_DIGITS


# ---------------------------------------------------------------------------
# pure randomized equivalence oracle (no expressions, no normalization)


class _PointFailure(Exception):
    pass


def _oracle_symbol_key(arg) -> tuple:
    """The identity under which arguments share a symbol.

    Numbers and constants by their exact value's (numerator, denominator)
    in lowest terms, so const_5 and the literal 5 coincide; names by their
    normalized text.
    """
    if isinstance(arg, NumberLiteral):
        return ("num", Fraction(arg.value).as_integer_ratio())
    if isinstance(arg, Constant):
        return ("num", _oracle_constant(arg.name).as_integer_ratio())
    return ("name", _oracle_norm(arg.name))


def oracle_symbolize(*programs: Program) -> tuple[list, ...]:
    """Each program's steps as ``(op, args)`` over one shared symbol list, then that list.

    An argument becomes ``("step", index)`` for a step reference, else
    ``("sym", id)``: the id of its symbol key, given in order of first use
    across all the programs. The last item lists the keys in id order.
    """
    ids: dict = {}

    def symbolic(arg) -> tuple:
        if isinstance(arg, StepRef):
            return ("step", arg.index)
        return ("sym", ids.setdefault(_oracle_symbol_key(arg), len(ids)))

    steps = [[(step.op, tuple(map(symbolic, step.args))) for step in program.steps] for program in programs]
    return (*steps, list(ids))


def _run_symbolic(steps, symbols, values, seed: int, trial: int):
    env = []
    for op, args in steps:
        resolved = []
        for kind, ref in args:
            if kind == "step":
                value = env[ref]
                if isinstance(value, bool):
                    raise _PointFailure()
                resolved.append(value)
            else:
                resolved.append(values[ref])
        if op in TABLE_OPS:
            env.append(Fraction(_hashed_int(seed, (trial, "agg", op, symbols[args[0][1]]))))
            continue
        left, right = resolved
        if op == "add":
            env.append(left + right)
        elif op == "subtract":
            env.append(left - right)
        elif op == "multiply":
            env.append(left * right)
        elif op == "divide":
            if right == 0:
                raise _PointFailure()
            env.append(left / right)
        elif op == "exp":
            env.append(Fraction(_hashed_int(seed, (trial, "pow", left, right))))
        elif op == "greater":
            env.append(left - right)  # a comparison is equivalent by its operands' difference
        else:
            raise _PointFailure()
    return env[-1]


def oracle_equivalent(p1: Program, p2: Program, samples: int = 32, seed: int = 0):
    """Step-by-step randomized comparison; True/False, or None if degenerate.

    Shares only the symbol-identity rule and the hashed point convention with
    the implementation; evaluation itself runs the raw symbolic programs,
    including dead steps (their failures just discard the sample point).
    Two programs ending in ``greater`` are compared by the exact difference
    of their final operands.
    """
    s1, s2, symbols = oracle_symbolize(p1, p2)
    if (s1[-1][0] == "greater") != (s2[-1][0] == "greater"):
        return False
    agreed = 0
    for trial in range(samples * 20):
        if agreed >= samples:
            break
        values = [Fraction(_hashed_int(seed, (trial, key))) for key in symbols]
        try:
            left = _run_symbolic(s1, symbols, values, seed, trial)
            right = _run_symbolic(s2, symbols, values, seed, trial)
        except _PointFailure:
            continue
        if left != right:
            return False
        agreed += 1
    return True if agreed >= samples else None


def oracle_exact_value(program: Program, seed: int, trial: int) -> Fraction | None:
    """The program's exact value at the hashed point of ``trial``, or None where a step fails there.

    A program ending in ``greater`` gives its operands' difference.
    """
    steps, symbols = oracle_symbolize(program)
    values = [Fraction(_hashed_int(seed, (trial, key))) for key in symbols]
    try:
        return _run_symbolic(steps, symbols, values, seed, trial)
    except _PointFailure:
        return None


def generically_evaluable(program: Program, probes: int = 3, seed: int = 987) -> bool:
    """True when every step evaluates at a few random points (no constant-zero
    denominators or boolean misuse anywhere, including dead steps)."""
    steps, symbols = oracle_symbolize(program)
    for trial in range(probes):
        values = [Fraction(_hashed_int(seed, (trial, key))) for key in symbols]
        try:
            _run_symbolic(steps, symbols, values, seed, trial)
        except _PointFailure:
            return False
    return True


def random_program_pair(rng: Random) -> tuple[Program, Program]:
    """A pair for equivalence testing: related by a mutation, or independent."""
    base = random_symbolic_program(rng)
    while not generically_evaluable(base):
        base = random_symbolic_program(rng)
    roll = rng.random()
    if roll < 0.30:
        other = mutate_preserving(rng, base)
    elif roll < 0.70:
        other = mutate_breaking(rng, base)
    else:
        other = random_symbolic_program(rng)
    if not generically_evaluable(other):
        other = base
    return base, other


def mutate_preserving(rng: Random, program: Program) -> Program:
    """Swap the operands of one commutative step, if any; else copy."""
    candidates = [i for i, s in enumerate(program.steps) if s.op in ("add", "multiply")]
    if not candidates:
        return program
    target = rng.choice(candidates)
    steps = list(program.steps)
    step = steps[target]
    steps[target] = OperationStep(op=step.op, args=(step.args[1], step.args[0]))
    return Program(steps=tuple(steps))


def mutate_breaking(rng: Random, program: Program) -> Program:
    """Change one step's operation; usually breaks equivalence, maybe not."""
    steps = list(program.steps)
    target = rng.randrange(len(steps))
    step = steps[target]
    if step.op in TABLE_OPS:
        replacement = rng.choice([op for op in TABLE_OPS if op != step.op])
    else:
        pool = [op for op in ("add", "subtract", "multiply", "divide") if op != step.op]
        if step.op == "greater" or step.op == "exp":
            return program
        replacement = rng.choice(pool)
    steps[target] = OperationStep(op=replacement, args=step.args)
    return Program(steps=tuple(steps))


def reorder_independent_steps(program: Program) -> Program | None:
    """Swap the first two steps when neither references the other, renumbering
    all later step references consistently.

    Requires at least three steps: swapping within a two-step program would
    change which step is final, changing the program's answer."""
    if len(program.steps) < 3:
        return None
    first, second = program.steps[0], program.steps[1]
    if any(isinstance(a, StepRef) for a in second.args):
        return None

    def renumber(arg):
        if isinstance(arg, StepRef):
            if arg.index == 0:
                return StepRef(1)
            if arg.index == 1:
                return StepRef(0)
        return arg

    rest = [
        OperationStep(op=s.op, args=tuple(renumber(a) for a in s.args))
        for s in program.steps[2:]
    ]
    return Program(steps=(second, first, *rest))


# ---------------------------------------------------------------------------
# string-key canonical forms (oracle for the interned forms of equiv)

_ORACLE_CHAINS = {"add": ("+", 1), "subtract": ("+", -1), "multiply": ("*", 1), "divide": ("*", -1)}


def _oracle_chain(op: str, terms) -> tuple:
    """The (key, op, parts) form of a flattened sum or product of (weight, form) terms.

    Same-kind children are flattened with their weights multiplied, like
    parts collect their weights by key, zero weights drop out, parts sort by
    key, and a lone part of weight 1 stands for itself.
    """
    collected: dict[str, list] = {}
    for weight, form in terms:
        _, kind, parts = form
        for inner, part in parts if kind == op else ((1, form),):
            entry = collected.setdefault(part[0], [0, part])
            entry[0] += weight * inner
    parts = tuple((weight, part) for _, (weight, part) in sorted(collected.items()) if weight != 0)
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    if op == "+":
        inner_text = " ".join(f"{weight}*{part[0]}" for weight, part in parts)
    else:
        inner_text = " ".join(f"{part[0]}^{weight}" for weight, part in parts)
    return (f"({op} {inner_text})", op, parts)


def oracle_canonical_key(steps) -> str:
    """The canonical key of the final step of ``oracle_symbolize`` steps, built from strings.

    Each step's form is a (key, op, parts) triple whose key embeds its
    parts' keys in full: ``s<id>`` for a symbol, ``<table-op>[s<id>]`` for an
    aggregation, ``(+ w*key ...)`` and ``(* key^w ...)`` for chains,
    ``(^ base exponent)`` with operands in order, and ``(> difference)``
    over the chain left - right. Equal keys mean equal normalized forms.
    """
    forms: list[tuple] = []
    for step_op, args in steps:
        if step_op in TABLE_OPS:
            ((_, symbol),) = args
            forms.append((f"{step_op}[s{symbol}]", step_op, ()))
            continue
        operands = [forms[value] if kind == "step" else (f"s{value}", "sym", ()) for kind, value in args]
        if step_op in _ORACLE_CHAINS:
            op, sign = _ORACLE_CHAINS[step_op]
            forms.append(_oracle_chain(op, ((1, operands[0]), (sign, operands[1]))))
        elif step_op == "exp":
            key = f"(^ {operands[0][0]} {operands[1][0]})"
            forms.append((key, "^", ((1, operands[0]), (1, operands[1]))))
        else:
            difference = _oracle_chain("+", ((1, operands[0]), (-1, operands[1])))
            forms.append((f"(> {difference[0]})", ">", ((1, difference),)))
    return forms[-1][0]


# ---------------------------------------------------------------------------
# degrees along a random line (oracle for the degree bounds of equiv)


def _poly_trim(p: list) -> list:
    """A polynomial as its coefficients from the constant up, without zero leading terms."""
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    return _poly_trim([x + (q[i] if i < len(q) else 0) for i, x in enumerate(p)])


def _poly_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_divmod(p: list, q: list) -> tuple[list, list]:
    quotient = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    rest = list(p)
    while len(rest) >= len(q):
        shift, factor = len(rest) - len(q), rest[-1] / q[-1]
        quotient[shift] = factor
        for j, y in enumerate(q):
            rest[shift + j] -= factor * y
        rest = _poly_trim(rest)
    return quotient, rest


def _lowest_terms(num: list, den: list) -> tuple[list, list]:
    """num/den with their greatest common divisor (Euclid's algorithm) divided out, den monic."""
    p, q = den, num
    while q:
        p, q = q, _poly_divmod(p, q)[1]
    num, den = _poly_divmod(num, p)[0], _poly_divmod(den, p)[0]
    return [x / den[-1] for x in num], [x / den[-1] for x in den]


def oracle_line_degrees(program: Program, seed: int = 0) -> list:
    """Each step's true (numerator, denominator) degree along a random line, or None.

    Every symbol, table aggregation and ``exp`` moves along its own random
    line a + b*t (an ``exp`` keyed by its operand values, which it is a
    function of). Each step is evaluated exactly, as a rational function of
    t in lowest terms, so its degrees are those of the program's rational
    function in lowest terms, restricted to the line; a random line keeps
    them, and never raises them. The zero polynomial has degree -1. None
    marks a ``greater`` step, and a step that divides by zero or uses one.
    """
    rng = Random(seed)
    steps, _ = oracle_symbolize(program)
    lines: dict = {}

    def line(key) -> tuple[list, list]:
        if key not in lines:
            lines[key] = ([Fraction(rng.randint(-99, 99)), Fraction(rng.choice((-1, 1)) * rng.randint(1, 99))], [1])
        return lines[key]

    values: list = []
    for op, args in steps:
        operands = [values[ref] if kind == "step" else line(("sym", ref)) for kind, ref in args]
        if op in TABLE_OPS:
            values.append(line(("agg", op, args[0][1])))
        elif op == "greater" or any(value is None for value in operands):
            values.append(None)
        elif op == "exp":
            values.append(line(("pow", repr(operands))))
        else:
            (n1, d1), (n2, d2) = operands
            if op in ("add", "subtract"):
                right = _poly_mul([Fraction(1 if op == "add" else -1)], _poly_mul(n2, d1))
                values.append(_lowest_terms(_poly_add(_poly_mul(n1, d2), right), _poly_mul(d1, d2)))
            elif op == "multiply":
                values.append(_lowest_terms(_poly_mul(n1, n2), _poly_mul(d1, d2)))
            else:
                values.append(_lowest_terms(_poly_mul(n1, d2), _poly_mul(d1, n2)) if n2 else None)
    return [None if value is None else (len(value[0]) - 1, len(value[1]) - 1) for value in values]


# ---------------------------------------------------------------------------
# the character-loop tokenizer


def char_loop_tokens(text: str) -> list[tuple[str, int]]:
    """(token, offset) pairs of program text, read one character at a time.

    Punctuation ``( ) ,`` is one token each; a run of other characters up to
    the next punctuation mark is one atom, less surrounding whitespace
    (``str.isspace``); whitespace between tokens is skipped.
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "(),":
            tokens.append((c, i))
            i += 1
            continue
        j = i
        while j < n and text[j] not in "(),":
            j += 1
        tokens.append((text[i:j].strip(), i))
        i = j
    return tokens


# ---------------------------------------------------------------------------
# mask-guided walks and the brute-force mask oracle


def random_walk(rng: Random, vocab: TokenVocabulary) -> str:
    """Follow masks to a complete program; returns its text."""
    state = DecodeState()
    while True:
        mask = next_token_mask(state, vocab)
        if state.is_complete and (not mask or rng.random() < 0.45):
            return state.program_text
        token = rng.choice(sorted(mask))
        state = advance(state, token, vocab)


def _parses_clean(tokens: list[str]) -> bool:
    try:
        program = parse_program(" ".join(tokens))
    except Exception:
        return False
    return is_valid(validate(program))


def bruteforce_next_tokens(
    prefix: list[str], candidates: list[str], finishers: list[str], depth: int = 5
) -> set[str]:
    """Candidate tokens legal after the prefix, judged only by the parser.

    A candidate is legal when some completion (over the small finisher
    alphabet, up to the given depth) parses into a program with no
    context-free diagnostics. Independent of the mask engine.
    """

    def completable(tokens: list[str], remaining: int) -> bool:
        if _parses_clean(tokens):
            return True
        if remaining == 0:
            return False
        return any(completable(tokens + [f], remaining - 1) for f in finishers)

    legal = set()
    for candidate in candidates:
        if completable(prefix + [candidate], depth):
            legal.add(candidate)
    return legal


def naive_tfidf_rank(contents: list[str], question: str, k: int) -> list[tuple[int, float]]:
    """Top-k (position, score) of smoothed TF-IDF cosine ranking, ties by position.

    Written from the formulas alone: float term counts, document frequency
    over each fact's ``set`` of tokens, idf = ln((1+N)/(1+df)) + 1, vectors
    L2-normalized with ``math.fsum``, and the query scored against every
    fact term by term with ``math.fsum``, a missing term adding ``w * 0.0``.
    A question with no indexed term scores every fact ``0`` (an int).
    """

    def tokens(text: str) -> list[str]:
        return re.findall(r"[a-z0-9]+", text.lower())

    def counts(terms: list[str]) -> dict[str, float]:
        out: dict[str, float] = {}
        for term in terms:
            out[term] = out.get(term, 0.0) + 1.0
        return out

    def normalized(vector: dict[str, float]) -> dict[str, float]:
        norm = math.sqrt(math.fsum(w * w for w in vector.values()))
        return dict(vector) if norm == 0.0 else {t: w / norm for t, w in vector.items()}

    tokenized = [tokens(c) for c in contents]
    df: dict[str, int] = {}
    for terms in tokenized:
        for term in set(terms):
            df[term] = df.get(term, 0) + 1
    n = len(contents)
    idf = {t: math.log((1 + n) / (1 + d)) + 1.0 for t, d in df.items()}
    vectors = [normalized({t: c * idf[t] for t, c in counts(terms).items()}) for terms in tokenized]
    query = normalized({t: c * idf[t] for t, c in counts(tokens(question)).items() if t in idf})
    scored = [
        (-math.fsum(w * vector.get(t, 0.0) for t, w in query.items()) if query else 0, position)
        for position, vector in enumerate(vectors)
    ]
    scored.sort()
    return [(position, -neg) for neg, position in scored[: max(k, 0)]]


def per_record_stats(records) -> StatsReport:
    """``dataset_stats`` as one pass per record: each record counts its page's texts again.

    The vocabulary lowers each word of a text, not the text, and the input
    tokens are summed per record. The buckets, fact positions and
    percentages are the package's own helpers.
    """
    if not records:
        raise ValueError("need at least one record")

    n = len(records)
    pages = {_PAGE_SUFFIX_RE.sub("", r.id) for r in records}
    vocabulary: set[str] = set()
    text_sentences = text_tokens = table_rows = table_tokens = 0
    input_tokens_total = 0
    max_input_tokens = 0
    question_tokens = 0
    source_counts = {"text-only": 0, "table-only": 0, "table-text": 0}
    fact_count_counts = {"1": 0, "2": 0, ">2": 0}
    fact_distance_counts = {"<=3": 0, "4-6": 0, ">6": 0}
    multi_fact_records = 0
    op_counts: dict[str, int] = {}
    total_steps = 0
    step_counts = {"1": 0, "2": 0, ">2": 0}

    for record in records:
        sentences = record.pre_text + record.post_text
        text_sentences += len(sentences)
        record_text_tokens = sum(len(s.split()) for s in sentences)
        text_tokens += record_text_tokens

        rows = record.table.rows
        table_rows += len(rows)
        table_texts = [*record.table.header, *(name for name, _ in rows)]
        table_texts += (cell for _, cells in rows for cell in cells)
        record_table_tokens = sum(len(text.split()) for text in table_texts)
        table_tokens += record_table_tokens
        for text in (*sentences, *table_texts):
            vocabulary.update(w.lower() for w in text.split())

        record_input_tokens = record_text_tokens + record_table_tokens
        input_tokens_total += record_input_tokens
        max_input_tokens = max(max_input_tokens, record_input_tokens)
        question_tokens += len(record.question.split())

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
        avg_input_tokens=input_tokens_total / n,
        max_input_tokens=max_input_tokens,
        avg_question_tokens=question_tokens / n,
        source_pct=_pct(source_counts, n),
        fact_count_pct=_pct(fact_count_counts, n),
        fact_distance_pct=_pct(fact_distance_counts, multi_fact_records),
        op_pct=_pct(op_counts, total_steps),
        step_pct=_pct(step_counts, n),
    )


def round_half_up(value: Fraction, places: int) -> Fraction:
    """Round an exact rational to a decimal place count, halves away from zero."""
    scale = Fraction(10) ** places
    scaled = value * scale
    sign = -1 if scaled < 0 else 1
    magnitude = (abs(scaled.numerator) * 2 + scaled.denominator) // (2 * scaled.denominator)
    return Fraction(sign * magnitude, 1) / scale


def oracle_values_equal(a, b, policy: TolerancePolicy) -> bool:
    """The tolerance clauses of README's "Execution accuracy", in Fraction arithmetic.

    Each tolerance field is widened by ``Fraction()``, so a float keeps its
    exact binary value.
    """
    fa, fb = to_fraction(a), to_fraction(b)
    places = oracle_decimal_places(b) if isinstance(b, Fraction) else decimal_places(b)
    abs_tol, rel_tol = Fraction(policy.abs_tol), Fraction(policy.rel_tol)

    def clauses_match(c: Fraction) -> bool:
        diff = abs(c - fb)
        if diff <= abs_tol:
            return True
        if diff <= rel_tol * max(Fraction(1), abs(c), abs(fb)):
            return True
        return policy.round_to_reference and places is not None and round_half_up(c, places) == fb

    candidates = [fa]
    if policy.percent_insensitive:
        candidates += [fa * 100, fa / 100]
    return any(clauses_match(c) for c in candidates)


def oracle_decimal_places(value: Fraction) -> int | None:
    """The places of a Fraction's terminating decimal, by dividing out each 2 and 5; None if it repeats."""
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


_ORACLE_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def oracle_render_value(value) -> str:
    """An executor result as text: yes/no, the exact terminating decimal, or numerator/denominator."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    places = oracle_decimal_places(value)
    if places is None:
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
    scaled = value * Fraction(10) ** places
    return format_decimal(Decimal(scaled.numerator).scaleb(-places, _ORACLE_EXACT))
