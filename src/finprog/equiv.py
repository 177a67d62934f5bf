"""Program accuracy: are two programs mathematically equivalent?

Arguments are first replaced by symbols shared across the compared pair
(equal numbers, constants of equal value, and identical names collapse to one
symbol). Each symbolic program is then built into a normalized form over
those symbols, once per step and in one loop: sums and products are flattened,
like parts collected and sorted as each form is made, so every form is born
normalized and carries its canonical key, made once from its parts' keys.
Pairs whose keys differ get a randomized fallback: every distinct subform of
both sides is evaluated, children first, at independent random integer points
in exact rational arithmetic, so identities that normalization does not
rewrite (for example distributivity) are still recognized, with negligible
false-positive probability.

Exponentiation is treated as an uninterpreted operation on its operand values:
``exp`` chains are compared by where their bases and exponents agree, not by
power-law rewriting, which is unsound over the reals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .context import normalize_row_name
from .dsl import (
    Constant,
    NumberLiteral,
    Program,
    RowName,
    StepRef,
    TABLE_OPS,
    constant_value,
    is_valid,
    validate,
)

DEFAULT_SAMPLE_POINTS = 32

_ZERO = Fraction(0)
_ONE = Fraction(1)

# A symbolized argument: ("sym", symbol_id) or ("step", earlier_step_index).
SymbolicArg = tuple[str, int]


@dataclass(frozen=True)
class SymbolicStep:
    op: str
    args: tuple[SymbolicArg, ...]


@dataclass(frozen=True)
class SymbolicProgram:
    """A program with arguments replaced by ids into a shared symbol table."""

    steps: tuple[SymbolicStep, ...]
    symbols: tuple[tuple, ...]


def _symbol_key(arg, constants: Mapping[str, Fraction] | None) -> tuple:
    """The identity under which arguments share a symbol.

    Numbers by exact value; constants by their value, so const_5 and the
    literal 5 coincide; names by their normalized text.
    """
    if isinstance(arg, NumberLiteral):
        return ("num", Fraction(arg.value))
    if isinstance(arg, Constant):
        value = constant_value(arg.name, constants)
        if value is None:
            return ("const", arg.name)
        return ("num", value)
    if isinstance(arg, RowName):
        return ("name", normalize_row_name(arg.name))
    raise TypeError(f"not a symbolizable argument: {arg!r}")


def _symbolic_steps(program: Program, table: dict, constants) -> tuple[SymbolicStep, ...]:
    steps = []
    for step in program.steps:
        args: list[SymbolicArg] = []
        for arg in step.args:
            if isinstance(arg, StepRef):
                args.append(("step", arg.index))
                continue
            key = _symbol_key(arg, constants)
            if key not in table:
                table[key] = len(table)
            args.append(("sym", table[key]))
        steps.append(SymbolicStep(op=step.op, args=tuple(args)))
    return tuple(steps)


def pair_symbolize(
    p1: Program,
    p2: Program,
    constants: Mapping[str, Fraction] | None = None,
) -> tuple[SymbolicProgram, SymbolicProgram]:
    """Symbolize two programs over one shared symbol table."""
    table: dict = {}
    steps1 = _symbolic_steps(p1, table, constants)
    steps2 = _symbolic_steps(p2, table, constants)
    symbols = tuple(table)  # in id order: ids are given in insertion order
    return SymbolicProgram(steps1, symbols), SymbolicProgram(steps2, symbols)


@dataclass(frozen=True)
class Form:
    """A normalized expression with its canonical key; equal keys mean equal forms.

    ``parts`` are ``(weight, form)`` pairs. In a ``"+"`` or ``"*"`` chain they
    are sorted by key and weigh the signed coefficients of a sum or the
    integer exponents of a product; the empty sum is zero, the empty product
    one. ``"^"`` (uninterpreted ``exp``) and ``">"`` have their two operands
    in order, of weight 1. A leaf (``op`` ``"sym"`` or a table operation) has
    no parts and names its ``symbol`` id.
    """

    key: str
    op: str = field(compare=False)
    parts: tuple[tuple[int, Form], ...] = field(default=(), compare=False)
    symbol: int = field(default=0, compare=False)


_CHAIN_STEPS = {"add": ("+", 1), "subtract": ("+", -1), "multiply": ("*", 1), "divide": ("*", -1)}


def _chain(op: str, terms) -> Form:
    """The normalized sum (``"+"``) or product (``"*"``) of ``(weight, form)`` terms.

    Children of the same kind are flattened with their weights multiplied,
    and like forms collect their weights. Zero weights drop out, so a/a is
    one as a rational function. Parts sort by key, and a lone part of weight
    1 stands for itself.
    """
    collected: dict[str, list] = {}
    for weight, form in terms:
        for inner_weight, part in form.parts if form.op == op else ((1, form),):
            entry = collected.setdefault(part.key, [0, part])
            entry[0] += weight * inner_weight
    parts = tuple((weight, part) for _, (weight, part) in sorted(collected.items()) if weight != 0)
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    if op == "+":
        inner = " ".join(f"{weight}*{part.key}" for weight, part in parts)
    else:
        inner = " ".join(f"{part.key}^{weight}" for weight, part in parts)
    return Form(f"({op} {inner})", op, parts)


def _leaf(op: str, symbol: int) -> Form:
    """A symbol, or a table aggregation applied to a row symbol."""
    if op in TABLE_OPS:
        return Form(f"{op}[s{symbol}]", op, symbol=symbol)
    return Form(f"s{symbol}", "sym", symbol=symbol)


def to_expression(sp: SymbolicProgram) -> Form:
    """The normalized form of the final step, built one step at a time.

    Each step's form is made once, from the forms of the steps it references.
    Steps the final step never reaches do not change it: equivalence is
    defined by the produced value alone.
    """
    if not sp.steps:
        raise ValueError("empty program has no expression")
    forms: list[Form] = []
    for step in sp.steps:
        operands = [forms[value] if kind == "step" else _leaf(step.op, value) for kind, value in step.args]
        if step.op in _CHAIN_STEPS:
            op, sign = _CHAIN_STEPS[step.op]
            form = _chain(op, ((1, operands[0]), (sign, operands[1])))
        elif step.op in ("exp", "greater"):
            op = "^" if step.op == "exp" else ">"
            key = f"({op} {operands[0].key} {operands[1].key})"
            form = Form(key, op, ((1, operands[0]), (1, operands[1])))
        elif step.op in TABLE_OPS:
            form = operands[0]
        else:
            raise ValueError(f"unknown operation {step.op!r}")
        forms.append(form)
    return forms[-1]


class _SamplingError(Exception):
    """Division by zero (or similar) at one sample point; the point is retried."""


def _hashed_int(seed: int, parts: tuple) -> int:
    """A reproducible pseudo-random nonzero integer in [-2**62, 2**62]."""
    digest = hashlib.blake2b(repr((seed, parts)).encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big") % (2**63) - 2**62
    return value if value != 0 else 1


def _sampling_plan(roots: tuple[Form, ...], symbols: tuple) -> tuple[list, list[int]]:
    """Instructions that evaluate every distinct subform of ``roots`` once.

    Subforms are found with an explicit stack and ordered children before
    parents, in part order. Returns the instructions for ``_evaluate`` and
    the position of each root's value.
    """
    order: list[Form] = []
    position: dict[str, int] = {}
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        form, ready = stack.pop()
        if form.key in position:
            continue
        if ready:
            position[form.key] = len(order)
            order.append(form)
        else:
            stack.append((form, True))
            stack.extend((part, False) for _, part in reversed(form.parts))
    divisors = {part.key for form in order if form.op == "*" for weight, part in form.parts if weight < 0}
    plan = []
    for form in order:
        op, arg = form.op, tuple((weight, position[part.key]) for weight, part in form.parts)
        if any(part.op == ">" for _, part in form.parts):
            op = "boolean in arithmetic"  # only ">" forms are boolean: every point fails
        elif op == "sym" or op in TABLE_OPS:
            # Symbol values are keyed by symbol identity rather than id, so
            # points do not depend on the order the pair was symbolized in.
            symbol = symbols[form.symbol]
            arg = (symbol,) if op == "sym" else ("agg", op, symbol)
            op = "leaf"
        plan.append((op, arg, form.key in divisors))
    return plan, [position[root.key] for root in roots]


def _evaluate(plan: list, seed: int, trial: int) -> list:
    """Every planned value at one sample point, in exact rational arithmetic.

    Raises _SamplingError as soon as a divisor comes out zero or a boolean
    would enter arithmetic.
    """
    values: list = []
    for op, arg, divisor in plan:
        if op == "leaf":
            value = Fraction(_hashed_int(seed, (trial, *arg)))
        elif op == "+":
            value = _ZERO
            for weight, i in arg:
                value += values[i] if weight == 1 else weight * values[i]
        elif op == "*":
            value = _ONE
            for weight, i in arg:
                value *= values[i] if weight == 1 else values[i] ** weight
        elif op == "^":
            # Uninterpreted: keyed by operand values, shared across the pair.
            value = Fraction(_hashed_int(seed, (trial, "pow", values[arg[0][1]], values[arg[1][1]])))
        elif op == ">":
            value = values[arg[0][1]] > values[arg[1][1]]
        else:
            raise _SamplingError(op)
        if divisor and value == 0:
            raise _SamplingError("division by zero")
        values.append(value)
    return values


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    reason: str
    canonical_left: str
    canonical_right: str


def compare_programs(
    p1: Program,
    p2: Program,
    *,
    samples: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
    constants: Mapping[str, Fraction] | None = None,
) -> EquivalenceReport:
    """Full equivalence decision with the canonical forms it was based on.

    Reasons: canonical-match, randomized-agreement, counterexample,
    incomparable-types (one program ends in a boolean, the other a number),
    degenerate (no evaluable sample points exist outside the canonical match).
    """
    s1, s2 = pair_symbolize(p1, p2, constants)
    left = to_expression(s1)
    right = to_expression(s2)
    key_left, key_right = left.key, right.key
    if (left.op == ">") != (right.op == ">"):
        return EquivalenceReport(False, "incomparable-types", key_left, key_right)
    if key_left == key_right:
        return EquivalenceReport(True, "canonical-match", key_left, key_right)

    plan, (at_left, at_right) = _sampling_plan((left, right), s1.symbols)
    agreed = 0
    for trial in range(samples * 20):
        if agreed >= samples:
            break
        try:
            values = _evaluate(plan, seed, trial)
        except _SamplingError:
            continue
        if values[at_left] != values[at_right]:
            return EquivalenceReport(False, "counterexample", key_left, key_right)
        agreed += 1
    if agreed < samples:
        return EquivalenceReport(False, "degenerate", key_left, key_right)
    return EquivalenceReport(True, "randomized-agreement", key_left, key_right)


def equivalent(
    p1: Program,
    p2: Program,
    *,
    samples: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
    constants: Mapping[str, Fraction] | None = None,
) -> bool:
    return compare_programs(p1, p2, samples=samples, seed=seed, constants=constants).equivalent


def program_accuracy(
    pred: Optional[Program],
    gold: Program,
    *,
    samples: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
    constants: Mapping[str, Fraction] | None = None,
) -> bool:
    """False for missing or invalid predictions, else the equivalence verdict."""
    if pred is None:
        return False
    if not is_valid(validate(pred, allow_symbols=True, constants=constants)):
        return False
    return equivalent(pred, gold, samples=samples, seed=seed, constants=constants)
