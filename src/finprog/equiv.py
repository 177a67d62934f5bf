"""Program accuracy: are two programs mathematically equivalent?

Arguments are first replaced by symbols shared across the compared pair
(equal numbers, constants of equal value, and identical names collapse to one
symbol). Each symbolic program is then built into a normalized form over
those symbols, once per step and in one loop: sums and products are flattened,
like parts collected and sorted as each form is made, so every form is born
normalized and carries its canonical key, made once from its parts' keys.

Pairs whose keys differ get a randomized fallback, so identities that
normalization does not rewrite (for example distributivity) are still
recognized. Every distinct subform of both sides is evaluated, children
first, at independent random integer points, modulo the prime p = 2**61 - 1
with plain integers. Both sides are rational functions of the symbols, and
over Z_p a point can only wrongly say "agree", never "differ": by the
Schwartz-Zippel / DeMillo-Lipton lemma a point agrees by chance with
probability at most deg/p. A program can also build a coefficient that is a
multiple of p, or an exponent that is a multiple of p - 1, which Z_p cannot
tell from 0. So before the fallback reports agreement it confirms it at one
point in exact rational arithmetic. Pairs whose final step is ``greater``
are sampled in exact rational arithmetic throughout: a sign test needs the
order that Z_p lacks.

Exponentiation is treated as an uninterpreted operation on its operand values:
``exp`` chains are compared by where their bases and exponents agree, not by
power-law rewriting, which is unsound over the reals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

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


def _symbol_key(arg) -> tuple:
    """The identity under which arguments share a symbol.

    Numbers by exact value; constants by their value, so const_5 and the
    literal 5 coincide; names by their normalized text.
    """
    if isinstance(arg, NumberLiteral):
        return ("num", Fraction(arg.value))
    if isinstance(arg, Constant):
        value = constant_value(arg.name)
        if value is None:
            return ("const", arg.name)
        return ("num", value)
    if isinstance(arg, RowName):
        return ("name", normalize_row_name(arg.name))
    raise TypeError(f"not a symbolizable argument: {arg!r}")


def _symbolic_steps(program: Program, table: dict) -> tuple[SymbolicStep, ...]:
    steps = []
    for step in program.steps:
        args: list[SymbolicArg] = []
        for arg in step.args:
            if isinstance(arg, StepRef):
                args.append(("step", arg.index))
                continue
            args.append(("sym", table.setdefault(_symbol_key(arg), len(table))))
        steps.append(SymbolicStep(op=step.op, args=tuple(args)))
    return tuple(steps)


def pair_symbolize(p1: Program, p2: Program) -> tuple[SymbolicProgram, SymbolicProgram]:
    """Symbolize two programs over one shared symbol table."""
    table: dict = {}
    steps1 = _symbolic_steps(p1, table)
    steps2 = _symbolic_steps(p2, table)
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
    parents, in part order. Returns the instructions for ``_evaluate`` (and,
    through ``_modular_plan``, for ``_evaluate_mod_p``) and the position of
    each root's value.
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


_P = 2**61 - 1  # a Mersenne prime: residues fit in a machine word


def _modular_plan(plan: list) -> list:
    """``plan`` with each leaf's argument rendered once as the tail of its hash input.

    A leaf's value at ``trial`` is ``_hashed_int(seed, (trial, *arg))``, the
    hash of ``repr((seed, (trial, *arg)))``; only the head of that text
    depends on the point, so the rest is encoded here, once per comparison.
    """
    return [
        (op, f", {', '.join(map(repr, arg))}))".encode() if op == "leaf" else arg, divisor)
        for op, arg, divisor in plan
    ]


def _evaluate_mod_p(plan: list, seed: int, trial: int) -> tuple[list[int], list[int]]:
    """Every planned value at one sample point over Z_p, from a ``_modular_plan``.

    A value is a pair of numerator and denominator residues, so no modular
    inverse is taken: sums cross-multiply, and a product raises each part to
    its weight with ``pow``, the pair swapped for a negative weight. Leaves
    take the residues of their exact sample values (``_hashed_int``), so
    every value but an ``exp``'s is the image in Z_p of its exact rational
    value at the same point. ``exp`` stays uninterpreted, hashed on its
    operands' residues: the only place an inverse is taken, and only for a
    denominator other than 1. Raises _SamplingError as soon as a divisor's
    numerator is 0 mod p or a boolean would enter arithmetic; ``">"`` forms,
    which need the order Z_p lacks, fail the point too.
    """
    head = hashlib.blake2b(f"({seed!r}, ({trial}".encode(), digest_size=8)
    nums: list[int] = []
    dens: list[int] = []
    for op, arg, divisor in plan:
        den = 1
        if op == "leaf":
            digest = head.copy()  # hashing the head once per point
            digest.update(arg)
            value = int.from_bytes(digest.digest(), "big") % 2**63 - 2**62
            num = (value if value != 0 else 1) % _P  # as _hashed_int
        elif op == "+":
            num = 0
            for weight, i in arg:
                n, d = nums[i], dens[i]
                if den == 1 and d == 1:
                    num += weight * n
                else:
                    num = (num * d + weight * n * den) % _P
                    den = den * d % _P
            num %= _P
        elif op == "*":
            num = 1
            for weight, i in arg:
                n, d = nums[i], dens[i]
                if weight < 0:
                    n, d, weight = d, n, -weight
                if weight != 1:
                    n = pow(n, weight, _P)
                    d = pow(d, weight, _P) if d != 1 else 1
                num = num * n % _P
                if d != 1:
                    den = den * d % _P
        elif op == "^":
            # Uninterpreted: keyed by operand residues, shared across the pair.
            base, exponent = (
                nums[i] if dens[i] == 1 else nums[i] * pow(dens[i], -1, _P) % _P for _, i in arg
            )
            num = _hashed_int(seed, (trial, "pow", base, exponent)) % _P
        else:
            raise _SamplingError(op)
        if divisor and num == 0:
            raise _SamplingError("division by zero")
        nums.append(num)
        dens.append(den)
    return nums, dens


def _agree_exactly(plan: list, roots: tuple[int, int], seed: int, trial: int) -> bool:
    """Whether both roots take one value at ``trial``, in exact rational arithmetic."""
    values = _evaluate(plan, seed, trial)
    return values[roots[0]] == values[roots[1]]


def _agree_mod_p(plan: list, roots: tuple[int, int], seed: int, trial: int) -> bool:
    """Whether both roots take one value at ``trial`` over Z_p: nL * dR == nR * dL."""
    nums, dens = _evaluate_mod_p(plan, seed, trial)
    left, right = roots
    return (nums[left] * dens[right] - nums[right] * dens[left]) % _P == 0


def _sample(agree, points: int, trials: int) -> str:
    """The reason decided by ``agree(trial)`` over the first ``points`` evaluable trials.

    A trial that raises _SamplingError is skipped; after ``trials`` trials
    without ``points`` agreeing ones the comparison is degenerate.
    """
    agreed = 0
    for trial in range(trials):
        if agreed >= points:
            break
        try:
            if not agree(trial):
                return "counterexample"
        except _SamplingError:
            continue
        agreed += 1
    return "randomized-agreement" if agreed >= points else "degenerate"


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
) -> EquivalenceReport:
    """Full equivalence decision with the canonical forms it was based on.

    Reasons: canonical-match, randomized-agreement, counterexample,
    incomparable-types (one program ends in a boolean, the other a number),
    degenerate (no evaluable sample points exist outside the canonical match).

    Pairs whose keys differ are compared at ``samples`` evaluable random
    points, drawn from at most ``20 * samples`` trials; ``samples`` below 1
    raises ValueError, since no point would then be checked. Points are
    evaluated over Z_p and an agreement is confirmed at one exact point;
    pairs ending in ``greater`` are evaluated exactly at every point.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    s1, s2 = pair_symbolize(p1, p2)
    left = to_expression(s1)
    right = to_expression(s2)
    key_left, key_right = left.key, right.key
    if (left.op == ">") != (right.op == ">"):
        return EquivalenceReport(False, "incomparable-types", key_left, key_right)
    if key_left == key_right:
        return EquivalenceReport(True, "canonical-match", key_left, key_right)

    plan, roots = _sampling_plan((left, right), s1.symbols)
    exact = partial(_agree_exactly, plan, roots, seed)
    trials = samples * 20
    if left.op == ">":
        reason = _sample(exact, samples, trials)
    else:
        reason = _sample(partial(_agree_mod_p, _modular_plan(plan), roots, seed), samples, trials)
        if reason == "randomized-agreement":
            # Z_p errs only towards agreement: confirm it at one exact point.
            reason = _sample(exact, 1, trials)
    return EquivalenceReport(reason == "randomized-agreement", reason, key_left, key_right)


def equivalent(
    p1: Program,
    p2: Program,
    *,
    samples: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> bool:
    return compare_programs(p1, p2, samples=samples, seed=seed).equivalent


def program_accuracy(
    pred: Optional[Program],
    gold: Program,
    *,
    samples: int = DEFAULT_SAMPLE_POINTS,
    seed: int = 0,
) -> bool:
    """False for missing or invalid predictions, else the equivalence verdict."""
    if pred is None:
        return False
    if not is_valid(validate(pred, allow_symbols=True)):
        return False
    return equivalent(pred, gold, samples=samples, seed=seed)
