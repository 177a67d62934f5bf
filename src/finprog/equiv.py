"""Program accuracy: are two programs mathematically equivalent?

Arguments are first replaced by symbols shared across the compared pair
(equal numbers, constants of equal value, and identical names collapse to one
symbol). Each symbolic program is then inlined into an expression over those
symbols, normalized by flattening and sorting commutative chains, and compared
canonically. Pairs whose canonical forms differ get a randomized fallback:
both expressions are evaluated at independent random integer points in exact
rational arithmetic, so identities that normalization does not rewrite (for
example distributivity) are still recognized, with negligible false-positive
probability.

Exponentiation is treated as an uninterpreted operation on its operand values:
``exp`` chains are compared by where their bases and exponents agree, not by
power-law rewriting, which is unsound over the reals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

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


def _symbolize(program: Program, table: dict, constants) -> SymbolicProgram:
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
    return SymbolicProgram(steps=tuple(steps), symbols=())


def pair_symbolize(
    p1: Program,
    p2: Program,
    constants: Mapping[str, Fraction] | None = None,
) -> tuple[SymbolicProgram, SymbolicProgram]:
    """Symbolize two programs over one shared symbol table."""
    table: dict = {}
    s1 = _symbolize(p1, table, constants)
    s2 = _symbolize(p2, table, constants)
    symbols = tuple(key for key, _ in sorted(table.items(), key=lambda kv: kv[1]))
    return (
        SymbolicProgram(steps=s1.steps, symbols=symbols),
        SymbolicProgram(steps=s2.steps, symbols=symbols),
    )


@dataclass(frozen=True)
class Leaf:
    """A symbol, or a table aggregation applied to a row symbol."""

    label: tuple


@dataclass(frozen=True)
class Sum:
    """Signed-coefficient terms; the empty sum is zero."""

    terms: tuple[tuple[int, "Expression"], ...]


@dataclass(frozen=True)
class Prod:
    """Integer-exponent factors; the empty product is one."""

    factors: tuple[tuple["Expression", int], ...]


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: "Expression"


@dataclass(frozen=True)
class Greater:
    left: "Expression"
    right: "Expression"


Expression = Union[Leaf, Sum, Prod, Pow, Greater]


def to_expression(sp: SymbolicProgram) -> Expression:
    """Inline step references starting from the final step.

    Steps the final step never reaches are dropped: equivalence is defined by
    the produced value alone.
    """
    cache: dict[int, Expression] = {}

    def arg_expr(arg: SymbolicArg, op: str) -> Expression:
        kind, value = arg
        if kind == "step":
            return build(value)
        if op in TABLE_OPS:
            return Leaf(("agg", op, value))
        return Leaf(("sym", value))

    def build(index: int) -> Expression:
        if index in cache:
            return cache[index]
        step = sp.steps[index]
        children = [arg_expr(a, step.op) for a in step.args]
        if step.op == "add":
            node: Expression = Sum(((1, children[0]), (1, children[1])))
        elif step.op == "subtract":
            node = Sum(((1, children[0]), (-1, children[1])))
        elif step.op == "multiply":
            node = Prod(((children[0], 1), (children[1], 1)))
        elif step.op == "divide":
            node = Prod(((children[0], 1), (children[1], -1)))
        elif step.op == "exp":
            node = Pow(children[0], children[1])
        elif step.op == "greater":
            node = Greater(children[0], children[1])
        elif step.op in TABLE_OPS:
            node = children[0]
        else:
            raise ValueError(f"unknown operation {step.op!r}")
        cache[index] = node
        return node

    if not sp.steps:
        raise ValueError("empty program has no expression")
    return build(len(sp.steps) - 1)


def canonical_key(e: Expression) -> str:
    """A total order on canonical expressions; equal keys mean equal forms."""
    if isinstance(e, Leaf):
        if e.label[0] == "sym":
            return f"s{e.label[1]}"
        return f"{e.label[1]}[s{e.label[2]}]"
    if isinstance(e, Sum):
        inner = " ".join(f"{coef}*{canonical_key(x)}" for coef, x in e.terms)
        return f"(+ {inner})"
    if isinstance(e, Prod):
        inner = " ".join(f"{canonical_key(x)}^{exp}" for x, exp in e.factors)
        return f"(* {inner})"
    if isinstance(e, Pow):
        return f"(^ {canonical_key(e.base)} {canonical_key(e.exponent)})"
    return f"(> {canonical_key(e.left)} {canonical_key(e.right)})"


def normalize(e: Expression) -> Expression:
    """AC-flatten and sort commutative chains into a canonical form.

    Sums of sums merge with sign distribution and like terms collect integer
    coefficients; products of products merge with exponent multiplication and
    like bases collect exponents. Zero coefficients and zero exponents drop
    out, so a/a normalizes to one as a rational function. Pow and Greater
    children are normalized in place but never reordered.
    """
    if isinstance(e, Leaf):
        return e
    if isinstance(e, Sum):
        coefficients: dict[str, tuple[int, Expression]] = {}

        def add_term(coef: int, child: Expression) -> None:
            if isinstance(child, Sum):
                for inner_coef, inner in child.terms:
                    add_term(coef * inner_coef, inner)
                return
            key = canonical_key(child)
            old_coef, _ = coefficients.get(key, (0, child))
            coefficients[key] = (old_coef + coef, child)

        for coef, child in e.terms:
            add_term(coef, normalize(child))
        terms = tuple(
            (coef, child)
            for key, (coef, child) in sorted(coefficients.items())
            if coef != 0
        )
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(terms)
    if isinstance(e, Prod):
        exponents: dict[str, tuple[int, Expression]] = {}

        def add_factor(exp: int, child: Expression) -> None:
            if isinstance(child, Prod):
                for inner, inner_exp in child.factors:
                    add_factor(exp * inner_exp, inner)
                return
            key = canonical_key(child)
            old_exp, _ = exponents.get(key, (0, child))
            exponents[key] = (old_exp + exp, child)

        for child, exp in e.factors:
            add_factor(exp, normalize(child))
        factors = tuple(
            (child, exp)
            for key, (exp, child) in sorted(exponents.items())
            if exp != 0
        )
        if len(factors) == 1 and factors[0][1] == 1:
            return factors[0][0]
        return Prod(factors)
    if isinstance(e, Pow):
        return Pow(normalize(e.base), normalize(e.exponent))
    if isinstance(e, Greater):
        return Greater(normalize(e.left), normalize(e.right))
    raise TypeError(f"not an expression: {e!r}")


class _SamplingError(Exception):
    """Division by zero (or similar) at one sample point; the point is retried."""


def _hashed_int(seed: int, parts: tuple) -> int:
    """A reproducible pseudo-random nonzero integer in [-2**62, 2**62]."""
    digest = hashlib.blake2b(repr((seed, parts)).encode(), digest_size=8).digest()
    value = int.from_bytes(digest, "big") % (2**63) - 2**62
    return value if value != 0 else 1


def _point_assignment(sp: SymbolicProgram, seed: int, trial: int) -> dict[tuple, Fraction]:
    """Symbol values for one sample point, keyed by symbol identity.

    Keying by identity rather than id keeps assignments stable regardless of
    the order the pair was symbolized in, so equivalence is symmetric.
    """
    return {
        ("sym", i): Fraction(_hashed_int(seed, (trial, key)))
        for i, key in enumerate(sp.symbols)
    }


def _eval_expression(
    e: Expression,
    values: dict[tuple, Fraction],
    sp: SymbolicProgram,
    seed: int,
    trial: int,
) -> Union[Fraction, bool]:
    if isinstance(e, Leaf):
        if e.label[0] == "sym":
            return values[e.label]
        _, op, symbol = e.label
        return Fraction(_hashed_int(seed, (trial, "agg", op, sp.symbols[symbol])))
    if isinstance(e, Sum):
        total = Fraction(0)
        for coef, child in e.terms:
            value = _eval_expression(child, values, sp, seed, trial)
            if isinstance(value, bool):
                raise _SamplingError("boolean in arithmetic")
            total += coef * value
        return total
    if isinstance(e, Prod):
        product = Fraction(1)
        for child, exp in e.factors:
            value = _eval_expression(child, values, sp, seed, trial)
            if isinstance(value, bool):
                raise _SamplingError("boolean in arithmetic")
            if value == 0 and exp < 0:
                raise _SamplingError("division by zero")
            product *= value**exp
        return product
    if isinstance(e, Pow):
        base = _eval_expression(e.base, values, sp, seed, trial)
        exponent = _eval_expression(e.exponent, values, sp, seed, trial)
        if isinstance(base, bool) or isinstance(exponent, bool):
            raise _SamplingError("boolean in arithmetic")
        # Uninterpreted: keyed by operand values, shared across the pair.
        return Fraction(_hashed_int(seed, (trial, "pow", base, exponent)))
    if isinstance(e, Greater):
        left = _eval_expression(e.left, values, sp, seed, trial)
        right = _eval_expression(e.right, values, sp, seed, trial)
        if isinstance(left, bool) or isinstance(right, bool):
            raise _SamplingError("boolean in arithmetic")
        return left > right
    raise TypeError(f"not an expression: {e!r}")


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
    left = normalize(to_expression(s1))
    right = normalize(to_expression(s2))
    key_left = canonical_key(left)
    key_right = canonical_key(right)
    if isinstance(left, Greater) != isinstance(right, Greater):
        return EquivalenceReport(False, "incomparable-types", key_left, key_right)
    if key_left == key_right:
        return EquivalenceReport(True, "canonical-match", key_left, key_right)

    agreed = 0
    budget = samples * 20
    for trial in range(budget):
        if agreed >= samples:
            break
        values = _point_assignment(s1, seed, trial)
        try:
            value_left = _eval_expression(left, values, s1, seed, trial)
            value_right = _eval_expression(right, values, s2, seed, trial)
        except _SamplingError:
            continue
        if value_left != value_right:
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
