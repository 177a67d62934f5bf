"""Program execution over evidence contexts, in exact rational arithmetic.

Inside ``execute`` every step's result is an exact rational kept as a
reduced integer pair (numerator, denominator) with a positive denominator,
or a bool for the comparison operation; only the value returned is built as
a Fraction. So repeated runs and independently written interpreters agree
bit for bit. Errors are raised, never coerced; an erroring prediction simply
scores incorrect during evaluation.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from typing import Optional, Union

from .context import EvidenceContext
from .dsl import (
    TABLE_OPS,
    Constant,
    NumberLiteral,
    Program,
    StepRef,
    argument_error,
    constant_value,
)
from .numeric import decimal_places, format_decimal

#: A result of ``execute``: exact number, or bool from `greater`.
Value = Union[Fraction, bool]

#: An exact number inside ``execute``: (numerator, denominator) in lowest
#: terms, the denominator positive, as ``as_integer_ratio()`` gives it.
Pair = tuple[int, int]


class ExecutionError(Exception):
    """Base class for runtime program failures."""


class InvalidProgram(ExecutionError):
    """A row name where a number belongs (validate flags it as bad-argument-kind)."""


class DivisionByZero(ExecutionError):
    pass


class RowNotFound(ExecutionError):
    pass


class EmptyNumericRow(ExecutionError):
    pass


class UngroundedNumber(ExecutionError):
    """Strict mode only: a literal that appears nowhere in the evidence."""


class DomainError(ExecutionError):
    """Exponentiation outside the real domain, or a result beyond MAX_POWER_BITS."""


def _iroot(n: int, k: int) -> int | None:
    """The exact integer k-th root of n >= 0, or None if n is not a k-th power."""
    if n.bit_length() <= k:  # n < 2**k, so its root is 0 or 1
        return n if n < 2 else None
    if k == 2:
        root = math.isqrt(n)
    else:
        # Integer Newton steps from a float estimate good to about 50 bits:
        # the first step lands at or above the floor of the root, and from
        # there the steps decrease to it, converging quadratically.
        def step(x: int) -> int:
            return ((k - 1) * x + n // x ** (k - 1)) // k

        estimate = math.log2(n) / k
        shift = max(int(estimate) - 52, 0)  # keep the float in range
        root = step(int(2 ** (estimate - shift)) << shift)
        while (smaller := step(root)) < root:
            root = smaller
    return root if root**k == n else None


#: The largest size, in bits, of a step result's larger term (numerator or
#: denominator). Past it ``execute`` raises DomainError rather than keep a
#: number whose exact decimal rendering alone takes seconds: at the bound,
#: rendering takes under 0.1 s on a 2-vCPU host. ``power`` checks an estimate
#: first, without building the number: |n| times the bit length of the base's
#: larger term for an integer exponent n, the same from p and the base's exact
#: q-th root for p/q; bases 0 and ±1 are exempt. Growth-rate programs stay
#: far below the bound (1.07 ** 2340 is about at it).
MAX_POWER_BITS = 2**14


def power(base: Fraction, exponent: Fraction) -> Fraction:
    """number1 ** number2 with exact results whenever they exist.

    Integer exponents are always exact. A fractional exponent p/q yields the
    exact rational result when the base has an exact q-th root; otherwise
    the result is computed in floating point and widened. Negative bases with
    fractional exponents are a DomainError, as is an exact result estimated
    larger than MAX_POWER_BITS; 0 raised to a negative power is a
    DivisionByZero.
    """
    if exponent.denominator != 1:
        if base < 0:
            raise DomainError("negative base with a fractional exponent")
        # With p/q in lowest terms, (a/b) ** (p/q) is rational exactly when
        # a and b are q-th powers; no power of the base is built to find out.
        num = _iroot(base.numerator, exponent.denominator)
        den = _iroot(base.denominator, exponent.denominator)
        if num is None or den is None:
            try:
                return Fraction(float(base) ** float(exponent))
            except (OverflowError, ValueError) as exc:
                raise DomainError(f"exponentiation out of range: {exc}") from exc
        base = Fraction(num, den)
    n = exponent.numerator
    if base == 0 and n < 0:
        raise DivisionByZero("0 cannot be raised to a negative power")
    if base != 0 and abs(base) != 1:
        size = abs(n) * max(base.numerator.bit_length(), base.denominator.bit_length())
        if size > MAX_POWER_BITS:
            raise DomainError(f"result of about {size} bits exceeds the {MAX_POWER_BITS}-bit bound")
    return base**n


def _reduced(numerator: int, denominator: int) -> Pair:
    """numerator/denominator in lowest terms, for a positive denominator."""
    g = math.gcd(numerator, denominator)
    return numerator // g, denominator // g


def _greater(a: Pair, b: Pair) -> bool:
    return a[0] * b[1] > b[0] * a[1]


def aggregate_row(cells: list[Pair], kind: str) -> Pair:
    """sum / average / max / min (``kind``) over one row's numeric cells; any other kind is a ValueError."""
    if kind not in ("sum", "average", "max", "min"):
        raise ValueError(f"unknown aggregation {kind!r}")
    if not cells:
        raise EmptyNumericRow("the row has no numeric cells")
    if kind in ("sum", "average"):
        n, d = 0, 1
        for cell_n, cell_d in cells:
            n, d = _reduced(n * cell_d + cell_n * d, d * cell_d)
        return (n, d) if kind == "sum" else _reduced(n, d * len(cells))
    best = cells[0]
    for cell in cells[1:]:
        if _greater(cell, best) if kind == "max" else _greater(best, cell):
            best = cell
    return best


#: The exception that ``execute`` raises for each error code of ``argument_error``.
_ARGUMENT_ERRORS = {
    "bad-argument-kind": InvalidProgram,
    "unknown-row-name": RowNotFound,
    "ungrounded-number": UngroundedNumber,
}


def execute(
    program: Program,
    ctx: Optional[EvidenceContext] = None,
    *,
    strict_grounding: bool = False,
) -> Value:
    """Run every step in order and return the final step's value.

    Steps compute on reduced integer pairs; the final value is returned as
    a Fraction, or as the bool of a final ``greater``. The default grounding
    mode is lenient (literals need not appear in the evidence), matching how
    predictions are scored; strict mode reproduces the annotation
    validator's behavior. A step's arguments are read in order, before the
    step runs: a row name is a table operation's list of numeric cell pairs,
    and one that matches no row, or that a math operation takes, does not
    resolve. That one, and in strict mode each argument, goes to
    ``argument_error``, whose code picks the exception raised. A result
    other than a ``greater`` bool whose larger term (numerator or
    denominator) has more than MAX_POWER_BITS bits raises DomainError, so no
    product or sum passes on a number that takes seconds to render.
    """
    if ctx is None:
        ctx = EvidenceContext.build(())
    grounding = ctx if strict_grounding else None
    env: list[Union[Pair, bool]] = []
    for step in program.steps:
        op = step.op
        args = []
        for arg in step.args:
            if isinstance(arg, NumberLiteral):
                value = arg.value.as_integer_ratio()
            elif isinstance(arg, Constant):
                value = constant_value(arg.name).as_integer_ratio()
            elif isinstance(arg, StepRef):
                value = env[arg.index]  # a number: a Program refuses a reference to a greater step
            else:  # a row name, read from the table by a table operation alone
                index = ctx.table.find_row(arg.name) if op in TABLE_OPS else None
                value = None if index is None else ctx.table.numeric_cells(index)
            if value is None or grounding is not None:
                error = argument_error(op, arg, grounding, matched=value is not None)
                if error is not None:
                    code, message = error
                    raise _ARGUMENT_ERRORS[code](message)
            args.append(value)
        if op == "greater":
            env.append(_greater(*args))
            continue
        if op in TABLE_OPS:
            result = aggregate_row(args[0], op.removeprefix("table-"))
        else:
            (an, ad), (bn, bd) = args
            if op == "add":
                result = _reduced(an * bd + bn * ad, ad * bd)
            elif op == "subtract":
                result = _reduced(an * bd - bn * ad, ad * bd)
            elif op == "multiply":
                result = _reduced(an * bn, ad * bd)
            elif op == "divide":
                if bn == 0:
                    raise DivisionByZero("division by zero")
                result = _reduced(an * bd, ad * bn) if bn > 0 else _reduced(-an * bd, -ad * bn)
            else:
                result = power(Fraction(an, ad), Fraction(bn, bd)).as_integer_ratio()
        size = max(result[0].bit_length(), result[1].bit_length())
        if size > MAX_POWER_BITS:
            raise DomainError(f"result of {size} bits exceeds the {MAX_POWER_BITS}-bit bound")
        env.append(result)
    result = env[-1]
    return result if isinstance(result, bool) else Fraction(*result)


#: Decimal arithmetic that never rounds, whatever the number of digits.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def render_value(value: Value) -> str:
    """Serialize a result: booleans as yes/no, rationals as exact decimals.

    Every digit is kept, and non-terminating rationals render as
    numerator/denominator, to avoid any silent rounding; the evaluation layer
    compares exact values, never text. Integers are written through
    ``Decimal``, which, unlike ``str``, has no digit limit, so every result
    within MAX_POWER_BITS renders.
    """
    if isinstance(value, bool):
        return "yes" if value else "no"
    places = decimal_places(value)
    if places is None:
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
    digits = value.numerator * 10**places // value.denominator  # exact: the denominator divides 10**places
    return format_decimal(Decimal(digits).scaleb(-places, _EXACT))
