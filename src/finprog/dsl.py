"""The reasoning-program language: argument types, parser, renderer, validator.

A program is a comma-separated sequence of operation steps in the concrete
syntax ``op(arg1, arg2), op(arg1), ...``. Six math operations take two
arguments each (numbers, constants, or #n references to earlier steps); four
table aggregations take a single row name. The grammar is documented as EBNF
in docs/grammar.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, Optional, Union

from .context import EvidenceContext
from .numeric import NotANumber, format_decimal, parse_quantity

MATH_OPS = ("add", "subtract", "multiply", "divide", "exp", "greater")
TABLE_OPS = ("table-sum", "table-average", "table-max", "table-min")
ALL_OPS = MATH_OPS + TABLE_OPS

#: Diagnostic codes that only a grounded validation (one given an evidence
#: context) can produce.
GROUNDING_CODES = frozenset({"unknown-row-name", "duplicate-row-name", "ungrounded-number"})

#: Predefined constant arguments. The set covers unit conversion (const_1000),
#: percent scaling (const_100), implicit denominators (const_2..const_5), and
#: sign flips (const_m1).
DEFAULT_CONSTANTS: Mapping[str, Fraction] = {
    "const_1": Fraction(1),
    "const_2": Fraction(2),
    "const_3": Fraction(3),
    "const_4": Fraction(4),
    "const_5": Fraction(5),
    "const_10": Fraction(10),
    "const_100": Fraction(100),
    "const_1000": Fraction(1000),
    "const_1000000": Fraction(1_000_000),
    "const_m1": Fraction(-1),
}

_CONST_NAME_RE = re.compile(r"const_(m)?(\d+(?:\.\d+)?)")
_STEP_REF_RE = re.compile(r"#(\d+)")


def arity(op: str) -> int:
    return 1 if op in TABLE_OPS else 2


def result_kind(op: str) -> str:
    """'bool' for the comparison operation, 'number' for everything else."""
    return "bool" if op == "greater" else "number"


def constant_value(name: str) -> Fraction | None:
    """Value of a constant name, or None when it cannot be resolved.

    Names outside ``DEFAULT_CONSTANTS`` still resolve when they follow the
    ``const_<number>`` / ``const_m<number>`` spelling; the validator marks
    those with a warning rather than an error.
    """
    if name in DEFAULT_CONSTANTS:
        return DEFAULT_CONSTANTS[name]
    m = _CONST_NAME_RE.fullmatch(name)
    if m is None:
        return None
    value = Fraction(Decimal(m.group(2)))
    return -value if m.group(1) else value


class ProgramError(ValueError):
    """Base class for program text and structure errors."""


class ProgramSyntaxError(ProgramError):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class UnknownOperation(ProgramError):
    pass


class ArityError(ProgramError):
    pass


class ForwardStepRef(ProgramError):
    pass


@dataclass(frozen=True)
class NumberLiteral:
    """A number written directly in the program, decoration already stripped."""

    value: Decimal

    def render(self) -> str:
        return format_decimal(self.value)


@dataclass(frozen=True)
class Constant:
    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class RowName:
    """A table row reference, or a free symbol in symbolic programs."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in "(),"):
            raise ValueError(f"row name cannot be rendered: {self.name!r}")
        if _STEP_REF_RE.fullmatch(self.name):
            raise ValueError(f"row name would read as a step reference: {self.name!r}")

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class StepRef:
    """#n, the result of the n-th earlier step."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("step index must be non-negative")

    def render(self) -> str:
        return f"#{self.index}"


Argument = Union[NumberLiteral, Constant, RowName, StepRef]


@dataclass(frozen=True)
class OperationStep:
    """A known operation with its arity; a table operation's argument is a row name."""

    op: str
    args: tuple[Argument, ...]

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise UnknownOperation(f"unknown operation {self.op!r}")
        if len(self.args) != arity(self.op):
            raise ArityError(f"{self.op} takes {arity(self.op)} argument(s), got {len(self.args)}")
        if self.op in TABLE_OPS and not isinstance(self.args[0], RowName):
            raise ProgramError(f"{self.op} takes a table row name, not {self.args[0]!r}")

    def render(self) -> str:
        return f"{self.op}({', '.join(a.render() for a in self.args)})"


@dataclass(frozen=True)
class Program:
    """At least one step; every step reference points to an earlier step."""

    steps: tuple[OperationStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ProgramError("a program needs at least one step")
        for i, step in enumerate(self.steps):
            for arg in step.args:
                if isinstance(arg, StepRef) and arg.index >= i:
                    raise ForwardStepRef(
                        f"step {i} references #{arg.index}, which is not an earlier step"
                    )

    def __len__(self) -> int:
        return len(self.steps)


_PUNCT = frozenset("(),")


def tokenize_program(text: str) -> list[tuple[str, int]]:
    """Split program text into (token, offset) pairs.

    Punctuation tokens are "(", ")" and ","; everything between them becomes
    a single trimmed atom, so row names may contain spaces. Atoms therefore
    cannot contain commas; program numbers are written without thousands
    separators.
    """
    tokens: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append((c, i))
            i += 1
            continue
        j = i
        while j < n and text[j] not in _PUNCT:
            j += 1
        tokens.append((text[i:j].strip(), i))
        i = j
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize_program(text)
        self.i = 0

    def _peek(self) -> tuple[str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, expected: tuple[str, ...]) -> tuple[str, int]:
        tok = self._peek()
        if tok is None:
            raise ProgramSyntaxError("unexpected end of program", len(self.text), expected)
        self.i += 1
        return tok

    def _expect_punct(self, punct: str) -> None:
        tok, off = self._next((f"'{punct}'",))
        if tok != punct:
            raise ProgramSyntaxError(f"unexpected token {tok!r}", off, (f"'{punct}'",))

    def _argument(self, op: str, step_index: int, off: int, atom: str) -> Argument:
        if not atom:
            raise ProgramSyntaxError("missing argument", off, ("argument",))
        m = _STEP_REF_RE.fullmatch(atom)
        if m is not None:
            index = int(m.group(1))
            if index >= step_index:
                raise ForwardStepRef(
                    f"step {step_index} references #{index}, which is not an earlier step"
                )
            return StepRef(index)
        if op in TABLE_OPS:
            return RowName(atom)
        if atom.startswith("const_"):
            return Constant(atom)
        try:
            return NumberLiteral(parse_quantity(atom).mantissa)
        except NotANumber:
            return RowName(atom)

    def _step(self, step_index: int) -> OperationStep:
        name, off = self._next(("operation name",))
        if name in _PUNCT or not name:
            raise ProgramSyntaxError(f"unexpected token {name!r}", off, ("operation name",))
        if name not in ALL_OPS:
            raise UnknownOperation(f"unknown operation {name!r} at position {off}")
        self._expect_punct("(")
        args: list[Argument] = []
        while True:
            atom, aoff = self._next(("argument",))
            if atom in _PUNCT:
                raise ProgramSyntaxError(f"unexpected token {atom!r}", aoff, ("argument",))
            args.append(self._argument(name, step_index, aoff, atom))
            sep, soff = self._next(("','", "')'"))
            if sep == ")":
                break
            if sep != ",":
                raise ProgramSyntaxError(f"unexpected token {sep!r}", soff, ("','", "')'"))
        if len(args) != arity(name):
            raise ArityError(
                f"{name} takes {arity(name)} argument(s), got {len(args)} (step {step_index})"
            )
        if name in TABLE_OPS and isinstance(args[0], StepRef):
            # Checked after the step's other rules, so each keeps its message.
            raise ProgramSyntaxError(f"{name} takes a table row name, not a step reference", aoff)
        return OperationStep(op=name, args=tuple(args))

    def parse(self) -> Program:
        steps = [self._step(0)]
        while True:
            tok = self._peek()
            if tok is None:
                break
            text, off = tok
            if text != ",":
                raise ProgramSyntaxError(f"unexpected token {text!r}", off, ("','", "end of program"))
            self.i += 1
            steps.append(self._step(len(steps)))
        return Program(steps=tuple(steps))


def parse_program(text: str) -> Program:
    """Parse program text into a Program, which is well-formed by construction.

    Whitespace-insensitive. Numbers may carry $ or % decoration, which is
    stripped to the mantissa. Raises ProgramSyntaxError (also for a step
    reference as a table operation's argument), UnknownOperation, ArityError,
    or ForwardStepRef.
    """
    return _Parser(text).parse()


def render_program(program: Program) -> str:
    """Canonical text for a program; parse_program inverts it exactly."""
    return ", ".join(step.render() for step in program.steps)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    step: int | None = None
    severity: str = "error"


def is_valid(diagnostics: list[Diagnostic]) -> bool:
    return not any(d.severity == "error" for d in diagnostics)


def validate(
    program: Program,
    ctx: Optional[EvidenceContext] = None,
    *,
    allow_symbols: bool = False,
) -> list[Diagnostic]:
    """Argument checks a well-formed Program can fail, plus grounding when ctx is given.

    Returns diagnostics instead of raising; an empty list means valid. With
    ``allow_symbols``, bare names in math-operation positions are accepted as
    free symbols (used when comparing symbolic programs). With a context,
    every number literal must appear in the evidence and every row name must
    resolve to a table row; duplicate row matches produce a warning.
    """
    diags: list[Diagnostic] = []
    kinds: list[str] = []
    for i, step in enumerate(program.steps):
        kinds.append(result_kind(step.op))
        for arg in step.args:
            if isinstance(arg, StepRef):
                if kinds[arg.index] == "bool":
                    diags.append(
                        Diagnostic(
                            "boolean-step-in-arithmetic",
                            f"step {i} feeds the boolean result of step {arg.index} into {step.op}",
                            i,
                        )
                    )
            elif isinstance(arg, RowName):
                if step.op in MATH_OPS and not allow_symbols:
                    diags.append(
                        Diagnostic(
                            "bad-argument-kind",
                            f"{step.op} takes numbers, constants, or step references, not {arg.name!r}",
                            i,
                        )
                    )
                elif step.op in TABLE_OPS and ctx is not None:
                    matches = ctx.table.matching_rows(arg.name)
                    if not matches:
                        diags.append(
                            Diagnostic(
                                "unknown-row-name",
                                f"no table row matches {arg.name!r}",
                                i,
                            )
                        )
                    elif len(matches) > 1:
                        diags.append(
                            Diagnostic(
                                "duplicate-row-name",
                                f"{arg.name!r} matches rows {matches}; the first is used",
                                i,
                                severity="warning",
                            )
                        )
            elif isinstance(arg, Constant):
                if arg.name not in DEFAULT_CONSTANTS:
                    if constant_value(arg.name) is None:
                        diags.append(
                            Diagnostic(
                                "unknown-constant",
                                f"constant {arg.name!r} is not defined",
                                i,
                            )
                        )
                    else:
                        diags.append(
                            Diagnostic(
                                "nonstandard-constant",
                                f"constant {arg.name!r} is outside the configured vocabulary",
                                i,
                                severity="warning",
                            )
                        )
            elif isinstance(arg, NumberLiteral):
                if ctx is not None and arg.value not in ctx.number_values:
                    diags.append(
                        Diagnostic(
                            "ungrounded-number",
                            f"{arg.render()} does not appear in the evidence",
                            i,
                        )
                    )
    return diags
