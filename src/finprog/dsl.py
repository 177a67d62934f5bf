"""The reasoning-program language: argument types, parser, renderer, validator.

A program is a comma-separated sequence of operation steps in the concrete
syntax ``op(arg1, arg2), op(arg1), ...``. Six math operations take two
arguments each (numbers, constants, or #n references to earlier steps); four
table aggregations take a single row name. The grammar is documented as EBNF
in docs/grammar.md.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Optional, Union

from .context import EvidenceContext
from .frozen import Frozen, set_field
from .numeric import MAX_NUMBER_DIGITS, NotANumber, _fits, exact_ratio, format_decimal, parse_mantissa

MATH_OPS = ("add", "subtract", "multiply", "divide", "exp", "greater")
TABLE_OPS = ("table-sum", "table-average", "table-max", "table-min")
ALL_OPS = MATH_OPS + TABLE_OPS

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

#: The most steps a program may have. Reported calculations take a handful;
#: at this bound an add chain, an alternating add/multiply chain and a chain
#: that uses each step twice all decide in ``compare_programs`` within tens
#: of milliseconds, and a longer sum costs more than linearly more.
#: docs/grammar.md gives the measurements.
MAX_PROGRAM_STEPS = 128

_CONST_NAME_RE = re.compile(r"const_(m)?([0-9]+(?:\.[0-9]+)?)")
_STEP_REF_RE = re.compile(r"#([0-9]+)")


def arity(op: str) -> int:
    return 1 if op in TABLE_OPS else 2


def result_kind(op: str) -> str:
    """'bool' for the comparison operation, 'number' for everything else."""
    return "bool" if op == "greater" else "number"


def constant_value(name: str) -> Fraction | None:
    """Value of a constant name, or None when it cannot be resolved.

    Names outside ``DEFAULT_CONSTANTS`` still resolve when they follow the
    ``const_<number>`` / ``const_m<number>`` spelling and their value is
    within MAX_NUMBER_DIGITS; the validator marks those with a warning.
    """
    if name in DEFAULT_CONSTANTS:
        return DEFAULT_CONSTANTS[name]
    m = _CONST_NAME_RE.fullmatch(name)
    if m is None or not _fits(value := Decimal(m.group(2))):
        return None
    ratio = Fraction(*exact_ratio(value))
    return -ratio if m.group(1) else ratio


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


class NumberLiteral(Frozen):
    """A number written directly in the program, decoration stripped; finite, within MAX_NUMBER_DIGITS."""

    __slots__ = __match_args__ = ("value",)
    value: Decimal

    def __init__(self, value: Decimal):
        if not _fits(value):
            raise ProgramError(f"a number literal must be finite, with terms of at most {MAX_NUMBER_DIGITS} digits")
        set_field(self, "value", value)

    def render(self) -> str:
        return format_decimal(self.value)


class Constant(Frozen):
    """A named constant that ``constant_value`` resolves."""

    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str):
        if constant_value(name) is None:
            raise ProgramError(f"unknown constant {name!r}")
        set_field(self, "name", name)

    def render(self) -> str:
        return self.name


class RowName(Frozen):
    """A table row reference, or a free symbol in symbolic programs."""

    __slots__ = __match_args__ = ("name",)
    name: str

    def __init__(self, name: str):
        if not name or any(c in name for c in "(),"):
            raise ProgramError(f"row name cannot be rendered: {name!r}")
        if _STEP_REF_RE.fullmatch(name):
            raise ProgramError(f"row name would read as a step reference: {name!r}")
        set_field(self, "name", name)

    def render(self) -> str:
        return self.name


class StepRef(Frozen):
    """#n, the result of the n-th earlier step."""

    __slots__ = __match_args__ = ("index",)
    index: int

    def __init__(self, index: int):
        if index < 0:
            raise ProgramError("step index must be non-negative")
        set_field(self, "index", index)

    def render(self) -> str:
        return f"#{self.index}"


Argument = Union[NumberLiteral, Constant, RowName, StepRef]


class OperationStep(Frozen):
    """A known operation with its arity and arguments; a table operation's argument is a row name."""

    __slots__ = __match_args__ = ("op", "args")
    op: str
    args: tuple[Argument, ...]

    def __init__(self, op: str, args: tuple[Argument, ...]):
        if op not in ALL_OPS:
            raise UnknownOperation(f"unknown operation {op!r}")
        if len(args) != arity(op):
            raise ArityError(f"{op} takes {arity(op)} argument(s), got {len(args)}")
        for arg in args:
            if not isinstance(arg, (NumberLiteral, Constant, RowName, StepRef)):
                raise ProgramError(f"{op} takes program arguments, not {arg!r}")
        if op in TABLE_OPS and not isinstance(args[0], RowName):
            raise ProgramError(f"{op} takes a table row name, not {args[0]!r}")
        set_field(self, "op", op)
        set_field(self, "args", args)

    def render(self) -> str:
        return f"{self.op}({', '.join(a.render() for a in self.args)})"


class Program(Frozen):
    """One to MAX_PROGRAM_STEPS steps; every step reference points to an earlier step that is not a ``greater``."""

    __slots__ = __match_args__ = ("steps",)
    steps: tuple[OperationStep, ...]

    def __init__(self, steps: tuple[OperationStep, ...]):
        if not steps:
            raise ProgramError("a program needs at least one step")
        if len(steps) > MAX_PROGRAM_STEPS:
            raise ProgramError(f"a program may have at most {MAX_PROGRAM_STEPS} steps")
        for i, step in enumerate(steps):
            for arg in step.args:
                if not isinstance(arg, StepRef):
                    continue
                if arg.index >= i:
                    raise ForwardStepRef(
                        f"step {i} references #{arg.index}, which is not an earlier step"
                    )
                if steps[arg.index].op == "greater":
                    raise ProgramError(
                        f"step {i} feeds the boolean result of step {arg.index} into {step.op}"
                    )
        set_field(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


#: The punctuation tokens; every other token is an atom.
PUNCTUATION = ("(", ")", ",")
_PUNCT = frozenset(PUNCTUATION)

# An atom as the token reader reads it: everything between two punctuation
# marks, less surrounding whitespace. re's \s is exactly str.isspace.
_ATOM = r"[^(),\s](?:[^(),]*[^(),\s])?"
_TOKEN_RE = re.compile(rf"[(),]|{_ATOM}")


def _padded(name: str) -> str:
    # Python's lookahead never backtracks, so a line that does not match is
    # refused in linear time, not after trying every shorter atom or space run.
    return rf"(?=(?P<_{name}>\s*(?P<{name}>{_ATOM})\s*))(?P=_{name})"


# One step with one or two arguments, and the whitespace around it.
_STEP_RE = re.compile(rf"{_padded('op')}\({_padded('first')}(?:,{_padded('second')})?\)\s*")


def tokenize_program(text: str, start: int = 0) -> Iterator[tuple[str, int]]:
    """Split program text from ``start`` into (token, offset) pairs, left to right, as they are read.

    Punctuation tokens are "(", ")" and ","; everything between them becomes
    a single trimmed atom, so row names may contain spaces. Atoms therefore
    cannot contain commas; program numbers are written without thousands
    separators.
    """
    return ((m.group(), m.start()) for m in _TOKEN_RE.finditer(text, start))


def _argument(op: str, step_index: int, atom: str) -> Argument:
    m = _STEP_REF_RE.fullmatch(atom)
    if m is not None:
        digits = m.group(1).lstrip("0") or "0"
        # Lengths first: int() refuses a string of more than 4,300 digits.
        if len(digits) > len(str(step_index)) or int(digits) >= step_index:
            raise ForwardStepRef(
                f"step {step_index} references #{digits}, which is not an earlier step"
            )
        return StepRef(int(digits))
    if op in TABLE_OPS:
        return RowName(atom)
    if atom.startswith("const_"):
        return Constant(atom)
    try:
        return NumberLiteral(parse_mantissa(atom))
    except NotANumber:
        return RowName(atom)


def _matched_step(m: re.Match, step_index: int) -> OperationStep | None:
    """The step of a ``_STEP_RE`` match, or None when the token reader must read it for its error."""
    op, first, second = m.group("op", "first", "second")
    try:
        if second is None:
            return OperationStep(op, (_argument(op, step_index, first),))
        return OperationStep(op, (_argument(op, step_index, first), _argument(op, step_index, second)))
    except ProgramError:
        return None


class _Parser:
    """The token reader: reads the grammar one token at a time and names the first token that breaks it."""

    def __init__(self, text: str, start: int = 0):
        self.text = text
        # Read lazily, so that a refused program's remaining text is never split.
        self.tokens = tokenize_program(text, start)
        self.ahead = next(self.tokens, None)

    def _next(self, expected: tuple[str, ...]) -> tuple[str, int]:
        tok = self.ahead
        if tok is None:
            raise ProgramSyntaxError("unexpected end of program", len(self.text), expected)
        self.ahead = next(self.tokens, None)
        return tok

    def _expect_punct(self, punct: str) -> None:
        tok, off = self._next((f"'{punct}'",))
        if tok != punct:
            raise ProgramSyntaxError(f"unexpected token {tok!r}", off, (f"'{punct}'",))

    def _step(self, step_index: int) -> OperationStep:
        name, off = self._next(("operation name",))
        if name in _PUNCT:
            raise ProgramSyntaxError(f"unexpected token {name!r}", off, ("operation name",))
        if name not in ALL_OPS:
            raise UnknownOperation(f"unknown operation {name!r} at position {off}")
        self._expect_punct("(")
        count = arity(name)
        args: list[Argument] = []
        while True:
            atom, aoff = self._next(("argument",))
            if atom in _PUNCT:
                raise ProgramSyntaxError(f"unexpected token {atom!r}", aoff, ("argument",))
            args.append(_argument(name, step_index, atom))
            sep, soff = self._next(("','", "')'"))
            if sep == ")":
                break
            if sep != ",":
                raise ProgramSyntaxError(f"unexpected token {sep!r}", soff, ("','", "')'"))
            if len(args) == count:  # refused here, so no argument past the arity is read
                raise ArityError(
                    f"{name} takes {count} argument(s), got more than {count} (step {step_index})"
                )
        if len(args) != count:
            raise ArityError(f"{name} takes {count} argument(s), got {len(args)} (step {step_index})")
        if name in TABLE_OPS and isinstance(args[0], StepRef):
            # Checked after the step's other rules, so each keeps its message.
            raise ProgramSyntaxError(f"{name} takes a table row name, not a step reference", aoff)
        return OperationStep(op=name, args=tuple(args))

    def parse(self, steps: list[OperationStep]) -> Program:
        """Read the rest of the program after ``steps``: from its start, or from the ',' after the last of them."""
        if not steps:
            steps.append(self._step(0))
        # Reading stops one step past the bound, where Program refuses the steps.
        while self.ahead is not None and len(steps) <= MAX_PROGRAM_STEPS:
            text, off = self._next(("','", "end of program"))
            if text != ",":
                raise ProgramSyntaxError(f"unexpected token {text!r}", off, ("','", "end of program"))
            steps.append(self._step(len(steps)))
        return Program(steps=tuple(steps))


def parse_program(text: str) -> Program:
    """Parse program text into a Program, which is well-formed by construction.

    Whitespace-insensitive. Numbers may carry $ or % decoration, which is
    stripped to the mantissa. Raises ProgramSyntaxError (also for a step
    reference as a table operation's argument), UnknownOperation, ArityError,
    ForwardStepRef, or the constructors' ProgramError for an unknown constant,
    a number past MAX_NUMBER_DIGITS, a ``greater`` result used as an operand,
    or more than MAX_PROGRAM_STEPS steps (the text past the bound is not read).

    Each well-formed step is read with one ``_STEP_RE`` match. From the first
    step that the match does not read, or that breaks a rule of the
    constructors, the token reader reads on, keeping the steps already read;
    so every error keeps the class, message and position the token reader
    gives.
    """
    steps: list[OperationStep] = []
    resume = start = 0
    while True:
        m = _STEP_RE.match(text, start)
        step = None if m is None else _matched_step(m, len(steps))
        if step is None:
            return _Parser(text, resume).parse(steps)
        steps.append(step)
        resume = m.end()
        if resume == len(text) or len(steps) > MAX_PROGRAM_STEPS:
            return Program(steps=tuple(steps))
        if text[resume] != ",":
            return _Parser(text, resume).parse(steps)
        start = resume + 1


def render_program(program: Program) -> str:
    """Canonical text for a program; parse_program inverts it exactly."""
    return ", ".join(step.render() for step in program.steps)


class Diagnostic(NamedTuple):
    code: str
    message: str
    step: int | None = None
    severity: str = "error"


def is_valid(diagnostics: list[Diagnostic]) -> bool:
    return not any(d.severity == "error" for d in diagnostics)


def argument_error(
    op: str, arg: Argument, ctx: Optional[EvidenceContext], *, matched: bool
) -> Optional[tuple[str, str]]:
    """The code and message of the error rule that ``arg`` breaks as an argument of ``op``, or None.

    ``validate`` and the executor both read the rules here. A row name in a
    math operation is refused from the operation alone. A row name in a table
    operation is refused when the caller, who reads the table, found that it
    ``matched`` no row. A number literal is refused when ``ctx`` is given and
    its evidence does not hold the literal.
    """
    if isinstance(arg, RowName):
        if op in MATH_OPS:
            return "bad-argument-kind", f"{op} takes numbers, constants, or step references, not {arg.name!r}"
        if not matched:
            return "unknown-row-name", f"no table row matches {arg.name!r}"
    elif isinstance(arg, NumberLiteral) and ctx is not None and not ctx.mentions(arg.value):
        return "ungrounded-number", f"{arg.render()} does not appear in the evidence"
    return None


def validate(
    program: Program,
    ctx: Optional[EvidenceContext] = None,
    *,
    allow_symbols: bool = False,
) -> list[Diagnostic]:
    """Row names in math operations and nonstandard constants, plus grounding when ctx is given.

    Returns diagnostics instead of raising; an empty list means valid. With
    ``allow_symbols``, bare names in math-operation positions are accepted as
    free symbols (used when comparing symbolic programs). With a context,
    every number literal must appear in the evidence and every row name must
    resolve to a table row; duplicate row matches produce a warning.
    """
    diags: list[Diagnostic] = []
    for i, step in enumerate(program.steps):
        for arg in step.args:
            rows = ctx.table.matching_rows(arg.name) if ctx is not None and step.op in TABLE_OPS else None
            error = argument_error(step.op, arg, ctx, matched=rows is None or bool(rows))
            if error is not None:
                if not (allow_symbols and error[0] == "bad-argument-kind"):
                    diags.append(Diagnostic(*error, i))
            elif rows is not None and len(rows) > 1:
                message = f"{arg.name!r} matches rows {rows}; the first is used"
                diags.append(Diagnostic("duplicate-row-name", message, i, severity="warning"))
            elif isinstance(arg, Constant) and arg.name not in DEFAULT_CONSTANTS:
                message = f"constant {arg.name!r} is outside the configured vocabulary"
                diags.append(Diagnostic("nonstandard-constant", message, i, severity="warning"))
    return diags
