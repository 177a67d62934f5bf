"""Grammar-constrained decoding: legal next-token masks over program tokens.

The decoder alphabet has three disjoint parts: tokens harvested from the
evidence (numbers and table row names), the language's own special tokens
(operation names, constants, punctuation), and step memory tokens #0..#K-1.
A mask at each position admits exactly the tokens that keep the prefix
extensible to a valid program, so every completed walk parses and validates.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Iterable, NamedTuple

from .context import EvidenceContext
from .dsl import (
    DEFAULT_CONSTANTS,
    MATH_OPS,
    MAX_PROGRAM_STEPS,
    PUNCTUATION,
    TABLE_OPS,
    NumberLiteral,
    ProgramError,
    RowName,
    arity,
    result_kind,
)

class IllegalToken(ValueError):
    """A token outside the current mask was fed to the decoder."""


class TokenVocabulary(NamedTuple):
    """The candidate tokens for one evidence context.

    ``input_numbers`` and ``input_rows`` come from the evidence, the
    constants are ``DEFAULT_CONSTANTS``, and ``max_steps`` bounds the step
    memory tokens to #0..#(max_steps-1).
    """

    input_numbers: tuple[str, ...]
    input_rows: tuple[str, ...]
    max_steps: int
    #: The language's own tokens: a class attribute, the same for every vocabulary.
    special_tokens = MATH_OPS + TABLE_OPS + tuple(DEFAULT_CONSTANTS) + PUNCTUATION

    @property
    def input_tokens(self) -> tuple[str, ...]:
        return self.input_numbers + self.input_rows

    @property
    def step_memory_tokens(self) -> tuple[str, ...]:
        return _step_tokens(self.max_steps)


def _step_tokens(count: int) -> tuple[str, ...]:
    """The step memory tokens #0..#(count-1)."""
    return tuple(f"#{i}" for i in range(count))


def build_vocabulary(ctx: EvidenceContext, max_steps: int) -> TokenVocabulary:
    """Collect the three token sources from an evidence context.

    Numbers and row names that no program argument can hold (past
    MAX_NUMBER_DIGITS, or with parentheses or commas) are excluded, as are
    input tokens that would collide with special or step memory tokens; the
    three partitions stay disjoint. ``max_steps`` may not exceed
    MAX_PROGRAM_STEPS (ValueError), so every completed walk parses.
    """
    if max_steps > MAX_PROGRAM_STEPS:
        raise ValueError(f"max_steps {max_steps} exceeds MAX_PROGRAM_STEPS ({MAX_PROGRAM_STEPS})")
    reserved = {*TokenVocabulary.special_tokens, *_step_tokens(max_steps)}

    def usable(tokens, argument) -> tuple[str, ...]:
        """Each token once that is not reserved and that ``argument`` builds."""
        kept: dict[str, None] = {}
        for token in tokens:
            if token in reserved or token in kept:
                continue
            try:
                argument(token)
            except ProgramError:
                continue
            kept[token] = None
        return tuple(kept)

    return TokenVocabulary(
        input_numbers=usable(ctx.number_tokens(), lambda token: NumberLiteral(Decimal(token))),
        input_rows=usable(ctx.table.row_names, RowName),
        max_steps=max_steps,
    )


# The tokens after a step's operation name, by its arity; None marks an argument.
_STEP_TEMPLATES = {1: ("(", None, ")"), 2: ("(", None, ",", None, ")")}


class DecodeState(NamedTuple):
    """An immutable position in the program grammar automaton.

    ``op`` is the operation of the step being read, None between steps, and
    ``slot`` indexes the next token in that step's template.
    """

    op: str | None = None
    slot: int = 0
    step_kinds: tuple[str, ...] = ()
    tokens: tuple[str, ...] = ()

    @property
    def completed_steps(self) -> int:
        return len(self.step_kinds)

    @property
    def is_complete(self) -> bool:
        """True when stopping here yields a parseable program."""
        return self.tokens[-1:] == (")",)

    @property
    def program_text(self) -> str:
        return " ".join(self.tokens)


def _numeric_step_refs(state: DecodeState, vocab: TokenVocabulary) -> frozenset[str]:
    steps = zip(vocab.step_memory_tokens, state.step_kinds)
    return frozenset([token for token, kind in steps if kind == "number"])


def _math_arg_mask(state: DecodeState, vocab: TokenVocabulary) -> frozenset[str]:
    return (
        frozenset(vocab.input_numbers)
        | frozenset(DEFAULT_CONSTANTS)
        | _numeric_step_refs(state, vocab)
    )


def next_token_mask(state: DecodeState, vocab: TokenVocabulary) -> frozenset[str]:
    """Exactly the tokens that keep the prefix extensible to a valid program.

    Operation names are only offered when their argument positions can be
    filled: table operations need at least one row name in the vocabulary.
    An empty mask at a complete state means the walk must stop.
    """
    if state.op is not None:
        expected = _STEP_TEMPLATES[arity(state.op)][state.slot]
        if expected is not None:
            return frozenset((expected,))
        if state.op in TABLE_OPS:
            return frozenset(vocab.input_rows)
        return _math_arg_mask(state, vocab)
    if state.is_complete:
        if state.completed_steps < vocab.max_steps:
            return frozenset((",",))
        return frozenset()
    ops = set()
    if _math_arg_mask(state, vocab):
        ops.update(MATH_OPS)
    if vocab.input_rows:
        ops.update(TABLE_OPS)
    return frozenset(ops)


def advance(state: DecodeState, token: str, vocab: TokenVocabulary) -> DecodeState:
    """Consume one token; raises IllegalToken when it is outside the mask."""
    if token not in next_token_mask(state, vocab):
        raise IllegalToken(f"token {token!r} at position {len(state.tokens)} is not allowed")
    tokens = state.tokens + (token,)
    if state.op is not None:
        if state.slot + 1 < len(_STEP_TEMPLATES[arity(state.op)]):
            return state._replace(slot=state.slot + 1, tokens=tokens)
        step_kinds = state.step_kinds + (result_kind(state.op),)
        return state._replace(op=None, slot=0, step_kinds=step_kinds, tokens=tokens)
    if state.is_complete:  # the "," that opens the next step
        return state._replace(tokens=tokens)
    return state._replace(op=token, tokens=tokens)


def replay(tokens: Iterable[str], vocab: TokenVocabulary) -> DecodeState:
    """Advance through a full token sequence, enforcing the mask at each step."""
    state = DecodeState()
    for token in tokens:
        state = advance(state, token, vocab)
    return state
