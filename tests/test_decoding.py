from random import Random

import pytest

from finprog.context import EvidenceContext, FinTable
from finprog.decoding import (
    DecodeState,
    IllegalToken,
    advance,
    build_vocabulary,
    next_token_mask,
    replay,
)
from finprog.dsl import (
    DEFAULT_CONSTANTS,
    MATH_OPS,
    MAX_PROGRAM_STEPS,
    TABLE_OPS,
    parse_program,
    render_program,
    tokenize_program,
    validate,
)

from generators import bruteforce_next_tokens, random_context, random_program, random_walk


@pytest.fixture()
def ctx():
    return EvidenceContext.build(
        ["the risk-free interest rate of 2006 is 5%", "expected term is 100 months"],
        FinTable.from_rows([["", "2006"], ["risk-free interest rate", "5%"]]),
    )


@pytest.fixture()
def vocab(ctx):
    return build_vocabulary(ctx, max_steps=5)


def walk(tokens, vocab):
    state = DecodeState()
    for token in tokens:
        state = advance(state, token, vocab)
    return state


class TestBuildVocabulary:
    def test_input_tokens_from_numbers_and_rows(self):
        ctx = EvidenceContext.build(
            ["the rate is 5% of the 100 total"],
            FinTable.from_rows([["", "x"], ["risk-free interest rate", ""]]),
        )
        vocab = build_vocabulary(ctx, max_steps=3)
        assert set(vocab.input_tokens) == {"5", "100", "risk-free interest rate"}

    def test_empty_context(self):
        vocab = build_vocabulary(EvidenceContext.build(()), max_steps=3)
        assert vocab.input_tokens == ()
        assert "add" in vocab.special_tokens and "(" in vocab.special_tokens

    def test_step_memory_tokens(self, ctx):
        vocab = build_vocabulary(ctx, max_steps=5)
        assert vocab.step_memory_tokens == ("#0", "#1", "#2", "#3", "#4")

    def test_partitions_disjoint(self):
        rng = Random(5)
        for _ in range(100):
            vocab = build_vocabulary(random_context(rng), max_steps=4)
            inputs = set(vocab.input_tokens)
            specials = set(vocab.special_tokens)
            steps = set(vocab.step_memory_tokens)
            assert not (inputs & specials) and not (inputs & steps) and not (specials & steps)

    def test_unrenderable_row_names_excluded(self):
        ctx = EvidenceContext.build(
            [], FinTable.from_rows([["", "a"], ["loss (gain), net", "5"], ["plain row", "6"]])
        )
        vocab = build_vocabulary(ctx, max_steps=2)
        assert vocab.input_rows == ("plain row",)

    def test_row_names_that_read_as_step_references_or_repeat_excluded(self):
        table = FinTable.from_rows([["", "a"], ["revenue", "5"], ["#1", "6"], ["Revenue", "7"], ["revenue", "8"]])
        vocab = build_vocabulary(EvidenceContext.build([], table), max_steps=1)
        # "#1" is no step memory token at one step, but a row name cannot read as one either.
        assert vocab.step_memory_tokens == ("#0",)
        assert vocab.input_rows == ("revenue", "Revenue")

    def test_numbers_no_literal_can_hold_excluded(self):
        ctx = EvidenceContext.build(["a total of 12 and a serial of " + "7" * 101], FinTable.from_rows([[""]]))
        assert build_vocabulary(ctx, max_steps=2).input_numbers == ("12",)


class TestMask:
    def test_start_state_offers_operation_names_only(self, vocab):
        assert next_token_mask(DecodeState(), vocab) == frozenset(MATH_OPS + TABLE_OPS)

    def test_table_ops_hidden_without_rows(self):
        ctx = EvidenceContext.build(["total was 7"], None)
        vocab = build_vocabulary(ctx, max_steps=3)
        assert next_token_mask(DecodeState(), vocab) == frozenset(MATH_OPS)

    def test_after_op_only_open_paren(self, vocab):
        state = walk(["add"], vocab)
        assert next_token_mask(state, vocab) == frozenset(("(",))

    def test_first_step_has_no_step_refs(self, vocab):
        state = walk(["add", "("], vocab)
        mask = next_token_mask(state, vocab)
        assert "#0" not in mask
        assert set(vocab.input_numbers) <= mask
        assert set(DEFAULT_CONSTANTS) <= mask
        assert "risk-free interest rate" not in mask

    def test_second_step_offers_prior_result(self, vocab):
        state = walk(["add", "(", "5", ",", "100", ")", ",", "subtract", "("], vocab)
        mask = next_token_mask(state, vocab)
        assert "#0" in mask and "#1" not in mask

    def test_boolean_steps_not_offered_as_operands(self, vocab):
        state = walk(["greater", "(", "5", ",", "100", ")", ",", "add", "("], vocab)
        assert "#0" not in next_token_mask(state, vocab)

    def test_table_op_argument_is_row_only(self, vocab):
        state = walk(["table-sum", "("], vocab)
        assert next_token_mask(state, vocab) == frozenset(("risk-free interest rate",))

    def test_max_steps_is_bounded_by_the_step_cap(self, ctx):
        vocab = build_vocabulary(ctx, max_steps=MAX_PROGRAM_STEPS)
        state = replay(" , ".join(["add ( 5 , 100 )"] * MAX_PROGRAM_STEPS).split(), vocab)
        assert next_token_mask(state, vocab) == frozenset()
        assert len(parse_program(state.program_text)) == MAX_PROGRAM_STEPS
        with pytest.raises(ValueError, match="exceeds MAX_PROGRAM_STEPS"):
            build_vocabulary(ctx, max_steps=MAX_PROGRAM_STEPS + 1)

    def test_max_steps_forces_stop(self, ctx):
        vocab = build_vocabulary(ctx, max_steps=1)
        state = walk(["add", "(", "5", ",", "100", ")"], vocab)
        assert state.is_complete
        assert next_token_mask(state, vocab) == frozenset()


class TestAdvance:
    def test_complete_walk_parses(self, vocab):
        state = walk(["add", "(", "5", ",", "100", ")"], vocab)
        assert state.is_complete
        program = parse_program(state.program_text)
        assert validate(program) == []

    def test_illegal_token_raises(self, vocab):
        state = walk(["add", "("], vocab)
        with pytest.raises(IllegalToken):
            advance(state, ")", vocab)
        with pytest.raises(IllegalToken):
            advance(DecodeState(), "(", vocab)
        with pytest.raises(IllegalToken):
            advance(state, "7777", vocab)  # number outside the context

    def test_replay_runs_whole_sequences(self, vocab):
        state = replay(["add", "(", "5", ",", "100", ")"], vocab)
        assert state.is_complete


class TestMaskProperties:
    def test_guided_walks_parse_and_validate(self):
        rng = Random(31)
        for _ in range(1500):
            vocab = build_vocabulary(random_context(rng), max_steps=4)
            text = random_walk(rng, vocab)
            program = parse_program(text)
            assert validate(program) == [], text
            assert len(program.steps) <= 4

    def test_valid_programs_replay_within_masks(self):
        rng = Random(37)
        for _ in range(800):
            ctx = random_context(rng)
            program = random_program(rng, ctx, max_steps=4)
            vocab = build_vocabulary(ctx, max_steps=4)
            tokens = [t for t, _ in tokenize_program(render_program(program))]
            assert replay(tokens, vocab).is_complete

    def test_masks_match_bruteforce_parser_trials(self, vocab):
        number = vocab.input_numbers[0]
        row = vocab.input_rows[0]
        candidates = list(MATH_OPS + TABLE_OPS) + ["(", ")", ",", number, "const_100", "#0", "#1", row]
        finishers = ["(", ")", ",", number, row]
        prefixes = [
            [],
            ["add", "("],
            ["add", "(", number, ",", number, ")", ",", "subtract", "("],
        ]
        for prefix in prefixes:
            expected = bruteforce_next_tokens(prefix, candidates, finishers, depth=5)
            state = replay(prefix, vocab)
            mask = next_token_mask(state, vocab) & set(candidates)
            assert mask == expected, prefix
