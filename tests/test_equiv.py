import hashlib
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finprog import equiv
from finprog.dsl import MAX_PROGRAM_STEPS, Program, ProgramError, parse_program, render_program
from finprog.equiv import (
    _P,
    _build,
    _chain,
    _evaluate,
    _hashed_int,
    _intern_pair,
    _is_prime,
    _plan,
    _points_needed,
    _sample,
    _second_prime,
    canonical_texts,
    compare_programs,
)
from finprog.evaluate import score_record

from generators import (
    generically_evaluable,
    mutate_preserving,
    oracle_canonical_key,
    oracle_equivalent,
    oracle_exact_value,
    oracle_line_degrees,
    oracle_symbolize,
    random_program_pair,
    random_symbolic_program,
    reorder_independent_steps,
)

P = parse_program

FLAGSHIP_A = "add(a_1, a_2), add(a_3, a_4), subtract(#0, #1)"
FLAGSHIP_B = "add(a_4, a_3), add(a_1, a_2), subtract(#1, #0)"


def _plan_of(program):
    """The sampling plan of one program's final step, and its symbol keys in id order."""
    symbols: dict = {}
    nodes: list = []
    root = _build(program, symbols, {}, nodes)
    return _plan(nodes, (root,), tuple(symbols))[0], tuple(symbols)


def _head(seed: int, trial: int):
    """The hash state ``_sample`` hands ``_evaluate`` at ``trial``: the blake2b of ``(seed, (trial``."""
    return hashlib.blake2b(f"({seed!r}, ({trial}".encode(), digest_size=8)


def _text(program: str) -> str:
    """The canonical text of one program, compared with itself."""
    return canonical_texts(P(program), P(program))[0]


class TestPairSymbolize:
    """Both programs of a pair read their arguments as one shared set of symbols."""

    def test_flagship_pair_shares_symbols(self):
        assert canonical_texts(P(FLAGSHIP_A), P(FLAGSHIP_B)) == ("(+ 1*s0 1*s1 -1*s2 -1*s3)",) * 2

    def test_equal_literals_share_one_symbol(self):
        assert _text("divide(100, 100)") == "(* )"

    def test_constant_equals_literal_of_same_value(self):
        assert canonical_texts(P("divide(5, const_5)"), P("divide(5, 5)")) == ("(* )", "(* )")
        assert canonical_texts(P("add(const_5, 7)"), P("add(7, 5)")) == ("(+ 1*s0 1*s1)",) * 2

    def test_distinct_values_distinct_symbols(self):
        assert _text("divide(5, 7)") == "(* s0^1 s1^-1)"

    def test_row_names_symbolize_by_normalized_name(self):
        assert canonical_texts(P("table-sum(Net Sales)"), P("table-sum(net sales)")) == ("table-sum[s0]",) * 2


class TestToExpression:
    def test_inline_sum(self):
        assert canonical_texts(P("add(a, b), subtract(#0, c)"), P("add(a, b)")) == (
            "(+ 1*s0 1*s1 -1*s2)",
            "(+ 1*s0 1*s1)",
        )

    def test_single_divide_is_signed_product(self):
        assert _text("divide(a, b)") == "(* s0^1 s1^-1)"

    def test_dead_step_dropped(self):
        assert canonical_texts(P("add(a, b), add(c, d)"), P("add(a, b)")) == ("(+ 1*s2 1*s3)", "(+ 1*s0 1*s1)")


class TestNormalize:
    def test_commutativity_same_canonical(self):
        assert _text("add(a, b)") == _text("add(b, a)")

    def test_flagship_pair_identical_canonical(self):
        left, right = canonical_texts(P(FLAGSHIP_A), P(FLAGSHIP_B))
        assert left == right
        assert compare_programs(P(FLAGSHIP_A), P(FLAGSHIP_B)).reason == "canonical-match"

    def test_subtract_noncommutative(self):
        left, right = canonical_texts(P("subtract(a, b)"), P("subtract(b, a)"))
        assert left != right
        assert not compare_programs(P("subtract(a, b)"), P("subtract(b, a)")).equivalent

    def test_like_terms_collect(self):
        assert _text("add(a, a)") == "(+ 2*s0)"

    def test_cancellation_to_zero(self):
        assert _text("subtract(a, a)") == "(+ )"

    def test_ratio_of_self_is_one(self):
        assert _text("divide(a, a)") == "(* )"

    def test_normalize_idempotent(self):
        rng = Random(83)
        chains = 0
        for _ in range(300):
            program = random_symbolic_program(rng)
            table: dict = {}
            nodes: list = []
            _build(program, {}, table, nodes)
            size = len(nodes)
            for form, (op, parts) in enumerate(nodes[:size]):
                if op in ("+", "*"):
                    # re-interning a chain's parts finds the chain itself
                    assert _chain(op, parts, table, nodes) == form
                    chains += 1
            assert len(table) == len(nodes) == size
        assert chains > 200


def _symbolic_pair(rng: Random):
    """Two random symbolic programs, the second often a commutative swap of the first."""
    first = random_symbolic_program(rng)
    roll = rng.random()
    if roll < 0.4:
        return first, mutate_preserving(rng, first)
    if roll < 0.5:
        return first, reorder_independent_steps(first) or first
    return first, random_symbolic_program(rng)


class TestInternedForms:
    """The intern table agrees with canonical keys built from strings."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_ids_and_text_match_string_keys(self, rng):
        a, b = _symbolic_pair(rng)
        s1, s2, _ = oracle_symbolize(a, b)
        keys = oracle_canonical_key(s1), oracle_canonical_key(s2)
        assert canonical_texts(a, b) == keys
        _, _, (left, right) = _intern_pair(a, b)
        assert (left == right) == (keys[0] == keys[1]), keys

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_text_ignores_the_other_program_and_tracks_canonical_match(self, rng):
        a, b = random_program_pair(rng) if rng.random() < 0.5 else _symbolic_pair(rng)
        texts = canonical_texts(a, b)
        assert texts[0] == canonical_texts(a, a)[0]
        report = compare_programs(a, b)
        if report.reason != "incomparable-types":
            assert (texts[0] == texts[1]) == (report.reason == "canonical-match"), texts

    def test_pairs_cover_matches_and_mismatches(self):
        rng = Random(109)
        matches = 0
        for _ in range(300):
            s1, s2, _ = oracle_symbolize(*_symbolic_pair(rng))
            matches += oracle_canonical_key(s1) == oracle_canonical_key(s2)
        assert 60 < matches < 240


class TestEquivalent:
    def test_flagship_pair(self):
        assert compare_programs(P(FLAGSHIP_A), P(FLAGSHIP_B)).equivalent

    def test_subtract_swap_not_equivalent(self):
        swapped = "add(a_1, a_2), add(a_3, a_4), subtract(#1, #0)"
        assert not compare_programs(P(FLAGSHIP_A), P(swapped)).equivalent

    def test_different_ops_not_equivalent(self):
        assert not compare_programs(P("add(a, b)"), P("multiply(a, b)")).equivalent

    def test_mirrored_divides(self):
        a = P("divide(a, b), divide(c, d), subtract(#0, #1)")
        b = P("divide(c, d), divide(a, b), subtract(#1, #0)")
        assert compare_programs(a, b).equivalent
        assert oracle_equivalent(a, b) is True

    def test_distributivity_found_by_sampling(self):
        report = compare_programs(
            P("add(a, b), multiply(#0, c)"),
            P("multiply(a, c), multiply(b, c), add(#0, #1)"),
        )
        assert report.equivalent and report.reason == "randomized-agreement"

    def test_incomparable_types(self):
        report = compare_programs(P("greater(a, b)"), P("add(a, b)"))
        assert not report.equivalent and report.reason == "incomparable-types"

    def test_no_evaluable_point_is_degenerate(self):
        report = compare_programs(P("subtract(a, a), divide(b, #0)"), P("subtract(a, a), divide(c, #0)"))
        assert not report.equivalent and report.reason == "degenerate"

    def test_greater_operand_order_matters(self):
        assert not compare_programs(P("greater(a, b)"), P("greater(b, a)")).equivalent
        assert compare_programs(P("add(a, b), greater(#0, c)"), P("add(b, a), greater(#0, c)")).equivalent

    def test_table_aggregations_are_opaque(self):
        assert compare_programs(P("table-sum(x)"), P("table-sum(X)")).equivalent
        assert not compare_programs(P("table-sum(x)"), P("table-average(x)")).equivalent
        assert not compare_programs(P("table-sum(x)"), P("table-sum(y)")).equivalent

    def test_exp_is_syntactic(self):
        assert compare_programs(P("exp(a, b)"), P("exp(a, b)")).equivalent
        assert not compare_programs(P("exp(a, b)"), P("exp(b, a)")).equivalent
        # a^b * a^b == a^(2b) is true mathematically but out of scope
        assert not compare_programs(
            P("exp(a, b), multiply(#0, #0)"), P("add(b, b), exp(a, #0)")
        ).equivalent

    def test_seeded_and_symmetric(self):
        rng = Random(89)
        for _ in range(200):
            a, b = random_program_pair(rng)
            forward = compare_programs(a, b, seed=11).equivalent
            assert forward == compare_programs(b, a, seed=11).equivalent
            assert compare_programs(a, a, seed=11).equivalent

    def test_transitivity_spot_check(self):
        rng = Random(97)
        for _ in range(60):
            base = random_symbolic_program(rng)
            if not generically_evaluable(base):
                continue
            second = mutate_preserving(rng, base)
            third = reorder_independent_steps(second) or second
            if compare_programs(base, second).equivalent and compare_programs(second, third).equivalent:
                assert compare_programs(base, third).equivalent

    def test_step_reorder_with_renumbering_preserved(self):
        rng = Random(101)
        checked = 0
        for _ in range(300):
            program = random_symbolic_program(rng)
            reordered = reorder_independent_steps(program)
            if reordered is None or not generically_evaluable(program):
                continue
            assert compare_programs(program, reordered).equivalent, render_program(program)
            checked += 1
        assert checked > 80

    def test_canonical_match_implies_oracle_agreement(self):
        rng = Random(103)
        checked = 0
        for _ in range(300):
            a, b = random_program_pair(rng)
            report = compare_programs(a, b, seed=3)
            if report.reason == "canonical-match":
                assert oracle_equivalent(a, b, seed=3) is True, (
                    render_program(a),
                    render_program(b),
                )
                checked += 1
        assert checked > 30

    def test_agrees_with_pure_randomized_oracle(self):
        rng = Random(107)
        for _ in range(250):
            a, b = random_program_pair(rng)
            oracle = oracle_equivalent(a, b, seed=7)
            if oracle is None:
                continue
            assert compare_programs(a, b, seed=7).equivalent == oracle, (
                render_program(a),
                render_program(b),
            )


def _deep_chain(steps: int, distributed: bool = False) -> str:
    """An alternating add/multiply chain of ``steps`` steps over distinct numbers.

    ``distributed`` rewrites its first product, (1 + 2) * 3, as 1 * 3 + 2 * 3,
    which normalization does not canonicalize, so only sampling can match it.
    """
    if distributed:
        text = ["multiply(1, 3)", "multiply(2, 3)", "add(#0, #1)"]
    else:
        text = ["add(1, 2)", "multiply(#0, 3)"]
    shift = len(text) - 2
    for i in range(2, steps):
        op = "add" if i % 2 == 0 else "multiply"
        text.append(f"{op}(#{i - 1 + shift}, {i + 2})")
    return ", ".join(text)


@contextmanager
def _frames_left(count: int):
    """Lower the recursion limit to ``count`` frames above the caller's depth."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + count)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


class TestDeepPrograms:
    """Forms are built and sampled without recursion: a chain of
    MAX_PROGRAM_STEPS steps is decided with fewer frames to spare than it has steps."""

    FRAMES = 50

    def test_deep_chain_matches_itself_canonically(self):
        chain = P(_deep_chain(MAX_PROGRAM_STEPS))
        assert len(chain.steps) > self.FRAMES
        with _frames_left(self.FRAMES):
            report = compare_programs(chain, chain)
        assert report.equivalent and report.reason == "canonical-match"

    def test_deep_chain_rewrite_decided_by_sampling(self, monkeypatch):
        chain = P(_deep_chain(MAX_PROGRAM_STEPS - 1))
        rewrite = P(_deep_chain(MAX_PROGRAM_STEPS - 1, distributed=True))
        assert len(rewrite.steps) == MAX_PROGRAM_STEPS
        monkeypatch.setattr(equiv, "MAX_SAMPLE_POINTS", 8)
        with _frames_left(self.FRAMES):
            report = compare_programs(chain, rewrite)
            texts = canonical_texts(chain, rewrite)
        assert report.equivalent and report.reason == "randomized-agreement"
        assert texts[0] != texts[1]

    def test_deep_chain_renders_without_recursion(self):
        with _frames_left(self.FRAMES):
            chain = P(_deep_chain(MAX_PROGRAM_STEPS))
            text, _ = canonical_texts(chain, P("add(1, 2)"))
        assert text.startswith("(* (+ 1*(* ") and text == oracle_canonical_key(oracle_symbolize(chain)[0])


def _halving_chain(levels: int, distributed: bool) -> str:
    """(a + b) * e, then ``levels`` times x -> x / c + x / d: each level uses x twice.

    Written out, the final form is four times longer per level.
    """
    if distributed:
        steps = ["multiply(a, e)", "multiply(b, e)", "add(#0, #1)"]
    else:
        steps = ["add(a, b)", "multiply(#0, e)"]
    last = len(steps) - 1
    for _ in range(levels):
        steps += [f"divide(#{last}, c)", f"divide(#{last}, d)", f"add(#{last + 1}, #{last + 2})"]
        last += 3
    return ", ".join(steps)


class TestReusedSteps:
    """A reused step costs one table entry, not a copy of its text."""

    @pytest.mark.parametrize(
        "distributed, reason", [(False, "canonical-match"), (True, "randomized-agreement")]
    )
    def test_77_step_chain_decides_fast(self, distributed, reason):
        chain = P(_halving_chain(25, False))
        other = P(_halving_chain(25, distributed))
        assert len(chain.steps) == 77
        start = time.perf_counter()
        report = compare_programs(chain, other)
        elapsed = time.perf_counter() - start
        assert report.equivalent and report.reason == reason
        assert elapsed < 0.5, elapsed


@st.composite
def _elision_pairs(draw):
    """A random symbolic pair whose first program is often a halving chain of 0 to 10 levels."""
    rng = draw(st.randoms(use_true_random=False))
    levels = draw(st.integers(0, 10))
    a, b = _symbolic_pair(rng)
    if rng.random() < 0.5:
        a = P(_halving_chain(levels, rng.random() < 0.5))
    return a, b


class TestCanonicalTextElision:
    """A canonical text past MAX_CANONICAL_CHARS is elided, and names its exact length."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_elision_pairs())
    # a dead step far longer than the bound, under roots that fit it: the dead form is sized, never rendered
    @example((P(_halving_chain(4, False) + ", add(x, y)"), P("add(y, x)")))
    @example((P("table-sum(x)"), P("add(a, b)")))  # a leaf root, elided at bound 0
    def test_elision_counts_the_text_it_replaces(self, pair):
        a, b = pair
        assert all(len(text) <= equiv.MAX_CANONICAL_CHARS for text in canonical_texts(a, b))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equiv, "MAX_CANONICAL_CHARS", math.inf)
            full = canonical_texts(a, b)
            # a text exactly at the bound is kept, one character past it is elided
            for bound in (0, len(full[0]) - 1, len(full[0]), len(full[1])):
                patch.setattr(equiv, "MAX_CANONICAL_CHARS", bound)
                expected = tuple(t if len(t) <= bound else f"(elided: {len(t)} characters)" for t in full)
                assert canonical_texts(a, b) == expected, bound


def _symbol_chain(steps: int, ops: tuple[str, ...], last: str | None = None) -> str:
    """Step i applies ops[i % len(ops)] to the previous step and symbol s<i>; ``last`` replaces the final symbol."""
    text = [f"{ops[0]}(s0, s1)"] + [f"{ops[i % len(ops)]}(#{i - 1}, s{i + 1})" for i in range(1, steps)]
    if last is not None:
        text[-1] = text[-1].rsplit(",", 1)[0] + f", {last})"
    return ", ".join(text)


class TestStepCap:
    """At MAX_PROGRAM_STEPS a long sum and an alternating chain decide in milliseconds."""

    @pytest.mark.parametrize("ops", [("add",), ("add", "multiply")])
    def test_capped_chain_decides_fast(self, ops):
        chain = P(_symbol_chain(MAX_PROGRAM_STEPS, ops))
        changed = P(_symbol_chain(MAX_PROGRAM_STEPS, ops, last="other"))
        for other, reason in ((chain, "canonical-match"), (changed, "counterexample")):
            start = time.perf_counter()
            report = compare_programs(chain, other)
            elapsed = time.perf_counter() - start
            assert report.reason == reason
            assert elapsed < 0.5, elapsed


class TestModularSampling:
    """The fallback samples modulo p * q, p = 2**61 - 1 and q a prime the seed picks."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, -3])
    def test_multiple_of_p_is_a_counterexample(self, seed):
        # add(x, x) doubled 60 more times is 2**61 * x, and
        # (2**61 - 1) * x + y == y over Z_p, but not over the rationals.
        doublings = [f"add(#{k}, #{k})" for k in range(60)]
        left = P(", ".join(["add(x, x)", *doublings, "subtract(#60, x)", "add(#61, y)"]))
        right = P("add(x, y), subtract(#0, x)")
        report = compare_programs(left, right, seed=seed)
        assert canonical_texts(left, right)[0] == f"(+ {_P}*s0 1*s1)"
        assert not report.equivalent and report.reason == "counterexample"

    @pytest.mark.parametrize("seed", [0, 5])
    def test_exponent_multiple_of_p_minus_one_is_a_counterexample(self, seed):
        # x**(2**61 - 2) * y == y at every point of Z_p where x is not 0.
        power = ", ".join(_squared("x", 60))
        left = P(f"{power}, divide(#60, x), divide(#61, x), multiply(#62, y)")
        report = compare_programs(left, P("add(y, z), subtract(#0, z)"), seed=seed)
        assert canonical_texts(left, left)[0] == f"(* s0^{_P - 1} s1^1)"
        assert not report.equivalent and report.reason == "counterexample"

    @pytest.mark.parametrize("seed", [0, 1, 2, -3, 10**30])
    def test_second_prime_is_a_62_bit_prime_fixed_by_the_seed(self, seed):
        q = _second_prime(seed)
        assert q.bit_length() == 62 and q != _P
        # Fermat's little theorem, an independent check of _is_prime's verdict
        assert all(pow(base, q - 1, q) == 1 for base in (2, 3, 5, 7, 1234567891011))
        _second_prime.cache_clear()
        assert _second_prime(seed) == q

    def test_is_prime_matches_a_sieve_and_known_values(self):
        limit = 20_000
        sieve = [False, False] + [True] * (limit - 2)
        for n in range(2, math.isqrt(limit) + 1):
            if sieve[n]:
                sieve[n * n :: n] = [False] * len(sieve[n * n :: n])
        assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]
        assert _is_prime(_P) and _is_prime(2**62 - 57) and _is_prime(2**64 - 59)
        # strong pseudoprimes to every prime base up to 23, and to bases 2, 3, 5 and 7
        assert not _is_prime(3825123056546413051) and not _is_prime(3215031751)
        assert not _is_prime(_P * (2**31 - 1))

    def test_no_prime_search_at_import(self):
        code = "import finprog, finprog.equiv as e; print(e._second_prime.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(equiv.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert done.stdout.strip() == "0"

    def test_greater_needs_the_sign_of_a_factor(self):
        report = compare_programs(
            P("greater(a, b)"), P("multiply(a, c), multiply(b, c), greater(#0, #1)")
        )
        assert not report.equivalent and report.reason == "counterexample"

    def test_distributive_rewrite_under_greater(self):
        report = compare_programs(
            P("add(a, b), multiply(#0, c), greater(#1, d)"),
            P("multiply(a, c), multiply(b, c), add(#0, #1), greater(#2, d)"),
        )
        assert report.equivalent and report.reason == "randomized-agreement"

    @pytest.mark.parametrize(
        "left, right",
        [
            # #0 is a product of two 62-bit sample values, which outweighs a lone
            # one, so both signs are the opposite of #0's at every sample point
            ("multiply(const_1, const_10), greater(299, #0)", "multiply(const_1, const_10), greater(748.06, #0)"),
            # g against 0 and against 1, as forms: only g = 1 tells their signs apart
            (
                "subtract(g, h), subtract(#0, #0), greater(g, #1)",
                "subtract(g, h), divide(#0, #0), greater(g, #1)",
            ),
        ],
    )
    def test_comparisons_whose_signs_agree_are_decided_by_their_differences(self, left, right):
        report = compare_programs(P(left), P(right))
        assert not report.equivalent and report.reason == "counterexample"

    def test_difference_in_a_tiny_region_is_not_agreement(self):
        # a + c / (d * e * f * g) and a differ in sign from b only where b - a
        # lies between 0 and the quotient, which no 62-bit sample point reaches.
        tiny = "multiply(d, e), multiply(#0, f), multiply(#1, g), divide(c, #2), add(a, #3), greater(#4, b)"
        for seed in range(5):
            report = compare_programs(P("greater(a, b)"), P(tiny), seed=seed)
            assert (report.equivalent, report.reason) == (False, "counterexample"), seed

    def test_equal_differences_match_canonically(self):
        report = compare_programs(P("add(a, c), add(b, c), greater(#0, #1)"), P("greater(a, b)"))
        assert (report.equivalent, report.reason, report.points) == (True, "canonical-match", 0)

    @pytest.mark.parametrize("root", ["", ", greater(#{}, d)"])
    @pytest.mark.parametrize("steps", [16, 40])
    def test_squaring_chain_counterexample_is_fast(self, steps, root):
        # Squaring multiply(3, 5) steps - 1 times collects an exponent of 2**(steps - 1).
        chain = ", ".join(["multiply(3, 5)"] + [f"multiply(#{k}, #{k})" for k in range(steps - 1)])
        left = chain + root.format(steps - 1)
        right = f"{chain}, add(#{steps - 1}, 0)" + root.format(steps)
        start = time.perf_counter()
        report = compare_programs(P(left), P(right))
        elapsed = time.perf_counter() - start
        assert not report.equivalent and report.reason == "counterexample"
        assert elapsed < 0.1, elapsed

    def test_leaf_residues_match_hashed_int(self):
        program = P("add(3.5, const_250), table-sum(Net Sales), add(#0, #1), add(#2, x)")
        plan, symbols = _plan_of(program)
        leaves = [i for i, (op, _, _) in enumerate(plan) if op == "leaf"]
        number, constant, row, name = symbols
        keys = [(number,), (constant,), ("agg", "table-sum", row), (name,)]
        assert {key[0] if key[0] == "agg" else key[0][0] for key in keys} == {"num", "name", "agg"}
        for seed in (0, 11, -3):
            for trial in range(2, 6):
                nums, dens = _evaluate(plan, _head(seed, trial), _P)
                expected = [_hashed_int(seed, (trial, *key)) % _P for key in keys]
                assert sorted(nums[i] for i in leaves) == sorted(expected)
                assert all(dens[i] == 1 for i in leaves)

    @pytest.mark.parametrize("root", ["", ", greater(#{}, e)"])
    def test_exp_of_a_long_base_is_hashed_from_residues(self, root):
        # Seven squarings would make the exact base of exp about 16,000 bits
        # long; its residue keeps its size.
        left = ["add(a, b)", "multiply(#0, c)"] + [f"multiply(#{k}, #{k})" for k in range(1, 8)]
        right = ["multiply(a, c)", "multiply(b, c)", "add(#0, #1)"] + [f"multiply(#{k}, #{k})" for k in range(2, 9)]
        left = ", ".join(left) + ", exp(#8, d)" + root.format(9)
        right = ", ".join(right) + ", exp(#9, d)" + root.format(10)
        report = compare_programs(P(left), P(right))
        assert report.equivalent and report.reason == "randomized-agreement"


class TestSequentialSampling:
    """Trials are evaluated one at a time, in order, each in one pass over the plan."""

    @pytest.mark.parametrize(
        "left, right, reason",
        [
            # an empty sum outside a divisor is 0 at every point
            ("subtract(a, a), multiply(#0, b)", "subtract(c, c), multiply(#0, d)", "randomized-agreement"),
            # exp over a base with a denominator
            (
                "add(a, b), divide(#0, c), exp(#1, d)",
                "divide(a, c), divide(b, c), add(#0, #1), exp(#2, d)",
                "randomized-agreement",
            ),
            # greater over a quotient whose denominator takes either sign
            (
                "add(a, e), divide(#0, b), greater(#1, c)",
                "divide(a, b), divide(e, b), add(#0, #1), greater(#2, c)",
                "randomized-agreement",
            ),
            # every trial is dead
            ("subtract(a, a), divide(b, #0)", "subtract(a, a), divide(c, #0)", "degenerate"),
            # a zero divisor in a step the result does not use kills no trial
            (
                "subtract(a, a), divide(b, #0), add(c, d), multiply(#2, e)",
                "multiply(c, e), multiply(d, e), add(#0, #1)",
                "randomized-agreement",
            ),
        ],
    )
    def test_sampling_paths(self, monkeypatch, left, right, reason):
        for cap in (1, 2, 32):
            monkeypatch.setattr(equiv, "MAX_SAMPLE_POINTS", cap)
            report = compare_programs(P(left), P(right))
            assert report.reason == reason, cap
            assert report.equivalent == (reason == "randomized-agreement")
            assert report.points <= cap

    @staticmethod
    def _spy(monkeypatch):
        """The (modulus, trial) of each ``_evaluate`` call, the trial read back from its hash head."""
        calls = []
        evaluate = equiv._evaluate
        trial_of = {_head(0, trial).digest(): trial for trial in range(20 * equiv.MAX_SAMPLE_POINTS)}

        def spy(plan, head, modulus):
            calls.append((modulus, trial_of[head.digest()]))
            return evaluate(plan, head, modulus)

        monkeypatch.setattr(equiv, "_evaluate", spy)
        return calls

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_agreement_evaluates_exactly_the_needed_trials(self, monkeypatch, cap):
        # The degree bound asks for 2 points, at most ``MAX_SAMPLE_POINTS``:
        # trials 0 and 1 modulo p * q.
        calls = self._spy(monkeypatch)
        monkeypatch.setattr(equiv, "MAX_SAMPLE_POINTS", cap)
        report = compare_programs(P("add(a, b), multiply(#0, c)"), P("multiply(a, c), multiply(b, c), add(#0, #1)"))
        assert report.reason == "randomized-agreement" and report.points == min(cap, 2)
        assert calls == [(_P * _second_prime(0), trial) for trial in range(min(cap, 2))]

    @pytest.mark.parametrize("squarings, points", [(14, 2), (17, 2), (20, 2), (40, 4)])
    def test_squared_distributive_pair_decides_in_one_modular_pass(self, monkeypatch, squarings, points):
        # Each squaring doubles the exact values' size; residues keep theirs.
        calls = self._spy(monkeypatch)
        left = ["add(b, c)", "multiply(a, #0)"] + [f"multiply(#{k}, #{k})" for k in range(1, squarings + 1)]
        right = ["multiply(a, b)", "multiply(a, c)", "add(#0, #1)"]
        right += [f"multiply(#{k}, #{k})" for k in range(2, squarings + 2)]
        start = time.perf_counter()
        report = compare_programs(P(", ".join(left)), P(", ".join(right)))
        elapsed = time.perf_counter() - start
        assert (report.equivalent, report.reason, report.points) == (True, "randomized-agreement", points)
        assert calls == [(_P * _second_prime(0), trial) for trial in range(points)]
        assert elapsed < 0.1, elapsed

    @pytest.mark.parametrize("cap", [1, 2, 32])
    def test_degenerate_pair_evaluates_only_the_trials_that_decide_it(self, monkeypatch, cap):
        # The divisor is zero as a rational function, not as a form. Its
        # numerator has degree Q = 2, so two dead trials in a row happen by
        # chance with probability (11 * 2 / 2**63)**2, below 2**-64.
        calls = self._spy(monkeypatch)
        zero = "add(a, b), multiply(#0, c), multiply(a, c), multiply(b, c), add(#2, #3), subtract(#1, #4)"
        left, right = f"{zero}, divide(d, #5)", f"{zero}, divide(e, #5)"
        monkeypatch.setattr(equiv, "MAX_SAMPLE_POINTS", cap)
        assert _budget(left, right) == (min(cap, 2), 2)
        report = compare_programs(P(left), P(right))
        assert (report.equivalent, report.reason, report.points) == (False, "degenerate", 0)
        assert calls == [(_P * _second_prime(0), trial) for trial in range(2)]

    @pytest.mark.parametrize(
        "left, right",
        [
            ("subtract(a, a), divide(b, #0)", "subtract(a, a), divide(c, #0)"),
            ("subtract(a, a), divide(b, #0), greater(#1, c)", "subtract(a, a), divide(d, #0), greater(#1, c)"),
            # only one side divides by the zero form
            ("add(b, c), subtract(a, a), divide(#0, #1), multiply(#2, d)", "add(b, c)"),
        ],
    )
    def test_zero_form_divisor_evaluates_nothing(self, monkeypatch, left, right):
        calls = self._spy(monkeypatch)
        for cap in (1, 2, 32):
            monkeypatch.setattr(equiv, "MAX_SAMPLE_POINTS", cap)
            report = compare_programs(P(left), P(right))
            assert (report.equivalent, report.reason, report.points) == (False, "degenerate", 0)
        assert calls == []

    @pytest.mark.parametrize(
        "left, right, reason",
        [
            ("subtract(a, a), divide(b, #0)", "subtract(a, a), divide(b, #0)", "canonical-match"),
            ("subtract(a, a), divide(b, #0)", "subtract(c, c), divide(b, #0)", "canonical-match"),
            ("subtract(a, a), divide(b, #0), greater(#1, c)", "subtract(a, a), divide(d, #0)", "incomparable-types"),
        ],
    )
    def test_zero_form_divisor_comes_after_type_and_canonical_decisions(self, left, right, reason):
        assert compare_programs(P(left), P(right)).reason == reason

    def test_shared_subforms_confirm_fast(self):
        # Each level uses its input twice, so exact denominators would grow
        # with every level; residues do not.
        left, right = P(_halving_chain(16, False)), P(_halving_chain(16, True))
        start = time.perf_counter()
        report = compare_programs(left, right)
        assert report.reason == "randomized-agreement"
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "program",
        [
            "subtract(a, a), divide(b, #0), add(#1, c)",
            # the zero divisor is interned after the dividend's forms
            "add(b, c), multiply(#0, d), subtract(a, a), divide(#1, #2)",
            # exp of a quotient by zero would need an inverse that does not exist
            "subtract(a, a), divide(b, #0), exp(#1, c)",
        ],
    )
    def test_dead_trial_evaluates_nothing_after_its_first_dead_divisor(self, program):
        plan, _ = _plan_of(P(program))
        divisor = [i for i, (_, _, is_divisor) in enumerate(plan) if is_divisor]
        assert len(divisor) == 1 and plan[divisor[0]][:2] == ("+", ())
        # An entry after the divisor that raises if it is ever evaluated.
        trap = [("+", ((1, len(plan) + 1),), False)]
        for trial in range(5):
            assert _evaluate(plan[: divisor[0] + 1] + trap + plan[divisor[0] + 1 :], _head(0, trial), _P) is None

    def test_trial_dies_where_a_divisor_is_not_invertible(self):
        # Modulo p * 3 a third of the sample values of b share the factor 3,
        # so exp's operand a / b would have no inverse there.
        plan, symbols = _plan_of(P("divide(a, b), exp(#0, c)"))
        modulus, trials = _P * 3, range(30)
        b = symbols[1]
        assert b == ("name", "b")
        live = [_evaluate(plan, _head(0, trial), modulus) is not None for trial in trials]
        expected = [math.gcd(_hashed_int(0, (trial, b)), modulus) == 1 for trial in trials]
        assert live == expected and 0 < expected.count(False) < len(trials)

    def test_sampler_follows_the_sequential_rule(self, monkeypatch):
        def doomed(outcomes, deaths):
            return deaths is not None and outcomes[:deaths] == ["dead"] * deaths

        def sequential(outcomes, points, deaths):
            if doomed(outcomes, deaths):
                return "degenerate", 0
            agreed = 0
            for outcome in outcomes:
                if agreed >= points:
                    break
                if outcome == "differ":
                    return "counterexample", agreed + 1
                agreed += outcome == "agree"
            return "randomized-agreement" if agreed >= points else "degenerate", agreed

        rng = Random(3)
        trial_of = {_head(0, trial).digest(): trial for trial in range(80)}
        for _ in range(500):
            points, deaths = rng.randint(1, 4), rng.choice((None, 1, 2, 3))
            outcomes = [rng.choice(("agree", "agree", "dead", "dead", "differ")) for _ in range(20 * points)]
            evaluated = []

            def fake(plan, head, modulus):
                trial = trial_of[head.digest()]
                evaluated.append(trial)
                if outcomes[trial] == "dead":
                    return None
                return [1, 2 if outcomes[trial] == "differ" else 1], [1, 1]

            monkeypatch.setattr(equiv, "_evaluate", fake)
            assert _sample([], [0, 1], 0, points, deaths, len(outcomes), _P) == sequential(outcomes, points, deaths)
            assert evaluated == list(range(len(evaluated)))
            # no trial past the first ``deaths`` is evaluated when they all die,
            # nor past the sequential rule's last agreeing one
            agreeing = [t for t, outcome in enumerate(outcomes) if outcome == "agree"]
            if doomed(outcomes, deaths):
                assert evaluated == list(range(deaths))
            elif len(agreeing) >= points and "differ" not in outcomes[: agreeing[points - 1]]:
                assert evaluated[-1] == agreeing[points - 1]


class TestEvaluatorMatchesExactArithmetic:
    """At a live trial each root's residue is its exact value at the same hashed point, reduced mod M."""

    @pytest.mark.parametrize("seed", [-3, 0, 7, 10**30])
    def test_root_residues_match_exact_values(self, monkeypatch, seed):
        rng = Random(seed)
        modulus = _P * _second_prime(seed)
        compared = 0
        for _ in range(80):
            pair = random_program_pair(rng) if rng.random() < 0.6 else _symbolic_pair(rng)
            for cap in range(1, 41):
                monkeypatch.setattr(equiv, "MAX_SAMPLE_POINTS", cap)
                assert isinstance(compare_programs(*pair, seed=seed), equiv.EquivalenceReport)
            if any(step.op == "exp" for program in pair for step in program.steps):
                continue  # the oracle hashes exp on exact operands, the evaluator on residues
            symbols, nodes, roots = _intern_pair(*pair)
            roots = [nodes[root][1][0][1] if nodes[root][0] == ">" else root for root in roots]
            plan, positions, _ = _plan(nodes, tuple(roots), tuple(symbols))
            for trial in range(6):
                values = _evaluate(plan, _head(seed, trial), modulus)
                exact = [oracle_exact_value(program, seed, trial) for program in pair]
                if values is None or None in exact:
                    continue
                nums, dens = values
                for position, value in zip(positions, exact):
                    residue = nums[position] * pow(dens[position], -1, modulus) % modulus
                    assert residue == value.numerator * pow(value.denominator, -1, modulus) % modulus
                    compared += 1
        assert compared >= 200


def _squared(name: str, times: int) -> list[str]:
    """Steps whose last is ``name`` squared ``times`` more times after ``multiply(name, name)``."""
    return [f"multiply({name}, {name})"] + [f"multiply(#{k}, #{k})" for k in range(times)]


def _x_to_the(exponent: int) -> list[str]:
    """Steps whose last is x to the even ``exponent``: squarings of x * x, then their product at its bits."""
    half = exponent // 2
    steps = ["multiply(x, x)"] + [f"multiply(#{k}, #{k})" for k in range(half.bit_length() - 1)]
    bits = [k for k in range(half.bit_length()) if half >> k & 1]
    last = bits[0]
    for bit in bits[1:]:
        steps.append(f"multiply(#{last}, #{bit})")
        last = len(steps) - 1
    return steps


@st.composite
def _arithmetic_programs(draw):
    """Programs that often combine earlier steps, so quotients meet in sums, products and exps."""
    steps: list[str] = []
    for index in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(("add", "subtract", "multiply", "divide", "divide", "exp", "table-sum")))
        if op == "table-sum":
            steps.append(f"table-sum({draw(st.sampled_from('xy'))})")
            continue
        refs = [f"#{i}" for i in range(index)]
        symbols = st.sampled_from(("a", "b", "c", "d", "2"))
        operands = st.sampled_from(refs) | symbols if refs else symbols
        second = draw(st.sampled_from(("2", "-1", "a")) if op == "exp" else operands)
        steps.append(f"{op}({draw(operands)}, {second})")
    return P(", ".join(steps))


def _budget(left: str, right: str) -> tuple[int, int | None]:
    """``_points_needed`` of a pair under ``MAX_SAMPLE_POINTS``: its points, and the trials that may all die first."""
    symbols, nodes, roots = _intern_pair(P(left), P(right))
    plan, positions, degrees = _plan(nodes, roots, tuple(symbols))
    return _points_needed(plan, degrees, positions, equiv.MAX_SAMPLE_POINTS)


def _oracle_fewest(chance: int, whole: int, limit: int) -> int | None:
    """The least k <= ``limit`` with chance**k * 2**64 < whole**k, counted up one k at a time; None past it.

    A ``whole`` that is not positive (no trial can be live) says nothing.
    """
    if whole <= 0:
        return None
    power, top = chance, whole
    for k in range(1, limit + 1):
        if power * 2**64 < top:
            return k
        power, top = power * chance, top * whole
    return None


def _edge(whole: int, m: int, weight: int) -> int:
    """The largest degree D with (weight * D)**m * 2**64 < whole**m: m events of chance weight * D / whole suffice."""
    degree = int(whole * 2 ** (-64 / m) / weight)
    while degree > 0 and (weight * degree) ** m * 2**64 >= whole**m:
        degree -= 1
    while (weight * (degree + 1)) ** m * 2**64 < whole**m:
        degree += 1
    return degree


def _needed(left: str, right: str) -> int:
    return _budget(left, right)[0]


class TestDegreeBound:
    """Each planned value's degree bound, and the points over Z_p it asks for."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_arithmetic_programs(), st.integers(0, 2**32 - 1))
    @example(P("divide(a, b), divide(c, d), add(#0, #1)"), 0)  # a sum of quotients
    @example(P("divide(a, b), multiply(#0, #0), divide(c, #1), subtract(#2, d)"), 0)  # weights and swaps
    @example(P("add(a, b), divide(c, #0), exp(#1, 2), add(#2, #1), divide(#3, #2)"), 0)
    def test_bound_is_never_below_the_true_degree(self, program, seed):
        for index, true in enumerate(oracle_line_degrees(program, seed)):
            if true is None:
                continue  # a greater step, or a step no point evaluates
            prefix = Program(steps=program.steps[: index + 1])
            symbols: dict = {}
            nodes: list = []
            root = _build(prefix, symbols, {}, nodes)
            _, (position, _), degrees = _plan(nodes, (root, root), tuple(symbols))
            bound = degrees[position]
            assert bound[0] >= true[0] and bound[1] >= true[1], (render_program(prefix), bound, true)

    def test_bound_of_each_operation(self):
        program = "add(a, b), divide(#0, c), subtract(#1, d), multiply(#2, #2), divide(e, #3), exp(#4, e)"
        symbols: dict = {}
        nodes: list = []
        root = _build(P(program), symbols, {}, nodes)
        plan, _, degrees = _plan(nodes, (root,), tuple(symbols))
        assert [degrees[i] for i in range(len(plan)) if plan[i][0] != "leaf"] == [
            (1, 0),  # a + b
            (1, 1),  # (a + b) / c
            (2, 1),  # (a + b) / c - d, the divisor, with weight -2
            (3, 4),  # e over its square
            (1, 0),  # exp: a fresh leaf
        ]

    @pytest.mark.parametrize(
        "squarings, cap, points",
        [
            (0, 32, 2),  # degree 2: one point would leave about 2**-59
            (30, 32, 3),  # degree 2**31
            (40, 32, 4),  # degree 2**41
            (58, 100, 46),  # degree 2**59: each point gives under 1.5 bits
            (58, 32, 32),  # ... and MAX_SAMPLE_POINTS caps the points
            (61, 32, 32),  # degree 2**62: the bound says nothing
            (0, 1, 1),
        ],
    )
    def test_points_follow_the_degree(self, monkeypatch, squarings, cap, points):
        monkeypatch.setattr(equiv, "MAX_SAMPLE_POINTS", cap)
        left = ", ".join(_squared("x", squarings))
        assert _needed(left, "add(x, y)") == points

    def test_divisors_and_exp_accidents_count(self):
        # Under exp, a divisor of degree 2**62 leaves the bound saying nothing.
        big = _squared("x", 61)
        assert _needed(", ".join([*big, "add(#61, y)", "divide(y, #62)", "exp(#63, 2)"]), "add(y, z)") == 32
        assert _needed("add(x, y), divide(y, #0), exp(#1, 2)", "add(y, z)") == 2
        # A trial dies where the divisor's numerator vanishes, whatever its weight.
        assert _needed(", ".join([*big, "divide(y, #61)", "exp(#62, 2)"]), "add(y, z)") == 2
        # Two exps whose operands agree by accident with a chance near 1 leave it saying nothing too.
        two = [*big, "exp(#61, 2)", "exp(#61, 3)", "add(#62, #63)"]
        assert _needed(", ".join(two), "add(y, z)") == 32
        assert _needed("exp(x, 2), exp(x, 3), add(#0, #1)", "add(y, z)") == 2

    @pytest.mark.parametrize("factor", [6, 11])
    def test_bound_within_rounding_of_one_says_nothing(self, factor):
        # factor * degree falls just short of 2**63: a point agrees (6 * D),
        # or a trial dies (11 * Q), with a chance that log2 rounds to 1.
        degree = (2**63 - 1) // factor // 2 * 2
        steps = _x_to_the(degree)
        if factor == 11:  # the divisor x**degree + z
            steps += [f"add(#{len(steps) - 1}, z)", f"divide(y, #{len(steps)})"]
        left = ", ".join(steps)
        assert _budget(left, "add(y, z)") == (32, 1 if factor == 6 else None)
        assert compare_programs(P(left), P("add(y, z)")).reason == "counterexample"

    def test_counts_match_an_integer_oracle_near_the_rounding_edges(self):
        # (D, Q) degree pairs, each a program's difference degree and dead-divisor degree. A point
        # agrees with chance agree / live, agree = 6 * D and live = 2**63 - 11 * Q, so k points
        # start to suffice where D crosses live * 2**(-64 / k) / 6; a trial dies with chance
        # 11 * Q / 2**63, so j trials start to suffice where Q crosses 2**(63 - 64 / j) / 11.
        # Also the cases of test_bound_within_rounding_of_one_says_nothing: x**d, and y / (x**e + z), against y + z.
        d, e = (2**63 - 1) // 6 // 2 * 2, (2**63 - 1) // 11 // 2 * 2
        cases = [(215_553_228_480_216, 91_670), (d, 0), (e + 1, e), (0, 0), (1, 2**63)]
        for m in range(1, 50):
            for dead in (0, 91_670, 2**40):
                edge = _edge(2**63 - 11 * dead, m, 6)
                cases += [(max(edge + delta, 0), dead) for delta in range(-3, 4)]
            edge = _edge(2**63, m, 11)
            cases += [(1, max(edge + delta, 0)) for delta in range(-3, 4)]
        # A chance of exactly 2**-bits: 64 / bits points reach the target but do not go below it.
        for bits in (1, 2, 4, 8, 16, 32):
            dead = next(2 ** (bits + 1) * t for t in (1, 2) if 2 ** (bits + 1) * t % 3 == 1)
            cases.append(((2**63 - 11 * dead) // (6 * 2**bits), dead))
        wrong = []
        for degree, dead in cases:
            plan = [("leaf", b"", False), ("leaf", b"", False), ("leaf", b"", True)]
            degrees = [(degree, 0), (0, 0), (dead, 0)]
            for cap in (1, 32, 45):
                points = _oracle_fewest(6 * degree, 2**63 - 11 * dead, cap)
                expected = (cap if points is None else points, _oracle_fewest(11 * dead, 2**63, 20 * cap))
                if _points_needed(plan, degrees, [0, 1], cap) != expected:
                    wrong.append((degree, dead, cap, expected))
        assert not wrong, wrong[:5]

    def test_point_count_is_exact_where_the_float_falls_one_short(self):
        # x**a / (x**b + z) against y + z: D = a and Q = b. The float estimate of the least k with
        # (6a)**k * 2**64 < (2**63 - 11b)**k reads 5; the integer comparison reads 6.
        first = _x_to_the(215_553_228_480_216)
        second = [re.sub(r"#(\d+)", lambda m: f"#{int(m[1]) + len(first)}", step) for step in _x_to_the(91_670)]
        top = len(first) + len(second)
        left = ", ".join([*first, *second, f"add(#{top - 1}, z)", f"divide(#{len(first) - 1}, #{top})"])
        assert len(P(left).steps) == 94
        assert _budget(left, "add(y, z)") == (6, 2)
        assert compare_programs(P(left), P("add(y, z)")).reason == "counterexample"

    def test_constant_difference_takes_one_point(self):
        # Both sides are constant forms: 1 and 0 differ wherever they are defined.
        assert _needed("divide(a, a)", "subtract(a, a)") == 1


class TestProgramAccuracy:
    """A prediction counts for program accuracy when it is equivalent to the gold program."""

    def test_identical_programs(self):
        assert compare_programs(P("add(1, 2)"), P("add(1, 2)")).equivalent

    def test_commutative_swap_counts(self):
        assert compare_programs(P("add(1, 2)"), P("add(2, 1)")).equivalent

    def test_missing_prediction(self, sample_records):
        verdict = score_record(None, sample_records[0])
        assert not verdict.prog_correct and verdict.failure == "missing"

    def test_flagship_pair_as_prediction(self):
        assert compare_programs(P(FLAGSHIP_A), P(FLAGSHIP_B)).equivalent

    def test_invalid_prediction(self, sample_records):
        # A boolean fed into arithmetic does not parse, so it is scored as a parse error.
        with pytest.raises(ProgramError, match="boolean result"):
            P("greater(a, b), add(#0, 1)")
        verdict = score_record("greater(a, b), add(#0, 1)", sample_records[0])
        assert not verdict.prog_correct and verdict.failure.startswith("parse-error")
