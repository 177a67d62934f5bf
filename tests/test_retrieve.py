import json
import math
import re
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finprog.context import FinTable
from finprog.corpus import Fact, candidate_facts, load_records
from finprog.retrieve import (
    EmptyCorpus,
    NoGoldFacts,
    build_index,
    corpus_recall,
    rank,
    rank_records,
    ranked_recall,
    recall_at_k,
    single_op_answer,
    tokenize,
)

from generators import naive_tfidf_rank


def facts(*contents):
    return [Fact(id=f"text:{i}", content=c, source="text") for i, c in enumerate(contents)]


def fact_counts(index):
    """Each fact's raw term counts, read back from the postings."""
    counts = [{} for _ in index.facts]
    for term, posting in index.postings.items():
        for position, count in posting.items():
            counts[position][term] = count
    return counts


# Any text, with pieces that lowering or the byte table could get wrong: lone
# surrogates, NUL and other control characters, the Kelvin sign (which lowers
# to ASCII "k"), "İ" (which lowers to "i" and a combining dot), letters that
# are alphanumeric but not ASCII, a non-ASCII digit, and ASCII punctuation.
_token_texts = st.lists(
    st.text(max_size=8)
    | st.text(st.characters(max_codepoint=127), max_size=8)
    | st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", "\x85", "\u212a", "\u0130", "é", "É", "ß", "\u0663"]),
    max_size=12,
).map("".join)


class TestTokenize:
    def test_lowercase_alnum_runs(self):
        assert tokenize("Net Sales grew 5% to $1,500") == [
            "net", "sales", "grew", "5", "to", "1", "500",
        ]

    @settings(max_examples=500)
    @given(_token_texts)
    @example("THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG, 0123456789 {|}~`@[\\]^_/:;<=>?\x00\x7f")
    @example("\u212a = 1.38e-23 J/\u212a")
    @example("\u0130stanbul caf\u00e9 stra\u00dfe \ud800x\x00y")
    def test_same_tokens_as_the_pattern_on_any_text(self, text):
        assert tokenize(text) == re.findall(r"[a-z0-9]+", text.lower())


class TestBuildIndex:
    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            build_index([])

    def test_identical_facts_identical_counts_and_norms(self):
        index = build_index(facts("net sales rose", "net sales rose"))
        counts = fact_counts(index)
        assert counts[0] == counts[1] == {"net": 1, "sales": 1, "rose": 1}
        assert index.norms[0] == index.norms[1]

    def test_idf_monotonicity(self):
        index = build_index(facts("alpha beta", "alpha gamma", "alpha beta delta"))
        assert index.idf["alpha"] < index.idf["beta"] < index.idf["gamma"]

    def test_weights_match_hand_computation(self):
        index = build_index(facts("alpha beta", "alpha gamma", "alpha beta beta"))
        # hand-derived: idf(t) = ln((1+3)/(1+df)) + 1, tf raw, then L2
        idf_alpha = math.log(4 / 4) + 1
        idf_beta = math.log(4 / 3) + 1
        idf_gamma = math.log(4 / 2) + 1
        assert fact_counts(index) == [{"alpha": 1, "beta": 1}, {"alpha": 1, "gamma": 1}, {"alpha": 1, "beta": 2}]
        f1_norm = math.sqrt(idf_alpha**2 + idf_beta**2)
        f2_norm = math.sqrt(idf_alpha**2 + idf_gamma**2)
        f3_norm = math.sqrt(idf_alpha**2 + (2 * idf_beta) ** 2)
        assert index.norms == pytest.approx((f1_norm, f2_norm, f3_norm))

        def weight(position, term):
            return index.postings[term][position] * index.idf[term] / index.norms[position]

        assert weight(0, "alpha") == pytest.approx(idf_alpha / f1_norm)
        assert weight(0, "beta") == pytest.approx(idf_beta / f1_norm)
        assert weight(1, "gamma") == pytest.approx(idf_gamma / f2_norm)
        assert weight(2, "beta") == pytest.approx(2 * idf_beta / f3_norm)

    def test_unit_weights_have_unit_length(self):
        index = build_index(facts("alpha beta", "alpha gamma gamma", "delta"))
        for counts, norm in zip(fact_counts(index), index.norms):
            weights = [c * index.idf[t] / norm for t, c in counts.items()]
            assert math.sqrt(sum(w * w for w in weights)) == pytest.approx(1.0)


class TestRank:
    def test_repeated_terms_rank_first(self):
        index = build_index(facts("interest rate swap", "revenue by segment", "tax rate"))
        ranked = rank("what was the interest rate swap notional", index, 3)
        assert ranked[0][0] == "text:0"

    def test_k_larger_than_corpus(self):
        index = build_index(facts("a", "b"))
        assert len(rank("a", index, 10)) == 2

    def test_order_matches_hand_computed_cosines(self):
        index = build_index(facts("alpha beta", "alpha gamma", "alpha beta beta"))
        ranked = rank("beta", index, 3)
        # query has only "beta": score is each vector's beta weight;
        # f3 carries two betas but its norm grows, hand-check decides order
        idf_alpha = math.log(4 / 4) + 1
        idf_beta = math.log(4 / 3) + 1
        s1 = idf_beta / math.sqrt(idf_alpha**2 + idf_beta**2)
        s3 = 2 * idf_beta / math.sqrt(idf_alpha**2 + (2 * idf_beta) ** 2)
        assert s3 > s1
        assert [fact_id for fact_id, _ in ranked] == ["text:2", "text:0", "text:1"]
        assert ranked[0][1] == pytest.approx(s3)
        assert ranked[1][1] == pytest.approx(s1)
        assert ranked[2][1] == pytest.approx(0.0)

    def test_ties_break_by_document_order(self):
        index = build_index(facts("same words", "same words", "same words"))
        ranked = rank("same words here", index, 3)
        assert [fact_id for fact_id, _ in ranked] == ["text:0", "text:1", "text:2"]

    def test_scores_non_increasing(self):
        rng = Random(5)
        words = "alpha beta gamma delta epsilon zeta".split()
        corpus = facts(*(" ".join(rng.choices(words, k=6)) for _ in range(20)))
        index = build_index(corpus)
        ranked = rank("alpha beta gamma", index, 20)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_scores_insertion_order_invariant(self):
        rng = Random(9)
        words = "alpha beta gamma delta epsilon zeta".split()
        corpus = facts(*(" ".join(rng.choices(words, k=6)) for _ in range(15)))
        shuffled = corpus[:]
        rng.shuffle(shuffled)
        base = dict(rank("alpha beta", build_index(corpus), 15))
        moved = dict(rank("alpha beta", build_index(shuffled), 15))
        assert base == moved

    def test_deterministic(self):
        index = build_index(facts("a b c", "b c d", "c d e"))
        assert rank("b c", index, 3) == rank("b c", index, 3)


# Words that repeat, digit runs, non-ASCII letters (which split tokens) and
# punctuation; facts may be empty, and a question may share no word with them.
_WORDS = ["net", "sales", "net", "2019", "7", "1,500", "été", "straße", "İncome", "Rate", "-", "."]
_contents = st.one_of(
    st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join),
    st.text(max_size=20),
)
_questions = st.one_of(
    st.lists(st.sampled_from(_WORDS + ["unseen", "words"]), max_size=10).map(" ".join),
    st.just(""),
    st.just("unseen words only"),
    st.text(max_size=20),
)


def _exact(ranked):
    """Ids with each score's type and exact bits; an int score stays an int."""
    return [(i, type(s), s.hex() if isinstance(s, float) else s) for i, s in ranked]


class TestPostings:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_contents, min_size=1, max_size=8))
    def test_postings_hold_each_facts_counts_in_position_order(self, contents):
        index = build_index(facts(*contents))
        expected = [Counter(tokenize(content)) for content in contents]
        assert fact_counts(index) == expected
        for term, posting in index.postings.items():
            assert list(posting) == sorted(posting)
            assert len(posting) == sum(term in counts for counts in expected)
        assert set(index.postings) == set(index.idf) == {t for counts in expected for t in counts}


class TestRankMatchesNaiveFormulas:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_contents, min_size=1, max_size=8), _questions)
    def test_same_ids_and_score_bits_for_every_k(self, contents, question):
        index = build_index(facts(*contents))
        for k in range(len(contents) + 2):
            naive = [(f"text:{p}", score) for p, score in naive_tfidf_rank(contents, question, k)]
            assert _exact(rank(question, index, k)) == _exact(naive)

    def test_same_ids_and_score_bits_on_sample_records(self, sample_records):
        repeated = 0
        for record in sample_records:
            candidates = candidate_facts(record)
            contents = [fact.content for fact in candidates]
            index = build_index(candidates)
            repeated += sum(c > 1 for posting in index.postings.values() for c in posting.values())
            for k in range(len(contents) + 2):
                naive = naive_tfidf_rank(contents, record.question, k)
                expected = [(candidates[p].id, score) for p, score in naive]
                assert _exact(rank(record.question, index, k)) == _exact(expected)
        # Linearized rows repeat "the", "of" and "is", so counts reach above 1.
        assert repeated > 0

    def test_question_with_no_indexed_term_scores_int_zero(self):
        index = build_index(facts("net sales", ""))
        for question in ("", "unseen words"):
            ranked = rank(question, index, 2)
            assert ranked == [("text:0", 0), ("text:1", 0)]
            assert all(type(score) is int for _, score in ranked)
            assert json.dumps(ranked) == '[["text:0", 0], ["text:1", 0]]'

    def test_fact_without_query_terms_scores_float_zero(self):
        ranked = rank("net", build_index(facts("net sales", "rate", "")), 3)
        assert ranked[1:] == [("text:1", 0.0), ("text:2", 0.0)]
        assert all(type(score) is float for _, score in ranked)
        assert json.dumps(ranked[1:]) == '[["text:1", 0.0], ["text:2", 0.0]]'


class TestRankIsOrderInvariant:
    """A score depends on the bag of words: fsum rounds each exact sum once."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(_WORDS), max_size=12), min_size=1, max_size=8),
        st.lists(st.sampled_from(_WORDS + ["unseen"]), max_size=10),
        st.randoms(use_true_random=False),
    )
    def test_reordered_words_keep_every_score_bit(self, fact_words, question_words, rng):
        def shuffled(words):
            words = list(words)
            rng.shuffle(words)
            return " ".join(words)

        contents = [" ".join(words) for words in fact_words]
        question = " ".join(question_words)
        k = len(contents)
        base = _exact(rank(question, build_index(facts(*contents)), k))
        assert _exact(rank(shuffled(question_words), build_index(facts(*contents)), k)) == base
        reordered = build_index(facts(*map(shuffled, fact_words)))
        assert _exact(rank(question, reordered, k)) == base


class TestRecall:
    def test_all_gold_in_top_k(self):
        ranked = [("text:0", 1.0), ("text:1", 0.9)]
        assert recall_at_k(ranked, frozenset({"text:0", "text:1"}), 2) == 1.0

    def test_none_in_top_k(self):
        ranked = [("text:0", 1.0)]
        assert recall_at_k(ranked, frozenset({"text:5"}), 1) == 0.0

    def test_half(self):
        ranked = [("text:0", 1.0), ("text:1", 0.9), ("text:2", 0.8)]
        assert recall_at_k(ranked, frozenset({"text:0", "text:9"}), 3) == 0.5

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_retrieves_nothing(self, k):
        ranked = [("text:0", 1.0), ("text:1", 0.9)]
        assert recall_at_k(ranked, frozenset({"text:0"}), k) == 0.0

    def test_no_gold_facts(self):
        with pytest.raises(NoGoldFacts):
            recall_at_k([("text:0", 1.0)], frozenset(), 1)

    def test_monotone_in_k(self, sample_records):
        for record in sample_records:
            index = build_index(candidate_facts(record))
            ranked = rank(record.question, index, len(index.facts))
            values = [
                recall_at_k(ranked, record.gold_fact_ids, k)
                for k in range(1, len(index.facts) + 1)
            ]
            assert values == sorted(values)

    def test_corpus_recall_on_sample(self, sample_records):
        mean, per_record = corpus_recall(sample_records, k=3)
        assert 0.0 <= mean <= 1.0
        assert len(per_record) == len(sample_records)
        full, _ = corpus_recall(sample_records, k=30)
        assert full == 1.0

    def test_no_records(self):
        for recall in (corpus_recall, ranked_recall):
            with pytest.raises(EmptyCorpus, match="no records to evaluate"):
                recall([], 3)

    def test_one_index_per_run_of_equal_evidence(self, monkeypatch, aaba_path):
        import finprog.retrieve

        records = load_records(aaba_path).records
        fresh = [
            (r.id, recall_at_k(rank(r.question, build_index(candidate_facts(r)), 3), r.gold_fact_ids, 3))
            for r in records
        ]
        built = []

        def counted(facts):
            built.append(1)
            return build_index(facts)

        monkeypatch.setattr(finprog.retrieve, "build_index", counted)
        mean, per_record = corpus_recall(records, k=3)
        assert per_record == fresh
        assert mean == sum(r for _, r in fresh) / len(fresh)
        assert len(built) == 3

    @pytest.mark.parametrize("field", ["pre_text", "table", "post_text"])
    def test_records_differing_in_one_field_get_their_own_index(self, sample_records, field):
        record = next(r for r in sample_records if r.post_text and len(r.table.rows) > 1)
        if field == "table":
            other = FinTable(header=record.table.header, rows=record.table.rows[::-1])
        else:
            other = getattr(record, field)[::-1] + ("another sentence .",)
        records = [record, record._replace(id="other", **{field: other})]
        fresh = [rank(r.question, build_index(candidate_facts(r)), 30) for r in records]
        assert fresh[0] != fresh[1]
        assert [ranked for _, ranked in rank_records(records, 30)] == fresh


class TestSingleOp:
    def test_divides_first_numbers_of_top_two(self, tmp_path):
        import json

        record = {
            "id": "x-0",
            "pre_text": [
                "the numerator series value was 50 for the period .",
                "the denominator series value was 100 for the period .",
            ],
            "post_text": [],
            "table": [["", "2019"], ["unrelated", ""]],
            "qa": {
                "question": "numerator series value denominator series",
                "program": "divide(50, 100)",
                "exe_ans": 0.5,
                "gold_inds": ["text:0", "text:1"],
            },
        }
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(record) + "\n")
        loaded = load_records(path)
        result = single_op_answer(loaded.records[0])
        assert result.error is None
        assert result.value == Fraction(1, 2)
        assert result.program_text in ("divide(50, 100)", "divide(100, 50)")

    def test_post_table_sentence_and_row(self, tmp_path):
        import json

        record = {
            "id": "x-0",
            "pre_text": ["filler with 7 .", "more filler with 9 ."],
            "post_text": ["the widget margin was 40 in the period ."],
            "table": [["", "amount"], ["widget base", "80"], ["other", "3"]],
            "qa": {
                "question": "widget margin over widget base",
                "program": "divide(40, 80)",
                "exe_ans": 0.5,
                "gold_inds": ["text:2", "row:0"],
            },
        }
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(record) + "\n")
        loaded = load_records(path)
        record = loaded.records[0]
        ranked = rank(record.question, build_index(candidate_facts(record)), 2)
        assert [fact_id for fact_id, _ in ranked] == ["row:0", "text:2"]
        result = single_op_answer(record)
        assert result.program_text == "divide(80, 40)"
        assert result.value == Fraction(2) and result.error is None

    def test_given_index_supplies_the_facts(self, monkeypatch, sample_records):
        import finprog.retrieve

        record = sample_records[0]
        index = build_index(candidate_facts(record))
        expected = single_op_answer(record)

        def rebuilt(_record):
            raise AssertionError("candidate_facts called although an index was given")

        monkeypatch.setattr(finprog.retrieve, "candidate_facts", rebuilt)
        assert single_op_answer(record, index) == expected

    def test_degrades_without_numbers(self, tmp_path):
        import json

        record = {
            "id": "x-0",
            "pre_text": ["no figures appear in this sentence .", "none here either ."],
            "post_text": [],
            "table": [["", "a"], ["word row", "only words"]],
            "qa": {
                "question": "what is anything?",
                "program": "divide(1, 1)",
                "exe_ans": 1,
                "gold_inds": ["text:0"],
            },
        }
        path = tmp_path / "one.jsonl"
        path.write_text(json.dumps(record) + "\n")
        loaded = load_records(path)
        result = single_op_answer(loaded.records[0])
        assert result.value is None
        assert result.error
        assert result.program_text.startswith("divide(")
