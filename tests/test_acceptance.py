"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Criteria 6a-6d need the public dataset release (train.json / dev.json /
test.json). Point FINPROG_DATASET at the directory that holds those files;
without it those tests report SKIPPED, never PASSED.
"""

import os
import pathlib
import time
from random import Random

import pytest

from finprog.corpus import candidate_facts, dataset_stats, load_records
from finprog.decoding import build_vocabulary
from finprog.dsl import parse_program, render_program, validate
from finprog.equiv import compare_programs
from finprog.corpus import PredictionRecord
from finprog.evaluate import breakdown_report, score_record
from finprog.executor import ExecutionError, execute
from finprog.retrieve import corpus_recall, single_op_answer

from generators import (
    naive_execute,
    oracle_equivalent,
    random_context,
    random_program,
    random_program_pair,
    random_walk,
)

FLAGSHIP_A = "add(a_1, a_2), add(a_3, a_4), subtract(#0, #1)"
FLAGSHIP_B = "add(a_4, a_3), add(a_1, a_2), subtract(#1, #0)"
FLAGSHIP_SWAPPED = "add(a_1, a_2), add(a_3, a_4), subtract(#1, #0)"


def _report(name: str, elapsed: float) -> None:
    print(f"[PASS] {name} ({elapsed:.3f}s)")


def test_criterion_1_equivalence_fidelity():
    """The flagship reordered pair is equivalent, the swapped variant is not,
    and one decision takes under a millisecond."""
    a, b, swapped = map(parse_program, (FLAGSHIP_A, FLAGSHIP_B, FLAGSHIP_SWAPPED))
    assert compare_programs(a, b).equivalent
    assert not compare_programs(a, swapped).equivalent
    assert not compare_programs(b, swapped).equivalent

    timings = []
    for _ in range(7):
        start = time.perf_counter()
        assert compare_programs(a, b).equivalent
        timings.append(time.perf_counter() - start)
    best = min(timings)
    assert best < 0.001, f"equivalence decision took {best * 1000:.3f} ms"
    _report("criterion 1: equivalence fidelity", best)


def test_criterion_2_executor_matches_tree_walking_oracle():
    """10,000 random valid programs on random contexts agree bit-exactly with
    an independent naive tree-walking interpreter."""
    start = time.perf_counter()
    rng = Random(20240501)
    total = 0
    while total < 10_000:
        ctx = random_context(rng)
        for _ in range(5):
            program = random_program(rng, ctx, max_steps=5)
            try:
                mine = (execute(program, ctx), None)
            except ExecutionError as exc:
                mine = (None, type(exc).__name__)
            assert mine == naive_execute(program, ctx), render_program(program)
            total += 1
            if total >= 10_000:
                break
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s exceeds the 10s budget"
    _report("criterion 2: executor vs tree-walking oracle, 10,000 programs", elapsed)


def test_criterion_3_equivalence_matches_randomized_oracle():
    """1,000 random program pairs: zero disagreements between the full
    decision procedure and the pure randomized-rational oracle (K=32)."""
    start = time.perf_counter()
    rng = Random(20240502)
    disagreements = 0
    compared = 0
    while compared < 1_000:
        a, b = random_program_pair(rng)
        oracle = oracle_equivalent(a, b, samples=32, seed=13)
        if oracle is None:
            continue
        if compare_programs(a, b, seed=13).equivalent != oracle:
            disagreements += 1
            print("disagreement:", render_program(a), "||", render_program(b))
        compared += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 30.0, f"{elapsed:.1f}s exceeds the 30s budget"
    _report("criterion 3: equivalence vs randomized oracle, 1,000 pairs", elapsed)


def test_criterion_4_round_trip_and_mask_soundness():
    """10,000 parse-render round-trips are identical and 10,000 mask-guided
    walks all end in programs with zero validation diagnostics."""
    start = time.perf_counter()
    rng = Random(20240503)
    for _ in range(2_000):
        ctx = random_context(rng)
        for _ in range(5):
            program = random_program(rng, ctx, max_steps=5)
            assert parse_program(render_program(program)) == program

    walked = 0
    while walked < 10_000:
        vocab = build_vocabulary(random_context(rng), max_steps=5)
        for _ in range(5):
            text = random_walk(rng, vocab)
            program = parse_program(text)
            assert validate(program) == [], text
            walked += 1
            if walked >= 10_000:
                break
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s exceeds the 10s budget"
    _report("criterion 4: 10,000 round-trips and 10,000 mask walks", elapsed)


def test_criterion_5_gold_self_consistency(sample_path):
    """Gold programs as predictions score 100% on both metrics over the
    bundled sample, and every gold fact id resolves."""
    start = time.perf_counter()
    loaded = load_records(sample_path)
    assert len(loaded.records) == 20 and not loaded.rejects
    for record in loaded.records:
        ids = {f.id for f in candidate_facts(record)}
        assert record.gold_fact_ids <= ids, record.id
    preds = [
        PredictionRecord(id=r.id, program_text=render_program(r.gold_program))
        for r in loaded.records
    ]
    report = breakdown_report(preds, loaded.records)
    assert report.execution_accuracy == 1.0
    assert report.program_accuracy == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s exceeds the 1s budget"
    _report("criterion 5: gold self-consistency on the bundled sample", elapsed)


# --------------------------------------------------------------------------
# dataset-dependent criteria


def _dataset_dir() -> pathlib.Path:
    env = os.environ.get("FINPROG_DATASET")
    candidates = [pathlib.Path(env)] if env else []
    candidates.append(pathlib.Path(__file__).resolve().parent.parent / "data")
    for candidate in candidates:
        if candidate.is_dir() and (candidate / "train.json").exists():
            return candidate
    pytest.skip(
        "public dataset release not found; set FINPROG_DATASET to a directory "
        "containing train.json / dev.json / test.json (reported SKIPPED, not passed)"
    )


def _load_split(directory: pathlib.Path, name: str):
    path = directory / f"{name}.json"
    if not path.exists():
        pytest.skip(f"dataset split {name}.json missing")
    return load_records(path)


def _load_full(directory: pathlib.Path):
    """The records of all three splits, and how many the splits rejected."""
    records, rejected = [], 0
    for split in ("train", "dev", "test"):
        loaded = _load_split(directory, split)
        records.extend(loaded.records)
        rejected += len(loaded.rejects)
    return records, rejected


def test_criterion_6a_gold_execution_matches_stored_answers():
    directory = _dataset_dir()
    records, rejected = _load_full(directory)
    agreeing = 0
    for record in records:
        verdict = score_record(render_program(record.gold_program), record)
        agreeing += verdict.exe_correct
    share = agreeing / len(records)
    print(f"gold execution agreement: {100 * share:.2f}% of {len(records)} ({rejected} rejected)")
    assert share >= 0.99
    _report("criterion 6a: gold programs reproduce stored answers", 0.0)


def test_criterion_6b_stats_reproduction():
    directory = _dataset_dir()
    records, rejected = _load_full(directory)
    print(f"statistics over {len(records)} records ({rejected} rejected)")
    stats = dataset_stats(records)
    expectations = {
        ("op_pct", "divide"): 45.29,
        ("op_pct", "add"): 14.98,
        ("op_pct", "subtract"): 28.20,
        ("op_pct", "multiply"): 5.82,
        ("step_pct", "1"): 59.10,
        ("step_pct", "2"): 32.71,
        ("source_pct", "text-only"): 23.42,
        ("source_pct", "table-only"): 62.43,
        ("source_pct", "table-text"): 14.15,
    }
    for (table, key), expected in expectations.items():
        got = getattr(stats, table)[key]
        print(f"{table}[{key}] = {got:.2f} (expected {expected} ± 0.5)")
        assert abs(got - expected) <= 0.5, (table, key, got, expected)
    _report("criterion 6b: dataset statistics reproduction", 0.0)


def test_criterion_6c_tfidf_recall_at_5():
    directory = _dataset_dir()
    records, rejects = _load_split(directory, "test")
    mean, _ = corpus_recall(records, k=5)
    print(f"tf-idf recall@5 = {100 * mean:.2f}% of {len(records)} ({len(rejects)} rejected; expected 82.91 ± 3.0)")
    assert abs(100 * mean - 82.91) <= 3.0
    _report("criterion 6c: TF-IDF recall@5", 0.0)


def test_criterion_6d_single_op_baseline():
    directory = _dataset_dir()
    records, rejects = _load_split(directory, "test")
    correct = 0
    for record in records:
        result = single_op_answer(record)
        if result.value is None:
            continue
        verdict = score_record(result.program_text, record)
        correct += verdict.exe_correct
    accuracy = 100 * correct / len(records)
    print(
        f"single-op execution accuracy = {accuracy:.2f}% of {len(records)}"
        f" ({len(rejects)} rejected; expected 1.01 ± 0.5)"
    )
    assert abs(accuracy - 1.01) <= 0.5
    _report("criterion 6d: retrieve-and-divide baseline accuracy", 0.0)
