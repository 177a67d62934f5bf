"""finprog benchmark: seeded workloads through the public API and the CLI.

    python3 bench/run.py --workload eval-canonical --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` a run reports the end-to-end metrics from three
interleaved rounds of: a fresh-interpreter set-up, main passes that each run
every record once, for a third of ``--seconds`` and at least three, and the
user's CLI command in a child process. With ``--trace 1`` it reports
per-layer metrics from spans taken
around calls into each module's public functions, plus an untraced pass to
price the tracing itself. Every run checks its outputs against the oracle
expectations of ``bench/workloads.py`` and against the CLI's machine JSON.
The last line of standard output is one JSON object; everything else is
human-readable. See bench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Top-k used by recall and rankings, as the CLI's default.
K = 3
#: Rounds per end-to-end run. Each round times one fresh-interpreter set-up
#: (setup_s is their median) and main passes over freshly loaded records for
#: a ROUNDS-th of --seconds, at least MIN_PASSES_PER_ROUND of them (every
#: record keeps its fastest pass); the first and last rounds also run the CLI
#: command (cli_s is the faster). A shared host has slow spells from tens of
#: milliseconds to about a minute: a record keeps a slowed time only when
#: every one of its passes fell in one, and spreading the passes over the
#: whole run and over CPUS makes that rare.
ROUNDS = 3
MIN_PASSES_PER_ROUND = 3
#: The CPUs this process may use, highest-numbered first. The run and its
#: children are pinned to the first; the main passes of an end-to-end run take
#: turns over all of them. On a shared 2-vCPU host each virtual CPU runs about
#: 1.7 times slower for spells of its own (from a fraction of a second to
#: minutes), mostly not at the same time as the other: alternating passes
#: between them cut the spread of a pass-time estimate about threefold.
CPUS = sorted(os.sched_getaffinity(0), reverse=True)
#: A child process that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 150
#: Clock for in-process timings: this thread's CPU time. The passes are
#: single-threaded and never block, so on an idle host it equals wall time;
#: on a shared host it leaves out time the scheduler gave to other processes.
CLOCK = time.thread_time

#: The bounded end-to-end metrics.
END_TO_END = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "record_ms_p50": "ms",
    "cli_peak_rss_mb": "MB",
}
#: End-to-end metrics reported beside them (standard output and the BENCH
#: file) without a bound. On a shared host both swing with its slow spells by
#: more than the largest bound allowed: a whole CLI run integrates every
#: spell, and the largest records, which set p99, slow down the most.
#: fail_frac is reported too; it is 0 on a correct commit, so a bound
#: relative to it would mean nothing.
UNBOUNDED = {"record_ms_p99": "ms", "cli_s": "s"}

#: Layers called per record or per item: calls, self time, p50/p99, errors.
LAYERS = (
    "corpus.json_decode",
    "dsl.parse_program",
    "dsl.validate",
    "context.build",
    "numeric.extract_numbers",
    "executor.execute",
    "numeric.values_equal",
    "equiv.canonical-match",
    "equiv.counterexample",
    "equiv.incomparable-types",
    "equiv.randomized-agreement",
    "equiv.degenerate",
    "evaluate.score_record",
    "corpus.candidate_facts",
    "retrieve.build_index",
    "retrieve.rank",
    "retrieve.single_op_answer",
)
#: Layers called once per run: self time only.
ONCE = (
    "cli.startup",
    "corpus.load_records",
    "evaluate.load_predictions",
    "retrieve.corpus_recall",
    "corpus.dataset_stats",
)
RATIOS = (
    "equiv.fallback_frac",
    "executor.error_frac",
    "corpus.reject_frac",
    "evaluate.unattributed_frac",
    "retrieve.recall_at_k",
    "trace.overhead_frac",
)
_LAYER_FIELDS = (("calls", "count"), ("s", "s"), ("p50_us", "us"), ("p99_us", "us"), ("errors", "count"))
_FALLBACK = ("randomized-agreement", "degenerate")
#: Marks the failure of a workload's purpose rule on equiv.fallback_frac.
OFF_PURPOSE = "purpose needs"


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        for field, unit in _LAYER_FIELDS:
            units[f"{layer}.{field}"] = unit
    for layer in ONCE:
        units[f"{layer}.s"] = "s"
    for name in RATIOS:
        units[name] = "ratio"
    return units


def _require_layout() -> None:
    needed = ("src/finprog/__init__.py", "tests/generators.py")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]


_require_layout()

from finprog import (  # noqa: E402
    ExecutionError,
    ProgramError,
    build_index,
    candidate_facts,
    compare_programs,
    corpus_recall,
    dataset_stats,
    execute,
    extract_numbers,
    is_valid,
    load_predictions,
    load_records,
    parse_answer,
    parse_program,
    rank,
    recall_at_k,
    score_record,
    single_op_answer,
    validate,
    values_equal,
)

from generators import naive_execute  # noqa: E402
from tracer import Tracer, percentiles  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

_CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
_SETUP_CODE = (
    "import sys\n"
    "from finprog import load_predictions, load_records\n"
    "load_records(sys.argv[1])\n"
    "if len(sys.argv) > 2:\n"
    "    load_predictions(sys.argv[2])\n"
)


# ---------------------------------------------------------------------------
# child processes


def run_child(argv: list[str], log) -> tuple[float, float, int]:
    """Run one Python child to completion: (wall seconds, peak RSS MB, exit code).

    Peak RSS comes from this child's own rusage, so earlier children do not
    leak into it. A child past CHILD_TIMEOUT_S is killed and reported as -9.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=_CHILD_ENV, stdout=subprocess.DEVNULL, stderr=log
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: stop the child before leaving
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


# ---------------------------------------------------------------------------
# one run


class Run:
    """One workload run. The generated inputs live only in its files, so the
    heap the timed passes run in holds what a CLI run's would, plus the
    oracle expectations and one pickled copy of the loaded records."""

    def __init__(self, work: Workload, seconds: float, trace: bool):
        self.name = work.name
        self.seed = work.seed
        self.expected = work.expected
        self.pages = work.pages
        self.n_records = len(work.records)
        self.n_predictions = len(work.predictions)
        self.seconds = seconds
        self.trace = trace
        self.is_eval = work.name.startswith("eval")
        self.dir = OUT / f"{work.name}-seed{work.seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.records_path = self.dir / "records.jsonl"
        self.records_path.write_bytes(work.records_bytes())
        self.preds_path = self.dir / "predictions.jsonl"
        if self.is_eval:
            self.preds_path.write_bytes(work.predictions_bytes())
        self.log = open(self.dir / "children.stderr", "wb")
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: dict = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def close(self) -> None:
        self.log.close()

    # -- inputs -----------------------------------------------------------

    def load(self):
        loaded = load_records(self.records_path)
        preds = {}
        if self.is_eval:
            preds = {p.id: p.program_text for p in load_predictions(self.preds_path)}
        return loaded, preds

    def child_inputs(self) -> list[str]:
        paths = [str(self.records_path)]
        if self.is_eval:
            paths.append(str(self.preds_path))
        return paths

    # -- main pass ------------------------------------------------------------

    def _main_call(self, record, preds):
        """The main-pass work for one record, as the CLI command does it."""
        if self.is_eval:
            return score_record(preds.get(record.id), record)
        index = build_index(candidate_facts(record))
        return rank(record.question, index, K), single_op_answer(record, index)

    def main_pass(self, records, preds, budget: float) -> tuple[list, list]:
        """Run the main call once per record; per-record seconds and outputs.

        Stops after the record that takes the pass past ``budget`` seconds.
        An exception is kept as the record's output: the calls never raise.
        """
        times, outputs = [], []
        gc.collect()
        for record in records:
            start = CLOCK()
            try:
                out = self._main_call(record, preds)
            except Exception as exc:
                out = exc
            times.append(CLOCK() - start)
            outputs.append(out)
            budget -= times[-1]
            if budget < 0:
                break
        return times, outputs

    def traced_pass(self, tracer: Tracer, records, preds) -> tuple[float, list, list]:
        """The main pass with spans, plus a replay of each call's public parts.

        Returns the seconds spent in the main-pass calls themselves (with
        their span bookkeeping), the outputs, and the equivalence decisions.
        """
        main_s = 0.0
        outputs, decisions = [], []
        budget = self.seconds / 2
        gc.collect()
        for record in records:
            tracer.record = record.id
            decision = None
            with tracer.span("pass.record"):
                start = CLOCK()
                try:
                    if self.is_eval:
                        with tracer.span("evaluate.score_record"):
                            out = score_record(preds.get(record.id), record)
                    else:
                        with tracer.span("corpus.candidate_facts"):
                            facts = candidate_facts(record)
                        with tracer.span("retrieve.build_index"):
                            index = build_index(facts)
                        with tracer.span("retrieve.rank"):
                            ranked = rank(record.question, index, K)
                        with tracer.span("retrieve.single_op_answer"):
                            out = (ranked, single_op_answer(record, index))
                except Exception as exc:
                    out = exc
                elapsed = CLOCK() - start
                if not isinstance(out, Exception):
                    try:
                        if self.is_eval:
                            decision = self._replay_score(tracer, record, preds.get(record.id))
                        else:
                            self._replay_single_op(tracer, record, index, facts)
                    except Exception as exc:
                        out = exc
            main_s += elapsed
            outputs.append(out)
            decisions.append(decision)
            budget -= elapsed
            if budget < 0:
                break
        tracer.record = ""
        return main_s, outputs, decisions

    @staticmethod
    def _replay_score(tracer: Tracer, record, text):
        """The public calls score_record makes, each in its own span."""
        if text is None:
            tracer.count("evaluate.missing")
            return None
        try:
            with tracer.span("dsl.parse_program"):
                program = parse_program(text)
        except ProgramError:
            tracer.count("dsl.parse_errors")
            return None
        with tracer.span("dsl.validate"):
            valid = is_valid(validate(program, allow_symbols=True))
        decision = None
        if valid:
            with tracer.span("equiv") as sp:
                decision = compare_programs(program, record.gold_program)
            sp[0] = f"equiv.{decision.reason}"
            tracer.count(sp[0])
        with tracer.span("context.build"):
            ctx = record.context()
        tracer.count("executor.calls")
        try:
            with tracer.span("executor.execute"):
                value = execute(program, ctx)
        except ExecutionError:
            tracer.count("executor.errors")
            return decision
        gold = parse_answer(record.gold_answer)
        if gold is not None and not isinstance(gold, bool) and not isinstance(value, bool):
            with tracer.span("numeric.values_equal"):
                values_equal(value, gold)
        return decision

    @staticmethod
    def _replay_single_op(tracer: Tracer, record, index, facts) -> None:
        """The public calls single_op_answer makes, each in its own span."""
        with tracer.span("retrieve.rank"):
            ranked = rank(record.question, index, 2)
        with tracer.span("context.build"):
            ctx = record.context()
            ctx.sentence_quantities
        by_id = {f.id: f for f in facts}
        operands = []
        for fact_id, _ in ranked:
            fact = by_id[fact_id]
            if fact.source == "text":
                quantities = ctx.sentence_quantities[int(fact.id.split(":")[1])]
            else:
                with tracer.span("numeric.extract_numbers"):
                    quantities = extract_numbers(fact.content)
            if quantities:
                operands.append(quantities[0].render())
        try:
            with tracer.span("dsl.parse_program"):
                program = parse_program(f"divide({', '.join(operands)})")
        except ProgramError:
            tracer.count("dsl.parse_errors")
            return
        tracer.count("executor.calls")
        try:
            with tracer.span("executor.execute"):
                execute(program, ctx)
        except ExecutionError:
            tracer.count("executor.errors")

    def traced_ingest(self, tracer: Tracer):
        """load_records and load_predictions, plus a replay of ingest's parts."""
        gold_texts = {}
        gc.collect()
        for line in self.records_path.read_text(encoding="utf-8").splitlines():
            with tracer.span("corpus.json_decode"):
                raw = json.loads(line)
            gold_texts[raw["id"]] = raw["qa"]["program"]
        with tracer.span("corpus.load_records"):
            loaded = load_records(self.records_path)
        tracer.count("corpus.records", len(loaded.records))
        tracer.count("corpus.rejects", len(loaded.rejects))
        for record in loaded.records:
            tracer.record = record.id
            with tracer.span("pass.ingest"):
                with tracer.span("dsl.parse_program"):
                    program = parse_program(gold_texts[record.id])
                with tracer.span("dsl.validate"):
                    validate(program)
                with tracer.span("context.build"):
                    ctx = record.context()
                    ctx.number_values
                texts = list(ctx.text_sentences) + list(record.table.header)
                for name, cells in record.table.rows:
                    texts.append(name)
                    texts.extend(cells)
                for text in texts:
                    with tracer.span("numeric.extract_numbers"):
                        extract_numbers(text)
                with tracer.span("dsl.validate"):
                    validate(program, ctx)
        tracer.record = ""
        preds = {}
        if self.is_eval:
            with tracer.span("evaluate.load_predictions"):
                preds = {p.id: p.program_text for p in load_predictions(self.preds_path)}
        return loaded, preds

    # -- CLI ----------------------------------------------------------------

    def cli(self) -> tuple[float, float, dict]:
        """The workload's user command(s) once: wall seconds, peak RSS MB, outputs."""
        records = str(self.records_path)
        if self.is_eval:
            commands = {
                "eval": ["eval", "--records", records, "--preds", str(self.preds_path)],
            }
        else:
            commands = {
                "retrieve": ["retrieve", "--records", records, "--k", str(K)],
                "stats": ["stats", "--records", records],
            }
        wall, peak, outputs = 0.0, 0.0, {}
        for name, argv in commands.items():
            out = self.dir / f"cli-{name}.json"
            if out.exists():
                out.unlink()
            seconds, rss, code = run_child(
                ["-m", "finprog.cli", *argv, "--format", "machine", "--out", str(out)], self.log
            )
            wall += seconds
            peak = max(peak, rss)
            self.check(code == 0, f"cli {name}: exit code {code}, expected 0")
            try:
                outputs[name] = json.loads(out.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                self.check(False, f"cli {name}: no machine JSON ({exc})")
        return wall, peak, outputs

    # -- correctness gate ------------------------------------------------------

    def gate_eval(self, records, outputs, decisions, cli_out) -> None:
        """Verdicts against the oracle, CLI against in-process, fallback share."""
        reasons: dict[str, int] = {}
        for record, out, decision in zip(records, outputs, decisions):
            expected = self.expected[record.id]
            if not self.check(not isinstance(out, BaseException), f"{record.id}: raised {out!r}"):
                continue
            failure = out.failure
            if failure and failure.startswith("parse-error"):
                failure = "parse-error"
            got = (out.exe_correct, out.prog_correct, failure)
            want = (expected.exe_correct, expected.prog_correct, expected.failure)
            ok = got == want
            if decision is not None:
                reasons[decision.reason] = reasons.get(decision.reason, 0) + 1
                ok = ok and decision.equivalent == expected.equivalent
            self.check(ok, f"{record.id}: verdict {got} (decision {decision and decision.reason}), oracle {want}")
        self.gate_fallback(reasons)

        report = cli_out.get("eval")
        if report is not None:
            cli_verdicts = {v["id"]: v for v in report["verdicts"]}
            mine = {r.id: o for r, o in zip(records, outputs) if not isinstance(o, BaseException)}
            same = all(cli_verdicts.get(rid) == v.to_dict() for rid, v in mine.items())
            # accuracies over the whole file: in-process when the pass covered
            # it, else the oracle's (the covered verdicts were checked above)
            scored = list(mine.values()) if len(mine) == len(records) else list(self.expected.values())
            accuracies = (
                sum(v.exe_correct for v in scored) / len(scored),
                sum(v.prog_correct for v in scored) / len(scored),
            )
            same = same and (report["execution_accuracy"], report["program_accuracy"]) == accuracies
            self.check(same and report["rejects"] == [], "cli eval: machine JSON differs from in-process results")

    def gate_fallback(self, reasons: dict) -> None:
        decisions = sum(reasons.values())
        fallback = sum(reasons.get(r, 0) for r in _FALLBACK)
        share = fallback / decisions if decisions else 0.0
        name = self.name
        if name == "eval-canonical":
            ok, rule = decisions > 0 and share <= 0.01, "at most 0.01"
        elif name == "eval-rewrite":
            ok, rule = decisions > 0 and share >= 0.9, "at least 0.9"
        else:
            ok, rule = decisions == 0, "no decisions"
        if not self.check(ok, f"{name}: equiv.fallback_frac {share:.4f} over {decisions} decisions, {OFF_PURPOSE} {rule}"):
            print(f"bench: WORKLOAD OFF PURPOSE: {self.failures[-1]}", file=sys.stderr)
        self.notes["fallback"] = {"fallback": fallback, "decisions": decisions}

    def gate_retrieve(self, records, outputs, recall_mean, stats, cli_out) -> None:
        """single_op_answer against the naive executor; CLI against in-process."""
        for record, out in zip(records, outputs):
            if not self.check(not isinstance(out, BaseException), f"{record.id}: raised {out!r}"):
                continue
            answer = out[1]
            try:
                program = parse_program(answer.program_text)
            except ProgramError:
                self.check(answer.error is not None, f"{record.id}: unparseable baseline scored a value")
                continue
            value, error = naive_execute(program, record.context())
            if answer.error is None:
                ok = error is None and value == answer.value
            else:
                ok = error is not None
            self.check(ok, f"{record.id}: baseline {answer.value!r}/{answer.error!r}, oracle {value!r}/{error!r}")
        self.check(
            stats["examples"] == self.n_records and stats["report_pages"] == self.pages,
            f"dataset_stats counts {stats['examples']}/{stats['report_pages']} records/pages, "
            f"generated {self.n_records}/{self.pages}",
        )
        retrieved = cli_out.get("retrieve")
        if retrieved is not None:
            rankings = {
                r.id: [{"fact": fid, "score": score} for fid, score in o[0]]
                for r, o in zip(records, outputs)
                if not isinstance(o, BaseException)
            }
            same = all(retrieved["rankings"].get(rid) == v for rid, v in rankings.items())
            if len(rankings) == len(records):
                same = same and retrieved["recall_at_k"] == recall_mean
            self.check(same, "cli retrieve: machine JSON differs from in-process results")
        if "stats" in cli_out:
            self.check(cli_out["stats"] == stats, "cli stats: machine JSON differs from in-process results")

    def in_process_recall(self, records, outputs) -> float:
        """Mean recall@k over the main pass's own rankings, in corpus order."""
        values = [
            recall_at_k(o[0], r.gold_fact_ids, K)
            for r, o in zip(records, outputs)
            if not isinstance(o, BaseException)
        ]
        return sum(values) / len(values) if values else 0.0

    def untraced_decisions(self, records, preds, outputs) -> list:
        """Equivalence decisions for the scored records, made after timing."""
        scratch = Tracer()
        return [self._replay_score(scratch, r, preds.get(r.id)) for r, _ in zip(records, outputs)]

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self) -> dict:
        """ROUNDS rounds of: a fresh-interpreter set-up, main passes for a
        ROUNDS-th of ``--seconds``, and (first and last rounds) the CLI
        command. Interleaving spreads each metric's repeats over the whole
        run, so one slow spell of the host reaches few of them.

        Records are loaded once and pickled; every pass unpickles its own
        copy, so each pass starts from freshly loaded state (no cache a pass
        leaves on the objects reaches the next) at a small part of the cost
        of loading again.
        """
        loaded, preds = self.load()
        self.check(not loaded.rejects, f"{len(loaded.rejects)} records rejected at load")
        fresh = pickle.dumps((loaded.records, preds), pickle.HIGHEST_PROTOCOL)
        del loaded, preds
        setups, clis = [], []
        times = first_pass = first_outputs = None
        passes = 0
        for round_index in range(ROUNDS):
            seconds, _, code = run_child(["-c", _SETUP_CODE, *self.child_inputs()], self.log)
            self.check(code == 0, f"setup child: exit code {code}")
            setups.append(seconds)

            turn, round_start = 0, time.perf_counter()
            while turn < MIN_PASSES_PER_ROUND or time.perf_counter() - round_start < self.seconds / ROUNDS:
                records = preds = outputs = None  # the previous pass's objects go before the next copy
                records, preds = pickle.loads(fresh)
                os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})
                try:
                    pass_times, outputs = self.main_pass(records, preds, self.seconds / 2)
                finally:
                    os.sched_setaffinity(0, {CPUS[0]})
                turn += 1
                if times is None:
                    times, first_pass, first_outputs = pass_times, pass_times, outputs
                else:
                    times = [min(a, b) for a, b in zip(times, pass_times)]
                    self.check(
                        _same_outputs(first_outputs, outputs),
                        "a repeated pass gave other outputs on the same records",
                    )
            passes += turn

            if round_index in (0, ROUNDS - 1):
                clis.append(self.cli())
        del first_outputs
        cli_out = clis[-1][2]

        if self.is_eval:
            decisions = self.untraced_decisions(records, preds, outputs)
            self.gate_eval(records, outputs, decisions, cli_out)
        else:
            recall = self.in_process_recall(records, outputs)
            self.gate_retrieve(records, outputs, recall, dataset_stats(records).to_dict(), cli_out)

        p50, p99 = percentiles(times)
        self.notes.update(
            samples=len(times),
            passes=passes,
            records=len(records),
            setup_runs=setups,
            first_pass_records_per_s=len(first_pass) / sum(first_pass),
            beyond_p99=sum(t > p99 for t in times),
            cli_runs=[c[:2] for c in clis],
        )
        return {
            "setup_s": statistics.median(setups),
            "records_per_s": len(times) / sum(times),
            "record_ms_p50": p50 * 1e3,
            "record_ms_p99": p99 * 1e3,
            "cli_s": min(c[0] for c in clis),
            "cli_peak_rss_mb": statistics.median(c[1] for c in clis),
        }

    def per_layer(self) -> dict:
        tracer = Tracer()
        seconds, _, code = run_child(["-c", "import finprog"], self.log)
        tracer.add("cli.startup", seconds)
        self.check(code == 0, f"startup child: exit code {code}")

        fresh, fresh_preds = self.load()
        untraced_times, _ = self.main_pass(fresh.records, fresh_preds, self.seconds / 2)
        del fresh

        loaded, preds = self.traced_ingest(tracer)
        self.check(not loaded.rejects, f"{len(loaded.rejects)} records rejected at load")
        records = loaded.records
        main_s, outputs, decisions = self.traced_pass(tracer, records, preds)
        recall = 0.0
        stats = None
        if not self.is_eval:
            with tracer.span("retrieve.corpus_recall"):
                recall, _ = corpus_recall(records, K)
            with tracer.span("corpus.dataset_stats"):
                stats = dataset_stats(records).to_dict()
        _, _, cli_out = self.cli()

        if self.is_eval:
            self.gate_eval(records, outputs, decisions, cli_out)
        else:
            self.gate_retrieve(records, outputs, recall, stats, cli_out)
            if len(outputs) == len(records):
                self.check(
                    recall == self.in_process_recall(records, outputs),
                    "corpus_recall differs from the mean of the pass's own recall@k",
                )

        layers = tracer.layers()
        metrics = {}
        for layer in LAYERS:
            entry = layers.get(layer, {})
            for field, _ in _LAYER_FIELDS:
                metrics[f"{layer}.{field}"] = entry.get(field, 0)
        for layer in ONCE:
            metrics[f"{layer}.s"] = layers.get(layer, {}).get("s", 0.0)

        counts = tracer.counts
        decided = sum(v for k, v in counts.items() if k.startswith("equiv."))
        fallback = sum(counts.get(f"equiv.{r}", 0) for r in _FALLBACK)
        executed, failed = counts.get("executor.calls", 0), counts.get("executor.errors", 0)
        lines = counts["corpus.records"] + counts["corpus.rejects"]
        scored_s, replay_s = self._score_coverage(tracer)
        untraced_rps = len(untraced_times) / sum(untraced_times)
        traced_rps = len(outputs) / main_s
        metrics.update(
            {
                "equiv.fallback_frac": fallback / decided if decided else 0.0,
                "executor.error_frac": failed / executed if executed else 0.0,
                "corpus.reject_frac": counts["corpus.rejects"] / lines,
                "evaluate.unattributed_frac": (scored_s - replay_s) / scored_s if scored_s else 0.0,
                "retrieve.recall_at_k": recall,
                "trace.overhead_frac": 1.0 - traced_rps / untraced_rps,
            }
        )
        self.notes.update(
            bases={
                "equiv.fallback_frac": {"fallback": fallback, "decisions": decided},
                "executor.error_frac": {"errors": failed, "calls": executed},
                "corpus.reject_frac": {"rejects": counts["corpus.rejects"], "lines": lines},
                "evaluate.unattributed_frac": {"score_record_s": scored_s, "replayed_children_s": replay_s},
                "retrieve.recall_at_k": {"records": len(records), "k": K},
                "trace.overhead_frac": {"traced_records_per_s": traced_rps, "untraced_records_per_s": untraced_rps},
            },
            spans=len(tracer.spans),
            counts=counts,
        )
        tracer.write(self.dir / "spans.jsonl")
        return metrics

    @staticmethod
    def _score_coverage(tracer: Tracer) -> tuple[float, float]:
        """Seconds in score_record, and in the replayed calls of the same records."""
        roots = {i for i, sp in enumerate(tracer.spans) if sp[0] == "pass.record"}
        scored = replayed = 0
        for name, start, end, parent, _, _ in tracer.spans:
            if parent in roots:
                if name == "evaluate.score_record":
                    scored += end - start
                else:
                    replayed += end - start
        return scored / 1e9, replayed / 1e9


def _same_outputs(first: list, second: list) -> bool:
    """Whether two passes over the same records produced the same results."""

    def comparable(out):
        return repr(out) if isinstance(out, BaseException) else out

    return all(comparable(a) == comparable(b) for a, b in zip(first, second))


# ---------------------------------------------------------------------------
# provenance and reporting


def _git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None, None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head or None, bool(status.strip())


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(run: Run, commit, dirty, load_start) -> dict:
    inputs = {
        "records": {
            "path": run.records_path.name,
            "count": run.n_records,
            "bytes": run.records_path.stat().st_size,
        }
    }
    if run.is_eval:
        inputs["predictions"] = {
            "path": run.preds_path.name,
            "count": run.n_predictions,
            "bytes": run.preds_path.stat().st_size,
        }
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(CPUS[:1] if run.trace else CPUS),
        "cpu_model": _cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "workload": run.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "inputs": inputs,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> dict:
    """One full run; returns the result object (metrics, counts, notes)."""
    commit, dirty = _git_state()
    load_start = list(os.getloadavg())
    run = Run(generate(name, seed, size), seconds, trace)
    try:
        values = run.per_layer() if trace else run.end_to_end()
    finally:
        run.close()
    units = per_layer_units() if trace else END_TO_END
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    report = dict(result)
    if not trace:
        report["unbounded"] = {k: {"value": values[k], "unit": u} for k, u in UNBOUNDED.items()}
    report["fail_frac"] = len(run.failures) / run.attempted
    report["failures"] = run.failures[:50]
    report["notes"] = run.notes
    report["provenance"] = provenance(run, commit, dirty, load_start)
    path = OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    _print_human(name, seed, trace, result, report)
    return result


def _print_human(name, seed, trace, result, report) -> None:
    notes = report["notes"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    shown = dict(result["metrics"], **report.get("unbounded", {}))
    for metric, entry in shown.items():
        extra = {
            "setup_s": f"median of {len(notes.get('setup_runs', ()))} fresh interpreters",
            "record_ms_p50": f"n={notes.get('samples')}",
            "record_ms_p99": f"n={notes.get('samples')}, {notes.get('beyond_p99')} beyond; no bound",
            "cli_s": f"fastest of {len(notes.get('cli_runs', ()))} CLI runs; no bound",
        }.get(metric)
        extra = f"  ({extra})" if extra and not trace else ""
        print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}{extra}")
    print(f"  {'fail_frac':<36} {report['fail_frac']:>14.6g} ratio  ({result['failed']} of {result['attempted']} operations)")
    for failure in report["failures"][:10]:
        print(f"  FAILED: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for the run and its children, the highest-numbered one allowed:
    # a guest kernel packs its other tasks on the lowest-numbered CPU, and on
    # a 2-vCPU host set-up and CLI runs measured steadier away from it.
    os.sched_setaffinity(0, {CPUS[0]})
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
