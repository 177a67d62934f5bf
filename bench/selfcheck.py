"""Fast self-check of the benchmark harness at tiny sizes.

    python3 bench/selfcheck.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit (and the unbounded ones, record_ms_p99, cli_s and
fail_frac, are in the BENCH file), that generation is deterministic per seed, and that
the correctness gate catches a planted wrong verdict and an off-purpose
workload. Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (sets up the import paths for the rest)
from workloads import WORKLOADS, generate  # noqa: E402

#: Tiny sizes. A fallback share over a few dozen decisions says nothing about
#: a workload's purpose, so the purpose rule is checked only through the
#: planted share below; every other check must pass on every seed.
TINY = {"eval-canonical": 60, "eval-rewrite": 30, "retrieve": 40}
SEED = 1
SECONDS = 2.0


def _declared() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def main() -> int:
    problems: list[str] = []
    end_to_end, per_layer = _declared()
    if end_to_end != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if per_layer != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")

    run.OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            result = run.run_workload(name, SEED, SECONDS, trace, size=TINY[name])
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared:
                problems.append(f"{name} trace={int(trace)}: metrics or units differ from BENCHMARK.json")
            report = json.loads((run.OUT / f"BENCH_{name}_seed{SEED}_trace{int(trace)}.json").read_text())
            unbounded = {k: v["unit"] for k, v in report.get("unbounded", {}).items()}
            if unbounded != ({} if trace else run.UNBOUNDED) or "fail_frac" not in report:
                problems.append(f"{name} trace={int(trace)}: unbounded metrics missing from the BENCH file")
            if any(run.OFF_PURPOSE not in f for f in report["failures"]):
                problems.append(f"{name} trace={int(trace)}: gate failed on a correct commit")

    for name in WORKLOADS:
        first = generate(name, SEED, TINY[name])
        again = generate(name, SEED, TINY[name])
        other = generate(name, SEED + 1, TINY[name])
        same = (first.records_bytes(), first.predictions_bytes()) == (
            again.records_bytes(),
            again.predictions_bytes(),
        )
        if not same:
            problems.append(f"{name}: the same seed gave different files")
        if first.records_bytes() == other.records_bytes():
            problems.append(f"{name}: different seeds gave the same records")

    work = generate("eval-canonical", SEED, TINY["eval-canonical"])
    planted = next(iter(work.expected))
    truth = work.expected[planted]
    work.expected[planted] = dataclasses.replace(truth, exe_correct=not truth.exe_correct)
    bad = run.Run(work, SECONDS, trace=False)
    try:
        bad.end_to_end()
    finally:
        bad.close()
    if not any(f.startswith(f"{planted}:") for f in bad.failures):
        problems.append("the gate missed a planted wrong verdict")

    off = run.Run(generate("eval-canonical", SEED, 5), SECONDS, trace=False)
    off.close()
    off.gate_fallback({"canonical-match": 1, "randomized-agreement": 1})
    if not off.failures:
        problems.append("the gate accepted an eval-canonical fallback share of 0.5")

    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
