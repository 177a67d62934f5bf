"""Command-line interface for the program toolchain.

Subcommands: validate, exec, equiv, eval, retrieve, stats, linearize, mask.
Exit codes: 0 success, 1 completed with findings (diagnostics, rejects, or an
execution failure), 2 usage or input errors. A command that reads a record
file writes one stderr line for each record the loader rejected.

Each subcommand's handler imports the modules it runs, so that a command
loads only what it needs: ``exec`` and ``validate`` never import the
equivalence checker, the scorer, the retriever or the decoder.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .context import EvidenceContext
from .dsl import MAX_PROGRAM_STEPS, ProgramError, parse_program
from .numeric import DEFAULT_TOLERANCE


def _at_least(kind: type, low: int, high: float = math.inf):
    """An argparse type: a finite ``kind`` (int or float) value of at least ``low`` and at most ``high``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not low <= value < math.inf:  # also false for nan
            raise argparse.ArgumentTypeError(f"must be at least {low} and finite, got {text}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {text}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finprog",
        description="Parse, validate, execute, and compare financial reasoning programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument(
            "--format",
            choices=("table", "machine"),
            default="table",
            help="human-readable table or machine-readable JSON",
        )

    def add_record_selector(p, required=False):
        p.add_argument("--records", required=required, help="record file (JSON lines or array)")
        p.add_argument("--id", help="record id supplying the evidence context")

    p = sub.add_parser("validate", help="check a program and print diagnostics")
    p.add_argument("program")
    add_record_selector(p)
    p.add_argument("--symbolic", action="store_true", help="allow free symbols as arguments")

    p = sub.add_parser("exec", help="execute a program and print its value")
    p.add_argument("program")
    add_record_selector(p)

    p = sub.add_parser("equiv", help="decide whether two programs are equivalent")
    p.add_argument("program_a")
    p.add_argument("program_b")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="score predictions against a record file")
    p.add_argument("--records", required=True)
    p.add_argument("--preds", required=True)
    p.add_argument("--abs-tol", type=_at_least(float, 0), default=DEFAULT_TOLERANCE.abs_tol)
    p.add_argument("--rel-tol", type=_at_least(float, 0), default=DEFAULT_TOLERANCE.rel_tol)
    p.add_argument("--no-gold-rounding", action="store_true", help="disable the gold-precision rounding clause")
    p.add_argument("--percent-insensitive", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)

    p = sub.add_parser("retrieve", help="rank facts and report corpus recall@k")
    p.add_argument("--records", required=True)
    p.add_argument("--k", type=_at_least(int, 1), default=3, help="facts ranked per record (at least 1)")
    add_output(p)

    p = sub.add_parser("stats", help="dataset statistics for a record file")
    p.add_argument("--records", required=True)
    add_output(p)

    p = sub.add_parser("linearize", help="print templated sentences for table rows")
    p.add_argument("--records", required=True)
    p.add_argument("--id", help="only this record")
    p.add_argument("--out")

    p = sub.add_parser("mask", help="legal next tokens for a program prefix")
    p.add_argument("--prefix", default="", help="program prefix, e.g. 'add ('")
    add_record_selector(p)
    p.add_argument("--max-steps", type=_at_least(int, 1, MAX_PROGRAM_STEPS), default=5)
    return parser


class OutputUnwritable(Exception):
    """The --out path cannot be written."""


def _input_errors() -> tuple[type[Exception], ...]:
    """The errors that a command reports as bad input, with exit status 2.

    ``cli_dispatch`` calls it only when a command raises, so a command that
    reads no record file never imports the corpus module.
    """
    from .corpus import FileUnreadable, SchemaError

    return FileUnreadable, OutputUnwritable, SchemaError


def _emit(text: str, out: Optional[str] = None) -> None:
    """Write ``text`` and a newline to the file ``out``, or to stdout.

    A character the encoding cannot hold, such as a lone surrogate that a
    JSON string may carry, is written backslash-escaped (``\\ud800``); any
    other text is written unchanged. ``cli_dispatch`` sets stdout to escape
    the same way.
    """
    if out:
        try:
            with open(out, "w", encoding="utf-8", errors="backslashreplace") as handle:
                handle.write(text + "\n")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise OutputUnwritable(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _rejected(reject) -> str:
    """How a reject reads on stderr and in an input error: its id, field and reason."""
    where = f" at {reject.field_path}" if reject.field_path else ""
    return f"record {reject.id!r} was rejected{where}: {reject.reason}"


def _load_records(path):
    """``load_records(path)``, after writing one stderr line per reject."""
    from .corpus import load_records

    loaded = load_records(path)
    for reject in loaded.rejects:
        print(_rejected(reject), file=sys.stderr)
    return loaded


def _load_context(args) -> EvidenceContext:
    """The evidence context selected by --records/--id, or an empty one."""
    if not args.records and args.id is None:
        return EvidenceContext.build(())
    from .corpus import SchemaError

    if not args.records:
        raise SchemaError("--id needs --records")
    loaded = _load_records(args.records)
    if args.id is None:
        if not loaded.records:
            raise SchemaError("no records loaded")
        if len(loaded.records) > 1:
            raise SchemaError("--id is required when the record file has several records")
        return loaded.records[0].context()
    return _record_with_id(loaded, args.id).context()


def _record_with_id(loaded, record_id: str):
    """The loaded record with ``record_id``, or a SchemaError naming its reject's field and reason, if any."""
    from .corpus import SchemaError

    for record in loaded.records:
        if record.id == record_id:
            return record
    for reject in loaded.rejects:
        if reject.id == record_id:
            raise SchemaError(_rejected(reject))
    raise SchemaError(f"no record with id {record_id!r}")


def _cmd_validate(args) -> int:
    from .dsl import is_valid, validate

    try:
        program = parse_program(args.program)
    except ProgramError as exc:
        print(f"invalid: {exc}")
        return 1
    ctx = _load_context(args) if args.records or args.id is not None else None
    diagnostics = validate(program, ctx, allow_symbols=args.symbolic)
    if not diagnostics:
        print("valid")
        return 0
    for diag in diagnostics:
        where = f" (step {diag.step})" if diag.step is not None else ""
        print(f"{diag.severity}: {diag.code}{where}: {diag.message}")
    return 0 if is_valid(diagnostics) else 1


def _cmd_exec(args) -> int:
    from .executor import ExecutionError, execute, render_value

    try:
        program = parse_program(args.program)
    except ProgramError as exc:
        print(f"invalid: {exc}")
        return 1
    ctx = _load_context(args)
    try:
        value = execute(program, ctx)
    except ExecutionError as exc:
        print(f"error: {type(exc).__name__}: {exc}")
        return 1
    print(render_value(value))
    return 0


def _cmd_equiv(args) -> int:
    from .equiv import canonical_texts, compare_programs

    try:
        a = parse_program(args.program_a)
        b = parse_program(args.program_b)
    except ProgramError as exc:
        print(f"invalid program: {exc}", file=sys.stderr)
        return 2
    report = compare_programs(a, b, seed=args.seed)
    print("equivalent" if report.equivalent else "not equivalent")
    print(f"reason: {report.reason}")
    print(f"points: {report.points}")
    for label, text in zip("ab", canonical_texts(a, b)):
        print(f"canonical {label}: {text}")
    return 0


def _report(args, loaded, machine, table) -> int:
    """Emit ``machine()`` as JSON or ``table()`` as text, as --format asks; 1 when ``loaded`` has rejects."""
    import json

    _emit(json.dumps(machine(), indent=2) if args.format == "machine" else table(), args.out)
    return 1 if loaded.rejects else 0


def _cmd_eval(args) -> int:
    from .corpus import load_predictions
    from .evaluate import breakdown_report
    from .numeric import TolerancePolicy, to_fraction

    loaded = _load_records(args.records)
    # a prediction for a rejected record is not scored; the reject is reported
    rejected = {r.id for r in loaded.rejects} - {r.id for r in loaded.records}
    preds = [p for p in load_predictions(args.preds) if p.id not in rejected]
    policy = TolerancePolicy(
        abs_tol=to_fraction(args.abs_tol),
        rel_tol=to_fraction(args.rel_tol),
        round_to_reference=not args.no_gold_rounding,
        percent_insensitive=args.percent_insensitive,
    )
    report = breakdown_report(preds, loaded.records, policy, seed=args.seed)
    rejects = [{"id": r.id, "field": r.field_path, "reason": r.reason} for r in loaded.rejects]
    rejected_line = f"\nrejected records        {len(loaded.rejects)}" if loaded.rejects else ""
    return _report(
        args,
        loaded,
        lambda: {**report.to_dict(), "rejects": rejects},
        lambda: report.format_table() + rejected_line,
    )


def _cmd_retrieve(args) -> int:
    from .retrieve import ranked_recall

    loaded = _load_records(args.records)
    if not loaded.records:
        print("no records loaded", file=sys.stderr)
        return 2
    mean, per_record = ranked_recall(loaded.records, args.k)

    def machine() -> dict:
        return {
            "k": args.k,
            "recall_at_k": mean,
            "per_record": [{"id": rid, "recall": r} for rid, r, _ in per_record],
            "rankings": {
                rid: [{"fact": fid, "score": score} for fid, score in ranked] for rid, _, ranked in per_record
            },
        }

    def table() -> str:
        lines = [f"recall@{args.k}  {100 * mean:.2f}%  over {len(per_record)} records"]
        for rid, recall, ranked in per_record:
            top = ", ".join(fid for fid, _ in ranked)
            lines.append(f"  {rid}: recall {100 * recall:.2f}%  top: {top}")
        return "\n".join(lines)

    return _report(args, loaded, machine, table)


def _cmd_stats(args) -> int:
    from .corpus import dataset_stats

    loaded = _load_records(args.records)
    if not loaded.records:
        print("no records loaded", file=sys.stderr)
        return 2
    report = dataset_stats(loaded.records)
    return _report(args, loaded, report.to_dict, report.format_table)


def _cmd_linearize(args) -> int:
    from .corpus import linearize_table

    loaded = _load_records(args.records)
    chosen = loaded.records if args.id is None else [_record_with_id(loaded, args.id)]
    _emit("\n".join(sentence for record in chosen for sentence in linearize_table(record.table)), args.out)
    return 1 if loaded.rejects else 0


def _cmd_mask(args) -> int:
    from .decoding import IllegalToken, build_vocabulary, next_token_mask, replay
    from .dsl import tokenize_program

    ctx = _load_context(args)
    vocab = build_vocabulary(ctx, max_steps=args.max_steps)
    tokens = [t for t, _ in tokenize_program(args.prefix)] if args.prefix.strip() else []
    try:
        state = replay(tokens, vocab)
    except IllegalToken as exc:
        print(f"prefix is not mask-legal: {exc}", file=sys.stderr)
        return 1
    allowed = sorted(next_token_mask(state, vocab))
    if state.is_complete:
        print("(may stop here)")
    if allowed:
        print("\n".join(allowed))
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "exec": _cmd_exec,
    "equiv": _cmd_equiv,
    "eval": _cmd_eval,
    "retrieve": _cmd_retrieve,
    "stats": _cmd_stats,
    "linearize": _cmd_linearize,
    "mask": _cmd_mask,
}


def cli_dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code."""
    if hasattr(sys.stdout, "reconfigure"):  # escape what the encoding cannot hold, as _emit's file does
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        return 0
    except _input_errors() as exc:  # the tuple is built only when the command raised
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
