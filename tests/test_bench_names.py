"""The names the benchmark harness reads from the package still resolve.

``bench/`` is the benchmark's own code and changes only with it, so a rename
in ``finprog`` that breaks the harness would otherwise show only when
``python3 bench/selfcheck.py`` runs. These tests read ``bench/`` and change
nothing in it.
"""

import ast
import importlib
import pathlib
from decimal import Decimal

from finprog import corpus_recall, dataset_stats
from finprog.context import EvidenceContext
from finprog.numeric import Quantity

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _package_imports() -> list[tuple[str, str, str]]:
    """Each (file, module, name) of a ``from finprog... import name`` in ``bench/*.py``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "finprog":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def test_every_name_the_harness_imports_resolves():
    found = _package_imports()
    # the walk sees the harness's imports: run.py's API list and workloads.py's module imports
    assert ("run.py", "finprog", "score_record") in found
    assert ("workloads.py", "finprog.numeric", "extract_numbers") in found
    missing = [f"{file}: from {module} import {name}" for file, module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


def test_attributes_the_harness_reads(sample_records):
    ctx = sample_records[0].context()
    assert isinstance(ctx, EvidenceContext)
    assert isinstance(ctx.number_values, frozenset) and ctx.number_values
    assert isinstance(ctx.text_sentences, tuple) and ctx.text_sentences
    assert ctx.number_tokens() and all(isinstance(token, str) for token in ctx.number_tokens())
    assert len(ctx.sentence_quantities) == len(ctx.text_sentences)
    quantities = [quantity for sentence in ctx.sentence_quantities for quantity in sentence]
    assert quantities and all(isinstance(quantity, Quantity) for quantity in quantities)
    assert all(isinstance(q.render(), str) and isinstance(q.mantissa, Decimal) for q in quantities)

    stats = dataset_stats(sample_records).to_dict()
    assert stats["examples"] == len(sample_records) and stats["report_pages"] >= 1

    mean, per_record = corpus_recall(sample_records, 3)
    assert 0 <= mean <= 1 and len(per_record) == len(sample_records)
    assert all(isinstance(record_id, str) and 0 <= recall <= 1 for record_id, recall in per_record)
