import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

SAMPLE_PATH = pathlib.Path(__file__).parent / "data" / "sample_records.jsonl"


@pytest.fixture(scope="session")
def sample_path() -> pathlib.Path:
    return SAMPLE_PATH


@pytest.fixture(scope="session")
def sample_records():
    from finprog.corpus import load_records

    loaded = load_records(SAMPLE_PATH)
    assert not loaded.rejects, loaded.rejects
    return loaded.records


@pytest.fixture()
def aaba_path(tmp_path) -> pathlib.Path:
    """Sample records on report pages A, A, B, A: the last A follows another page."""
    lines = SAMPLE_PATH.read_text(encoding="utf-8").splitlines()
    page_a = json.loads(lines[0])
    assert json.loads(lines[1])["table"] == page_a["table"]
    assert json.loads(lines[2])["table"] != page_a["table"]
    path = tmp_path / "aaba.jsonl"
    last = json.dumps(dict(page_a, id="alpha/2019/page_12.pdf-2"))
    path.write_text("\n".join([*lines[:3], last]) + "\n", encoding="utf-8")
    return path
