"""Golden CLI transcripts: each recorded invocation replays byte for byte.

The transcripts live in ``tests/golden/``, one JSON file per invocation;
``tests/golden/update.py`` lists the invocations and rewrites the files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_update", GOLDEN / "update.py")
update = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update)


def test_every_invocation_has_one_transcript():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(update.INVOCATIONS)


@pytest.mark.parametrize("name", sorted(update.INVOCATIONS))
def test_golden_transcript(name):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert update.run(update.INVOCATIONS[name]) == expected
