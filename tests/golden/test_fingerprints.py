"""Golden fingerprints of the default path.

Each case's kernel event count and decision hash must match
``fingerprints.json`` exactly, and its end state must pass every
chaos invariant.  Regenerate with ``python -m tests.golden.regenerate``
only for an intended behaviour change, and record why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from tests.golden.cases import CASES, fingerprint, run_case

GOLDEN = json.loads(
    Path(__file__).with_name("fingerprints.json").read_text()
)


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fingerprint_unchanged(name):
    res = run_case(name)
    assert res.report.violations == [], res.report.format_text()
    assert fingerprint(res) == GOLDEN[name]
