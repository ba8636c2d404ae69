"""The self-stabilizing colorings' job summaries, pinned by digest.

The parity suites compare every tier and variant against the reference
transitions; these pins hold the reference transitions themselves.  A
digest is the first 16 hex digits of the SHA-256 of the summaries, as JSON
with sorted keys, that ``repro-coloring sweep --algorithm A --n 300
--degree 8 --seeds 3 --backend reference --json`` prints.  They were
recorded while each coloring still wrote its own interval descent, and the
batch tier must give the same digests.
"""

import hashlib
import json

import pytest

from repro.api import run_sweep

PINS = {"selfstab": "e299d74e71644566", "selfstab-coloring": "e8d698ebed229238"}


def _digest(algorithm, backend):
    outcomes = run_sweep([300], [8], range(1, 4), algorithm=algorithm, backend=backend)
    assert all(outcome.ok for outcome in outcomes), [o.error for o in outcomes]
    summaries = json.loads(json.dumps([o.to_dict()["summary"] for o in outcomes]))
    text = json.dumps(summaries, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()[:16]


@pytest.mark.parametrize("algorithm", sorted(PINS))
def test_reference_pin(algorithm):
    assert _digest(algorithm, "reference") == PINS[algorithm]


@pytest.mark.requires_numpy
@pytest.mark.parametrize("algorithm", sorted(PINS))
def test_batch_gives_the_reference_pin(algorithm):
    assert _digest(algorithm, "batch") == PINS[algorithm]
