"""Byte-identical witnesses of ``is_slicing`` on a seeded query stream.

The stream holds every slicing of the n-cube for n <= 4, seeded random
subsets for n <= 5 and seeded threshold functions of the 5-cube, some
with one vertex flipped.  ``golden_is_slicing.json`` holds the number of
queries and the SHA-256 of their records: the subset mask and ``str`` of
every witness coordinate (c first), or null for a non-slicing.  Any change
to how ``is_slicing`` builds its separation system, refutes a subset or
solves the LP must reproduce them byte for byte, because the public
``is_slicing`` and the brute-force census return these witnesses.

Run ``PYTHONPATH=src python tests/test_golden_is_slicing.py`` to rewrite
the file; do so only on a commit whose witnesses are the reference.
"""

import hashlib
import json
from pathlib import Path
from random import Random

import pytest

from trbm.cube import all_vertices, enumerate_slicings, is_slicing

GOLDEN = Path(__file__).with_name("golden_is_slicing.json")


def queries():
    """(n, mask) pairs of the stream."""
    out = [(n, s.mask) for n in (1, 2, 3, 4) for s in enumerate_slicings(n)]
    rng = Random(9)
    for n in (1, 2, 3, 4, 5):
        out += [(n, rng.getrandbits(1 << n)) for _ in range(100)]
    for _ in range(150):
        weights = [rng.randint(-6, 6) for _ in range(5)]
        c = rng.randint(-12, 12) + 0.5  # no vertex on the hyperplane
        mask = sum(1 << v for v in all_vertices(5)
                   if sum(w * (v >> (4 - j) & 1)
                          for j, w in enumerate(weights)) + c > 0)
        if rng.random() < 0.5:
            mask ^= 1 << rng.randrange(32)
        out.append((5, mask))
    return out


def records():
    out = []
    for n, mask in queries():
        s = is_slicing([v for v in all_vertices(n) if mask >> v & 1], n)
        out.append([n, format(mask, "x"), None if s is None
                    else [str(x) for x in (s.c, *s.omega)]])
    return out


def digest(recs) -> str:
    return hashlib.sha256(json.dumps(recs).encode()).hexdigest()


@pytest.fixture(scope="module")
def recs():
    return records()


def test_stream_holds_yes_and_no_answers(recs):
    no = [r[0] for r in recs if r[2] is None]
    assert len(no) >= 250 and len(recs) - len(no) >= 2300
    assert no.count(5) >= 100


def test_witnesses_are_byte_identical(recs):
    golden = json.loads(GOLDEN.read_text())
    assert len(recs) == golden["queries"]
    assert digest(recs) == golden["sha256"]


if __name__ == "__main__":
    recs = records()
    GOLDEN.write_text(json.dumps({"queries": len(recs),
                                  "sha256": digest(recs)}, indent=1) + "\n")
