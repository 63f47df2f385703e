"""Byte-identical CLI transcripts of commands that print exact elimination
and feasibility results: certified dimensions with their witnesses, facet
counts, homology ranks, membership witnesses, flattening ranks,
covariances and the slicing witnesses of the arrangement census.

``golden_cli.json`` holds the stdout and exit code of each case, recorded
from the rational Gauss-Jordan implementation of ``trbm.linalg``; the
census cases were recorded from the full-tableau simplex of ``trbm.lp``.
Any change to the elimination core or the simplex must reproduce them
byte for byte.  Long outputs are pinned by the SHA-256 of their stdout.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from trbm.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# Facets of the 14-vertex model subcomplex of the secondary fan of the
# 3-cube (vertex labels D0..D5, V0..V7); its faces are their subsets.
TM13_FACETS = [(0, 1, 6, 13), (0, 2, 7, 12), (0, 4, 6, 13), (0, 5, 7, 12),
               (1, 3, 8, 11), (1, 4, 6, 13), (1, 5, 8, 11), (2, 3, 9, 10),
               (2, 4, 9, 10), (2, 5, 7, 12), (3, 4, 9, 10), (3, 5, 8, 11)]

# Image of W = (2, -1, 3/2), b = (1, 0, -1/2), c = -2 under the
# one-hidden-node tropical map, and the parity indicator of the 3-cube,
# which lies outside the image.
MEMBER_POINT = ["0", "-1/2", "0", "-1/2", "1", "2", "1", "1"]
PARITY_POINT = ["1" if bin(v).count("1") % 2 == 0 else "0" for v in range(8)]

DIST_WEIGHTS = [3, 1, 4, 1, 5, 9, 2, 6]

CASES = {
    "dim_3_1": ["dim", "--n", "3", "--k", "1", "--json"],
    "dim_7_15_code": ["dim", "--n", "7", "--k", "15",
                      "--strategy", "code_based", "--json"],
    "zonotope_3": ["zonotope-facets", "--n", "3"],
    "homology_tm13": ["fan", "homology", "--complex", "{tm13}"],
    "member": ["member-tm1", "--point", "{member}", "--json"],
    "non_member": ["member-tm1", "--point", "{parity}", "--json"],
    "flatten_rank": ["rbm", "flatten-rank", "--dist", "{dist}"],
    "flatten_rank_json": ["rbm", "flatten-rank", "--dist", "{dist}",
                          "--json"],
    "covariance": ["rbm", "covariance", "--dist", "{dist}"],
    "covariance_json": ["rbm", "covariance", "--dist", "{dist}", "--json"],
    "slicings_3": ["slicings", "--n", "3"],
}

# The n = 4 census prints 1882 witnesses: only its digest is stored.
DIGEST_CASES = {
    "slicings_4": ["slicings", "--n", "4"],
}


def write_inputs(directory: Path) -> dict[str, str]:
    """Write every input file a case names; returns placeholder -> path."""
    faces = [sorted({f for facet in TM13_FACETS
                     for f in combinations(facet, size)})
             for size in range(1, 5)]
    labels = [f"D{i}" for i in range(6)] + [f"V{i}" for i in range(8)]
    files = {
        "tm13": json.dumps({
            "vertices": [{"label": lb, "class": lb[0]} for lb in labels],
            "faces_by_dim": [[list(f) for f in fs] for fs in faces]}),
        "member": "\n".join(MEMBER_POINT) + "\n",
        "parity": "\n".join(PARITY_POINT) + "\n",
        "dist": "\n".join(f"{w}/{sum(DIST_WEIGHTS)}"
                          for w in DIST_WEIGHTS) + "\n",
    }
    paths = {}
    for name, text in files.items():
        path = directory / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def transcript(argv: list[str], paths: dict[str, str],
               digest: bool = False) -> dict:
    """Exit code and stdout (or its SHA-256) of one CLI run."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([arg.format(**paths) for arg in argv])
    if digest:
        sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
        return {"exit": code, "stdout_sha256": sha}
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted({**CASES, **DIGEST_CASES})


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_is_byte_identical(name, golden, tmp_path):
    assert transcript(CASES[name], write_inputs(tmp_path)) == golden[name]


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_cli_transcript_digest_is_identical(name, golden, tmp_path):
    assert (transcript(DIGEST_CASES[name], write_inputs(tmp_path),
                       digest=True) == golden[name])
