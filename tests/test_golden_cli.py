"""Byte-identical CLI transcripts of commands that print exact elimination
and feasibility results: certified dimensions with their witnesses, facet
counts, homology ranks, membership witnesses, flattening ranks,
covariances, the slicing witnesses of the arrangement census and the
census counts under both strategies and two threads, and the text,
``--json`` and ``--out`` forms of every command that can write its
result to a file.

``golden_cli.json`` holds the stdout and exit code of each case, recorded
from the rational Gauss-Jordan implementation of ``trbm.linalg``; the
census cases were recorded from the full-tableau simplex of ``trbm.lp``.
Any change to the elimination core or the simplex must reproduce them
byte for byte.  Long outputs are pinned by the SHA-256 of their stdout.
The cases of ``OUT_CASES`` and ``OUT_DIGEST_CASES`` also pin the bytes
of the ``--out`` file, and every subcommand is run with and without
``--out`` to check that the file holds what stdout would.
"""

import argparse
import hashlib
import io
import json
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from trbm.cli import build_parser, main

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
OTHER_WEIGHTS = [2, 7, 1, 8, 2, 8, 1, 8]

# Parameters with no visible state on a hidden unit's hyperplane, so that
# the explanation map is defined.
TROP_PARAMS = {"W": [["2", "-1", "3/2"], ["1", "1", "-1"]],
               "b": ["1", "0", "-1/2"], "c": ["-7/3", "1/3"]}
JOINT_PARAMS = {"beta": ["1", "1/2", "3"], "gamma": ["2", "1/3"],
                "omega": [["1", "2", "1/2"], ["3", "1", "1/4"]]}
MIXTURE_PARAMS = {"lambda": "1/3", "delta": ["1/2", "1/4", "2/3"],
                  "epsilon": ["1/3", "2/3", "1/5"]}
# A length-5 code of minimum distance 3, and a polynomial whose initial
# form at WEIGHTS keeps its first two terms.
CODE = ["00000", "11100", "00111", "11011"]
POLY = ["1 * p_00 p_11", "-1 * p_01 p_10", "2 * p_00^2"]
WEIGHTS = ["1", "2", "2", "3"]

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
    "slicings_3_json": ["slicings", "--n", "3", "--json"],
    "slicings_4_count_json": ["slicings", "--n", "4", "--count", "--json"],
    "slicings_4_count_t2": ["slicings", "--n", "4", "--count",
                            "--threads", "2"],
    "slicings_3_count_brute_json": ["slicings", "--n", "3", "--count",
                                    "--strategy", "brute", "--json"],
    "phi": ["phi", "--params", "{params}"],
    "phi_json": ["phi", "--params", "{params}", "--json"],
    "infer": ["infer", "--params", "{params}"],
    "infer_json": ["infer", "--params", "{params}", "--json"],
    "hamming_3": ["codes", "hamming", "--ell", "3"],
    "hamming_3_json": ["codes", "hamming", "--ell", "3", "--json"],
    "to_slicings": ["codes", "to-slicings", "--code", "{code}"],
    "joint": ["rbm", "joint", "--params", "{joint}"],
    "joint_json": ["rbm", "joint", "--params", "{joint}", "--json"],
    "mixture": ["rbm", "mixture", "--params", "{mixture}"],
    "mixture_json": ["rbm", "mixture", "--params", "{mixture}", "--json"],
    "hadamard": ["rbm", "hadamard", "--dist", "{dist}", "--dist", "{other}"],
    "hadamard_json": ["rbm", "hadamard", "--dist", "{dist}", "--dist",
                      "{other}", "--dist", "{dist}", "--json"],
    "minors": ["tropvar", "minors", "--n", "4", "--split", "1,2"],
    "minors_json": ["tropvar", "minors", "--n", "4", "--split", "1,2",
                    "--json"],
    "initial_form": ["tropvar", "initial-form", "--n", "2", "--poly",
                     "{poly}", "--weights", "{weights}"],
    "initial_form_json": ["tropvar", "initial-form", "--n", "2", "--poly",
                          "{poly}", "--weights", "{weights}", "--json"],
    "dim_greedy_3_2": ["dim", "--n", "3", "--k", "2", "--strategy",
                       "greedy_random", "--seed", "0", "--json"],
    "dim_greedy_5_3": ["dim", "--n", "5", "--k", "3", "--strategy",
                       "greedy_random", "--seed", "1", "--json"],
    "dim_greedy_15_2": ["dim", "--n", "15", "--k", "2", "--strategy",
                        "greedy_random", "--seed", "0", "--json"],
}

# The n = 4 census prints 1882 witnesses: only its digest is stored.
DIGEST_CASES = {
    "slicings_4": ["slicings", "--n", "4"],
    "triangulations": ["fan", "triangulations"],
    "triangulations_json": ["fan", "triangulations", "--json"],
}

# Runs that name an --out file: the result, text or JSON, goes to that
# file and nothing to stdout; codes to-slicings has no JSON form and
# writes its slicings under --json too.
OUT_CASES = {
    "slicings_3_out": ["slicings", "--n", "3", "--out", "{out}"],
    "phi_out": ["phi", "--params", "{params}", "--out", "{out}"],
    "phi_json_out": ["phi", "--params", "{params}", "--json",
                     "--out", "{out}"],
    "hamming_3_out": ["codes", "hamming", "--ell", "3", "--out", "{out}"],
    "to_slicings_out": ["codes", "to-slicings", "--code", "{code}",
                        "--json", "--out", "{out}"],
    "joint_out": ["rbm", "joint", "--params", "{joint}", "--out", "{out}"],
    "mixture_out": ["rbm", "mixture", "--params", "{mixture}",
                    "--out", "{out}"],
    "hadamard_out": ["rbm", "hadamard", "--dist", "{dist}", "--dist",
                     "{other}", "--out", "{out}"],
    "minors_out": ["tropvar", "minors", "--n", "4", "--split", "1,2",
                   "--out", "{out}"],
    "initial_form_out": ["tropvar", "initial-form", "--n", "2", "--poly",
                         "{poly}", "--weights", "{weights}",
                         "--out", "{out}"],
}

OUT_DIGEST_CASES = {
    "triangulations_out": ["fan", "triangulations", "--out", "{out}"],
    "tm13_out": ["fan", "tm13", "--out", "{out}"],
}

# One run of each subcommand, named by its words on the command line.
EVERY_COMMAND = {
    "slicings": ["slicings", "--n", "2"],
    "zonotope-facets": ["zonotope-facets", "--n", "2"],
    "phi": ["phi", "--params", "{params}"],
    "infer": ["infer", "--params", "{params}"],
    "dim": ["dim", "--n", "3", "--k", "1"],
    "member-tm1": ["member-tm1", "--point", "{member}"],
    "codes hamming": ["codes", "hamming", "--ell", "2"],
    "codes analyze": ["codes", "analyze", "--code", "{code}"],
    "codes bounds": ["codes", "bounds", "--n", "7"],
    "codes exact": ["codes", "exact"],
    "codes to-slicings": ["codes", "to-slicings", "--code", "{code}"],
    "rbm joint": ["rbm", "joint", "--params", "{joint}"],
    "rbm mixture": ["rbm", "mixture", "--params", "{mixture}"],
    "rbm hadamard": ["rbm", "hadamard", "--dist", "{dist}",
                     "--dist", "{other}"],
    "rbm flatten-rank": ["rbm", "flatten-rank", "--dist", "{dist}"],
    "rbm covariance": ["rbm", "covariance", "--dist", "{dist}"],
    "rbm check": ["rbm", "check", "--dist", "{dist}"],
    "tropvar minors": ["tropvar", "minors", "--n", "4", "--split", "1,2"],
    "tropvar initial-form": ["tropvar", "initial-form", "--n", "2",
                             "--poly", "{poly}", "--weights", "{weights}"],
    "tropvar witness-2222": ["tropvar", "witness-2222"],
    "fan triangulations": ["fan", "triangulations"],
    "fan sphere-fvector": ["fan", "sphere-fvector"],
    "fan tm13": ["fan", "tm13"],
    "fan homology": ["fan", "homology", "--complex", "{tm13}"],
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
        "other": "\n".join(f"{w}/{sum(OTHER_WEIGHTS)}"
                           for w in OTHER_WEIGHTS) + "\n",
        "params": json.dumps(TROP_PARAMS),
        "joint": json.dumps(JOINT_PARAMS),
        "mixture": json.dumps(MIXTURE_PARAMS),
        "code": "\n".join(["n=5", *CODE]) + "\n",
        "poly": "\n".join(POLY) + "\n",
        "weights": "\n".join(WEIGHTS) + "\n",
    }
    paths = {}
    for name, text in files.items():
        path = directory / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    paths["out"] = str(directory / "out.txt")
    return paths


def transcript(argv: list[str], paths: dict[str, str],
               digest: bool = False) -> dict:
    """Exit code and stdout (or its SHA-256) of one CLI run, and for a
    run that names ``{out}`` the text (or SHA-256) of that file, None
    when it is not written."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([arg.format(**paths) for arg in argv])
    texts = {"stdout": out.getvalue()}
    if "{out}" in argv:
        file = Path(paths["out"])
        texts["file"] = file.read_text() if file.exists() else None
    doc = {"exit": code}
    for key, text in texts.items():
        if digest and text is not None:
            doc[f"{key}_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        else:
            doc[key] = text
    return doc


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted({**CASES, **DIGEST_CASES, **OUT_CASES,
                                     **OUT_DIGEST_CASES})


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_is_byte_identical(name, golden, tmp_path):
    assert transcript(CASES[name], write_inputs(tmp_path)) == golden[name]


@pytest.mark.parametrize("name", sorted(DIGEST_CASES))
def test_cli_transcript_digest_is_identical(name, golden, tmp_path):
    assert (transcript(DIGEST_CASES[name], write_inputs(tmp_path),
                       digest=True) == golden[name])


@pytest.mark.parametrize("name", sorted(OUT_CASES))
def test_cli_out_file_is_byte_identical(name, golden, tmp_path):
    assert transcript(OUT_CASES[name], write_inputs(tmp_path)) == golden[name]


@pytest.mark.parametrize("name", sorted(OUT_DIGEST_CASES))
def test_cli_out_file_digest_is_identical(name, golden, tmp_path):
    assert (transcript(OUT_DIGEST_CASES[name], write_inputs(tmp_path),
                       digest=True) == golden[name])


def test_every_command_lists_each_subcommand():
    [sub] = [action for action in build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    names = []
    for name, parser in sub.choices.items():
        ops = [action.choices for action in parser._actions
               if action.dest.endswith("_op")]
        names += [f"{name} {op}" for op in ops[0]] if ops else [name]
    assert sorted(EVERY_COMMAND) == sorted(names)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(EVERY_COMMAND))
def test_out_file_holds_what_stdout_would(name, flags, tmp_path):
    paths = write_inputs(tmp_path)
    argv = EVERY_COMMAND[name] + flags
    printed = transcript(argv, paths)
    assert printed["exit"] == 0 and printed["stdout"]
    assert transcript(argv + ["--out", "{out}"], paths) == {
        "exit": 0, "stdout": "", "file": printed["stdout"]}
