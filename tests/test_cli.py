import io
import json
from functools import reduce
from importlib import resources
from pathlib import Path

import pytest

pytest.importorskip("jsonschema")
import jsonschema  # noqa: E402

from helpers import count_builds  # noqa: E402
from trbm.cli import build_parser, main  # noqa: E402
from trbm.cube import write_vertex_values  # noqa: E402
from trbm.rbmstats import hadamard_product, read_distribution  # noqa: E402

GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(doc, schema_name):
    schema = json.loads(resources.files("trbm.schemas")
                        .joinpath(f"{schema_name}.schema.json").read_text())
    jsonschema.validate(doc, schema)


def run_json(capsys, schema_name, *args):
    code, out, err = run(capsys, *args, "--json")
    assert code == 0, err
    doc = json.loads(out)
    validate(doc, schema_name)
    return doc


def test_slicings_count(capsys):
    code, out, _ = run(capsys, "slicings", "--n", "3", "--count")
    assert (code, out.strip()) == (0, "104")


def test_slicings_listing_builds_one_slicing_per_line(capsys, monkeypatch):
    built = count_builds(monkeypatch)
    code, out, _ = run(capsys, "slicings", "--n", "4")
    lines = out.splitlines()
    assert code == 0 and len(lines) == len(built) == 1882
    assert built == [int(line.split()[1][4:], 16) for line in lines]
    built.clear()
    code, out, _ = run(capsys, "slicings", "--n", "4", "--count")
    assert (code, out, built) == (0, "1882\n", [])


def test_slicings_json(capsys):
    doc = run_json(capsys, "slicings", "slicings", "--n", "2")
    assert doc["count"] == 14
    assert len(doc["slicings"]) == 14


def test_slicings_file_output(tmp_path, capsys):
    out = tmp_path / "s.txt"
    code, _, _ = run(capsys, "slicings", "--n", "2", "--out", str(out))
    assert code == 0
    from helpers import read_slicings

    lines = out.read_text().splitlines()
    assert len(lines) == 14
    assert lines[0].startswith("n:2 pos:0 w:")
    back = read_slicings(io.StringIO(out.read_text()))
    assert len(back) == 14 and back[0].positive == frozenset()


def test_zonotope(capsys):
    code, out, _ = run(capsys, "zonotope-facets", "--n", "3")
    assert (code, out.strip()) == (0, "40")
    doc = run_json(capsys, "zonotope", "zonotope-facets", "--n", "2")
    assert doc["facets"] == 12


def test_phi_and_infer(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"W": [["1", "1"]], "b": ["0", "0"], "c": ["-3/2"]}))
    code, out, _ = run(capsys, "phi", "--params", str(params))
    assert code == 0 and out.split() == ["0", "0", "0", "1/2"]
    doc = run_json(capsys, "tropical_point", "phi", "--params", str(params))
    assert doc["values"] == ["0", "0", "0", "1/2"]
    doc = run_json(capsys, "infer", "infer", "--params", str(params))
    assert doc["map"] == {"00": "0", "01": "0", "10": "0", "11": "1"}


def test_phi_with_forty_hidden_units(tmp_path, capsys):
    # max over 2^40 hidden states, separated as sum_i max(0, W_i.v + c_i)
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"W": [[str(i % 3 - 1), "1", str(-i % 2)] for i in range(40)],
         "b": ["0", "0", "0"], "c": [f"-{i % 4}/2" for i in range(40)]}))
    code, out, _ = run(capsys, "phi", "--params", str(params))
    assert code == 0
    assert out.split() == ["0", "5", "15", "30", "9/2", "11", "21", "34"]


def test_infer_tie_is_invalid_input(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"W": [["1", "1"]], "b": ["0", "0"], "c": ["-1"]}))
    code, _, err = run(capsys, "infer", "--params", str(params))
    assert code == 2 and "argmax" in err


def test_infer_tie_of_thirty_units_is_one_short_line(tmp_path, capsys):
    # 2^30 best hidden states at each vertex: the message names the units
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"W": [["0"]] * 30, "b": ["0"], "c": ["0"] * 30}))
    code, out, err = run(capsys, "infer", "--params", str(params))
    units = ", ".join(map(str, range(1, 31)))
    assert (code, out) == (2, "")
    assert err == (f"error: argmax not unique at v=0 (tied units {units}), "
                   f"v=1 (tied units {units}); parameters lie on a cone "
                   "boundary\n")


@pytest.mark.parametrize("command", ["phi", "infer"])
def test_tropical_map_above_the_visible_limit_exits_2(command, tmp_path,
                                                      capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"W": [["1"] * 21], "b": ["0"] * 21, "c": ["1/2"]}))
    code, out, err = run(capsys, command, "--params", str(params))
    assert (code, out) == (2, "")
    assert err == ("error: the tropical map lists 2^n values per hidden "
                   "unit: max(k, 1) * 2^n <= 2^20 is supported, got n=21, "
                   "k=1\n")


@pytest.mark.parametrize("command", ["phi", "infer"])
def test_tropical_map_above_the_cost_limit_exits_2(command, tmp_path, capsys,
                                                   monkeypatch):
    # n = 15 alone is small, but 40 hidden units make 40 * 2^15 > 2^20
    # values; the refusal comes before any 2^n list is built
    def no_listing(*args):
        raise AssertionError("a 2^n list was built")

    monkeypatch.setattr("trbm.tropical.affine_values", no_listing)
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"W": [["1"] * 15] * 40, "b": ["0"] * 15, "c": ["1/2"] * 40}))
    code, out, err = run(capsys, command, "--params", str(params))
    assert (code, out) == (2, "")
    assert err == ("error: the tropical map lists 2^n values per hidden "
                   "unit: max(k, 1) * 2^n <= 2^20 is supported, got n=15, "
                   "k=40\n")


def test_infer_tie_at_every_vertex_is_one_short_line(tmp_path, capsys):
    # all 2^12 vertices tie: the message names 8 of them and counts the rest
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"W": [["0"] * 12], "b": ["0"] * 12, "c": ["0"]}))
    code, out, err = run(capsys, "infer", "--params", str(params))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 1024
    named = ", ".join(f"v={v:012b} (tied units 1)" for v in range(8))
    assert err == (f"error: argmax not unique at {named} and 4088 more; "
                   "parameters lie on a cone boundary\n")


def test_rbm_mixture_above_the_joint_limit_exits_2(tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(
        {"lambda": "1/3", "delta": ["1/2"] * 17, "epsilon": ["1/3"] * 17}))
    code, out, err = run(capsys, "rbm", "mixture", "--params", str(params))
    assert (code, out) == (2, "")
    assert err == ("error: a mixture lists 2^n values: n <= 16 is "
                   "supported, got n=17\n")


def test_dim_json(capsys):
    doc = run_json(capsys, "dim", "dim", "--n", "3", "--k", "1")
    assert doc["dim"] == 7 and doc["max_rank"] == 7 and doc["certified"]
    assert len(doc["witness"]) == 1


def test_dim_n15_code_based_certified(capsys):
    doc = run_json(capsys, "dim", "dim", "--n", "15", "--k", "8",
                   "--strategy", "code_based")
    assert (doc["dim"], doc["max_rank"], doc["certified"]) == (143, 143, True)
    assert len(doc["witness"]) == 8


def test_dim_greedy_deterministic(capsys):
    args = ("dim", "--n", "3", "--k", "1", "--strategy", "greedy_random",
            "--seed", "5", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


def test_member_tm1(tmp_path, capsys):
    point = tmp_path / "q.txt"
    point.write_text("\n".join(["0"] * 8) + "\n")
    doc = run_json(capsys, "membership", "member-tm1", "--point", str(point))
    assert doc["member"] is True
    parity = tmp_path / "parity.txt"
    parity.write_text("\n".join(
        "1" if bin(v).count("1") % 2 == 0 else "0" for v in range(8)) + "\n")
    doc = run_json(capsys, "membership", "member-tm1", "--point",
                   str(parity))
    assert doc == {"member": False}


def test_codes_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "codes", "hamming", "--ell", "2")
    assert out.splitlines() == ["n=3", "000", "111"]
    doc = run_json(capsys, "codes_code", "codes", "hamming", "--ell", "3")
    assert doc["size"] == 16

    code_file = tmp_path / "c.txt"
    code_file.write_text("n=3\n000\n111\n")
    doc = run_json(capsys, "codes_analyze", "codes", "analyze", "--code",
                   str(code_file))
    assert doc["min_distance"] == 3 and doc["covering_radius"] == 1

    doc = run_json(capsys, "codes_bounds", "codes", "bounds", "--n", "7")
    assert doc["varshamov_lower"] == doc["covering_upper"] == 16
    assert doc["table"] == {"k_le": 16, "k_ge": 16}

    doc = run_json(capsys, "codes_exact", "codes", "exact")
    assert doc["A2"]["5"] == 4 and doc["K2"]["3"] == 2

    code, out, _ = run(capsys, "codes", "to-slicings", "--code",
                       str(code_file))
    assert code == 0 and len(out.splitlines()) == 2


def test_rbm_pipeline(tmp_path, capsys):
    params = tmp_path / "exp.json"
    params.write_text(json.dumps(
        {"beta": ["1", "1"], "gamma": ["1"], "omega": [["1", "1"]]}))
    doc = run_json(capsys, "distribution", "rbm", "joint", "--params",
                   str(params))
    assert doc["p"] == ["1/4"] * 4

    mix = tmp_path / "mix.json"
    mix.write_text(json.dumps(
        {"lambda": "1/2", "delta": ["1/3", "1/3"],
         "epsilon": ["2/3", "2/3"]}))
    code, out, _ = run(capsys, "rbm", "mixture", "--params", str(mix))
    assert code == 0
    dist_file = tmp_path / "d.txt"
    dist_file.write_text(out)

    doc = run_json(capsys, "flatten_rank", "rbm", "flatten-rank", "--dist",
                   str(dist_file))
    assert doc["max_flattening_rank"] == 2

    doc = run_json(capsys, "covariance", "rbm", "covariance", "--dist",
                   str(dist_file))
    assert len(doc["sigma"]) == 2

    doc = run_json(capsys, "rbm_check", "rbm", "check", "--dist",
                   str(dist_file))
    assert doc["verdict"] == "pass" and "necessary" in doc["note"]

    code, out, _ = run(capsys, "rbm", "hadamard", "--dist", str(dist_file),
                       "--dist", str(dist_file))
    assert code == 0 and len(out.split()) == 4


def test_tropvar_commands(tmp_path, capsys):
    doc = run_json(capsys, "minors", "tropvar", "minors", "--n", "4",
                   "--split", "1,2")
    assert doc["count"] == 16

    doc = run_json(capsys, "witness2222", "tropvar", "witness-2222")
    assert doc["prevariety"] is True and doc["quartic_monomial"] is True
    assert doc["monomial"] == "p_0000 p_0110 p_1010 p_1101"

    code, out, _ = run(capsys, "tropvar", "witness-2222")
    assert "prevariety: true" in out and "quartic_monomial: true" in out

    poly = tmp_path / "f.txt"
    poly.write_text("1 * p_00\n1 * p_11\n")
    weights = tmp_path / "w.txt"
    weights.write_text("5\n0\n0\n1\n")
    code, out, _ = run(capsys, "tropvar", "initial-form", "--n", "2",
                       "--poly", str(poly), "--weights", str(weights))
    assert out.strip() == "1 * p_00"


def test_fan_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "fan", "triangulations", "--count")
    assert (code, out.strip()) == (0, "74")

    doc = run_json(capsys, "fvector", "fan", "sphere-fvector")
    assert doc["f_vector"] == [22, 100, 152, 74]

    code, out, _ = run(capsys, "fan", "tm13", "--fvector")
    assert (code, out.strip()) == (0, "14 40 36 12")

    code, out, _ = run(capsys, "fan", "tm13")
    doc = json.loads(out)
    validate(doc, "complex")

    complex_file = tmp_path / "c.json"
    complex_file.write_text(out)
    code, out, _ = run(capsys, "fan", "homology", "--complex",
                       str(complex_file))
    assert (code, out.strip()) == (0, "0 3 0 0")

    doc = run_json(capsys, "homology", "fan", "homology")
    assert doc["reduced_homology_ranks"] == [0, 3, 0, 0]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "member-tm1", "--point", "/no/such/file")
    assert code == 2 and err


def test_missing_operation_arguments_exit_2(capsys):
    for argv in (("codes", "hamming"),
                 ("codes", "analyze"),
                 ("rbm", "joint"),
                 ("rbm", "flatten-rank"),
                 ("tropvar", "minors"),
                 ("tropvar", "initial-form")):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "required" in err


def test_byte_identical_reruns(capsys):
    code1, out1, _ = run(capsys, "slicings", "--n", "3", "--json")
    code2, out2, _ = run(capsys, "slicings", "--n", "3", "--json")
    assert code1 == code2 == 0 and out1 == out2


def test_threads_flag_is_output_neutral(capsys):
    code1, out1, _ = run(capsys, "slicings", "--n", "3", "--threads", "1")
    code2, out2, _ = run(capsys, "slicings", "--n", "3", "--threads", "2")
    assert code1 == code2 == 0 and out1 == out2


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    """The parser is built once per process, and no call leaves state
    for the next: ``--dist`` lists, a bad ``TRBM_THREADS`` and an
    argparse rejection each touch their own call only."""
    assert build_parser() is build_parser()

    paths = {}
    for name, weights in (("a", [3, 1, 4, 1]), ("b", [2, 7, 1, 8]),
                          ("c", [5, 9, 2, 6])):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text("".join(f"{w}/{sum(weights)}\n"
                                       for w in weights))

    def fresh(names):  # what a run in a new process prints
        dists = [read_distribution(io.StringIO(paths[x].read_text()))
                 for x in names]
        out = io.StringIO()
        write_vertex_values(reduce(hadamard_product, dists).p, out)
        return out.getvalue()

    for names in (["a", "b"], ["c", "c", "a"]):
        argv = ["rbm", "hadamard"]
        for x in names:
            argv += ["--dist", str(paths[x])]
        assert build_parser().parse_args(argv).dist == [str(paths[x])
                                                        for x in names]
        assert run(capsys, *argv) == (0, fresh(names), "")

    build_parser.cache_clear()  # the next call builds it with abc set
    monkeypatch.setenv("TRBM_THREADS", "abc")
    code, out, err = run(capsys, "zonotope-facets", "--n", "3")
    assert (code, out, err.count("\n")) == (2, "", 1)
    monkeypatch.delenv("TRBM_THREADS")
    assert run(capsys, "zonotope-facets", "--n", "3")[:2] == (0, "40\n")

    with pytest.raises(SystemExit) as info:
        main(["zonotope-facets", "--n", "three"])
    assert info.value.code == 2
    capsys.readouterr()
    golden = json.loads(GOLDEN_CLI.read_text())["zonotope_3"]
    assert run(capsys, "zonotope-facets", "--n", "3") == (
        golden["exit"], golden["stdout"], "")


PARAMS = {
    "phi": {"W": [["1", "1"]], "b": ["0", "0"], "c": ["-3/2"]},
    "joint": {"beta": ["1", "2"], "gamma": ["1"], "omega": [["1", "3"]]},
    "mixture": {"lambda": "1/3", "delta": ["1/2", "1/4"],
                "epsilon": ["1/3", "2/3"]},
}


@pytest.mark.parametrize("loader", sorted(PARAMS))
def test_params_file_missing_key_exits_2(loader, tmp_path, capsys):
    commands = {"phi": [("phi",), ("infer",)], "joint": [("rbm", "joint")],
                "mixture": [("rbm", "mixture")]}[loader]
    params = tmp_path / "p.json"
    params.write_text(json.dumps(PARAMS[loader]))
    for command in commands:
        code, _, _ = run(capsys, *command, "--params", str(params))
        assert code == 0
    for key in PARAMS[loader]:
        doc = {k: v for k, v in PARAMS[loader].items() if k != key}
        params.write_text(json.dumps(doc))
        for command in commands:
            code, out, err = run(capsys, *command, "--params", str(params))
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and f"'{key}'" in err
            assert err.count("\n") == 1


def test_threads_below_one_exit_2(capsys):
    for value in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as info:
            main(["slicings", "--n", "2", "--count", "--threads", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--threads" in err and "at least 1" in err


@pytest.mark.parametrize("value", ["-3", "0", "abc"])
def test_malformed_trbm_threads_exits_2(value, monkeypatch, capsys):
    monkeypatch.setenv("TRBM_THREADS", value)
    code, out, err = run(capsys, "slicings", "--n", "2", "--count")
    assert (code, out) == (2, "")
    assert err == ("error: TRBM_THREADS: expected an integer of at least 1, "
                   f"got {value!r}\n")


def test_trbm_threads_sets_the_default(monkeypatch, capsys):
    monkeypatch.setenv("TRBM_THREADS", "2")
    assert run(capsys, "slicings", "--n", "2", "--count")[:2] == (0, "14\n")
    monkeypatch.setenv("TRBM_THREADS", "abc")
    code, out, _ = run(capsys, "slicings", "--n", "2", "--count",
                       "--threads", "1")
    assert (code, out) == (0, "14\n")


@pytest.mark.parametrize("loader, command, key, value", [
    ("phi", ("phi",), "b", ["0", "1/0"]),
    ("joint", ("rbm", "joint"), "beta", ["1", "1/0"]),
    ("mixture", ("rbm", "mixture"), "lambda", "1/0")])
def test_params_file_zero_denominator_exits_2(loader, command, key, value,
                                              tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(dict(PARAMS[loader], **{key: value})))
    code, out, err = run(capsys, *command, "--params", str(params))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"'{key}'" in err and "'1/0'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("W", []), ("b", []), ("c", []), ("W", [[]]), ("W", ["1", "1"]),
    ("b", "0"), ("W", [[["1"], "1"]])])
def test_params_file_empty_or_misshapen_list_exits_2(key, value, tmp_path,
                                                     capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(dict(PARAMS["phi"], **{key: value})))
    code, out, err = run(capsys, "phi", "--params", str(params))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"'{key}'" in err
    assert "nonempty list" in err or "not a rational" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("strategy", ["exhaustive", "code_based",
                                      "greedy_random"])
def test_dim_n_below_one_exits_2(strategy, capsys):
    code, out, err = run(capsys, "dim", "--n", "0", "--k", "1",
                         "--strategy", strategy)
    assert (code, out) == (2, "")
    assert err == "error: dim needs n >= 1, got n=0\n"


@pytest.mark.parametrize("strategy", ["exhaustive", "code_based",
                                      "greedy_random"])
def test_dim_k_below_zero_exits_2(strategy, capsys):
    code, out, err = run(capsys, "dim", "--n", "3", "--k", "-1",
                         "--strategy", strategy)
    assert (code, out) == (2, "")
    assert err == "error: dim needs k >= 0, got k=-1\n"


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy_random"])
@pytest.mark.parametrize("restarts", ["0", "-5"])
def test_dim_restarts_below_one_exits_2(restarts, strategy, capsys):
    code, out, err = run(capsys, "dim", "--n", "3", "--k", "1",
                         "--strategy", strategy, "--restarts", restarts)
    assert (code, out) == (2, "")
    assert err == f"error: dim needs restarts >= 1, got restarts={restarts}\n"


@pytest.mark.parametrize("n", ["1", "16"])
def test_dim_code_based_n_outside_its_range_exits_2(n, capsys):
    code, out, err = run(capsys, "dim", "--n", n, "--k", "1",
                         "--strategy", "code_based")
    assert (code, out) == (2, "")
    assert err == f"error: code_based needs 2 <= n <= 15, got n={n}\n"


@pytest.mark.parametrize("n", ["16", "40"])
def test_dim_greedy_random_n_above_its_limit_exits_2(n, capsys):
    code, out, err = run(capsys, "dim", "--n", n, "--k", "1",
                         "--strategy", "greedy_random")
    assert (code, out) == (2, "")
    assert err == f"error: greedy_random needs n <= 15, got n={n}\n"


@pytest.mark.parametrize("n, k, entries", [("15", "2049", 1074757632),
                                            ("7", "17", 18304),
                                            ("1", "4096", 16386)])
def test_dim_greedy_random_unseeded_above_its_limit_exits_2(n, k, entries,
                                                            capsys):
    # k above the code's ball count, or n = 1, leaves no code seeds
    code, out, err = run(capsys, "dim", "--n", n, "--k", k,
                         "--strategy", "greedy_random")
    assert (code, out) == (2, "")
    assert err == (f"error: greedy_random without code seeds needs 2^n "
                   f"(n + k(n+1)) <= 16384, got {entries} at n={n}, k={k}\n")


def test_dim_greedy_random_unseeded_at_its_limit_runs(capsys):
    # n = 1 has no code: 2 (1 + 2k) = 16382 entries at k = 4095
    code, out, _ = run(capsys, "dim", "--n", "1", "--k", "4095",
                       "--strategy", "greedy_random")
    assert (code, out) == (0, "dim=1 max_rank=2 certified=True\n")


@pytest.mark.parametrize("n, count, top", [("1", 4, "dim=1 max_rank=2"),
                                            ("2", 14, "dim=3 max_rank=4"),
                                            ("3", 104, "dim=7 max_rank=8")])
def test_dim_exhaustive_k_at_and_above_the_slicing_count(n, count, top,
                                                         capsys):
    # k = count has one combination, all slicings; k = count + 1 has none
    code, out, _ = run(capsys, "dim", "--n", n, "--k", str(count),
                       "--strategy", "exhaustive")
    assert (code, out) == (0, f"{top} certified=True\n")
    code, out, err = run(capsys, "dim", "--n", n, "--k", str(count + 1),
                         "--strategy", "exhaustive")
    assert (code, out) == (2, "")
    assert err == (f"error: exhaustive needs k <= {count}, the slicing "
                   f"count at n={n}, got k={count + 1}\n")


@pytest.mark.parametrize("argv, err", [
    (["slicings", "--n", "5", "--count"],
     "n=5 enumeration is a long-running mode"),
    (["dim", "--n", "4", "--k", "2", "--strategy", "exhaustive"],
     "1770021 slicing tuples exceed the exhaustive guard"),
], ids=["slicings", "dim"])
def test_long_modes_are_refused_naming_the_flag(argv, err, capsys):
    code, out, stderr = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert stderr == f"error: {err}; run it with --allow-long\n"


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_member_point_file_non_rational_exits_2(value, tmp_path, capsys):
    point = tmp_path / "q.txt"
    point.write_text(f"1\n{value}\n")
    code, out, err = run(capsys, "member-tm1", "--point", str(point))
    assert (code, out) == (2, "")
    assert err == f"error: expected a rational per line, got '{value}'\n"


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_initial_form_weights_non_rational_exits_2(value, tmp_path, capsys):
    poly = tmp_path / "f.txt"
    poly.write_text("1 * p_00\n1 * p_11\n")
    weights = tmp_path / "w.txt"
    weights.write_text(f"5\n0\n{value}\n1\n")
    code, out, err = run(capsys, "tropvar", "initial-form", "--n", "2",
                         "--poly", str(poly), "--weights", str(weights))
    assert (code, out) == (2, "")
    assert err == f"error: expected a rational per line, got '{value}'\n"


@pytest.mark.parametrize("ell", ["5", "40"])
def test_hamming_too_large_exits_2(ell, capsys):
    code, out, err = run(capsys, "codes", "hamming", "--ell", ell)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: ell={ell} gives 2^(2^{ell} - ")
    assert err.endswith("codewords; ell <= 4 is supported\n")


@pytest.mark.parametrize("n, k", [(1, 16), (9, 8), (40, 40)])
def test_rbm_joint_too_large_exits_2(n, k, tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"beta": ["2"] * n, "gamma": ["3"] * k,
                                  "omega": [["5"] * n] * k}))
    code, out, err = run(capsys, "rbm", "joint", "--params", str(params))
    assert (code, out) == (2, "")
    assert err == (f"error: n={n}, k={k}: the summed check adds "
                   f"2^{n + k} terms; n + k <= 16 is supported\n")


@pytest.mark.parametrize("value", ["1/0", "abc"])
@pytest.mark.parametrize("op", ["flatten-rank", "covariance", "check",
                                "hadamard"])
def test_distribution_file_non_rational_exits_2(op, value, tmp_path, capsys):
    dist = tmp_path / "d.txt"
    dist.write_text(f"1/4\n1/4\n{value}\n1/4\n")
    extra = ["--dist", str(dist)] if op == "hadamard" else []
    code, out, err = run(capsys, "rbm", op, "--dist", str(dist), *extra)
    assert (code, out) == (2, "")
    assert err == f"error: expected a rational per line, got '{value}'\n"


@pytest.mark.parametrize("factor", ["p_11111", "p_-1"])
def test_initial_form_variable_outside_the_cube_exits_2(factor, tmp_path,
                                                        capsys):
    poly = tmp_path / "f.txt"
    poly.write_text(f"1 * p_0000\n1 * {factor}\n")
    weights = tmp_path / "w.txt"
    weights.write_text("0\n" * 16)
    code, out, err = run(capsys, "tropvar", "initial-form", "--n", "4",
                         "--poly", str(poly), "--weights", str(weights))
    assert (code, out) == (2, "")
    assert err == f"error: factor {factor!r} is not a variable of the 4-cube\n"


@pytest.mark.parametrize("lines", [8, 32])
def test_initial_form_weights_of_another_length_exit_2(lines, tmp_path,
                                                       capsys):
    poly = tmp_path / "f.txt"
    poly.write_text("1 * p_0000\n1 * p_1111\n")
    weights = tmp_path / "w.txt"
    weights.write_text("0\n" * lines)
    code, out, err = run(capsys, "tropvar", "initial-form", "--n", "4",
                         "--poly", str(poly), "--weights", str(weights))
    assert (code, out) == (2, "")
    assert err == f"error: weights need 2^4 = 16 values, got {lines}\n"


@pytest.mark.parametrize("doc", [
    [1, 2], {"vertices": []}, {"faces_by_dim": []},
    {"vertices": [{"class": "D"}], "faces_by_dim": []},
    {"vertices": [{"label": "D0"}], "faces_by_dim": [[0]]},
    {"vertices": [{"label": "D0"}], "faces_by_dim": [[["0"]]]},
    {"vertices": [{"label": "D0"}], "faces_by_dim": [[[0], [1]]]}])
def test_homology_misshapen_complex_exits_2(doc, tmp_path, capsys):
    complex_file = tmp_path / "c.json"
    complex_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fan", "homology", "--complex",
                         str(complex_file))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("labels, faces_by_dim, printed", [
    (["V0", "V1"], [[[0], [1]], []], "1\n"),  # an empty top dimension
    ([], [], "\n")])
def test_homology_of_small_complexes(labels, faces_by_dim, printed, tmp_path,
                                     capsys):
    complex_file = tmp_path / "c.json"
    complex_file.write_text(json.dumps({
        "vertices": [{"label": label} for label in labels],
        "faces_by_dim": faces_by_dim}))
    code, out, err = run(capsys, "fan", "homology", "--complex",
                         str(complex_file))
    assert (code, out, err) == (0, printed, "")


@pytest.mark.parametrize("n", ["8", "40"])
def test_minors_n_above_the_limit_exits_2(n, capsys):
    code, out, err = run(capsys, "tropvar", "minors", "--n", n,
                         "--split", "1,2")
    assert (code, out) == (2, "")
    assert err == f"error: minors are listed for n <= 7, got n={n}\n"


@pytest.mark.parametrize("values", [["1"], ["1/2", "1/2"]])
def test_flatten_rank_below_two_coordinates_exits_2(values, tmp_path, capsys):
    dist = tmp_path / "d.txt"
    dist.write_text("\n".join(values) + "\n")
    n = len(values) - 1
    code, out, err = run(capsys, "rbm", "flatten-rank", "--dist", str(dist))
    assert (code, out) == (2, "")
    assert err == f"error: flattenings need n >= 2, got n={n}\n"


def test_codes_to_slicings_above_the_margin_limit_exits_2(tmp_path, capsys):
    # one ball of length 27 lists 2^27 margins: refused before it is built
    code_file = tmp_path / "c.txt"
    code_file.write_text(f"n=27\n{'0' * 27}\n")
    code, out, err = run(capsys, "codes", "to-slicings", "--code",
                         str(code_file))
    assert (code, out) == (2, "")
    assert err == (f"error: ball slicings need |C| 2^n <= {2 ** 26}, "
                   f"got {2 ** 27} at n=27, |C|=1\n")


def test_codes_to_slicings_above_the_length_limit_exits_2(tmp_path, capsys):
    # one ball of length 23 lists 2^23 margins, within the margin limit,
    # but would take about 400 MB: refused before it is built
    code_file = tmp_path / "c.txt"
    code_file.write_text(f"n=23\n{'0' * 23}\n")
    code, out, err = run(capsys, "codes", "to-slicings", "--code",
                         str(code_file))
    assert (code, out) == (2, "")
    assert err == "error: ball slicings need n <= 22, got n=23\n"


@pytest.mark.parametrize("n", [21, 40])
def test_codes_analyze_length_above_the_cap_exits_2(n, tmp_path, capsys):
    code_file = tmp_path / "c.txt"
    code_file.write_text(f"n={n}\n{'0' * n}\n{'1' * n}\n")
    code, out, err = run(capsys, "codes", "analyze", "--code", str(code_file))
    assert (code, out) == (2, "")
    assert err == f"error: covering radius needs n <= 20, got n={n}\n"


@pytest.mark.parametrize("n", ["-3", "-1", "10001", "100000"])
def test_codes_bounds_n_outside_its_range_exits_2(n, capsys):
    code, out, err = run(capsys, "codes", "bounds", "--n", n)
    assert (code, out) == (2, "")
    assert err == ("error: bounds are printed for 0 <= n <= 10000, "
                   f"got n={n}\n")


def test_codes_bounds_at_the_ends_of_its_range(capsys):
    doc = run_json(capsys, "codes_bounds", "codes", "bounds", "--n", "0")
    assert doc["covering_upper"] == 1 and doc["varshamov_lower"] is None
    doc = run_json(capsys, "codes_bounds", "codes", "bounds", "--n", "10000")
    assert doc["covering_upper"] == 2 ** (10000 - 13)


@pytest.mark.parametrize("argv, files, message", [
    pytest.param(["phi", "--params", "p.json"], {"p.json": "[1, 2]"},
                 "params file p.json must hold a JSON object", id="phi-list"),
    pytest.param(["infer", "--params", "p.json"], {"p.json": "3"},
                 "params file p.json must hold a JSON object",
                 id="infer-number"),
    pytest.param(["phi", "--params", "p.json"],
                 {"p.json": json.dumps({"W": [["1", "1"]], "b": ["0"],
                                        "c": ["0"]})},
                 "visible dimension mismatch", id="phi-visible"),
    pytest.param(["infer", "--params", "p.json"],
                 {"p.json": json.dumps({"W": [["1"]], "b": ["0"],
                                        "c": ["0", "0"]})},
                 "hidden dimension mismatch", id="infer-hidden"),
    pytest.param(["rbm", "hadamard", "--dist", "d.txt"],
                 {"d.txt": "1/4\n" * 4},
                 "hadamard needs at least two --dist files",
                 id="hadamard-one"),
    pytest.param(["rbm", "hadamard", "--dist", "d.txt", "--dist", "e.txt"],
                 {"d.txt": "1/4\n" * 4, "e.txt": "1/2\n" * 2},
                 "dimension mismatch", id="hadamard-n"),
    pytest.param(["rbm", "mixture", "--params", "p.json"],
                 {"p.json": json.dumps({"lambda": "1", "delta": ["1/2"],
                                        "epsilon": ["1/2"]})},
                 "mixture parameters must lie strictly in (0,1)",
                 id="mixture-range"),
    pytest.param(["rbm", "mixture", "--params", "p.json"],
                 {"p.json": json.dumps({"lambda": "1/2", "delta": ["1/2"],
                                        "epsilon": ["1/2", "1/3"]})},
                 "component length mismatch", id="mixture-lengths"),
    pytest.param(["rbm", "joint", "--params", "p.json"],
                 {"p.json": json.dumps({"beta": ["0"], "gamma": ["1"],
                                        "omega": [["1"]]})},
                 "parameters must be positive", id="joint-zero"),
    pytest.param(["rbm", "flatten-rank", "--dist", "d.txt"],
                 {"d.txt": "1/128\n" * 128},
                 "all splits enumerated; needs n <= 6", id="flatten-n7"),
    pytest.param(["tropvar", "minors", "--split", "1,2,3,4"], {},
                 "split must be proper and nonempty", id="minors-split"),
    pytest.param(["tropvar", "initial-form", "--n", "2", "--poly", "f.txt",
                  "--weights", "w.txt"],
                 {"f.txt": "1 * p_00^0\n", "w.txt": "0\n" * 4},
                 "exponents must be positive", id="poly-power-0"),
    pytest.param(["tropvar", "initial-form", "--n", "2", "--poly", "f.txt",
                  "--weights", "w.txt"],
                 {"f.txt": "1 * x_00\n", "w.txt": "0\n" * 4},
                 "bad factor 'x_00'", id="poly-factor"),
    pytest.param(["fan", "homology", "--complex", "c.json"],
                 {"c.json": json.dumps({"vertices": [{"label": "V0"}],
                                        "faces_by_dim": [[[0], [0]]]})},
                 "duplicate face", id="complex-duplicate"),
    pytest.param(["fan", "homology", "--complex", "c.json"],
                 {"c.json": json.dumps({"vertices": [{"label": "V0"},
                                                     {"label": "V1"}],
                                        "faces_by_dim": [[[0, 1]]]})},
                 "malformed face", id="complex-malformed"),
    pytest.param(["codes", "hamming", "--ell", "1"], {},
                 "ell must be at least 2", id="hamming-ell-1"),
    pytest.param(["codes", "analyze", "--code", "c.txt"], {"c.txt": ""},
                 "code file must start with n=<length>", id="code-empty"),
    pytest.param(["codes", "analyze", "--code", "c.txt"], {"c.txt": "n=3\n"},
                 "code must be nonempty", id="code-no-words"),
    pytest.param(["codes", "analyze", "--code", "c.txt"],
                 {"c.txt": "n=2\n101\n"},
                 "codeword out of range", id="code-long-word"),
    pytest.param(["codes", "analyze", "--code", "c.txt"],
                 {"c.txt": "m=3\n000\n"},
                 "code file must start with n=<length>", id="code-header"),
    pytest.param(["codes", "to-slicings", "--code", "c.txt"],
                 {"c.txt": "n=-1\n0\n"},
                 "code length needs n >= 0, got n=-1", id="code-negative-n"),
])
def test_outside_input_is_refused_in_one_line(argv, files, message, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_initial_form_skips_blank_poly_lines(tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("5\n0\n0\n1\n")
    outputs = []
    for text in ("1 * p_00\n1 * p_11\n", "\n1 * p_00\n\n  \n1 * p_11\n\n"):
        poly = tmp_path / "f.txt"
        poly.write_text(text)
        outputs.append(run(capsys, "tropvar", "initial-form", "--n", "2",
                           "--poly", str(poly), "--weights", str(weights)))
    assert outputs[0] == outputs[1] == (0, "1 * p_00\n", "")
