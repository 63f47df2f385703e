"""Command-line front end.

Every operation is exposed as a subcommand with deterministic output:
randomized searches take an explicit ``--seed`` (default 0), rationals
are printed exactly as ``p/q``, and ``--json`` emits documents matching
the schemas shipped under ``trbm/schemas``.  Exit codes: 0 success,
2 invalid input, 1 internal assertion failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional, Sequence

from . import fan as fan_mod
from . import polynomials as poly_mod
from .codes import (covering_radius, exact_small_values, hamming_code,
                    min_distance, read_code, table_known_bounds,
                    code_to_slicings, varshamov_lower, covering_upper,
                    write_code)
from .cube import (count_zonotope_facets, enumerate_slicings,
                   write_slicings)
from .rbmstats import (Distribution, ExpParams, MixtureParams,
                       check_membership_necessary, covariance_matrix,
                       hadamard_product, joint_distribution,
                       max_flattening_rank, mixture_distribution,
                       read_distribution, write_distribution)
from .tropical import (AmbiguousArgmax, TropParams, inference_function,
                       read_tropical_point, tropical_dimension,
                       tropical_membership, tropical_morphism,
                       write_tropical_point)

Q = Fraction
ENV_THREADS = "TRBM_THREADS"  # the worker count when --threads is not given


def q_str(x: Fraction) -> str:
    return str(x)


def q_list(xs) -> list[str]:
    return [q_str(x) for x in xs]


def _emit(doc: dict, args, plain: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(plain)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


@contextmanager
def _output(args):
    """The ``--out`` file if one is given, else stdout; a file is closed
    on exit, also when the handler raises."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _require(args, **fields):
    for flag, value in fields.items():
        if value is None:
            raise ValueError(
                f"--{flag} is required for this operation")


def _rationals(value, depth: int, where: str):
    """``value`` as a Fraction, nested in ``depth`` nonempty lists."""
    if depth:
        if not isinstance(value, list) or not value:
            raise ValueError(f"{where} needs a nonempty list, got {value!r}")
        return [_rationals(x, depth - 1, where) for x in value]
    try:
        return Q(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{where} holds {value!r}, not a rational") from None


def _load_params(path: str, *keys: tuple[str, int]) -> list:
    """Values of the (key, list depth) pairs ``keys`` in a params file."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"params file {path} must hold a JSON object")
    for key, _ in keys:
        if key not in doc:
            raise ValueError(f"params file {path} has no key {key!r}")
    return [_rationals(doc[key], depth, f"params file {path}: {key!r}")
            for key, depth in keys]


def _trop_params(path: str) -> TropParams:
    return TropParams.build(*_load_params(path, ("W", 2), ("b", 1), ("c", 1)))


def cmd_slicings(args) -> int:
    slicings = enumerate_slicings(args.n, strategy=args.strategy,
                                  allow_long=args.allow_long,
                                  threads=args.threads)
    if args.count:
        _emit({"n": args.n, "strategy": args.strategy,
               "count": len(slicings)}, args, str(len(slicings)))
        return 0
    if args.json:
        doc = {"n": args.n, "strategy": args.strategy,
               "count": len(slicings),
               "slicings": [{"pos": format(s.mask, "x"),
                             "c": q_str(s.c),
                             "omega": q_list(s.omega)} for s in slicings]}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        with _output(args) as out:
            write_slicings(slicings, out)
    return 0


def cmd_zonotope(args) -> int:
    facets = count_zonotope_facets(args.n)
    _emit({"n": args.n, "facets": facets}, args, str(facets))
    return 0


def cmd_phi(args) -> int:
    point = tropical_morphism(_trop_params(args.params))
    if args.json:
        print(json.dumps({"n": point.n, "values": q_list(point.values)},
                         indent=2, sort_keys=True))
    else:
        with _output(args) as out:
            write_tropical_point(point, out)
    return 0


def cmd_infer(args) -> int:
    params = _trop_params(args.params)
    mapping = inference_function(params)
    pairs = [(format(v, f"0{params.n}b"), format(h, f"0{params.k}b"))
             for v, h in sorted(mapping.items())]
    _emit({"n": params.n, "k": params.k, "map": dict(pairs)}, args,
          "\n".join(f"{v} -> {h}" for v, h in pairs))
    return 0


def cmd_dim(args) -> int:
    result = tropical_dimension(args.n, args.k, strategy=args.strategy,
                                seed=args.seed, restarts=args.restarts,
                                allow_long=args.allow_long,
                                threads=args.threads)
    doc = {"n": result.n, "k": result.k, "strategy": result.strategy,
           "max_rank": result.max_rank, "dim": result.dim,
           "certified": result.certified,
           "witness": [format(s.mask, "x") for s in result.witness]}
    _emit(doc, args,
          f"dim={result.dim} max_rank={result.max_rank} "
          f"certified={result.certified}")
    return 0


def cmd_member(args) -> int:
    with open(args.point) as fh:
        point = read_tropical_point(fh)
    res = tropical_membership(point)
    if res.member:
        doc = {"member": True, "slicing": format(res.slicing.mask, "x"),
               "b": q_list(res.visible_bias), "omega": q_list(res.omega),
               "c": q_str(res.c), "shift": q_str(res.shift)}
        plain = (f"member slicing={res.slicing.mask:x} "
                 f"b={','.join(q_list(res.visible_bias))} "
                 f"omega={','.join(q_list(res.omega))} "
                 f"c={res.c} shift={res.shift}")
    else:
        doc = {"member": False}
        plain = "not member"
    _emit(doc, args, plain)
    return 0


def cmd_codes(args) -> int:
    if args.codes_op == "hamming":
        _require(args, ell=args.ell)
        code = hamming_code(args.ell)
        if args.json:
            print(json.dumps({"n": code.n, "size": len(code.words),
                              "words": [format(w, f"0{code.n}b")
                                        for w in code.sorted_words()]},
                             indent=2, sort_keys=True))
        else:
            with _output(args) as out:
                write_code(code, out)
        return 0
    if args.codes_op == "analyze":
        _require(args, code=args.code)
        with open(args.code) as fh:
            code = read_code(fh)
        dist = min_distance(code) if len(code.words) >= 2 else None
        doc = {"n": code.n, "size": len(code.words),
               "min_distance": dist,
               "covering_radius": covering_radius(code)}
        _emit(doc, args,
              f"n={code.n} size={len(code.words)} min_distance={dist} "
              f"covering_radius={doc['covering_radius']}")
        return 0
    if args.codes_op == "bounds":
        _require(args, n=args.n)
        row = table_known_bounds(args.n)
        doc = {"n": args.n,
               "varshamov_lower": varshamov_lower(args.n)
               if args.n >= 3 else None,
               "covering_upper": covering_upper(args.n),
               "table": None if row is None else
               {"k_le": row.k_le, "k_ge": row.k_ge}}
        _emit(doc, args,
              f"varshamov_lower={doc['varshamov_lower']} "
              f"covering_upper={doc['covering_upper']} table={doc['table']}")
        return 0
    if args.codes_op == "exact":
        table = exact_small_values()
        doc = {"A2": {str(k): v for k, v in table["A2"].items()},
               "K2": {str(k): v for k, v in table["K2"].items()}}
        _emit(doc, args,
              "A2(n,3): " + " ".join(f"{k}:{v}"
                                     for k, v in sorted(table["A2"].items()))
              + "\nK2(n,1): "
              + " ".join(f"{k}:{v}" for k, v in sorted(table["K2"].items())))
        return 0
    if args.codes_op == "to-slicings":
        _require(args, code=args.code)
        with open(args.code) as fh:
            code = read_code(fh)
        slicings = code_to_slicings(code)
        with _output(args) as out:
            write_slicings(slicings, out)
        return 0
    raise ValueError(f"unknown codes operation {args.codes_op!r}")


def _read_dist(path: str) -> Distribution:
    with open(path) as fh:
        return read_distribution(fh)


def _emit_distribution(dist: Distribution, args) -> None:
    if args.json:
        print(json.dumps({"n": dist.n, "p": q_list(dist.p)},
                         indent=2, sort_keys=True))
    else:
        with _output(args) as out:
            write_distribution(dist, out)


def cmd_rbm(args) -> int:
    if args.rbm_op == "joint":
        _require(args, params=args.params)
        params = ExpParams.build(*_load_params(
            args.params, ("beta", 1), ("gamma", 1), ("omega", 2)))
        _emit_distribution(joint_distribution(params), args)
        return 0
    if args.rbm_op == "mixture":
        _require(args, params=args.params)
        params = MixtureParams.build(*_load_params(
            args.params, ("lambda", 0), ("delta", 1), ("epsilon", 1)))
        _emit_distribution(mixture_distribution(params), args)
        return 0
    if args.rbm_op == "hadamard":
        dists = [_read_dist(p) for p in args.dist]
        if len(dists) < 2:
            raise ValueError("hadamard needs at least two --dist files")
        acc = dists[0]
        for d in dists[1:]:
            acc = hadamard_product(acc, d)
        _emit_distribution(acc, args)
        return 0
    if args.rbm_op == "flatten-rank":
        _require(args, dist=args.dist or None)
        dist = _read_dist(args.dist[0])
        r = max_flattening_rank(dist)
        _emit({"n": dist.n, "max_flattening_rank": r}, args, str(r))
        return 0
    if args.rbm_op == "covariance":
        _require(args, dist=args.dist or None)
        dist = _read_dist(args.dist[0])
        sigma = covariance_matrix(dist)
        doc = {"n": dist.n,
               "sigma": [q_list(row) for row in sigma.data]}
        _emit(doc, args,
              "\n".join(" ".join(q_list(row)) for row in sigma.data))
        return 0
    if args.rbm_op == "check":
        _require(args, dist=args.dist or None)
        dist = _read_dist(args.dist[0])
        chk = check_membership_necessary(dist)
        doc = {"flattening_rank_ok": chk.flattening_rank_ok,
               "triple_sign_ok": chk.triple_sign_ok,
               "covariance_binomial_ok": chk.covariance_binomial_ok,
               "verdict": "pass" if chk.verdict else "fail",
               "note": chk.note}
        _emit(doc, args,
              f"flattening_rank_ok={chk.flattening_rank_ok} "
              f"triple_sign_ok={chk.triple_sign_ok} "
              f"covariance_binomial_ok={chk.covariance_binomial_ok} "
              f"verdict={doc['verdict']} ({chk.note})")
        return 0
    raise ValueError(f"unknown rbm operation {args.rbm_op!r}")


def cmd_tropvar(args) -> int:
    if args.tropvar_op == "minors":
        _require(args, split=args.split)
        split = [int(x) for x in args.split.split(",")]
        minors = poly_mod.flattening_minors(args.n, split)
        if args.json:
            print(json.dumps(
                {"n": args.n, "split": split, "count": len(minors),
                 "minors": [poly_mod.format_polynomial(m).split("\n")
                            for m in minors]}, indent=2, sort_keys=True))
        else:
            with _output(args) as out:
                for m in minors:
                    poly_mod.write_polynomial(m, out)
                    out.write("\n")
        return 0
    if args.tropvar_op == "initial-form":
        _require(args, poly=args.poly, weights=args.weights)
        with open(args.poly) as fh:
            f = poly_mod.read_polynomial(fh, args.n)
        with open(args.weights) as fh:
            w = read_tropical_point(fh)
        form = poly_mod.initial_form(f, w)
        if args.json:
            print(json.dumps(
                {"n": args.n, "terms": len(form),
                 "polynomial": poly_mod.format_polynomial(form).split("\n")},
                indent=2, sort_keys=True))
        else:
            print(poly_mod.format_polynomial(form))
        return 0
    if args.tropvar_op == "witness-2222":
        rep = poly_mod.quartic_witness_check()
        monomial = None
        if rep.monomial is not None:
            monomial = " ".join(f"p_{v:04b}" for v in rep.monomial)
        doc = {"prevariety": rep.prevariety,
               "quartic_initial_terms": rep.quartic_initial_terms,
               "quartic_monomial": rep.quartic_initial_terms == 1,
               "monomial": monomial,
               "max_weight": q_str(rep.max_weight)}
        _emit(doc, args,
              f"prevariety: {str(rep.prevariety).lower()}\n"
              f"quartic_initial_terms: {rep.quartic_initial_terms}\n"
              f"quartic_monomial: "
              f"{str(rep.quartic_initial_terms == 1).lower()}\n"
              f"monomial: {monomial}\n"
              f"weight: {rep.max_weight}")
        return 0
    raise ValueError(f"unknown tropvar operation {args.tropvar_op!r}")


def cmd_fan(args) -> int:
    if args.fan_op == "triangulations":
        tris = fan_mod.enumerate_triangulations_3cube()
        if args.count:
            _emit({"count": len(tris)}, args, str(len(tris)))
            return 0
        if args.json:
            print(json.dumps(
                {"count": len(tris),
                 "triangulations": [[list(cell) for cell in t.sorted_cells()]
                                    for t in tris]},
                indent=2, sort_keys=True))
        else:
            with _output(args) as out:
                for t in tris:
                    out.write("\n".join(fan_mod.triangulation_lines(t))
                              + "\n\n")
        return 0
    if args.fan_op == "sphere-fvector":
        fv = fan_mod.secondary_sphere_fvector()
        _emit({"f_vector": list(fv)}, args, " ".join(map(str, fv)))
        return 0
    if args.fan_op == "tm13":
        complex_data = fan_mod.tm13_subcomplex()
        if args.fvector:
            fv = complex_data.f_vector()
            _emit({"f_vector": list(fv)}, args, " ".join(map(str, fv)))
            return 0
        doc = fan_mod.complex_to_json(complex_data)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.fan_op == "homology":
        if args.complex:
            complex_data = fan_mod.complex_from_json(
                _load_json(args.complex))
        else:
            complex_data = fan_mod.tm13_subcomplex()
        ranks = fan_mod.reduced_homology_ranks(complex_data)
        _emit({"reduced_homology_ranks": list(ranks)}, args,
              " ".join(map(str, ranks)))
        return 0
    raise ValueError(f"unknown fan operation {args.fan_op!r}")


def _thread_count(text: str) -> int:
    """``--threads`` value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON on stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized searches (default 0)")
    common.add_argument("--threads", type=_thread_count,
                        help="worker count (default: TRBM_THREADS, else 1); "
                             "results are identical for any value")
    common.add_argument("--allow-long", action="store_true",
                        dest="allow_long",
                        help="enable long-running modes")

    parser = argparse.ArgumentParser(
        prog="trbm",
        description="exact tropical geometry of restricted Boltzmann "
                    "machines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slicings", parents=[common],
                       help="enumerate or count cube slicings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--strategy", choices=("arrangement", "brute"),
                   default="arrangement")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_slicings)

    p = sub.add_parser("zonotope-facets", parents=[common],
                       help="facet count of the threshold zonotope")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_zonotope)

    p = sub.add_parser("phi", parents=[common],
                       help="evaluate the tropical morphism")
    p.add_argument("--params", required=True,
                   help="JSON file with W, b, c")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_phi)

    p = sub.add_parser("infer", parents=[common],
                       help="explanation map of the parameters")
    p.add_argument("--params", required=True)
    p.set_defaults(handler=cmd_infer)

    p = sub.add_parser("dim", parents=[common],
                       help="dimension of the tropical model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strategy", default="exhaustive",
                   choices=("exhaustive", "greedy_random", "code_based"))
    p.add_argument("--restarts", type=int, default=8)
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("member-tm1", parents=[common],
                       help="membership in the one-hidden-node model")
    p.add_argument("--point", required=True,
                   help="file with 2^n rationals, one per line")
    p.set_defaults(handler=cmd_member)

    p = sub.add_parser("codes", parents=[common], help="binary code tools")
    p.add_argument("codes_op",
                   choices=("hamming", "analyze", "bounds", "exact",
                            "to-slicings"))
    p.add_argument("--ell", type=int)
    p.add_argument("--code")
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_codes)

    p = sub.add_parser("rbm", parents=[common],
                       help="exact probability-side computations")
    p.add_argument("rbm_op",
                   choices=("joint", "mixture", "hadamard", "flatten-rank",
                            "covariance", "check"))
    p.add_argument("--params")
    p.add_argument("--dist", action="append", default=[])
    p.add_argument("--out")
    p.set_defaults(handler=cmd_rbm)

    p = sub.add_parser("tropvar", parents=[common],
                       help="tropical prevariety and witness checks")
    p.add_argument("tropvar_op",
                   choices=("minors", "initial-form", "witness-2222"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--split")
    p.add_argument("--poly")
    p.add_argument("--weights")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_tropvar)

    p = sub.add_parser("fan", parents=[common],
                       help="secondary fan of the 3-cube and the model "
                            "subcomplex")
    p.add_argument("fan_op",
                   choices=("triangulations", "sphere-fvector", "tm13",
                            "homology"))
    p.add_argument("--count", action="store_true")
    p.add_argument("--fvector", action="store_true")
    p.add_argument("--complex")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_fan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is None:
        try:
            args.threads = _thread_count(os.environ.get(ENV_THREADS) or "1")
        except argparse.ArgumentTypeError as exc:
            print(f"error: {ENV_THREADS}: {exc}", file=sys.stderr)
            return 2
    try:
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError,
            AmbiguousArgmax) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
