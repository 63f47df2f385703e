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
from contextlib import nullcontext
from fractions import Fraction
from functools import cache, partial
from typing import Optional, Sequence

from . import fan as fan_mod
from . import polynomials as poly_mod
from .codes import (BOUNDS_LIMIT, covering_radius, exact_small_values,
                    hamming_code, min_distance, read_code,
                    table_known_bounds, code_to_slicings, varshamov_lower,
                    covering_upper, write_code)
from .cube import (Slicing, _filled_census, count_zonotope_facets,
                   write_slicings, write_vertex_values)
from .rbmstats import (ExpParams, MixtureParams,
                       check_membership_necessary, covariance_matrix,
                       hadamard_product, joint_distribution,
                       max_flattening_rank, mixture_distribution,
                       read_distribution)
from .tropical import (AmbiguousArgmax, TropParams, inference_function,
                       read_tropical_point, tropical_dimension,
                       tropical_membership, tropical_morphism)

Q = Fraction
ENV_THREADS = "TRBM_THREADS"  # the worker count when --threads is not given


def q_list(xs) -> list[str]:
    return [str(x) for x in xs]


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit(doc, args, text) -> None:
    """Write a command's result: ``doc`` as JSON under ``--json``, else
    ``text``, a string or a function that writes to a stream.

    The result goes to the ``--out`` file when one is given, else to
    ``sys.stdout`` as it is at the call.  ``doc`` may be a function that
    builds the document, for listings that are turned into JSON only
    when it is asked for, or None for a result with no JSON form, whose
    ``text`` is written under ``--json`` too.
    """
    if args.json and doc is not None:
        text = _json(doc() if callable(doc) else doc)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        if callable(text):
            text(out)
        else:
            out.write(text + "\n")


def _read(path: str, reader):
    """What ``reader`` reads from the file at ``path``."""
    with open(path) as fh:
        return reader(fh)


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
    doc = _read(path, json.load)
    if not isinstance(doc, dict):
        raise ValueError(f"params file {path} must hold a JSON object")
    for key, _ in keys:
        if key not in doc:
            raise ValueError(f"params file {path} has no key {key!r}")
    return [_rationals(doc[key], depth, f"params file {path}: {key!r}")
            for key, depth in keys]


def _trop_params(path: str) -> TropParams:
    return TropParams.build(*_load_params(path, ("W", 2), ("b", 1), ("c", 1)))


def cmd_slicings(args) -> None:
    n = args.n
    leaves = _filled_census(n, args.strategy, args.allow_long, args.threads)
    doc = {"n": n, "strategy": args.strategy, "count": len(leaves)}
    if args.count:
        _emit(doc, args, str(len(leaves)))
    else:
        def slicings():  # built one at a time, as they are written
            return (Slicing(n, *leaf) for leaf in leaves)
        _emit(lambda: dict(doc, slicings=[
                  {"pos": format(s.mask, "x"), "c": c, "omega": omega}
                  for s in slicings() for c, *omega in [s.witness_text()]]),
              args, lambda out: write_slicings(slicings(), out))


def cmd_zonotope(args) -> None:
    facets = count_zonotope_facets(args.n)
    _emit({"n": args.n, "facets": facets}, args, str(facets))


def cmd_phi(args) -> None:
    point = tropical_morphism(_trop_params(args.params))
    _emit({"n": point.n, "values": q_list(point.values)}, args,
          partial(write_vertex_values, point.values))


def cmd_infer(args) -> None:
    params = _trop_params(args.params)
    mapping = inference_function(params)
    vs, hs = f"0{params.n}b", f"0{params.k}b"  # the formats of v and h
    _emit(lambda: {"n": params.n, "k": params.k, "map": {
              format(v, vs): format(h, hs) for v, h in mapping.items()}},
          args, lambda out: out.writelines(  # one line at a time
              f"{v:{vs}} -> {h:{hs}}\n" for v, h in mapping.items()))


def cmd_dim(args) -> None:
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


def cmd_member(args) -> None:
    res = tropical_membership(_read(args.point, read_tropical_point))
    if res.member:
        doc = {"member": True, "slicing": format(res.slicing.mask, "x"),
               "b": q_list(res.visible_bias), "omega": q_list(res.omega),
               "c": str(res.c), "shift": str(res.shift)}
        plain = (f"member slicing={res.slicing.mask:x} "
                 f"b={','.join(q_list(res.visible_bias))} "
                 f"omega={','.join(q_list(res.omega))} "
                 f"c={res.c} shift={res.shift}")
    else:
        doc = {"member": False}
        plain = "not member"
    _emit(doc, args, plain)


def cmd_codes(args) -> None:
    if args.codes_op == "hamming":
        _require(args, ell=args.ell)
        code = hamming_code(args.ell)
        _emit({"n": code.n, "size": len(code.words),
               "words": [format(w, f"0{code.n}b")
                         for w in code.sorted_words()]},
              args, partial(write_code, code))
    elif args.codes_op == "analyze":
        _require(args, code=args.code)
        code = _read(args.code, read_code)
        radius = covering_radius(code)
        dist = min_distance(code) if len(code.words) >= 2 else None
        doc = {"n": code.n, "size": len(code.words),
               "min_distance": dist, "covering_radius": radius}
        _emit(doc, args,
              f"n={code.n} size={len(code.words)} min_distance={dist} "
              f"covering_radius={radius}")
    elif args.codes_op == "bounds":
        _require(args, n=args.n)
        if not 0 <= args.n <= BOUNDS_LIMIT:
            raise ValueError(f"bounds are printed for 0 <= n <= "
                             f"{BOUNDS_LIMIT}, got n={args.n}")
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
    elif args.codes_op == "exact":
        table = exact_small_values()
        doc = {"A2": {str(k): v for k, v in table["A2"].items()},
               "K2": {str(k): v for k, v in table["K2"].items()}}
        _emit(doc, args,
              "A2(n,3): " + " ".join(f"{k}:{v}"
                                     for k, v in sorted(table["A2"].items()))
              + "\nK2(n,1): "
              + " ".join(f"{k}:{v}" for k, v in sorted(table["K2"].items())))
    elif args.codes_op == "to-slicings":  # no JSON form: --json is ignored
        _require(args, code=args.code)
        slicings = code_to_slicings(_read(args.code, read_code))
        _emit(None, args, partial(write_slicings, slicings))


def _emit_distribution(dist, args) -> None:
    _emit({"n": dist.n, "p": q_list(dist.p)}, args,
          partial(write_vertex_values, dist.p))


def cmd_rbm(args) -> None:
    if args.rbm_op == "joint":
        _require(args, params=args.params)
        params = ExpParams.build(*_load_params(
            args.params, ("beta", 1), ("gamma", 1), ("omega", 2)))
        _emit_distribution(joint_distribution(params), args)
    elif args.rbm_op == "mixture":
        _require(args, params=args.params)
        params = MixtureParams.build(*_load_params(
            args.params, ("lambda", 0), ("delta", 1), ("epsilon", 1)))
        _emit_distribution(mixture_distribution(params), args)
    elif args.rbm_op == "hadamard":
        dists = [_read(p, read_distribution) for p in args.dist]
        if len(dists) < 2:
            raise ValueError("hadamard needs at least two --dist files")
        acc = dists[0]
        for d in dists[1:]:
            acc = hadamard_product(acc, d)
        _emit_distribution(acc, args)
    else:
        _require(args, dist=args.dist or None)
        dist = _read(args.dist[0], read_distribution)
        if args.rbm_op == "flatten-rank":
            r = max_flattening_rank(dist)
            _emit({"n": dist.n, "max_flattening_rank": r}, args, str(r))
        elif args.rbm_op == "covariance":
            sigma = covariance_matrix(dist)
            _emit({"n": dist.n, "sigma": [q_list(row) for row in sigma.data]},
                  args, "\n".join(" ".join(q_list(row)) for row in sigma.data))
        elif args.rbm_op == "check":
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


def cmd_tropvar(args) -> None:
    if args.tropvar_op == "minors":
        _require(args, split=args.split)
        split = [int(x) for x in args.split.split(",")]
        minors = poly_mod.flattening_minors(args.n, split)

        def write(out):
            for m in minors:
                poly_mod.write_polynomial(m, out)
                out.write("\n")
        _emit(lambda: {"n": args.n, "split": split, "count": len(minors),
                       "minors": [poly_mod.format_polynomial(m).split("\n")
                                  for m in minors]},
              args, write)
    elif args.tropvar_op == "initial-form":
        _require(args, poly=args.poly, weights=args.weights)
        f = _read(args.poly,
                  lambda fh: poly_mod.read_polynomial(fh, args.n))
        form = poly_mod.initial_form(
            f, _read(args.weights, read_tropical_point))
        text = poly_mod.format_polynomial(form)
        _emit({"n": args.n, "terms": len(form),
               "polynomial": text.split("\n")}, args, text)
    elif args.tropvar_op == "witness-2222":
        rep = poly_mod.quartic_witness_check()
        monomial = None
        if rep.monomial is not None:
            monomial = " ".join(f"p_{v:04b}" for v in rep.monomial)
        doc = {"prevariety": rep.prevariety,
               "quartic_initial_terms": rep.quartic_initial_terms,
               "quartic_monomial": rep.quartic_initial_terms == 1,
               "monomial": monomial,
               "max_weight": str(rep.max_weight)}
        _emit(doc, args,
              f"prevariety: {str(rep.prevariety).lower()}\n"
              f"quartic_initial_terms: {rep.quartic_initial_terms}\n"
              f"quartic_monomial: "
              f"{str(rep.quartic_initial_terms == 1).lower()}\n"
              f"monomial: {monomial}\n"
              f"weight: {rep.max_weight}")


def cmd_fan(args) -> None:
    if args.fan_op == "triangulations":
        tris = fan_mod.enumerate_triangulations_3cube()
        if args.count:
            _emit({"count": len(tris)}, args, str(len(tris)))
            return

        def write(out):
            for t in tris:
                out.write("\n".join(fan_mod.triangulation_lines(t)) + "\n\n")
        _emit({"count": len(tris),
               "triangulations": [[list(cell) for cell in t.sorted_cells()]
                                  for t in tris]},
              args, write)
    elif args.fan_op == "sphere-fvector":
        fv = fan_mod.secondary_sphere_fvector()
        _emit({"f_vector": list(fv)}, args, " ".join(map(str, fv)))
    elif args.fan_op == "tm13":
        complex_data = fan_mod.tm13_subcomplex()
        if args.fvector:
            fv = complex_data.f_vector()
            _emit({"f_vector": list(fv)}, args, " ".join(map(str, fv)))
        else:  # the complex has no plain form: JSON with or without --json
            doc = fan_mod.complex_to_json(complex_data)
            _emit(doc, args, _json(doc))
    elif args.fan_op == "homology":
        if args.complex:
            complex_data = fan_mod.complex_from_json(
                _read(args.complex, json.load))
        else:
            complex_data = fan_mod.tm13_subcomplex()
        ranks = fan_mod.reduced_homology_ranks(complex_data)
        _emit({"reduced_homology_ranks": list(ranks)}, args,
              " ".join(map(str, ranks)))


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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``trbm`` parser, built at the first call and shared after it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized searches (default 0)")
    common.add_argument("--threads", type=_thread_count,
                        help="worker count (default: TRBM_THREADS, else 1); "
                             "results are identical for any value")
    common.add_argument("--out",
                        help="write the result to this file, not stdout")
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
    p.set_defaults(handler=cmd_slicings)

    p = sub.add_parser("zonotope-facets", parents=[common],
                       help="facet count of the threshold zonotope")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_zonotope)

    p = sub.add_parser("phi", parents=[common],
                       help="evaluate the tropical morphism")
    p.add_argument("--params", required=True,
                   help="JSON file with W, b, c")
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
    p.set_defaults(handler=cmd_codes)

    p = sub.add_parser("rbm", parents=[common],
                       help="exact probability-side computations")
    p.add_argument("rbm_op",
                   choices=("joint", "mixture", "hadamard", "flatten-rank",
                            "covariance", "check"))
    p.add_argument("--params")
    p.add_argument("--dist", action="append", default=[])
    p.set_defaults(handler=cmd_rbm)

    p = sub.add_parser("tropvar", parents=[common],
                       help="tropical prevariety and witness checks")
    p.add_argument("tropvar_op",
                   choices=("minors", "initial-form", "witness-2222"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--split")
    p.add_argument("--poly")
    p.add_argument("--weights")
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
    p.set_defaults(handler=cmd_fan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``trbm`` command and return its exit code.

    ``main`` may be called any number of times in one process.  The
    parser is built once, at the first call, and reused: each parse
    gives a fresh namespace, and ``--dist`` appends to a copy of its
    default, so nothing of one call reaches the next.
    ``TRBM_THREADS`` is read at every call that has no ``--threads``.
    """
    args = build_parser().parse_args(argv)
    if args.threads is None:
        try:
            args.threads = _thread_count(os.environ.get(ENV_THREADS) or "1")
        except argparse.ArgumentTypeError as exc:
            print(f"error: {ENV_THREADS}: {exc}", file=sys.stderr)
            return 2
    try:
        args.handler(args)
        return 0
    except (ValueError, OSError, json.JSONDecodeError,
            AmbiguousArgmax) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
