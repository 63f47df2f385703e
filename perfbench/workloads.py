"""The benchmark workloads: inputs, one timed pass, and the answer checks.

Each workload has ``prepare(seed)``, which builds its inputs before the
timed section, and ``run(inputs, checks, record)``, the timed section.
Commands go through ``trbm.cli.main`` in-process where the CLI has one,
and through the library otherwise.  Every call looks its function up on
the module at call time, so the tracer's rebinding is seen.

Answers are checked against the paper's exact values.  Witnesses are
re-checked by the benchmark's own arithmetic, or by the oracle path
``linalg.rank_bareiss``, never by the code path that produced them.
Checks compare verdicts only (counts, dimensions, certified flags,
f-vectors), so a change of witness bytes does not fail them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from time import perf_counter

import trbm.cli
import trbm.cube
import trbm.fan
import trbm.linalg

HERE = os.path.dirname(os.path.abspath(__file__))


class Checks:
    """Counts answer checks; a failed one is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one ``trbm`` command, run in-process."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = trbm.cli.main(argv)
    except SystemExit as exc:               # argparse rejected the command
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_check(checks: Checks, argv: list[str], expected: str) -> None:
    code, out = cli(argv)
    checks.check(code == 0 and out.strip() == expected,
                 f"trbm {' '.join(argv)} gave exit {code}, "
                 f"{out.strip()!r}, expected {expected!r}")


def coords(v: int, n: int) -> list[int]:
    """Cube vertex v as 0/1 coordinates, most significant bit first."""
    return [(v >> (n - 1 - j)) & 1 for j in range(n)]


def _dot(w, x) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(w, x)), Fraction(0))


# ---------------------------------------------------------------- census

class Census:
    """The slicing census of the n-cube, then a stream of is_slicing queries.

    Half of the queried subsets are cut from the cube by a random
    hyperplane with a half-integer offset, so each is a slicing; the
    other half are uniform random subsets, which almost never are.
    """

    def __init__(self, n: int, expected: int, queries: int, threads: int):
        self.n, self.expected = n, expected
        self.queries, self.threads = queries, threads

    def prepare(self, seed: int) -> list[tuple[tuple[int, ...], bool]]:
        rng = random.Random(seed)
        n, verts = self.n, range(1 << self.n)
        stream = []
        for i in range(self.queries):
            if i % 2 == 0:
                omega = [rng.randint(-2 * n, 2 * n) for _ in range(n)]
                c2 = 2 * rng.randint(-2 * n, 2 * n) + 1     # twice c
                subset = tuple(
                    v for v in verts
                    if 2 * sum(w * x for w, x in zip(omega, coords(v, n)))
                    + c2 > 0)
                stream.append((subset, True))
            else:
                mask = rng.getrandbits(1 << n)
                stream.append((tuple(v for v in verts if mask >> v & 1),
                               False))
        rng.shuffle(stream)
        return stream

    def run(self, stream, checks: Checks, record: dict) -> None:
        n = self.n
        cli_check(checks, ["slicings", "--n", str(n), "--count",
                           "--threads", str(self.threads)],
                  str(self.expected))
        if not stream:
            return
        masks = {s.mask for s in trbm.cube.enumerate_slicings(n)}
        latencies, verdicts = [], []
        for subset, cut in stream:
            start = perf_counter()
            found = trbm.cube.is_slicing(subset, n)
            latencies.append(perf_counter() - start)
            mask = sum(1 << v for v in subset)
            verdict = found is not None
            checks.check(verdict == (mask in masks) and (verdict or not cut),
                         f"is_slicing({mask:x}) said {verdict}")
            verdicts.append("Y" if verdict else "N")
            if verdict:
                checks.check(self._separates(found, set(subset)),
                             f"witness of {mask:x} does not separate it")
        record["query_s"] = latencies
        record["verdicts"] = "".join(verdicts)

    def _separates(self, s, subset: set[int]) -> bool:
        """The witness, substituted at every vertex, cuts off ``subset``."""
        for v in range(1 << self.n):
            margin = _dot(s.omega, coords(v, self.n)) + s.c
            if margin == 0 or (margin > 0) != (v in subset):
                return False
        return True


# ------------------------------------------------------------- dimension

#: (n, k, strategy) -> expected dim, max_rank (None: not pinned); all
#: four are certified.
DIMENSIONS = (
    (3, 1, "exhaustive", 7, 7),
    (3, 2, "exhaustive", 7, None),
    (7, 15, "code_based", 127, 127),
    (7, 16, "code_based", 127, 128),
)


class Dimension:
    """Certified image dimensions and the n = 4 zonotope facet count."""

    def prepare(self, seed: int) -> None:
        return None                 # the paper's fixed instances

    def run(self, _inputs, checks: Checks, record: dict) -> None:
        for n, k, strategy, dim, max_rank in DIMENSIONS:
            argv = ["dim", "--n", str(n), "--k", str(k), "--strategy",
                    strategy, "--json", "--threads", "1"]
            code, out = cli(argv)
            doc = json.loads(out) if code == 0 else {}
            checks.check(doc.get("dim") == dim
                         and doc.get("certified") is True
                         and max_rank in (None, doc.get("max_rank")),
                         f"trbm {' '.join(argv)} gave exit {code}, {out!r}")
            if code == 0:
                checks.check(self._witness_rank(n, doc) == doc["max_rank"],
                             f"witness of dim --n {n} --k {k} re-ranks "
                             "differently")
        cli_check(checks, ["zonotope-facets", "--n", "4", "--threads", "1"],
                  "280")

    @staticmethod
    def _witness_rank(n: int, doc: dict) -> int:
        """Rank of the witness's slicing matrix by Bareiss elimination."""
        masks = [int(h, 16) for h in doc["witness"]]
        rows = []
        for v in range(1 << n):
            x = coords(v, n)
            row = list(x)
            for mask in masks:
                row.extend([1] + x if mask >> v & 1 else [0] * (n + 1))
            rows.append(row)
        return trbm.linalg.rank_bareiss(trbm.linalg.Matrix(rows))


# ------------------------------------------------------------------- fan

TM13 = os.path.join(HERE, "data", "tm13.json")

#: One of the 12 triangulations of the 3-cube whose cones are facets of
#: the model subcomplex; the 12 form a single orbit of cube symmetries.
MODEL_FACET = ((0, 1, 2, 4), (1, 2, 3, 4), (1, 3, 4, 5), (2, 3, 4, 6),
               (3, 4, 5, 6), (3, 5, 6, 7))


def cube_orbit(cells) -> set[frozenset[frozenset[int]]]:
    """Images of a set of vertex cells under the 48 symmetries of the 3-cube."""
    orbit = set()
    for perm in permutations(range(3)):
        for flip in product((0, 1), repeat=3):
            def image(v):
                x = coords(v, 3)
                return sum((x[perm[j]] ^ flip[j]) << (2 - j)
                           for j in range(3))
            orbit.add(frozenset(frozenset(image(v) for v in cell)
                                for cell in cells))
    return orbit


MODEL = cube_orbit(MODEL_FACET)


def _det(a: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    a = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        if a[k][k] == 0:
            p = next((i for i in range(k + 1, len(a)) if a[i][k] != 0), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def generic_lift(w: list[int]) -> bool:
    """No five lifted cube vertices lie on one hyperplane of R^4.

    Then every lower face of the lift is a simplex, so the lift induces a
    triangulation and lies inside a maximal cone of the secondary fan.
    """
    return all(_det([coords(v, 3) + [w[v], 1] for v in five]) != 0
               for five in combinations(range(8), 5))


class Fan:
    """The n = 3 secondary-fan pipeline, on a stream of generic lifts.

    The pass enumerates the 74 triangulations, computes the homology of
    the model subcomplex, and then, for each lift, its regular
    subdivision and its membership in the one-hidden-node model.  A
    generic lift is a member exactly when its triangulation is one of the
    12 model facets.
    """

    def __init__(self, lifts: int, workdir: str):
        self.lifts, self.workdir = lifts, workdir

    def prepare(self, seed: int) -> list[tuple[list[int], str]]:
        with open(TM13) as fh:
            faces = json.load(fh)["faces_by_dim"]
        if [len(f) for f in faces] != [14, 40, 36, 12]:
            raise ValueError(f"{TM13} is not the model subcomplex")
        rng = random.Random(seed)
        stream = []
        while len(stream) < self.lifts:
            w = [rng.randint(-60, 60) for _ in range(8)]
            if generic_lift(w):
                path = os.path.join(self.workdir, f"lift{len(stream)}.txt")
                with open(path, "w") as fh:
                    fh.write("".join(f"{x}\n" for x in w))
                stream.append((w, path))
        return stream

    def run(self, stream, checks: Checks, record: dict) -> None:
        cli_check(checks, ["fan", "triangulations", "--count",
                           "--threads", "1"], "74")
        triangulations = {t.cells
                          for t in trbm.fan.enumerate_triangulations_3cube()}
        cli_check(checks, ["fan", "homology", "--complex", TM13,
                           "--threads", "1"], "0 3 0 0")
        for w, path in stream:
            cells = trbm.fan.regular_subdivision_from_lift(w).cells
            checks.check(cells in triangulations,
                         f"lift {w} gave no triangulation of the 74")
            code, out = cli(["member-tm1", "--point", path, "--json",
                             "--threads", "1"])
            doc = json.loads(out) if code == 0 else {}
            checks.check(doc.get("member") == (cells in MODEL),
                         f"member-tm1 of lift {w} gave exit {code}, {out!r}")
            if doc.get("member"):
                checks.check(self._reproduces(w, doc),
                             f"member-tm1 parameters do not give lift {w}")

    @staticmethod
    def _reproduces(w: list[int], doc: dict) -> bool:
        """q(v) = b.v + max(0, omega.v + c) + shift at every vertex."""
        b = [Fraction(x) for x in doc["b"]]
        omega = [Fraction(x) for x in doc["omega"]]
        c, shift = Fraction(doc["c"]), Fraction(doc["shift"])
        return all(_dot(b, coords(v, 3))
                   + max(Fraction(0), _dot(omega, coords(v, 3)) + c)
                   + shift == w[v] for v in range(8))


def workload(name: str, workdir: str):
    """The named workload, sized for a 2-core machine."""
    threads = min(2, os.cpu_count() or 1)
    if name == "census":
        return Census(4, 1882, queries=2000, threads=1)
    if name == "census-t2":
        return Census(4, 1882, queries=0, threads=threads)
    if name == "dimension":
        return Dimension()
    if name == "fan":
        return Fan(lifts=40, workdir=workdir)
    raise ValueError(f"unknown workload {name!r}")

