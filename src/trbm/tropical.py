"""The tropicalized RBM parameterization and its image geometry.

For parameters (W, b, c) the map sends each visible state v to the best
score ``max over h of (h.Wv + b.v + c.h)``, giving a point of tropical
projective space: a vector of length 2^n read modulo the all-ones
direction.  On the cone of parameters inducing fixed slicings the map is
linear with matrix ``(A | A_C1 | ... | A_Ck)``, which reduces the image
dimension to a maximum-rank search over k-tuples of slicings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import mul
from random import Random
from typing import NamedTuple, Optional, Sequence, TextIO

from .codes import (HAMMING_LIMIT, ball_centers, ball_slicing,
                    shortened_hamming_code)
from .cube import (Slicing, _filled_census, affine_values, all_vertices,
                   read_vertex_values, slicing_count, subset_mask,
                   vertex_coords)
from .linalg import (Matrix, _int_rows, integer_kernel, qtuple, rank_01,
                     rank_gf2)
from .lp import Farkas, LinearSystem, solve_feasibility
from .parallel import parallel_map, workers

Q = Fraction

EXHAUSTIVE_GUARD = 20_000
# greedy_random draws slicings by listing all 2^n vertex margins: n = 15
# at k = 2 takes 0.2 s, n = 16 at k = 1 (no code seeds) over 400 s
GREEDY_LIMIT = 15
# without code seeds (_code_slicings) it draws every slicing, and each of
# up to 60k steps per restart ranks a 2^n x (n + k(n+1)) matrix, by the
# integer core when the GF(2) rank falls short: the slowest run this
# allows, n = 6 at k = 9, takes 0.85 s, and n = 7 at k = 17 3.5-4.6 s
GREEDY_UNSEEDED_ENTRIES = 1 << 14
# phi and infer list 2^n values per hidden unit (2^n for the visible bias
# alone), so both cost max(k, 1) 2^n.  At 2^20, on a 2-vCPU Xeon, phi takes
# 7.5 s at (n, k) = (20, 1), 4.8 s at (14, 64) and 4.3 s at (16, 16) (3.2 s
# at (14, 40)); infer peaks at 410 MB at n = 20 and 77 MB at (14, 64)
TROPICAL_COST_LIMIT = 1 << 20


@dataclass(frozen=True)
class TropParams:
    """Parameters (W, b, c) with W of shape k x n."""

    n: int
    k: int
    weights: tuple[tuple[Fraction, ...], ...]
    visible_bias: tuple[Fraction, ...]
    hidden_bias: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.k or len(self.hidden_bias) != self.k:
            raise ValueError("hidden dimension mismatch")
        if len(self.visible_bias) != self.n \
                or any(len(row) != self.n for row in self.weights):
            raise ValueError("visible dimension mismatch")
        if max(self.k, 1) << self.n > TROPICAL_COST_LIMIT:
            raise ValueError(
                "the tropical map lists 2^n values per hidden unit: "
                f"max(k, 1) * 2^n <= 2^{TROPICAL_COST_LIMIT.bit_length() - 1} "
                f"is supported, got n={self.n}, k={self.k}")

    @classmethod
    def build(cls, weights, visible_bias, hidden_bias) -> "TropParams":
        w = tuple(qtuple(row) for row in weights)
        b = qtuple(visible_bias)
        c = qtuple(hidden_bias)
        return cls(len(b), len(c), w, b, c)


@dataclass(frozen=True)
class TropicalPoint:
    """A 2^n vector modulo the all-ones direction, lexicographic order."""

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != 1 << self.n:
            raise ValueError("expected 2^n coordinates")

    @classmethod
    def build(cls, n: int, values) -> "TropicalPoint":
        return cls(n, qtuple(values))

    def normalized(self) -> tuple[Fraction, ...]:
        base = self.values[0]
        return tuple(x - base for x in self.values)

    def __eq__(self, other):
        return (isinstance(other, TropicalPoint) and self.n == other.n
                and self.normalized() == other.normalized())

    def __hash__(self):
        return hash((self.n, self.normalized()))


def tropical_morphism(params: TropParams) -> TropicalPoint:
    """Best-score vector: max over hidden states, one value per v.

    The score separates over hidden units, as in
    :func:`inference_function`, so the max over h is
    ``b.v + sum_i max(0, W_i.v + c_i)``.
    """
    values = affine_values(Q(0), params.visible_bias)
    for row, c in zip(params.weights, params.hidden_bias):
        values = [x + max(a, 0) for x, a in zip(values, affine_values(c, row))]
    return TropicalPoint(params.n, tuple(values))


class AmbiguousArgmax(ValueError):
    """Raised when some visible state v has tied best hidden states:
    ``ties`` pairs v with its tied units i (from 1), W_i . v + c_i = 0.
    The message names the first :attr:`NAMED` tied states and counts the
    rest, so it stays one short line when up to 2^n states tie."""

    NAMED = 8

    def __init__(self, ties: list[tuple[int, list[int]]], n: int):
        self.ties = ties
        states = ", ".join(
            f"v={v:0{n}b} (tied units {', '.join(map(str, units))})"
            for v, units in ties[:self.NAMED])
        more = len(ties) - self.NAMED
        if more > 0:
            states += f" and {more} more"
        super().__init__(f"argmax not unique at {states}; "
                         "parameters lie on a cone boundary")


def inference_function(params: TropParams) -> dict[int, int]:
    """The explanation map v -> argmax_h of the score, as vertex indices.

    The score separates over hidden units, so coordinate i of the argmax
    is the threshold function of W_i . v + c_i; any unit sitting exactly
    on its hyperplane makes the argmax non-unique, which is an error.
    Each unit is read alone, as integers: (c_i, W_i) times a D > 0.
    """
    n, k = params.n, params.k
    states = [0] * (1 << n)
    tied: dict[int, list[int]] = {}
    for i, (row, c) in enumerate(zip(params.weights, params.hidden_bias)):
        [(const, *weights)] = _int_rows([(c, *row)])
        bit = 1 << (k - 1 - i)
        for v, act in enumerate(affine_values(const, weights)):
            if act > 0:
                states[v] |= bit
            elif not act:
                tied.setdefault(v, []).append(i + 1)
    if tied:
        raise AmbiguousArgmax(sorted(tied.items()), n)
    return dict(enumerate(states))


def _slicing_rows(n: int, masks: Sequence[int]) -> list[list[int]]:
    """Rows of (A | A_C1 | ... | A_Ck), slicing C_i given by its vertex mask."""
    rows = []
    for v in all_vertices(n):
        coords = vertex_coords(v, n)
        row = list(coords)
        for mask in masks:
            row.extend((1,) + coords if mask >> v & 1 else (0,) * (n + 1))
        rows.append(row)
    return rows


def slicing_matrix(n: int, slicings: Sequence[Slicing]) -> Matrix:
    """The 2^n x (n + k(n+1)) block matrix (A | A_C1 | ... | A_Ck)."""
    return Matrix(_slicing_rows(n, [s.mask for s in slicings]))


@lru_cache(maxsize=None)
def _coordinate_columns(n: int) -> tuple[int, ...]:
    """The columns of A as bitsets over the vertices: bit v of column j
    is coordinate j + 1 of vertex v.

    That coordinate is bit ``half = 2^(n-1-j)`` of the index, so along
    the vertices it repeats ``half`` zeros then ``half`` ones; dividing
    the all-ones mask by the all-ones period places one copy per period.
    """
    full = (1 << (1 << n)) - 1
    columns = []
    for j in range(n):
        half = 1 << (n - 1 - j)
        columns.append(full // ((1 << 2 * half) - 1)
                       * (((1 << half) - 1) << half))
    return tuple(columns)


def _rank_bound(n: int, k: int) -> int:
    """min(2^n, n + k(n+1)): the shape bound on any slicing-matrix rank."""
    return min(1 << n, n + k * (n + 1))


def _slicing_rank(n: int, masks: Sequence[int]) -> int:
    """Exact rank of the slicing matrix of ``masks``.

    The block of slicing C is its mask and the mask restricted to each
    coordinate column, so it is supported on the rows of C.  Every block
    of GF(2) rank |C| is taken out: it has rational rank |C| as well
    (:func:`rank_01`), so it spans Q^C, and together these blocks span
    Q^U for the union U of their supports, disjoint or not.  The rank is
    |U| plus the rank of the other columns on the rows outside U, by
    :func:`rank_01`.  A radius-1 ball is n + 1 affinely independent
    vertices, so code balls always reduce, which leaves the n columns of
    A on the vertices no ball covers.
    """
    nrows = 1 << n
    coords = _coordinate_columns(n)
    covered, rest = 0, []
    for mask in masks:
        block = [mask] + [mask & col for col in coords]
        if rank_gf2(block, nrows) == mask.bit_count():
            covered |= mask
        else:
            rest.extend(block)
    rest.extend(coords)
    # bit v of a column is character nrows - 1 - v of its binary string
    flags = format(covered, f"0{nrows}b")
    keep = [i for i, bit in enumerate(flags) if bit == "0"]

    def outside(col: int) -> int:
        bits = format(col, f"0{nrows}b")
        return int("0" + "".join([bits[i] for i in keep]), 2)

    return covered.bit_count() + rank_01(list(map(outside, rest)), len(keep))


@dataclass(frozen=True)
class DimensionResult:
    n: int
    k: int
    strategy: str
    max_rank: int
    dim: int
    certified: bool
    witness: tuple[Slicing, ...]


def _rank_chunk(args) -> tuple[int, tuple[int, ...]]:
    """The highest rank in a chunk and its first combination.

    No rank exceeds the shape bound, so the chunk stops at the first
    combination that reaches it; the result is that of a full scan.
    """
    n, bound, masks, combos = args
    best_rank, best_idx = 0, ()
    for idx in combos:
        r = _slicing_rank(n, [masks[i] for i in idx])
        if r > best_rank:
            best_rank, best_idx = r, idx
            if r == bound:
                break
    return best_rank, best_idx


def tropical_dimension(n: int, k: int, strategy: str = "exhaustive",
                       seed: int = 0, restarts: int = 8,
                       allow_long: bool = False,
                       threads: int = 1) -> DimensionResult:
    """Dimension of the image fan as a maximum-rank search.

    ``exhaustive`` certifies the true maximum over all k-subsets of
    slicings; ``code_based`` and ``greedy_random`` produce lower bounds,
    certified only when they meet min(nk+n+k, 2^n - 1).
    """
    if n < 1:
        raise ValueError(f"dim needs n >= 1, got n={n}")
    if k < 0:
        raise ValueError(f"dim needs k >= 0, got k={k}")
    if restarts < 1:
        raise ValueError(f"dim needs restarts >= 1, got restarts={restarts}")
    if strategy == "exhaustive":
        leaves = _filled_census(n, "arrangement", allow_long, 1)
        if k > len(leaves):
            raise ValueError(f"exhaustive needs k <= {len(leaves)}, the "
                             f"slicing count at n={n}, got k={k}")
        total = comb(len(leaves), k)
        if total > EXHAUSTIVE_GUARD and not allow_long:
            raise ValueError(
                f"{total} slicing tuples exceed the exhaustive guard; "
                "run it with --allow-long")
        max_rank, witness = _search_exhaustive(n, k, leaves, threads)
        certified = True
    elif strategy == "code_based":
        witness = _code_slicings(n, k)
        max_rank = _slicing_rank(n, [s.mask for s in witness])
        certified = False
    elif strategy == "greedy_random":
        if n > GREEDY_LIMIT:
            raise ValueError(f"greedy_random needs n <= {GREEDY_LIMIT}, "
                             f"got n={n}")
        try:
            seeds = _code_slicings(n, k)
        except ValueError:
            seeds = None
        entries = (1 << n) * (n + k * (n + 1))
        if seeds is None and entries > GREEDY_UNSEEDED_ENTRIES:
            raise ValueError(f"greedy_random without code seeds needs 2^n "
                             f"(n + k(n+1)) <= {GREEDY_UNSEEDED_ENTRIES}, "
                             f"got {entries} at n={n}, k={k}")
        max_rank, witness = _search_greedy(n, k, seeds, seed, restarts)
        certified = False
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if max_rank > _rank_bound(n, k):
        raise AssertionError("rank exceeded the parameter-count bound")
    dim = min(max_rank, (1 << n) - 1)
    if dim == min(_rank_bound(n, k), (1 << n) - 1):
        certified = True
    return DimensionResult(n, k, strategy, max_rank, dim, certified,
                           tuple(witness))


def _search_exhaustive(n, k, leaves, threads):
    """The first combination of the highest rank, in combination order,
    of census ``leaves``, with a Slicing built for each of its k leaves.

    One worker scans all combinations as one batch, so the scan stops at
    the first one that reaches the shape bound; more workers get 8
    batches each (:func:`workers`), each stopping at its own first.
    """
    combos = list(combinations(range(len(leaves)), k))
    masks = [mask for mask, _, _ in leaves]
    count = workers(threads)
    chunk = max(1, len(combos) // (1 if count == 1 else 8 * count))
    batches = [(n, _rank_bound(n, k), masks, combos[i:i + chunk])
               for i in range(0, len(combos), chunk)]
    best_rank, best_idx = 0, None
    for r, idx in parallel_map(_rank_chunk, batches, threads):
        if r > best_rank:
            best_rank, best_idx = r, idx
    return best_rank, tuple(Slicing(n, *leaves[i]) for i in best_idx)


def _code_slicings(n: int, k: int) -> tuple[Slicing, ...]:
    top = (1 << HAMMING_LIMIT) - 1
    if not 2 <= n <= top:
        raise ValueError(f"code_based needs 2 <= n <= {top}, got n={n}")
    centers = ball_centers(shortened_hamming_code(n))
    if k > len(centers):
        raise ValueError(
            f"code of size {len(centers)} cannot seed k={k} slicings; "
            "use greedy_random")
    return tuple(ball_slicing(w, n) for w in centers[:k])


def _random_slicing(n: int, rng: Random) -> tuple[int, list[int]]:
    """The mask and the integer witness y = (omega, c) of the first y
    drawn that puts no vertex on its hyperplane: the leaf (mask, y, 1),
    from one listing of its margins."""
    while True:
        y = [rng.randint(-2 * n, 2 * n) for _ in range(n + 1)]
        margins = affine_values(y[n], y[:n])
        if 0 not in margins:
            return subset_mask(v for v, m in enumerate(margins) if m > 0), y


def _search_greedy(n, k, seeds, seed, restarts):
    """Random replacement of one slicing at a time, kept when the rank
    grows; the first restart starts from ``seeds`` unless it is None.
    A tuple holds (mask, seed Slicing or drawn y), and a draw is built
    as a Slicing only if it is returned."""
    rng = Random(seed)
    target = _rank_bound(n, k)
    best_rank, best = 0, None
    for attempt in range(restarts):
        if attempt == 0 and seeds is not None:
            current = [(s.mask, s) for s in seeds]
        else:
            current = [_random_slicing(n, rng) for _ in range(k)]
        cur_rank = _slicing_rank(n, [mask for mask, _ in current])
        for _ in range(60 * k):
            if cur_rank == target:
                break
            pos = rng.randrange(k)
            cand = current.copy()
            cand[pos] = _random_slicing(n, rng)
            cand_rank = _slicing_rank(n, [mask for mask, _ in cand])
            if cand_rank > cur_rank:
                current, cur_rank = cand, cand_rank
        if cur_rank > best_rank:
            best_rank, best = cur_rank, current
        if best_rank == target:
            break
    return best_rank, tuple(s if isinstance(s, Slicing) else
                            Slicing(n, mask, s, 1) for mask, s in best)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    slicing: Optional[Slicing] = None
    visible_bias: Optional[tuple[Fraction, ...]] = None
    omega: Optional[tuple[Fraction, ...]] = None
    c: Optional[Fraction] = None
    shift: Optional[Fraction] = None

    def params(self) -> TropParams:
        if not self.member:
            raise ValueError("no parameters for a non-member")
        return TropParams.build([self.omega], self.visible_bias, [self.c])


def tropical_membership(q: TropicalPoint) -> MembershipResult:
    """Image membership for the one-hidden-node map, by one solve per slicing.

    q belongs to the image iff for some slicing C there are (b, omega, c)
    and a shift mu with q(v) = b.v + mu off C and q(v) = b.v + omega.v +
    c + mu on C, where omega.v + c >= 0 on C and <= 0 off C.  Cones are
    taken closed, so fan boundary points are members.

    The system reads E x = q and W x >= 0 with E and W fixed by C.  A
    Farkas certificate of it is (y, m) with m >= 0, m.W + y.E = 0 and
    y.q > 0 (:meth:`Farkas.refutes`), and only y.q involves q.  So each
    slicing keeps the certificates of its infeasible systems for the
    life of the process (:func:`_membership_block`) and is skipped
    without an LP when one of them has y.q > 0; that certificate is
    re-checked on q's system at every use (:func:`_refuted`).  The kept
    certificates start as +-y for each y of the left kernel of E (m = 0,
    E x = q inconsistent), and every LP that returns None adds its own.
    Only infeasible systems are skipped and slicings are tried in the
    same order, so the first feasible one and its witness are those of
    one solve per slicing.  A Slicing is built only for an LP that runs.
    """
    n = q.n
    if n > 4:
        raise ValueError("membership iterates all slicings; needs n <= 4")
    [qs] = _int_rows([q.values])
    for mask, y, den in _filled_census(n, "arrangement", False, 1):
        if _refuted(n, mask, qs):
            continue
        result = _membership_one(q, Slicing(n, mask, y, den),
                                 _membership_block(n, mask).kept)
        if result is not None:
            return result
    return MembershipResult(member=False)


class _Block(NamedTuple):
    """The rows of the membership system of one slicing, without q: the
    equalities E (one row per vertex, over b, omega, c, mu) and the weak
    rows W; the values of the rows of E, then W, at the point of
    :func:`_refuted`; and the certificates kept for the slicing, a list
    that grows as LPs return None."""

    eq: tuple[tuple[int, ...], ...]
    weak: tuple[tuple[int, ...], ...]
    at: tuple[int, ...]
    kept: list[Farkas]


#: A kept certificate is re-checked at the point with unknown j equal to
#: 2^(SPREAD j) (:func:`_refuted`).
SPREAD = 64


@lru_cache(maxsize=None)
def _membership_block(n: int, mask: int) -> _Block:
    """The :class:`_Block` of the slicing ``mask``, keeping to begin with
    +-y, m = 0 for each y of an integer basis of the left kernel of E."""
    zero = (0,) * n
    eq, weak = [], []
    for v in all_vertices(n):
        coords = vertex_coords(v, n)
        if mask >> v & 1:
            eq.append(coords + coords + (1, 1))
            weak.append(zero + coords + (1, 0, 0))
        else:
            eq.append(coords + zero + (0, 1))
            weak.append(zero + tuple(-x for x in coords) + (-1, 0, 0))
    left_kernel, _ = integer_kernel(Matrix(eq).transpose())
    none = (0,) * len(weak)
    return _Block(tuple(eq), tuple(weak),
                  tuple(map(_at, eq + [row[:-1] for row in weak])),
                  [Farkas((), none, tuple(sign * x for x in y))
                   for y in left_kernel for sign in (1, -1)])


@lru_cache(maxsize=None)
def _at(row: tuple[int, ...]) -> int:
    """The value of a row over the unknowns at the point of
    :func:`_refuted`."""
    return sum(a << SPREAD * j for j, a in enumerate(row))


def _refuted(n: int, mask: int, qs: Sequence[int]) -> bool:
    """Whether a certificate kept for the slicing ``mask`` refutes the
    point with integer values ``qs`` (q's values times their common
    denominator, which leaves every sign as it is).

    The first certificate (y, m) with y.q > 0 does, once it is checked
    by substitution on the system of ``qs``: m >= 0, and the combination
    m.W + y.(E | -q) has the constant -y.q < 0 (W's constants are 0) and
    no other coefficient.
    The entries of E and W are 0 or +-1, so each coefficient c_j on an
    unknown has |c_j| <= sum |m| + sum |y|.  Below 2^(SPREAD - 1) they
    are all 0 exactly when the combination's value at the point with
    unknown j equal to 2^(SPREAD j) is 0, since the c_j are that value's
    digits in base 2^SPREAD: one substitution checks every column.
    """
    block = _membership_block(n, mask)
    for cert in block.kept:
        if sum(map(mul, cert.eq, qs)) > 0:
            if (min(cert.weak) < 0
                    or sum(cert.weak) + sum(map(abs, cert.eq))
                    >= 1 << (SPREAD - 1)
                    or sum(map(mul, cert.eq + cert.weak, block.at))):
                raise AssertionError(f"Farkas certificate of slicing "
                                     f"{mask:x} failed re-validation")
            return True
    return False


def _membership_one(q: TropicalPoint, s: Slicing,
                    certificates: Optional[list] = None
                    ) -> Optional[MembershipResult]:
    """The member of slicing ``s`` solved by one LP, or None; the
    certificate of a None is appended to ``certificates``, if given."""
    n = q.n
    block = _membership_block(n, s.mask)
    witness = solve_feasibility(LinearSystem.build(
        2 * n + 2, weak=block.weak,
        eq=[row + (-x,) for row, x in zip(block.eq, q.values)]),
        certificates)
    if witness is None:
        return None
    return MembershipResult(True, s, witness[:n], witness[n:2 * n],
                            witness[2 * n], witness[2 * n + 1])


def count_inference_functions(n: int, k: int) -> int:
    """Number of realizable explanation maps: (threshold count)^k."""
    if n > 4:
        raise ValueError("needs the slicing census; supported for n <= 4")
    return slicing_count(n) ** k


def read_tropical_point(stream: TextIO) -> TropicalPoint:
    return TropicalPoint(*read_vertex_values(stream))
