"""Vertices of the n-cube and their slicings.

Vertex indexing convention, used everywhere in the package: the vertex
with coordinates ``(v_1, ..., v_n)`` has index ``sum(v_j * 2**(n-j))``,
so coordinate 1 is the most significant bit and sorting indices
reproduces the lexicographic order ``000, 001, 010, ...``.

A *slicing* is a subset of cube vertices that a hyperplane strictly
separates from its complement; equivalently, the indicator of the subset
is a linear threshold function.  Slicings carry an exact rational witness
``(omega, c)`` with ``omega . v + c > 0`` exactly on the subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence, TextIO

from .linalg import Matrix, _int_rows, integer_kernel
from .lp import LinearSystem, solve_feasibility
from .parallel import parallel_map

Q = Fraction

SLICING_LIMIT_BRUTE = 4
SLICING_LIMIT_ARRANGEMENT = 5


def vertex_coords(v: int, n: int) -> tuple[int, ...]:
    """Coordinates (v_1, ..., v_n) of the vertex with index v."""
    return tuple((v >> (n - 1 - j)) & 1 for j in range(n))


def vertex_index(coords: Sequence[int]) -> int:
    idx = 0
    for bit in coords:
        idx = (idx << 1) | (bit & 1)
    return idx


def vertex_weight(v: int) -> int:
    return bin(v).count("1")


def all_vertices(n: int) -> range:
    return range(1 << n)


def subset_mask(subset: Iterable[int]) -> int:
    mask = 0
    for v in subset:
        mask |= 1 << v
    return mask


@dataclass(frozen=True)
class Slicing:
    """A separable vertex subset with an exact separating witness."""

    n: int
    positive: frozenset[int]
    omega: tuple[Fraction, ...]
    c: Fraction

    def __post_init__(self):
        if len(self.omega) != self.n:
            raise ValueError("witness length mismatch")
        # the margins times the witness's common denominator D > 0 keep
        # their signs and are the integers C + sum(W_j for the set bits);
        # each weight, the last coordinate's first, doubles the list, so
        # coordinate 1 ends as the most significant bit
        [(const, *weights)] = _int_rows([(self.c, *self.omega)])
        margins = [const]
        for w in reversed(weights):
            margins += [m + w for m in margins]
        positive = self.positive
        if 0 in margins or positive != {
                v for v, value in enumerate(margins) if value > 0}:
            bad = next((v for v, value in enumerate(margins)
                        if value == 0 or (value > 0) != (v in positive)),
                       None)
            if bad is None:
                raise ValueError("positive set holds a non-vertex")
            raise ValueError(
                f"witness does not separate vertex {bad:0{self.n}b}")

    def margin(self, v: int) -> Fraction:
        coords = vertex_coords(v, self.n)
        return sum((self.omega[j] * coords[j] for j in range(self.n)),
                   self.c)

    @property
    def mask(self) -> int:
        return subset_mask(self.positive)

    def sort_key(self) -> tuple[int, int]:
        return (len(self.positive), self.mask)

    def complement(self) -> "Slicing":
        comp = frozenset(all_vertices(self.n)) - self.positive
        return Slicing(self.n, comp,
                       tuple(-w for w in self.omega), -self.c)


def is_slicing(subset: Iterable[int], n: int) -> Optional[Slicing]:
    """Exact separability test; returns a witnessed Slicing or None.

    The empty and the full vertex set are slicings (constant threshold
    functions) with witnesses omega = 0 and c = -1 or +1.  A subset with
    a parallelogram certificate (:func:`_parallelogram`) is refuted
    without an LP.
    """
    positive = frozenset(subset)
    if not positive <= set(all_vertices(n)):
        raise ValueError("subset contains a non-vertex")
    if not positive or len(positive) == 1 << n:
        c = Q(1) if positive else Q(-1)
        return Slicing(n, positive, tuple(Q(0) for _ in range(n)), c)
    witness = _separate((n, subset_mask(positive), (1 << (1 << n)) - 1))
    if witness is None:
        return None
    return Slicing(n, positive, witness[:n], witness[n])


@lru_cache(maxsize=None)
def _signed_rows(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each vertex v, its strict rows over (omega, c) with constant 0:
    -(v, 1) on the negative side (index 0), (v, 1) on the positive."""
    planes = [vertex_coords(v, n) + (1,) for v in all_vertices(n)]
    return tuple((tuple(-x for x in p) + (0,), p + (0,)) for p in planes)


def _separate(args: tuple[int, int, int]) -> Optional[tuple[Fraction, ...]]:
    """A witness (omega, c) whose margin is positive on the vertices of
    ``pos`` and negative on the other vertices of ``side``, or None.

    ``args`` is (n, pos, side) with ``pos`` a submask of ``side``.  The
    split is refuted by a parallelogram certificate (:func:`_refuted`)
    when there is one, else decided by the LP over the rows of the
    vertices of ``side`` in index order.
    """
    n, pos, side = args
    if _refuted(pos, side ^ pos, n):
        return None
    rows = _signed_rows(n)
    strict = [rows[v][pos >> v & 1] for v in range(side.bit_length())
              if side >> v & 1]
    return solve_feasibility(LinearSystem.build(n + 1, strict=strict))


def _parallelogram(pos_mask: int,
                   neg_mask: int) -> Optional[tuple[int, int, int, int]]:
    """Vertices a, b of ``pos_mask`` and c, d of ``neg_mask`` with
    a + b = c + d as 0/1 vectors, or None (Elgot's asummability, 1961).

    Such a quadruple certifies that no hyperplane strictly separates the
    two vertex sets: the margin of a separating witness is an affine
    function m of the vertex, so m(a) + m(b) = m(c) + m(d), with the left
    side > 0 and the right side < 0.  Refuting only such systems skips no
    feasible LP, so every LP that still runs, and with it every witness,
    count and output byte, is the one that runs without the certificate.
    For vertex indices a + b = c + d is a & b == c & d and a | b == c | d;
    a == b and c == d are allowed.
    """
    pos = [v for v in range(pos_mask.bit_length()) if pos_mask >> v & 1]
    neg = [v for v in range(neg_mask.bit_length()) if neg_mask >> v & 1]
    sums = {(a & b, a | b): (a, b) for i, a in enumerate(pos) for b in pos[i:]}
    for i, c in enumerate(neg):
        for d in neg[i:]:
            ab = sums.get((c & d, c | d))
            if ab:
                return ab + (c, d)
    return None


def _refuted(pos_mask: int, neg_mask: int, n: int) -> bool:
    """Whether a parallelogram certificate, re-checked by substituting
    vertex coordinates, shows ``pos_mask`` and ``neg_mask`` inseparable."""
    quad = _parallelogram(pos_mask, neg_mask)
    if quad is None:
        return False
    a, b, c, d = quad
    sides = pos_mask >> a & pos_mask >> b & neg_mask >> c & neg_mask >> d & 1
    coords = [vertex_coords(v, n) for v in quad]
    if not sides or any(w + x != y + z for w, x, y, z in zip(*coords)):
        raise AssertionError(
            f"parallelogram certificate {quad} failed re-validation")
    return True


def _brute_chunk(args) -> list[tuple[int, tuple, Fraction]]:
    n, start, stop = args
    full = (1 << (1 << n)) - 1
    found = []
    for mask in range(start, stop):
        if mask > (full ^ mask):
            continue  # complements are derived, not re-solved
        subset = [v for v in all_vertices(n) if mask >> v & 1]
        s = is_slicing(subset, n)
        if s is not None:
            found.append((mask, s.omega, s.c))
    return found


def _enumerate_brute(n: int, threads: int) -> list[Slicing]:
    total = 1 << (1 << n)
    step = max(1, total // 256) if threads > 1 else total
    chunks = [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]
    slicings: list[Slicing] = []
    for found in parallel_map(_brute_chunk, chunks, threads):
        for mask, omega, c in found:
            pos = frozenset(v for v in all_vertices(n) if mask >> v & 1)
            s = Slicing(n, pos, omega, c)
            slicings.append(s)
            comp = s.complement()
            if comp.mask != mask:
                slicings.append(comp)
    return sorted(slicings, key=Slicing.sort_key)


def _enumerate_arrangement(n: int, threads: int) -> list[Slicing]:
    """Slicings as regions of the arrangement of vertex hyperplanes.

    Hyperplanes live in R^(n+1) with coordinates (omega, c); vertex v
    contributes the hyperplane omega.v + c = 0.  Hyperplanes are inserted
    one at a time; each known region either keeps its witness or splits,
    and :func:`_separate` decides each candidate side.  A region is the
    mask of its positive vertices among those inserted, with a witness.
    """
    planes = [vertex_coords(v, n) + (1,) for v in all_vertices(n)]
    # a region is (mask, witness, the witness times the lcm of its
    # denominators); the scaled witness has the same signs on each plane
    zero = tuple(Q(0) for _ in range(n + 1))
    regions = [(0, zero, (0,) * (n + 1))]
    for k, plane in enumerate(planes):
        inserted = (1 << (k + 1)) - 1
        kept, candidates = [], []
        for pos, point, scaled in regions:
            value = sum(map(mul, plane, scaled))
            if value:
                kept.append((pos | (value > 0) << k, point, scaled))
                candidates.append((n, pos | (value < 0) << k, inserted))
            else:
                candidates += [(n, pos | 1 << k, inserted), (n, pos, inserted)]
        solved = parallel_map(_separate, candidates, threads)
        regions = kept + [(pos, point, *_int_rows([point]))
                          for (_, pos, _), point in zip(candidates, solved)
                          if point is not None]
    slicings = []
    for mask, point, _ in regions:
        pos = frozenset(v for v in all_vertices(n) if mask >> v & 1)
        slicings.append(Slicing(n, pos, point[:n], point[n]))
    return sorted(slicings, key=Slicing.sort_key)


@lru_cache(maxsize=None)
def _census(n: int, strategy: str) -> list[Slicing]:
    """The slot that holds the census of (n, strategy) once it is made;
    the census is identical for any thread count, so one slot serves all."""
    return []


def enumerate_slicings(n: int, strategy: str = "arrangement",
                       allow_long: bool = False,
                       threads: int = 1) -> list[Slicing]:
    """All slicings of the n-cube in canonical (cardinality, mask) order."""
    if strategy not in ("brute", "arrangement"):
        raise ValueError(f"unknown strategy {strategy!r}")
    limit = SLICING_LIMIT_BRUTE if strategy == "brute" \
        else SLICING_LIMIT_ARRANGEMENT
    if n < 1 or n > limit:
        raise ValueError(f"n={n} outside supported range for {strategy}")
    if strategy == "arrangement" and n >= 5 and not allow_long:
        raise ValueError("n=5 enumeration is a long-running mode; "
                         "enable allow_long")
    census = _census(n, strategy)
    if not census:
        enumerate_ = _enumerate_brute if strategy == "brute" \
            else _enumerate_arrangement
        census += enumerate_(n, threads)
    return list(census)


def slicing_count(n: int, strategy: str = "arrangement",
                  allow_long: bool = False, threads: int = 1) -> int:
    return len(enumerate_slicings(n, strategy, allow_long, threads))


def count_zonotope_facets(n: int) -> int:
    """Facets of the threshold-function zonotope in R^(n+1).

    Counts distinct linear hyperplanes spanned by n-subsets of the
    generators (1, v); each contributes an antipodal facet pair.
    """
    if n < 1 or n > 4:
        raise ValueError("supported for 1 <= n <= 4")
    from itertools import combinations
    gens = [(1,) + vertex_coords(v, n) for v in all_vertices(n)]
    normals = set()
    for subset in combinations(gens, n):
        # n rows span a hyperplane exactly when their kernel is a line
        kernel, _ = integer_kernel(Matrix(subset))
        if len(kernel) == 1:
            normals.add(_primitive(kernel[0]))
    return 2 * len(normals)


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def cube_symmetries(n: int) -> list[tuple[int, ...]]:
    """The 2^n n! vertex permutations induced by the cube's symmetries."""
    maps = []
    for perm in permutations(range(n)):
        for flips in product((0, 1), repeat=n):
            image = []
            for v in all_vertices(n):
                coords = vertex_coords(v, n)
                image.append(vertex_index(
                    tuple(coords[perm[j]] ^ flips[j] for j in range(n))))
            maps.append(tuple(image))
    return maps


def write_slicings(slicings: Iterable[Slicing], stream: TextIO) -> None:
    """One slicing per line: ``n:<dim> pos:<hex mask> w:<c>,<w_1>,...``."""
    for s in slicings:
        ws = ",".join([str(s.c)] + [str(x) for x in s.omega])
        stream.write(f"n:{s.n} pos:{s.mask:x} w:{ws}\n")


def read_vertex_values(stream: TextIO) -> tuple[int, tuple[Fraction, ...]]:
    """n and the 2^n rationals, in vertex order, of a file that holds one
    rational per line; blank lines are skipped."""
    values = []
    for line in filter(None, map(str.strip, stream)):
        try:
            values.append(Q(line))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"expected a rational per line, got {line!r}") from None
    n = (len(values) - 1).bit_length()
    if len(values) != 1 << n:
        raise ValueError("expected 2^n values")
    return n, tuple(values)


def read_slicings(stream: TextIO) -> list[Slicing]:
    out = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        fields = dict(part.split(":", 1) for part in line.split())
        n = int(fields["n"])
        mask = int(fields["pos"], 16)
        nums = [Q(x) for x in fields["w"].split(",")]
        pos = frozenset(v for v in all_vertices(n) if mask >> v & 1)
        out.append(Slicing(n, pos, tuple(nums[1:]), nums[0]))
    return out
