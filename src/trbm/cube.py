"""Vertices of the n-cube and their slicings.

Vertex indexing convention, used everywhere in the package: the vertex
with coordinates ``(v_1, ..., v_n)`` has index ``sum(v_j * 2**(n-j))``,
so coordinate 1 is the most significant bit and sorting indices
reproduces the lexicographic order ``000, 001, 010, ...``.

A *slicing* is a subset of cube vertices that a hyperplane strictly
separates from its complement; equivalently, the indicator of the subset
is a linear threshold function.  Slicings carry an exact rational witness
``(omega, c)`` with ``omega . v + c > 0`` exactly on the subset.

The arrangement census walks its tree of regions depth first: a region
of the vertices 0..k-1 carries its margin LP, stopped at the end of the
degenerate phase, and a split at vertex k copies it and adds one row
(:func:`_split`).  Its subtrees share one worker pool.  Its leaves are
integer witnesses (mask, y, den), the only form in which the census is
kept: a count reads how many there are, and a Slicing is built from a
leaf only where one is returned.  Each census decides one set of each
complementary pair, and :func:`_with_complements` adds the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import combinations, permutations, product
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence, TextIO

from .linalg import Matrix, integer_kernel
from .lp import Farkas, LinearSystem, _box, _margin_lp, _Tableau
# slicing queries call the margin LP directly; solve_feasibility stays
# bound here, where the span tracer of perfbench/ looks it up
from .lp import solve_feasibility  # noqa: F401
from .parallel import parallel_map, workers

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


def all_vertices(n: int) -> range:
    return range(1 << n)


def subset_mask(subset: Iterable[int]) -> int:
    mask = 0
    for v in subset:
        mask |= 1 << v
    return mask


def affine_values(const, weights: Sequence) -> list:
    """The values ``const + sum(weights[j] * v_j)`` at every vertex v, in
    index order; exact for ``int`` and ``Fraction``.

    Each weight, the last coordinate's first, doubles the list, so
    coordinate 1 ends as the most significant bit.
    """
    values = [const]
    for w in reversed(weights):
        values += [x + w for x in values]
    return values


@dataclass(frozen=True)
class Slicing:
    """The vertex set ``mask`` with the separating witness omega =
    y[:n] / den, c = y[n] / den: integers, den > 0, divided by their gcd
    so that equal witnesses have equal fields.  The check is in integers:
    the margins y[n] + sum(y[j] for the set bits) have the signs of
    omega . v + c."""

    n: int
    mask: int
    y: tuple[int, ...]
    den: int

    def __post_init__(self):
        n, mask = self.n, self.mask
        if len(self.y) != n + 1:
            raise ValueError("witness length mismatch")
        if self.den <= 0:
            raise ValueError("witness denominator must be positive")
        g = gcd(*self.y, self.den)
        object.__setattr__(self, "y", tuple(v // g for v in self.y))
        object.__setattr__(self, "den", self.den // g)
        margins = affine_values(self.y[n], self.y[:n])
        if 0 in margins or mask != sum(
                1 << v for v, value in enumerate(margins) if value > 0):
            bad = next((v for v, value in enumerate(margins)
                        if value == 0 or (value > 0) != (mask >> v & 1)),
                       None)
            if bad is None:
                raise ValueError("positive set holds a non-vertex")
            raise ValueError(f"witness does not separate vertex {bad:0{n}b}")

    @property
    def positive(self) -> frozenset[int]:
        return frozenset(v for v in range(1 << self.n) if self.mask >> v & 1)

    @cached_property
    def omega(self) -> tuple[Fraction, ...]:
        return tuple(Q(v, self.den) for v in self.y[:self.n])

    @cached_property
    def c(self) -> Fraction:
        return Q(self.y[self.n], self.den)

    def witness_text(self) -> list[str]:
        """c, omega_1, ..., omega_n as their Fractions print, each
        formatted from (y, den) without building one."""
        den, out = self.den, []
        for v in (self.y[self.n], *self.y[:self.n]):
            g = gcd(v, den)
            out.append(f"{v // g}" if g == den else f"{v // g}/{den // g}")
        return out


def is_slicing(subset: Iterable[int], n: int) -> Optional[Slicing]:
    """Exact separability test; returns a witnessed Slicing or None.

    The empty and the full vertex set are slicings (constant threshold
    functions) with witnesses omega = 0 and c = -1 or +1.  A subset with
    a parallelogram certificate is refuted without an LP.  Otherwise the
    margin LP over the rows of all vertices in index order decides it;
    ``solve_feasibility`` hands the LP these integer rows and this box
    for the same system, so the witness is the one it returns.  The
    witness is re-checked by its margin at every vertex.  The census
    splits regions by :func:`_split` instead.
    """
    positive = frozenset(subset)
    if not positive <= set(all_vertices(n)):
        raise ValueError("subset contains a non-vertex")
    mask = subset_mask(positive)
    witness = _separation(mask, n)
    return None if witness is None else Slicing(n, mask, *witness)


def _separation(pos: int, n: int) -> Optional[tuple[Sequence[int], int]]:
    """The integer witness (y, den) of :func:`is_slicing` for the vertex
    mask ``pos``, or None when it is not a slicing."""
    full = (1 << (1 << n)) - 1
    if pos in (0, full):
        return (0,) * n + (1 if pos else -1,), 1
    quad = _parallelogram(pos, full ^ pos)
    if quad is not None and _certified(quad, pos, full ^ pos, n):
        return None
    rows = _signed_rows(n)
    strict = [rows[v][pos >> v & 1] for v in all_vertices(n)]
    return _rechecked(_margin_lp(strict, n + 1, _box(n + 1)), pos,
                      (1 << n) - 1, n)


@lru_cache(maxsize=None)
def _signed_rows(n: int) -> tuple[tuple[tuple, tuple], ...]:
    """For each vertex v, its strict rows over (omega, c) as margin LP
    rows ``(a, 1)``: a = -(v, 1) on the negative side (index 0), (v, 1)
    on the positive."""
    planes = [vertex_coords(v, n) + (1,) for v in all_vertices(n)]
    return tuple(((tuple(-x for x in p), 1), (p, 1)) for p in planes)


def _rechecked(result, pos: int, k: int, n: int):
    """The witness of the margin LP's ``result`` (witness, pi) for the
    split ``pos`` of the vertices 0..k, once y is checked by integer
    substitution to have margins of the signs of ``pos`` there (they set
    only the last k.bit_length() coordinates); or None, once the Farkas
    multipliers pi are checked to refute their rows a.y > 0."""
    witness, pi = result
    if witness is None:
        rows = tuple((*_signed_rows(n)[v][pos >> v & 1][0], 0)
                     for v in range(k + 1))
        if not Farkas(tuple(pi), (), ()).refutes(LinearSystem(n + 1, rows)):
            raise AssertionError("Farkas certificate failed re-validation")
        return None
    y = witness[0]
    margins = affine_values(y[n], y[n - k.bit_length():n])[:k + 1]
    if 0 in margins or pos != sum(
            1 << v for v, x in enumerate(margins) if x > 0):
        raise AssertionError("separation witness failed re-validation")
    return witness


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


def _certified(quad, pos_mask: int, neg_mask: int, n: int) -> bool:
    """True once the certificate (a, b, c, d) is re-checked: a, b in
    ``pos_mask``, c, d in ``neg_mask`` and a + b = c + d by coordinates;
    AssertionError otherwise."""
    a, b, c, d = quad
    sides = pos_mask >> a & pos_mask >> b & neg_mask >> c & neg_mask >> d & 1
    rows = _signed_rows(n)
    coords = [rows[v][1][0] for v in quad]  # (v, 1) by coordinates
    if not sides or any(w + x != y + z for w, x, y, z in zip(*coords)):
        raise AssertionError(
            f"parallelogram certificate {quad} failed re-validation")
    return True


@lru_cache(maxsize=None)
def _through(k: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The parallelograms (b, c, d, 1 << b, 1 << c | 1 << d) through
    vertex k of the vertices 0..k: b, c < d below k with k + b = c + d
    as 0/1 vectors (for indices, k & b == c & d and k | b == c | d).

    b = k would force c = d = k, and b = c or b = d the other to be k,
    so the four vertices are distinct.  The table does not depend on n:
    the sums only see the bits of indices below k.
    """
    table = []
    for b in range(k):
        low, diff = k & b, k ^ b
        sub = diff
        while sub:  # c = low | sub and d = low | (diff ^ sub)
            c, d = low | sub, low | diff ^ sub
            if c < d < k:
                table.append((b, c, d, 1 << b, 1 << c | 1 << d))
            sub = (sub - 1) & diff
    return tuple(table)


def _refuted_through(pos: int, k: int, n: int) -> bool:
    """Whether a parallelogram through vertex k shows the split ``pos``
    of the vertices 0..k inseparable, its certificate re-checked by
    coordinates.  When the split of 0..k-1 is separable, every
    parallelogram certificate of the split of 0..k passes through k, so
    this is the verdict of :func:`_parallelogram`."""
    neg = ((1 << (k + 1)) - 1) ^ pos
    positive = pos >> k & 1
    same = pos if positive else neg  # the vertices on k's side
    for b, c, d, b_mask, cd_mask in _through(k):
        if same & b_mask and not same & cd_mask:
            quad = (k, b, c, d) if positive else (c, d, k, b)
            return _certified(quad, pos, neg, n)
    return False


def _enumerate_brute(n: int, threads: int) -> list:
    """The leaves (mask, y, den) of the vertex subsets that
    :func:`_separation` separates: one :func:`parallel_map` decides the
    masks below 2^(2^n - 1), the lesser of each mask and its complement."""
    return _with_complements(n, [
        (mask, *witness) for mask, witness in enumerate(parallel_map(
            partial(_separation, n=n), range(1 << (1 << n) - 1), threads))
        if witness is not None])


def _with_complements(n: int, leaves: list) -> list:
    """``leaves`` (mask, y, den) and the leaf (full ^ mask, -y, den) of
    each complement, in (cardinality, mask) order: the negated witness
    has the negated margins, none zero."""
    full = (1 << (1 << n)) - 1
    leaves += [(full ^ mask, [-x for x in y], den) for mask, y, den in leaves]
    leaves.sort(key=lambda leaf: (leaf[0].bit_count(), leaf[0]))
    return leaves


#: With --threads > 1 the census is cut into at least this many subtrees
#: per worker, so that uneven subtrees still keep every worker busy.
SUBTREES_PER_WORKER = 16


def _enumerate_arrangement(n: int, threads: int) -> list:
    """Slicings as regions of the arrangement of vertex hyperplanes: the
    leaves (mask, y, den) of positive vertex mask and witness y / den.

    Hyperplanes live in R^(n+1) with coordinates (omega, c); vertex v
    contributes the hyperplane omega.v + c = 0.  Inserting them in index
    order grows a tree of regions (:func:`_children`), whose leaves at
    k = 2^n are the slicings.  Only the root region where vertex 0 is
    negative, one :func:`_split`, is walked; :func:`_with_complements`
    adds the other half, sorted, so the output does not depend on the
    thread count.  With more than one worker the top levels are expanded
    in-process until there are ``SUBTREES_PER_WORKER`` subtrees per
    worker, and one :func:`parallel_map` call walks them (:func:`_subtree`).
    """
    regions = [(0, *_split(n, 0, 0, _Tableau(n + 1)))]
    k = 1
    count = workers(threads)
    wanted = 1 if count == 1 else SUBTREES_PER_WORKER * count
    while len(regions) < wanted and k < 1 << n:
        regions = [child for region in regions
                   for child in _children(n, k, region)]
        k += 1
    return _with_complements(n, [leaf for part in parallel_map(
        _subtree, [(n, k, r) for r in regions], threads) for leaf in part])


def _subtree(args) -> list[tuple[int, list[int], int]]:
    """The leaves (mask, y, den) under ``region`` of hyperplanes 0..k-1,
    with ``args`` = (n, k, region), depth first: the stack holds at most
    two regions, and so two tableaux, per level."""
    n, k, region = args
    leaves, stack = [], [(k, region)]
    while stack:
        k, region = stack.pop()
        if k == 1 << n:
            leaves.append(region[:3])
        else:
            stack += [(k + 1, child) for child in _children(n, k, region)]
    return leaves


def _children(n: int, k: int, region) -> list:
    """The regions of hyperplanes 0..k inside ``region`` of 0..k-1.

    A region is (pos, y, den, lp): the mask of its positive vertices
    among 0..k-1, the witness y / den, and the margin LP of its
    vertices 0..j-1 for some j <= k.  The side of hyperplane k where y
    lies keeps y and the same lp, which :func:`_split` may extend in
    place; each other side is decided by :func:`_split`.
    """
    pos, y, den, lp = region
    plane, _ = _signed_rows(n)[k][1]  # (v_k, 1)
    value = sum(map(mul, plane, y))
    if value:
        children = [(pos | (value > 0) << k, y, den, lp)]
        sides = [value < 0]
    else:
        children, sides = [], [1, 0]
    for side in sides:
        child = pos | side << k
        split = _split(n, k, child, lp)
        if split is not None:
            children.append((child, *split))
    return children


def _split(n: int, k: int, pos: int, lp: _Tableau):
    """The witness (y, den) and tableau of the split ``pos`` of the
    vertices 0..k, or None when it is not separable; its restriction to
    0..k-1 is separable, with margin LP ``lp`` over vertices 0..j-1.

    A parallelogram through k refutes the split without an LP.
    Otherwise ``lp`` takes the rows j..k-1 in place and a copy takes row
    k, so the LP solved is the one :func:`is_slicing` would solve for
    the vertices 0..k, with the same witness; the witness is re-checked
    by its margin at each of those vertices.
    """
    if _refuted_through(pos, k, n):
        return None
    rows = _signed_rows(n)
    while lp.ncon < k:
        lp.add(*rows[lp.ncon][pos >> lp.ncon & 1])
    lp = lp.copy()
    lp.add(*rows[k][pos >> k & 1])
    witness = _rechecked(lp.solve(_box(n + 1)), pos, k, n)
    return None if witness is None else (*witness, lp)


@lru_cache(maxsize=None)
def _census(n: int, strategy: str) -> list:
    """The slot that holds the leaves (mask, y, den) of the census of
    (n, strategy) once it is made, in (cardinality, mask) order, for the
    life of the process; no Slicing is kept.  The census is identical
    for any thread count, so one slot serves all."""
    return []


def _filled_census(n: int, strategy: str, allow_long: bool,
                   threads: int) -> list:
    """The slot of (n, strategy), filled by its enumeration if empty."""
    if strategy not in ("brute", "arrangement"):
        raise ValueError(f"unknown strategy {strategy!r}")
    limit = SLICING_LIMIT_BRUTE if strategy == "brute" \
        else SLICING_LIMIT_ARRANGEMENT
    if n < 1 or n > limit:
        raise ValueError(f"n={n} outside supported range for {strategy}")
    if strategy == "arrangement" and n >= 5 and not allow_long:
        raise ValueError("n=5 enumeration is a long-running mode; "
                         "run it with --allow-long")
    census = _census(n, strategy)
    if not census:
        enumerate_ = _enumerate_brute if strategy == "brute" \
            else _enumerate_arrangement
        census += enumerate_(n, threads)
    return census


def enumerate_slicings(n: int, strategy: str = "arrangement",
                       allow_long: bool = False,
                       threads: int = 1) -> list[Slicing]:
    """All slicings of the n-cube in canonical (cardinality, mask) order.

    Each is built from its census leaf, which re-checks its witness, at
    every call: the census keeps only the leaves.
    """
    return [Slicing(n, *leaf)
            for leaf in _filled_census(n, strategy, allow_long, threads)]


def slicing_count(n: int, strategy: str = "arrangement",
                  allow_long: bool = False, threads: int = 1) -> int:
    """The number of slicings of the n-cube, from the census leaves: a
    count builds no Slicing."""
    return len(_filled_census(n, strategy, allow_long, threads))


def count_zonotope_facets(n: int) -> int:
    """Facets of the threshold-function zonotope in R^(n+1).

    Counts distinct linear hyperplanes spanned by n-subsets of the
    generators (1, v); each contributes an antipodal facet pair.  Once
    a subset's kernel is a line, the generators on its hyperplane are
    found by substitution into the normal, and every n-subset of them is
    skipped: each one spans the same hyperplane or is dependent.  So one
    kernel is computed per hyperplane, plus one per dependent subset
    that no hyperplane found so far contains.
    """
    if n < 1 or n > 4:
        raise ValueError("supported for 1 <= n <= 4")
    gens = [(1,) + vertex_coords(v, n) for v in all_vertices(n)]
    hyperplanes = 0
    done = set()
    for subset in combinations(range(len(gens)), n):
        if subset in done:
            continue
        # n rows span a hyperplane exactly when their kernel is a line
        kernel, _ = integer_kernel(Matrix([gens[i] for i in subset]))
        if len(kernel) == 1:
            hyperplanes += 1
            on = [i for i, g in enumerate(gens)
                  if not sum(map(mul, kernel[0], g))]
            done.update(combinations(on, n))
    return 2 * hyperplanes


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
        ws = ",".join(s.witness_text())
        stream.write(f"n:{s.n} pos:{s.mask:x} w:{ws}\n")


def write_vertex_values(values: Iterable[Fraction], stream: TextIO) -> None:
    """One rational per line, in vertex order: the file
    :func:`read_vertex_values` reads."""
    for x in values:
        stream.write(f"{x}\n")


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
