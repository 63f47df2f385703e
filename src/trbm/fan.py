"""Regular subdivisions of the 3-cube, its secondary fan, and the model subfan.

A lift assigns a rational height to each cube vertex; the induced regular
subdivision collects the touching sets of affine minorants (supporting
hyperplanes from below).  Under this convention an image point of the
one-hidden-node tropical map whose positive set is a corner produces the
corner-cut subdivision: the corner simplex plus the seven remaining
vertices as the second cell.

The secondary fan of the 3-cube is complete in R^8 with a 4-dimensional
lineality space of affine lifts.  Its maximal cones are the 74
triangulations; faces are enumerated per cone by activating subsets of
the folding inequalities, deduplicated across cones by the subdivision
they induce.  Modulo lineality the fan is a polyhedral 3-sphere with
f-vector (22, 100, 152, 74); the cells whose relative interiors map into
the tropical model form a simplicial subcomplex with f-vector
(14, 40, 36, 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .cube import all_vertices, cube_symmetries, vertex_coords
from .linalg import Matrix, qtuple, rank, solve
from .lp import LinearSystem, solve_feasibility
from .tropical import TropicalPoint, tropical_membership, tropical_morphism

Q = Fraction

N = 3
CUBE = list(all_vertices(N))
VOLUME_UNITS = 6  # cube volume in units of 1/6


@dataclass(frozen=True)
class RegularSubdivision:
    n: int
    cells: frozenset[frozenset[int]]
    lift: tuple[Fraction, ...]


@dataclass(frozen=True)
class Triangulation:
    cells: frozenset[frozenset[int]]

    def sorted_cells(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(c)) for c in self.cells)


def tet_volume_units(cell: Iterable[int]) -> int:
    """Tetrahedron volume in units of 1/6 of the cube volume."""
    vs = [vertex_coords(v, N) for v in cell]
    rows = [[vs[i][j] - vs[0][j] for j in range(N)] for i in range(1, 4)]
    det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
           - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
           + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
    return abs(det)


def regular_subdivision_from_lift(w, n: int = N) -> RegularSubdivision:
    """Subdivision induced by lifting vertex v to height w[v].

    A vertex set is a cell when some affine function touches the lift
    exactly there and stays weakly below it everywhere else; maximal
    touching sets are returned.
    """
    if isinstance(w, TropicalPoint):
        w = w.values
    heights = qtuple(w)
    if len(heights) != 1 << n:
        raise ValueError("expected one height per vertex")
    verts = list(all_vertices(n))
    touching: set[frozenset[int]] = set()
    for subset in combinations(verts, n + 1):
        m = Matrix([list(vertex_coords(v, n)) + [1] for v in subset])
        if rank(m) != n + 1:
            continue
        alpha = solve(m, [heights[v] for v in subset])
        values = [sum((alpha[j] * x for j, x in
                       enumerate(vertex_coords(v, n))), alpha[n])
                  for v in verts]
        if any(values[v] > heights[v] for v in verts):
            continue
        touching.add(frozenset(v for v in verts
                               if values[v] == heights[v]))
    cells = {t for t in touching
             if not any(t < other for other in touching)}
    return RegularSubdivision(n, frozenset(cells), heights)


def refines(fine: frozenset[frozenset[int]],
            coarse: frozenset[frozenset[int]]) -> bool:
    """Every cell of ``fine`` sits inside a cell of ``coarse``."""
    return all(any(c <= d for d in coarse) for c in fine)


def _candidate_tets() -> list[frozenset[int]]:
    tets = [frozenset(c) for c in combinations(CUBE, 4)
            if tet_volume_units(c) > 0]
    return sorted(tets, key=lambda t: tuple(sorted(t)))


def _face_to_face(a: frozenset[int], b: frozenset[int]) -> bool:
    """conv(a) and conv(b) intersect exactly in the common face conv(a & b).

    Checked by asking, for every vertex outside the shared set, whether a
    common point can put positive barycentric weight on it.
    """
    shared = a & b
    va, vb = sorted(a), sorted(b)
    base_eq = []
    for x in range(N):
        base_eq.append([vertex_coords(u, N)[x] for u in va]
                       + [-vertex_coords(u, N)[x] for u in vb] + [0])
    base_eq.append([1] * 4 + [0] * 4 + [-1])
    base_eq.append([0] * 4 + [1] * 4 + [-1])
    nonneg = [[int(i == j) for j in range(9)] for i in range(8)]
    for side, order in ((0, va), (4, vb)):
        for pos, u in enumerate(order):
            if u in shared:
                continue
            pick = [int(j == side + pos) for j in range(9)]
            system = LinearSystem.build(8, strict=[pick], weak=nonneg,
                                        eq=base_eq)
            if solve_feasibility(system) is not None:
                return False
    return True


@lru_cache(maxsize=1)
def enumerate_triangulations_3cube() -> tuple[Triangulation, ...]:
    """All triangulations of the 3-cube by exact backtracking.

    Candidates are the 58 nondegenerate vertex tetrahedra; partial
    selections stay pairwise face-to-face and stop exactly at full
    volume.  Every result is verified regular downstream.
    """
    tets = _candidate_tets()
    volumes = [tet_volume_units(t) for t in tets]
    m = len(tets)
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if _face_to_face(tets[i], tets[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    vertex_bits = [sum(1 << v for v in t) for t in tets]
    found: list[Triangulation] = []

    def extend(chosen: list[int], allowed: int, covered: int, volume: int):
        if volume == VOLUME_UNITS:
            found.append(Triangulation(frozenset(tets[i] for i in chosen)))
            return
        remaining = allowed
        reach = covered
        count = 0
        while remaining:
            low = remaining & -remaining
            reach |= vertex_bits[low.bit_length() - 1]
            count += 1
            remaining &= remaining - 1
        if reach != (1 << len(CUBE)) - 1 or volume + 2 * count < VOLUME_UNITS:
            return
        remaining = allowed
        while remaining:
            low = remaining & -remaining
            i = low.bit_length() - 1
            remaining &= remaining - 1
            if volume + volumes[i] <= VOLUME_UNITS:
                extend(chosen + [i],
                       allowed & compat[i] & ~((1 << (i + 1)) - 1),
                       covered | vertex_bits[i], volume + volumes[i])

    extend([], (1 << m) - 1, 0, 0)
    return tuple(found)


def _barycentric(cell: Sequence[int], target: int) -> list[Fraction]:
    m = Matrix([[*vertex_coords(v, N), 1] for v in cell]).transpose()
    coeffs = solve(m, [*vertex_coords(target, N), 1])
    if coeffs is None:
        raise AssertionError("degenerate cell in a triangulation")
    return coeffs


def fold_inequalities(t: Triangulation) -> list[tuple[Fraction, ...]]:
    """One linear functional per interior wall, positive on the open cone.

    For adjacent cells sharing a triangle, the lift must break upward at
    the opposite vertex relative to the affine extension of the
    neighboring cell (minorant convention), giving
    fold(w) = w_e - sum(beta_x w_x) with beta the barycentric expression
    of e in the neighbor.
    """
    cells = t.sorted_cells()
    folds = []
    for a, b in combinations(cells, 2):
        shared = set(a) & set(b)
        if len(shared) != 3:
            continue
        e = next(iter(set(b) - shared))
        beta = _barycentric(a, e)
        row = [Q(0)] * len(CUBE)
        row[e] = Q(1)
        for coeff, x in zip(beta, a):
            row[x] -= coeff
        folds.append(tuple(row))
    return folds


def regularity_witness(t: Triangulation) -> Optional[tuple[Fraction, ...]]:
    """A lift inducing exactly t, or None when t is not regular."""
    folds = fold_inequalities(t)
    witness = solve_feasibility(
        LinearSystem.build(len(CUBE), strict=[f + (0,) for f in folds]))
    return witness


@dataclass(frozen=True)
class FanFace:
    """One cell of the secondary fan, identified by its subdivision."""

    subdivision: frozenset[frozenset[int]]
    quotient_dim: int          # dimension on the sphere side: cone dim - 4
    point: tuple[Fraction, ...]  # relative interior lift


@lru_cache(maxsize=1)
def secondary_fan_faces() -> tuple[FanFace, ...]:
    """Every face of the secondary fan, from subsets of fold inequalities.

    For each triangulation cone and each subset J of its walls, a
    strictly feasible point with the J-folds vanishing and the others
    positive exhibits a face; faces repeat across cones and are merged by
    their subdivisions.  The trivial subdivision (the lineality space)
    appears with quotient dimension 0.
    """
    lineality = 4
    faces: dict[frozenset[frozenset[int]], FanFace] = {}
    for t in enumerate_triangulations_3cube():
        folds = fold_inequalities(t)
        witness = regularity_witness(t)
        if witness is None:
            raise AssertionError("non-regular triangulation of the 3-cube")
        sub = regular_subdivision_from_lift(witness)
        if sub.cells != t.cells:
            raise AssertionError("fold inequalities disagree with the "
                                 "induced subdivision")
        for size in range(len(folds) + 1):
            for subset in combinations(range(len(folds)), size):
                point = _face_point(folds, subset)
                if point is None:
                    continue
                sub = regular_subdivision_from_lift(point)
                dim = (len(CUBE)
                       - rank(Matrix([folds[j] for j in subset]))
                       if subset else len(CUBE))
                face = FanFace(sub.cells, dim - lineality, point)
                prev = faces.get(sub.cells)
                if prev is None:
                    faces[sub.cells] = face
                elif prev.quotient_dim != face.quotient_dim:
                    raise AssertionError("inconsistent face dimension")
    return tuple(sorted(faces.values(),
                        key=lambda f: (f.quotient_dim,
                                       sorted(sorted(c) for c in
                                              f.subdivision))))


def _face_point(folds, active) -> Optional[tuple[Fraction, ...]]:
    active = set(active)
    eq = [folds[j] + (0,) for j in sorted(active)]
    strict = [folds[j] + (0,) for j in range(len(folds))
              if j not in active]
    if not strict:
        # every wall folded flat: the lineality space itself
        return tuple(Q(0) for _ in CUBE)
    return solve_feasibility(
        LinearSystem.build(len(CUBE), strict=strict, eq=eq))


def lineality_dimension() -> int:
    t = enumerate_triangulations_3cube()[0]
    return len(CUBE) - rank(Matrix(fold_inequalities(t)))


def secondary_sphere_fvector() -> tuple[int, int, int, int]:
    """Cells of the secondary sphere by dimension 0..3."""
    counts = [0, 0, 0, 0]
    for face in secondary_fan_faces():
        if face.quotient_dim >= 1:
            counts[face.quotient_dim - 1] += 1
    return tuple(counts)


@dataclass(frozen=True)
class SimplicialComplexData:
    """Vertex labels plus faces listed by dimension, closed under subsets."""

    vertex_labels: tuple[str, ...]
    faces_by_dim: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        seen = set()
        for d, faces in enumerate(self.faces_by_dim):
            for f in faces:
                if len(f) != d + 1 or list(f) != sorted(set(f)):
                    raise ValueError("malformed face")
                if f in seen:
                    raise ValueError("duplicate face")
                seen.add(f)
                if d > 0:
                    for sub in combinations(f, d):
                        if sub not in seen:
                            raise ValueError("not closed under subsets")

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(faces) for faces in self.faces_by_dim)


@lru_cache(maxsize=1)
def model_fan() -> tuple[tuple[FanFace, ...], dict]:
    """Faces of the sphere whose relative interiors lie in the model.

    Membership of each face is decided at its relative interior point;
    the kept set must be closed under taking faces and simplicial with
    respect to the kept rays.
    """
    faces = [f for f in secondary_fan_faces() if f.quotient_dim >= 1]
    kept: list[FanFace] = []
    results = {}
    for face in faces:
        res = tropical_membership(TropicalPoint(N, face.point))
        if res.member:
            kept.append(face)
            results[face.subdivision] = res
    kept_keys = {f.subdivision for f in kept}
    for face in kept:
        for other in faces:
            if other.quotient_dim < face.quotient_dim \
                    and refines(face.subdivision, other.subdivision) \
                    and other.subdivision not in kept_keys:
                raise AssertionError("model faces are not closed under "
                                     "taking faces")
    return tuple(kept), results


def _ray_labels(rays: Sequence[FanFace]) -> list[str]:
    """Labels for pre-sorted rays: V<apex> for corner cuts, D<i> for diagonals."""
    labels = []
    diag = 0
    for ray in rays:
        sizes = sorted(len(c) for c in ray.subdivision)
        if sizes == [4, 7]:
            big = max(ray.subdivision, key=len)
            apex = next(v for v in CUBE if v not in big)
            labels.append(f"V{apex}")
        elif sizes == [6, 6]:
            labels.append(f"D{diag}")
            diag += 1
        else:
            raise AssertionError("unexpected ray type in the model")
    return labels


@lru_cache(maxsize=1)
def tm13_subcomplex() -> SimplicialComplexData:
    """The model subcomplex of the secondary sphere, as labeled simplices.

    Vertices split into corner cuts (V, one per cube vertex) and diagonal
    cuts (D); faces of each dimension are the kept sphere cells written
    on their incident rays.
    """
    kept, _ = model_fan()
    rays = [f for f in kept if f.quotient_dim == 1]
    order = sorted(range(len(rays)),
                   key=lambda i: sorted(sorted(c)
                                        for c in rays[i].subdivision))
    rays = [rays[i] for i in order]
    labels = _ray_labels(rays)
    relabel = sorted(range(len(labels)), key=lambda i: labels[i])
    rays = [rays[i] for i in relabel]
    labels = [labels[i] for i in relabel]

    faces_by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(4)]
    seen = set()
    for face in kept:
        incident = tuple(i for i, r in enumerate(rays)
                         if refines(face.subdivision, r.subdivision))
        if len(incident) != face.quotient_dim:
            raise AssertionError("kept face is not a simplex on its rays")
        if incident in seen:
            raise AssertionError("distinct faces share a ray set")
        seen.add(incident)
        faces_by_dim[face.quotient_dim - 1].append(incident)
    return SimplicialComplexData(
        tuple(labels),
        tuple(tuple(sorted(fs)) for fs in faces_by_dim))


def model_roundtrip_points() -> list[tuple[TropicalPoint, TropicalPoint]]:
    """Pairs (face point, image of the recovered parameters) for checking."""
    kept, results = model_fan()
    pairs = []
    for face in kept:
        res = results[face.subdivision]
        image = tropical_morphism(res.params())
        shifted = TropicalPoint.build(
            N, [x + res.shift for x in image.values])
        pairs.append((TropicalPoint(N, face.point), shifted))
    return pairs


def facet_orbit_is_single(complex_faces: Sequence[frozenset[frozenset[int]]]
                          ) -> bool:
    """All given triangulations related by cube symmetries."""
    if not complex_faces:
        return True
    symmetries = cube_symmetries(N)
    base = complex_faces[0]
    orbit = set()
    for sym in symmetries:
        orbit.add(frozenset(frozenset(sym[v] for v in cell)
                            for cell in base))
    return all(t in orbit for t in complex_faces)


def model_facet_subdivisions() -> list[frozenset[frozenset[int]]]:
    kept, _ = model_fan()
    return [f.subdivision for f in kept if f.quotient_dim == 4]


def reduced_homology_ranks(c: SimplicialComplexData) -> tuple[int, ...]:
    """Ranks of reduced rational homology in each degree present."""
    dims = len(c.faces_by_dim)
    while dims > 0 and not c.faces_by_dim[dims - 1]:
        dims -= 1
    if dims == 0:
        return ()
    counts = [len(c.faces_by_dim[d]) for d in range(dims)]
    boundary_ranks = []
    for d in range(1, dims):
        if not c.faces_by_dim[d]:
            boundary_ranks.append(0)
            continue
        index = {f: i for i, f in enumerate(c.faces_by_dim[d - 1])}
        rows = [[Q(0)] * counts[d] for _ in range(counts[d - 1])]
        for col, face in enumerate(c.faces_by_dim[d]):
            for i in range(len(face)):
                sub = face[:i] + face[i + 1:]
                rows[index[sub]][col] = Q((-1) ** i)
        boundary_ranks.append(rank(Matrix(rows)))
    boundary_ranks.append(0)
    ranks = []
    for d in range(dims):
        kernel = counts[d] - (1 if d == 0 else boundary_ranks[d - 1])
        ranks.append(kernel - boundary_ranks[d])
    return tuple(ranks)


def complex_to_json(c: SimplicialComplexData) -> dict:
    return {
        "vertices": [{"label": label, "class": label[0]}
                     for label in c.vertex_labels],
        "faces_by_dim": [[list(f) for f in faces]
                         for faces in c.faces_by_dim],
    }


def triangulation_lines(t: Triangulation) -> list[str]:
    return [" ".join(str(v) for v in cell) for cell in t.sorted_cells()]
