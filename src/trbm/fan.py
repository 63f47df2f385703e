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
from operator import mul
from typing import Optional, Sequence

from .cube import all_vertices, vertex_coords
from .linalg import Matrix, _eliminate, _int_rows, qtuple, rank
from .lp import LinearSystem, solve_feasibility
from .tropical import TropicalPoint, tropical_membership

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


@lru_cache(maxsize=None)
def _lift_evaluators(n: int) -> tuple[tuple, ...]:
    """Integer minorant tests of the n-cube: ``(S, d, lambdas)`` for each
    affine basis S, in lexicographic order, with ``lambdas[u]`` the
    numerators of vertex u.

    For each affinely independent (n + 1)-subset S, one Gauss-Jordan
    elimination of ``[M_S^T | all vertices]`` (M_S has the rows (s, 1))
    gives a divisor d and, for every vertex u, the Cramer numerators
    lambda(u) with sum_i lambda_i(u) (s_i, 1) = d (u, 1).  The affine
    function through the lift on S then takes the value
    sum_i lambda_i(u) h(s_i) / d at u.  The sign of d is moved into the
    numerators, so d > 0; it is the last fraction-free pivot, so
    d = |det M_S|, n! times the volume of the simplex S.  Each lambda(u)
    is checked by substitution.
    """
    points = [vertex_coords(v, n) + (1,) for v in all_vertices(n)]
    table = []
    for subset in combinations(all_vertices(n), n + 1):
        a = [[points[s][i] for s in subset] + [p[i] for p in points]
             for i in range(n + 1)]
        pivots, d = _eliminate(a, n + 1, jordan=True)
        if len(pivots) != n + 1:
            continue  # S is affinely dependent
        sign = 1 if d > 0 else -1
        lams = tuple(tuple(sign * row[n + 1 + u] for row in a)
                     for u in range(len(points)))
        for lam, p in zip(lams, points):
            if any(sum(li * points[s][i] for li, s in zip(lam, subset))
                   != sign * d * p[i] for i in range(n + 1)):
                raise AssertionError(f"Cramer numerators of {subset} "
                                     "failed re-validation")
        table.append((subset, sign * d, lams))
    return tuple(table)


def regular_subdivision_from_lift(w) -> RegularSubdivision:
    """Subdivision induced by lifting vertex v of the 3-cube to height w[v].

    A vertex set is a cell when some affine function touches the lift
    exactly there and stays weakly below it everywhere else; maximal
    touching sets are returned.  Each candidate affine function is the
    one through the lift on an affine basis S (:func:`_lift_evaluators`).
    With the heights scaled to integers h, it exceeds the lift at u
    exactly when d h(u) - sum_i lambda_i(u) h(s_i) < 0, and touches it
    exactly when that value is 0.
    """
    if isinstance(w, TropicalPoint):
        w = w.values
    heights = qtuple(w)
    if len(heights) != len(CUBE):
        raise ValueError("expected one height per vertex")
    [h] = _int_rows([heights])
    touching: set[frozenset[int]] = set()
    for subset, d, lams in _lift_evaluators(N):
        hs = [h[s] for s in subset]
        touched = []
        for u, lam in enumerate(lams):
            gap = d * h[u] - sum(map(mul, lam, hs))
            if gap < 0:
                break
            if gap == 0:
                touched.append(u)
        else:
            touching.add(frozenset(touched))
    cells = {t for t in touching
             if not any(t < other for other in touching)}
    return RegularSubdivision(N, frozenset(cells), heights)


def refines(fine: frozenset[frozenset[int]],
            coarse: frozenset[frozenset[int]]) -> bool:
    """Every cell of ``fine`` sits inside a cell of ``coarse``."""
    return all(any(c <= d for d in coarse) for c in fine)


@lru_cache(maxsize=None)
def _signed_circuits(n: int) -> tuple[tuple[int, int], ...]:
    """Signed circuits (Z+, Z-) of the n-cube's vertices as vertex masks,
    both orientations, read off :func:`_lift_evaluators`: for an affine
    basis S and a vertex u outside it, the checked Cramer numerators give
    sum_i lambda_i(u) (s_i, 1) - d (u, 1) = 0 with d > 0, the one
    dependence on S + u, whose support is a circuit: Z+ the s_i with
    lambda_i > 0, Z- the s_i with lambda_i < 0 and u.  Every circuit Z
    arises so: for u in Z the independent Z - u extends to a basis without u.
    """
    circuits = set()
    for subset, _, lams in _lift_evaluators(n):
        for u, lam in enumerate(lams):
            if u not in subset:
                plus = sum(1 << s for li, s in zip(lam, subset) if li > 0)
                minus = sum(1 << s for li, s in zip(lam, subset) if li < 0)
                circuits |= {(plus, minus | 1 << u), (minus | 1 << u, plus)}
    return tuple(sorted(circuits))


def _meet_properly(am: int, bm: int) -> bool:
    """conv(a) and conv(b) intersect exactly in the common face conv(a & b),
    for the vertex sets a and b given as the masks ``am`` and ``bm``.

    For simplices a and b this fails exactly when some signed circuit has
    Z+ inside a and Z- inside b (De Loera, Rambau, Santos,
    *Triangulations*, 2010, ch. 4): its dependence, normalized, is a
    common point whose barycentric weights use a vertex outside a & b.
    """
    return not any(plus & am == plus and minus & bm == minus
                   for plus, minus in _signed_circuits(N))


@lru_cache(maxsize=1)
def enumerate_triangulations_3cube() -> tuple[Triangulation, ...]:
    """All triangulations of the 3-cube by exact backtracking.

    Candidates are the 58 affine bases of :func:`_lift_evaluators`, each
    with its divisor d as its volume in units of 1/6; partial selections
    stay pairwise face-to-face and stop exactly at full volume.  Every
    result is verified regular downstream.
    """
    tets = [frozenset(s) for s, _, _ in _lift_evaluators(N)]
    volumes = [d for _, d, _ in _lift_evaluators(N)]
    vertex_bits = [sum(1 << v for v in t) for t in tets]
    m = len(tets)
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if _meet_properly(vertex_bits[i], vertex_bits[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
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


def fold_inequalities(t: Triangulation) -> list[tuple[Fraction, ...]]:
    """One linear functional per interior wall, positive on the open cone.

    For adjacent cells sharing a triangle, the lift must break upward at
    the opposite vertex relative to the affine extension of the
    neighboring cell (minorant convention), giving
    fold(w) = w_e - sum(beta_x w_x) with beta the barycentric expression
    of e in the neighbor, read off the neighbor's Cramer numerators
    (:func:`_lift_evaluators`) as beta = lambda(e) / d.
    """
    evaluators = {s: (d, lams) for s, d, lams in _lift_evaluators(N)}
    cells = t.sorted_cells()
    folds = []
    for a, b in combinations(cells, 2):
        shared = set(a) & set(b)
        if len(shared) != 3:
            continue
        e = next(iter(set(b) - shared))
        d, lams = evaluators[a]
        row = [0] * len(CUBE)
        row[e] = d
        for coeff, x in zip(lams[e], a):
            row[x] -= coeff
        folds.append(tuple(Q(x, d) for x in row))
    return folds


def regularity_witness(t: Triangulation) -> Optional[tuple[Fraction, ...]]:
    """A lift inducing exactly t, or None when t is not regular: a point
    with every fold positive."""
    return _face_point(fold_inequalities(t), ())


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
    appears with quotient dimension 0.  The point of the empty subset is
    the cone's regularity witness, checked to induce the triangulation.
    """
    lineality = 4
    faces: dict[frozenset[frozenset[int]], FanFace] = {}
    for t in enumerate_triangulations_3cube():
        folds = fold_inequalities(t)
        for size in range(len(folds) + 1):
            for subset in combinations(range(len(folds)), size):
                point = _face_point(folds, subset)
                if point is None:
                    if not subset:
                        raise AssertionError("non-regular triangulation "
                                             "of the 3-cube")
                    continue
                sub = regular_subdivision_from_lift(point)
                if not subset and sub.cells != t.cells:
                    raise AssertionError("fold inequalities disagree with "
                                         "the induced subdivision")
                dim = len(CUBE) - rank(Matrix([folds[j] for j in subset]))
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
    # with every wall folded flat no strict row is left, and the solver
    # returns the apex 0 of the lineality space
    active = set(active)
    eq = [folds[j] + (0,) for j in sorted(active)]
    strict = [folds[j] + (0,) for j in range(len(folds))
              if j not in active]
    return solve_feasibility(
        LinearSystem.build(len(CUBE), strict=strict, eq=eq))


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
                if f[0] < 0 or f[-1] >= len(self.vertex_labels):
                    raise ValueError(f"face {list(f)} names a vertex "
                                     "outside the vertex list")
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


def reduced_homology_ranks(c: SimplicialComplexData) -> tuple[int, ...]:
    """Ranks of reduced rational homology in each degree present."""
    dims = len(c.faces_by_dim)
    while dims > 0 and not c.faces_by_dim[dims - 1]:
        dims -= 1
    if dims == 0:
        return ()
    counts = [len(c.faces_by_dim[d]) for d in range(dims)]
    boundary_ranks = []
    for d in range(1, dims):  # closure leaves no dimension below dims empty
        index = {f: i for i, f in enumerate(c.faces_by_dim[d - 1])}
        rows = [[0] * counts[d] for _ in range(counts[d - 1])]
        for col, face in enumerate(c.faces_by_dim[d]):
            for i in range(len(face)):
                sub = face[:i] + face[i + 1:]
                rows[index[sub]][col] = (-1) ** i
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


def complex_from_json(doc) -> SimplicialComplexData:
    """The complex of a document in the shape :func:`complex_to_json`
    writes; a document of another shape raises ValueError."""
    if not (isinstance(doc, dict) and isinstance(doc.get("vertices"), list)
            and isinstance(doc.get("faces_by_dim"), list)):
        raise ValueError("a complex is an object with the lists "
                         "'vertices' and 'faces_by_dim'")
    if not all(isinstance(v, dict) and isinstance(v.get("label"), str)
               for v in doc["vertices"]):
        raise ValueError("each complex vertex needs a string 'label'")
    if not all(isinstance(faces, list) and all(
            isinstance(f, list) and all(type(x) is int for x in f)
            for f in faces) for faces in doc["faces_by_dim"]):
        raise ValueError("'faces_by_dim' needs a list of faces per "
                         "dimension, each face a list of vertex indices")
    return SimplicialComplexData(
        tuple(v["label"] for v in doc["vertices"]),
        tuple(tuple(tuple(f) for f in faces)
              for faces in doc["faces_by_dim"]))


def triangulation_lines(t: Triangulation) -> list[str]:
    return [" ".join(str(v) for v in cell) for cell in t.sorted_cells()]
