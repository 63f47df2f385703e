from collections import Counter
from fractions import Fraction as Q
from itertools import combinations
from random import Random

import pytest

from trbm import fan
from trbm.cube import all_vertices, cube_symmetries, vertex_coords
from trbm.fan import (CUBE, N, SimplicialComplexData,
                      enumerate_triangulations_3cube, fold_inequalities,
                      model_fan, reduced_homology_ranks,
                      regular_subdivision_from_lift,
                      regularity_witness, secondary_fan_faces,
                      secondary_sphere_fvector, tm13_subcomplex,
                      complex_to_json, triangulation_lines)
from trbm.linalg import Matrix, integer_kernel, qtuple, rank, solve
from trbm.lp import LinearSystem, solve_feasibility
from trbm.tropical import (TropicalPoint, TropParams, tropical_membership,
                           tropical_morphism)


def tet_volume_units(cell) -> int:
    """Oracle: tetrahedron volume in units of 1/6 of the cube volume, from
    the 3 x 3 determinant of its edge vectors."""
    vs = [vertex_coords(v, N) for v in cell]
    rows = [[vs[i][j] - vs[0][j] for j in range(N)] for i in range(1, 4)]
    det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
           - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
           + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
    return abs(det)


def candidate_tets() -> list[frozenset[int]]:
    """Oracle: the vertex tetrahedra of nonzero volume, in lexicographic
    order."""
    return [frozenset(c) for c in combinations(CUBE, 4)
            if tet_volume_units(c) > 0]


def rank_solve_subdivision(w, n=3):
    """Oracle: cells from a rank test and a solve on every vertex
    (n + 1)-subset, with the minorant test evaluated in Fractions."""
    heights = qtuple(w)
    verts = list(all_vertices(n))
    touching = set()
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
    return frozenset(t for t in touching
                     if not any(t < other for other in touching))


def kernel_signed_circuits(n):
    """Oracle: the signed circuits of the n-cube from one integer kernel per
    vertex subset of at most n + 2 points: a subset is a circuit when its
    columns (v, 1) have a one-vector kernel with full support."""
    points = [vertex_coords(v, n) + (1,) for v in all_vertices(n)]
    circuits = set()
    for size in range(2, n + 3):
        for subset in combinations(all_vertices(n), size):
            kernel, _ = integer_kernel(Matrix(
                [[points[v][i] for v in subset] for i in range(n + 1)]))
            if len(kernel) != 1 or not all(kernel[0]):
                continue
            lam = kernel[0]
            assert not any(sum(li * points[v][i] for li, v in zip(lam, subset))
                           for i in range(n + 1))
            plus = sum(1 << v for li, v in zip(lam, subset) if li > 0)
            minus = sum(1 << v for li, v in zip(lam, subset) if li < 0)
            circuits |= {(plus, minus), (minus, plus)}
    return circuits


def lp_face_to_face(a, b):
    """Oracle: conv(a) and conv(b) meet in conv(a & b), decided by one LP
    per vertex outside the shared set (can a common point put positive
    barycentric weight on it?)."""
    shared = a & b
    va, vb = sorted(a), sorted(b)
    base_eq = []
    for x in range(3):
        base_eq.append([vertex_coords(u, 3)[x] for u in va]
                       + [-vertex_coords(u, 3)[x] for u in vb] + [0])
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


def test_trivial_subdivision():
    sub = regular_subdivision_from_lift([0] * 8)
    assert sub.cells == frozenset({frozenset(range(8))})
    with pytest.raises(ValueError, match="one height per vertex"):
        regular_subdivision_from_lift([0] * 3)


def test_corner_cut_subdivision():
    # spike at the origin vertex: corner simplex plus the other seven
    sub = regular_subdivision_from_lift([Q(1, 2), 0, 0, 0, 0, 0, 0, 0])
    assert sorted(sorted(c) for c in sub.cells) \
        == [[0, 1, 2, 4], [1, 2, 3, 4, 5, 6, 7]]


def test_corner_cut_from_morphism():
    q = tropical_morphism(
        TropParams.build([[-1, -1, -1]], [0, 0, 0], [Q(1, 2)]))
    sub = regular_subdivision_from_lift(q)
    sizes = sorted(len(c) for c in sub.cells)
    assert sizes == [4, 7]


def test_diagonal_cut_subdivision():
    q = tropical_morphism(TropParams.build([[1, -1, 0]], [0, 0, 0], [0]))
    sub = regular_subdivision_from_lift(q)
    assert sorted(len(c) for c in sub.cells) == [6, 6]


def test_generic_lift_triangulates():
    rng = Random(5)
    for _ in range(5):
        sub = regular_subdivision_from_lift(
            [rng.randint(0, 10 ** 6) for _ in range(8)])
        assert all(len(c) == 4 for c in sub.cells)
        assert sum(tet_volume_units(c) for c in sub.cells) == 6


def test_triangulation_census():
    tris = enumerate_triangulations_3cube()
    assert len(tris) == 74
    assert {len(t.cells) for t in tris} == {5, 6}
    for t in tris:
        assert sum(tet_volume_units(c) for c in t.cells) == 6


def test_all_triangulations_regular():
    for t in enumerate_triangulations_3cube():
        witness = regularity_witness(t)
        assert witness is not None
        assert regular_subdivision_from_lift(witness).cells == t.cells


def test_wall_counts():
    for t in enumerate_triangulations_3cube():
        folds = fold_inequalities(t)
        assert len(folds) == {5: 4, 6: 6}[len(t.cells)]


def lineality_dimension() -> int:
    t = enumerate_triangulations_3cube()[0]
    return len(CUBE) - rank(Matrix(fold_inequalities(t)))


def test_lineality_dimension():
    assert lineality_dimension() == 4


def test_sphere_fvector():
    fv = secondary_sphere_fvector()
    assert fv == (22, 100, 152, 74)
    assert fv[0] - fv[1] + fv[2] - fv[3] == 0


def test_model_subcomplex_fvector():
    assert tm13_subcomplex().f_vector() == (14, 40, 36, 12)


def test_model_vertex_classes():
    labels = tm13_subcomplex().vertex_labels
    assert sum(1 for s in labels if s.startswith("D")) == 6
    assert sum(1 for s in labels if s.startswith("V")) == 8
    assert sorted(labels) == list(labels)


def test_model_edge_census():
    c = tm13_subcomplex()
    kinds = {"VV": 0, "DV": 0, "DD": 0}
    for e in c.faces_by_dim[1]:
        key = "".join(sorted(c.vertex_labels[i][0] for i in e))
        kinds[key] += 1
    assert kinds == {"VV": 4, "DV": 24, "DD": 12}


def model_roundtrip_points() -> list[tuple[TropicalPoint, TropicalPoint]]:
    """Pairs (face point, image of the recovered parameters) for checking."""
    pairs = []
    for face in model_fan():
        res = tropical_membership(TropicalPoint(N, face.point))
        image = tropical_morphism(res.params())
        shifted = TropicalPoint.build(
            N, [x + res.shift for x in image.values])
        pairs.append((TropicalPoint(N, face.point), shifted))
    return pairs


def facet_orbit_is_single(complex_faces) -> bool:
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
    return [f.subdivision for f in model_fan() if f.quotient_dim == 4]


def test_model_facets_single_orbit():
    facets = model_facet_subdivisions()
    assert len(facets) == 12
    assert facet_orbit_is_single(facets)


def test_model_roundtrip():
    pairs = model_roundtrip_points()
    assert len(pairs) == 14 + 40 + 36 + 12
    for point, image in pairs:
        assert point == image


def test_model_homology():
    assert reduced_homology_ranks(tm13_subcomplex()) == (0, 3, 0, 0)


def test_model_euler_characteristic():
    fv = tm13_subcomplex().f_vector()
    assert fv[0] - fv[1] + fv[2] - fv[3] == -2


def test_homology_tetrahedron_boundary():
    verts = tuple("abcd")
    faces = [tuple(sorted(f)) for f in
             [(0,), (1,), (2,), (3,)]]
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    triangles = [(i, j, k) for i in range(4) for j in range(i + 1, 4)
                 for k in range(j + 1, 4)]
    c = SimplicialComplexData(verts, (tuple(faces), tuple(edges),
                                      tuple(triangles)))
    assert reduced_homology_ranks(c) == (0, 0, 1)


def test_homology_single_point():
    c = SimplicialComplexData(("a",), (((0,),),))
    assert reduced_homology_ranks(c) == (0,)


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplexData(("a", "b"), (((0,),), (((0, 1)),)))


def test_complex_export_shape():
    doc = complex_to_json(tm13_subcomplex())
    assert len(doc["vertices"]) == 14
    assert all(v["class"] in ("D", "V") for v in doc["vertices"])
    assert [len(fs) for fs in doc["faces_by_dim"]] == [14, 40, 36, 12]


def test_triangulation_export_lines():
    t = enumerate_triangulations_3cube()[0]
    lines = triangulation_lines(t)
    assert len(lines) == len(t.cells)
    assert all(len(line.split()) == 4 for line in lines)


def test_volume_units():
    assert tet_volume_units({0, 1, 2, 4}) == 1
    assert tet_volume_units({1, 2, 4, 7}) == 2


def test_affine_bases_are_the_tetrahedra_with_their_volumes():
    # the triangulation search reads its candidates and their volumes
    # off the affine-basis table
    table = fan._lift_evaluators(N)
    assert [frozenset(s) for s, _, _ in table] == candidate_tets()
    assert len(table) == 58
    assert all(d == tet_volume_units(s) for s, d, _ in table)


def test_subdivision_matches_rank_solve_oracle_on_witnesses():
    for t in enumerate_triangulations_3cube():
        witness = regularity_witness(t)
        assert regular_subdivision_from_lift(witness).cells \
            == rank_solve_subdivision(witness) == t.cells


def test_subdivision_matches_rank_solve_oracle_on_face_lifts():
    # the relative-interior lifts secondary_fan_faces evaluates, one per
    # feasible subset of each triangulation's walls
    lifts = []
    for t in enumerate_triangulations_3cube():
        folds = fold_inequalities(t)
        for size in range(len(folds) + 1):
            for subset in combinations(range(len(folds)), size):
                point = fan._face_point(folds, subset)
                if point is not None:
                    lifts.append(point)
    assert len(lifts) == 1208
    faces = {f.subdivision for f in secondary_fan_faces()}
    for w in Random(6).sample(lifts, 300):
        cells = regular_subdivision_from_lift(w).cells
        assert cells == rank_solve_subdivision(w)
        assert cells in faces


def test_subdivision_matches_rank_solve_oracle_on_lifts_with_ties():
    rng = Random(11)
    coarse = 0
    for _ in range(100):
        w = [Q(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(8)]
        cells = regular_subdivision_from_lift(w).cells
        assert cells == rank_solve_subdivision(w)
        coarse += any(len(c) > 4 for c in cells)
    assert coarse > 30  # ties leave cells that are not simplices


def test_signed_circuits_of_the_cube():
    # 12 planar quadruples a + b = c + d, and 8 five-point circuits: a
    # regular tetrahedron against its center reached from a fifth vertex
    circuits = fan._signed_circuits(3)
    sizes = Counter((bin(p).count("1"), bin(m).count("1"))
                    for p, m in circuits)
    assert sizes == {(2, 2): 24, (2, 3): 8, (3, 2): 8}
    assert all((m, p) in circuits for p, m in circuits)


@pytest.mark.parametrize("n, count", [(2, 2), (3, 40)])
def test_signed_circuits_match_the_kernel_oracle(n, count):
    circuits = fan._signed_circuits(n)
    assert len(circuits) == len(set(circuits)) == count
    assert set(circuits) == kernel_signed_circuits(n)


def test_circuit_criterion_matches_lp_oracle_on_all_pairs():
    pairs = list(combinations(candidate_tets(), 2))
    assert len(pairs) == 1653
    proper = 0
    for a, b in pairs:
        am, bm = sum(1 << v for v in a), sum(1 << v for v in b)
        meet = fan._meet_properly(am, bm)
        assert meet == fan._meet_properly(bm, am) == lp_face_to_face(a, b)
        proper += meet
    assert 0 < proper < len(pairs)


def test_corrupted_circuit_fails_revalidation(monkeypatch):
    # a circuit is read off a Cramer numerator, so a corrupted elimination
    # is caught by the table's check before it can become a circuit
    real = fan._eliminate

    def corrupted(a, ncols, jordan):
        result = real(a, ncols, jordan)
        a[0][-1] += 1
        return result

    fan._lift_evaluators.cache_clear()
    fan._signed_circuits.cache_clear()
    monkeypatch.setattr(fan, "_eliminate", corrupted)
    try:
        with pytest.raises(AssertionError, match="Cramer"):
            fan._signed_circuits(3)
    finally:
        fan._lift_evaluators.cache_clear()
        fan._signed_circuits.cache_clear()


def test_corrupted_cramer_numerators_fail_revalidation(monkeypatch):
    real = fan._eliminate

    def corrupted(a, ncols, jordan):
        result = real(a, ncols, jordan)
        a[0][-1] += 1
        return result

    fan._lift_evaluators.cache_clear()
    monkeypatch.setattr(fan, "_eliminate", corrupted)
    try:
        with pytest.raises(AssertionError, match="Cramer"):
            fan._lift_evaluators(3)
    finally:
        fan._lift_evaluators.cache_clear()
