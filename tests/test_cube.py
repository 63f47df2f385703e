import io
from fractions import Fraction as Q
from random import Random

import pytest

from trbm import cube
from trbm.codes import ball_slicing
from trbm.cube import (Slicing, _enumerate_arrangement, _enumerate_brute,
                       _parallelogram, all_vertices, count_zonotope_facets,
                       cube_symmetries, enumerate_slicings, is_slicing,
                       read_slicings, subset_mask, vertex_coords,
                       vertex_index, write_slicings)
from trbm.lp import LinearSystem, solve_feasibility


def test_vertex_indexing_is_lexicographic():
    assert vertex_coords(0, 3) == (0, 0, 0)
    assert vertex_coords(1, 3) == (0, 0, 1)
    assert vertex_coords(4, 3) == (1, 0, 0)
    assert vertex_index((1, 0, 1)) == 5


def test_corner_is_slicing():
    s = is_slicing({0b111}, 3)
    assert s is not None and s.positive == frozenset({7})


def test_parity_is_not_slicing():
    assert is_slicing({0b000, 0b011, 0b101, 0b110}, 3) is None


def test_low_weight_half_is_slicing():
    assert is_slicing({0b000, 0b100, 0b010, 0b001}, 3) is not None


def test_empty_and_full_are_slicings():
    empty = is_slicing(set(), 3)
    full = is_slicing(set(all_vertices(3)), 3)
    assert empty.c == -1 and all(w == 0 for w in empty.omega)
    assert full.c == 1 and all(w == 0 for w in full.omega)


def test_counts_small():
    assert len(enumerate_slicings(1)) == 4
    assert len(enumerate_slicings(2)) == 14
    assert len(enumerate_slicings(3)) == 104


def test_strategies_agree_n_le_3():
    for n in (1, 2, 3):
        brute = enumerate_slicings(n, "brute")
        arr = enumerate_slicings(n, "arrangement")
        assert [s.mask for s in brute] == [s.mask for s in arr]


def test_strategies_agree_n4():
    brute = enumerate_slicings(4, "brute")
    arr = enumerate_slicings(4, "arrangement")
    assert len(arr) == 1882
    assert [s.mask for s in brute] == [s.mask for s in arr]


def test_complement_closure_all_subsets_n3():
    full = frozenset(all_vertices(3))
    for bits in range(1 << 8):
        subset = {v for v in all_vertices(3) if bits >> v & 1}
        a = is_slicing(subset, 3)
        b = is_slicing(full - subset, 3)
        assert (a is None) == (b is None)


def test_symmetry_closure_n3():
    masks = {s.mask for s in enumerate_slicings(3)}
    for sym in cube_symmetries(3):
        for s in enumerate_slicings(3):
            image = subset_mask(sym[v] for v in s.positive)
            assert image in masks


def test_witnesses_separate_exactly():
    for n in (1, 2, 3):
        for s in enumerate_slicings(n):
            for v in all_vertices(n):
                assert (s.margin(v) > 0) == (v in s.positive)
                assert s.margin(v) != 0


def test_canonical_order():
    slicings = enumerate_slicings(3)
    keys = [s.sort_key() for s in slicings]
    assert keys == sorted(keys)


def test_invalid_witness_rejected():
    with pytest.raises(ValueError):
        Slicing(2, frozenset({3}), (0, 0), 1)


def test_zonotope_facets():
    assert count_zonotope_facets(1) == 4
    assert count_zonotope_facets(2) == 12
    assert count_zonotope_facets(3) == 40


def test_zonotope_guard():
    with pytest.raises(ValueError):
        count_zonotope_facets(5)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_slicings(5, "brute")
    with pytest.raises(ValueError):
        enumerate_slicings(5, "arrangement")  # long mode must be explicit
    with pytest.raises(ValueError):
        enumerate_slicings(3, "magic")


def test_threads_match_single():
    # uncached runs, so that the threaded ones really start pools
    for enumerate_ in (_enumerate_arrangement, _enumerate_brute):
        single = enumerate_(3, 1)
        multi = enumerate_(3, 2)
        assert [(s.mask, s.omega, s.c) for s in single] \
            == [(s.mask, s.omega, s.c) for s in multi]
        assert [s.mask for s in single] \
            == [s.mask for s in enumerate_slicings(3, threads=2)]


def test_slicing_file_roundtrip():
    slicings = enumerate_slicings(2)
    buf = io.StringIO()
    write_slicings(slicings, buf)
    buf.seek(0)
    back = read_slicings(buf)
    assert [(s.n, s.mask, s.omega, s.c) for s in back] \
        == [(s.n, s.mask, s.omega, s.c) for s in slicings]


def test_symmetry_group_order():
    assert len(cube_symmetries(2)) == 8
    assert len(cube_symmetries(3)) == 48
    for sym in cube_symmetries(3):
        assert sorted(sym) == list(range(8))


def certificate_holds(quad, pos, neg, n):
    """a, b in pos, c, d in neg and a + b = c + d coordinate by coordinate."""
    a, b, c, d = quad
    xa, xb, xc, xd = (vertex_coords(v, n) for v in quad)
    return (pos >> a & 1 and pos >> b & 1 and neg >> c & 1 and neg >> d & 1
            and all(p + q == r + s for p, q, r, s in zip(xa, xb, xc, xd)))


def test_masks_without_parallelogram_are_the_census():
    for n, count in ((1, 4), (2, 14), (3, 104), (4, 1882)):
        full = (1 << (1 << n)) - 1
        free = [mask for mask in range(full + 1)
                if _parallelogram(mask, full ^ mask) is None]
        assert len(free) == count
        assert free == sorted(s.mask for s in enumerate_slicings(n))


def separation(mask, n, side=None):
    """The LinearSystem that separates the vertices of ``mask`` from the
    other vertices of ``side`` (all vertices by default): one strict row
    +-(v, 1) over (omega, c) per vertex of ``side``, in index order."""
    rows = []
    for v in all_vertices(n):
        if side is None or side >> v & 1:
            sign = 1 if mask >> v & 1 else -1
            rows.append(tuple(sign * x for x in vertex_coords(v, n))
                        + (sign, 0))
    return LinearSystem.build(n + 1, strict=rows)


def test_parallelogram_refutes_only_infeasible_systems():
    rng = Random(5)
    cases = [(3, mask) for mask in range(1 << 8)]
    cases += [(4, rng.getrandbits(16)) for _ in range(500)]
    certified = 0
    for n, mask in cases:
        neg = ((1 << (1 << n)) - 1) ^ mask
        quad = _parallelogram(mask, neg)
        if quad is not None:
            certified += 1
            assert certificate_holds(quad, mask, neg, n)
            assert solve_feasibility(separation(mask, n)) is None
    assert certified > 400


def test_parallelogram_on_partial_labellings():
    # the arrangement census asks about the vertices inserted so far
    assert _parallelogram(0b1001, 0b0110) == (0, 3, 1, 2)  # xor of 2 bits
    assert _parallelogram(0b0011, 0b1100) is None
    assert _parallelogram(0b1, 0) is None
    assert _parallelogram(0b10000001, 0b01100000) is None  # 111 != 211
    quad = _parallelogram(0b10000001, 0b00011000)  # 000 + 111 = 011 + 100
    assert quad == (0, 7, 3, 4)
    assert certificate_holds(quad, 0b10000001, 0b00011000, 3)


def test_slicing_rejects_zero_and_negative_near_misses():
    d = 10 ** 30 + 7
    with pytest.raises(ValueError):  # vertex 11 has margin exactly 0
        Slicing(2, frozenset({3}), (Q(1), Q(1)), Q(-2))
    with pytest.raises(ValueError):  # vertex 11 has margin -1/d
        Slicing(2, frozenset({3}), (Q(1), Q(1)), Q(-2) - Q(1, d))
    with pytest.raises(ValueError):  # vertex 01 has margin +1/d, not < 0
        Slicing(2, frozenset({3}), (Q(1, 3), Q(2, 3)), Q(-2, 3) + Q(1, d))
    s = Slicing(2, frozenset({3}), (Q(1), Q(1)), Q(-2) + Q(1, d))
    assert s.margin(3) == Q(1, d) and s.margin(2) == Q(-1) + Q(1, d)


def test_slicing_check_agrees_with_fraction_margins():
    rng = Random(8)
    for _ in range(300):
        n = rng.randint(1, 4)
        den = rng.randint(1, 10 ** 12)
        omega = tuple(Q(rng.randint(-3 * den, 3 * den),
                        den * rng.randint(1, 9)) for _ in range(n))
        if rng.random() < 0.3:  # put a vertex exactly on the hyperplane
            c = -sum(w * x for w, x in zip(omega, vertex_coords(
                rng.randrange(1 << n), n)))
        else:
            c = Q(rng.randint(-3 * den, 3 * den), den)
        margins = [sum((w * x for w, x in zip(omega, vertex_coords(v, n))),
                       c) for v in all_vertices(n)]
        positive = frozenset(v for v, m in enumerate(margins) if m > 0)
        if rng.random() < 0.3:  # flip one vertex
            positive = positive ^ {rng.randrange(1 << n)}
        separates = all(m != 0 and (m > 0) == (v in positive)
                        for v, m in enumerate(margins))
        if separates:
            assert Slicing(n, positive, omega, c).mask == subset_mask(positive)
        else:
            with pytest.raises(ValueError):
                Slicing(n, positive, omega, c)


def test_slicing_check_on_a_ball_of_the_15_cube():
    n, w = 15, 0b101100111000101
    ball = ball_slicing(w, n)
    assert ball.positive == {w} | {w ^ 1 << j for j in range(n)}
    assert ball.margin(w) == Q(3, 2) and ball.margin(w ^ 0b11) == Q(-1, 2)
    with pytest.raises(ValueError, match=f"vertex {w ^ 0b11:015b}"):
        Slicing(n, ball.positive | {w ^ 0b11}, ball.omega, ball.c)
    with pytest.raises(ValueError, match=f"vertex {w ^ 1:015b}"):
        Slicing(n, ball.positive - {w ^ 1}, ball.omega, ball.c)
    with pytest.raises(ValueError, match=f"vertex {w ^ 1 << 14:015b}"):
        Slicing(n, ball.positive, ball.omega, ball.c - Q(1, 2))  # margin 0


def test_slicing_rejects_a_non_vertex():
    with pytest.raises(ValueError, match="non-vertex"):
        Slicing(2, frozenset({3, 4}), (Q(1), Q(1)), Q(-3, 2))


def test_separation_witness_is_rechecked(monkeypatch):
    margin_lp = cube._margin_lp

    def corrupted(rows, nvars, box):  # the constant term's sign flipped
        y, den = margin_lp(rows, nvars, box)
        return [*y[:-1], -y[-1]], den

    monkeypatch.setattr(cube, "_margin_lp", corrupted)
    with pytest.raises(AssertionError, match="re-validation"):
        is_slicing({0b111}, 3)
    with pytest.raises(AssertionError, match="re-validation"):
        _enumerate_arrangement(2, 1)


def test_is_slicing_witnesses_are_those_of_solve_feasibility():
    for n in (1, 2, 3):
        full = (1 << (1 << n)) - 1
        for mask in range(1, full):
            s = is_slicing([v for v in all_vertices(n) if mask >> v & 1], n)
            witness = solve_feasibility(separation(mask, n))
            assert (None if s is None else (*s.omega, s.c)) == witness


def test_arrangement_witnesses_are_those_of_solve_feasibility(monkeypatch):
    separate = cube._separate
    for n in (1, 2, 3):
        found = set()

        def checked(args):
            result = separate(args)
            _, pos, side = args
            witness = None if result is None else tuple(
                Q(v, result[1]) for v in result[0])
            assert witness == solve_feasibility(separation(pos, n, side))
            found.add(witness)
            return result

        monkeypatch.setattr(cube, "_separate", checked)
        census = _enumerate_arrangement(n, 1)
        assert len(census) == (4, 14, 104)[n - 1]
        assert {(*s.omega, s.c) for s in census} <= found
