import io
from fractions import Fraction as Q
from itertools import combinations
from math import lcm
from random import Random

import pytest

from helpers import random_exp_params, random_mixture_params
from trbm.cube import all_vertices, vertex_coords, write_vertex_values
from trbm.linalg import rank
from trbm.rbmstats import (Distribution, ExpParams, MixtureParams,
                           check_membership_necessary, covariance_matrix,
                           flattening, hadamard_product, joint_distribution,
                           max_flattening_rank,
                           mixture_distribution, read_distribution,
                           reparameterize, splits, stack)


def test_all_ones_parameters_give_uniform():
    p = joint_distribution(ExpParams.build([1, 1, 1], [1], [[1, 1, 1]]))
    assert all(x == Q(1, 8) for x in p.p)


def test_unit_hidden_row_gives_product_measure():
    p = joint_distribution(ExpParams.build([2, 3], [1], [[1, 1]]))
    # odds beta_j per coordinate: weights 1, 3, 2, 6
    assert p.p == (Q(1, 12), Q(3, 12), Q(2, 12), Q(6, 12))


def test_factored_equals_hidden_sum():
    rng = Random(1)
    for _ in range(30):
        joint_distribution(random_exp_params(3, 2, rng))  # asserts inside


def test_mixture_collapses_when_components_match():
    mp = MixtureParams.build(Q(1, 3), [Q(1, 4), Q(2, 3)], [Q(1, 4), Q(2, 3)])
    p = mixture_distribution(mp)
    assert p.p[3] == (1 - Q(1, 4)) * (1 - Q(2, 3))


def test_mixture_uniform():
    mp = MixtureParams.build(Q(1, 2), [Q(1, 2)] * 3, [Q(1, 2)] * 3)
    assert all(x == Q(1, 8) for x in mixture_distribution(mp).p)


def test_reparameterization_roundtrip():
    rng = Random(6)
    for _ in range(40):
        mp = random_mixture_params(3, rng)
        assert mixture_distribution(mp) \
            == joint_distribution(reparameterize(mp))


def test_reparameterization_formulas():
    mp = MixtureParams.build(Q(1, 2), [Q(1, 3)] * 3, [Q(1, 4)] * 3)
    ep = reparameterize(mp)
    assert ep.beta == (Q(2), Q(2), Q(2))
    assert ep.omega[0] == (Q(3, 2), Q(3, 2), Q(3, 2))


def test_repar_trivial_point():
    mp = MixtureParams.build(Q(1, 2), [Q(1, 2)] * 2, [Q(1, 2)] * 2)
    ep = reparameterize(mp)
    assert ep.beta == (1, 1) and ep.omega[0] == (1, 1) and ep.gamma == (1,)


def test_hadamard_uniform_identity():
    rng = Random(3)
    d = joint_distribution(random_exp_params(3, 2, rng))
    uniform = Distribution.normalize([1] * 8)
    assert hadamard_product(d, uniform) == d


def test_hadamard_commutes():
    rng = Random(13)
    a = joint_distribution(random_exp_params(3, 1, rng))
    b = joint_distribution(random_exp_params(3, 1, rng))
    assert hadamard_product(a, b) == hadamard_product(b, a)


def test_hadamard_power_law():
    rng = Random(21)
    for _ in range(15):
        parts = [random_exp_params(3, 1, rng) for _ in range(3)]
        acc = joint_distribution(parts[0])
        for part in parts[1:]:
            acc = hadamard_product(acc, joint_distribution(part))
        assert acc == joint_distribution(stack(parts))


def test_flattening_layout_n2():
    d = Distribution.normalize([1, 2, 3, 4])
    f = flattening(d, [1])
    assert f.data == [[Q(1, 10), Q(2, 10)], [Q(3, 10), Q(4, 10)]]


def test_flattening_marginal_sums():
    rng = Random(2)
    d = joint_distribution(random_exp_params(3, 1, rng))
    f = flattening(d, [1])
    row_sums = [sum(row) for row in f.data]
    assert row_sums[1] == sum(d.p[v] for v in all_vertices(3)
                              if vertex_coords(v, 3)[0])
    assert row_sums[0] + row_sums[1] == 1


def test_flattening_requires_proper_split():
    d = Distribution.normalize([1] * 8)
    with pytest.raises(ValueError):
        flattening(d, [])
    with pytest.raises(ValueError):
        flattening(d, [1, 2, 3])
    with pytest.raises(ValueError, match="1..n"):
        flattening(d, [0, 1])


def test_product_distribution_rank_one():
    prod = joint_distribution(ExpParams.build([2, 3, 5], [1], [[1, 1, 1]]))
    assert max_flattening_rank(prod) == 1


def test_lexicographic_table_rank_two():
    d = Distribution.normalize(list(range(1, 17)))
    assert max_flattening_rank(d) == 2
    for a in splits(4):
        assert rank(flattening(d, a)) == 2


def test_mixture_flattening_rank_bound():
    rng = Random(5)
    for n in (3, 4, 5):
        for _ in range(8):
            d = mixture_distribution(random_mixture_params(n, rng))
            assert max_flattening_rank(d) <= 2


def test_covariance_product_vanishes():
    prod = joint_distribution(ExpParams.build([2, 3, 5], [1], [[1, 1, 1]]))
    sigma = covariance_matrix(prod)
    assert all(sigma[i, j] == 0 for i in range(3) for j in range(3)
               if i != j)


def test_covariance_mixture_factorization():
    rng = Random(19)
    for _ in range(20):
        mp = random_mixture_params(4, rng)
        sigma = covariance_matrix(mixture_distribution(mp))
        spread = [mp.delta[i] - mp.epsilon[i] for i in range(4)]
        scale = mp.lam * (1 - mp.lam)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert sigma[i, j] == scale * spread[i] * spread[j]


def test_covariance_equals_marginal_block_determinant():
    rng = Random(23)
    d = mixture_distribution(random_mixture_params(4, rng))
    sigma = covariance_matrix(d)
    blocks = [[Q(0)] * 2 for _ in range(2)]
    for v in all_vertices(4):
        c = vertex_coords(v, 4)
        blocks[c[0]][c[1]] += d.p[v]
    det = blocks[0][0] * blocks[1][1] - blocks[0][1] * blocks[1][0]
    assert det == sigma[0, 1]


def covariance_by_definition(d: Distribution) -> list[list[Q]]:
    """sum_v p_v v_i v_j - E_i E_j, summed in Fractions vertex by vertex."""
    coords = [vertex_coords(v, d.n) for v in all_vertices(d.n)]
    e = [sum((x for x, c in zip(d.p, coords) if c[i]), Q(0))
         for i in range(d.n)]
    return [[sum((x for x, c in zip(d.p, coords) if c[i] and c[j]), Q(0))
             - e[i] * e[j] for j in range(d.n)] for i in range(d.n)]


@pytest.mark.parametrize("n", range(7))
def test_covariance_matches_the_definition(n):
    """Seeded distributions of entries 2^-n + e and 2^-n - e, shuffled,
    with a different denominator for each pair's e: for n >= 2 no entry's
    denominator is a multiple of all the others."""
    rng = Random(31 + n)
    for _ in range(4):
        p = [Q(1, 1 << n)] * (1 << n)
        for v in range(0, (1 << n) - 1, 2):
            e = Q(rng.randint(1, 9), 10 * (v + 3) << n)
            p[v], p[v + 1] = p[v] + e, p[v + 1] - e
        rng.shuffle(p)
        d = Distribution(n, tuple(p))
        dens = [x.denominator for x in p]
        assert n < 2 or max(dens) < lcm(*dens)
        assert covariance_matrix(d).data == covariance_by_definition(d)


def test_covariance_symmetry_and_binomials():
    rng = Random(29)
    for _ in range(10):
        d = mixture_distribution(random_mixture_params(4, rng))
        sigma = covariance_matrix(d)
        for i in range(4):
            for j in range(4):
                assert sigma[i, j] == sigma[j, i]
        for i, j, k, l in combinations(range(4), 4):
            assert sigma[i, j] * sigma[k, l] == sigma[i, l] * sigma[j, k]
            assert sigma[i, j] * sigma[k, l] == sigma[i, k] * sigma[j, l]


def test_necessary_check_passes_on_mixtures():
    rng = Random(37)
    for n in (3, 4):
        for _ in range(10):
            d = mixture_distribution(random_mixture_params(n, rng))
            assert check_membership_necessary(d).verdict


def test_necessary_check_uniform_passes():
    assert check_membership_necessary(Distribution.normalize([1] * 8)).verdict


def test_necessary_check_detects_bad_triple():
    # product measure perturbed along pairwise interactions with
    # covariance signs (+, +, -)
    t = {(0, 1): Q(1, 4), (0, 2): Q(1, 4), (1, 2): Q(-1, 4)}
    values = []
    for v in all_vertices(3):
        s = [1 - 2 * x for x in vertex_coords(v, 3)]
        values.append(Q(1, 8) * (1 + t[(0, 1)] * s[0] * s[1]
                                 + t[(0, 2)] * s[0] * s[2]
                                 + t[(1, 2)] * s[1] * s[2]))
    bad = Distribution(3, tuple(values))
    sigma = covariance_matrix(bad)
    assert sigma[0, 1] > 0 and sigma[0, 2] > 0 and sigma[1, 2] < 0
    chk = check_membership_necessary(bad)
    assert not chk.triple_sign_ok and not chk.verdict


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(2, (Q(1, 2), Q(1, 2), Q(0), Q(0)))
    with pytest.raises(ValueError):
        Distribution(2, (Q(1, 2), Q(1, 4), Q(1, 8), Q(1, 16)))


def test_normalization_exact():
    rng = Random(41)
    for n, k in ((2, 1), (3, 2), (4, 3)):
        d = joint_distribution(random_exp_params(n, k, rng))
        assert sum(d.p) == 1


def test_distribution_file_roundtrip():
    d = Distribution.normalize([1, 2, 3, 4])
    buf = io.StringIO()
    write_vertex_values(d.p, buf)
    buf.seek(0)
    assert read_distribution(buf) == d
