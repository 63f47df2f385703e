"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Every expected value is exact; comparisons carry zero tolerance.  Stated
time limits are asserted alongside the values.  Run standalone with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import hashlib
import os
import time
from fractions import Fraction as Q
from itertools import combinations
from random import Random

from helpers import random_exp_params, random_mixture_params
from trbm.codes import (covering_radius, covering_upper, exact_covering_size,
                        exact_packing_size, hamming_code, min_distance,
                        varshamov_lower)
from trbm.cube import count_zonotope_facets, is_slicing, slicing_count
from trbm.fan import (enumerate_triangulations_3cube,
                      reduced_homology_ranks, regularity_witness,
                      secondary_sphere_fvector, tm13_subcomplex)
from trbm.linalg import Matrix, rank, rank_bareiss
from trbm.polynomials import (GAP_WITNESS_WEIGHTS, all_flattening_minors,
                              initial_form, quartic_witness_check)
from trbm.rbmstats import (check_membership_necessary, covariance_matrix,
                           hadamard_product, joint_distribution,
                           max_flattening_rank, mixture_distribution,
                           reparameterize, stack)
from trbm.tropical import (TropParams, TropicalPoint, inference_function,
                           tropical_dimension, tropical_membership,
                           tropical_morphism)


# SHA-256 of the stdout of ``slicings --n 5 --allow-long``, the whole
# long-mode listing with every witness.
N5_LISTING_SHA256 = \
    "3aeefc01577d4890526c98c6f708504615b6bd4fe18a8792c2521a66ce63263d"


def report(number, label, started, limit):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"
    print(f"PASS criterion {number}: {label} ({elapsed:.1f}s)")


def cli_output(*args):
    import contextlib
    import io

    from trbm.cli import main
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(args)) == 0
    return buffer.getvalue().strip()


def test_criterion_1_threshold_function_counts():
    t0 = time.time()
    for n, expected in ((1, "4"), (2, "14"), (3, "104")):
        assert cli_output("slicings", "--n", str(n), "--count") == expected
    assert time.time() - t0 < 10
    t1 = time.time()
    assert cli_output("slicings", "--n", "4", "--count") == "1882"
    assert time.time() - t1 < 600
    if os.environ.get("TRBM_ACCEPT_LONG"):
        assert slicing_count(5, "arrangement", allow_long=True) == 94572
        listing = cli_output("slicings", "--n", "5", "--allow-long") + "\n"
        assert hashlib.sha256(listing.encode()).hexdigest() \
            == N5_LISTING_SHA256
        label = "slicing counts 4, 14, 104, 1882, 94572 and the n=5 listing"
    else:
        label = "slicing counts 4, 14, 104, 1882 (n=5 long mode skipped)"
    report(1, label, t0, 611)


def test_criterion_2_zonotope_facets():
    t0 = time.time()
    for n, expected in ((1, 4), (2, 12), (3, 40), (4, 280)):
        assert count_zonotope_facets(n) == expected
    report(2, "zonotope facet counts 4, 12, 40, 280", t0, 60)


def test_criterion_3_small_exact_dimensions():
    t0 = time.time()
    r = tropical_dimension(3, 1)
    assert (r.max_rank, r.dim, r.certified) == (7, 7, True)
    r = tropical_dimension(3, 2)
    assert (r.dim, r.certified) == (7, True)
    r = tropical_dimension(4, 1)
    assert (r.max_rank, r.dim, r.certified) == (9, 9, True)
    report(3, "exhaustive dims: (3,1)->7, (3,2)->7, (4,1)->9", t0, 300)


def test_criterion_4_code_based_dimension():
    t0 = time.time()
    r = tropical_dimension(7, 15, "code_based")
    assert (r.max_rank, r.dim, r.certified) == (127, 127, True)
    r = tropical_dimension(7, 16, "code_based")
    assert (r.max_rank, r.dim, r.certified) == (128, 127, True)
    report(4, "code construction: rank 127 at k=15, dim 127 at k=16",
           t0, 60)


def test_criterion_5_coding_bounds():
    t0 = time.time()
    for ell in (2, 3, 4):
        code = hamming_code(ell)
        assert min_distance(code) == 3
        assert covering_radius(code) == 1
    assert varshamov_lower(7) == 16
    assert covering_upper(7) == 16
    assert exact_packing_size(3) == 2
    assert exact_covering_size(3) == 2
    assert exact_packing_size(5) == 4
    report(5, "perfect codes and packing/covering bounds", t0, 120)


def test_criterion_6_probability_identities():
    t0 = time.time()
    rng = Random(2026)
    for i in range(100):
        n = (2, 3, 4)[i % 3]
        k = (1, 2, 3)[(i // 3) % 3]
        # factored form equals the hidden-state sum (checked internally)
        joint_distribution(random_exp_params(n, k, rng))
        # mixture equals the reparameterized one-node model
        mix = random_mixture_params(n, rng)
        assert mixture_distribution(mix) \
            == joint_distribution(reparameterize(mix))
        # componentwise product of k one-node samples equals the stack
        parts = [random_exp_params(n, 1, rng) for _ in range(k)]
        acc = joint_distribution(parts[0])
        for part in parts[1:]:
            acc = hadamard_product(acc, joint_distribution(part))
        assert acc == joint_distribution(stack(parts))
        # flattening rank and covariance conditions on a mixture sample
        d = mixture_distribution(mix)
        assert max_flattening_rank(d) <= 2
        sigma = covariance_matrix(d)
        for a, b, c in combinations(range(n), 3):
            assert sigma[a, b] * sigma[a, c] * sigma[b, c] >= 0
        if n == 4:
            assert sigma[0, 1] * sigma[2, 3] == sigma[0, 3] * sigma[1, 2]
        assert check_membership_necessary(d).verdict
    report(6, "probability identities exact on 100 seeded draws", t0, 300)


def test_criterion_7_quartic_witness():
    t0 = time.time()
    for minor in all_flattening_minors(4):
        assert len(initial_form(minor, GAP_WITNESS_WEIGHTS)) >= 2
    rep = quartic_witness_check()
    assert rep.prevariety is True
    assert rep.quartic_initial_terms == 1
    assert rep.monomial == (0b0000, 0b0110, 0b1010, 0b1101)
    report(7, "prevariety witness with monomial quartic initial form",
           t0, 5)


def test_criterion_8_fan_combinatorics():
    t0 = time.time()
    tris = enumerate_triangulations_3cube()
    assert len(tris) == 74
    assert all(regularity_witness(t) is not None for t in tris)
    assert secondary_sphere_fvector() == (22, 100, 152, 74)
    complex_data = tm13_subcomplex()
    assert complex_data.f_vector() == (14, 40, 36, 12)
    labels = complex_data.vertex_labels
    assert sum(1 for s in labels if s[0] == "D") == 6
    assert sum(1 for s in labels if s[0] == "V") == 8
    census = {"VV": 0, "DV": 0, "DD": 0}
    for e in complex_data.faces_by_dim[1]:
        census["".join(sorted(labels[i][0] for i in e))] += 1
    assert census == {"VV": 4, "DV": 24, "DD": 12}
    assert reduced_homology_ranks(complex_data) == (0, 3, 0, 0)
    report(8, "74 regular triangulations, sphere (22,100,152,74), "
              "model (14,40,36,12), homology (0,3,0,0)", t0, 900)


def test_criterion_9a_membership_roundtrips():
    t0 = time.time()
    rng = Random(99)
    for _ in range(200):
        params = TropParams.build(
            [[Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)]],
            [Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)],
            [Q(rng.randint(-8, 8), rng.randint(1, 3))])
        q = tropical_morphism(params)
        res = tropical_membership(q)
        assert res.member
        image = tropical_morphism(res.params())
        assert TropicalPoint.build(
            3, [x + res.shift for x in image.values]) == q
    report("9a", "membership oracle round-trips on 200 images", t0, 300)


def test_criterion_9b_inference_slicings():
    t0 = time.time()
    rng = Random(7)
    for _ in range(100):
        n, k = 3, 2
        params = TropParams.build(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)],
            [rng.randint(-5, 5) for _ in range(n)],
            [Q(2 * rng.randint(-10, 10) + 1, 2) for _ in range(k)])
        mapping = inference_function(params)
        for i in range(k):
            ones = {v for v, h in mapping.items() if h >> (k - 1 - i) & 1}
            assert is_slicing(ones, n) is not None
    report("9b", "inference coordinates are threshold functions, "
                 "100 draws", t0, 300)


def test_criterion_9c_rank_oracle_agreement():
    t0 = time.time()
    rng = Random(123)
    for _ in range(100):
        m = Matrix([[rng.randint(-9, 9) for _ in range(9)]
                    for _ in range(6)])
        assert rank(m) == rank_bareiss(m)
        assert rank(m) == rank(m.transpose())
    report("9c", "Gaussian and fraction-free ranks agree on 100 matrices",
           t0, 300)
