"""Seeded random inputs and file readers that only the tests use."""

from __future__ import annotations

from fractions import Fraction as Q
from random import Random
from typing import TextIO

from trbm.cube import Slicing, all_vertices
from trbm.rbmstats import ExpParams, MixtureParams


def random_unit_fraction(rng: Random, bound: int = 20) -> Q:
    den = rng.randint(2, bound)
    return Q(rng.randint(1, den - 1), den)


def random_positive_fraction(rng: Random, bound: int = 20) -> Q:
    return Q(rng.randint(1, bound), rng.randint(1, bound))


def random_exp_params(n: int, k: int, rng: Random,
                      bound: int = 20) -> ExpParams:
    return ExpParams.build(
        [random_positive_fraction(rng, bound) for _ in range(n)],
        [random_positive_fraction(rng, bound) for _ in range(k)],
        [[random_positive_fraction(rng, bound) for _ in range(n)]
         for _ in range(k)])


def random_mixture_params(n: int, rng: Random,
                          bound: int = 20) -> MixtureParams:
    return MixtureParams.build(
        random_unit_fraction(rng, bound),
        [random_unit_fraction(rng, bound) for _ in range(n)],
        [random_unit_fraction(rng, bound) for _ in range(n)])


def read_slicings(stream: TextIO) -> list[Slicing]:
    """The slicings of a ``cube.write_slicings`` file, witnesses checked."""
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
