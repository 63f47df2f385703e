"""Seeded random inputs and file readers that only the tests use."""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm
from random import Random
from typing import Iterable, TextIO

from trbm.cube import Slicing, subset_mask
from trbm.linalg import Matrix
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


def slicing(n: int, positive: Iterable[int], omega, c) -> Slicing:
    """The Slicing of the vertex set ``positive`` with the rational
    witness (omega, c), scaled to integers over its least common
    denominator."""
    witness = [Q(x) for x in (*omega, c)]
    den = lcm(*(x.denominator for x in witness))
    return Slicing(n, subset_mask(positive),
                   tuple(x.numerator * (den // x.denominator)
                         for x in witness), den)


def count_builds(monkeypatch) -> list[int]:
    """The masks of the Slicings built from now on, in order of their
    checks (``Slicing.__post_init__``), in a list that grows."""
    built = []
    post_init = Slicing.__post_init__

    def counted(self):
        built.append(self.mask)
        post_init(self)

    monkeypatch.setattr(Slicing, "__post_init__", counted)
    return built


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
        c, *omega = fields["w"].split(",")
        pos = [v for v in range(mask.bit_length()) if mask >> v & 1]
        out.append(slicing(n, pos, omega, c))
    return out


def mat_vec(m: Matrix, v) -> list[Q]:
    """The product of ``m`` and the vector ``v``, exactly."""
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return [sum((x * y for x, y in zip(row, v)), Q(0)) for row in m.data]


def rref(m: Matrix) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Rational Gauss-Jordan elimination, which shares no code with the
    integer core of ``trbm.linalg``: the oracle of ``rank``,
    ``nullspace`` and ``solve``.
    """
    a = [[Q(x) for x in row] for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [a[i][j] - f * a[r][j] for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots
