"""Exact probability computations for the binary visible/hidden model.

Distributions over {0,1}^n are vectors of 2^n positive rationals summing
to one, indexed lexicographically.  The one-hidden-node model equals the
two-component product mixture via an explicit reparameterization, and
k hidden nodes factor as componentwise (Hadamard) products of
one-hidden-node distributions.  Everything here is exact; the membership
conditions checked at the end are equalities and sign conditions that
hold with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence, TextIO

from .linalg import Matrix, qtuple, rank
from .cube import all_vertices, read_vertex_values, vertex_coords

Q = Fraction

JOINT_LIMIT = 16  # n + k of a joint, n of a mixture: 2^16 terms take ~5 s


@dataclass(frozen=True)
class ExpParams:
    """Positive parameters (beta, gamma, omega) of the monomial form."""

    n: int
    k: int
    beta: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    omega: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.beta) != self.n or len(self.gamma) != self.k \
                or len(self.omega) != self.k \
                or any(len(row) != self.n for row in self.omega):
            raise ValueError("shape mismatch")
        if any(x <= 0 for x in self.beta) or any(x <= 0 for x in self.gamma) \
                or any(x <= 0 for row in self.omega for x in row):
            raise ValueError("parameters must be positive")

    @classmethod
    def build(cls, beta, gamma, omega) -> "ExpParams":
        b = qtuple(beta)
        g = qtuple(gamma)
        w = tuple(qtuple(row) for row in omega)
        return cls(len(b), len(g), b, g, w)


@dataclass(frozen=True)
class MixtureParams:
    """Two product measures with mixing weight lam, all in open (0,1)."""

    lam: Fraction
    delta: tuple[Fraction, ...]
    epsilon: tuple[Fraction, ...]

    def __post_init__(self):
        vals = (self.lam,) + self.delta + self.epsilon
        if any(not (0 < x < 1) for x in vals):
            raise ValueError("mixture parameters must lie strictly in (0,1)")
        if len(self.delta) != len(self.epsilon):
            raise ValueError("component length mismatch")

    @classmethod
    def build(cls, lam, delta, epsilon) -> "MixtureParams":
        return cls(Q(lam), qtuple(delta), qtuple(epsilon))

    @property
    def n(self) -> int:
        return len(self.delta)


@dataclass(frozen=True)
class Distribution:
    n: int
    p: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.p) != 1 << self.n:
            raise ValueError("expected 2^n entries")
        if any(x <= 0 for x in self.p):
            raise ValueError("entries must be strictly positive")
        if sum(self.p) != 1:
            raise ValueError("entries must sum to one")

    @classmethod
    def normalize(cls, weights: Sequence[Fraction]) -> "Distribution":
        total = sum(weights, Q(0))
        n = (len(weights) - 1).bit_length()
        return cls(n, tuple(Q(x) / total for x in weights))


def _products(factors: Sequence[tuple]) -> list[Fraction]:
    """The products ``prod_j factors[j][v_j]`` at every vertex v, in index
    order: the product analogue of :func:`cube.affine_values`."""
    values = [Q(1)]
    for off, on in reversed(factors):
        values = [x * off for x in values] + [x * on for x in values]
    return values


def joint_distribution(params: ExpParams) -> Distribution:
    """Visible distribution of the model, by the factored product formula.

    The factored value is cross-checked against the raw double sum over
    hidden states before returning.  That sum has 2^(n+k) terms, so
    n + k above ``JOINT_LIMIT`` is refused before either form is built.
    """
    n, k = params.n, params.k
    if n + k > JOINT_LIMIT:
        raise ValueError(f"n={n}, k={k}: the summed check adds 2^{n + k} "
                         f"terms; n + k <= {JOINT_LIMIT} is supported")
    factored = _products([(1, b) for b in params.beta])
    for g, row in zip(params.gamma, params.omega):
        factored = [x * (1 + g * m) for x, m in
                    zip(factored, _products([(1, w) for w in row]))]
    raw = _raw_visible_weights(params)
    if [x / sum(factored) for x in factored] != [x / sum(raw) for x in raw]:
        raise AssertionError("factored and summed forms disagree")
    return Distribution.normalize(factored)


def _raw_visible_weights(params: ExpParams) -> list[Fraction]:
    n, k = params.n, params.k
    weights = []
    for v in all_vertices(n):
        coords = vertex_coords(v, n)
        total = Q(0)
        for h in range(1 << k):
            hbits = [(h >> (k - 1 - i)) & 1 for i in range(k)]
            term = Q(1)
            for i in range(k):
                if hbits[i]:
                    term *= params.gamma[i]
            for i in range(k):
                for j in range(n):
                    if hbits[i] and coords[j]:
                        term *= params.omega[i][j]
            for j in range(n):
                if coords[j]:
                    term *= params.beta[j]
            total += term
        weights.append(total)
    return weights


def mixture_distribution(params: MixtureParams) -> Distribution:
    if params.n > JOINT_LIMIT:
        raise ValueError(f"a mixture lists 2^n values: n <= {JOINT_LIMIT} "
                         f"is supported, got n={params.n}")
    a = _products([(d, 1 - d) for d in params.delta])
    b = _products([(e, 1 - e) for e in params.epsilon])
    return Distribution(params.n, tuple(params.lam * x + (1 - params.lam) * y
                                        for x, y in zip(a, b)))


def reparameterize(params: MixtureParams) -> ExpParams:
    """Exact change of coordinates from mixture to one-hidden-node form.

    The round trip is an identity: joint_distribution of the result
    equals mixture_distribution of the input, term by term.
    """
    n = params.n
    beta = tuple((1 - d) / d for d in params.delta)
    omega = tuple((params.delta[j] / (1 - params.delta[j]))
                  * ((1 - params.epsilon[j]) / params.epsilon[j])
                  for j in range(n))
    z = 1 / params.lam
    for d in params.delta:
        z /= d
    gamma = z * (1 - params.lam)
    for e in params.epsilon:
        gamma *= e
    return ExpParams.build(beta, [gamma], [omega])


def hadamard_product(p: Distribution, q: Distribution) -> Distribution:
    """Componentwise product, rescaled to sum to one."""
    if p.n != q.n:
        raise ValueError("dimension mismatch")
    return Distribution.normalize([a * b for a, b in zip(p.p, q.p)])


def stack(parts: Sequence[ExpParams]) -> ExpParams:
    """Combine one-hidden-node parameter sets into a k-node set.

    Hidden rows are concatenated and the visible biases multiply.
    """
    if not parts:
        raise ValueError("nothing to stack")
    n = parts[0].n
    beta = [Q(1)] * n
    gamma, omega = [], []
    for part in parts:
        if part.n != n:
            raise ValueError("dimension mismatch")
        beta = [a * b for a, b in zip(beta, part.beta)]
        gamma.extend(part.gamma)
        omega.extend(part.omega)
    return ExpParams.build(beta, gamma, omega)


def flattening_indices(n: int, a: Sequence[int]) -> list[list[int]]:
    """Vertex indices of the 2^|A| x 2^|B| flattening along A | B of {1..n}.

    Rows follow {0,1}^A lexicographically (first element of A most
    significant), columns likewise for the complement B.
    """
    if any(j < 1 or j > n for j in a):
        raise ValueError("split indices must lie in 1..n")
    b = [j for j in range(1, n + 1) if j not in a]

    def offsets(side):
        # coordinate j carries the index bit 2^(n-j)
        return [sum(1 << (n - j) for i, j in enumerate(side)
                    if bits >> (len(side) - 1 - i) & 1)
                for bits in range(1 << len(side))]
    cols = offsets(b)
    return [[ra + cb for cb in cols] for ra in offsets(a)]


def flattening(p: Distribution, a_set: Iterable[int]) -> Matrix:
    """The matrix of p along the split A | B (see flattening_indices)."""
    a = sorted(set(a_set))
    if not a or len(a) >= p.n:
        raise ValueError("split must be proper and nonempty")
    return Matrix([[p.p[v] for v in row]
                   for row in flattening_indices(p.n, a)])


def splits(n: int) -> list[tuple[int, ...]]:
    """Nontrivial splits A | B of {1..n}, one per unordered pair, via 1 in A."""
    out = []
    for size in range(1, n):
        for a in combinations(range(1, n + 1), size):
            if 1 in a:
                out.append(a)
    return out


def max_flattening_rank(p: Distribution) -> int:
    if p.n < 2:
        raise ValueError(f"flattenings need n >= 2, got n={p.n}")
    if p.n > 6:
        raise ValueError("all splits enumerated; needs n <= 6")
    return max(rank(flattening(p, a)) for a in splits(p.n))


def covariance_matrix(p: Distribution) -> Matrix:
    """Exact covariances of the coordinate indicators: with p = w / s, w
    integers and s = sum(w), and m_ij the weight where x_i = x_j = 1,
    cov(x_i, x_j) = (s m_ij - m_ii m_jj) / s^2, every m from one pass."""
    n = p.n
    s = lcm(*(x.denominator for x in p.p))
    m = [[0] * n for _ in range(n)]
    for v, x in enumerate(p.p):
        w = x.numerator * (s // x.denominator)
        ones = [i for i in range(n) if v >> (n - 1 - i) & 1]
        for i in ones:
            for j in ones:
                m[i][j] += w
    return Matrix([[Q(s * m[i][j] - m[i][i] * m[j][j], s * s)
                    for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class NecessaryCheck:
    """Outcome of the necessary (not sufficient) membership conditions."""

    flattening_rank_ok: bool
    triple_sign_ok: bool
    covariance_binomial_ok: bool

    note = "necessary conditions only; a pass does not certify membership"

    @property
    def verdict(self) -> bool:
        return (self.flattening_rank_ok and self.triple_sign_ok
                and self.covariance_binomial_ok)


def check_membership_necessary(p: Distribution) -> NecessaryCheck:
    """Rank, triple-sign and binomial conditions every member satisfies.

    Checks that all flattenings have rank <= 2, that s_ij s_ik s_jk >= 0
    for all triples, and that s_ij s_kl = s_ik s_jl = s_il s_jk for all
    quadruples, where s is the exact covariance.  Conditions that need
    more coordinates than available pass vacuously.
    """
    n = p.n
    rank_ok = max_flattening_rank(p) <= 2 if n >= 2 else True
    sigma = covariance_matrix(p)
    triple_ok = True
    for i, j, k in combinations(range(n), 3):
        if sigma[i, j] * sigma[i, k] * sigma[j, k] < 0:
            triple_ok = False
            break
    binom_ok = True
    for i, j, k, l in combinations(range(n), 4):
        ab = sigma[i, j] * sigma[k, l]
        if ab != sigma[i, k] * sigma[j, l] or ab != sigma[i, l] * sigma[j, k]:
            binom_ok = False
            break
    return NecessaryCheck(rank_ok, triple_ok, binom_ok)


def read_distribution(stream: TextIO) -> Distribution:
    return Distribution(*read_vertex_values(stream))
