"""Bipartite density matrices: validation, named families, seeded samplers.

The named families cover the states used throughout the test and acceptance
suites: the two-qubit Werner family, a 2x3 isotropic-type mixture, the 3x3
Horodecki family (separable / bound entangled / free entangled as its
parameter grows), and two-term Schmidt-form pure states. Samplers are
deterministic per seed (numpy PCG64 behind ``default_rng``).

The three named families are valid by their closed-form spectra, proven
once above :func:`_family_state`, so their constructors check only the
parameter and run no eigen-solve. Every other matrix is validated in full
by ``DensityMatrix``: parsed files, ``schmidt_pure``, the samplers and
``SeparableEnsemble.assemble``.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cache, reduce
from typing import NamedTuple

import numpy as np

from .linalg import BipartiteShape, _hermitian_part, _require_hermitian, _require_square

TRACE_TOL = 1e-10
MIN_EIG_FLOOR = -1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix with bipartite structure attached.

    Validation: order M*N, Hermitian within 1e-10, unit trace within 1e-10,
    minimum eigenvalue >= -1e-9. The stored array is the input's Hermitian
    part (m + m^dag)/2, new and read-only, so ``mat`` is exactly Hermitian
    and every reader of the state reads the one matrix that was validated.
    The trace is checked on the input, imaginary part included. The named
    families' constructors build their states without this check, from a
    proof that holds for every parameter in the family's domain (see
    :func:`_family_state`); every other state runs it.

    Two states are equal when their shapes and matrices are, entry by entry;
    the hash is the shape's.
    """

    shape: BipartiteShape
    mat: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.mat, other.mat)

    def __hash__(self):
        return hash(self.shape)

    def __post_init__(self):
        raw = _require_square(self.mat, "density matrix")
        if raw.shape[0] != self.shape.order:
            raise ValueError(
                f"matrix order {raw.shape[0]} does not match "
                f"{self.shape.dim_a}x{self.shape.dim_b}"
            )
        mat = _require_hermitian(raw, "density matrix")
        tr = raw.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
        min_eig = np.linalg.eigvalsh(mat)[0]
        if min_eig < MIN_EIG_FLOOR:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)


@dataclass(frozen=True)
class SeparableEnsemble:
    """Convex mixture certificate: weights p_i and product-state factors.

    Weights are probabilities summing to 1 within 1e-12; each factor is a
    pair of unit vectors (within 1e-12) on A and B.
    """

    shape: BipartiteShape
    weights: tuple[float, ...]
    factors: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if len(self.factors) != w.size:
            raise ValueError("one factor pair per weight required")
        # every comparison is written so that NaN fails it
        if w.size == 0 or not ((w >= 0) & (w <= 1)).all():
            raise ValueError("weights must lie in [0, 1]")
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {w.sum():.15g}, not 1")
        for va, vb in self.factors:
            if va.shape != (self.shape.dim_a,) or vb.shape != (self.shape.dim_b,):
                raise ValueError("factor vector dimensions do not match shape")
            if not all(abs(np.linalg.norm(x) - 1.0) <= 1e-12 for x in (va, vb)):
                raise ValueError("factor vectors must be unit norm")

    def assemble(self) -> DensityMatrix:
        """Mix the product projectors back into a density matrix."""
        n = self.shape.order
        mat = np.zeros((n, n), dtype=complex)
        for p, (va, vb) in zip(self.weights, self.factors):
            vec = np.kron(va, vb)
            mat += p * np.outer(vec, vec.conj())
        return DensityMatrix(self.shape, mat)


class FamilyParam(NamedTuple):
    """A named family's entry: what the family is, its shape, the name and
    meaning of its parameter, and the parameter's closed domain."""

    title: str
    shape: BipartiteShape
    name: str
    meaning: str
    domain: tuple[float, float]


# The one registry of named families: the constructors read their shape and
# domain here, ``search.SCAN_FAMILIES`` is derived from it, and the CLI
# builds ``make-state`` and the ``scan`` grid bounds from it.
FAMILY_PARAMS = {
    "werner": FamilyParam("Werner state", BipartiteShape(2, 2), "a", "mixing weight", (0.0, 1.0)),
    "iso23": FamilyParam("isotropic-type mixture", BipartiteShape(2, 3), "a", "mixing weight", (0.0, 1.0)),
    "horodecki33": FamilyParam("Horodecki family", BipartiteShape(3, 3), "alpha", "parameter", (2.0, 5.0)),
}


def _family_shape(family: str, value: float | None = None) -> BipartiteShape:
    """``family``'s shape; ValueError for an unknown family or a ``value`` outside its domain."""
    row = FAMILY_PARAMS.get(family)
    if row is None:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = row.domain
    if value is not None and not lo <= value <= hi:
        raise ValueError(f"{family} parameter must be in [{lo:g}, {hi:g}], got {value}")
    return row.shape


@cache
def _family_constants(family: str) -> tuple[np.ndarray, ...]:
    """The parameter-free matrices of a named family, built once per process.

    werner and iso23: (psi psi^dag, I); horodecki33: (psi+ psi+^dag, s+, s-).
    The arrays are read-only, because every call shares them; the
    constructors combine them into a new matrix each time.
    """
    shape = _family_shape(family)
    psi = np.zeros(shape.order, dtype=complex)
    if family == "werner":
        psi[shape.index(1, 2)] = 1.0 / np.sqrt(2.0)
        psi[shape.index(2, 1)] = -1.0 / np.sqrt(2.0)
        mats = (np.outer(psi, psi.conj()), np.eye(shape.order))
    elif family == "iso23":
        psi[shape.index(1, 1)] = 1.0 / np.sqrt(2.0)
        psi[shape.index(2, 2)] = 1.0 / np.sqrt(2.0)
        mats = (np.outer(psi, psi.conj()), np.eye(shape.order))
    else:  # horodecki33
        for i in (1, 2, 3):
            psi[shape.index(i, i)] = 1.0 / np.sqrt(3.0)
        plus = np.zeros((shape.order, shape.order), dtype=complex)
        minus = np.zeros_like(plus)
        for i, l in ((1, 2), (2, 3), (3, 1)):
            plus[shape.index(i, l), shape.index(i, l)] = 1.0 / 3.0
            minus[shape.index(l, i), shape.index(l, i)] = 1.0 / 3.0
        mats = (np.outer(psi, psi.conj()), plus, minus)
    for m in mats:
        m.setflags(write=False)
    return mats


# Why a family state needs no validation. Each family is a combination,
# with coefficients fixed by its parameter x, of constant matrices that are
# Hermitian and commute (projectors onto orthogonal supports, or I), so its
# exact spectrum is known in closed form and is nonnegative on the closed
# domain:
# - werner: (1+3a)/4 once and (1-a)/4 three times, 0 <= a <= 1;
# - iso23: (1+5a)/6 once and (1-a)/6 five times, 0 <= a <= 1;
# - horodecki33: 2/7 once, alpha/21 three times, (5-alpha)/21 three times
#   and 0 twice, 2 <= alpha <= 5.
# The exact trace is 1 in each case. The computed matrix has entries of
# modulus <= 1 and order <= 9, each formed with a few roundings, so it is
# within a few ulps per entry of the exact one: its eigenvalues are within
# about 1e-15 of the exact ones (Weyl) and its trace within about 1e-15 of
# 1, far inside MIN_EIG_FLOOR and TRACE_TOL. Hermitian follows from taking
# the Hermitian part. The premises hold only for a real x in the domain,
# so that is the one check left. The domain test alone is not that check:
# numpy orders complex numbers, and an array of one element passes it too.
def _family_state(family: str, x, coefficients) -> DensityMatrix:
    """``family``'s state at parameter x: the terms ``coefficients(x)``
    times the family's constant matrices, summed left to right, as a
    read-only Hermitian part, without the ``DensityMatrix`` check (see
    above). x is taken as ``float(x)``, so any real type builds the state
    of its float64 value.

    TypeError for an x that does not order against floats, ValueError for
    one outside the domain (NaN included) or not a real number.
    """
    shape = _family_shape(family, x)
    if not isinstance(x, numbers.Real):
        raise ValueError(f"{family} parameter must be a real number, got {x!r}")
    terms = map(operator.mul, coefficients(float(x)), _family_constants(family))
    mat = _hermitian_part(reduce(operator.add, terms))
    mat.setflags(write=False)
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "shape", shape)
    object.__setattr__(rho, "mat", mat)
    return rho


def werner(a: float) -> DensityMatrix:
    """Two-qubit Werner state a |psi-><psi-| + (1-a)/4 I, 0 <= a <= 1.

    |psi-> = (|12> - |21>)/sqrt(2). Entangled (NPT) exactly for a > 1/3.
    """
    return _family_state("werner", a, lambda a: (a, (1.0 - a) / 4.0))


def iso23(a: float) -> DensityMatrix:
    """2x3 mixture a |psi+><psi+| + (1-a)/6 I with |psi+> = (|11> + |22>)/sqrt(2).

    Entangled iff a > 1/4.
    """
    return _family_state("iso23", a, lambda a: (a, (1.0 - a) / 6.0))


def horodecki33(alpha: float) -> DensityMatrix:
    """3x3 family (2/7)|psi+><psi+| + (alpha/7) s+ + ((5-alpha)/7) s-.

    |psi+> = (|11> + |22> + |33>)/sqrt(3);
    s+ = (|12><12| + |23><23| + |31><31|)/3, s- its level-swapped partner.
    Separable for 2 <= alpha <= 3, bound entangled (PPT) for 3 < alpha <= 4,
    free entangled (NPT) for 4 < alpha <= 5.
    """
    return _family_state(
        "horodecki33", alpha, lambda alpha: (2.0 / 7.0, alpha / 7.0, (5.0 - alpha) / 7.0)
    )


def schmidt_pure(theta: float, shape: BipartiteShape) -> DensityMatrix:
    """Pure state sin(theta)|11> + cos(theta)|22> embedded in M x N."""
    psi = np.zeros(shape.order, dtype=complex)
    psi[shape.index(1, 1)] = np.sin(theta)
    psi[shape.index(2, 2)] = np.cos(theta)
    return DensityMatrix(shape, np.outer(psi, psi.conj()))


def rotation_u(p, n: int) -> np.ndarray:
    """One-parameter rotation of levels 1 and 2, identity on levels 3..n.

    cos(p) (|1><1| + |2><2|) + sin(p) (|1><2| - |2><1|) + sum_{l>2} |l><l|.
    An array of angles gives the rotations stacked along its axes.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    c, s = np.cos(p), np.sin(p)
    u = np.tile(np.eye(n, dtype=complex), np.shape(p) + (1, 1))
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 0, 1] = s
    u[..., 1, 0] = -s
    return u


def random_density(shape: BipartiteShape, seed: int) -> DensityMatrix:
    """Full-rank random density matrix G G^dag / Tr(G G^dag), seeded.

    G has independent standard complex Gaussian entries.
    """
    rng = np.random.default_rng(seed)
    n = shape.order
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return DensityMatrix(shape, mat / mat.trace().real)


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_separable(
    shape: BipartiteShape, terms: int, seed: int
) -> tuple[DensityMatrix, SeparableEnsemble]:
    """Seeded convex mixture of random product pure states.

    Weights are uniform draws normalized to sum 1; factor vectors are
    normalized complex Gaussians. Returns the mixed state together with its
    ensemble certificate.
    """
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    rng = np.random.default_rng(seed)
    raw = rng.random(terms)
    weights = tuple(float(x) for x in raw / raw.sum())
    factors = tuple(
        (_random_unit(rng, shape.dim_a), _random_unit(rng, shape.dim_b))
        for _ in range(terms)
    )
    ensemble = SeparableEnsemble(shape, weights, factors)
    return ensemble.assemble(), ensemble
