"""Bipartite density matrices: validation, named families, seeded samplers.

The named families cover the states used throughout the test and acceptance
suites: the two-qubit Werner family, a 2x3 isotropic-type mixture, the 3x3
Horodecki family (separable / bound entangled / free entangled as its
parameter grows), and two-term Schmidt-form pure states. Samplers are
deterministic per seed (numpy PCG64 behind ``default_rng``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HERMITICITY_TOL, BipartiteShape

TRACE_TOL = 1e-10
MIN_EIG_FLOOR = -1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix with bipartite structure attached.

    Validation: order M*N, Hermitian within 1e-10, unit trace within 1e-10,
    minimum eigenvalue >= -1e-9. The stored array is a read-only copy.
    """

    shape: BipartiteShape
    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != self.shape.order:
            raise ValueError(
                f"matrix order {mat.shape[0]} does not match "
                f"{self.shape.dim_a}x{self.shape.dim_b}"
            )
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        herm_dev = np.abs(mat - mat.conj().T).max()
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian (deviation {herm_dev:.3e})")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} != 1")
        min_eig = np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0]
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
        if w.size == 0 or (w < 0).any() or (w > 1).any():
            raise ValueError("weights must lie in [0, 1]")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum():.15g}, not 1")
        for va, vb in self.factors:
            if va.shape != (self.shape.dim_a,) or vb.shape != (self.shape.dim_b,):
                raise ValueError("factor vector dimensions do not match shape")
            if abs(np.linalg.norm(va) - 1.0) > 1e-12 or abs(np.linalg.norm(vb) - 1.0) > 1e-12:
                raise ValueError("factor vectors must be unit norm")

    def assemble(self) -> DensityMatrix:
        """Mix the product projectors back into a density matrix."""
        n = self.shape.order
        mat = np.zeros((n, n), dtype=complex)
        for p, (va, vb) in zip(self.weights, self.factors):
            vec = np.kron(va, vb)
            mat += p * np.outer(vec, vec.conj())
        return DensityMatrix(self.shape, mat)


def werner(a: float) -> DensityMatrix:
    """Two-qubit Werner state a |psi-><psi-| + (1-a)/4 I, 0 <= a <= 1.

    |psi-> = (|12> - |21>)/sqrt(2). Entangled (NPT) exactly for a > 1/3.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"werner parameter must be in [0, 1], got {a}")
    shape = BipartiteShape(2, 2)
    psi = np.zeros(4, dtype=complex)
    psi[shape.index(1, 2)] = 1.0 / np.sqrt(2.0)
    psi[shape.index(2, 1)] = -1.0 / np.sqrt(2.0)
    mat = a * np.outer(psi, psi.conj()) + (1.0 - a) / 4.0 * np.eye(4)
    return DensityMatrix(shape, mat)


def iso23(a: float) -> DensityMatrix:
    """2x3 mixture a |psi+><psi+| + (1-a)/6 I with |psi+> = (|11> + |22>)/sqrt(2).

    Entangled iff a > 1/4.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"iso23 parameter must be in [0, 1], got {a}")
    shape = BipartiteShape(2, 3)
    psi = np.zeros(6, dtype=complex)
    psi[shape.index(1, 1)] = 1.0 / np.sqrt(2.0)
    psi[shape.index(2, 2)] = 1.0 / np.sqrt(2.0)
    mat = a * np.outer(psi, psi.conj()) + (1.0 - a) / 6.0 * np.eye(6)
    return DensityMatrix(shape, mat)


def horodecki33(alpha: float) -> DensityMatrix:
    """3x3 family (2/7)|psi+><psi+| + (alpha/7) s+ + ((5-alpha)/7) s-.

    |psi+> = (|11> + |22> + |33>)/sqrt(3);
    s+ = (|12><12| + |23><23| + |31><31|)/3, s- its level-swapped partner.
    Separable for 2 <= alpha <= 3, bound entangled (PPT) for 3 < alpha <= 4,
    free entangled (NPT) for 4 < alpha <= 5.
    """
    if not 2.0 <= alpha <= 5.0:
        raise ValueError(f"horodecki33 parameter must be in [2, 5], got {alpha}")
    shape = BipartiteShape(3, 3)
    psi = np.zeros(9, dtype=complex)
    for i in (1, 2, 3):
        psi[shape.index(i, i)] = 1.0 / np.sqrt(3.0)
    plus = np.zeros((9, 9), dtype=complex)
    minus = np.zeros((9, 9), dtype=complex)
    for i, l in ((1, 2), (2, 3), (3, 1)):
        plus[shape.index(i, l), shape.index(i, l)] = 1.0 / 3.0
        minus[shape.index(l, i), shape.index(l, i)] = 1.0 / 3.0
    mat = (
        2.0 / 7.0 * np.outer(psi, psi.conj())
        + alpha / 7.0 * plus
        + (5.0 - alpha) / 7.0 * minus
    )
    return DensityMatrix(shape, mat)


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
