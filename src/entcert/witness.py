"""Witness observable triples and the separability inequality.

For a level pair (j, k) on an M x N system, three Hermitian observables are
assembled from local SU(n) generators. In elementary form they are

    y1 = |jk><kj| + |kj><jk|
    y2 = |jj><jj| - |kk><kk|
    y3 = |jj><jj| + |kk><kk|

and every separable state obeys y3^2 >= y1^2 + y2^2 for every local-unitary
rotation of the triple. The violation f = y1^2 + y2^2 - y3^2 is therefore an
entanglement certificate whenever it is positive. The partial-transpose
oracle provides the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .ggm import GellMannBasis, ketbra_in_ggm
from .linalg import BipartiteShape, hermitian_eigen, partial_transpose_b, tensor
from .states import DensityMatrix

VIOLATION_TOL = 1e-9
PPT_TOL = 1e-10
IMAG_TOL = 1e-8


class Verdict(str, Enum):
    """Report-level outcome. The inequality alone never proves separability;
    `separable` is only ever reached through the PPT oracle in M*N <= 6."""

    ENTANGLED_CERTIFIED = "entangled_certified"
    SEPARABLE = "separable"
    INCONCLUSIVE = "inconclusive"


class PptVerdict(str, Enum):
    """Partial-transpose oracle outcome."""

    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    INCONCLUSIVE = "inconclusive"


class LocalUnitaryPair(NamedTuple):
    """Unitary rotations (u on A, v on B) applied to the witness triple."""

    u: np.ndarray
    v: np.ndarray

    @classmethod
    def identity(cls, shape: BipartiteShape) -> "LocalUnitaryPair":
        return cls(np.eye(shape.dim_a, dtype=complex), np.eye(shape.dim_b, dtype=complex))


@dataclass(frozen=True)
class WitnessTriple:
    """The three observables for one shape and one level pair."""

    shape: BipartiteShape
    levels: tuple[int, int]
    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray


@dataclass(frozen=True)
class YValues:
    """Expectation values of a (rotated) triple against one state."""

    y1: float
    y2: float
    y3: float

    @property
    def f(self) -> float:
        """Violation y1^2 + y2^2 - y3^2; positive certifies entanglement."""
        return self.y1 * self.y1 + self.y2 * self.y2 - self.y3 * self.y3


def valid_pairs(shape: BipartiteShape) -> tuple[tuple[int, int], ...]:
    """All level pairs (j, k) with 1 <= j < k <= min(M, N), lexicographic."""
    top = min(shape.dim_a, shape.dim_b)
    return tuple((j, k) for j in range(1, top + 1) for k in range(j + 1, top + 1))


def _check_levels(shape: BipartiteShape, j: int, k: int) -> None:
    if not 1 <= j < k:
        raise ValueError(f"level indices must satisfy 1 <= j < k, got ({j},{k})")
    if k > min(shape.dim_a, shape.dim_b):
        # The pair addresses generators on both subsystems, so k is capped by
        # the smaller local dimension.
        raise ValueError(
            f"level pair ({j},{k}) exceeds min(M,N) = {min(shape.dim_a, shape.dim_b)}"
        )


def ketbra_triple(shape: BipartiteShape, j: int, k: int) -> WitnessTriple:
    """The triple built directly from elementary product ket-bras.

    Reference form used to cross-check the generator-assembled constructions.
    """
    _check_levels(shape, j, k)
    n = shape.order
    jk, kj = shape.index(j, k), shape.index(k, j)
    jj, kk = shape.index(j, j), shape.index(k, k)
    y1 = np.zeros((n, n), dtype=complex)
    y1[jk, kj] = y1[kj, jk] = 1.0
    y2 = np.zeros((n, n), dtype=complex)
    y2[jj, jj], y2[kk, kk] = 1.0, -1.0
    y3 = np.zeros((n, n), dtype=complex)
    y3[jj, jj] = y3[kk, kk] = 1.0
    return WitnessTriple(shape, (j, k), y1, y2, y3)


def build_triple_2xd(d: int, basis2: GellMannBasis, basisd: GellMannBasis) -> WitnessTriple:
    """Witness triple for a 2 x d system at levels (1, 2).

    The qubit side is written in its Pauli set (diagonal generator plays the
    role of the population difference), the d side in explicit diagonal-sum
    expansions of the level-1 and level-2 projectors.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if basis2.dim != 2 or basisd.dim != d:
        raise ValueError("basis dimensions must be 2 and d")
    sx, sy, sz = basis2.sym(1, 2), basis2.asym(1, 2), basis2.diag(1)
    raise_a = 0.5 * (sx + 1j * sy)              # |1><2| on A
    lower_a = 0.5 * (sx - 1j * sy)              # |2><1| on A
    up_a = 0.5 * (np.eye(2, dtype=complex) + sz)   # |1><1| on A
    dn_a = 0.5 * (np.eye(2, dtype=complex) - sz)   # |2><2| on A
    raise_b = 0.5 * (basisd.sym(1, 2) + 1j * basisd.asym(1, 2))
    lower_b = 0.5 * (basisd.sym(1, 2) - 1j * basisd.asym(1, 2))
    proj1_b = np.eye(d, dtype=complex) / d
    for m in range(d - 1):
        proj1_b += basisd.diag(m + 1) / np.sqrt(2.0 * (m + 1) * (m + 2))
    proj2_b = np.eye(d, dtype=complex) / d - 0.5 * basisd.diag(1)
    for m in range(d - 2):
        proj2_b += basisd.diag(m + 2) / np.sqrt(2.0 * (m + 2) * (m + 3))
    y1 = tensor(raise_a, lower_b) + tensor(lower_a, raise_b)
    y2 = tensor(up_a, proj1_b) - tensor(dn_a, proj2_b)
    y3 = tensor(up_a, proj1_b) + tensor(dn_a, proj2_b)
    return WitnessTriple(BipartiteShape(2, d), (1, 2), y1, y2, y3)


def build_triple_mxn(
    shape: BipartiteShape,
    j: int,
    k: int,
    basis_a: GellMannBasis,
    basis_b: GellMannBasis,
) -> WitnessTriple:
    """Witness triple for an M x N system at levels (j, k), j < k <= min(M, N).

    Each tensor factor is the generator expansion of the corresponding
    elementary operator, so boundary conventions (vanishing diagonal term at
    level 1, empty sums at the top level) come from ``ketbra_in_ggm``.
    """
    _check_levels(shape, j, k)
    if basis_a.dim != shape.dim_a or basis_b.dim != shape.dim_b:
        raise ValueError("basis dimensions must match the bipartite shape")
    y1 = tensor(ketbra_in_ggm(j, k, basis_a), ketbra_in_ggm(k, j, basis_b)) + tensor(
        ketbra_in_ggm(k, j, basis_a), ketbra_in_ggm(j, k, basis_b)
    )
    jj = tensor(ketbra_in_ggm(j, j, basis_a), ketbra_in_ggm(j, j, basis_b))
    kk = tensor(ketbra_in_ggm(k, k, basis_a), ketbra_in_ggm(k, k, basis_b))
    return WitnessTriple(shape, (j, k), y1, jj - kk, jj + kk)


def _check_uv(uv: LocalUnitaryPair, shape: BipartiteShape) -> None:
    """u and v match the shape on their last two axes; leading axes stack."""
    m, n = shape.dim_a, shape.dim_b
    if uv.u.shape[-2:] != (m, m) or uv.v.shape[-2:] != (n, n):
        raise ValueError(
            f"unitary factor orders {uv.u.shape[-1]}x{uv.v.shape[-1]} do not match "
            f"shape {m}x{n}"
        )


def rotate_triple(t: WitnessTriple, uv: LocalUnitaryPair) -> WitnessTriple:
    """Conjugate each observable by u (x) v."""
    _check_uv(uv, t.shape)
    w = tensor(uv.u, uv.v)
    wd = w.conj().T
    return WitnessTriple(
        t.shape, t.levels, w @ t.y1 @ wd, w @ t.y2 @ wd, w @ t.y3 @ wd
    )


def _real_values(traces) -> YValues:
    """The three expectation values, rejecting a complex residual.

    Complex scalars give np.float64 values (a float subclass), arrays over a
    stack give float arrays, and the check covers every slice. The error
    names the largest residual.
    """
    values = np.asarray(traces)  # one array: a single conversion, not one per value
    imag = values.imag
    if np.abs(imag).max(initial=0.0) > IMAG_TOL:
        raise ValueError(
            f"expectation value has imaginary residual {imag.flat[np.abs(imag).argmax()]:.3e}; "
            "input state or triple is corrupted"
        )
    return YValues(*values.real)


def evaluate(rho: DensityMatrix, t: WitnessTriple, uv: LocalUnitaryPair) -> YValues:
    """Expectation values Tr(rho (u x v) y_i (u x v)^dag).

    Computed by rotating the state once instead of the three observables;
    the traces agree exactly under the cyclic property.
    """
    if rho.shape != t.shape:
        raise ValueError(f"state shape {rho.shape} does not match triple shape {t.shape}")
    _check_uv(uv, t.shape)
    w = tensor(uv.u, uv.v)
    back = w.conj().T @ rho.mat @ w
    return _real_values([np.einsum("ij,ji->", back, y) for y in (t.y1, t.y2, t.y3)])


def _pair_block(rho: DensityMatrix, levels: tuple[int, int], uv: LocalUnitaryPair):
    """The kernel shared by :func:`evaluate_pair` and :func:`evaluate_pair_grad`.

    Returns the y values, columns j, k of u and v, and lw = w^dag rho with
    w the columns |jj>, |jk>, |kj>, |kk> of u (x) v. u and v may carry
    leading stack axes, which broadcast against each other.
    """
    j, k = levels
    _check_levels(rho.shape, j, k)
    _check_uv(uv, rho.shape)
    u2, v2 = uv.u[..., j - 1 : k : k - j], uv.v[..., j - 1 : k : k - j]  # columns j, k
    # np.kron(u2, v2) written out: np.kron's own overhead exceeds the rest of the call.
    w = u2[..., :, None, :, None] * v2[..., None, :, None, :]
    w = w.reshape(w.shape[:-4] + (rho.shape.order, 4))
    # b rounds exactly as w^dag rho w; the gradient reuses the left factor.
    # One 2-D product over every slice's rows: a stacked matmul loops over
    # the slices. For a single pair of unitaries the reshape is a view.
    wd = w.conj().swapaxes(-1, -2)
    lw = (wd.reshape(-1, rho.shape.order) @ rho.mat).reshape(wd.shape)
    # Transposed, the stack axes come last (reversed), so bt[t, s] holds
    # entry (s, t) of every slice: complex scalars for a single pair of
    # unitaries, arrays that .T puts back in stack order otherwise.
    bt = (lw @ w).T
    b00, b33 = bt[0, 0], bt[3, 3]
    y = _real_values(((bt[2, 1] + bt[1, 2]).T, (b00 - b33).T, (b00 + b33).T))
    return y, u2, v2, lw


def evaluate_pair(rho: DensityMatrix, levels: tuple[int, int], uv: LocalUnitaryPair) -> YValues:
    """``evaluate(rho, ketbra_triple(rho.shape, j, k), uv)`` from four columns.

    The elementary triple reads only the columns |jj>, |jk>, |kj>, |kk> of
    u (x) v. Every search path evaluates through this kernel, the search
    itself through :func:`evaluate_pair_grad`, which shares it.

    u and v may carry leading stack axes, which broadcast against each
    other; y1, y2 and y3 are then float arrays over the broadcast stack,
    each slice equal bit for bit to its own single evaluation.
    """
    return _pair_block(rho, levels, uv)[0]


def evaluate_pair_grad(
    rho: DensityMatrix, levels: tuple[int, int], uv: LocalUnitaryPair
) -> tuple[YValues, np.ndarray, np.ndarray]:
    """:func:`evaluate_pair` plus the gradient of f over columns j, k of u and v.

    Returns (y, gu, gv): gu (M x 2) and gv (N x 2) are the cotangents of
    columns j, k of u and v, so a change du2, dv2 of those columns changes f
    by Re Tr(gu^dag du2) + Re Tr(gv^dag dv2).

    With b = w^dag rho w, df = 2 Re Tr(D w^dag rho dw) where D is real
    symmetric with D[1,2] = D[2,1] = 2 y1, D[0,0] = 2 (y2 - y3) and
    D[3,3] = -2 (y2 + y3). u and v are single matrices, not stacks.
    """
    y, u2, v2, lw = _pair_block(rho, levels, uv)
    if lw.ndim != 2:
        raise ValueError("evaluate_pair_grad takes one unitary pair, not a stack")
    d = np.zeros((4, 4))
    d[1, 2] = d[2, 1] = 2 * y.y1
    d[0, 0] = 2 * (y.y2 - y.y3)
    d[3, 3] = -2 * (y.y2 + y.y3)
    # Cotangent of w, split over its factors w[(a, b), (s, t)] = u2[a, s] v2[b, t].
    gw = (2 * (d @ lw)).conj().T.reshape(u2.shape[0], v2.shape[0], 2, 2)
    gu = np.einsum("abst,bt->as", gw, v2.conj())
    gv = np.einsum("abst,as->bt", gw, u2.conj())
    return y, gu, gv


def check_inequality(y: YValues) -> Verdict:
    """Certify entanglement iff the violation exceeds VIOLATION_TOL.

    A non-positive violation is inconclusive: the inequality is only a
    necessary condition for separability.
    """
    if y.f > VIOLATION_TOL:
        return Verdict.ENTANGLED_CERTIFIED
    return Verdict.INCONCLUSIVE


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the B-partial-transposed state."""
    vals, _ = hermitian_eigen(partial_transpose_b(rho.mat, rho.shape))
    return float(vals[0])


def classify_ppt(min_eig: float, shape: BipartiteShape) -> PptVerdict:
    """Oracle verdict from the minimum partial-transpose eigenvalue.

    Negative (below -PPT_TOL) means entangled. Non-negative means PPT, which
    proves separability only in M*N <= 6; larger systems stay inconclusive
    because of bound entanglement.
    """
    if min_eig < -PPT_TOL:
        return PptVerdict.ENTANGLED
    if shape.order <= 6:
        return PptVerdict.SEPARABLE
    return PptVerdict.INCONCLUSIVE
