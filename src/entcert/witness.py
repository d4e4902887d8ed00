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

The pair kernel behind :func:`evaluate_pair` runs in two steps. The column
step builds w, the columns |jj>, |jk>, |kj>, |kk> of u (x) v, from columns
j, k of u and of v; it depends on the unitaries only. The contraction step
forms w^dag rho w and reads off the y values; it is the only part that
depends on the state. A scan over a family runs the column step once per
scan, stacks its states once and runs the contraction once per chunk of
STATE_CHUNK of them (:func:`evaluate_pair_states`); the contraction's
memory is one chunk's, however many states the scan has.
The search optimises over the two columns themselves, so its
:func:`evaluate_pair_columns` takes them as given and runs both steps, and
:func:`pair_columns_grad` adds the gradient of f over the columns where the
optimizer asks for it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple

import numpy as np

from .ggm import GellMannBasis, ketbra_in_ggm
from .linalg import BipartiteShape, partial_transpose_b, tensor
from .linalg import hermitian_eigen  # noqa: F401  hooked by name: perfbench/spans.py
from .states import DensityMatrix

VIOLATION_TOL = 1e-9
PPT_TOL = 1e-10
IMAG_TOL = 1e-8
# States per contraction in evaluate_pair_states: enough to fold a scan's
# per-state products into a few, few enough to keep their memory small.
STATE_CHUNK = 16


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


def _level(x) -> int:
    if isinstance(x, bool):  # operator.index would read it as 0 or 1
        raise TypeError
    return operator.index(x)


def check_pair(pair, shape: BipartiteShape | None = None) -> tuple[int, int]:
    """The level pair (j, k) as Python ints; ValueError unless it holds two
    integers (numpy integers too, bools not) with 1 <= j < k, and, given a
    shape, k <= min(M, N): the pair addresses levels on both subsystems."""
    try:
        j, k = map(_level, pair)
    except (TypeError, ValueError):
        raise ValueError(f"level pair must be two integers, got {pair!r}") from None
    if shape is None:
        if not 1 <= j < k:
            raise ValueError(f"level pair ({j}, {k}) must have 1 <= j < k")
    elif not 1 <= j < k <= min(shape.dim_a, shape.dim_b):
        raise ValueError(f"level pair ({j}, {k}) is not valid for shape {shape}")
    return j, k


def ketbra_triple(shape: BipartiteShape, j: int, k: int) -> WitnessTriple:
    """The triple built directly from elementary product ket-bras.

    Reference form used to cross-check the generator-assembled constructions.
    """
    j, k = check_pair((j, k), shape)
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
    j, k = check_pair((j, k), shape)
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

    The traces go through one array: a single pair gives np.float64
    values (a float subclass), a stack gives float arrays, and the check
    covers every slice. The error names the largest residual. A NaN among
    the residuals, as at a non-finite trial point of the search, passes:
    numpy's max propagates it.
    """
    values = np.asarray(traces)
    imag = values.imag
    if np.abs(imag).max(initial=0.0) > IMAG_TOL:
        worst = imag.flat[np.abs(imag).argmax()]
        raise ValueError(
            f"expectation value has imaginary residual {worst:.3e}; input state or triple is corrupted"
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


def _unitary_columns(shape: BipartiteShape, levels, uv: LocalUnitaryPair):
    """Columns j, k of u and of v, after validating the pair and u, v
    against the shape. u and v may carry leading stack axes."""
    j, k = check_pair(levels, shape)
    _check_uv(uv, shape)
    cols = slice(j - 1, k, k - j)  # columns j, k, without a copy
    return uv.u[..., cols], uv.v[..., cols]


def _pair_columns(u2: np.ndarray, v2: np.ndarray):
    """The state-independent half of a pair evaluation.

    u2 (M x 2) and v2 (N x 2) are the columns j, k of u and of v; they may
    carry leading stack axes, which broadcast against each other. Returns
    the arguments :func:`_contract` takes after the state, built from w,
    the columns |jj>, |jk>, |kj>, |kk> of u (x) v.
    """
    order = u2.shape[-2] * v2.shape[-2]
    # np.kron(u2, v2) written out: np.kron's own overhead exceeds the rest of the call.
    w = u2[..., :, None, :, None] * v2[..., None, :, None, :]
    w = w.reshape(w.shape[:-4] + (order, 4))
    # One 2-D product over every slice's rows: a stacked matmul loops over
    # the slices. For a single pair of columns the reshape is a view.
    wd = w.conj().swapaxes(-1, -2)
    return w, wd.reshape(-1, order), wd.shape


def _contract(mats: np.ndarray, w: np.ndarray, wd_rows: np.ndarray, lw_shape, work=None):
    """The y values of one state matrix against prebuilt columns, and lw = w^dag rho.

    ``mats`` is one MN x MN matrix, or a chunk of C of them stacked on a
    leading axis; the y values then carry that axis first, state by state,
    each equal bit for bit to its own single contraction, and lw is None.
    The chunk runs C first products, each the single state's, and one
    second product per slice of the unitary stack, over the rows of every
    state in the chunk. A chunk's products go into ``work``, a flat complex
    array of at least 2 C wd_rows.size entries: chunk after chunk reuses
    that memory instead of fresh pages, whose first touch costs more than
    the products.
    """
    if mats.ndim == 2:
        # b rounds exactly as w^dag rho w; the gradient reuses the left factor.
        lw = (wd_rows @ mats).reshape(lw_shape)
        b = lw @ w
    else:
        # A row of a product does not depend on the rows beside it, so the
        # chunk's rows, stacked per slice, give each state's own bits.
        stack, c, order = lw_shape[:-2], len(mats), lw_shape[-1]
        n = c * wd_rows.size
        lw = np.matmul(wd_rows, mats, out=work[:n].reshape(c, -1, order))
        rows = work[n : 2 * n].reshape((*stack, c, 4, order))
        rows[...] = np.moveaxis(lw.reshape((c, *lw_shape)), 0, -3)
        # b, 4 x 4 per state and slice, takes the place of lw, now copied.
        lw, b = None, work[: 4 * c * len(wd_rows)].reshape((*stack, 4 * c, 4))
        np.matmul(rows.reshape((*stack, 4 * c, order)), w, out=b)
        b = np.moveaxis(b.reshape((*stack, c, 4, 4)), -3, 0)
    # Transposed, the stack axes come last (reversed), so bt[t, s] holds
    # entry (s, t) of every slice: complex scalars for a single pair of
    # unitaries and state, arrays that .T puts back in stack order otherwise.
    bt = b.T
    b00, b33 = bt[0, 0], bt[3, 3]
    return _real_values(((bt[2, 1] + bt[1, 2]).T, (b00 - b33).T, (b00 + b33).T)), lw


def evaluate_pair(rho: DensityMatrix, levels: tuple[int, int], uv: LocalUnitaryPair) -> YValues:
    """``evaluate(rho, ketbra_triple(rho.shape, j, k), uv)`` from four columns.

    The elementary triple reads only the columns |jj>, |jk>, |kj>, |kk> of
    u (x) v. Every search path evaluates through this kernel: the search
    itself through :func:`evaluate_pair_columns`, which shares it, and
    ``scan_1d`` through :func:`evaluate_pair_states`.

    u and v may carry leading stack axes, which broadcast against each
    other; y1, y2 and y3 are then float arrays over the broadcast stack,
    each slice equal bit for bit to its own single evaluation.
    """
    cols = _pair_columns(*_unitary_columns(rho.shape, levels, uv))
    return _contract(rho.mat, *cols)[0]


def evaluate_pair_states(
    shape: BipartiteShape, levels: tuple[int, int], uv: LocalUnitaryPair, states
) -> YValues:
    """:func:`evaluate_pair` for every state of the sequence ``states``, all
    of ``shape``: y1, y2 and y3 are arrays with the states axis first, then
    the unitaries' stack axes, each entry equal bit for bit to its own
    :func:`evaluate_pair`.

    The columns of u (x) v, which do not depend on the state, are built
    (and the pair and u, v validated) once. Each state is checked against
    ``shape`` and the states are stacked once; then STATE_CHUNK of them at
    a time are contracted in one :func:`_contract` call, every chunk in
    the same workspace. The products' memory is one chunk's; the stacked
    states and the y values grow with the number of states.
    """
    w, wd_rows, lw_shape = _pair_columns(*_unitary_columns(shape, levels, uv))
    mats = np.empty((len(states), shape.order, shape.order), dtype=complex)
    for mat, rho in zip(mats, states):
        if rho.shape != shape:
            raise ValueError(f"state shape {rho.shape} does not match shape {shape}")
        mat[...] = rho.mat
    ys = np.empty((3, len(mats), *lw_shape[:-2]))
    work = np.empty(2 * STATE_CHUNK * wd_rows.size, dtype=complex)
    for i in range(0, len(mats), STATE_CHUNK):
        y = _contract(mats[i : i + STATE_CHUNK], w, wd_rows, lw_shape, work)[0]
        ys[:, i : i + STATE_CHUNK] = y.y1, y.y2, y.y3
    return YValues(*ys)


@cache
def _identity_columns(shape: BipartiteShape, pairs: tuple[tuple[int, int], ...]):
    """The column step over a stack of the identity's columns j, k on each
    side, one slice per pair (j, k) of ``pairs``, each pair checked; built
    once per shape and pairs, and read-only."""
    idx = np.array([check_pair(pair, shape) for pair in pairs]) - 1
    cols = _pair_columns(
        *(np.eye(dim, dtype=complex)[idx].swapaxes(-1, -2) for dim in (shape.dim_a, shape.dim_b))
    )
    for a in cols[:2]:
        a.setflags(write=False)
    return cols


def evaluate_identity_pairs(rho: DensityMatrix, pairs: tuple[tuple[int, int], ...]) -> YValues:
    """:func:`evaluate_pair` at the identity for every pair of ``pairs``, in
    one contraction: y1, y2 and y3 are arrays over the pairs, in their
    order, each entry equal bit for bit to its own pair's evaluation.
    ``pairs`` is a tuple of level pairs, each valid for rho's shape."""
    return _contract(rho.mat, *_identity_columns(rho.shape, pairs))[0]


def evaluate_pair_columns(
    rho: DensityMatrix, u2: np.ndarray, v2: np.ndarray
) -> tuple[YValues, np.ndarray]:
    """The y values of one pair's columns, and lw = w^dag rho, which
    :func:`pair_columns_grad` reads.

    u2 (M x 2) and v2 (N x 2) stand for columns j, k of u and of v: the
    y values are :func:`evaluate_pair`'s for any u, v with those columns at
    the pair's levels. f is a polynomial in the columns and is evaluated
    as given; orthonormality is the caller's. The columns are one pair, not
    a stack; anything else is rejected before any product is formed.
    """
    m, n = rho.shape.dim_a, rho.shape.dim_b
    if u2.shape != (m, 2) or v2.shape != (n, 2):
        raise ValueError(
            f"evaluate_pair_columns takes one {m}x2 and one {n}x2 pair of columns, not a stack; "
            f"got {u2.shape} and {v2.shape}"
        )
    return _contract(rho.mat, *_pair_columns(u2, v2))


def pair_columns_grad(
    y: YValues, lw: np.ndarray, u2: np.ndarray, v2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of f over the columns u2, v2, given the y values and lw
    that :func:`evaluate_pair_columns` returned for them: (gu, gv), the
    cotangents of u2 (M x 2) and v2 (N x 2), so a change du2, dv2 changes f
    by Re Tr(gu^dag du2) + Re Tr(gv^dag dv2).

    With b = w^dag rho w, df = 2 Re Tr(D w^dag rho dw) where D is real
    symmetric with D[1,2] = D[2,1] = 2 y1, D[0,0] = 2 (y2 - y3) and
    D[3,3] = -2 (y2 + y3).
    """
    m, n = len(u2), len(v2)
    # Row i of D has one nonzero entry, in column (0, 2, 1, 3)[i], so D @ lw
    # is a scaling of lw's rows (0, 2, 1, 3), with the same bits: D's zero
    # entries would only add exact zeros. The cotangent of w is
    # 2 (D lw)^dag, so d holds those entries times 2 (exact: a power of two).
    d = np.array((4 * (y.y2 - y.y3), 4 * y.y1, 4 * y.y1, -4 * (y.y2 + y.y3)))
    # Cotangent of w, split over its factors w[(a, b), (s, t)] = u2[a, s] v2[b, t].
    gw = (d[:, None] * lw[[0, 2, 1, 3]]).conj().T.reshape(m, n, 2, 2)
    gu = np.einsum("abst,bt->as", gw, v2.conj())
    gv = np.einsum("abst,as->bt", gw, u2.conj())
    return gu, gv


def check_inequality(y: YValues) -> Verdict:
    """Certify entanglement iff the violation exceeds VIOLATION_TOL.

    A non-positive violation is inconclusive: the inequality is only a
    necessary condition for separability.
    """
    if y.f > VIOLATION_TOL:
        return Verdict.ENTANGLED_CERTIFIED
    return Verdict.INCONCLUSIVE


def ppt_eigen(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of the B-partial-transposed state.

    No Hermiticity check runs here: ``rho.mat`` is exactly Hermitian (see
    :class:`DensityMatrix`) and a partial transpose only permutes its
    entries, so rho^Gamma is exactly Hermitian too.
    """
    return np.linalg.eigh(partial_transpose_b(rho.mat, rho.shape))


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Minimum eigenvalue of the B-partial-transposed state."""
    return float(ppt_eigen(rho)[0][0])


def classify_ppt(min_eig: float, shape: BipartiteShape) -> PptVerdict:
    """Oracle verdict from the minimum partial-transpose eigenvalue.

    Negative (below -PPT_TOL) means entangled. Non-negative means PPT, which
    proves separability only in M*N <= 6; larger systems stay inconclusive
    because of bound entanglement. A NaN proves nothing: inconclusive.
    """
    if min_eig < -PPT_TOL:
        return PptVerdict.ENTANGLED
    if min_eig >= -PPT_TOL and shape.order <= 6:
        return PptVerdict.SEPARABLE
    return PptVerdict.INCONCLUSIVE
