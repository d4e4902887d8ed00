"""Dense complex linear algebra for small bipartite operators.

Everything here works on square ``numpy`` arrays of ``complex128``. Operator
orders stay tiny (<= 25), so the priorities are correctness and tight,
testable contracts rather than speed. The two helpers only the search's
gradient uses, :func:`unitary_exp_eigen` and :func:`exp_pullback`, also take
leading stack axes, so both local factors of a square shape share one call.
They run once per search evaluation, so they avoid numpy conveniences whose
Python overhead outweighs their arithmetic on such small matrices:
:func:`exp_pullback` writes ``np.sinc`` out in its own steps, with the same
rounding, and reads its columns through a slice without a copy.
:func:`unitary_exp_eigen` does not validate its input as :func:`unitary_exp`
does: the search feeds it generator sums, which are Hermitian by construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BipartiteShape:
    """Local dimensions (dim_a, dim_b) of a bipartite system A x B: integers
    >= 2 (numpy integers too, stored as Python ints)."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        try:  # as check_pair does for level pairs
            for name in ("dim_a", "dim_b"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError:
            raise ValueError(f"local dimensions must be integers, got {self}") from None
        if self.dim_a < 2 or self.dim_b < 2:
            raise ValueError(f"local dimensions must be >= 2, got {self.dim_a}x{self.dim_b}")

    @property
    def order(self) -> int:
        return self.dim_a * self.dim_b

    def index(self, i: int, l: int) -> int:
        """Flat index of the product basis vector |i>_A |l>_B (1-based levels).

        The A index varies slowest: |i>_A |l>_B sits at (i-1)*dim_b + (l-1).
        Every module inherits this ordering.
        """
        if not (1 <= i <= self.dim_a and 1 <= l <= self.dim_b):
            raise ValueError(f"levels ({i},{l}) out of range for {self.dim_a}x{self.dim_b}")
        return (i - 1) * self.dim_b + (l - 1)


def _require_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    return m


def _require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = _require_square(m, what)
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{what} not Hermitian (deviation {dev:.3e})")
    return m


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the A factor on the left.

    Index convention matches :meth:`BipartiteShape.index`: the flat index of
    |i>_A |l>_B is i*order(b) + l with 0-based i, l.
    """
    a = _require_square(a, "left factor")
    b = _require_square(b, "right factor")
    return np.kron(a, b)


def partial_transpose_b(rho: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """Transpose the B factor only: ((i,l),(i',l')) -> ((i,l'),(i',l)).

    Involutive, trace-preserving, and Hermiticity-preserving.
    """
    rho = _require_square(rho, "state")
    m, n = shape.dim_a, shape.dim_b
    if rho.shape[0] != m * n:
        raise ValueError(
            f"matrix order {rho.shape[0]} does not match shape {m}x{n}"
        )
    return rho.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)


def _symmetrized_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of (h + h^dag)/2 over the last two axes; leading axes stack."""
    return np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2)


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns). The input must be
    finite and Hermitian within HERMITICITY_TOL and is symmetrized as (h + h^dag)/2
    before decomposition to absorb roundoff.
    """
    return _symmetrized_eigh(_require_hermitian(h))


def unitary_exp_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(i*h) for Hermitian h, with the (eigenvalues, eigenvectors) it was built from.

    The decomposition is what :func:`exp_pullback` needs, so a caller that
    wants both the unitary and its derivative pays for one eigen-solve.
    h may carry leading stack axes (one eigen-solve over the stack); each
    slice of every output equals bit for bit its own 2-D call and, for the
    unitary, :func:`unitary_exp` of that slice.

    The search's hot path calls this on generator sums, which are Hermitian
    by construction, so h is not re-validated here as in
    :func:`unitary_exp`. It is still symmetrized, so ``eigh`` sees the same
    bits on both paths.
    """
    vals, vecs = _symmetrized_eigh(h)
    u = (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return u, vals, vecs


def unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(i*h) for finite Hermitian h, via eigendecomposition."""
    return unitary_exp_eigen(_require_hermitian(h))[0]


def exp_pullback(cot: np.ndarray, cols, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Derivative with respect to Hermitian h of a function of some columns of exp(i h).

    ``cols`` indexes the columns (0-based) the function reads, as a list or
    a slice (a slice selects them without a copy), and ``cot``
    (n x len(cols)) is its cotangent on them, so the function changes by
    Re Tr(cot^dag dU[:, cols]) when U = exp(i h) changes by dU. ``vals``,
    ``vecs`` are the eigendecomposition of h (from
    :func:`unitary_exp_eigen`). Returns K with
    d/dt Re Tr(G exp(i (h + t e))) = Re Tr(K e) at t = 0 for every
    Hermitian e, where G is zero apart from rows ``cols``, which hold
    cot^dag. All arguments may carry the same leading stack axes; each
    slice of K equals bit for bit its own 2-D call.

    Daleckii-Krein: the derivative of exp(i h) along e is
    V (i Gamma o V^dag e V) V^dag with the divided differences of exp(i x),
    written branch-free as
    Gamma_pq = exp(i (l_p + l_q)/2) sinc((l_p - l_q)/2),
    so equal eigenvalues (h = 0, say) need no special case. G's zero rows
    are never formed: V^dag G is V^dag's columns ``cols`` times cot^dag.
    The sinc is ``np.sinc((hp - hq) / pi)`` written out step by step, which
    rounds the same without that function's Python overhead.
    """
    half = vals / 2
    hp, hq = half[..., :, None], half[..., None, :]
    t = np.pi * ((hp - hq) / np.pi)
    t = np.where(t, t, EPS)  # np.sinc's guard: sin(t)/t is 1 at t = 0
    gamma = np.exp(1j * (hp + hq)) * (np.sin(t) / t)
    vh = vecs.conj().swapaxes(-1, -2)
    return vecs @ (1j * gamma * (vh[..., cols] @ cot.conj().swapaxes(-1, -2) @ vecs)) @ vh
