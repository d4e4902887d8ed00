"""Dense complex linear algebra for small bipartite operators.

Everything here works on square ``numpy`` arrays of ``complex128``. Operator
orders stay tiny (<= 25), so the priorities are correctness and tight,
testable contracts rather than speed: the eigen-solver and the exponential
validate their input. None of it runs in the search's inner loop, which
works on two columns of each local unitary; :func:`unitary_exp` builds a
search's unitaries only for its certificate.
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


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag)/2 of a square complex m, unchecked.

    The result is a new array and exactly Hermitian: entry (j, k) is the
    same two operands summed in the same order as entry (k, j), conjugated.
    This is the one place entcert forms a Hermitian part.
    """
    return (m + m.conj().T) / 2


def _require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """The Hermitian part (see :func:`_hermitian_part`) of a finite square m
    that is Hermitian within HERMITICITY_TOL; ValueError otherwise."""
    m = _require_square(m, what)
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{what} not Hermitian (deviation {dev:.3e})")
    return _hermitian_part(m)


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
        raise ValueError(f"matrix order {rho.shape[0]} does not match shape {m}x{n}")
    return rho.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns). The input must be
    finite and Hermitian within HERMITICITY_TOL; its Hermitian part (see
    :func:`_require_hermitian`) is decomposed, to absorb roundoff.
    """
    return np.linalg.eigh(_require_hermitian(h))


def unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(i*h) for finite Hermitian h, via eigendecomposition."""
    vals, vecs = hermitian_eigen(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T
