"""Generalized Gell-Mann generator basis of SU(n).

The n^2 - 1 Hermitian traceless generators come in three families:

- symmetric      |j><k| + |k><j|                              1 <= j < k <= n
- antisymmetric  -i|j><k| + i|k><j|                           1 <= j < k <= n
- diagonal       sqrt(2/(l(l+1))) (sum_{j<=l} |j><j| - l|l+1><l+1|),  1 <= l <= n-1

They are pairwise orthogonal with Tr(g_a g_b) = 2 delta_ab, and together with
the identity they span the Hermitian n x n matrices, so every elementary
operator |j><k| has an exact expansion in them (``ketbra_in_ggm``).

For n = 2 the basis is the Pauli set: symmetric -> sigma_x, antisymmetric ->
sigma_y, diagonal -> diag(1, -1).

``build_basis`` fills the generators into one read-only (n^2 - 1, n, n)
array, the three families in the order above. The ``ggm v1`` dump, the
witness triples and the search's unitaries all read that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True, eq=False)
class GellMannBasis:
    """Generator basis for one dimension: one read-only (n^2 - 1, n, n) table.

    ``generators`` holds the symmetric family, then the antisymmetric, then
    the diagonal. Off-diagonal families are ordered lexicographically in
    (j, k); the diagonal family by l = 1..n-1. The order is load-bearing:
    serialized dumps and unitary parameter vectors both index into it.
    ``sym``, ``asym``, ``diag`` and ``labeled`` return read-only views of
    the table. Two bases are equal when their dimensions and tables are; the
    hash is the dimension's.
    """

    dim: int
    generators: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, GellMannBasis):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.generators, other.generators)

    def __hash__(self):
        return hash(self.dim)

    def pair_index(self, j: int, k: int) -> int:
        """Position of (j, k), j < k, in the lexicographic pair order."""
        n = self.dim
        if not (1 <= j < k <= n):
            raise ValueError(f"need 1 <= j < k <= {n}, got ({j},{k})")
        return (j - 1) * n - (j - 1) * j // 2 + (k - j - 1)

    def sym(self, j: int, k: int) -> np.ndarray:
        return self.generators[self.pair_index(j, k)]

    def asym(self, j: int, k: int) -> np.ndarray:
        return self.generators[self.dim * (self.dim - 1) // 2 + self.pair_index(j, k)]

    def diag(self, l: int) -> np.ndarray:
        if not (1 <= l <= self.dim - 1):
            raise ValueError(f"need 1 <= l <= {self.dim - 1}, got {l}")
        return self.generators[self.dim * (self.dim - 1) + l - 1]

    def labeled(self) -> Iterator[tuple[str, np.ndarray]]:
        """All generators as (label, matrix), in enumeration order.

        Labels: ``s:j,k`` / ``a:j,k`` / ``d:l``.
        """
        n = self.dim
        pairs = [f"{j},{k}" for j in range(1, n + 1) for k in range(j + 1, n + 1)]
        labels = [f"s:{p}" for p in pairs] + [f"a:{p}" for p in pairs] + [f"d:{l}" for l in range(1, n)]
        return zip(labels, self.generators)

    def stack(self) -> np.ndarray:
        """The (n^2 - 1, n, n) table itself, in enumeration order: shared and
        read-only, not a copy."""
        return self.generators


def build_basis(n: int) -> GellMannBasis:
    """Construct the generator basis of SU(n) as one read-only table."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    j, k = np.triu_indices(n, 1)  # the pairs in lexicographic order
    a = np.arange(len(j))
    g = np.zeros((n * n - 1, n, n), dtype=complex)
    g[a, j, k] = g[a, k, j] = 1.0
    # -1j is complex(-0.0, -1.0), whose real part a dump would print as -0.0
    g[a + len(j), j, k] = complex(0.0, -1.0)
    g[a + len(j), k, j] = 1j
    for l in range(1, n):
        coeff = np.sqrt(2.0 / (l * (l + 1)))
        d = g[2 * len(j) + l - 1]
        d[range(l), range(l)] = coeff
        d[l, l] = -l * coeff
    g.setflags(write=False)
    return GellMannBasis(n, g)


def ketbra_in_ggm(j: int, k: int, basis: GellMannBasis) -> np.ndarray:
    """The elementary operator |j><k| assembled from generators.

    Branches on the index pair:

    - j < k:  ( sym_{jk} + i asym_{jk} ) / 2
    - j > k:  ( sym_{kj} - i asym_{kj} ) / 2
    - j = k:  -sqrt((j-1)/(2j)) diag_{j-1}
              + sum_{m=0}^{n-j-1} diag_{j+m} / sqrt(2(j+m)(j+m+1))
              + I/n

    The diag_{j-1} term carries coefficient 0 at j = 1 (and diag_0 does not
    exist), so it is omitted there; the sum is empty at j = n.
    """
    n = basis.dim
    if not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"indices ({j},{k}) out of range for dimension {n}")
    if j < k:
        return 0.5 * (basis.sym(j, k) + 1j * basis.asym(j, k))
    if j > k:
        return 0.5 * (basis.sym(k, j) - 1j * basis.asym(k, j))
    out = np.eye(n, dtype=complex) / n
    if j > 1:
        out -= np.sqrt((j - 1) / (2.0 * j)) * basis.diag(j - 1)
    for m in range(n - j):
        out += basis.diag(j + m) / np.sqrt(2.0 * (j + m) * (j + m + 1))
    return out
