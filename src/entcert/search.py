"""Violation maximization over parameterized local unitaries, one level pair at a time.

Local unitaries are parameterized through the generator exponential map:
u = exp(i sum_a theta_a g_a) with g_a running over the SU(M) basis in its
enumeration order (and likewise on B), so the parameters cover all of
SU(M) x SU(N); global phases drop out of the conjugation. Reports and
certificates carry these theta.

The inequality for pair (j, k) reads only columns j, k of u and of v, so
the search optimises those columns directly: free complex matrices A
(M x 2) and B (N x 2), which Gram-Schmidt maps to orthonormal columns.
Every orthonormal pair of columns is columns j, k of some u in SU(M), so
nothing is lost. Maximization is multi-start L-BFGS with the analytic
gradient of the violation over A and B; the objective keeps the best
point it evaluates over all starts, the earliest on ties. The starts, in
order: the identity's columns; the eigenvector start, read in closed form
off the lowest eigenvector of the partial transpose rho^Gamma; then seeded
random starts, Gram-Schmidt of complex Gaussian A and B, so Haar random
(Mezzadri, Notices AMS 54 (2007) 592). The best point's columns, as the
objective computed them (no Gram-Schmidt runs twice), are turned back into
theta: each side is completed to a unitary by Gram-Schmidt of the
identity's other columns, both sides' logs come from one stacked
eigen-solve, and each side's theta is one product with the generator
rows that :func:`build_unitaries` multiplies theta by, the basis table's
flattened view, so one table of generators serves both directions. The
certificate is evaluated at the unitaries rebuilt from theta; when the
best point is the first evaluated, the zero start's, it reports theta = 0
with the y values the objective computed there: that point is the
identity's columns, so they are the identity's certificate, with no
second kernel call. The zero start's variables are built once per shape
and pair and shared read-only.
The optimizer, :func:`minimize`, is this module's own numpy L-BFGS with a
backtracking line search, so a search needs numpy only; the objective
computes the gradient only at the points :func:`minimize` asks it for,
the start and each accepted step, but not at a point that reaches the
spectral bound (below).

With a = <x|rho^Gamma|x>, b = <y|rho^Gamma|y> and c = <x|rho^Gamma|y> for
the orthonormal product vectors x = u_j (x) conj(v_j) and
y = u_k (x) conj(v_k), the violation is f = 4((Re c)^2 - ab). So one
eigen-solve of rho^Gamma, shared with the report's ``ppt_min``, settles
how far the search need go:
- when rho^Gamma is proven positive (its computed minimum eigenvalue is
  above PPT_TOL, far above the eigen-solve's rounding), f <= 0 everywhere
  and no start can certify, so the zero start runs alone;
- otherwise f <= B = 4 max(0, -lambda_min) lambda_max everywhere, by
  interlacing. Every ascent gets one stop value, :func:`minimize`'s
  ``f_stop``, passed once f certifies (f > VIOLATION_TOL) and reaches B
  (f >= B - BOUND_TOL). A start that passes it ends there, its start or
  an accepted step, with no gradient there, and so does the search. The
  eigenvector start reaches B on the named states, so their searches end
  after two starts and two evaluations at most.

What it detects: f > 0 is reachable exactly when rho^Gamma is negative on
some vector of Schmidt rank <= 2 (1-copy distillability); NPT states with
no such vector stay inconclusive.

By default the search runs the level pair (1, 2). A signed permutation
P in SU(M) (e_1 -> e_j, e_2 -> e_k, one further column negated when the
permutation is odd) moves columns j, k to columns 1, 2: pair (j, k) at
(u, v) gives the same y values as pair (1, 2) at (uP_M, vP_N). So the
(1, 2) search space holds every point of every other pair's. At the
identity the pairs differ, so identity reports keep them all, evaluated in
one contraction over a stack of their identity columns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from enum import IntEnum
from functools import cache
from typing import NamedTuple

import numpy as np

from . import states
from .ggm import build_basis
from .linalg import EPS, BipartiteShape, unitary_exp
from .states import FAMILY_PARAMS, DensityMatrix, rotation_u
from .witness import (
    PPT_TOL,
    VIOLATION_TOL,
    LocalUnitaryPair,
    PptVerdict,
    Verdict,
    YValues,
    check_inequality,
    check_pair,
    classify_ppt,
    evaluate_identity_pairs,
    evaluate_pair,
    evaluate_pair_columns,
    evaluate_pair_states,
    pair_columns_grad,
    ppt_eigen,
    ppt_min_eigenvalue,
    valid_pairs,
)
from .witness import build_triple_mxn, evaluate  # noqa: F401  hooked by name: perfbench/spans.py


# L-BFGS constants: the history length and stopping tests are L-BFGS-B's
# defaults (Byrd, Lu, Nocedal and Zhu, SIAM J. Sci. Comput. 16 (1995) 1190;
# Liu and Nocedal, Math. Prog. 45 (1989) 503). ARMIJO_C1 is the textbook 1e-4.
HISTORY = 10  # (s, y) pairs in the inverse-Hessian estimate
ARMIJO_C1 = 1e-4  # sufficient decrease
MAX_LINE_EVALS = 20  # evaluations one line search may spend
F_RTOL = 1e7 * EPS  # stop when an iteration lowers f by less, relatively
GTOL = 1e-7  # a search start has converged once max|gradient| <= GTOL
BOUND_TOL = 1e-12  # a start within this of the spectral bound ends the search


class MinimizeStatus(IntEnum):
    """Why :func:`minimize` stopped. Every status but REACHED_F_STOP
    returns the point where the gradient last ran."""

    CONVERGED = 0  # max|gradient| <= gtol, or the drop in f fell below F_RTOL
    ITERATION_CAP = 1  # maxiter iterations ran
    LINE_SEARCH_FAILED = 2  # no step with sufficient decrease, even along -gradient
    REACHED_F_STOP = 3  # f <= options["f_stop"] at x0 or an accepted point; no gradient there


class MinimizeResult(NamedTuple):
    """Where one :func:`minimize` run stopped: the point, f there, the
    iterations taken and why it stopped."""

    x: np.ndarray
    fun: float
    nit: int
    status: MinimizeStatus


def _lbfgs_direction(g: np.ndarray, steps: np.ndarray, changes: np.ndarray) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the steps s_i and gradient
    changes y_i (rows, oldest first), seeded with s.y / y.y of the newest.

    The two-loop recursion (Nocedal and Wright, *Numerical Optimization*,
    Algorithm 7.4) with every inner product it needs read from the Gram
    matrix S Y^T and three matrix-vector products, so its loops run on
    Python floats instead of one numpy call per pair and step.
    """
    k = len(steps)
    if not k:
        return -g
    q = -g  # H is linear, so recursing on -g gives -H g
    sy = (steps @ changes.T).tolist()  # sy[i][j] = s_i . y_j
    a = (steps @ q).tolist()
    for i in reversed(range(k)):
        row, t = sy[i], a[i]
        for j in range(i + 1, k):
            t -= a[j] * row[j]
        a[i] = t / row[i]
    newest = changes[-1]
    r = (sy[-1][-1] / (newest @ newest)) * (q - np.dot(a, changes))
    c = (changes @ r).tolist()
    for i in range(k):
        t = c[i]
        for j in range(i):
            t += c[j] * sy[j][i]
        c[i] = a[i] - t / sy[i][i]
    return r + np.dot(c, steps)


def _backtrack(fun, x, f0: float, d, slope0: float, step: float):
    """(x + t d, f) for the first t of step, step/2, step/4, ... with
    sufficient decrease, f <= f0 + ARMIJO_C1 t slope0, or None once
    MAX_LINE_EVALS points failed (Nocedal and Wright, *Numerical
    Optimization*, Algorithm 3.1). A NaN f fails the test, so a non-finite
    f counts as too far. No gradient runs here: the caller asks for one at
    the accepted point, if it needs one.
    """
    for _ in range(MAX_LINE_EVALS):
        x_new = x + step * d
        f = float(fun(x_new))
        if f <= f0 + ARMIJO_C1 * step * slope0:
            return x_new, f
        step *= 0.5
    return None


def minimize(fun, x0, jac, options) -> MinimizeResult:
    """Minimize ``fun`` from ``x0`` by L-BFGS with a backtracking line search.

    ``fun(x)`` returns f as a float and ``jac(x)`` its gradient. Every trial
    point costs one call of ``fun``; ``jac`` runs at ``x0`` and at each
    accepted point, after ``fun`` there, except at a point that reaches
    the stop value. ``options`` holds ``"maxiter"``, the iteration cap, and
    ``"gtol"``: the run has converged once max|gradient| <= gtol, or once
    an iteration lowers f by at most F_RTOL * max(|f|, 1). It may hold
    ``"f_stop"``, a value of f low enough to end the run (default -inf):
    once f <= f_stop at x0 or at an accepted point, the run returns there
    at once, with status REACHED_F_STOP and no gradient asked for there.
    The first step along -gradient has length 1, later ones try the full
    quasi-Newton step first. A failed line search drops the history and
    retries along -gradient; a second failure ends the run. The returned
    point is the last one accepted (``x0`` if none was); each accepted
    point lowers f.

    A module global so callers can wrap it where the search looks it up.
    """
    maxiter, gtol = options["maxiter"], options["gtol"]
    f_stop = options.get("f_stop", -math.inf)
    x = np.array(x0, dtype=float)
    f = float(fun(x))
    nit = 0
    if f <= f_stop:
        return MinimizeResult(x, f, nit, MinimizeStatus.REACHED_F_STOP)
    g = jac(x)
    steps = changes = no_history = np.empty((0, x.size))
    while not abs(g).max() <= gtol:
        if nit >= maxiter:
            return MinimizeResult(x, f, nit, MinimizeStatus.ITERATION_CAP)
        d = _lbfgs_direction(g, steps, changes)
        slope = float(g @ d)
        if len(steps) and not slope < 0.0:  # lost descent: start over from -g
            steps = changes = no_history
            d, slope = -g, float(g @ -g)
        step = 1.0 if len(steps) else 1.0 / math.sqrt(-slope)
        found = _backtrack(fun, x, f, d, slope, step)
        if found is None:
            if not len(steps):
                return MinimizeResult(x, f, nit, MinimizeStatus.LINE_SEARCH_FAILED)
            steps = changes = no_history
            continue
        x_new, f_new = found
        nit += 1
        if f_new <= f_stop:
            return MinimizeResult(x_new, f_new, nit, MinimizeStatus.REACHED_F_STOP)
        g_new = jac(x_new)
        s, y = x_new - x, g_new - g
        if s @ y > EPS * (y @ y):  # skip a pair that would break positive definiteness
            steps = np.concatenate((steps[1 - HISTORY :], s[None]))
            changes = np.concatenate((changes[1 - HISTORY :], y[None]))
        small_drop = f - f_new <= F_RTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if small_drop:
            break
    return MinimizeResult(x, f, nit, MinimizeStatus.CONVERGED)


@dataclass(frozen=True)
class UnitaryParams:
    """Generator coefficients for one local-unitary pair.

    theta_a has M^2 - 1 entries, theta_b has N^2 - 1, both indexing the
    basis enumeration order of :meth:`GellMannBasis.stack`.
    """

    theta_a: tuple[float, ...]
    theta_b: tuple[float, ...]

    def __post_init__(self):
        for theta in (self.theta_a, self.theta_b):
            if not all(map(math.isfinite, theta)):
                raise ValueError("unitary parameters must be finite")

    @classmethod
    @cache
    def zero(cls, shape: BipartiteShape) -> "UnitaryParams":
        """All-zero coefficients for ``shape``, built once per shape (the
        object is immutable, so every identity report shares it)."""
        return cls(
            (0.0,) * (shape.dim_a**2 - 1),
            (0.0,) * (shape.dim_b**2 - 1),
        )


@dataclass(frozen=True)
class SearchConfig:
    """Budget and determinism knobs for the violation search.

    restarts: seeded Haar random starts after the zero and eigenvector
        starts, an integer. They run only while no start has certified and
        reached the spectral bound (see :func:`maximize_violation`).
    max_iters: L-BFGS iterations per start, an integer.
    seed: root of the per-restart random substreams, an integer.
    pair: the level pair (j, k) to search, integers with 1 <= j < k; None
        means (1, 2), which reaches every other pair's columns through a
        signed permutation in SU(M) x SU(N) (see the module docstring).
    """

    restarts: int = 16
    max_iters: int = 400
    seed: int = 0
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        # bool is an Integral, but True in an integer slot is a mistake
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("restarts", "max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.pair is not None:  # kept as check_pair returns it: a tuple of Python ints
            object.__setattr__(self, "pair", check_pair(self.pair))


@dataclass(frozen=True)
class DetectionReport:
    """Verdict plus a re-checkable certificate and the oracle comparison."""

    verdict: Verdict
    best_f: float
    best_pair: tuple[int, int]
    best_params: UnitaryParams
    y_values: YValues
    ppt_min: float
    ppt_verdict: PptVerdict
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "best_f": self.best_f,
            "best_pair": list(self.best_pair),
            "best_params": {name: list(theta) for name, theta in asdict(self.best_params).items()},
            "y_values": {**asdict(self.y_values), "f": self.y_values.f},
            "ppt_min": self.ppt_min,
            "ppt_verdict": self.ppt_verdict.value,
            "evaluations": self.evaluations,
        }


@cache
def _generator_rows(n: int) -> np.ndarray:
    """The SU(n) generators in basis order, each flattened to a row: the
    read-only (n^2 - 1, n^2) view of :func:`build_basis`'s table, built
    once per n."""
    return build_basis(n).stack().reshape(n * n - 1, n * n)


def build_unitaries(params: UnitaryParams, shape: BipartiteShape) -> LocalUnitaryPair:
    """Exponentiate parameter vectors into a local unitary pair.

    Each side's generator sum sum_a theta_a g_a is one vector-matrix product
    with :func:`_generator_rows`, the generator table flattened to rows (the
    same products, bit for bit, as a tensor contraction of theta with the
    table), and :func:`unitary_exp`, which checks that the sum is Hermitian,
    is its only exponential.
    """
    theta_a, theta_b = np.asarray(params.theta_a), np.asarray(params.theta_b)
    m, n = shape.dim_a, shape.dim_b
    if theta_a.shape != (m * m - 1,) or theta_b.shape != (n * n - 1,):
        raise ValueError(
            f"parameter lengths ({theta_a.size}, {theta_b.size}) do not match "
            f"generator counts ({m * m - 1}, {n * n - 1})"
        )
    u, v = (
        unitary_exp((theta @ _generator_rows(d)).reshape(d, d))
        for theta, d in ((theta_a, m), (theta_b, n))
    )
    return LocalUnitaryPair(u, v)


@cache
def _zero_start(shape: BipartiteShape, pair: tuple[int, int]) -> np.ndarray:
    """The zero start's search variables, the identity's columns at the
    pair, built once per shape and pair and read-only (:func:`minimize`
    ascends from a copy)."""
    cols = [pair[0] - 1, pair[1] - 1]
    u, v = LocalUnitaryPair.identity(shape)
    x0 = _pack(u[:, cols], v[:, cols])
    x0.setflags(write=False)
    return x0


def _gram_schmidt(a: np.ndarray):
    """Gram-Schmidt on two columns, held as the rows of a (2 x n): q, the
    orthonormal columns as rows, and r = ((r1, c), (0, r2)), upper
    triangular with a positive diagonal, as (r1, c, r2), where a^T = q^T r.

    The projection off q1 runs twice ("twice is enough"), so q stays
    orthonormal to rounding even when a's columns are nearly parallel, as
    they can be at the optimizer's trial points. Mathematically the second
    pass removes nothing, so the pullback is unchanged.
    """
    q = a.copy()
    q1, p = q  # views of the rows
    r1 = math.sqrt(np.vdot(q1, q1).real)
    q1 /= r1
    c = np.vdot(q1, p)
    p -= c * q1
    c2 = np.vdot(q1, p)  # what rounding left along q1
    p -= c2 * q1
    r2 = math.sqrt(np.vdot(p, p).real)
    p /= r2
    return q, (r1, c + c2, r2)


def _gram_schmidt_pullback(g: np.ndarray, q: np.ndarray, r) -> np.ndarray:
    """The cotangent of a, given g, the cotangent of q, for :func:`_gram_schmidt`'s
    q and r of a (cotangents in the Re Tr(g^dag dq) convention, columns as rows).

    Reverse-mode QR with no cotangent on r: with columns as columns,
    A = Q R has the cotangent (G - Q H) R^-dag, where H is the Hermitian
    matrix with the upper triangle of Q^dag G and a real diagonal (Walter
    and Lehmann, arXiv:1802.04599; the real diagonal keeps r's diagonal
    real). Here it is that formula transposed.
    """
    r1, c, r2 = r
    (x11, x12), (_, x22) = (q.conj() @ g.T).tolist()  # Q^dag G
    h_t = np.array(((x11.real, x12.conjugate()), (x12, x22.real)))
    r_inv_conj = np.array(((1 / r1, -c.conjugate() / (r1 * r2)), (0.0, 1 / r2)))
    return r_inv_conj @ (g - h_t @ q)


def _columns(x: np.ndarray, m: int):
    """((qa, ra), (qb, rb)): :func:`_gram_schmidt` of the A and B that x packs (:func:`_pack`)."""
    z = x.view(complex).reshape(2, -1)
    return _gram_schmidt(z[:, :m]), _gram_schmidt(z[:, m:])


def _column_objective(rho: DensityMatrix):
    """The search's objective and the one owner of what it has evaluated:
    ``(neg_f, neg_grad, seen)``. ``neg_f(x)`` is -f at x, ``neg_grad(x)``
    its gradient over x at the x that ``neg_f`` last ran at, the pair that
    :func:`minimize` takes, and ``seen()`` gives (evaluations, best): the
    number of ``neg_f`` calls, and (y, qa, qb, n) at the largest f so far,
    the earliest such point on ties: its y values, its orthonormal columns
    (each side's two as rows; the arrays y was computed from, not copies)
    and its evaluation number n, from 1. best is None before the first call.

    :func:`_columns` maps x to two orthonormal columns on each side, which
    stand for columns j, k of u and of v; :func:`evaluate_pair_columns`
    gives f there and keeps the products the gradient reads, so
    ``neg_grad`` runs only the gradient's own tail:
    :func:`pair_columns_grad` for the column cotangents and
    :func:`_gram_schmidt_pullback` to carry them back to A and B. A complex
    entry's cotangent g contributes Re(conj(g) dz), so its real and
    imaginary parts are the gradient over the entry's real and imaginary
    parts, so :func:`_pack` lays them out in the order x holds them. The
    gradient is a C-contiguous float64 vector: a strided one would round
    ``g @ d`` in the optimizer differently. ``evaluate_pair_columns`` and
    ``pair_columns_grad`` are looked up in this module on every call, where
    callers can wrap them.
    """
    m = rho.shape.dim_a
    kept = None  # (y, lw, qa, ra, qb, rb) where neg_f last ran
    evaluations, best = 0, None

    def neg_f(x) -> float:
        nonlocal kept, evaluations, best
        (qa, ra), (qb, rb) = _columns(x, m)
        y, lw = evaluate_pair_columns(rho, qa.T, qb.T)
        kept = y, lw, qa, ra, qb, rb
        evaluations += 1
        f = y.f
        if best is None or f > best[0].f:
            best = y, qa, qb, evaluations
        return -f

    def neg_grad(x) -> np.ndarray:
        y, lw, qa, ra, qb, rb = kept
        gu, gv = pair_columns_grad(y, lw, qa.T, qb.T)
        ga, gb = _gram_schmidt_pullback(gu.T, qa, ra), _gram_schmidt_pullback(gv.T, qb, rb)
        return -_pack(ga.T, gb.T)

    def seen():
        return evaluations, best

    return neg_f, neg_grad, seen


def _pack(u2: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The search variables x for the columns u2 (M x 2) and v2 (N x 2):
    the real and imaginary parts of each entry in turn, first column of u2
    then of v2, then their second columns."""
    # the columns as rows, A's entries then B's, C-ordered: their real view
    # is exactly that sequence
    z = np.ascontiguousarray(np.concatenate((u2, v2)).T, dtype=complex)
    return z.view(float).ravel()


def _eigenvector_start(rho: DensityMatrix, z: np.ndarray) -> np.ndarray:
    """The search variables whose columns hold the top two Schmidt terms of
    z, an eigenvector of rho^Gamma: the eigenvector start.

    With z reshaped to M x N and its SVD e S fh, z = sum_s S_s e_s (x) f_s,
    where e_s are the columns of e and f_s the rows of fh. The start puts
    e_1, e_2 in u's columns and conj(f_1), conj(f_2) in v's, so the product
    vectors x = u_1 (x) conj(v_1) and y = u_2 (x) conj(v_2) that a, b and c
    read (see the module docstring) are e_1 (x) f_1 and e_2 (x) f_2. Then
    u_1's phase is turned so that c = <u_1 v_2|rho|u_2 v_1>, the same
    number as <x|rho^Gamma|y>, is real and positive: f = 4((Re c)^2 - ab)
    is largest there over that phase.
    """
    m, n = rho.shape.dim_a, rho.shape.dim_b
    e, _, fh = np.linalg.svd(z.reshape(m, n), full_matrices=False)
    u2, v2 = e[:, :2], fh[:2].conj().T
    # u_1 (x) v_2 and u_2 (x) v_1, flattened outer products: np.kron's values
    # without its overhead
    left = (u2[:, 0, None] * v2[:, 1]).ravel()
    right = (u2[:, 1, None] * v2[:, 0]).ravel()
    c = left.conj() @ rho.mat @ right
    if c:
        u2[:, 0] *= c / abs(c)
    return _pack(u2, v2)


def _completed(q: np.ndarray, levels: tuple[int, int]) -> np.ndarray:
    """A unitary with q's two orthonormal columns at the levels (j, k).

    The other columns are the identity's, each projected off what is
    already in place (pivoted Gram-Schmidt): p = I - q q^dag projects onto
    q's complement, so its column i is e_i's residual and p[i, i] that
    residual's squared norm. Each free column, in level order, takes the
    largest residual, normalised, and p then drops it. p's trace is the
    number of free columns left, so the largest p[i, i] is at least 1/n:
    no column is ever divided by a vanishing norm, also where some e_i lies
    in span(q). The new column's entry i is sqrt(p[i, i]), real and
    positive, so the identity's columns complete to the identity (ties go
    to the lowest level).
    """
    n = len(q)
    cols = [levels[0] - 1, levels[1] - 1]
    u = np.empty((n, n), dtype=complex)
    u[:, cols] = q
    p = np.eye(n) - q @ q.conj().T
    for slot in (i for i in range(n) if i not in cols):
        i = p.diagonal().real.argmax()
        u[:, slot] = col = p[:, i] / math.sqrt(p[i, i].real)
        p -= col[:, None] * col.conj()
    return u


def _theta(u2: np.ndarray, v2: np.ndarray, levels: tuple[int, int]) -> UnitaryParams:
    """Generator coefficients whose exponentials exp(i sum_a theta_a g_a)
    have u2's and v2's orthonormal columns at the levels (j, k), each up to
    one global phase.

    :func:`_completed` completes each side to a unitary, u and v, and both
    are read off together, as one stack of two k x k unitaries,
    k = max(M, N), the smaller side padded with the identity:
    - h = -i log w = V diag(angle(lambda)) V^dag for each slice w, from
      ``eig``'s eigenvalues lambda and its eigenvector columns V
      re-orthonormalised by QR (a unitary is normal, so only vectors of
      one repeated eigenvalue mix). With V unitary, h is Hermitian even
      where a repeated eigenvalue -1 gets the angles pi and -pi on
      different vectors. numpy solves each slice of a stack on its own,
      so one ``eig`` and one ``qr`` serve both sides, and no vector mixes
      the two sides; the padding's eigenvalue 1 has angle 0, so whatever
      of it mixes into u's own eigenvalue 1 adds nothing.
    - theta_a = Tr(g_a h_a) / 2 reads the traceless part of h_a, u's block
      of the first slice; its exponential is u times the global phase
      exp(-i Tr(h_a) / M), and likewise on B. f does not see those phases,
      so no branch of the log needs choosing. Each side's read-off is one
      product with the same generator rows, :func:`_generator_rows`, that
      :func:`build_unitaries` multiplies theta by: Tr(g h) is the sum of
      g[i, j] h[j, i], so each flattened generator meets h transposed.
    The identity's columns complete to the identity, whose eigenvalues
    are 1 exactly, so they read off as theta = 0 on their side, at every
    pair.
    """
    m, n = len(u2), len(v2)
    k = max(m, n)
    w = np.zeros((2, k, k), dtype=complex)
    w[:] = np.eye(k)
    w[0, :m, :m], w[1, :n, :n] = _completed(u2, levels), _completed(v2, levels)
    vals, vecs = np.linalg.eig(w)
    vecs = np.linalg.qr(vecs)[0]
    h = (vecs * np.angle(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    theta_a, theta_b = (
        (_generator_rows(d) @ h[s, :d, :d].T.ravel()).real / 2
        for s, d in enumerate((m, n))
    )
    return UnitaryParams(tuple(theta_a.tolist()), tuple(theta_b.tolist()))


def objective(rho: DensityMatrix, pair: tuple[int, int], params: UnitaryParams) -> float:
    """Violation f for one level pair and one parameter point. Deterministic.

    Not on the search's path: it is the entry point for re-checking a
    report's certificate from its pair and parameters alone.
    """
    return evaluate_pair(rho, pair, build_unitaries(params, rho.shape)).f


def _final_verdict(ineq: Verdict, ppt: PptVerdict) -> Verdict:
    if ineq is Verdict.ENTANGLED_CERTIFIED:
        return ineq
    if ppt is PptVerdict.SEPARABLE:
        return Verdict.SEPARABLE
    return Verdict.INCONCLUSIVE


def _report(
    rho: DensityMatrix,
    pair: tuple[int, int],
    params: UnitaryParams,
    y: YValues,
    evaluations: int,
    ppt_min: float,
) -> DetectionReport:
    """Assemble a report around the certificate's y values and rho's
    :func:`ppt_min_eigenvalue`."""
    ppt = classify_ppt(ppt_min, rho.shape)
    verdict = _final_verdict(check_inequality(y), ppt)
    return DetectionReport(verdict, y.f, pair, params, y, ppt_min, ppt, evaluations)


def evaluate_at_identity(
    rho: DensityMatrix, pair: tuple[int, int] | None = None
) -> DetectionReport:
    """Report for identity unitaries only: the given pair, or the best of
    every valid pair when pair is None (at the identity the pairs differ)."""
    pairs = valid_pairs(rho.shape) if pair is None else (check_pair(pair, rho.shape),)
    ys = evaluate_identity_pairs(rho, pairs)
    # argmax keeps the earliest of equal values, as the search merge does.
    i = int(np.argmax(ys.f))
    best_pair, y = pairs[i], YValues(ys.y1[i], ys.y2[i], ys.y3[i])
    # The zero parameters build exactly these identities, so no exp is needed.
    zero = UnitaryParams.zero(rho.shape)
    return _report(rho, best_pair, zero, y, len(pairs), ppt_min_eigenvalue(rho))


def maximize_violation(
    rho: DensityMatrix, cfg: SearchConfig | None = None
) -> DetectionReport:
    """Maximize the violation over local unitaries for the configured pair.

    cfg.pair None searches the pair (1, 2), which loses nothing: a signed
    column permutation in SU(M) x SU(N) carries any pair's point to a
    (1, 2) point with the same y values (see the module docstring).

    L-BFGS ascents (:func:`minimize`) over the pair's columns of u and v
    (:func:`_column_objective`) run, in order, from the zero start, from
    the eigenvector start (:func:`_eigenvector_start`) and from
    cfg.restarts Haar random starts (:func:`_columns` of a standard normal
    x, substream seeded by the restart index r = 1, 2, ...), each capped at
    cfg.max_iters iterations with gradient max-norm tolerance GTOL. The
    best point the objective evaluated over all runs, the earliest on ties,
    is read off as theta (:func:`_theta`) from the columns the objective
    computed there, and the certificate is evaluated at the unitaries
    :func:`build_unitaries` rebuilds from it, so the reported violation
    never depends on trusting the optimizer's bookkeeping. When that point
    is evaluation 1, the zero start's x0 (:func:`minimize` evaluates x0
    first), theta is zero and the certificate is the y values the
    objective computed there: x0 is the identity's columns, which
    Gram-Schmidt keeps bit for bit, so they are :func:`evaluate_pair`'s
    bits at the identity, with no read-off, exponential or second kernel
    call.
    ``evaluations`` counts objective evaluations of f; the gradient's tail
    runs only where :func:`minimize` asks for it, once per start and once
    per accepted step, except at a point that ends its start at the
    spectral bound.

    One eigen-solve of the partial transpose (:func:`ppt_eigen`) decides
    how many starts run, and the report reuses its minimum eigenvalue:
    - the zero start runs alone when that minimum exceeds PPT_TOL, which
      proves the partial transpose positive, and then f <= 0 at every point
      (see the comment at the gate), so no start could certify;
    - otherwise every ascent runs with :func:`minimize`'s ``f_stop`` at
      -max(B - BOUND_TOL, nextafter(VIOLATION_TOL)), where
      B = 4 max(0, -lambda_min) lambda_max is the spectral bound, which no
      point exceeds (see the comment at ``f_stop``). A start whose f
      certifies and lies within BOUND_TOL of B ends at that point, before
      a gradient there, and the search ends with it: the later starts
      could not raise best_f by more than about BOUND_TOL.
    """
    cfg = SearchConfig() if cfg is None else cfg
    shape = rho.shape
    pair = check_pair(cfg.pair or (1, 2), shape)
    vals, vecs = ppt_eigen(rho)
    ppt_min = float(vals[0])
    # a, b and c are entries of rho^Gamma between two product vectors, so
    # f = 4((Re c)^2 - ab) <= 0 everywhere when rho^Gamma >= 0 (Cauchy-Schwarz)
    # and no start can certify. ppt_min > PPT_TOL proves rho^Gamma >= 0:
    # - eigh is backward stable, so by Weyl the computed minimum is within
    #   p(n) eps ||rho^Gamma||_2 of the exact one;
    # - ||rho^Gamma||_2 <= ||rho^Gamma||_F = ||rho||_F, about 1 at most for
    #   a validated DensityMatrix (unit trace, eigenvalues >= -1e-9);
    # - rho.mat is exactly Hermitian, so eigh solves the very matrix whose
    #   entries the kernel's real y values read.
    # PPT_TOL is far above that rounding for every order entcert reads, so a
    # state above it runs the zero start alone. States inside the band keep
    # every start. Either way no verdict moves: a PPT state's exact f is <= 0,
    # never above VIOLATION_TOL.
    proven_ppt = ppt_min > PPT_TOL
    bound = 4 * max(0.0, -ppt_min) * float(vals[-1])
    neg_f, neg_grad, seen = _column_objective(rho)

    # Each start is drawn just before its ascent, so memory does not grow
    # with cfg.restarts. Restart r draws from spawn key (0, r) (the 0 is left
    # from a loop over pairs) and is orthonormalised first: ascending from
    # the raw draw took 11 % more evaluations. The zero start, the identity's
    # columns bit for bit, stays first, so a state whose identity columns
    # already reach the bound keeps theta = 0 (ties go to the earliest point).
    def starts():
        yield _zero_start(shape, pair)
        if proven_ppt:
            return
        yield _eigenvector_start(rho, vecs[:, 0])
        for r in range(1, cfg.restarts + 1):
            seq = np.random.SeedSequence(cfg.seed, spawn_key=(0, r))
            x = np.random.default_rng(seq).standard_normal(4 * (shape.dim_a + shape.dim_b))
            (qa, _), (qb, _) = _columns(x, shape.dim_a)
            yield _pack(qa.T, qb.T)

    # No point exceeds the spectral bound B, so once a start certifies
    # within BOUND_TOL of it, no later start could raise best_f by more than
    # about BOUND_TOL, nor move the certified verdict:
    # - at orthonormal columns, x and y (module docstring) are orthonormal,
    #   so [[a, c], [conj(c), b]] is a compression of rho^Gamma, and its
    #   eigenvalues mu_1 <= mu_2 lie in [lambda_min, lambda_max] (Cauchy
    #   interlacing). So f / 4 <= |c|^2 - ab = -mu_1 mu_2 <= B / 4;
    # - the computed eigenvalues are within p(n) eps ||rho||_F of the exact
    #   ones by Weyl, as at the gate, and f's own rounding is of order eps;
    #   BOUND_TOL is far above both.
    # f >= max(B - BOUND_TOL, nextafter(VIOLATION_TOL)) is that test, as
    # f > VIOLATION_TOL and f >= B - BOUND_TOL. minimize returns at the first
    # point that passes it, before a gradient there, and the search ends.
    # A proven-PPT state has f <= 0, so its zero start never stops early.
    f_stop = -max(bound - BOUND_TOL, math.nextafter(VIOLATION_TOL, math.inf))
    options = {"maxiter": cfg.max_iters, "gtol": GTOL, "f_stop": f_stop}
    for x0 in starts():
        res = minimize(neg_f, x0, jac=neg_grad, options=options)
        if res.status is MinimizeStatus.REACHED_F_STOP:
            break

    evaluations, (y, qa, qb, n) = seen()
    if n == 1:  # the zero start's x0, the identity's columns: theta = 0 and y as computed
        params = UnitaryParams.zero(shape)
    else:
        params = _theta(qa.T, qb.T, pair)
        y = evaluate_pair(rho, pair, build_unitaries(params, shape))
    return _report(rho, pair, params, y, evaluations, ppt_min)


# Each named family's constructor (named after it in ``states``) and shape.
SCAN_FAMILIES = {name: (getattr(states, name), row.shape) for name, row in FAMILY_PARAMS.items()}


def _grid_axis(values, name: str) -> np.ndarray:
    """One scan axis as a 1-D finite float array; ValueError for anything else."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has non-finite entries")
    return values


def scan_1d(
    family: str,
    family_params,
    p_values,
    pair: tuple[int, int] = (1, 2),
) -> list[tuple[float, float, float]]:
    """Violation grid with u = rotation_u(p) on A and v = I on B.

    Rows are (family_param, p, f) with the family parameter as the outer
    loop. Per scan, the rotations for every p and the witness columns of
    their stack are built once; per family parameter, the family's
    constructor builds the state, with no eigen-solve (family states are
    valid by their closed-form spectra, see ``states._family_state``); then
    :func:`evaluate_pair_states` stacks the states and contracts them a
    chunk at a time against those columns. The products' memory grows with
    the number of p values, not with the grid; the stacked states grow with
    the family parameters, the rows returned with the grid. Pure
    arithmetic, no randomness: identical inputs give identical tables,
    whatever the chunk size.
    """
    if family not in SCAN_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(SCAN_FAMILIES)}"
        )
    fn, shape = SCAN_FAMILIES[family]
    a_list = _grid_axis(family_params, "family_params").tolist()
    p_values = _grid_axis(p_values, "p_values")
    p_list = p_values.tolist()
    uv = LocalUnitaryPair(rotation_u(p_values, shape.dim_a), np.eye(shape.dim_b, dtype=complex))
    f = evaluate_pair_states(shape, pair, uv, [fn(a) for a in a_list]).f
    return list(zip([a for a in a_list for _ in p_list], p_list * len(a_list), f.ravel().tolist()))
