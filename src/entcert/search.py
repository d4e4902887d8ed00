"""Violation maximization over parameterized local unitaries, one level pair at a time.

Local unitaries are parameterized through the generator exponential map:
u = exp(i sum_a theta_a g_a) with g_a running over the SU(M) basis in its
enumeration order (and likewise on B), so the search space covers all of
SU(M) x SU(N); global phases drop out of the conjugation. Maximization is
multi-start L-BFGS on one level pair with the analytic gradient of the
violation through the exp map: one deterministic start at zero (identity
unitaries) plus seeded random starts, merged by best violation with ties
broken toward the earliest restart. The optimizer,
:func:`minimize`, is this module's own numpy L-BFGS with L-BFGS-B's
defaults, so a search needs numpy only.

By default the search runs the level pair (1, 2). The inequality for
pair (j, k) reads only columns j, k of u and of v, and a signed permutation
P in SU(M) (e_1 -> e_j, e_2 -> e_k, one further column negated when the
permutation is odd) moves them to columns 1, 2: pair (j, k) at (u, v) gives
the same y values as pair (1, 2) at (uP_M, vP_N). Since the exp map covers
SU(M) x SU(N), the (1, 2) search space holds every point of every other
pair's. At the identity the pairs differ, so identity reports keep them all.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import cache
from typing import NamedTuple

import numpy as np

from . import states
from .ggm import build_basis
from .linalg import EPS, BipartiteShape, exp_pullback, unitary_exp, unitary_exp_eigen
from .states import FAMILY_PARAMS, DensityMatrix, rotation_u
from .witness import (
    LocalUnitaryPair,
    PptVerdict,
    Verdict,
    YValues,
    check_inequality,
    check_pair,
    classify_ppt,
    evaluate_pair,
    evaluate_pair_grad,
    evaluate_pair_states,
    ppt_min_eigenvalue,
    valid_pairs,
)
from .witness import build_triple_mxn, evaluate  # noqa: F401  hooked by name: perfbench/spans.py


# L-BFGS constants, after L-BFGS-B's defaults (Byrd, Lu, Nocedal and Zhu,
# SIAM J. Sci. Comput. 16 (1995) 1190; Liu and Nocedal, Math. Prog. 45
# (1989) 503). WOLFE_C1 is the textbook 1e-4 (L-BFGS-B's own is 1e-3).
HISTORY = 10  # (s, y) pairs in the inverse-Hessian estimate
WOLFE_C1 = 1e-4  # sufficient decrease
WOLFE_C2 = 0.9  # curvature, on |slope| (strong Wolfe)
MAX_LINE_EVALS = 20  # evaluations one line search may spend
EXTRAPOLATE = 4.0  # step growth while the line search has no upper bracket
F_RTOL = 1e7 * EPS  # stop when an iteration lowers f by less, relatively
GTOL = 1e-7  # a search start has converged once max|gradient| <= GTOL


class MinimizeStatus(IntEnum):
    """Why :func:`minimize` stopped."""

    CONVERGED = 0  # max|gradient| <= gtol, or the drop in f fell below F_RTOL
    ITERATION_CAP = 1  # maxiter iterations ran
    LINE_SEARCH_FAILED = 2  # no strong-Wolfe step, even along -gradient


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


def _interpolate(lo: tuple, hi: tuple) -> float:
    """A trial step inside the bracket of (step, f, slope) ends lo and hi:
    the minimizer of the cubic through both ends' values and slopes when it
    lies at least a tenth of the bracket from either end, else the midpoint.
    The range test also turns away a NaN from a non-finite end."""
    (a, fa, da), (b, fb, db) = lo, hi
    if a != b:
        d1 = da + db - 3.0 * (fa - fb) / (a - b)
        rad = d1 * d1 - da * db
        if rad >= 0.0:
            d2 = math.copysign(math.sqrt(rad), b - a)
            denom = db - da + 2.0 * d2
            if denom != 0.0:
                t = b - (b - a) * (db + d2 - d1) / denom
                margin = 0.1 * abs(b - a)
                if min(a, b) + margin <= t <= max(a, b) - margin:
                    return t
    return 0.5 * (a + b)


def _wolfe_step(fun, jac, x, f0: float, d, slope0: float, step: float):
    """(x + t d, f, gradient) for a step t meeting the strong Wolfe
    conditions, or None once MAX_LINE_EVALS points failed.

    Bracketing and zoom as in Nocedal and Wright, *Numerical Optimization*
    (2006), Algorithms 3.5 and 3.6: ``lo`` is the best step so far that
    satisfies sufficient decrease, ``hi`` the other end of a bracket known
    to hold an acceptable step. A non-finite f counts as too far.
    """
    lo, hi = (0.0, f0, slope0), None
    for _ in range(MAX_LINE_EVALS):
        x_new = x + step * d
        f = float(fun(x_new))
        g = jac(x_new)
        slope = float(g @ d)
        if not f <= f0 + WOLFE_C1 * step * slope0 or f >= lo[1]:
            hi = (step, f, slope)
        elif abs(slope) <= -WOLFE_C2 * slope0:
            return x_new, f, g
        else:
            if (slope >= 0.0) if hi is None else slope * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = (step, f, slope)
        step = EXTRAPOLATE * step if hi is None else _interpolate(lo, hi)
    return None


def minimize(fun, x0, jac, options) -> MinimizeResult:
    """Minimize ``fun`` from ``x0`` by L-BFGS with a strong-Wolfe line search.

    ``fun(x)`` returns f as a float and ``jac(x)`` its gradient; every point
    visited costs one call of each, ``fun`` first. ``options`` holds
    ``"maxiter"``, the iteration cap, and ``"gtol"``: the run has converged
    once max|gradient| <= gtol, or once an iteration lowers f by at most
    F_RTOL * max(|f|, 1). The first step along -gradient has length 1, later
    ones try the full quasi-Newton step first. A failed line search drops
    the history and retries along -gradient; a second failure ends the run.
    The returned point is the last one accepted; each accepted point
    lowers f.

    A module global so callers can wrap it where the search looks it up.
    """
    maxiter, gtol = options["maxiter"], options["gtol"]
    x = np.array(x0, dtype=float)
    f, g = float(fun(x)), jac(x)
    steps = changes = no_history = np.empty((0, x.size))
    nit = 0
    while not abs(g).max() <= gtol:
        if nit >= maxiter:
            return MinimizeResult(x, f, nit, MinimizeStatus.ITERATION_CAP)
        d = _lbfgs_direction(g, steps, changes)
        slope = float(g @ d)
        if len(steps) and not slope < 0.0:  # lost descent: start over from -g
            steps = changes = no_history
            d, slope = -g, float(g @ -g)
        step = 1.0 if len(steps) else 1.0 / math.sqrt(-slope)
        found = _wolfe_step(fun, jac, x, f, d, slope, step)
        if found is None:
            if not len(steps):
                return MinimizeResult(x, f, nit, MinimizeStatus.LINE_SEARCH_FAILED)
            steps = changes = no_history
            continue
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        if s @ y > EPS * (y @ y):  # skip a pair that would break positive definiteness
            steps = np.concatenate((steps[1 - HISTORY :], s[None]))
            changes = np.concatenate((changes[1 - HISTORY :], y[None]))
        nit += 1
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
    def zero(cls, shape: BipartiteShape) -> "UnitaryParams":
        return cls(
            (0.0,) * (shape.dim_a**2 - 1),
            (0.0,) * (shape.dim_b**2 - 1),
        )


@dataclass(frozen=True)
class SearchConfig:
    """Budget and determinism knobs for the violation search.

    restarts: random starts besides the zero start, an integer.
    max_iters: L-BFGS iterations per start; a fractional cap stops at its ceiling.
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
        for name in ("restarts", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not self.max_iters >= 1:  # also rejects NaN, which no iteration count reaches
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.pair is not None:
            check_pair(self.pair)


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
            "best_params": {
                "theta_a": list(self.best_params.theta_a),
                "theta_b": list(self.best_params.theta_b),
            },
            "y_values": {
                "y1": self.y_values.y1,
                "y2": self.y_values.y2,
                "y3": self.y_values.y3,
                "f": self.y_values.f,
            },
            "ppt_min": self.ppt_min,
            "ppt_verdict": self.ppt_verdict.value,
            "evaluations": self.evaluations,
        }


@cache
def _generator_stack(n: int) -> np.ndarray:
    """The SU(n) generators stacked in basis order; built once per n, read-only."""
    stack = build_basis(n).stack()
    stack.setflags(write=False)
    return stack


def _generator_sum(theta: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_a theta_a g_a over a generator stack.

    The one product ``np.tensordot(theta, stack, axes=1)`` makes, without
    its Python overhead.
    """
    return np.dot(theta[None], stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


def build_unitaries(params: UnitaryParams, shape: BipartiteShape) -> LocalUnitaryPair:
    """Exponentiate parameter vectors into a local unitary pair."""
    theta_a, theta_b = np.asarray(params.theta_a), np.asarray(params.theta_b)
    stack_a, stack_b = _generator_stack(shape.dim_a), _generator_stack(shape.dim_b)
    if theta_a.shape != (stack_a.shape[0],) or theta_b.shape != (stack_b.shape[0],):
        raise ValueError(
            f"parameter lengths ({theta_a.size}, {theta_b.size}) do not match "
            f"generator counts ({stack_a.shape[0]}, {stack_b.shape[0]})"
        )
    u = unitary_exp(_generator_sum(theta_a, stack_a))
    v = unitary_exp(_generator_sum(theta_b, stack_b))
    return LocalUnitaryPair(u, v)


def _evaluator(rho: DensityMatrix, levels: tuple[int, int]):
    """The search's objective: a function of x = (theta_a, theta_b) that
    returns the violation there and its gradient over x.

    Built once per search, so each call is arithmetic only: the generator
    stacks are flattened, the square or non-square branch is chosen and the
    column slice is formed here. u and v come from the same exponential as
    in :func:`build_unitaries`, so re-evaluating a point's certificate
    reproduces its value bit for bit. f reads columns j, k of u and of v;
    :func:`exp_pullback` carries their cotangents back to the exponent, whose
    coefficient on generator g_a is Re Tr(g_a K). The gradient is a
    C-contiguous float64 vector: a strided one would round ``g @ d`` in the
    optimizer differently. ``unitary_exp_eigen``, ``evaluate_pair_grad`` and
    ``exp_pullback`` are looked up in this module on every call, where
    callers can wrap them.
    """
    m, n = rho.shape.dim_a, rho.shape.dim_b
    stack_a, stack_b = _generator_stack(m), _generator_stack(n)
    na = len(stack_a)
    # _generator_sum's np.dot, on stacks flattened once
    flat_a, flat_b = stack_a.reshape(na, -1), stack_b.reshape(len(stack_b), -1)
    j, k = levels
    cols = slice(j - 1, k, k - j)  # columns j, k

    if m == n:  # one cached stack: one exp and pullback serve both sides
        h = np.empty((2, n, n), dtype=complex)
        h_rows = h.reshape(2, 1, n * n)
        cot = np.empty((2, n, 2), dtype=complex)

        def value_and_grad(x):
            np.dot(x[None, :na], flat_a, out=h_rows[0])
            np.dot(x[None, na:], flat_a, out=h_rows[1])
            (u, v), vals, vecs = unitary_exp_eigen(h)
            y, cot[0], cot[1] = evaluate_pair_grad(rho, levels, LocalUnitaryPair(u, v))
            pull = exp_pullback(cot, cols, vals, vecs)
            return y.f, np.einsum("aij,sji->sa", stack_a, pull).real.ravel()

        return value_and_grad

    def value_and_grad(x):
        u, vals_a, vecs_a = unitary_exp_eigen(np.dot(x[None, :na], flat_a).reshape(m, m))
        v, vals_b, vecs_b = unitary_exp_eigen(np.dot(x[None, na:], flat_b).reshape(n, n))
        y, gu, gv = evaluate_pair_grad(rho, levels, LocalUnitaryPair(u, v))
        pull_a = exp_pullback(gu, cols, vals_a, vecs_a)
        pull_b = exp_pullback(gv, cols, vals_b, vecs_b)
        return y.f, np.concatenate(
            (np.einsum("aij,ji->a", stack_a, pull_a).real, np.einsum("aij,ji->a", stack_b, pull_b).real)
        )

    return value_and_grad


def objective(rho: DensityMatrix, pair: tuple[int, int], params: UnitaryParams) -> float:
    """Violation f for one level pair and one parameter point. Deterministic."""
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
) -> DetectionReport:
    """Assemble a report around the certificate's y values."""
    ppt_min = ppt_min_eigenvalue(rho)
    ppt = classify_ppt(ppt_min, rho.shape)
    verdict = _final_verdict(check_inequality(y), ppt)
    return DetectionReport(verdict, y.f, pair, params, y, ppt_min, ppt, evaluations)


def evaluate_at_identity(
    rho: DensityMatrix, pair: tuple[int, int] | None = None
) -> DetectionReport:
    """Report for identity unitaries only: the given pair, or the best of
    every valid pair when pair is None (at the identity the pairs differ)."""
    pairs = valid_pairs(rho.shape) if pair is None else (check_pair(pair, rho.shape),)
    uv = LocalUnitaryPair.identity(rho.shape)
    # max() keeps the earliest of equal values, as the search merge does.
    best_pair, y = max(((p, evaluate_pair(rho, p, uv)) for p in pairs), key=lambda py: py[1].f)
    # The zero parameters build exactly these identities, so no exp is needed.
    return _report(rho, best_pair, UnitaryParams.zero(rho.shape), y, len(pairs))


def maximize_violation(
    rho: DensityMatrix, cfg: SearchConfig | None = None
) -> DetectionReport:
    """Maximize the violation over local unitaries for the configured pair.

    cfg.pair None searches the pair (1, 2), which loses nothing: a signed
    column permutation in SU(M) x SU(N) carries any pair's point to a
    (1, 2) point with the same y values (see the module docstring).

    L-BFGS ascents (:func:`minimize`), with the analytic gradient through
    the exp map, run from the zero start and from cfg.restarts random
    starts (entries uniform in [-pi, pi], substream seeded by the restart
    index), each capped at cfg.max_iters iterations with gradient max-norm
    tolerance GTOL. The best point over all runs, the earliest on ties, is
    re-evaluated to form the certificate, so the reported violation never
    depends on trusting the optimizer's bookkeeping. ``evaluations`` counts
    value-and-gradient evaluations.
    """
    cfg = SearchConfig() if cfg is None else cfg
    shape = rho.shape
    pair = check_pair(cfg.pair or (1, 2), shape)
    na, nb = shape.dim_a**2 - 1, shape.dim_b**2 - 1
    evaluate = _evaluator(rho, pair)
    evaluations = 0
    best = None  # (f, x)
    last = (None, 0.0, None)  # one-slot cache: (x bytes, f, gradient)

    # minimize asks for both f and the gradient at each point, which the
    # cache turns into one evaluation.
    def value_and_grad(x):
        nonlocal last
        key = x.tobytes()
        if last[0] != key:
            last = (key, *evaluate(x))
        return last[1], last[2]

    def neg_f(x) -> float:
        nonlocal evaluations
        evaluations += 1
        return -value_and_grad(x)[0]

    def neg_grad(x) -> np.ndarray:
        return -value_and_grad(x)[1]

    # Each start is drawn just before its ascent, so memory does not grow
    # with cfg.restarts. The spawn key's leading 0 keeps every seed's starts
    # as they were when the search looped over several pairs.
    for r in range(cfg.restarts + 1):
        if r == 0:
            x0 = np.zeros(na + nb)
        else:
            seq = np.random.SeedSequence(cfg.seed, spawn_key=(0, r))
            x0 = np.random.default_rng(seq).uniform(-np.pi, np.pi, na + nb)
        res = minimize(neg_f, x0, jac=neg_grad, options={"maxiter": cfg.max_iters, "gtol": GTOL})
        cand = -float(res.fun)
        if best is None or cand > best[0]:
            best = (cand, np.array(res.x))

    x = best[1]
    params = UnitaryParams(tuple(float(t) for t in x[:na]), tuple(float(t) for t in x[na:]))
    y = evaluate_pair(rho, pair, build_unitaries(params, shape))
    return _report(rho, pair, params, y, evaluations)


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
    their stack are built once; per family parameter, the state is built
    and contracted against those columns in one kernel call, so memory
    grows with the number of p values, not with the grid. Pure arithmetic,
    no randomness: identical inputs give identical tables.
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
    ys = evaluate_pair_states(shape, pair, uv, map(fn, a_list))
    rows = []
    for a, y in zip(a_list, ys):
        rows += zip([a] * len(p_list), p_list, y.f.tolist())
    return rows
