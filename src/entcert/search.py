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
from dataclasses import dataclass
from enum import IntEnum
from functools import cache
from typing import NamedTuple

import numpy as np

from .ggm import build_basis
from .linalg import BipartiteShape, exp_pullback, unitary_exp, unitary_exp_eigen
from .states import DensityMatrix, horodecki33, iso23, rotation_u, werner
from .witness import (
    LocalUnitaryPair,
    PptVerdict,
    Verdict,
    YValues,
    check_inequality,
    classify_ppt,
    evaluate_pair,
    evaluate_pair_grad,
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
EPS = np.finfo(float).eps
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

    restarts: random starts besides the zero start.
    max_iters: L-BFGS iterations per start.
    seed: root of the per-restart random substreams.
    pair: the level pair (j, k), 1 <= j < k, to search; None means (1, 2),
        which reaches every other pair's columns through a signed
        permutation in SU(M) x SU(N) (see the module docstring).
    """

    restarts: int = 16
    max_iters: int = 400
    seed: int = 0
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.pair is not None:
            j, k = self.pair
            if not 1 <= j < k:
                raise ValueError(f"level pair ({j}, {k}) must have 1 <= j < k")


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


def _theta_grad(cot, levels, vals, vecs, stack) -> np.ndarray:
    """Gradient over theta of f(u), u = exp(i sum_a theta_a g_a).

    ``cot`` is f's cotangent on columns j, k of u (see
    :func:`evaluate_pair_grad`), so df = Re Tr(G du) with G zero apart from
    rows j, k, which hold cot^dag.
    """
    g = np.zeros((len(vals), len(vals)), dtype=complex)
    g[[levels[0] - 1, levels[1] - 1]] = cot.conj().T
    k = exp_pullback(g, vals, vecs)
    return np.einsum("aij,ji->a", stack, k).real


def _value_and_grad(rho, levels, x, stack_a, stack_b) -> tuple[float, np.ndarray]:
    """The violation at x = (theta_a, theta_b) and its gradient over x.

    u and v come from the same exponential as in :func:`build_unitaries`,
    so re-evaluating a point's certificate reproduces its value bit for bit.
    """
    na = len(stack_a)
    u, vals_a, vecs_a = unitary_exp_eigen(_generator_sum(x[:na], stack_a))
    v, vals_b, vecs_b = unitary_exp_eigen(_generator_sum(x[na:], stack_b))
    y, gu, gv = evaluate_pair_grad(rho, levels, LocalUnitaryPair(u, v))
    grad = np.concatenate(
        (
            _theta_grad(gu, levels, vals_a, vecs_a, stack_a),
            _theta_grad(gv, levels, vals_b, vecs_b, stack_b),
        )
    )
    return y.f, grad


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
    uv: LocalUnitaryPair,
    evaluations: int,
) -> DetectionReport:
    """Assemble a report by re-evaluating the certificate from scratch.

    uv is the unitary pair that params build.
    """
    y = evaluate_pair(rho, pair, uv)
    ppt_min = ppt_min_eigenvalue(rho)
    ppt = classify_ppt(ppt_min, rho.shape)
    verdict = _final_verdict(check_inequality(y), ppt)
    return DetectionReport(verdict, y.f, pair, params, y, ppt_min, ppt, evaluations)


def _check_pair(shape: BipartiteShape, pair) -> tuple[int, int]:
    """The level pair as Python ints; ValueError unless shape holds it."""
    j, k = pair
    pair = (int(j), int(k))
    if pair not in valid_pairs(shape):
        raise ValueError(f"level pair {pair} is not valid for shape {shape}")
    return pair


def evaluate_at_identity(
    rho: DensityMatrix, pair: tuple[int, int] | None = None
) -> DetectionReport:
    """Report for identity unitaries only: the given pair, or the best of
    every valid pair when pair is None (at the identity the pairs differ)."""
    pairs = valid_pairs(rho.shape) if pair is None else (_check_pair(rho.shape, pair),)
    uv = LocalUnitaryPair.identity(rho.shape)
    # max() keeps the earliest of equal values, as the search merge does.
    best_pair = max(pairs, key=lambda p: evaluate_pair(rho, p, uv).f)
    # The zero parameters build exactly these identities, so no exp is needed.
    return _report(rho, best_pair, UnitaryParams.zero(rho.shape), uv, len(pairs))


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
    pair = _check_pair(shape, cfg.pair or (1, 2))
    stack_a, stack_b = _generator_stack(shape.dim_a), _generator_stack(shape.dim_b)
    na, nb = len(stack_a), len(stack_b)
    evaluations = 0
    best = None  # (f, x)
    last = (None, 0.0, None)  # one-slot cache: (x bytes, f, gradient)

    # minimize asks for both f and the gradient at each point, which the
    # cache turns into one evaluation.
    def value_and_grad(x):
        nonlocal last
        key = x.tobytes()
        if last[0] != key:
            last = (key, *_value_and_grad(rho, pair, x, stack_a, stack_b))
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
    uv = build_unitaries(params, shape)
    return _report(rho, pair, params, uv, evaluations)


SCAN_FAMILIES = {
    "werner": (werner, BipartiteShape(2, 2)),
    "iso23": (iso23, BipartiteShape(2, 3)),
    "horodecki33": (horodecki33, BipartiteShape(3, 3)),
}


class FamilyParam(NamedTuple):
    """The rest of a named family's entry: what the family is, the name and
    meaning of its parameter, and the parameter's closed domain."""

    title: str
    name: str
    meaning: str
    domain: tuple[float, float]


# Keyed like SCAN_FAMILIES; the CLI builds ``make-state`` and the ``scan``
# grid bounds from it.
FAMILY_PARAMS = {
    "werner": FamilyParam("Werner state", "a", "mixing weight", (0.0, 1.0)),
    "iso23": FamilyParam("isotropic-type mixture", "a", "mixing weight", (0.0, 1.0)),
    "horodecki33": FamilyParam("Horodecki family", "alpha", "parameter", (2.0, 5.0)),
}


def scan_1d(
    family: str,
    family_params,
    p_values,
    pair: tuple[int, int] = (1, 2),
) -> list[tuple[float, float, float]]:
    """Violation grid with u = rotation_u(p) on A and v = I on B.

    Rows are (family_param, p, f) with the family parameter as the outer
    loop. The rotations for every p are built once, and each family
    parameter takes one kernel call over that stack, so memory grows with
    the number of p values, not with the grid. Pure arithmetic, no
    randomness: identical inputs give identical tables.
    """
    if family not in SCAN_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(SCAN_FAMILIES)}"
        )
    fn, shape = SCAN_FAMILIES[family]
    pair = _check_pair(shape, pair)
    p_values = np.asarray(p_values, dtype=float)
    if p_values.ndim != 1:
        raise ValueError(f"p_values must be one-dimensional, got shape {p_values.shape}")
    uv = LocalUnitaryPair(rotation_u(p_values, shape.dim_a), np.eye(shape.dim_b, dtype=complex))
    p_list = p_values.tolist()
    rows = []
    for a in family_params:
        a = float(a)
        f = evaluate_pair(fn(a), pair, uv).f
        rows += zip([a] * len(p_list), p_list, f.tolist())
    return rows
