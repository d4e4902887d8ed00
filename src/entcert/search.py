"""Violation maximization over level pairs and parameterized local unitaries.

Local unitaries are parameterized through the generator exponential map:
u = exp(i sum_a theta_a g_a) with g_a running over the SU(M) basis in its
enumeration order (and likewise on B), so the search space covers all of
SU(M) x SU(N); global phases drop out of the conjugation. Maximization is
multi-start L-BFGS-B per level pair with the analytic gradient of the
violation through the exp map: one deterministic start at zero (identity
unitaries) plus seeded random starts, merged by best violation with ties
broken toward the earliest (pair, restart). ``scipy.optimize`` is imported
on the first search, so importing this module costs numpy only.

By default the search runs the level pair (1, 2) alone. The inequality for
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
from functools import cache
from typing import NamedTuple

import numpy as np

from .ggm import build_basis
from .linalg import BipartiteShape, exp_pullback, unitary_exp, unitary_exp_eigen
from .states import DensityMatrix, horodecki33, iso23, rotation_u, werner
from .witness import (
    VIOLATION_TOL,
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


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    A module global so callers can wrap it where the search looks it up.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


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

    restarts: random starts per level pair, besides the zero start.
    max_iters: L-BFGS-B iterations per start.
    step_tol: L-BFGS-B projected-gradient tolerance (``gtol``).
    seed: root of the per-(pair, restart) random substreams.
    pairs: level pairs (j, k), 1 <= j < k, to search; None means (1, 2),
        which reaches every other pair's columns through a signed
        permutation in SU(M) x SU(N) (see the module docstring).
    """

    restarts: int = 16
    max_iters: int = 400
    step_tol: float = 1e-7
    seed: int = 0
    pairs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.step_tol > 0:
            raise ValueError(f"step_tol must be > 0, got {self.step_tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.pairs is not None:
            if not self.pairs:
                raise ValueError("at least one level pair required")
            for j, k in self.pairs:
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
    tol: float,
) -> DetectionReport:
    """Assemble a report by re-evaluating the certificate from scratch.

    uv is the unitary pair that params build.
    """
    y = evaluate_pair(rho, pair, uv)
    ppt_min = ppt_min_eigenvalue(rho)
    ppt = classify_ppt(ppt_min, rho.shape)
    verdict = _final_verdict(check_inequality(y, tol), ppt)
    return DetectionReport(verdict, y.f, pair, params, y, ppt_min, ppt, evaluations)


def _resolve_pairs(shape: BipartiteShape, pairs) -> tuple[tuple[int, int], ...]:
    if pairs is None:
        return valid_pairs(shape)
    allowed = set(valid_pairs(shape))
    out = tuple((int(j), int(k)) for j, k in pairs)
    for p in out:
        if p not in allowed:
            raise ValueError(f"level pair {p} is not valid for shape {shape}")
    if not out:
        raise ValueError("at least one level pair required")
    return out


def evaluate_at_identity(
    rho: DensityMatrix,
    pairs: tuple[tuple[int, int], ...] | None = None,
    tol: float = VIOLATION_TOL,
) -> DetectionReport:
    """Report for identity unitaries only, taking the best pair."""
    use_pairs = _resolve_pairs(rho.shape, pairs)
    uv = LocalUnitaryPair.identity(rho.shape)
    # max() keeps the earliest of equal values, as the search merge does.
    best_pair = max(use_pairs, key=lambda pair: evaluate_pair(rho, pair, uv).f)
    # The zero parameters build exactly these identities, so no exp is needed.
    return _report(rho, best_pair, UnitaryParams.zero(rho.shape), uv, len(use_pairs), tol)


def maximize_violation(
    rho: DensityMatrix, cfg: SearchConfig | None = None
) -> DetectionReport:
    """Maximize the violation over local unitaries for the configured pairs.

    cfg.pairs None searches the pair (1, 2) only, which loses nothing: a
    signed column permutation in SU(M) x SU(N) carries any pair's point to
    a (1, 2) point with the same y values (see the module docstring).

    Per pair: L-BFGS-B ascents, with the analytic gradient through the exp
    map, from the zero start and from cfg.restarts random starts (entries
    uniform in [-pi, pi], substream seeded by (pair index, restart index)),
    each capped at cfg.max_iters iterations with projected-gradient
    tolerance cfg.step_tol. The best point over all runs, the earliest on
    ties, is re-evaluated to form the certificate, so the reported
    violation never depends on trusting the optimizer's bookkeeping.
    ``evaluations`` counts value-and-gradient evaluations.
    """
    cfg = SearchConfig() if cfg is None else cfg
    shape = rho.shape
    pairs = _resolve_pairs(shape, cfg.pairs or ((1, 2),))
    stack_a, stack_b = _generator_stack(shape.dim_a), _generator_stack(shape.dim_b)
    na, nb = len(stack_a), len(stack_b)
    evaluations = 0
    best = None  # (f, pair, x)
    last = (None, 0.0, None)  # one-slot cache: ((pair, x bytes), f, gradient)

    # neg_f and neg_grad read the loop's current `pair`; scipy asks for
    # both at each point, which the cache turns into one evaluation.
    def value_and_grad(x):
        nonlocal last
        key = (pair, x.tobytes())
        if last[0] != key:
            f, grad = _value_and_grad(rho, pair, x, stack_a, stack_b)
            last = (key, f, grad)
        return last[1], last[2]

    def neg_f(x) -> float:
        nonlocal evaluations
        evaluations += 1
        return -value_and_grad(x)[0]

    def neg_grad(x) -> np.ndarray:
        return -value_and_grad(x)[1]

    for pidx, pair in enumerate(pairs):
        starts = [np.zeros(na + nb)]
        for r in range(1, cfg.restarts + 1):
            seq = np.random.SeedSequence(cfg.seed, spawn_key=(pidx, r))
            rng = np.random.default_rng(seq)
            starts.append(rng.uniform(-np.pi, np.pi, na + nb))
        for x0 in starts:
            res = minimize(
                neg_f,
                x0,
                jac=neg_grad,
                method="L-BFGS-B",
                options={"maxiter": cfg.max_iters, "gtol": cfg.step_tol},
            )
            cand = -float(res.fun)
            if best is None or cand > best[0]:
                best = (cand, pair, np.array(res.x))

    _, best_pair, x = best
    params = UnitaryParams(tuple(float(t) for t in x[:na]), tuple(float(t) for t in x[na:]))
    uv = build_unitaries(params, shape)
    return _report(rho, best_pair, params, uv, evaluations, VIOLATION_TOL)


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
    (pair,) = _resolve_pairs(shape, (pair,))
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
