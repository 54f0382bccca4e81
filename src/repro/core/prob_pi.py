"""Solvers for the ``Prob Pi`` sub-problem of Algorithm 1.

For fixed auxiliary variables ``z_i`` the objective of Eq. (6) is convex in
the scheduling probabilities ``pi_{i,j}`` over the polytope

    0 <= pi_{i,j} <= 1,              pi_{i,j} = 0 for j not in S_i,
    K_L,i <= sum_j pi_{i,j} <= K_U,i,
    sum_i (k_i - sum_j pi_{i,j}) <= C.

The paper solves this with projected gradient descent, using MOSEK for the
projection step.  We provide three interchangeable solvers:

* :func:`solve_projected_gradient` (default) -- Armijo-backtracking projected
  gradient descent using the exact polytope projection implemented in
  :class:`repro.core.vectorized.VectorizedSystem`.
* :func:`solve_frank_wolfe` -- the conditional-gradient method whose linear
  minimisation oracle over this polytope has a closed-form greedy solution;
  useful as an independent cross-check and for ablation benchmarks.
* :func:`solve_fista` -- accelerated projected gradient (FISTA with a
  monotone restart and backtracking Lipschitz estimation), the workhorse of
  the online re-solver in :mod:`repro.control.resolve`; it accepts a custom
  ``projector`` so warm-started solves can project over a reduced active
  set.
* :func:`solve_slsqp` -- ``scipy.optimize`` SLSQP for small instances, used
  by the test-suite to validate the two first solvers.

Every solver takes a ``warm_start=`` alias for ``initial_pi``: the online
controller passes the previous bin's converged iterate here, which is what
makes per-drift re-solves cheap relative to cold starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.vectorized import VectorizedSystem
from repro.exceptions import OptimizationError


@dataclass
class ProbPiResult:
    """Outcome of a Prob-Pi solve."""

    pi: np.ndarray
    objective: float
    iterations: int
    converged: bool
    #: Final backtracked Lipschitz estimate (FISTA only); carrying it into
    #: the next warm solve skips the initial step-size search.
    lipschitz: float = 0.0


def solve_projected_gradient(
    system: VectorizedSystem,
    z: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
    initial_pi: Optional[np.ndarray] = None,
    max_iterations: int = 120,
    tolerance: float = 1e-6,
    initial_step: float = 1.0,
    warm_start: Optional[np.ndarray] = None,
) -> ProbPiResult:
    """Projected gradient descent with Armijo backtracking.

    Parameters
    ----------
    system:
        The compiled system providing objective, gradient and projection.
    z:
        Fixed per-file auxiliary variables.
    lower_sums, upper_sums:
        Per-file bounds ``K_L,i`` / ``K_U,i`` on ``sum_j pi_{i,j}``.
    initial_pi:
        Warm-start point; defaults to the projected no-cache start.
    warm_start:
        Alias for ``initial_pi`` (takes precedence when both are given);
        the online re-solver passes the previous bin's iterate here.
    """
    if warm_start is not None:
        initial_pi = warm_start
    if initial_pi is None:
        initial_pi = system.initial_pi()
    pi = system.project(initial_pi, lower_sums, upper_sums)
    objective, gradient = system.objective_and_gradient(pi, z)
    step = initial_step
    converged = False
    iterations_used = 0
    for iteration in range(max_iterations):
        iterations_used = iteration + 1
        candidate = system.project(pi - step * gradient, lower_sums, upper_sums)
        direction = candidate - pi
        direction_norm = float(np.linalg.norm(direction))
        if direction_norm < tolerance:
            converged = True
            break
        # Armijo backtracking *along the feasible segment* pi -> candidate:
        # both endpoints are feasible, so every interior point is feasible
        # and no further projections are needed during the line search.
        expected_decrease = float(np.dot(gradient, direction))
        alpha = 1.0
        candidate_objective = system.objective(pi + alpha * direction, z)
        backtracks = 0
        while (
            candidate_objective > objective + 1e-4 * alpha * expected_decrease
            and backtracks < 25
        ):
            alpha *= 0.5
            candidate_objective = system.objective(pi + alpha * direction, z)
            backtracks += 1
        if candidate_objective >= objective - 1e-15:
            # No descent even with a tiny step: treat as converged.
            converged = True
            break
        improvement = objective - candidate_objective
        pi = pi + alpha * direction
        objective, gradient = system.objective_and_gradient(pi, z)
        if backtracks == 0:
            step *= 1.5
        elif backtracks > 2:
            step *= 0.5
        if improvement < tolerance * max(abs(objective), 1.0):
            converged = True
            break
    return ProbPiResult(
        pi=pi, objective=objective, iterations=iterations_used, converged=converged
    )


#: Backtracking doublings of ``L`` before/after which solve_fista falls back
#: from the quadratic-model test to plain monotone descent (see below).
_MIN_BACKTRACKS = 30
_MAX_BACKTRACKS = 60


def solve_fista(
    system: VectorizedSystem,
    z: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
    initial_pi: Optional[np.ndarray] = None,
    max_iterations: int = 400,
    tolerance: float = 1e-10,
    check_window: int = 20,
    initial_lipschitz: float = 1.0,
    projector: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    warm_start: Optional[np.ndarray] = None,
) -> ProbPiResult:
    """Accelerated projected gradient (FISTA) with a monotone restart.

    The step size is governed by a backtracked Lipschitz estimate ``L``:
    whenever the quadratic upper model at ``L`` is violated the estimate
    doubles, and after every accepted step it decays slightly (x0.95, or
    x0.9 on a restart) so the method re-probes for longer steps as the
    local curvature flattens.  Acceleration is restarted (momentum reset,
    iterate rewound) whenever the candidate would increase the objective,
    which keeps the iteration monotone -- important because the stopping
    rule is *windowed improvement*: every ``check_window`` iterations the
    solver stops once the objective improved by less than
    ``tolerance * max(|objective|, 1)`` over the window.  Unlike a
    gradient-norm test this is robust to the slow tail of the condition
    number and is what the warm/cold parity guarantee of
    :mod:`repro.control.resolve` is calibrated against.

    Parameters
    ----------
    projector:
        Optional replacement for ``system.project``: a callable mapping a
        trial point to its projection onto the feasible set.  The online
        re-solver passes a reduced active-set projector here so warm
        solves only pay for the coordinates the previous solution left
        strictly inside the box.
    warm_start:
        Alias for ``initial_pi`` (takes precedence when both are given).
    initial_lipschitz:
        Starting value of the backtracked Lipschitz estimate; pass the
        ``lipschitz`` field of a previous result to skip the warm-up.
    """
    if warm_start is not None:
        initial_pi = warm_start
    if initial_pi is None:
        initial_pi = system.initial_pi()
    if projector is None:
        def projector(point: np.ndarray) -> np.ndarray:
            return system.project(point, lower_sums, upper_sums)
    if initial_lipschitz <= 0.0:
        raise OptimizationError("initial_lipschitz must be positive")

    pi = projector(np.asarray(initial_pi, dtype=float))
    momentum_point = pi.copy()
    t = 1.0
    objective = system.objective(pi, z)
    lipschitz = float(initial_lipschitz)
    anchor = objective
    iterations_used = 0
    converged = False
    for iteration in range(max_iterations):
        iterations_used = iteration + 1
        objective_y, gradient_y = system.objective_and_gradient(momentum_point, z)
        # Backtracking: double L until the quadratic model at L upper-bounds
        # the objective at the projected gradient step.  Near a queueing
        # saturation pole the gradient spans many orders of magnitude and
        # the linear term of the model wildly overestimates the possible
        # descent, so no finite L satisfies the test even though the
        # candidates descend enormously; after a bounded number of
        # doublings, accept any candidate that strictly improves on the
        # current objective (plain monotone descent still converges).
        for backtrack in range(_MAX_BACKTRACKS + 1):
            candidate = projector(momentum_point - gradient_y / lipschitz)
            step = candidate - momentum_point
            quadratic = (
                objective_y
                + float(np.dot(gradient_y, step))
                + 0.5 * lipschitz * float(np.dot(step, step))
            )
            candidate_objective = system.objective(candidate, z)
            if candidate_objective <= quadratic + 1e-12:
                break
            if backtrack >= _MIN_BACKTRACKS and candidate_objective < objective:
                break
            lipschitz *= 2.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        if candidate_objective > objective:
            # Monotone restart: rewind to the best iterate, drop momentum.
            momentum_point = pi.copy()
            t = 1.0
            lipschitz *= 0.9
        else:
            momentum = (t - 1.0) / t_next
            momentum_point = candidate + momentum * (candidate - pi)
            pi = candidate
            objective = candidate_objective
            t = t_next
            lipschitz *= 0.95
        if (iteration + 1) % check_window == 0:
            if anchor - objective < tolerance * max(abs(objective), 1.0):
                converged = True
                break
            anchor = objective
    return ProbPiResult(
        pi=pi,
        objective=objective,
        iterations=iterations_used,
        converged=converged,
        lipschitz=lipschitz,
    )


def solve_frank_wolfe(
    system: VectorizedSystem,
    z: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
    initial_pi: Optional[np.ndarray] = None,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    warm_start: Optional[np.ndarray] = None,
) -> ProbPiResult:
    """Frank-Wolfe (conditional gradient) solver.

    The linear minimisation oracle over the Prob-Pi polytope has a greedy
    solution: each file first takes its mandatory ``K_L,i`` units on its
    cheapest coordinates, all remaining negative-cost coordinates are added
    up to the per-file caps, and if the coupling constraint
    ``sum pi >= T`` is still violated the globally cheapest remaining
    coordinates are raised until it holds.  ``warm_start`` is an alias for
    ``initial_pi`` (takes precedence when both are given).
    """
    if warm_start is not None:
        initial_pi = warm_start
    if initial_pi is None:
        initial_pi = system.initial_pi()
    pi = system.project(initial_pi, lower_sums, upper_sums)
    objective = system.objective(pi, z)
    converged = False
    iterations_used = 0
    for iteration in range(max_iterations):
        iterations_used = iteration + 1
        _, gradient = system.objective_and_gradient(pi, z)
        vertex = _linear_oracle(system, gradient, lower_sums, upper_sums)
        direction = vertex - pi
        gap = float(-np.dot(gradient, direction))
        if gap < tolerance:
            converged = True
            break
        # Exact-ish line search over the segment via golden-section.
        step = _line_search(system, pi, direction, z)
        if step <= 0.0:
            converged = True
            break
        pi = pi + step * direction
        new_objective = system.objective(pi, z)
        if objective - new_objective < tolerance * max(abs(objective), 1.0):
            objective = new_objective
            converged = True
            break
        objective = new_objective
    return ProbPiResult(
        pi=pi, objective=objective, iterations=iterations_used, converged=converged
    )


def _linear_oracle(
    system: VectorizedSystem,
    costs: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
) -> np.ndarray:
    """Minimise ``costs . pi`` over the Prob-Pi polytope (greedy solution)."""
    pi = np.zeros(system.num_pairs, dtype=float)
    order = np.argsort(costs, kind="stable")
    file_totals = np.zeros(system.num_files)

    # Phase 1: per-file mandatory minimum K_L using the cheapest coordinates.
    for pair_index in order:
        file_position = int(system.pair_file[pair_index])
        deficit = lower_sums[file_position] - file_totals[file_position]
        if deficit <= 1e-12:
            continue
        amount = min(1.0, deficit)
        pi[pair_index] = amount
        file_totals[file_position] += amount

    # Phase 2: negative-cost coordinates are profitable on their own.
    for pair_index in order:
        if costs[pair_index] >= 0.0:
            continue
        file_position = int(system.pair_file[pair_index])
        headroom = upper_sums[file_position] - file_totals[file_position]
        if headroom <= 1e-12:
            continue
        extra = min(1.0 - pi[pair_index], headroom)
        if extra <= 0.0:
            continue
        pi[pair_index] += extra
        file_totals[file_position] += extra

    # Phase 3: meet the coupling constraint sum(pi) >= T as cheaply as possible.
    target_total = system.required_total()
    total = float(pi.sum())
    if total < target_total - 1e-9:
        for pair_index in order:
            file_position = int(system.pair_file[pair_index])
            headroom = upper_sums[file_position] - file_totals[file_position]
            slack = min(1.0 - pi[pair_index], headroom)
            if slack <= 1e-12:
                continue
            add = min(slack, target_total - total)
            pi[pair_index] += add
            file_totals[file_position] += add
            total += add
            if total >= target_total - 1e-9:
                break
        if total < target_total - 1e-6:
            raise OptimizationError(
                "linear oracle could not satisfy the cache-capacity constraint"
            )
    return pi


def _line_search(
    system: VectorizedSystem,
    pi: np.ndarray,
    direction: np.ndarray,
    z: np.ndarray,
    iterations: int = 40,
) -> float:
    """Golden-section line search for the Frank-Wolfe step in [0, 1]."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    low, high = 0.0, 1.0
    point_a = high - golden * (high - low)
    point_b = low + golden * (high - low)
    value_a = system.objective(pi + point_a * direction, z)
    value_b = system.objective(pi + point_b * direction, z)
    for _ in range(iterations):
        if value_a < value_b:
            high = point_b
            point_b, value_b = point_a, value_a
            point_a = high - golden * (high - low)
            value_a = system.objective(pi + point_a * direction, z)
        else:
            low = point_a
            point_a, value_a = point_b, value_b
            point_b = low + golden * (high - low)
            value_b = system.objective(pi + point_b * direction, z)
    best = 0.5 * (low + high)
    if system.objective(pi + best * direction, z) >= system.objective(pi, z):
        return 0.0
    return best


def solve_slsqp(
    system: VectorizedSystem,
    z: np.ndarray,
    lower_sums: np.ndarray,
    upper_sums: np.ndarray,
    initial_pi: Optional[np.ndarray] = None,
    max_iterations: int = 200,
    warm_start: Optional[np.ndarray] = None,
) -> ProbPiResult:
    """Solve Prob Pi with ``scipy.optimize`` SLSQP (small instances only)."""
    from scipy import optimize

    if warm_start is not None:
        initial_pi = warm_start
    if initial_pi is None:
        initial_pi = system.initial_pi()
    initial_pi = system.project(initial_pi, lower_sums, upper_sums)

    def objective(pi: np.ndarray) -> float:
        return system.objective(pi, z)

    def gradient(pi: np.ndarray) -> np.ndarray:
        return system.objective_and_gradient(pi, z)[1]

    constraints = []
    target_total = system.required_total()
    constraints.append(
        {"type": "ineq", "fun": lambda pi: float(pi.sum()) - target_total}
    )
    for file_position in range(system.num_files):
        mask = system.pair_file == file_position
        constraints.append(
            {
                "type": "ineq",
                "fun": (lambda pi, m=mask, u=float(upper_sums[file_position]): u - float(pi[m].sum())),
            }
        )
        constraints.append(
            {
                "type": "ineq",
                "fun": (lambda pi, m=mask, l=float(lower_sums[file_position]): float(pi[m].sum()) - l),
            }
        )
    bounds = [(0.0, 1.0)] * system.num_pairs
    result = optimize.minimize(
        objective,
        initial_pi,
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": 1e-9},
    )
    pi = np.clip(result.x, 0.0, 1.0)
    return ProbPiResult(
        pi=pi,
        objective=float(result.fun),
        iterations=int(result.nit),
        converged=bool(result.success),
    )
