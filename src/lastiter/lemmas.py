"""Numerical battery for the inequalities behind the gap bounds.

Each check evaluates one inequality on a grid and reports the worst slack
(rhs - lhs for a claim lhs <= rhs), the point attaining it, and whether the
slack stays above -1e-9.  A failure therefore points at the exact grid
point a human should re-derive.

One check is special: the exponent simplification
3 + 2(t**theta - 1)/theta <= 4 t**theta ln(t+1) genuinely fails at its
t = 1 boundary (lhs 3 against rhs 4 ln 2).  That check is *flagged*: it
reports the boundary values and verifies the inequality from the first grid
point where it holds, and batteries never gate on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .bounds import abc_constants, weight_sequence
from .problems import FiniteSumProblem, SolutionCertificate
from .rng import POINT_STREAM, stream

__all__ = [
    "LemmaCheckResult",
    "SLACK_TOL",
    "check_exp_convexity",
    "check_exponent_inequality",
    "check_gautschi",
    "check_one_step_inequality",
    "check_second_moment_transfer",
    "check_variance_transfer",
    "check_weight_bounds",
    "run_battery",
]

SLACK_TOL = -1e-9

# Largest (points, n, d) stack a point-cloud check evaluates at once, in
# float64 entries.  It bounds the battery's memory, not its speed.
_STACK_ENTRIES = 2**15


def _fill(problem: FiniteSumProblem, count: int, stacks, *outs) -> None:
    """Write the arrays ``stacks(rows)`` returns into ``outs[k][rows]``, chunk by chunk.

    The row slices cover range(count), each with as many points as keep a
    (points, n, d) stack of the problem within ``_STACK_ENTRIES``, and at
    least one.  The last slice may run past count; indexing clips it.
    """
    step = max(1, _STACK_ENTRIES // (problem.n * problem.dimension))
    for start in range(0, count, step):
        rows = slice(start, start + step)
        for out, part in zip(outs, stacks(rows)):
            out[rows] = part


def _sq_norms(vectors: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis."""
    return np.einsum("...i,...i->...", vectors, vectors)


@dataclass(frozen=True)
class LemmaCheckResult:
    """Outcome of one inequality check over a grid.

    ``worst_slack`` is min(rhs - lhs); ``passed`` is worst_slack >= -1e-9.
    ``flagged`` marks boundary-failure checks that report values without
    gating a battery.
    """

    lemma_id: str
    grid_size: int
    worst_slack: float
    worst_point: tuple
    passed: bool
    flagged: bool = False
    details: dict = field(default_factory=dict)


def _result(lemma_id, grid_size, worst_slack, worst_point, flagged=False, details=None):
    return LemmaCheckResult(
        lemma_id=lemma_id,
        grid_size=int(grid_size),
        worst_slack=float(worst_slack),
        worst_point=tuple(worst_point),
        passed=bool(worst_slack >= SLACK_TOL),
        flagged=flagged,
        details=details or {},
    )


def check_variance_transfer(
    problem: FiniteSumProblem,
    cert: SolutionCertificate,
    points: np.ndarray,
    eps_grid: np.ndarray,
) -> LemmaCheckResult:
    """Check E||grad f_i(x)||^2 <= 2L(1+eps)(f(x) - inf f) + (1 + 1/eps) sigma*^2.

    L is the max component smoothness; the expectation is over the sampling
    weights.  Evaluated at every (point, eps) pair.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(eps_grid <= 0):
        raise ValueError("eps grid must be strictly positive")

    def stacks(rows):
        return problem.second_moment(points[rows]), problem.value(points[rows])

    lhs, values = np.empty(points.shape[0]), np.empty(points.shape[0])
    _fill(problem, points.shape[0], stacks, lhs, values)
    rhs = 2.0 * problem.L * (1.0 + eps_grid) * (values - cert.inf_f)[:, None] + (
        1.0 + 1.0 / eps_grid
    ) * cert.sigma_star_sq
    slack = rhs - lhs[:, None]
    k, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
    details = {
        "x": points[k].tolist(),
        "eps": float(eps_grid[j]),
        "lhs": float(lhs[k]),
        "rhs": float(rhs[k, j]),
    }
    return _result(
        "variance_transfer",
        slack.size,
        slack[k, j],
        (int(k), float(eps_grid[j])),
        details={"worst": details},
    )


def check_one_step_inequality(
    problem: FiniteSumProblem,
    cert: SolutionCertificate,
    gamma: float,
    x_points: np.ndarray,
    z_points: np.ndarray,
) -> LemmaCheckResult:
    """Check the one-step energy inequality at paired probe points.

    With (a, b, c, v) from :func:`lastiter.bounds.abc_constants`,

        a f(x) + b f(z) + c inf f
            <= (||x - z||^2 - E||x - gamma grad f_i(x) - z||^2) / (2 gamma) + v

    for every zipped (x, z) pair.
    """
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    z_points = np.atleast_2d(np.asarray(z_points, dtype=float))
    if x_points.shape != z_points.shape:
        raise ValueError("x and z probe arrays must have the same shape")
    consts = abc_constants(gamma, problem.L, cert.sigma_star_sq)

    def stacks(rows):
        x, z = x_points[rows], z_points[rows]
        moved = (x[:, None, :] - gamma * problem.component_grads_at(None, x)) - z[:, None, :]
        moved_sq = problem.weighted_mean(_sq_norms(moved))
        lhs = consts.a * problem.value(x) + consts.b * problem.value(z) + consts.c * cert.inf_f
        rhs = (_sq_norms(x - z) - moved_sq) / (2.0 * gamma) + consts.v
        return lhs, rhs

    lhs, rhs = np.empty(x_points.shape[0]), np.empty(x_points.shape[0])
    _fill(problem, x_points.shape[0], stacks, lhs, rhs)
    slack = rhs - lhs
    k = int(np.argmin(slack))
    details = {
        "x": x_points[k].tolist(),
        "z": z_points[k].tolist(),
        "gamma": float(gamma),
        "lhs": float(lhs[k]),
        "rhs": float(rhs[k]),
    }
    return _result(
        "one_step_descent",
        slack.size,
        slack[k],
        (k, float(gamma)),
        details={"worst": details},
    )


def check_weight_bounds(T: int, phi_value: float) -> LemmaCheckResult:
    """Check the weight-sequence growth bounds for one (T, phi) pair.

    Three claims about alpha from :func:`lastiter.bounds.weight_sequence`
    with ratio_ab = phi - 1:

    * lower: alpha_{T-1} >= (T+1)**(1-phi) / 2;
    * sum: sum_t alpha_t / alpha_{T-1} <= 2 (1 + (T**phi - 1)/phi)
      (limit 2 (1 + ln T) at phi = 0); the looser constant-3 form is
      recorded in the details;
    * chain: (alpha_T + sum_t alpha_t) / alpha_{T-1} <= 4 T**phi ln(T+1).
    """
    if not 0.0 <= phi_value <= 1.0:
        raise ValueError(f"phi must lie in [0, 1], got {phi_value!r}")
    seq = weight_sequence(T, phi_value - 1.0)
    T = seq.T
    alpha = seq.alphas
    alpha_last = alpha[T]
    total = float(alpha[1 : T + 1].sum())
    ratio_sum = total / alpha_last
    lower_slack = alpha_last - 0.5 * (T + 1.0) ** (1.0 - phi_value)
    if phi_value > 0:
        sum_envelope = 1.0 + (T**phi_value - 1.0) / phi_value
    else:
        sum_envelope = 1.0 + math.log(T)
    sum_slack = 2.0 * sum_envelope - ratio_sum
    chain = (alpha[T + 1] + total) / alpha_last
    chain_slack = 4.0 * T**phi_value * math.log(T + 1.0) - chain
    named = {"lower": lower_slack, "sum": sum_slack, "chain": chain_slack}
    worst_name = min(named, key=named.get)
    details = {
        "lower_slack": float(lower_slack),
        "sum_slack": float(sum_slack),
        "sum_slack_constant3": float(3.0 * sum_envelope - ratio_sum),
        "chain_slack": float(chain_slack),
    }
    return _result(
        "weight_bounds",
        3,
        named[worst_name],
        (T, float(phi_value), worst_name),
        details=details,
    )


def check_exponent_inequality(t_grid: np.ndarray, theta_grid: np.ndarray) -> LemmaCheckResult:
    """Check 3 + 2 (t**theta - 1)/theta <= 4 t**theta ln(t+1), flagged at t = 1.

    The claim fails at t = 1 for every theta: the left side is exactly 3
    while the right side is 4 ln 2.  The result is therefore flagged; the
    details report the boundary values, the largest first-valid t across
    the theta grid, and whether the inequality holds from there on.
    """
    t = np.asarray(t_grid, dtype=float)
    theta = np.asarray(theta_grid, dtype=float)
    if np.any(t < 1.0):
        raise ValueError("t grid must satisfy t >= 1")
    if np.any(theta <= 0) or np.any(theta > 2):
        raise ValueError("theta grid must lie in (0, 2]")
    power = t[:, None] ** theta[None, :]
    lhs = 3.0 + 2.0 * (power - 1.0) / theta[None, :]
    rhs = 4.0 * power * np.log(t + 1.0)[:, None]
    slack = rhs - lhs
    flat = int(np.argmin(slack))
    i, j = np.unravel_index(flat, slack.shape)
    worst = float(slack[i, j])
    ok = slack >= SLACK_TOL
    first_valid = np.full(theta.size, math.nan)
    holds_beyond = True
    for col in range(theta.size):
        idx = np.nonzero(ok[:, col])[0]
        if idx.size == 0:
            holds_beyond = False
            continue
        first_valid[col] = t[idx[0]]
        if not ok[idx[0] :, col].all():
            holds_beyond = False
    details = {
        "boundary_t": 1.0,
        "boundary_lhs": 3.0,
        "boundary_rhs": 4.0 * math.log(2.0),
        "boundary_slack": 4.0 * math.log(2.0) - 3.0,
        "first_valid_t_max": float(np.nanmax(first_valid)),
        "holds_beyond_first_valid": bool(holds_beyond),
    }
    return _result(
        "exponent_inequality",
        t.size * theta.size,
        worst,
        (float(t[i]), float(theta[j])),
        flagged=True,
        details=details,
    )


def check_exp_convexity(x_grid: np.ndarray, a_grid: np.ndarray) -> LemmaCheckResult:
    """Check the chord bound exp(x) <= x (exp(a) - 1)/a + 1 on [0, a].

    For every a in the grid the probe set is the x grid restricted to
    [0, a] plus both endpoints, where the bound is tight.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    a_grid = np.asarray(a_grid, dtype=float)
    if np.any(a_grid <= 0):
        raise ValueError("a grid must be strictly positive")
    worst = math.inf
    worst_point = ()
    count = 0
    for a in a_grid:
        xs = np.unique(np.concatenate(([0.0, a], x_grid[(x_grid >= 0.0) & (x_grid <= a)])))
        slack = xs * np.expm1(a) / a + 1.0 - np.exp(xs)
        count += xs.size
        j = int(np.argmin(slack))
        if slack[j] < worst:
            worst = float(slack[j])
            worst_point = (float(xs[j]), float(a))
    return _result("exp_convexity", count, worst, worst_point)


def check_gautschi(x_grid: np.ndarray, c_grid: np.ndarray) -> LemmaCheckResult:
    """Check x**(1-c) <= Gamma(x+1)/Gamma(x+c) <= (x+1)**(1-c) in log form.

    Valid for x > 0 and c in [0, 1].  Slacks are measured on the log of the
    Gamma ratio (via gammaln), which keeps the check absolute-tolerance
    friendly for large x where the plain ratio grows like x.
    """
    x = np.asarray(x_grid, dtype=float)
    c = np.asarray(c_grid, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x grid must be strictly positive")
    if np.any((c < 0) | (c > 1)):
        raise ValueError("c grid must lie in [0, 1]")
    log_ratio = gammaln(x[:, None] + 1.0) - gammaln(x[:, None] + c[None, :])
    one_minus_c = (1.0 - c)[None, :]
    lower_slack = log_ratio - one_minus_c * np.log(x)[:, None]
    upper_slack = one_minus_c * np.log(x + 1.0)[:, None] - log_ratio
    slack = np.minimum(lower_slack, upper_slack)
    flat = int(np.argmin(slack))
    i, j = np.unravel_index(flat, slack.shape)
    side = "lower" if lower_slack[i, j] <= upper_slack[i, j] else "upper"
    return _result(
        "gautschi",
        2 * x.size * c.size,
        float(slack[i, j]),
        (float(x[i]), float(c[j]), side),
        details={"units": "log of the Gamma ratio"},
    )


def check_second_moment_transfer(
    problem: FiniteSumProblem,
    cert: SolutionCertificate,
    points: np.ndarray,
) -> LemmaCheckResult:
    """Check the two facts that move gradient second moments between points.

    * splitting, per component, for consecutive point pairs (x, y):
      ||grad f_i(y)||^2 <= 2 ||grad f_i(x)||^2 + 2 ||grad f_i(y) - grad f_i(x)||^2;
    * expected smoothness, per point:
      E||grad f_i(x) - grad f_i(x*)||^2 / (2L) <= f(x) - inf f.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 2:
        raise ValueError("need at least two probe points")
    grads_star = problem.component_grads_at(None, cert.x_star)
    count = points.shape[0]
    # split slacks (pair, component) in pair order, then one per point
    slack = np.empty((count - 1) * problem.n + count)
    split, smooth = slack[:-count].reshape(count - 1, problem.n), slack[-count:]

    def stacks(rows):
        x = points[rows]
        # one point past the chunk closes the pair that spans its edge
        grads = problem.component_grads_at(None, points[rows.start : rows.stop + 1])
        sq = _sq_norms(grads)
        expected_sq = problem.weighted_mean(_sq_norms(grads[: len(x)] - grads_star))
        return (
            2.0 * sq[:-1] + 2.0 * _sq_norms(np.diff(grads, axis=0)) - sq[1:],
            (problem.value(x) - cert.inf_f) - expected_sq / (2.0 * problem.L),
        )

    _fill(problem, count, stacks, split, smooth)
    j = int(np.argmin(slack))
    if j < split.size:
        worst_point = ("split", *divmod(j, problem.n))
    else:
        worst_point = ("expected_smoothness", j - split.size)
    return _result("grad_second_moment_transfer", slack.size, slack[j], worst_point)


# -- battery -----------------------------------------------------------------

BATTERY_ORDER = (
    "variance_transfer",
    "one_step_descent",
    "weight_bounds",
    "exponent_inequality",
    "exp_convexity",
    "gautschi",
    "grad_second_moment_transfer",
)


def _merge(lemma_id: str, parts: list) -> LemmaCheckResult:
    """Combine per-source results of the same check into one battery row."""
    total = sum(r.grid_size for (_, r) in parts)
    label, worst = min(parts, key=lambda item: item[1].worst_slack)
    return LemmaCheckResult(
        lemma_id=lemma_id,
        grid_size=total,
        worst_slack=worst.worst_slack,
        worst_point=(label,) + worst.worst_point,
        passed=all(r.passed for (_, r) in parts),
        flagged=any(r.flagged for (_, r) in parts),
        details=dict(worst.details, worst_source=label),
    )


def run_battery(problem_entries: list, grids: dict) -> list[LemmaCheckResult]:
    """Run every check over its grid and every supplied problem.

    Args:
        problem_entries: list of (label, problem, certificate) triples for
            the problem-dependent checks.
        grids: resolved grid arrays and scalars; see
            ``lastiter.config.resolve_lemma_grids`` for the expected keys.

    Returns:
        One result per check, in ``BATTERY_ORDER``.
    """
    if not problem_entries:
        raise ValueError("the battery needs at least one problem entry")
    rng = stream(grids["point_seed"], POINT_STREAM)
    clouds = {}
    pair_clouds = {}
    for label, problem, cert in problem_entries:
        shape = (grids["n_points"], problem.dimension)
        clouds[label] = cert.x_star + grids["point_radius"] * rng.standard_normal(shape)
        pair_shape = (2, grids["n_pairs"], problem.dimension)
        pair_clouds[label] = cert.x_star + grids["point_radius"] * rng.standard_normal(pair_shape)

    variance_parts = [
        (label, check_variance_transfer(problem, cert, clouds[label], grids["eps_grid"]))
        for label, problem, cert in problem_entries
    ]
    one_step_parts = []
    for label, problem, cert in problem_entries:
        xs, zs = pair_clouds[label]
        for gl in grids["gamma_l_grid"]:
            gamma = float(gl) / problem.L
            one_step_parts.append(
                (f"{label}:gl={gl:g}", check_one_step_inequality(problem, cert, gamma, xs, zs))
            )
    weight_parts = [
        (f"T={int(T)}", check_weight_bounds(int(T), float(p)))
        for T in grids["weight_T_grid"]
        for p in grids["weight_phi_grid"]
    ]
    second_parts = [
        (label, check_second_moment_transfer(problem, cert, clouds[label]))
        for label, problem, cert in problem_entries
    ]
    return [
        _merge("variance_transfer", variance_parts),
        _merge("one_step_descent", one_step_parts),
        _merge("weight_bounds", weight_parts),
        check_exponent_inequality(grids["exponent_t_grid"], grids["exponent_theta_grid"]),
        check_exp_convexity(grids["exp_convexity_x_grid"], grids["exp_convexity_a_grid"]),
        check_gautschi(grids["gautschi_x_grid"], grids["gautschi_c_grid"]),
        _merge("grad_second_moment_transfer", second_parts),
    ]
