"""Numerical battery for the inequalities behind the gap bounds.

Each check evaluates one inequality on a grid and reports the worst slack
(rhs - lhs for a claim lhs <= rhs), the point attaining it, and whether the
slack stays above -1e-9.  A failure therefore points at the exact grid
point a human should re-derive.  ``LEMMA_GRIDS`` declares the default and
domain of each grid and of the probe-point radius once; config and every
check hold them to it.

One check is special: the exponent simplification
3 + 2(t**theta - 1)/theta <= 4 t**theta ln(t+1) genuinely fails at its
t = 1 boundary (lhs 3 against rhs 4 ln 2).  That check is *flagged*: it
reports the boundary values and verifies the inequality from the first grid
point where it holds, and batteries never gate on it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bounds import abc_constants, weight_sequence
from .problems import MEMORY_BUDGET_ENTRIES, FiniteSumProblem, SolutionCertificate
from .rng import POINT_STREAM, stream

__all__ = [
    "BATTERY_ORDER",
    "LEMMA_GRIDS",
    "LemmaCheckResult",
    "SLACK_TOL",
    "check_exp_convexity",
    "check_exponent_inequality",
    "check_gautschi",
    "check_grid",
    "check_one_step_inequality",
    "check_second_moment_transfer",
    "check_variance_transfer",
    "check_weight_bounds",
    "run_battery",
]

SLACK_TOL = -1e-9


class _Grid(NamedTuple):
    """A battery grid or number: its default, the interval its entries lie in, and whether they are integers."""

    default: object
    domain: str
    integer: bool = False


# Each domain is where its check gives finite slacks that are exact to
# SLACK_TOL: rounding cannot take a slack that is >= 0 below SLACK_TOL.  For the
# keys the problem-dependent checks read (eps, gamma L, point radius) that holds
# on the default problems with each of those keys anywhere in its domain.  What
# sets the ends: gamma L >= 1e-300 keeps gamma = gamma L / L a normal float for L
# up to 1e7, and gamma L near 1 rounds to 1; at gamma L near 0 a logistic
# family's one-step slack tends to a convexity gap that vanishes for pairs inside
# one saturated region, while the rounding of its terms, which grow like the
# radius, reaches 2e-10 at radius 1e6 and 2e-9 at 1e7; below theta = 1e-4 the
# slack cancels into rounding noise; t <= 1e150 keeps t**theta finite; the exp
# chord slack is absolute on sides of size e**a, and x is probed on [0, a] only;
# subnormal x underflow the Gamma ratio.  A weight horizon T builds arrays of T
# entries, so T is held to the generators' memory budget.  ``point_radius`` is a
# number, not a grid.
LEMMA_GRIDS = {
    "eps_grid": _Grid({"min": 1e-3, "max": 1e3, "count": 7, "spacing": "log"}, "[1e-100, 1e100]"),
    "gamma_l_grid": _Grid([0.1, 0.5, 0.9], "[1e-300, 0.9999]"),
    "weight_T_grid": _Grid({"min": 2, "max": 5000, "count": 48, "spacing": "log-int"},
                           f"[1, {MEMORY_BUDGET_ENTRIES}]", integer=True),
    "weight_phi_grid": _Grid({"min": 0.01, "max": 1.0, "count": 34, "spacing": "linear"}, "[0, 1]"),
    "exponent_t_grid": _Grid({"min": 1.0, "max": 1e4, "count": 400, "spacing": "log"}, "[1, 1e150]"),
    "exponent_theta_grid": _Grid({"min": 1e-3, "max": 2.0, "count": 25, "spacing": "log"}, "[1e-4, 2]"),
    "exp_convexity_x_grid": _Grid({"min": 0.0, "max": 10.0, "count": 41, "spacing": "linear"}, "[0, 12]"),
    "exp_convexity_a_grid": _Grid({"min": 1e-3, "max": 10.0, "count": 40, "spacing": "log"}, "(0, 12]"),
    "gautschi_x_grid": _Grid({"min": 0.1, "max": 1e4, "count": 80, "spacing": "log"}, "[1e-300, inf)"),
    "gautschi_c_grid": _Grid({"min": 0.0, "max": 1.0, "count": 41, "spacing": "linear"}, "[0, 1]"),
    "point_radius": _Grid(2.0, "(0, 1e6]"),
}


def check_grid(key: str, values) -> np.ndarray:
    """``values`` as a float array, after checking them against ``LEMMA_GRIDS[key]``.

    Raises:
        ValueError: ``"{key}: entries must lie in {domain}"``, or ``"{key}:
            entries must be integers"`` for an integer grid.
    """
    values = np.asarray(values, dtype=float)
    grid = LEMMA_GRIDS[key]
    lo, hi = map(float, grid.domain[1:-1].split(","))
    above = operator.gt if grid.domain[0] == "(" else operator.ge
    below = operator.lt if grid.domain[-1] == ")" else operator.le
    # Compared as Python floats: check_weight_bounds checks one scalar T per
    # call, where numpy's overhead on a scalar is a visible share of the check.
    # NaN fails both comparisons.
    entries = values.ravel().tolist()
    if not all(above(v, lo) and below(v, hi) for v in entries):
        raise ValueError(f"{key}: entries must lie in {grid.domain}")
    if grid.integer and not all(v.is_integer() for v in entries):
        raise ValueError(f"{key}: entries must be integers")
    return values


# Largest (points, n, d) stack a point-cloud check evaluates at once, and
# largest weight batch, in float64 entries.  It bounds the battery's memory,
# not its speed.
_STACK_ENTRIES = 2**15


def _chunks(problem: FiniteSumProblem, count: int) -> list[slice]:
    """Row slices covering range(count), chunk by chunk.

    Each slice has as many points as keep a (points, n, d) stack of the
    problem within ``_STACK_ENTRIES``, and at least one.  The last slice may
    run past count; indexing clips it.
    """
    step = max(1, _STACK_ENTRIES // (problem.n * problem.dimension))
    return [slice(start, start + step) for start in range(0, count, step)]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a nonempty array: its own sort-and-mask, without the numpy.ma import it costs."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _sq_norms(vectors: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis."""
    return np.einsum("...i,...i->...", vectors, vectors)


class _Cloud(NamedTuple):
    """A point cloud evaluated once for both cloud checks."""

    points: np.ndarray  # (S, d)
    second_moment: np.ndarray  # E||grad f_i(x)||^2 per point
    values: np.ndarray  # f(x) per point
    # split slacks (pair, component) in pair order, then one
    # expected-smoothness slack per point
    slack: np.ndarray


def _evaluate_cloud(problem: FiniteSumProblem, cert: SolutionCertificate, points) -> _Cloud:
    """Evaluate every point of ``points`` once for the variance and second-moment checks.

    The points go in ``_chunks``; each chunk's gradients also take the
    point past its end, which closes the split pair that spans the edge.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    count, n = points.shape[0], problem.n
    grads_star = problem.component_grads_at(None, cert.x_star)
    second_moment, values = np.empty(count), np.empty(count)
    slack = np.empty((count - 1) * n + count)
    split, smooth = slack[:-count].reshape(count - 1, n), slack[-count:]
    for rows in _chunks(problem, count):
        x = points[rows]
        grads = problem.component_grads_at(None, points[rows.start : rows.stop + 1])
        sq = _sq_norms(grads)
        second_moment[rows] = problem.weighted_mean(sq[: len(x)])
        values[rows] = problem.value(x)
        split[rows] = 2.0 * sq[:-1] + 2.0 * _sq_norms(np.diff(grads, axis=0)) - sq[1:]
        expected_sq = problem.weighted_mean(_sq_norms(grads[: len(x)] - grads_star))
        smooth[rows] = (values[rows] - cert.inf_f) - expected_sq / (2.0 * problem.L)
    return _Cloud(points, second_moment, values, slack)


def _cloud(problem: FiniteSumProblem, cert: SolutionCertificate, points) -> _Cloud:
    """``points`` if it is already an evaluated cloud, else its evaluation."""
    return points if isinstance(points, _Cloud) else _evaluate_cloud(problem, cert, points)


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
    if not math.isfinite(worst_slack):
        raise FloatingPointError(f"{lemma_id}: worst slack {worst_slack} at {worst_point} is not finite")
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
    weights.  Evaluated at every (point, eps) pair.  ``points`` is an (S, d)
    array, or the cloud ``run_battery`` has already evaluated.
    """
    eps_grid = check_grid("eps_grid", eps_grid)
    cloud = _cloud(problem, cert, points)
    lhs, values = cloud.second_moment, cloud.values
    rhs = 2.0 * problem.L * (1.0 + eps_grid) * (values - cert.inf_f)[:, None] + (
        1.0 + 1.0 / eps_grid
    ) * cert.sigma_star_sq
    slack = rhs - lhs[:, None]
    k, j = np.unravel_index(int(np.argmin(slack)), slack.shape)
    details = {
        "x": cloud.points[k].tolist(),
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


def _grid_values(name: str, values) -> tuple:
    """A scalar or a nonempty 1-D grid as a tuple of Python floats."""
    values = np.asarray(values, dtype=float)
    if values.ndim > 1 or values.size == 0:
        raise ValueError(f"{name} must be a scalar or a nonempty 1-D array")
    return tuple(values.ravel().tolist())


def check_one_step_inequality(
    problem: FiniteSumProblem,
    cert: SolutionCertificate,
    gamma,
    x_points: np.ndarray,
    z_points: np.ndarray,
) -> LemmaCheckResult:
    """Check the one-step energy inequality at paired probe points.

    With (a, b, c, v) from :func:`lastiter.bounds.abc_constants`,

        a f(x) + b f(z) + c inf f
            <= (||x - z||^2 - E||x - gamma grad f_i(x) - z||^2) / (2 gamma) + v

    for every zipped (x, z) pair and every step size in ``gamma``, a scalar
    or a 1-D grid.  The right side is evaluated in the expanded form
    E<grad f_i(x), x - z> - (gamma/2) E||grad f_i(x)||^2 + v, which equals it
    without the cancellation of two O(||x - z||^2) terms that dividing by a
    small gamma would magnify.  f(x), f(z) and both expectations do not
    depend on gamma, so each pair is evaluated once for the whole grid.

    The grid size is (steps x pairs), and the worst point (pair, gamma) is
    the first minimum in step-major order: the row a call per step size,
    merged in grid order, would report.
    """
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    z_points = np.atleast_2d(np.asarray(z_points, dtype=float))
    if x_points.shape != z_points.shape:
        raise ValueError("x and z probe arrays must have the same shape")
    gammas = _grid_values("gamma", gamma)
    consts = [abc_constants(g, problem.L, cert.sigma_star_sq) for g in gammas]
    a, b, c, v = (np.array([getattr(k, name) for k in consts])[:, None] for name in "abcv")
    half_gamma = 0.5 * np.array(gammas)[:, None]

    count = x_points.shape[0]
    fx, fz, inner, sq_mean = (np.empty(count) for _ in range(4))
    for rows in _chunks(problem, count):
        x, z = x_points[rows], z_points[rows]
        grads = problem.component_grads_at(None, x)
        fx[rows], fz[rows] = problem.value(x), problem.value(z)
        inner[rows] = problem.weighted_mean(np.einsum("pnd,pd->pn", grads, x - z))
        sq_mean[rows] = problem.weighted_mean(_sq_norms(grads))
    # (step, pair) layout: the flat argmin is the first minimum in step-major order
    lhs = a * fx + b * fz + c * cert.inf_f
    rhs = inner - half_gamma * sq_mean + v
    slack = rhs - lhs
    j, k = np.unravel_index(int(np.argmin(slack)), slack.shape)
    details = {
        "x": x_points[k].tolist(),
        "z": z_points[k].tolist(),
        "gamma": gammas[j],
        "lhs": float(lhs[j, k]),
        "rhs": float(rhs[j, k]),
    }
    return _result(
        "one_step_descent",
        slack.size,
        slack[j, k],
        (int(k), gammas[j]),
        details={"worst": details},
    )


def check_weight_bounds(T: int, phi_value) -> LemmaCheckResult:
    """Check the weight-sequence growth bounds at horizon T for each phi in ``phi_value``.

    Three claims about alpha from :func:`lastiter.bounds.weight_sequence`
    with ratio_ab = phi - 1:

    * lower: alpha_{T-1} >= (T+1)**(1-phi) / 2;
    * sum: sum_t alpha_t / alpha_{T-1} <= 2 (1 + (T**phi - 1)/phi)
      (limit 2 (1 + ln T) at phi = 0); the looser constant-3 form is
      recorded in the details;
    * chain: (alpha_T + sum_t alpha_t) / alpha_{T-1} <= 4 T**phi ln(T+1).

    ``phi_value`` is a scalar or a 1-D grid.  Its weight sequences are built
    in batches of at most max(1, ``_STACK_ENTRIES`` // (T + 2)) phis, one row
    per phi.  The slack arithmetic stays in Python floats: numpy's
    vectorized pow and log can differ from them in the last bit.  The grid
    size is 3 per phi, and the worst point (T, phi, claim) is the first
    minimum in phi order, then claim order.  T must lie in the domain of
    ``weight_T_grid`` and is checked once; ``weight_sequence`` refuses phi
    outside [0, 1].
    """
    check_grid("weight_T_grid", T)
    T = int(T)
    phis = _grid_values("phi_value", phi_value)
    step = max(1, _STACK_ENTRIES // (T + 2))
    worst_slacks, rows = [], []
    for start in range(0, len(phis), step):
        batch = phis[start : start + step]
        alphas = weight_sequence(T, np.array(batch) - 1.0).alphas
        # alpha_{T-1}, sum_t alpha_t and alpha_T of each row, as Python floats
        columns = zip(alphas[:, T].tolist(), alphas[:, 1 : T + 1].sum(axis=1).tolist(), alphas[:, T + 1].tolist())
        for phi, (alpha_last, total, alpha_next) in zip(batch, columns):
            ratio_sum = total / alpha_last
            lower_slack = alpha_last - 0.5 * (T + 1.0) ** (1.0 - phi)
            if phi > 0:
                sum_envelope = 1.0 + (T**phi - 1.0) / phi
            else:
                sum_envelope = 1.0 + math.log(T)
            sum_slack = 2.0 * sum_envelope - ratio_sum
            chain = (alpha_next + total) / alpha_last
            chain_slack = 4.0 * T**phi * math.log(T + 1.0) - chain
            named = {"lower": lower_slack, "sum": sum_slack, "chain": chain_slack}
            worst_name = min(named, key=named.get)
            worst_slacks.append(named[worst_name])
            rows.append((worst_name, {
                "lower_slack": lower_slack,
                "sum_slack": sum_slack,
                "sum_slack_constant3": 3.0 * sum_envelope - ratio_sum,
                "chain_slack": chain_slack,
            }))
    j = int(np.argmin(worst_slacks))
    worst_name, details = rows[j]
    return _result(
        "weight_bounds",
        3 * len(phis),
        worst_slacks[j],
        (T, phis[j], worst_name),
        details=details,
    )


def check_exponent_inequality(t_grid: np.ndarray, theta_grid: np.ndarray) -> LemmaCheckResult:
    """Check 3 + 2 (t**theta - 1)/theta <= 4 t**theta ln(t+1), flagged at t = 1.

    The claim fails at t = 1 for every theta: the left side is exactly 3
    while the right side is 4 ln 2.  The result is therefore flagged; the
    details report the boundary values, the largest first-valid t across
    the theta grid, and whether the inequality holds from there on.  When
    no theta has a valid t, ``first_valid_t_max`` is None (JSON null) and
    ``holds_beyond_first_valid`` is false.
    """
    t = check_grid("exponent_t_grid", t_grid)
    theta = check_grid("exponent_theta_grid", theta_grid)
    power = t[:, None] ** theta[None, :]
    lhs = 3.0 + 2.0 * (power - 1.0) / theta[None, :]
    rhs = 4.0 * power * np.log(t + 1.0)[:, None]
    slack = rhs - lhs
    flat = int(np.argmin(slack))
    i, j = np.unravel_index(flat, slack.shape)
    worst = float(slack[i, j])
    ok = slack >= SLACK_TOL
    found = ok.any(axis=0)
    first_valid = t[ok.argmax(axis=0)[found]]
    details = {
        "boundary_t": 1.0,
        "boundary_lhs": 3.0,
        "boundary_rhs": 4.0 * math.log(2.0),
        "boundary_slack": 4.0 * math.log(2.0) - 3.0,
        "first_valid_t_max": float(first_valid.max()) if first_valid.size else None,
        # a column holds from its first valid t on if no later t fails
        "holds_beyond_first_valid": bool(found.all() and (np.logical_or.accumulate(ok, axis=0) == ok).all()),
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
    x_grid = check_grid("exp_convexity_x_grid", x_grid)
    a_grid = check_grid("exp_convexity_a_grid", a_grid)
    worst = math.inf
    worst_point = ()
    count = 0
    for a in a_grid:
        xs = _sorted_unique(np.concatenate(([0.0, a], x_grid[x_grid <= a])))
        slack = xs * np.expm1(a) / a + 1.0 - np.exp(xs)
        count += xs.size
        j = int(np.argmin(slack))
        if slack[j] < worst:
            worst = float(slack[j])
            worst_point = (float(xs[j]), float(a))
    return _result("exp_convexity", count, worst, worst_point)


_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def _log_poch(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """ln (a)_m = ln Gamma(a+m)/Gamma(a) for a > 0 and m in [0, 1], after cephes ``poch``.

    m = 1 is the one integer step, exactly ln a, and m = 0 is exactly 0.
    Above a = 1e4 the lgamma difference would lose about a ln a to
    cancellation, so there the three-term asymptotic series of cephes is
    used, in powers of u = 1/a and taken in log form:
    m ln a + log1p(u (m(m-1)/2 + u (...))).
    """
    a, m = np.broadcast_arrays(a, m)
    out = np.zeros(a.shape)
    step = m == 1.0
    out[step] = np.log(a[step])
    large = (a > 1e4) & (m > 0.0) & ~step
    al, ml = a[large], m[large]
    u = 1.0 / al
    series = ml * (ml - 1.0) / 2.0 + u * (
        ml * (ml - 1.0) * (ml - 2.0) * (3.0 * ml - 1.0) / 24.0
        + u * ml * ml * (ml - 1.0) ** 2 * (ml - 2.0) * (ml - 3.0) / 48.0
    )
    out[large] = ml * np.log(al) + np.log1p(u * series)
    small = (m > 0.0) & ~step & ~large
    out[small] = (_LGAMMA(a[small] + m[small]) - _LGAMMA(a[small])).astype(float)
    return out


def check_gautschi(x_grid: np.ndarray, c_grid: np.ndarray) -> LemmaCheckResult:
    """Check x**(1-c) <= Gamma(x+1)/Gamma(x+c) <= (x+1)**(1-c) in log form.

    Valid for x > 0 and c in [0, 1].  Slacks are measured on the log of the
    Gamma ratio, which keeps the check absolute-tolerance friendly for large
    x where the plain ratio grows like x.  The ratio is the Pochhammer symbol
    (x+c)_(1-c): a difference of two log-Gamma values loses their size, about
    x ln x, to cancellation, which ``_log_poch`` avoids for large x.
    """
    x = check_grid("gautschi_x_grid", x_grid)
    c = check_grid("gautschi_c_grid", c_grid)
    log_ratio = _log_poch(x[:, None] + c[None, :], 1.0 - c[None, :])
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

    ``points`` is an (S, d) array with S >= 2, or the cloud ``run_battery``
    has already evaluated.
    """
    cloud = _cloud(problem, cert, points)
    if cloud.points.shape[0] < 2:
        raise ValueError("need at least two probe points")
    slack = cloud.slack
    split_size = (cloud.points.shape[0] - 1) * problem.n
    j = int(np.argmin(slack))
    if j < split_size:
        worst_point = ("split", *divmod(j, problem.n))
    else:
        worst_point = ("expected_smoothness", j - split_size)
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


def _merge(parts: list) -> LemmaCheckResult:
    """Combine (label, result) parts of the same check into one battery row."""
    total = sum(r.grid_size for (_, r) in parts)
    label, worst = min(parts, key=lambda item: item[1].worst_slack)
    return LemmaCheckResult(
        lemma_id=worst.lemma_id,
        grid_size=total,
        worst_slack=worst.worst_slack,
        worst_point=(label,) + worst.worst_point,
        passed=all(r.passed for (_, r) in parts),
        flagged=any(r.flagged for (_, r) in parts),
        details=dict(worst.details, worst_source=label),
    )


def run_battery(problem_entries: list, grids: dict) -> list[LemmaCheckResult]:
    """Run every check over its grid and every supplied problem.

    Probe points are drawn from one stream, one problem at a time: its
    point cloud, then its pair cloud.  The point cloud is evaluated once,
    for the variance and second-moment checks, and dropped before the
    one-step check runs on the pairs; all three run before the next
    problem's draw.

    Args:
        problem_entries: list of (label, problem, certificate) triples for
            the problem-dependent checks.
        grids: resolved grid arrays and scalars, as in the ``grids`` of
            ``lastiter.config.load_lemma_plan``.

    Returns:
        One result per check, in ``BATTERY_ORDER``.
    """
    if not problem_entries:
        raise ValueError("the battery needs at least one problem entry")
    radius = float(check_grid("point_radius", grids["point_radius"]))
    gamma_ls = check_grid("gamma_l_grid", grids["gamma_l_grid"])
    rng = stream(grids["point_seed"], POINT_STREAM)
    variance_parts, one_step_parts, second_parts = [], [], []
    for label, problem, cert in problem_entries:
        points = cert.x_star + radius * rng.standard_normal((grids["n_points"], problem.dimension))
        pairs = cert.x_star + radius * rng.standard_normal((2, grids["n_pairs"], problem.dimension))
        cloud = _evaluate_cloud(problem, cert, points)
        variance_parts.append((label, check_variance_transfer(problem, cert, cloud, grids["eps_grid"])))
        second_parts.append((label, check_second_moment_transfer(problem, cert, cloud)))
        del cloud
        gammas = gamma_ls / problem.L
        result = check_one_step_inequality(problem, cert, gammas, *pairs)
        # the first step size equal to the worst one is the grid entry it came from
        gl = gamma_ls[gammas.tolist().index(result.worst_point[1])]
        one_step_parts.append((f"{label}:gl={gl:g}", result))
    phis = check_grid("weight_phi_grid", grids["weight_phi_grid"])
    weight_parts = [
        (f"T={T:.0f}", check_weight_bounds(T, phis))
        for T in grids["weight_T_grid"]
    ]
    return [
        _merge(variance_parts),
        _merge(one_step_parts),
        _merge(weight_parts),
        check_exponent_inequality(grids["exponent_t_grid"], grids["exponent_theta_grid"]),
        check_exp_convexity(grids["exp_convexity_x_grid"], grids["exp_convexity_a_grid"]),
        check_gautschi(grids["gautschi_x_grid"], grids["gautschi_c_grid"]),
        _merge(second_parts),
    ]
