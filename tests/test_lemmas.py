"""Inequality checks: recomputation oracles, grids, and battery assembly."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.special

import lastiter as li
import lastiter.cli as cli
from lastiter.lemmas import _log_poch
from lastiter.rng import POINT_STREAM, stream


def two_quadratics():
    """f_1 = x^2/2, f_2 = x^2 with shared minimizer 0 (exact L = 2)."""
    design = np.zeros((2, 2, 1))
    design[0, 0, 0] = 1.0
    design[1, :, 0] = 1.0
    return li.LeastSquaresProblem(design, np.zeros((2, 2)))


def small_entries(seed=314):
    problem, cert = li.make_least_squares(n=8, d=3, spread=1.0, seed=seed)
    return [("ls8", problem, cert)]


def small_grids(**overrides):
    grids = {
        "n_points": 12,
        "n_pairs": 8,
        "point_radius": 2.0,
        "point_seed": 99,
        "eps_grid": np.array([0.1, 1.0, 10.0]),
        "gamma_l_grid": np.array([0.25, 0.75]),
        "weight_T_grid": np.array([3.0, 10.0, 100.0]),
        "weight_phi_grid": np.array([0.0, 0.5, 1.0]),
        "exponent_t_grid": np.geomspace(1.0, 1e3, 50),
        "exponent_theta_grid": np.geomspace(1e-2, 2.0, 9),
        "exp_convexity_x_grid": np.linspace(0.0, 5.0, 11),
        "exp_convexity_a_grid": np.array([0.5, 1.0, 4.0]),
        "gautschi_x_grid": np.geomspace(0.1, 100.0, 15),
        "gautschi_c_grid": np.linspace(0.0, 1.0, 5),
    }
    grids.update(overrides)
    return grids


# -- variance transfer ---------------------------------------------------


def test_variance_transfer_single_point_oracle():
    """Recompute both sides by hand at one (point, eps) pair."""
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    x = np.array([1.5])
    eps = 0.5
    # component grads: f_1' = x, f_2' = 2x
    lhs = 0.5 * (1.5**2 + 3.0**2)
    f_gap = 0.5 * (0.5 * 1.5**2 + 1.5**2)
    rhs = 2.0 * 2.0 * (1.0 + eps) * f_gap + (1.0 + 1.0 / eps) * cert.sigma_star_sq
    res = li.check_variance_transfer(problem, cert, x.reshape(1, 1), np.array([eps]))
    assert res.lemma_id == "variance_transfer"
    assert res.grid_size == 1
    assert abs(res.worst_slack - (rhs - lhs)) <= 1e-12 * max(1.0, rhs)
    assert res.worst_point == (0, eps)
    assert res.details["worst"]["lhs"] == pytest.approx(lhs, rel=1e-12)
    assert res.details["worst"]["rhs"] == pytest.approx(rhs, rel=1e-12)


def test_variance_transfer_holds_on_random_clouds():
    for seed in (0, 7, 21):
        problem, cert = li.make_least_squares(n=10, d=4, spread=1.5, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        points = cert.x_star + 3.0 * rng.standard_normal((40, problem.dimension))
        eps_grid = np.geomspace(1e-3, 1e3, 7)
        res = li.check_variance_transfer(problem, cert, points, eps_grid)
        assert res.passed
        assert not res.flagged
        assert res.grid_size == 40 * 7
        k, eps = res.worst_point
        assert 0 <= k < 40 and eps in eps_grid


def test_non_finite_slack_raises_instead_of_passing():
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError, match="not finite"):
        li.check_variance_transfer(problem, cert, np.full((1, 1), 1e200), np.array([1.0]))


def test_variance_transfer_rejects_nonpositive_eps():
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    with pytest.raises(ValueError):
        li.check_variance_transfer(problem, cert, np.ones((2, 1)), np.array([0.0, 1.0]))


# -- one step descent ------------------------------------------------------


def test_one_step_single_pair_oracle():
    """Recompute the energy identity by hand for one (x, z) pair."""
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    gamma = 0.25
    x = np.array([2.0])
    z = np.array([-1.0])
    consts = li.abc_constants(gamma, problem.L, cert.sigma_star_sq)
    lhs = consts.a * problem.value(x) + consts.b * problem.value(z) + consts.c * cert.inf_f
    # moved points: x - gamma * f_i'(x) for f_1' = x, f_2' = 2x
    moved_sq = 0.5 * ((x[0] - gamma * x[0] - z[0]) ** 2 + (x[0] - 2 * gamma * x[0] - z[0]) ** 2)
    rhs = ((x[0] - z[0]) ** 2 - moved_sq) / (2.0 * gamma) + consts.v
    res = li.check_one_step_inequality(problem, cert, gamma, x.reshape(1, 1), z.reshape(1, 1))
    assert res.lemma_id == "one_step_descent"
    assert res.grid_size == 1
    assert res.worst_point == (0, gamma)
    assert res.worst_slack == pytest.approx(rhs - lhs, abs=1e-12)


def test_one_step_holds_on_random_pairs():
    for seed, gl in ((3, 0.1), (4, 0.5), (5, 0.9)):
        problem, cert = li.make_least_squares(n=9, d=3, spread=1.0, seed=seed)
        gamma = gl / problem.L
        rng = np.random.default_rng(2000 + seed)
        xs = cert.x_star + 2.0 * rng.standard_normal((30, problem.dimension))
        zs = cert.x_star + 2.0 * rng.standard_normal((30, problem.dimension))
        res = li.check_one_step_inequality(problem, cert, gamma, xs, zs)
        assert res.passed
        assert res.grid_size == 30


def test_one_step_is_exact_at_small_step():
    """At gamma L = 1e-12 the worst slack agrees with the expanded right side written out."""
    problem, cert = li.make_least_squares(n=20, d=5, spread=1.0, seed=11)
    gamma = 1e-12 / problem.L
    rng = np.random.default_rng(11)
    xs = cert.x_star + 2.0 * rng.standard_normal((100, problem.dimension))
    zs = cert.x_star + 2.0 * rng.standard_normal((100, problem.dimension))
    consts = li.abc_constants(gamma, problem.L, cert.sigma_star_sq)
    slacks = [
        float(problem.grad(x) @ (x - z)) - 0.5 * gamma * problem.second_moment(x) + consts.v
        - (consts.a * problem.value(x) + consts.b * problem.value(z) + consts.c * cert.inf_f)
        for x, z in zip(xs, zs)
    ]
    res = li.check_one_step_inequality(problem, cert, gamma, xs, zs)
    assert abs(res.worst_slack - min(slacks)) <= 1e-12


def test_one_step_rejects_mismatched_shapes():
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    with pytest.raises(ValueError):
        li.check_one_step_inequality(
            problem, cert, 0.1, np.ones((3, 1)), np.ones((2, 1))
        )


# -- weight growth bounds ---------------------------------------------------


def test_weight_bounds_slacks_recomputed_directly():
    """All three named slacks rebuilt from the raw weight sequence."""
    for T, phi in ((3, 0.0), (50, 0.4), (997, 0.97), (10, 1.0)):
        seq = li.weight_sequence(T, phi - 1.0)
        alpha = seq.alphas
        total = float(alpha[1 : T + 1].sum())
        lower = alpha[T] - 0.5 * (T + 1.0) ** (1.0 - phi)
        envelope = 1.0 + (T**phi - 1.0) / phi if phi > 0 else 1.0 + math.log(T)
        summ = 2.0 * envelope - total / alpha[T]
        chain = 4.0 * T**phi * math.log(T + 1.0) - (alpha[T + 1] + total) / alpha[T]
        res = li.check_weight_bounds(T, phi)
        assert res.grid_size == 3
        expected = min(lower, summ, chain)
        assert res.worst_slack == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert res.passed
        assert res.worst_point[0] == T
        assert res.worst_point[1] == pytest.approx(phi)
        assert res.worst_point[2] in ("lower", "sum", "chain")
        assert res.details["sum_slack_constant3"] >= res.details["sum_slack"]


def test_weight_bounds_hold_over_grid():
    for T in (3, 7, 31, 200, 1500):
        for phi in np.linspace(0.0, 1.0, 9):
            res = li.check_weight_bounds(T, float(phi))
            assert res.passed, (T, phi, res.worst_slack)


def test_weight_bounds_rejects_phi_outside_unit_interval():
    with pytest.raises(ValueError):
        li.check_weight_bounds(10, -0.1)
    with pytest.raises(ValueError):
        li.check_weight_bounds(10, 1.5)


# -- exponent simplification -------------------------------------------------


def test_exponent_inequality_boundary_is_flagged_not_passed():
    res = li.check_exponent_inequality(
        np.geomspace(1.0, 1e4, 200), np.geomspace(1e-3, 2.0, 15)
    )
    assert res.flagged
    assert not res.passed
    assert res.details["boundary_t"] == 1.0
    assert res.details["boundary_lhs"] == 3.0
    assert res.details["boundary_rhs"] == pytest.approx(4.0 * math.log(2.0))
    assert res.details["boundary_slack"] < 0
    assert res.details["holds_beyond_first_valid"]
    # worst point sits at the failing boundary
    assert res.worst_point[0] == 1.0
    assert res.worst_slack == pytest.approx(4.0 * math.log(2.0) - 3.0, rel=1e-12)


def test_exponent_inequality_holds_away_from_boundary():
    res = li.check_exponent_inequality(
        np.geomspace(2.0, 1e4, 150), np.geomspace(1e-3, 2.0, 15)
    )
    assert res.flagged  # the check always reports its boundary caveat
    assert res.worst_slack > 0
    assert res.details["first_valid_t_max"] == 2.0


def exponent_bookkeeping_by_loop(t, theta):
    """(first_valid_t_max, holds_beyond_first_valid, column kinds), one theta column at a time."""
    power = t[:, None] ** theta[None, :]
    slack = 4.0 * power * np.log(t + 1.0)[:, None] - (3.0 + 2.0 * (power - 1.0) / theta[None, :])
    first_valid, holds, kinds = [], True, set()
    for ok in (slack >= li.SLACK_TOL).T:
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            holds = False
            kinds.add("never valid")
            continue
        first_valid.append(float(t[idx[0]]))
        if not ok[idx[0]:].all():
            holds = False
            kinds.add("valid then invalid")
        else:
            kinds.add("valid from the first entry" if idx[0] == 0 else "valid only later")
    return (max(first_valid) if first_valid else None), holds, kinds


@pytest.mark.parametrize("t, theta, kinds", [
    ([1.5, 1.2, 1.8], [2.0, 0.3, 0.1, 0.01],
     {"valid from the first entry", "valid only later", "never valid", "valid then invalid"}),
    ([1.0, 100.0, 1.5], [1e-3, 2.0], {"valid only later", "valid then invalid"}),
])
def test_exponent_inequality_bookkeeping_matches_a_column_loop(t, theta, kinds):
    """The first valid t and the holds-beyond flag agree with a per-column loop, on unsorted grids."""
    t, theta = np.array(t), np.array(theta)
    first_valid_max, holds, seen = exponent_bookkeeping_by_loop(t, theta)
    assert seen == kinds
    details = li.check_exponent_inequality(t, theta).details
    assert details["first_valid_t_max"] == first_valid_max
    assert details["holds_beyond_first_valid"] is holds


def test_exponent_inequality_without_a_valid_t_reports_null():
    """No theta has a valid t at t = 1 alone: no max over an empty set, and no NaN in the details."""
    details = li.check_exponent_inequality(np.array([1.0]), np.array([0.5])).details
    assert details["first_valid_t_max"] is None
    assert details["holds_beyond_first_valid"] is False


def test_exponent_inequality_grid_validation():
    with pytest.raises(ValueError):
        li.check_exponent_inequality(np.array([0.5, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        li.check_exponent_inequality(np.array([2.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        li.check_exponent_inequality(np.array([2.0]), np.array([2.5]))


# -- chord bound on exp -------------------------------------------------------


def test_exp_convexity_oracle_and_tight_endpoints():
    """slack(x) = x (e^a - 1)/a + 1 - e^x, zero at both endpoints."""
    res = li.check_exp_convexity(np.array([0.5]), np.array([1.0]))
    # probe set is {0, 0.5, 1}; interior slack computed directly
    interior = 0.5 * math.expm1(1.0) + 1.0 - math.exp(0.5)
    assert res.grid_size == 3
    assert res.passed
    assert res.worst_slack <= interior + 1e-15
    assert abs(res.worst_slack) <= 1e-12  # endpoints are exactly tight
    assert res.worst_point[0] in (0.0, 0.5, 1.0)
    assert res.worst_point[1] == 1.0


def test_exp_convexity_holds_on_default_style_grid():
    res = li.check_exp_convexity(np.linspace(0.0, 10.0, 41), np.geomspace(1e-3, 10.0, 40))
    assert res.passed
    assert not res.flagged


def test_exp_convexity_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        li.check_exp_convexity(np.array([0.5]), np.array([0.0, 1.0]))


# -- gamma function ratio ------------------------------------------------------


def test_gautschi_oracle_at_x2_c_half():
    """Gamma(3)/Gamma(2.5) must land between sqrt(2) and sqrt(3)."""
    ratio = math.exp(math.lgamma(3.0) - math.lgamma(2.5))
    assert math.sqrt(2.0) < ratio < math.sqrt(3.0)
    res = li.check_gautschi(np.array([2.0]), np.array([0.5]))
    assert res.grid_size == 2
    expected = min(
        math.log(ratio) - 0.5 * math.log(2.0),
        0.5 * math.log(3.0) - math.log(ratio),
    )
    assert res.worst_slack == pytest.approx(expected, rel=1e-12)
    assert res.worst_point[2] in ("lower", "upper")
    assert res.passed


def test_gautschi_log_domain_survives_large_x():
    res = li.check_gautschi(np.array([1e4]), np.linspace(0.0, 1.0, 11))
    assert res.passed
    assert np.isfinite(res.worst_slack)


def test_gautschi_tight_at_c_equal_one():
    res = li.check_gautschi(np.geomspace(0.5, 50.0, 9), np.array([1.0]))
    # ratio and both envelopes are identically 1, slack is exactly 0
    assert abs(res.worst_slack) <= 1e-12
    assert res.passed


def test_log_poch_matches_cephes_poch():
    """x over gautschi_x_grid's whole domain, c over [0, 1] with both ends.

    filterwarnings = error turns an overflow or log(0) warning at either end
    into a failure.
    """
    x = np.concatenate((
        np.geomspace(1e-300, 1e-3, 60),
        np.geomspace(1e-3, 1e4, 120),
        np.geomspace(1e4, 1e308, 60),
        [np.nextafter(1e4, 0.0), np.nextafter(1e4, np.inf), np.finfo(float).max],
    ))
    c = np.concatenate((np.linspace(0.0, 1.0, 41), [1e-17, 1e-9, 1.0 - 1e-12, 1.0 - 1e-17]))
    a, m = x[:, None] + c[None, :], 1.0 - c[None, :]
    ours = _log_poch(a, m)
    assert np.all(np.isfinite(ours))
    assert np.array_equal(ours[:, 0], np.log(x))  # c = 0: the exact integer step
    assert np.all(ours[:, 40] == 0.0)  # c = 1: the empty product
    reference = np.log(scipy.special.poch(a, m))
    assert np.max(np.abs(ours - reference)) <= 1e-10
    assert li.check_gautschi(x, c).passed


def test_gautschi_on_the_default_grids():
    x = li.resolve_grid(li.LEMMA_GRIDS["gautschi_x_grid"].default)
    c = li.resolve_grid(li.LEMMA_GRIDS["gautschi_c_grid"].default)
    res = li.check_gautschi(x, c)
    assert res.worst_slack == 0.0
    assert res.worst_point == (0.1, 0.0, "lower")


def test_gautschi_grid_validation():
    with pytest.raises(ValueError):
        li.check_gautschi(np.array([0.0, 1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        li.check_gautschi(np.array([1.0]), np.array([-0.1]))
    with pytest.raises(ValueError):
        li.check_gautschi(np.array([1.0]), np.array([1.1]))


# -- gradient second moment transfer ------------------------------------------


def test_second_moment_split_oracle():
    """Recompute the split inequality componentwise for a fixed pair."""
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    points = np.array([[1.0], [3.0]])
    res = li.check_second_moment_transfer(problem, cert, points)
    # grads at x=1: (1, 2); at y=3: (3, 6)
    split_slacks = [2 * 1.0 + 2 * (3.0 - 1.0) ** 2 - 9.0, 2 * 4.0 + 2 * (6.0 - 2.0) ** 2 - 36.0]
    # expected smoothness at each point: E||g_i(x)||^2/(2L) vs f(x) - inf
    smooth_slacks = []
    for x in (1.0, 3.0):
        expected_sq = 0.5 * (x**2 + (2 * x) ** 2)
        smooth_slacks.append(0.5 * (0.5 * x**2 + x**2) - expected_sq / 4.0)
    expected_worst = min(split_slacks + smooth_slacks)
    assert res.worst_slack == pytest.approx(expected_worst, rel=1e-12)
    assert res.grid_size == 2 + 2  # one consecutive pair (2 components) + 2 points
    assert res.worst_point[0] in ("split", "expected_smoothness")


def test_second_moment_tight_along_top_eigenvector():
    """Expected smoothness is an equality on the top curvature direction."""
    design = np.zeros((1, 2, 2))
    design[0, 0, 0] = 2.0  # single component, Hessian diag(4, 1)
    design[0, 1, 1] = 1.0
    problem = li.LeastSquaresProblem(design, np.zeros((1, 2)))
    cert = li.certify_solution(problem)
    points = np.array([[1.0, 0.0], [2.0, 0.0]])
    res = li.check_second_moment_transfer(problem, cert, points)
    assert res.worst_slack == pytest.approx(0.0, abs=1e-12)
    assert res.passed


def test_second_moment_holds_on_random_clouds():
    for seed in (11, 12):
        problem, cert = li.make_least_squares(n=7, d=5, spread=2.0, seed=seed)
        rng = np.random.default_rng(3000 + seed)
        points = cert.x_star + 2.5 * rng.standard_normal((25, problem.dimension))
        res = li.check_second_moment_transfer(problem, cert, points)
        assert res.passed


def test_second_moment_needs_two_points():
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    with pytest.raises(ValueError):
        li.check_second_moment_transfer(problem, cert, np.ones((1, 1)))


# -- stacked checks against per-point loops ----------------------------------


def row_sq(vectors):
    return np.einsum("ni,ni->n", vectors, vectors)


def loop_variance_transfer(problem, cert, points, eps_grid):
    """Per-point reference: (grid size, worst slack, worst point)."""
    worst, worst_point = math.inf, ()
    for k, x in enumerate(points):
        lhs = problem.second_moment(x)
        suboptimality = problem.value(x) - cert.inf_f
        rhs = 2.0 * problem.L * (1.0 + eps_grid) * suboptimality + (
            1.0 + 1.0 / eps_grid
        ) * cert.sigma_star_sq
        slacks = rhs - lhs
        j = int(np.argmin(slacks))
        if slacks[j] < worst:
            worst, worst_point = float(slacks[j]), (k, float(eps_grid[j]))
    return len(points) * eps_grid.size, worst, worst_point


def loop_one_step(problem, cert, gamma, xs, zs):
    """Per-pair reference: (grid size, worst slack, worst point)."""
    consts = li.abc_constants(gamma, problem.L, cert.sigma_star_sq)
    worst, worst_point = math.inf, ()
    for k, (x, z) in enumerate(zip(xs, zs)):
        moved = (x - gamma * problem.component_grads_at(None, x)) - z
        moved_sq = float(problem.weights @ row_sq(moved))
        lhs = consts.a * problem.value(x) + consts.b * problem.value(z) + consts.c * cert.inf_f
        rhs = (float((x - z) @ (x - z)) - moved_sq) / (2.0 * gamma) + consts.v
        if rhs - lhs < worst:
            worst, worst_point = float(rhs - lhs), (k, float(gamma))
    return len(xs), worst, worst_point


def loop_second_moment(problem, cert, points):
    """Per-pair and per-point reference: (grid size, worst slack, worst point)."""
    grads_star = problem.component_grads_at(None, cert.x_star)
    worst, worst_point, count = math.inf, (), 0
    for k in range(len(points) - 1):
        gx = problem.component_grads_at(None, points[k])
        gy = problem.component_grads_at(None, points[k + 1])
        split = 2.0 * row_sq(gx) + 2.0 * row_sq(gy - gx) - row_sq(gy)
        count += split.size
        i = int(np.argmin(split))
        if split[i] < worst:
            worst, worst_point = float(split[i]), ("split", k, i)
    for k, x in enumerate(points):
        dx = problem.component_grads_at(None, x) - grads_star
        expected_sq = float(problem.weights @ row_sq(dx))
        smooth = (problem.value(x) - cert.inf_f) - expected_sq / (2.0 * problem.L)
        count += 1
        if smooth < worst:
            worst, worst_point = float(smooth), ("expected_smoothness", k)
    return count, worst, worst_point


def oracle_family(kind):
    if kind == "logistic":
        return li.make_logistic(n=10, d=3, seed=17)
    problem, cert = li.make_least_squares(n=9, d=3, spread=1.0, seed=41)
    if kind == "uniform_least_squares":
        return problem, cert
    weights = np.random.default_rng(5).uniform(0.5, 2.0, problem.n)
    weighted = li.LeastSquaresProblem(problem.design, problem.offsets, weights / weights.sum())
    assert not weighted.uniform_weights
    return weighted, li.certify_solution(weighted)


def assert_same(result, reference):
    grid_size, worst, worst_point = reference
    assert result.grid_size == grid_size
    assert result.worst_point == worst_point
    assert abs(result.worst_slack - worst) <= 1e-12


@pytest.mark.parametrize("kind", ["uniform_least_squares", "weighted_least_squares", "logistic"])
@pytest.mark.parametrize("chunk_points", [1, 7, None], ids=["one-point", "several", "whole-cloud"])
def test_stacked_checks_match_per_point_loops(monkeypatch, kind, chunk_points):
    """Same grid size, worst point and worst slack as the loops, whatever the chunking."""
    problem, cert = oracle_family(kind)
    rng = np.random.default_rng(2024)
    points = cert.x_star + 2.0 * rng.standard_normal((23, problem.dimension))
    zs = cert.x_star + 2.0 * rng.standard_normal((23, problem.dimension))
    entries = 10**9 if chunk_points is None else chunk_points * problem.n * problem.dimension
    monkeypatch.setattr(li.lemmas, "_STACK_ENTRIES", entries)
    eps_grid = np.geomspace(1e-3, 1e3, 7)
    assert_same(
        li.check_variance_transfer(problem, cert, points, eps_grid),
        loop_variance_transfer(problem, cert, points, eps_grid),
    )
    for gl in (0.1, 0.9):
        gamma = gl / problem.L
        assert_same(
            li.check_one_step_inequality(problem, cert, gamma, points, zs),
            loop_one_step(problem, cert, gamma, points, zs),
        )
    assert_same(
        li.check_second_moment_transfer(problem, cert, points),
        loop_second_moment(problem, cert, points),
    )


# -- battery -------------------------------------------------------------------


def test_battery_order_and_flags():
    results = li.run_battery(small_entries(), small_grids())
    assert [r.lemma_id for r in results] == list(li.BATTERY_ORDER)
    for r in results:
        if r.lemma_id == "exponent_inequality":
            assert r.flagged and not r.passed
        else:
            assert not r.flagged
            assert r.passed, (r.lemma_id, r.worst_slack, r.worst_point)


def test_battery_merged_worst_points_carry_source_labels():
    results = {r.lemma_id: r for r in li.run_battery(small_entries(), small_grids())}
    assert results["variance_transfer"].worst_point[0] == "ls8"
    assert results["one_step_descent"].worst_point[0].startswith("ls8:gl=")
    assert results["weight_bounds"].worst_point[0].startswith("T=")
    assert results["grad_second_moment_transfer"].worst_point[0] == "ls8"
    assert results["variance_transfer"].details["worst_source"] == "ls8"


def test_battery_grid_sizes_aggregate():
    grids = small_grids()
    results = {r.lemma_id: r for r in li.run_battery(small_entries(), grids)}
    assert results["variance_transfer"].grid_size == grids["n_points"] * grids["eps_grid"].size
    assert results["one_step_descent"].grid_size == grids["n_pairs"] * grids["gamma_l_grid"].size
    assert (
        results["weight_bounds"].grid_size
        == 3 * grids["weight_T_grid"].size * grids["weight_phi_grid"].size
    )
    assert (
        results["exponent_inequality"].grid_size
        == grids["exponent_t_grid"].size * grids["exponent_theta_grid"].size
    )
    assert (
        results["gautschi"].grid_size
        == 2 * grids["gautschi_x_grid"].size * grids["gautschi_c_grid"].size
    )


def test_battery_is_deterministic():
    a = li.run_battery(small_entries(), small_grids())
    b = li.run_battery(small_entries(), small_grids())
    for ra, rb in zip(a, b):
        assert ra == rb


def test_battery_rejects_empty_problem_list():
    with pytest.raises(ValueError):
        li.run_battery([], small_grids())


def test_battery_multiple_problems_merge():
    entries = small_entries() + [
        ("logit", *li.make_logistic(n=10, d=3, seed=17)),
    ]
    results = {r.lemma_id: r for r in li.run_battery(entries, small_grids())}
    assert results["variance_transfer"].grid_size == 2 * 12 * 3
    assert results["variance_transfer"].worst_point[0] in ("ls8", "logit")


# -- grid-valued checks --------------------------------------------------------


def merged_parts(parts):
    """The result one call over a whole grid must give: parts merged in grid order."""
    worst = min(parts, key=lambda r: r.worst_slack)
    return dataclasses.replace(
        worst,
        grid_size=sum(r.grid_size for r in parts),
        passed=all(r.passed for r in parts),
    )


def test_one_step_grid_call_agrees_with_scalar_calls():
    problem, cert = li.make_logistic(n=10, d=3, seed=17)
    rng = np.random.default_rng(7)
    xs, zs = cert.x_star + 2.0 * rng.standard_normal((2, 25, problem.dimension))
    gammas = np.array([0.9, 0.1, 0.5, 0.1, 1e-6]) / problem.L
    parts = [li.check_one_step_inequality(problem, cert, float(g), xs, zs) for g in gammas]
    assert li.check_one_step_inequality(problem, cert, gammas, xs, zs) == merged_parts(parts)
    assert li.check_one_step_inequality(problem, cert, gammas[1:2], xs, zs) == parts[1]


def test_weight_grid_call_agrees_with_scalar_calls():
    phis = np.array([0.3, 1.0, 0.0, 0.97, 1.0])
    for T in (3, 50, 997):
        parts = [li.check_weight_bounds(T, float(phi)) for phi in phis]
        assert li.check_weight_bounds(T, phis) == merged_parts(parts)
        assert li.check_weight_bounds(T, phis[2:3]) == parts[2]


@pytest.mark.parametrize("bad", [np.ones((2, 2)) * 0.5, np.array([])])
def test_grid_checks_reject_empty_and_2d_grids(bad):
    problem, cert = li.make_least_squares(n=8, d=3, spread=1.0, seed=314)
    with pytest.raises(ValueError, match="^gamma must be a scalar or a nonempty 1-D array"):
        li.check_one_step_inequality(problem, cert, bad / problem.L, np.ones((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^phi_value must be a scalar or a nonempty 1-D array"):
        li.check_weight_bounds(10, bad)


def several_problems():
    return small_entries() + [
        ("logit", *li.make_logistic(n=10, d=3, seed=17)),
        ("flat", *li.make_least_squares(n=5, d=2, spread=0.0, seed=8)),
    ]


def battery_pair_clouds(entries, grids):
    """The (x, z) clouds run_battery draws for each problem."""
    rng = stream(grids["point_seed"], POINT_STREAM)
    radius = grids["point_radius"]
    pairs = {}
    for label, problem, cert in entries:
        rng.standard_normal((grids["n_points"], problem.dimension))  # the point cloud
        pairs[label] = cert.x_star + radius * rng.standard_normal((2, grids["n_pairs"], problem.dimension))
    return pairs


@pytest.mark.parametrize("overrides", [
    {},
    # repeated entries and phi = 1, whose lower slack 1/2 ties at every T
    {"gamma_l_grid": np.array([0.75, 0.05, 0.25, 0.05]),
     "weight_T_grid": np.array([10.0, 3.0, 3.0, 100.0]),
     "weight_phi_grid": np.array([0.5, 1.0, 0.0, 1.0])},
], ids=["small", "ties"])
def test_battery_grid_rows_match_one_call_per_grid_point(overrides):
    """The one-step and weight rows equal merging one call per gamma L and per (T, phi)."""
    entries, grids = several_problems(), small_grids(**overrides)
    pairs = battery_pair_clouds(entries, grids)
    one_step = [
        (f"{label}:gl={gl:g}", li.check_one_step_inequality(problem, cert, float(gl) / problem.L, *pairs[label]))
        for label, problem, cert in entries
        for gl in grids["gamma_l_grid"]
    ]
    weights = [
        (f"T={T:.0f}", li.check_weight_bounds(T, float(phi)))
        for T in grids["weight_T_grid"]
        for phi in grids["weight_phi_grid"]
    ]
    rows = {r.lemma_id: r for r in li.run_battery(entries, grids)}
    assert rows["one_step_descent"] == li.lemmas._merge(one_step)
    assert rows["weight_bounds"] == li.lemmas._merge(weights)


def test_battery_evaluates_each_probe_pair_once(monkeypatch):
    """One chunked pass over the pair cloud per problem, whatever the gamma L grid."""
    chunk_points = 3
    grids = small_grids(gamma_l_grid=np.array([0.1, 0.5, 0.9]))
    check = li.lemmas.check_one_step_inequality
    chunks = []

    def one_step(problem, *args):
        grads_at = problem.component_grads_at
        with monkeypatch.context() as m:
            m.setattr(problem, "component_grads_at", lambda idx, x: chunks.append(len(x)) or grads_at(idx, x))
            return check(problem, *args)

    monkeypatch.setattr(li.lemmas, "check_one_step_inequality", one_step)
    for entry in several_problems():
        problem = entry[1]
        monkeypatch.setattr(li.lemmas, "_STACK_ENTRIES", chunk_points * problem.n * problem.dimension)
        chunks.clear()
        li.run_battery([entry], grids)
        assert len(chunks) == math.ceil(grids["n_pairs"] / chunk_points)
        assert sum(chunks) == grids["n_pairs"]


def test_battery_evaluates_each_point_cloud_once(monkeypatch):
    """The variance and second-moment checks share one chunked pass over each point cloud.

    Each chunk's gradients also take the point past its end, so the
    gradient rows may exceed the cloud by one per chunk, and no more.
    """
    chunk_points = 5
    grids = small_grids(n_points=23)
    chunks = math.ceil(grids["n_points"] / chunk_points)
    check = li.lemmas.check_one_step_inequality
    on_pairs = []

    def one_step(*args):  # rows of the pair cloud are not counted
        on_pairs.append(True)
        try:
            return check(*args)
        finally:
            on_pairs.pop()

    def counting(rows, key, hook):
        def counted(idx, x):
            if not on_pairs and np.ndim(x) == 2:  # x* alone is one (d,) point
                rows[key] += len(x)
            return hook(idx, x)
        return counted

    monkeypatch.setattr(li.lemmas, "check_one_step_inequality", one_step)
    for entry in several_problems():
        problem = entry[1]
        rows = {"grads": 0, "values": 0}
        monkeypatch.setattr(problem, "component_grads_at", counting(rows, "grads", problem.component_grads_at))
        monkeypatch.setattr(problem, "component_values_at", counting(rows, "values", problem.component_values_at))
        monkeypatch.setattr(li.lemmas, "_STACK_ENTRIES", chunk_points * problem.n * problem.dimension)
        li.run_battery([entry], grids)
        assert grids["n_points"] <= rows["grads"] <= grids["n_points"] + chunks, rows
        assert grids["n_points"] <= rows["values"] <= grids["n_points"] + chunks, rows


def test_battery_rows_do_not_depend_on_chunk_or_batch_sizes(monkeypatch):
    """The same rows with one point per chunk, 7 points, the default and one chunk for everything.

    ``_STACK_ENTRIES`` also sizes the weight batches, from one phi per batch
    to the whole phi grid at once.
    """
    grids = small_grids(
        n_points=17,
        weight_T_grid=np.array([1.0, 2.0, 10.0, 40.0, 5000.0]),
        weight_phi_grid=np.linspace(0.0, 1.0, 13),
    )
    default = li.lemmas._STACK_ENTRIES
    for entry in several_problems():
        problem = entry[1]
        rows = []
        for entries in (problem.n * problem.dimension, 7 * problem.n * problem.dimension, default, 10**9):
            monkeypatch.setattr(li.lemmas, "_STACK_ENTRIES", entries)
            rows.append(li.run_battery([entry], grids))
        assert all(other == rows[0] for other in rows[1:])


@pytest.mark.parametrize("stack_entries", [1, 100, None], ids=["one-entry", "small", "default"])
def test_weight_batches_stay_within_the_stack_bound(monkeypatch, stack_entries):
    """Each weight batch holds at most max(_STACK_ENTRIES, T + 2) entries, max(1, _STACK_ENTRIES // (T + 2)) phis."""
    if stack_entries is not None:
        monkeypatch.setattr(li.lemmas, "_STACK_ENTRIES", stack_entries)
    bound = li.lemmas._STACK_ENTRIES
    build = li.lemmas.weight_sequence
    sizes = []

    def recording(T, ratio_ab):
        seq = build(T, ratio_ab)
        sizes.append(seq.alphas.size)
        return seq

    monkeypatch.setattr(li.lemmas, "weight_sequence", recording)
    phis = np.linspace(0.0, 1.0, 34)
    for T in (1, 2, 30, 5000, 40000):
        sizes.clear()
        li.check_weight_bounds(T, phis)
        per_batch = max(1, bound // (T + 2))
        assert len(sizes) == math.ceil(phis.size / per_batch)
        assert max(sizes) <= max(bound, T + 2)
        assert sum(sizes) == phis.size * (T + 2)


# -- grid domains ----------------------------------------------------------------


def domain_ends(key):
    """[(inside, outside) at the low end, (inside, outside) at the high end] of a grid's domain."""
    domain = li.LEMMA_GRIDS[key].domain
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    low = (np.nextafter(lo, math.inf), lo) if domain[0] == "(" else (lo, np.nextafter(lo, -math.inf))
    high = (np.nextafter(hi, -math.inf), hi) if domain[-1] == ")" else (hi, np.nextafter(hi, math.inf))
    return [low, high]


@pytest.mark.parametrize("key", list(li.LEMMA_GRIDS))
def test_grid_domain_is_enforced_and_evaluable_at_both_ends(tmp_path, key):
    """Just outside the domain is refused by config and by the checks; both ends run clean, together and alone."""
    ends = domain_ends(key)
    if key == "point_radius":  # one number, so each end runs on its own
        outsides = [outside for _, outside in ends]
        insides = [inside for inside, _ in ends]
    else:
        outsides = [[outside] for _, outside in ends]
        insides = [[inside for inside, _ in ends]] + [[inside] for inside, _ in ends]
    for value in outsides:
        with pytest.raises(li.ConfigError, match=f"lemmas.{key}:"):
            li.load_lemma_plan({"lemmas": {key: value}})
        with pytest.raises(ValueError, match=f"^{key}: entries must lie in "):
            li.run_battery(small_entries(), small_grids(**{key: value}))
    problems = [{"generator": "least_squares", "n": 8, "d": 3, "spread": 1.0, "seed": 314}]
    for value in insides:
        grids = small_grids(**{key: value})
        config = tmp_path / "lemmas.json"
        config.write_text(json.dumps({"lemmas": {
            "problems": problems, **{name: np.asarray(v).tolist() for name, v in grids.items()},
        }}))
        out = tmp_path / "out"
        assert cli.main(["verify-lemmas", "--config", str(config), "--out", str(out)]) == 0
        for row in json.loads((out / "lemmas.json").read_text())["results"]:
            assert math.isfinite(row["worst_slack"]), row
            assert row["passed"] or row["flagged"], row
