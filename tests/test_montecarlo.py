"""Moment reduction, gap estimation, cell checks, and sweeps."""

import contextlib
import dataclasses
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import lastiter as li
from lastiter.problems import FiniteSumProblem


def two_quadratics():
    """f_1 = x^2/2, f_2 = x^2 with shared minimizer 0 (exact L = 2)."""
    design = np.zeros((2, 2, 1))
    design[0, 0, 0] = 1.0
    design[1, :, 0] = 1.0
    return li.LeastSquaresProblem(design, np.zeros((2, 2)))


# -- moment reduction ----------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 100, 257])
def test_reduce_moments_matches_numpy(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 3.0 + 1.0
    mean, std_error = li.reduce_moments(values)
    assert type(mean) is float and type(std_error) is float
    assert mean == pytest.approx(float(np.mean(values)), rel=1e-13)
    if size > 1:
        var = std_error**2 * size
        assert var == pytest.approx(float(np.var(values, ddof=1)), rel=1e-12)
    else:
        assert std_error == 0.0


@pytest.mark.parametrize("value, size", [(0.1, 3), (1 / 3, 7), (0.7, 96)])
def test_reduce_moments_of_a_constant_sequence_is_exact(value, size):
    # a plain sum / n misses these: sum([0.1] * 3) / 3 == 0.10000000000000002
    assert li.reduce_moments(np.full(size, value)) == (value, 0.0)


def test_reduce_moments_refuses_an_empty_sequence():
    with pytest.raises(ValueError, match="^reduce_moments needs at least one value$"):
        li.reduce_moments([])


def test_reduce_moments_of_huge_gaps_is_finite():
    # each squared deviation is 1e360, past the largest float
    values = [1e180, 3e180, 2e180]
    mean, std_error = li.reduce_moments(values)
    exact_mean = sum(map(Fraction, values)) / len(values)
    exact_sq_error = sum((Fraction(v) - exact_mean) ** 2 for v in values) / (2 * 3)
    assert abs(Fraction(mean) / exact_mean - 1) < 2.0**-52
    assert abs(Fraction(std_error) ** 2 / exact_sq_error - 1) < 2.0**-50


def test_reduce_moments_of_tiny_gaps_keeps_its_spread():
    # each squared deviation is 1e-400, below the smallest float
    values = [1e-200, 3e-200]
    mean, std_error = li.reduce_moments(values)
    assert mean == 2e-200
    exact_sq_error = sum((Fraction(v) - Fraction(mean)) ** 2 for v in values) / 2
    assert std_error > 0.0
    assert abs(Fraction(std_error) ** 2 / exact_sq_error - 1) < 2.0**-50


# -- gap estimation -------------------------------------------------------------


def estimate_template(T=5):
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    config = li.RunConfig(T=T, seed=0, schedule=li.ConstantStep(0.25), x0=np.array([1.0]))
    return problem, cert, config


def single_gap(problem, cert, config, seed):
    """f(x_T) - inf f of one seed's run."""
    return problem.value(li.run(problem, config, (seed,))[1][0]) - cert.inf_f


def test_estimate_single_seed_has_zero_spread():
    problem, cert, config = estimate_template()
    est = li.estimate_gap(problem, cert, config, n_seeds=1, base_seed=17)
    assert est.n_seeds == 1
    assert est.std_error == 0.0
    assert est.ci95_upper == est.mean_gap
    direct = single_gap(problem, cert, config, 17)
    assert est.mean_gap == direct
    assert est.per_seed_gaps.tolist() == [direct]


def test_estimate_keeps_per_seed_gaps_in_seed_order():
    problem, cert, config = estimate_template()
    est = li.estimate_gap(problem, cert, config, n_seeds=6, base_seed=3)
    assert est.per_seed_gaps.shape == (6,)
    for offset, gap in enumerate(est.per_seed_gaps):
        assert gap == single_gap(problem, cert, config, 3 + offset)
    assert (est.mean_gap, est.std_error) == li.reduce_moments(est.per_seed_gaps)


def test_estimate_is_bitwise_worker_independent(monkeypatch):
    problem, cert, config = estimate_template(T=4)
    default_rows = li.sgd._BLOCK_ROWS
    for n_seeds in (12, 13):
        serial = li.estimate_gap(problem, cert, config, n_seeds=n_seeds, base_seed=0)
        # blocks of 2 seeds leave a part block at the end of odd worker ranges
        for workers, block_rows in ((2, default_rows), (3, default_rows), (1, 2), (3, 2)):
            with monkeypatch.context() as patch:
                patch.setattr(li.sgd, "_BLOCK_ROWS", block_rows)
                other = li.estimate_gap(problem, cert, config, n_seeds=n_seeds, base_seed=0,
                                        workers=workers)
            assert np.array_equal(serial.per_seed_gaps, other.per_seed_gaps)
            assert serial.mean_gap == other.mean_gap
            assert serial.std_error == other.std_error
            assert serial.ci95_upper == other.ci95_upper


class RowCountingLeastSquares(li.LeastSquaresProblem):
    """Least squares that records how many points each gradient call takes."""

    def component_grads_at(self, idx, x):
        self.rows_seen.append(x.shape[0] if x.ndim == 2 else 0)
        return super().component_grads_at(idx, x)


def test_full_batch_estimate_simulates_one_trajectory():
    base, cert = li.make_least_squares(n=4, d=2, spread=1.0, seed=24)
    problem = RowCountingLeastSquares(base.design, base.offsets)
    problem.rows_seen = []
    config = li.RunConfig(T=9, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.ones(2),
                          batch_size=problem.n)
    est = li.estimate_gap(problem, cert, config, n_seeds=5, base_seed=30)
    assert problem.rows_seen == [1] * config.T
    assert est.std_error == 0.0
    for offset, gap in enumerate(est.per_seed_gaps):
        assert gap == single_gap(base, cert, config, 30 + offset)
    assert est.mean_gap == est.per_seed_gaps[0]


class SignFlipPair(FiniteSumProblem):
    """x -> -1e10 x or x -> 1e-10 x per step, under a claimed smoothness of 1.

    Runs diverge once ten more expanding than shrinking components have been
    drawn, so seeds diverge at different steps or not at all.
    """

    CURVATURE = np.array([2.0 * (1.0 + 1e10), 2.0 * (1.0 - 1e-10)])

    def __init__(self):
        super().__init__(np.full(2, 0.5), np.ones(2), 1.0, 1)

    def component_values_at(self, idx, x):
        c = self.CURVATURE if idx is None else self.CURVATURE[idx]
        return 0.5 * c * x[..., :1] ** 2

    def component_grads_at(self, idx, x):
        c = self.CURVATURE if idx is None else self.CURVATURE[idx]
        return c[..., None] * x[..., None, :]


def test_divergence_reports_lowest_seed_for_any_worker_count():
    problem = SignFlipPair()
    cert = li.SolutionCertificate(
        x_star=np.zeros(1), inf_f=0.0, sigma_star_sq=0.0,
        grad_norm_residual=0.0, tol=1e-10,
    )
    config = li.RunConfig(T=40, seed=0, schedule=li.ConstantStep(0.5), x0=np.array([2.0]))
    first_bad = {}
    for seed in range(60):
        try:
            li.run(problem, config, (seed,))
        except li.DivergenceError as exc:
            first_bad[seed] = exc.step
    lowest = min(first_bad)
    # the stub exercises the hard case: a higher seed goes bad earlier
    assert lowest > 0 and min(first_bad.values()) < first_bad[lowest]
    for workers in (1, 2):
        with pytest.raises(li.DivergenceError) as info:
            li.estimate_gap(problem, cert, config, n_seeds=60, base_seed=0, workers=workers)
        assert (info.value.seed, info.value.step) == (lowest, first_bad[lowest])


class SlowUpperFlipPair(SignFlipPair):
    """SignFlipPair whose gradient sleeps on blocks of two seeds.

    With blocks of three seeds, five seeds split into a lower part of three
    and an upper part of two, so the upper part is still running when the
    lower one diverges.
    """

    def component_grads_at(self, idx, x):
        if x.shape[0] == 2:
            time.sleep(0.03)
        return super().component_grads_at(idx, x)


def flip_certificate():
    return li.SolutionCertificate(
        x_star=np.zeros(1), inf_f=0.0, sigma_star_sq=0.0,
        grad_norm_residual=0.0, tol=1e-10,
    )


def diverging_lower_part(config):
    """(base seed, its first bad step): the base diverges and the next four seeds do not."""
    first_bad = {}
    for seed in range(100):
        try:
            li.run(SignFlipPair(), config, (seed,))
        except li.DivergenceError as exc:
            first_bad[seed] = exc.step
    base = next(s for s in sorted(first_bad) if not any(s + k in first_bad for k in range(1, 5)))
    return base, first_bad[base]


def test_pooled_divergence_leaves_the_pool_after_its_tasks(monkeypatch, pools, busy_at_exit):
    config = li.RunConfig(T=40, seed=0, schedule=li.ConstantStep(0.5), x0=np.array([2.0]))
    base, step = diverging_lower_part(config)
    monkeypatch.setattr(li.sgd, "_BLOCK_ROWS", 3)
    with pytest.raises(li.DivergenceError) as info:
        li.estimate_gap(SlowUpperFlipPair(), flip_certificate(), config, n_seeds=5,
                        base_seed=base, workers=2)
    assert (info.value.seed, info.value.step) == (base, step)
    # the upper part was still running when the lower part's error arrived
    assert pools == [2] and busy_at_exit == [1]


def test_sweep_leaves_its_pool_after_a_diverging_last_cell(monkeypatch, pools, busy_at_exit):
    config = li.RunConfig(T=40, seed=0, schedule=li.ConstantStep(0.5), x0=np.array([2.0]))
    base, step = diverging_lower_part(config)
    monkeypatch.setattr(li.sgd, "_BLOCK_ROWS", 3)
    grid = ([4, 40], [config.schedule], [1])
    rows = li.sweep([("flip", SlowUpperFlipPair(), flip_certificate(), config.x0)], *grid,
                    n_seeds=5, base_seed=base, workers=2)
    assert rows[-1].error == f"DivergenceError: {li.DivergenceError(step, base)}"
    assert rows[0].error is None
    assert pools == [2] and busy_at_exit == [1]
    assert rows == li.sweep([("flip", SignFlipPair(), flip_certificate(), config.x0)], *grid,
                            n_seeds=5, base_seed=base)


def test_estimate_rejects_bad_seed_counts():
    problem, cert, config = estimate_template()
    with pytest.raises(ValueError):
        li.estimate_gap(problem, cert, config, n_seeds=0, base_seed=0)
    with pytest.raises(ValueError, match=r"^n_seeds must be an integer, got 2.5$"):
        li.estimate_gap(problem, cert, config, n_seeds=2.5, base_seed=0)
    assert li.estimate_gap(problem, cert, config, n_seeds=2.0, base_seed=0).n_seeds == 2


def test_estimate_matches_interpolation_law():
    """E[gap_T] = 0.75 * 0.40625^T for the two-quadratic pair at gamma 1/4."""
    problem, cert, config = estimate_template(T=2)
    est = li.estimate_gap(problem, cert, config, n_seeds=2000, base_seed=0)
    exact = 0.75 * 0.40625**2
    assert abs(est.mean_gap - exact) <= 4.0 * est.std_error
    assert est.std_error > 0


def test_fingerprint_ignores_seed_but_tracks_config():
    problem, cert, config = estimate_template(T=8)
    a = li.run_fingerprint(problem, config)
    assert a == li.run_fingerprint(problem, dataclasses.replace(config, seed=999))
    assert a != li.run_fingerprint(problem, dataclasses.replace(config, T=9))
    assert a != li.run_fingerprint(problem, dataclasses.replace(config, x0=np.array([2.0])))


def test_fingerprint_is_the_problem_digest_plus_run_settings():
    problem, cert, config = estimate_template(T=8)
    a = li.run_fingerprint(problem, config)
    copy = li.LeastSquaresProblem(problem.design.copy(), problem.offsets.copy())
    assert li.run_fingerprint(copy, config) == a
    offsets = problem.offsets.copy()
    offsets[0, 1] = 1e-300
    assert li.run_fingerprint(li.LeastSquaresProblem(problem.design, offsets), config) != a


def test_estimate_reports_the_fingerprint():
    problem, cert, config = estimate_template(T=3)
    est = li.estimate_gap(problem, cert, config, n_seeds=2, base_seed=5)
    assert est.fingerprint == li.run_fingerprint(problem, config)


# -- cell checks ------------------------------------------------------------------


def check_with_bound(monkeypatch, scale):
    """check_cell on estimate_template() with its only bound set to scale * ci95_upper."""
    import lastiter.montecarlo as mc

    problem, cert, config = estimate_template(T=8)
    est = li.estimate_gap(problem, cert, config, n_seeds=4, base_seed=0)

    def scaled(*args):
        return dataclasses.replace(li.build_bound_report(*args), generic=scale * est.ci95_upper)

    monkeypatch.setattr(mc, "build_bound_report", scaled)
    check = li.check_cell(problem, cert, config.x0, config.T, config.schedule, 1, 4, 0)
    assert check.estimate == est
    return check


def test_check_cell_verdicts(monkeypatch):
    good = check_with_bound(monkeypatch, 2.0)
    assert good.satisfied
    assert good.slack_ratio == pytest.approx(2.0, rel=1e-12)
    bad = check_with_bound(monkeypatch, 0.5)
    assert not bad.satisfied
    assert bad.slack_ratio == pytest.approx(0.5, rel=1e-12)
    edge = check_with_bound(monkeypatch, 1.0)
    assert edge.bound_value == edge.estimate.ci95_upper
    assert edge.satisfied


def test_check_cell_rejects_nonfinite_bound(monkeypatch):
    for scale in (math.inf, math.nan):
        with pytest.raises(li.HypothesisError, match="bound must be finite"):
            check_with_bound(monkeypatch, scale)


@pytest.mark.parametrize("ci95_upper", [-9.7e-33, 0.0, 5e-324])
def test_slack_ratio_is_none_unless_finite_and_positive(monkeypatch, ci95_upper):
    """A converged run's ci95_upper can round to <= 0, or be so small the ratio overflows."""
    import lastiter.montecarlo as mc

    real_estimate = mc.estimate_gap
    monkeypatch.setattr(mc, "estimate_gap", lambda *args, **kwargs: dataclasses.replace(
        real_estimate(*args, **kwargs), ci95_upper=ci95_upper))
    problem, cert, config = estimate_template(T=8)
    check = li.check_cell(problem, cert, config.x0, config.T, config.schedule, 1, 4, 0)
    assert check.bound_value > 0
    assert check.slack_ratio is None
    assert check.satisfied


def test_check_cell_chains_constants_bounds_and_estimate():
    problem, cert = li.make_least_squares(n=6, d=2, spread=1.0, seed=3)
    x0 = cert.x_star + np.array([0.6, -0.8])
    schedule = li.PolynomialStep(2.0, 0.5)
    check = li.check_cell(problem, cert, x0, 20, schedule, 3, n_seeds=5, base_seed=2)
    eff = li.effective_constants(problem, 3, cert)
    assert (check.bounds.L, check.bounds.sigma_star_sq) == (eff.L_b, eff.sigma_b_sq)
    d_sq = float(np.sum((x0 - cert.x_star) ** 2))
    assert check.bounds == li.build_bound_report(schedule, eff.L_b, d_sq, eff.sigma_b_sq, 20)
    template = li.RunConfig(T=20, seed=0, schedule=schedule, x0=x0, batch_size=3)
    est = li.estimate_gap(problem, cert, template, 5, 2)
    assert check.estimate.mean_gap == est.mean_gap
    assert np.array_equal(check.estimate.per_seed_gaps, est.per_seed_gaps)
    assert check.bound_value == check.bounds.tightest()
    assert check.satisfied == (est.ci95_upper <= check.bounds.tightest())


def test_sweep_turns_a_nonfinite_bound_into_an_error_row(monkeypatch):
    import lastiter.montecarlo as mc

    monkeypatch.setattr(mc, "build_bound_report",
                        lambda *args: dataclasses.replace(li.build_bound_report(*args), generic=math.inf))
    (row,) = li.sweep(sweep_entries(), [5], [li.ConstantStep(0.1)], [1], 2, 0)
    assert row.error == "HypothesisError: bound must be finite, got inf"
    assert row.satisfied is None and row.mean_gap is None


# -- sweeps -----------------------------------------------------------------------


def sweep_entries():
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    return [("twoq", problem, cert, np.array([1.0]))]


def test_sweep_row_ordering_and_columns():
    rows = li.sweep(
        sweep_entries(),
        T_grid=[3, 6],
        schedule_grid=[li.PolynomialStep(2.0, 0.5), li.ConstantStep(0.1)],
        b_grid=[1, 2],
        n_seeds=3,
        base_seed=0,
    )
    assert len(rows) == 2 * 2 * 2
    key = [(r.T, r.C, r.b) for r in rows]
    assert key == [
        (3, 2.0, 1), (3, 2.0, 2), (3, None, 1), (3, None, 2),
        (6, 2.0, 1), (6, 2.0, 2), (6, None, 1), (6, None, 2),
    ]
    assert li.SWEEP_COLUMNS == tuple(f.name for f in dataclasses.fields(li.SweepRow))


def test_sweep_rows_is_deterministic():
    kwargs = dict(
        T_grid=[4],
        schedule_grid=[li.PolynomialStep(2.0, 0.5)],
        b_grid=[1],
        n_seeds=5,
        base_seed=0,
    )
    assert li.sweep(sweep_entries(), **kwargs) == li.sweep(sweep_entries(), **kwargs)


@pytest.mark.parametrize("name, value", [("T_grid", [40.5]), ("b_grid", [2.7]), ("n_seeds", 3.9),
                                         ("workers", 1.5)])
def test_sweep_refuses_fractional_integers(name, value):
    kwargs = dict(T_grid=[40], schedule_grid=[li.PolynomialStep(2.0, 0.5)], b_grid=[2], n_seeds=3,
                  base_seed=0, workers=1)
    kwargs[name] = value
    label = {"T_grid": "T", "b_grid": "b"}.get(name, name)
    shown = value[0] if isinstance(value, list) else value
    with pytest.raises(ValueError, match=rf"^{label} must be an integer, got {shown}$"):
        li.sweep(sweep_entries(), **kwargs)
    kwargs[name] = [40.0] if name == "T_grid" else [2.0] if name == "b_grid" else float(int(shown))
    assert li.sweep(sweep_entries(), **kwargs) == li.sweep(
        sweep_entries(), T_grid=[40], schedule_grid=[li.PolynomialStep(2.0, 0.5)], b_grid=[2],
        n_seeds=3, base_seed=0, workers=1)


@pytest.mark.parametrize("workers, message", [(0, "a positive integer, got 0"),
                                             (-3, "a positive integer, got -3"),
                                             (False, "an integer, got False")])
def test_library_refuses_the_worker_counts_the_cli_refuses(workers, message):
    problem, cert, config = estimate_template()
    message = rf"^workers must be {message}$"
    with pytest.raises(ValueError, match=message):
        li.estimate_gap(problem, cert, config, n_seeds=3, base_seed=0, workers=workers)
    with pytest.raises(ValueError, match=message):
        li.check_cell(problem, cert, config.x0, config.T, config.schedule, 1, 3, 0, workers=workers)
    with pytest.raises(ValueError, match=message):
        li.sweep(sweep_entries(), [4], [li.PolynomialStep(2.0, 0.5)], [1], n_seeds=3, base_seed=0,
                 workers=workers)


def test_sweep_corollary_bounds_by_schedule_kind():
    rows = li.sweep(
        sweep_entries(),
        T_grid=[10],
        schedule_grid=[
            li.ConstantStep(0.1),
            li.PolynomialStep(2.0, 0.5),
            li.PolynomialStep(3.0, 0.5),
            li.PolynomialStep(2.0, 0.25),
        ],
        b_grid=[1],
        n_seeds=2,
        base_seed=0,
    )
    constant, c2, c3, beta_q = rows
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    d_sq = 1.0
    assert constant.corollary_bound is None
    assert constant.C is None and constant.beta is None
    assert c2.corollary_bound == li.sqrt_step_bound_c2(problem.L, d_sq, cert.sigma_star_sq, 10)
    assert c3.corollary_bound == li.sqrt_step_bound(3.0, problem.L, d_sq, cert.sigma_star_sq, 10)
    expected = li.polynomial_step_bound(2.0, 0.25, problem.L, d_sq, cert.sigma_star_sq, 10)
    assert beta_q.corollary_bound == expected.value
    for row in rows:
        assert row.error is None
        assert row.theorem1_bound == li.last_iterate_bound(
            row.gamma, problem.L, d_sq, cert.sigma_star_sq, 10
        )


def test_sweep_error_rows_do_not_abort():
    rows = li.sweep(
        sweep_entries(),
        T_grid=[5],
        schedule_grid=[li.ConstantStep(10.0), li.PolynomialStep(2.0, 0.5)],
        b_grid=[1],
        n_seeds=2,
        base_seed=0,
    )
    failed, ok = rows
    assert failed.error is not None and "Schedule" in failed.error
    assert failed.mean_gap is None
    assert failed.theorem1_bound is None
    assert failed.satisfied is None
    assert ok.error is None
    assert ok.satisfied is not None


def test_sweep_batch_cells_use_effective_constants():
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    rows = li.sweep(
        [("twoq", problem, cert, np.array([1.0]))],
        T_grid=[8],
        schedule_grid=[li.PolynomialStep(2.0, 0.5)],
        b_grid=[2],
        n_seeds=2,
        base_seed=0,
    )
    (row,) = rows
    eff = li.effective_constants(problem, 2, cert)
    # b = n is full GD with the mean smoothness in charge of the step
    assert row.gamma == 1.0 / (2.0 * eff.L_b * math.sqrt(8.0))
    assert row.error is None
    assert row.satisfied


def test_sweep_estimates_match_direct_estimator():
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    rows = li.sweep(
        [("twoq", problem, cert, np.array([1.0]))],
        T_grid=[6],
        schedule_grid=[li.PolynomialStep(2.0, 0.5)],
        b_grid=[1],
        n_seeds=50,
        base_seed=7,
    )
    (row,) = rows
    config = li.RunConfig(
        T=6, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.array([1.0])
    )
    est = li.estimate_gap(problem, cert, config, n_seeds=50, base_seed=7)
    assert row.mean_gap == est.mean_gap
    assert row.ci95_upper == est.ci95_upper


class BrokenBatchGradients(li.LeastSquaresProblem):
    """A family whose batched gradient path has a programming bug."""

    def component_grads_at(self, idx, x):
        raise TypeError("unsupported operand in batched gradient")


def test_sweep_propagates_non_domain_errors():
    problem, cert = li.make_least_squares(n=3, d=2, spread=1.0, seed=4)
    broken = BrokenBatchGradients(problem.design, problem.offsets)
    for workers in (1, 2):  # at 2 workers the error is raised inside a pool worker
        with pytest.raises(TypeError, match="batched gradient"):
            li.sweep(
                [("broken", broken, cert, np.zeros(2))],
                T_grid=[5],
                schedule_grid=[li.PolynomialStep(2.0, 0.5)],
                b_grid=[2],
                n_seeds=4,
                base_seed=0,
                workers=workers,
            )


def test_sweep_satisfied_checks_every_applicable_bound(monkeypatch):
    import lastiter.montecarlo as mc

    real_report = mc.build_bound_report

    def polynomial_tightest(*args):
        # the polynomial corollary sits below both reported columns
        report = real_report(*args)
        return dataclasses.replace(report, polynomial=0.5 * min(report.generic, report.sqrt_c2))

    monkeypatch.setattr(mc, "build_bound_report", polynomial_tightest)
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    schedule = li.PolynomialStep(2.0, 0.5)
    report = polynomial_tightest(schedule, problem.L, 1.0, cert.sigma_star_sq, 10)

    def row_at(ci95):
        def fake_estimate(problem, cert, template, n_seeds, base_seed, workers=1):
            return li.MonteCarloEstimate(
                n_seeds=n_seeds, mean_gap=0.0, std_error=0.0, ci95_upper=ci95, fingerprint="",
                per_seed_gaps=np.zeros(n_seeds),
            )

        monkeypatch.setattr(mc, "estimate_gap", fake_estimate)
        (row,) = li.sweep([("twoq", problem, cert, np.array([1.0]))], [10], [schedule], [1], 2, 0)
        return row

    between = row_at(0.75 * min(report.generic, report.sqrt_c2))
    assert between.theorem1_bound == report.generic
    assert between.corollary_bound == report.sqrt_c2
    assert between.satisfied is False
    assert row_at(report.polynomial).satisfied is True


def test_sweep_opens_one_pool_for_all_cells(pools):
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    entries = [("twoq", problem, cert, np.array([1.0]))]
    schedule = [li.PolynomialStep(2.0, 0.5)]
    pooled = li.sweep(entries, [4, 8], schedule, [1, 2], n_seeds=6, base_seed=0, workers=2)
    assert pools == [2]
    assert pooled == li.sweep(entries, [4, 8], schedule, [1, 2], n_seeds=6, base_seed=0)


def recording_pool_job(monkeypatch):
    """Wrap montecarlo._pool_job; return (cells per job, calls per yielded gaps function)."""
    import lastiter.montecarlo as mc

    jobs, calls = [], []
    real_job = mc._pool_job

    @contextlib.contextmanager
    def recording(cells, workers):
        jobs.append(list(cells))
        with real_job(cells, workers) as gaps:
            def counted(c, fn):
                def call():
                    calls[c] += 1
                    return fn()
                return call

            start = len(calls)
            calls.extend(0 for _ in gaps or ())
            yield gaps and [counted(start + c, fn) for c, fn in enumerate(gaps)]

    monkeypatch.setattr(mc, "_pool_job", recording)
    return jobs, calls


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_never_simulates_a_cell_whose_bounds_fail(monkeypatch, workers):
    jobs, _ = recording_pool_job(monkeypatch)
    good = li.PolynomialStep(2.0, 0.5)
    # gamma L >= 1 fails the schedule; a subnormal gamma's bound overflows
    schedules = [li.ConstantStep(10.0), li.ConstantStep(1e-320), good]
    rows = li.sweep(sweep_entries(), [4, 8], schedules, [1], n_seeds=6, base_seed=0, workers=workers)
    assert [r.error.split(":")[0] for r in rows if r.error] == ["ScheduleError", "HypothesisError"] * 2
    assert [template.schedule for job in jobs for _, _, template, _, _ in job] == [good, good]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_seeds, base_seed, schedule", [
    (200, "x", li.PolynomialStep(2.0, 0.5)),
    (200, -3, li.PolynomialStep(2.0, 0.5)),
    (200, 2**64 - 50, li.PolynomialStep(2.0, 0.5)),
    (0, 0, li.ConstantStep(10.0)),  # gamma L >= 1: every cell fails its bounds
])
def test_sweep_refuses_bad_job_arguments_before_any_pool(pools, workers, n_seeds, base_seed, schedule):
    problem, cert, config = estimate_template(T=4)
    with pytest.raises(Exception) as expected:
        li.estimate_gap(problem, cert, config, n_seeds=n_seeds, base_seed=base_seed, workers=workers)
    with pytest.raises(type(expected.value)) as refused:
        li.sweep(sweep_entries(), [4], [schedule], [1], n_seeds=n_seeds, base_seed=base_seed,
                 workers=workers)
    assert str(refused.value) == str(expected.value)
    assert pools == []


def test_sweep_evaluates_each_grid_cells_bounds_once(monkeypatch):
    import lastiter.montecarlo as mc

    calls, real_constants = [], mc.effective_constants
    monkeypatch.setattr(mc, "effective_constants", lambda *args: calls.append(1) or real_constants(*args))
    # gamma L >= 1 fails the schedule, a subnormal gamma's bound overflows, and [4, 4] repeats every cell
    schedules = [li.PolynomialStep(2.0, 0.5), li.ConstantStep(10.0), li.ConstantStep(1e-320)]
    rows = li.sweep(sweep_entries(), [4, 4], schedules, [1], n_seeds=3, base_seed=0)
    assert [r.error and r.error.split(":")[0] for r in rows] == [None, "ScheduleError", "HypothesisError"] * 2
    assert len(calls) == len(rows) == 6


def test_sweep_reads_each_cell_through_its_registered_gaps_function(monkeypatch):
    import lastiter.montecarlo as mc

    jobs, calls = recording_pool_job(monkeypatch)
    simulated = []
    final_gaps = mc._final_gaps
    monkeypatch.setattr(mc, "_final_gaps", lambda *args: simulated.append(1) or final_gaps(*args))
    entries = sweep_entries()
    schedule = [li.PolynomialStep(2.0, 0.5)]
    # [10, 10] repeats each of its two cells
    for T_grid, cells, repeats in (([4, 8], 4, 1), ([10, 10], 2, 2)):
        jobs.clear()
        calls.clear()
        simulated.clear()
        rows = li.sweep(entries, T_grid, schedule, [1, 2], n_seeds=5, base_seed=3)
        # one job for the whole sweep, one call of a cell's function per row,
        # and one simulation per distinct cell
        assert [len(job) for job in jobs] == [cells] and calls == [repeats] * cells
        assert len(simulated) == cells
        assert mc._submitted == {}
        _, problem, cert, x0 = entries[0]
        for row in rows:
            template = li.RunConfig(T=row.T, seed=0, schedule=schedule[0], x0=x0, batch_size=row.b)
            assert row.mean_gap == li.estimate_gap(problem, cert, template, 5, 3).mean_gap


def test_pools_fork_where_the_platform_can(monkeypatch):
    import multiprocessing
    import os

    import lastiter.reporting as reporting

    can_fork = "fork" in multiprocessing.get_all_start_methods()
    assert reporting._START_METHOD == ("fork" if can_fork else None)
    if can_fork and hasattr(os, "sched_getaffinity"):
        assert reporting._fork_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert reporting._fork_cpus() == (3 if can_fork else 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert reporting._fork_cpus() == 1
    # where the platform cannot fork: no forked writer, and pools of the default start method
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(reporting, "_START_METHOD", None)
    assert reporting._fork_cpus() == 1
    methods, real_context = [], multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method=None: methods.append(method) or real_context(method))
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    config = li.RunConfig(T=4, seed=0, schedule=li.PolynomialStep(2.0, 0.5), x0=np.array([1.0]))
    pooled = li.estimate_gap(problem, cert, config, n_seeds=4, base_seed=0, workers=2)
    assert methods == [None]
    assert pooled == li.estimate_gap(problem, cert, config, n_seeds=4, base_seed=0)


def test_sweep_rows_are_worker_independent(monkeypatch):
    problem = two_quadratics()
    flip = SignFlipPair()
    flip_cert = li.SolutionCertificate(
        x_star=np.zeros(1), inf_f=0.0, sigma_star_sq=0.0,
        grad_norm_residual=0.0, tol=1e-10,
    )
    entries = [("twoq", problem, li.certify_solution(problem), np.array([1.0])),
               ("flip", flip, flip_cert, np.array([2.0]))]
    schedules = [li.ConstantStep(10.0), li.ConstantStep(0.5), li.PolynomialStep(2.0, 0.5)]
    # blocks of 2 seeds: every b < n cell is 4 blocks; b = 2 is full batch, b = 3 > n
    monkeypatch.setattr(li.sgd, "_BLOCK_ROWS", 2)
    rows = {workers: li.sweep(entries, [4, 40], schedules, [1, 2, 3], n_seeds=8, base_seed=0,
                              workers=workers)
            for workers in (1, 2, 3)}
    assert rows[1] == rows[2] == rows[3]
    grid = itertools.product(["twoq", "flip"], [4, 40], ["10", "0.5", "poly"], [1, 2, 3])
    errors = dict(zip(grid, (r.error for r in rows[1])))
    assert errors["twoq", 4, "10", 1].startswith("ScheduleError")
    assert errors["twoq", 4, "poly", 3].startswith("UnsupportedSamplingError")
    full = [r for r in rows[1] if r.b == 2 and r.error is None]
    assert full and all(r.std_error == 0.0 for r in full)
    # the lowest diverging seed sits in the second block, and a higher
    # block goes bad earlier
    config = li.RunConfig(T=40, seed=0, schedule=schedules[1], x0=np.array([2.0]))
    first_bad = {}
    for seed in range(8):
        try:
            li.run(flip, config, (seed,))
        except li.DivergenceError as exc:
            first_bad[seed] = exc.step
    lowest = min(first_bad)
    assert lowest >= 2 and min(first_bad.values()) < first_bad[lowest]
    expected = li.DivergenceError(first_bad[lowest], lowest)
    assert errors["flip", 40, "0.5", 1] == f"DivergenceError: {expected}"


class PickleCountingLeastSquares(li.LeastSquaresProblem):
    """Least squares that records every time it is pickled."""

    pickles = []

    def __getstate__(self):
        self.pickles.append(1)
        return super().__getstate__()


def test_pool_gets_each_problem_once_and_no_more_processes_than_tasks(monkeypatch):
    import lastiter.reporting as reporting

    opened, submitted = [], []
    real_forked = reporting._forked

    @contextlib.contextmanager
    def counting_pool(processes, shared):
        with real_forked(processes, shared) as pool:
            real_submit = pool.apply_async

            def submit(*args, **kw):
                submitted.append(args)
                return real_submit(*args, **kw)

            pool.apply_async = submit
            opened.append(processes)
            yield pool

    monkeypatch.setattr(reporting, "_forked", counting_pool)
    base, cert = li.make_least_squares(n=4, d=2, spread=1.0, seed=5)
    problem = PickleCountingLeastSquares(base.design, base.offsets)
    entries = [("ls", problem, cert, np.zeros(2))]
    schedule = [li.PolynomialStep(2.0, 0.5)]
    with monkeypatch.context() as patch:
        patch.setattr(li.sgd, "_BLOCK_ROWS", 2)
        pooled = li.sweep(entries, [3, 5], schedule, [1, 2], n_seeds=8, base_seed=0, workers=2)
        # four cells of four blocks each, two tasks of two blocks per cell
        assert (opened, len(submitted)) == ([2], 8)
        assert len(problem.pickles) <= 2
        assert pooled == li.sweep(entries, [3, 5], schedule, [1, 2], n_seeds=8, base_seed=0)
    # one cell of one block: the seeds split into one range per worker
    del submitted[:]
    config = li.RunConfig(T=3, seed=0, schedule=schedule[0], x0=np.zeros(2))
    li.estimate_gap(problem, cert, config, n_seeds=6, base_seed=0, workers=3)
    assert (opened[1:], len(submitted)) == ([3], 3)
    assert len(problem.pickles) <= 2 + 3
