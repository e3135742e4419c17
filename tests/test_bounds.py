"""Bound evaluators: frozen oracles, hypothesis gates, dominance relations."""

import math

import numpy as np
import pytest
import scipy.linalg

import lastiter as li


def test_phi_oracle_and_limits():
    assert abs(li.phi(0.5, 1.0) - 2.0 / 3.0) < 1e-15
    assert abs(li.phi(0.25, 2.0) - 2.0 * 0.5 / 1.5) < 1e-15
    grid = np.linspace(0.01, 0.99, 25)
    values = [li.phi(gl, 1.0) for gl in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert li.phi(1e-12, 1.0) < 1e-11
    assert li.phi(0.999999, 1.0) > 0.999


def test_abc_constants_oracle():
    consts = li.abc_constants(gamma=0.5, L=1.0, sigma_star_sq=1.0)
    assert abs(consts.a - 1.0 / 3.0) < 1e-15
    assert consts.b == -1.0
    assert abs(consts.c - 2.0 / 3.0) < 1e-15
    assert abs(consts.a + consts.b + consts.c) < 1e-15
    assert abs(consts.v - 0.5 * 1.0 / 0.5) < 1e-15
    assert abs(consts.phi - li.phi(0.5, 1.0)) < 1e-15
    assert abs(consts.ratio_ab + consts.a) < 1e-15  # b = -1 normalization
    with pytest.raises(ValueError):
        li.abc_constants(gamma=1.0, L=1.0, sigma_star_sq=0.0)


def test_weight_sequence_exact_small_case():
    ws = li.weight_sequence(3, -1.0)  # phi = 0
    assert np.allclose(ws.alphas, [1.0, 4.0 / 3.0, 2.0, 4.0, 4.0], rtol=0, atol=1e-15)
    assert ws.alpha(-1) == 1.0
    assert ws.alpha(3) == ws.alpha(2)
    assert ws.phi == 0.0
    with pytest.raises(IndexError):
        ws.alpha(4)


def test_weight_sequence_uniform_regime():
    ws = li.weight_sequence(20, 0.0)  # phi = 1
    assert np.array_equal(ws.alphas, np.ones(22))


def test_weight_sequence_monotone_and_validated():
    rng = np.random.default_rng(17)
    for _ in range(10):
        T = int(rng.integers(2, 200))
        ratio = float(-rng.uniform(0.0, 1.0))
        ws = li.weight_sequence(T, ratio)
        assert np.all(np.diff(ws.alphas) >= -1e-15)
        assert np.all(ws.alphas >= 1.0 - 1e-15)
    with pytest.raises(ValueError):
        li.weight_sequence(5, 0.1)
    with pytest.raises(ValueError):
        li.weight_sequence(5, -1.5)
    with pytest.raises(ValueError):
        li.weight_sequence(0, -0.5)


def test_weight_sequence_array_rows_match_scalar_calls():
    """An array of ratios builds one row per ratio, each the scalar sequence bit for bit."""
    ratios = np.array([-1.0, -0.73, -0.5, -1e-3, 0.0])
    for T in (1, 2, 5000):
        batch = li.weight_sequence(T, ratios)
        assert batch.T == T
        assert batch.alphas.shape == (ratios.size, T + 2)
        assert np.array_equal(batch.ratio_ab, ratios)
        assert np.array_equal(batch.phi, 1.0 + ratios)
        for t in (-1, 0, T):
            assert np.array_equal(batch.alpha(t), batch.alphas[:, t + 1])
        residuals = batch.defining_residuals()
        for row, ratio in enumerate(ratios.tolist()):
            single = li.weight_sequence(T, ratio)
            assert type(single.ratio_ab) is float
            assert single.alphas.tobytes() == batch.alphas[row].tobytes()
            assert single.defining_residuals().tobytes() == residuals[row].tobytes()
            assert all(single.alpha(t) == batch.alpha(t)[row] for t in (-1, 0, T))
    assert type(li.weight_sequence(3, np.float64(-0.5)).ratio_ab) is float
    for bad in ([-0.5, 0.1], [-1.5, -0.5], [-0.5, math.nan]):
        with pytest.raises(li.HypothesisError, match=r"^ratio_ab must lie in \[-1, 0\]"):
            li.weight_sequence(5, np.array(bad))
    with pytest.raises(li.HypothesisError):
        li.weight_sequence(5, -0.5 * np.ones((2, 2)))


def test_weight_closed_form_and_residuals(weight_closed_form):
    for T in (3, 50, 997):
        for phi_value in (0.05, 0.5, 0.95):
            ws = li.weight_sequence(T, phi_value - 1.0)
            closed = weight_closed_form(ws)
            recursion = ws.alphas[1 : T + 1]
            rel = np.max(np.abs(closed - recursion) / recursion)
            assert rel <= 1e-10
            assert np.max(ws.defining_residuals()) <= 1e-10


def test_last_iterate_bound_noiseless_oracle():
    # gamma L = 1/2, D^2 = 1, T = 4: tilt 4**(2/3), bias 2/(0.5*0.5*4) = 2
    value = li.last_iterate_bound(gamma=0.5, L=1.0, D_sq=1.0, sigma_star_sq=0.0, T=4)
    assert abs(value - 2.0 * 4.0 ** (2.0 / 3.0)) < 1e-12


def test_last_iterate_bound_noise_oracle():
    # gamma = 1/4, L = 1, D^2 = 0, sigma*^2 = 2, T = 3:
    # tilt 3**0.4, noise 8*(1/4)*ln(4)*2/(3/4)^2
    expected = 3.0**0.4 * (8.0 * 0.25 * math.log(4.0) * 2.0 / 0.5625)
    value = li.last_iterate_bound(gamma=0.25, L=1.0, D_sq=0.0, sigma_star_sq=2.0, T=3)
    assert abs(value - expected) < 1e-12 * expected


def test_last_iterate_bound_hypotheses():
    with pytest.raises(li.HypothesisError) as info:
        li.last_iterate_bound(0.1, 1.0, 1.0, 0.0, T=2)
    assert ">= 3" in str(info.value)
    with pytest.raises(li.HypothesisError):
        li.last_iterate_bound(1.0, 1.0, 1.0, 0.0, T=10)
    with pytest.raises(li.HypothesisError):
        li.last_iterate_bound(0.1, 1.0, -1.0, 0.0, T=10)
    with pytest.raises(li.HypothesisError):
        li.last_iterate_bound(0.1, 1.0, 1.0, -0.5, T=10)


def test_polynomial_bound_tilt_constant():
    poly = li.polynomial_step_bound(C=2.0, beta=0.5, L=1.0, D_sq=1.0, sigma_star_sq=1.0, T=100)
    assert abs(poly.B - math.exp(2.0 / math.e)) < 1e-14
    expected = (
        4.0 * poly.B * 2.0 / 10.0
        + 32.0 * poly.B * math.log(101.0) / (2.0 * 10.0)
    )
    assert abs(poly.value - expected) < 1e-12 * expected
    with pytest.raises(ValueError):
        li.polynomial_step_bound(C=1.9, beta=0.5, L=1.0, D_sq=1.0, sigma_star_sq=0.0, T=100)
    with pytest.raises(ValueError):
        li.polynomial_step_bound(C=2.0, beta=1.0, L=1.0, D_sq=1.0, sigma_star_sq=0.0, T=100)


def test_sqrt_bound_oracles():
    value = li.sqrt_step_bound(C=2.0, L=1.0, D_sq=1.0, sigma_star_sq=1.0, T=100)
    expected = 18.0 / 10.0 + 67.0 * math.log(101.0) / 20.0
    assert abs(value - expected) < 1e-12 * expected
    c2 = li.sqrt_step_bound_c2(L=1.0, D_sq=1.0, sigma_star_sq=1.0, T=100)
    expected_c2 = 17.0 / 10.0 + 34.0 * math.log(101.0) / 10.0
    assert abs(c2 - expected_c2) < 1e-12 * expected_c2


def test_specialized_c2_constants_split_by_regime():
    # the specialized bias constant (17) beats the general one (18) while
    # the specialized noise constant (34) loses to the general one (33.5),
    # so neither bound dominates the other
    bias_only_c2 = li.sqrt_step_bound_c2(L=1.0, D_sq=1.0, sigma_star_sq=0.0, T=64)
    bias_only_gen = li.sqrt_step_bound(C=2.0, L=1.0, D_sq=1.0, sigma_star_sq=0.0, T=64)
    assert bias_only_c2 < bias_only_gen
    noise_only_c2 = li.sqrt_step_bound_c2(L=1.0, D_sq=0.0, sigma_star_sq=1.0, T=64)
    noise_only_gen = li.sqrt_step_bound(C=2.0, L=1.0, D_sq=0.0, sigma_star_sq=1.0, T=64)
    assert noise_only_c2 > noise_only_gen


def test_generic_bound_dominates_estimates_on_grid():
    # sanity: the generic bound is positive and decreasing in T for the
    # resolved sqrt step over a seeded grid of constants
    rng = np.random.default_rng(29)
    for _ in range(20):
        L = float(rng.uniform(0.2, 5.0))
        d2 = float(rng.uniform(0.0, 4.0))
        s2 = float(rng.uniform(0.0, 4.0))
        prev = None
        for T in (10, 100, 1000, 10000):
            gamma = li.resolve_schedule(li.PolynomialStep(2.0, 0.5), L, T)
            value = li.last_iterate_bound(gamma, L, d2, s2, T)
            assert value >= 0.0
            if prev is not None and d2 + s2 > 0:
                assert value < prev
            prev = value


def test_complexity_horizon_oracle():
    assert li.complexity_horizon(18.0, 1.0, 1.0, 0.0) == 14


def test_complexity_horizon_minimality_and_floor():
    T = li.complexity_horizon(18.0, 1.0, 1.0, 0.0)
    K = 18.0

    def score(T):
        return T / (1.0 + math.log(T + 1.0)) ** 2

    assert score(T) >= (K / 18.0) ** 2
    assert score(T - 1) < (K / 18.0) ** 2
    assert li.complexity_horizon(1e9, 1.0, 1.0, 1.0) == 3
    assert li.complexity_horizon(1e-6, 1.0, 0.0, 0.0) == 3  # K = 0
    big = li.complexity_horizon(0.05, 1.0, 1.0, 0.5)
    assert score(big) >= (max(18.0, 67.0 * 0.5 / 2.0) / 0.05) ** 2
    assert score(big - 1) < (max(18.0, 67.0 * 0.5 / 2.0) / 0.05) ** 2


def test_complexity_horizon_is_the_exact_minimum():
    """T >= (K/eps)**2 (1 + ln(T+1))**2 > T - 1 in real arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    # the float score T / (1 + log(T+1))**2 crosses the target one step early here
    assert li.complexity_horizon(0.003113228593088011, 1.0, 1.0, 0.0) == 20463985541
    # horizons between 1e15 and 2**62, where that float score stops increasing
    sample = 10.0 ** np.random.default_rng(31).uniform(math.log10(4e-7), math.log10(2e-5), 50)
    with mpmath.workprec(256):
        for eps in map(float, sample):
            T = li.complexity_horizon(eps, 1.0, 1.0, 0.0)
            assert 1e15 <= T <= 2**62, (eps, T)
            target = mpmath.mpf(18.0 / eps) ** 2
            assert T >= target * (1 + mpmath.log(T + 1)) ** 2, eps
            assert T - 1 < target * (1 + mpmath.log(T)) ** 2, eps


def test_complexity_horizon_monotone_in_accuracy():
    values = [li.complexity_horizon(eps, 2.0, 1.5, 3.0) for eps in (1.0, 0.3, 0.1, 0.03)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.raises(li.HypothesisError):
        li.complexity_horizon(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(li.HypothesisError):
        li.complexity_horizon(1e-12, 1.0, 1e6, 0.0)  # > 2**62 steps
    assert math.isinf(18.0 / 5e-324)
    with pytest.raises(li.HypothesisError):
        li.complexity_horizon(5e-324, 1.0, 1.0, 0.0)  # K / epsilon overflows


def test_effective_constants_endpoints():
    problem, cert = li.make_least_squares(n=8, d=3, spread=1.0, seed=51)
    eff1 = li.effective_constants(problem, 1, cert)
    assert eff1.sigma_b_sq == cert.sigma_star_sq
    assert eff1.L_b == problem.L  # one sampled component: max smoothness
    effn = li.effective_constants(problem, problem.n, cert)
    assert effn.sigma_b_sq == 0.0
    assert effn.L_b == problem.L_f  # the whole family: mean smoothness


def test_effective_constants_formula_and_errors():
    # Gower et al. (ICML 2019, Prop. 3.8) b-nice expected smoothness
    problem, cert = li.make_least_squares(n=6, d=2, spread=1.5, seed=52)
    n = problem.n
    for b in range(1, n + 1):
        eff = li.effective_constants(problem, b, cert)
        w1 = (n - b) / (b * (n - 1))
        w2 = n * (b - 1) / (b * (n - 1))
        assert eff.L_b == problem.batch_smoothness(b)
        assert abs(eff.L_b - (w1 * problem.L + w2 * problem.L_f)) < 1e-14
        assert abs(eff.sigma_b_sq - w1 * cert.sigma_star_sq) < 1e-14
    for b in (0, 7):
        with pytest.raises(li.UnsupportedSamplingError):
            li.effective_constants(problem, b, cert)
    with pytest.raises(li.UnsupportedSamplingError, match=r"^b must be an integer, got 2.5$"):
        li.effective_constants(problem, 2.5, cert)
    assert li.effective_constants(problem, 2.0, cert) == li.effective_constants(problem, 2, cert)
    # n = 1 at b = 1 is plain single-sample SGD
    single = li.LeastSquaresProblem(np.ones((1, 1, 1)), np.zeros((1, 1)))
    single_cert = li.certify_solution(single)
    eff = li.effective_constants(single, 1, single_cert)
    assert eff.L_b == single.L == 1.0
    assert eff.sigma_b_sq == single_cert.sigma_star_sq
    # non-uniform weights: b = 1 is defined, subsets are not
    weighted = li.LeastSquaresProblem(np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1), np.zeros((3, 1)),
                                      weights=np.array([0.5, 0.25, 0.25]))
    assert weighted.batch_smoothness(1) == weighted.L == 9.0
    with pytest.raises(li.UnsupportedSamplingError, match="uniform weights"):
        weighted.batch_smoothness(2)


def _exact_batch_smoothness(problem, b):
    """lambda_max(Hbar^-1/2 E[H_B^2] Hbar^-1/2) for a uniform size-b subset B."""
    n = problem.n
    hess = np.einsum("nmi,nmj->nij", problem.design, problem.design)
    total = hess.sum(axis=0)
    diag = np.einsum("nij,njk->ik", hess, hess)  # sum_i H_i^2
    cross = total @ total - diag  # sum_{i != j} H_i H_j
    p1 = b / n
    p2 = b * (b - 1) / (n * (n - 1))
    second = (p1 * diag + p2 * cross) / (b * b)
    mean = total / n
    return float(scipy.linalg.eigh(second, mean, eigvals_only=True)[-1])


@pytest.mark.parametrize("n, d, spread, seed", [
    (2, 2, 1.0, 61), (6, 3, 0.5, 62), (12, 4, 2.0, 63), (20, 5, 0.0, 64),
])
def test_batch_smoothness_bounds_exact_constant(n, d, spread, seed):
    problem, _ = li.make_least_squares(n=n, d=d, spread=spread, seed=seed)
    for b in range(1, n + 1):
        exact = _exact_batch_smoothness(problem, b)
        assert problem.batch_smoothness(b) >= exact * (1.0 - 1e-12), (b, exact)
    # tight for the full batch, where both are the mean smoothness
    assert problem.batch_smoothness(n) == pytest.approx(exact, rel=1e-9)


def test_bound_report_polynomial():
    report = li.build_bound_report(li.PolynomialStep(2.0, 0.5), L=1.0, D_sq=1.0,
                                   sigma_star_sq=1.0, T=100)
    keys = set(report.applicable())
    assert keys == {"generic", "polynomial", "sqrt_general", "sqrt_c2"}
    assert report.tightest() == min(report.applicable().values())
    assert abs(report.gamma - 1.0 / 20.0) < 1e-15
    doc = report.to_doc()
    assert doc["schedule_variant"] == "polynomial"
    assert doc["C"] == 2.0 and doc["beta"] == 0.5
    # corollaries dominate the generic bound, never undercut it dishonestly
    assert report.generic <= min(report.polynomial, report.sqrt_general, report.sqrt_c2)


def test_bound_report_constant_and_general_beta():
    constant = li.build_bound_report(li.ConstantStep(0.01), L=1.0, D_sq=1.0,
                                     sigma_star_sq=1.0, T=50)
    assert set(constant.applicable()) == {"generic"}
    assert constant.polynomial is None
    beta_037 = li.build_bound_report(li.PolynomialStep(3.0, 0.37), L=2.0, D_sq=1.0,
                                     sigma_star_sq=1.0, T=200)
    assert set(beta_037.applicable()) == {"generic", "polynomial"}
    assert beta_037.sqrt_general is None and beta_037.sqrt_c2 is None
    c3 = li.build_bound_report(li.PolynomialStep(3.0, 0.5), L=2.0, D_sq=1.0,
                               sigma_star_sq=1.0, T=200)
    assert set(c3.applicable()) == {"generic", "polynomial", "sqrt_general"}


def test_corollaries_dominate_generic_on_grid():
    # the closed-form corollaries only ever relax the generic bound
    rng = np.random.default_rng(37)
    for _ in range(40):
        L = float(rng.uniform(0.3, 4.0))
        d2 = float(rng.uniform(0.0, 3.0))
        s2 = float(rng.uniform(0.0, 3.0))
        T = int(rng.integers(3, 5000))
        C = float(rng.uniform(2.0, 6.0))
        beta = float(rng.uniform(0.05, 0.95))
        report = li.build_bound_report(li.PolynomialStep(C, beta), L, d2, s2, T)
        assert report.generic <= report.polynomial * (1 + 1e-12)
        if report.sqrt_general is not None:
            assert report.generic <= report.sqrt_general * (1 + 1e-12)


def test_horizon_past_the_float_range_is_a_hypothesis_error():
    for schedule in (li.ConstantStep(0.1), li.PolynomialStep(2.0, 0.5)):
        with pytest.raises(li.HypothesisError, match="T must fit the float range"):
            li.build_bound_report(schedule, 1.0, 1.0, 0.0, 10**400)
    with pytest.raises(li.HypothesisError, match="T must fit the float range"):
        li.last_iterate_bound(0.1, 1.0, 1.0, 0.0, math.inf)
