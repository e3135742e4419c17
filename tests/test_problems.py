"""Problem families: oracles, certificates, invariants, serialization."""

import copy
import pickle

import numpy as np
import pytest
import scipy.special

import lastiter as li


def two_quadratics():
    """f_1 = x^2/2, f_2 = x^2 (curvatures 1 and 2), shared minimizer 0.

    Component 1 uses two unit rows so its curvature is exactly 2.0 in
    floating point.
    """
    design = np.zeros((2, 2, 1))
    design[0, 0, 0] = 1.0
    design[1, :, 0] = 1.0
    return li.LeastSquaresProblem(design, np.zeros((2, 2)))


def shifted_pair():
    """f_i = (x -+ 1)^2 / 2: x* = 0, inf f = 1/2, sigma*^2 = 1."""
    design = np.ones((2, 1, 1))
    offsets = np.array([[1.0], [-1.0]])
    return li.LeastSquaresProblem(design, offsets)


def test_two_quadratics_certificate_oracle():
    problem = two_quadratics()
    cert = li.certify_solution(problem)
    assert problem.L == 2.0
    assert problem.n == 2
    assert cert.x_star.shape == (1,)
    assert abs(cert.x_star[0]) < 1e-14
    assert abs(cert.inf_f) < 1e-28
    assert cert.sigma_star_sq < 1e-28


def test_shifted_pair_certificate_oracle():
    problem = shifted_pair()
    cert = li.certify_solution(problem)
    assert abs(cert.x_star[0]) < 1e-15
    assert abs(cert.inf_f - 0.5) < 1e-15
    assert abs(cert.sigma_star_sq - 1.0) < 1e-14
    assert problem.L == 1.0
    assert problem.L_f == 1.0


def test_value_and_grad_definitions():
    rng = np.random.default_rng(41)
    problem, _ = li.make_least_squares(n=7, d=3, spread=1.2, seed=3)
    for _ in range(5):
        x = rng.standard_normal(3)
        vals = problem.component_values_at(None, x)
        assert abs(problem.value(x) - vals.mean()) < 1e-12 * max(1.0, abs(problem.value(x)))
        grads = problem.component_grads_at(None, x)
        assert np.allclose(problem.grad(x), grads.mean(axis=0), rtol=1e-12, atol=1e-14)
        sm = float(np.mean(np.sum(grads**2, axis=1)))
        assert abs(problem.second_moment(x) - sm) < 1e-10 * max(1.0, sm)


@pytest.mark.parametrize("maker,kwargs", [
    (li.make_least_squares, dict(n=6, d=4, spread=1.0, seed=9)),
    (li.make_logistic, dict(n=8, d=3, seed=10)),
])
def test_gradients_match_finite_differences(maker, kwargs):
    problem, _ = maker(**kwargs)
    rng = np.random.default_rng(123)
    h = 1e-6
    for _ in range(3):
        x = rng.standard_normal(problem.dimension) * 0.5
        for i in (0, problem.n - 1):
            one = np.array([i])
            g = problem.component_grads_at(one, x)[0]
            for j in range(problem.dimension):
                e = np.zeros(problem.dimension)
                e[j] = h
                fd = (problem.component_values_at(one, x + e)[0]
                      - problem.component_values_at(one, x - e)[0]) / (2 * h)
                assert abs(g[j] - fd) <= 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("maker,kwargs", [
    (li.make_least_squares, dict(n=6, d=3, spread=2.0, seed=21)),
    (li.make_logistic, dict(n=10, d=4, seed=22)),
])
def test_components_convex_and_smooth(maker, kwargs):
    problem, _ = maker(**kwargs)
    rng = np.random.default_rng(77)
    for _ in range(20):
        x = rng.standard_normal(problem.dimension)
        y = rng.standard_normal(problem.dimension)
        theta = rng.uniform()
        for i in range(problem.n):
            one = np.array([i])
            mid = problem.component_values_at(one, theta * x + (1 - theta) * y)[0]
            chord = (theta * problem.component_values_at(one, x)[0]
                     + (1 - theta) * problem.component_values_at(one, y)[0])
            assert mid <= chord + 1e-10 * max(1.0, abs(chord))
            lhs = np.linalg.norm(problem.component_grads_at(one, x)[0]
                                 - problem.component_grads_at(one, y)[0])
            rhs = problem.smoothness_components[i] * np.linalg.norm(x - y)
            assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_max_smoothness_is_max_over_components():
    problem, _ = li.make_least_squares(n=9, d=3, spread=0.7, seed=31)
    per = [float(problem.smoothness_components[i]) for i in range(problem.n)]
    assert problem.L == max(per)
    assert problem.L > 0
    assert problem.L_f <= problem.L + 1e-12


def test_mean_smoothness_tight_for_least_squares():
    problem, _ = li.make_least_squares(n=5, d=3, spread=1.0, seed=32)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    lhs = np.linalg.norm(problem.grad(x) - problem.grad(y))
    assert lhs <= problem.L_f * np.linalg.norm(x - y) * (1 + 1e-9)
    # the mean Hessian realizes L_f along its top eigenvector
    hess = problem.mean_hessian
    w, v = np.linalg.eigh(hess)
    top = v[:, -1]
    lhs_top = np.linalg.norm(problem.grad(x + top) - problem.grad(x))
    assert abs(lhs_top - problem.L_f) < 1e-8 * max(1.0, problem.L_f)


def test_sigma_star_sq_matches_second_moment_at_minimizer():
    problem, cert = li.make_least_squares(n=8, d=2, spread=1.5, seed=33)
    direct = problem.second_moment(cert.x_star)
    assert abs(direct - cert.sigma_star_sq) < 1e-12 * max(1.0, direct)
    grads = problem.component_grads_at(None, cert.x_star)
    manual = float(np.mean(np.sum(grads**2, axis=1)))
    assert abs(direct - manual) < 1e-12 * max(1.0, manual)


def test_interpolation_family_has_zero_noise():
    problem, cert = li.make_least_squares(n=8, d=3, spread=0.0, seed=34)
    assert cert.sigma_star_sq < 1e-22
    assert cert.inf_f < 1e-22


def test_weighted_problem_paths():
    design = np.ones((4, 1, 1)) * np.arange(1, 5.0).reshape(4, 1, 1) ** 0.5
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    problem = li.LeastSquaresProblem(design, np.zeros((4, 1)), weights=weights)
    assert not problem.uniform_weights
    x = np.array([2.0])
    vals = problem.component_values_at(None, x)
    assert abs(problem.value(x) - float(weights @ vals)) < 1e-14
    grads = problem.component_grads_at(None, x)
    assert np.allclose(problem.grad(x), weights @ grads, rtol=1e-14, atol=0)
    sm = float(weights @ np.sum(grads**2, axis=1))
    assert abs(problem.second_moment(x) - sm) < 1e-12 * sm


def test_bad_weights_rejected():
    design = np.ones((2, 1, 1))
    with pytest.raises(ValueError):
        li.LeastSquaresProblem(design, np.zeros((2, 1)), weights=np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        li.LeastSquaresProblem(design, np.zeros((2, 1)), weights=np.array([1.2, -0.2]))


@pytest.mark.parametrize("weights, smoothness, reason", [
    ([], [], "weights must be a nonempty 1-d array"),
    ([[1.0]], [[1.0]], "weights must be a nonempty 1-d array"),
    ([0.5, 0.5], [1.0], "per-component smoothness constants must be finite and >= 0"),
    ([0.5, 0.5], [1.0, np.inf], "per-component smoothness constants must be finite and >= 0"),
    ([0.5, 0.5], [1.0, -1.0], "per-component smoothness constants must be finite and >= 0"),
    ([0.5, 0.5], [0.0, 0.0], "all components are constant; max smoothness must be positive"),
])
def test_family_constructor_refusals(weights, smoothness, reason):
    with pytest.raises(li.GenerationError) as info:
        li.FiniteSumProblem(weights, smoothness, 1.0, 2)
    assert str(info.value) == reason


@pytest.mark.parametrize("family, arrays, reason", [
    (li.LeastSquaresProblem, (np.zeros((0, 1, 1)), np.zeros((0, 1))), "design must have shape (n, m, d)"),
    (li.LeastSquaresProblem, (np.zeros((2, 1, 0)), np.zeros((2, 1))), "design must have shape (n, m, d)"),
    (li.LogisticProblem, (np.zeros((0, 2)), np.zeros(0)), "features must have shape (n, d)"),
], ids=["no-components", "no-dimensions", "no-rows"])
def test_empty_families_are_refused(family, arrays, reason):
    with pytest.raises(li.GenerationError) as info:
        family(*arrays)
    assert str(info.value) == f"{reason}, each at least 1"


@pytest.mark.parametrize("make, args, reason", [
    (li.make_least_squares, (0, 2, 1.0, 0), "need n >= 1 and d >= 1, got n=0, d=2"),
    (li.make_least_squares, (3, 0, 1.0, 0), "need n >= 1 and d >= 1, got n=3, d=0"),
    (li.make_least_squares, (3, 2, float("nan"), 0), "spread must be finite and >= 0, got nan"),
    (li.make_least_squares, (3, 2, -0.5, 0), "spread must be finite and >= 0, got -0.5"),
    (li.make_logistic, (4, 0, 0), "need d >= 1, got d=0"),
])
def test_generator_argument_refusals(make, args, reason):
    with pytest.raises(li.GenerationError) as info:
        make(*args)
    assert str(info.value) == reason


def test_singular_least_squares_certifies_the_least_norm_minimizer():
    """A singular mean Hessian certifies on its range, at the minimum-norm least-squares solution."""
    rng = np.random.default_rng(7)
    designs = [rng.standard_normal(shape) for shape in ((1, 1, 2), (10, 1, 50), (4, 2, 12))]
    duplicated = rng.standard_normal((3, 5, 4))
    duplicated[:, :, 3] = duplicated[:, :, 0]
    for design in [*designs, duplicated]:
        n, m, d = design.shape
        offsets = rng.standard_normal((n, m))
        problem = li.LeastSquaresProblem(design, offsets)
        assert problem._mean_eigs[0] < 1e-12 * problem._mean_eigs[-1]
        cert = li.certify_solution(problem)
        least_norm = np.linalg.lstsq(design.reshape(n * m, d), offsets.reshape(n * m), rcond=None)[0]
        assert np.max(np.abs(cert.x_star - least_norm)) <= 1e-14
        assert cert.grad_norm_residual <= cert.tol == 1e-10


@pytest.mark.parametrize("shape", [(10, 2, 2), (6, 1, 5), (4, 3, 7), (3, 9, 4), (2, 64, 64)])
def test_hessian_stack_is_symmetric_and_per_component(shape):
    design = np.random.default_rng(sum(shape)).standard_normal(shape)
    problem = li.LeastSquaresProblem(design, np.zeros(shape[:2]))
    hess = problem._hess
    assert np.array_equal(hess, hess.transpose(0, 2, 1))
    for i in range(shape[0]):
        assert np.array_equal(hess[i], design[i].T @ design[i])


def test_hessian_stack_is_within_the_dot_product_rounding_bound():
    """|fl(A^T A) - A^T A| <= gamma_m sum_k |a_ki||a_kj|, gamma_m = m u / (1 - m u) (Higham 2002, 3.1)."""
    from fractions import Fraction

    n, m, d = 3, 5, 4
    design = np.random.default_rng(5).standard_normal((n, m, d)) * np.logspace(-3, 3, d)
    hess = li.LeastSquaresProblem(design, np.zeros((n, m)))._hess
    u = Fraction(1, 2**53)
    gamma_m = m * u / (1 - m * u)
    for c in range(n):
        a = [[Fraction(float(v)) for v in row] for row in design[c]]
        for i in range(d):
            for j in range(d):
                exact = sum(a[k][i] * a[k][j] for k in range(m))
                scale = sum(abs(a[k][i] * a[k][j]) for k in range(m))
                assert abs(Fraction(float(hess[c, i, j])) - exact) <= gamma_m * scale


@pytest.mark.parametrize("n,d", [(8, 128), (30, 12), (5, 3)])
def test_closed_form_minimizer_agrees_with_a_lapack_solve(n, d):
    problem, cert = li.make_least_squares(n=n, d=d, spread=1.0, seed=n + d)
    reference = np.linalg.solve(problem.mean_hessian, -problem.grad(np.zeros(d)))
    condition = problem._mean_eigs[-1] / problem._mean_eigs[0]
    # both solves are backward stable, so they agree to the forward error bound
    tol = 8 * d * np.finfo(float).eps * condition * np.linalg.norm(reference)
    assert np.linalg.norm(cert.x_star - reference) <= tol
    assert cert.grad_norm_residual <= 1e-10


def test_certification_stops_at_the_iteration_cap(monkeypatch):
    """On separable data ||grad f|| falls at every Newton step, so only the cap ends the loop."""
    import lastiter.problems as problems

    problem = li.LogisticProblem(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0, 1.0]))
    monkeypatch.setattr(problems, "_NEWTON_STEP_CAP", 30)
    with pytest.raises(li.CertificationError, match="still falling after 30 Newton steps") as info:
        li.certify_solution(problem)
    residual_30 = info.value.best_residual
    assert residual_30 < 1e-10  # within the tolerance, and refused all the same
    monkeypatch.setattr(problems, "_NEWTON_STEP_CAP", 40)
    with pytest.raises(li.CertificationError, match="the mean has no minimizer") as info:
        li.certify_solution(problem)
    assert 0 < info.value.best_residual < 1e-4 * residual_30


def test_certification_refuses_a_vanishing_curvature():
    """Data separable along one direction and not the other: ||grad f|| stalls, but no minimizer exists."""
    problem = li.LogisticProblem(1e-3 * np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(li.CertificationError, match="curvature vanishes .*: the mean has no minimizer"):
        li.certify_solution(problem)


class NegatedCurvature(li.LeastSquaresProblem):
    """A least-squares family whose hessian hook claims -H: its Cholesky fails, so no Newton step descends."""

    def hessian(self, x):
        return -self.mean_hessian


def test_certification_refuses_when_no_step_descends():
    base, _ = li.make_least_squares(n=4, d=2, spread=1.0, seed=5)
    problem = NegatedCurvature(base.design, base.offsets)
    with pytest.raises(li.CertificationError, match=r"Newton steps stopped at residual .*, above tol") as info:
        li.certify_solution(problem)
    # the origin's residual: the non-finite step was never taken
    assert np.isfinite(info.value.best_residual)
    assert info.value.best_residual == pytest.approx(np.linalg.norm(problem.grad(np.zeros(2))), rel=1e-15)


def newton_reference(problem):
    """Undamped Newton from 0 on the logistic mean, solved by LAPACK."""
    F, y, w = problem.features, problem.labels, problem.weights
    x = np.zeros(problem.dimension)
    for _ in range(30):
        s = scipy.special.expit(-y * (F @ x))
        grad = F.T @ (w * -y * s)
        hess = F.T @ ((w * s * (1 - s))[:, None] * F)
        x = x - np.linalg.solve(hess, grad)
    return x


@pytest.mark.parametrize("n,d,seed,full_rank", [
    (8, 3, 44, True), (24, 4, 13, True), (6, 4, 20, False), (8, 6, 4, False), (10, 50, 2, False)])
def test_certify_solution_on_logistic(n, d, seed, full_rank):
    problem, _ = li.make_logistic(n=n, d=d, seed=seed)
    cert = li.certify_solution(problem)
    assert cert.tol == 1e-10
    assert cert.grad_norm_residual <= 1e-10
    assert np.linalg.norm(problem.grad(cert.x_star)) <= 1e-10
    if full_rank:
        assert np.max(np.abs(cert.x_star - newton_reference(problem))) <= 1e-12
    else:
        # the steps stay in the span of the features: the least-norm minimizer
        coef = np.linalg.lstsq(problem.features.T, cert.x_star, rcond=None)[0]
        assert np.linalg.norm(problem.features.T @ coef - cert.x_star) <= 1e-12 * np.linalg.norm(cert.x_star)
    # certified objective value is the attained minimum up to first order
    rng = np.random.default_rng(3)
    for _ in range(10):
        probe = cert.x_star + 1e-3 * rng.standard_normal(d)
        assert problem.value(probe) >= cert.inf_f - 1e-9


def test_memory_budget_guard():
    with pytest.raises(li.GenerationError):
        li.make_least_squares(n=1, d=3000, spread=1.0, seed=1)
    # The constructors count the arrays they form, not only their inputs:
    # 5100 design entries, but an n*d*d = 8.67M-entry Hessian stack
    with pytest.raises(li.GenerationError, match="8670000 float64 entries"):
        li.LeastSquaresProblem(np.zeros((3, 1, 1700)), np.zeros((3, 1)))
    # 5800 feature entries, but a d*d = 8.41M-entry Gram matrix
    with pytest.raises(li.GenerationError, match="8410000 float64 entries"):
        li.make_logistic(2, 2900, 0)
    with pytest.raises(li.GenerationError, match="8410000 float64 entries"):
        li.LogisticProblem(np.ones((2, 2900)), [1.0, -1.0])


def test_logistic_generator_structure():
    problem, cert = li.make_logistic(n=9, d=4, seed=55)
    assert problem.n == 9
    labels = problem.labels
    assert set(np.unique(labels)) <= {-1.0, 1.0}
    assert cert.grad_norm_residual <= 1e-10
    with pytest.raises(li.GenerationError):
        li.make_logistic(n=1, d=2, seed=1)


def test_logistic_component_smoothness_formula():
    problem, _ = li.make_logistic(n=6, d=3, seed=66)
    for i in range(problem.n):
        row = problem.features[i]
        assert abs(problem.smoothness_components[i] - 0.25 * row @ row) < 1e-14


def test_logistic_gradient_at_extreme_margins():
    """Margins of +/-1e3 and +/-1e6, as radius-1e6 probe points give, stay quiet and exact."""
    problem = li.LogisticProblem([[1.0, 0.0], [1.0, 0.0], [0.5, 2.0]], [1.0, -1.0, 1.0])
    scales = np.concatenate(([1e3, -1e3, 1e6, -1e6, 0.0], np.linspace(-40.0, 40.0, 81)))
    points = scales[:, None] * np.array([1.0, 0.25])
    # filterwarnings = error turns an overflow warning into a failure
    grads = problem.component_grads_at(None, points)
    assert np.all(np.isfinite(grads))
    margins = problem.labels * (points @ problem.features.T)
    expected = -(problem.labels * scipy.special.expit(-margins))[..., None] * problem.features
    np.testing.assert_array_max_ulp(grads, expected, maxulp=4)


@pytest.mark.parametrize("idx", [None, np.array([2, 0, 2]),
                                 np.array([[2, 0], [1, 1], [0, 2], [1, 2], [2, 2], [0, 1], [1, 0]])],
                         ids=["all", "k", "S-k"])
def test_logistic_kernel_bits_are_minus_label_times_sigmoid(idx):
    """The gradients' bits, signed zeros included, are -(y * s) * F for s = 1 / (1 + exp(m)),
    and the values' are logaddexp(0, -m), for the margins m = y * (F x)."""
    problem = li.LogisticProblem([[1.0, 0.0], [-1.0, 0.5], [0.5, 2.0]], [1.0, -1.0, 1.0])
    scales = np.array([1e3, -1e3, 1e6, -1e6, 0.0, 0.75, -3.5])
    points = scales[:, None] * np.array([1.0, 0.25])
    for x in (points, points[0], points[-1]):
        if idx is not None and idx.ndim == 2 and x.ndim == 1:
            continue  # an (S, k) index takes a stack of S points
        F = problem.features if idx is None else problem.features.take(idx, axis=0)
        y = problem.labels if idx is None else problem.labels.take(idx, axis=0)
        m = y * np.matmul(F, x[..., :, None])[..., 0]
        with np.errstate(over="ignore"):
            expected = (-(y * (1.0 / (1.0 + np.exp(m)))))[..., None] * F
        grads = problem.component_grads_at(idx, x)
        assert grads.shape == expected.shape
        assert np.array_equal(grads.view(np.uint64), expected.view(np.uint64))
        values = problem.component_values_at(idx, x)
        assert np.array_equal(values.view(np.uint64), np.logaddexp(0.0, -m).view(np.uint64))
    # margins past exp's overflow make s = 0, so some entries are signed zeros
    grads = problem.component_grads_at(None, points[:4])
    assert np.any(np.signbit(grads) & (grads == 0)) and np.any(~np.signbit(grads) & (grads == 0))


def test_json_round_trip_is_bitwise():
    rng = np.random.default_rng(9)
    for maker, kwargs in (
        (li.make_least_squares, dict(n=5, d=3, spread=1.0, seed=71)),
        (li.make_logistic, dict(n=6, d=2, seed=72)),
    ):
        problem, cert = maker(**kwargs)
        doc = li.problem_to_doc(problem)
        assert set(doc) == {"schema", "problem"}
        assert set(doc["problem"]) == {"kind", *problem.array_names}
        back, back_cert = li.problem_from_doc(doc)
        x = rng.standard_normal(problem.dimension)
        assert np.array_equal(problem.grad(x), back.grad(x))
        assert problem.value(x) == back.value(x)
        assert np.array_equal(cert.x_star, back_cert.x_star)
        assert cert.inf_f == back_cert.inf_f
        assert cert.sigma_star_sq == back_cert.sigma_star_sq


def test_save_load_round_trip(tmp_path):
    problem, cert = li.make_least_squares(n=4, d=2, spread=0.5, seed=81)
    path = tmp_path / "problem.json"
    li.save_problem(path, problem)
    back, back_cert = li.load_problem(path)
    x = np.array([0.3, -1.1])
    two = np.array([2])
    assert np.array_equal(problem.component_grads_at(two, x), back.component_grads_at(two, x))
    assert back_cert.tol == cert.tol


def test_save_load_round_trip_is_bitwise(tmp_path):
    """A file holds arrays only; the certificate re-derived on load is the generator's, bit for bit."""
    path = tmp_path / "problem.json"
    for problem, cert in (li.make_least_squares(n=5, d=3, spread=1.0, seed=82),
                          li.make_logistic(n=7, d=3, seed=83)):
        li.save_problem(path, problem)
        assert "certificate" not in path.read_text()
        back, back_cert = li.load_problem(path)
        assert type(back) is type(problem)
        for name in problem.array_names:
            assert getattr(back, name).tobytes() == getattr(problem, name).tobytes()
        assert back_cert.x_star.tobytes() == cert.x_star.tobytes()
        for field in ("inf_f", "sigma_star_sq", "grad_norm_residual", "tol"):
            assert getattr(back_cert, field) == getattr(cert, field)


def test_digest_tracks_every_defining_byte():
    problem, _ = li.make_least_squares(n=4, d=3, spread=1.0, seed=5)
    digest = problem.digest()
    assert len(digest) == 64 and problem.digest() == digest
    assert li.LeastSquaresProblem(problem.design.copy(), problem.offsets.copy()).digest() == digest
    design = problem.design.copy()
    design[1, 2, 0] = np.nextafter(design[1, 2, 0], np.inf)
    assert li.LeastSquaresProblem(design, problem.offsets).digest() != digest
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    assert li.LeastSquaresProblem(problem.design, problem.offsets, weights).digest() != digest


def test_digest_separates_shapes_and_families():
    # Both families below concatenate to the same bytes (design, offsets,
    # weights in order), so only the shapes and the family tag tell them apart.
    values = np.random.default_rng(3).standard_normal(8)
    deep = li.LeastSquaresProblem(values[:6].reshape(2, 1, 3), values[6:].reshape(2, 1))
    wide = li.LeastSquaresProblem(values[:4].reshape(2, 2, 1), values[4:].reshape(2, 2))
    assert np.concatenate([deep.design.ravel(), deep.offsets.ravel(), deep.weights]).tobytes() == (
        np.concatenate([wide.design.ravel(), wide.offsets.ravel(), wide.weights]).tobytes())
    assert deep.digest() != wide.digest()
    labels = np.array([1.0, -1.0])
    lsq = li.LeastSquaresProblem(values[:4].reshape(2, 1, 2), labels.reshape(2, 1))
    logistic = li.LogisticProblem(values[:4].reshape(2, 2), labels)
    assert lsq.design.tobytes() == logistic.features.tobytes()
    assert lsq.offsets.tobytes() == logistic.labels.tobytes()
    assert lsq.digest() != logistic.digest()


def test_digest_survives_pickle_and_files(tmp_path):
    path = tmp_path / "problem.json"
    for problem, _ in (li.make_least_squares(n=5, d=2, spread=1.0, seed=84),
                       li.make_logistic(n=6, d=2, seed=85)):
        fresh = pickle.loads(pickle.dumps(problem))
        digest = problem.digest()
        assert fresh.digest() == digest
        assert pickle.loads(pickle.dumps(problem)).digest() == digest
        li.save_problem(path, problem)
        assert li.load_problem(path)[0].digest() == digest


def test_documents_with_unknown_keys_are_refused():
    problem, cert = li.make_least_squares(n=4, d=2, spread=1.0, seed=86)
    doc = li.problem_to_doc(problem)
    forged = {**doc, "certificate": {"x_star": (cert.x_star + 3).tolist(), "inf_f": cert.inf_f - 5}}
    with pytest.raises(ValueError, match=r"unknown keys \['certificate'\].*derived from the arrays"):
        li.problem_from_doc(forged)
    extra = {**doc, "problem": {**doc["problem"], "x_star": cert.x_star.tolist()}}
    with pytest.raises(ValueError, match=r"unknown keys \['x_star'\]"):
        li.problem_from_doc(extra)
    logistic = li.problem_to_doc(li.make_logistic(n=4, d=2, seed=87)[0])
    # a body holds its own family's arrays, not another family's
    crossed = {**logistic, "problem": {**logistic["problem"], "design": [[[1.0]]]}}
    with pytest.raises(ValueError, match=r"unknown keys \['design'\]"):
        li.problem_from_doc(crossed)


def test_check_point_validates():
    problem, _ = li.make_least_squares(n=3, d=2, spread=1.0, seed=91)
    with pytest.raises(ValueError):
        problem.check_point(np.zeros(3))
    with pytest.raises(ValueError):
        problem.check_point(np.array([np.nan, 0.0]))
    out = problem.check_point([0.5, 1.5])
    assert out.dtype == np.float64 and out.shape == (2,)


def test_component_view_matches_problem():
    """One component picked by index, alone or in a stack of points, is the full-family row."""
    x = np.array([1.0, -2.0])
    X = np.stack([x, -x, 0.5 * x])
    three = np.array([3])
    rows = np.array([[3], [0], [4]])
    for problem, _ in (li.make_least_squares(n=5, d=2, spread=1.0, seed=92),
                       li.make_logistic(n=5, d=2, seed=93)):
        assert problem.component_values_at(three, x)[0] == problem.component_values_at(None, x)[3]
        assert np.array_equal(problem.component_grads_at(three, x)[0],
                              problem.component_grads_at(None, x)[3])
        values = problem.component_values_at(rows, X)
        grads = problem.component_grads_at(rows, X)
        assert values.shape == (3, 1) and grads.shape == (3, 1, 2)
        for s, (i,) in enumerate(rows):
            assert values[s, 0] == problem.component_values_at(None, X[s])[i]
            assert np.array_equal(grads[s, 0], problem.component_grads_at(None, X[s])[i])
        assert np.array_equal(problem.value(X), [problem.value(row) for row in X])
        with pytest.raises(IndexError):
            problem.component_grads_at(np.array([5]), x)


class _FancyTake(np.ndarray):
    """An array whose ``take(idx, axis=0)`` gathers by fancy indexing instead, counting calls."""

    calls = []

    def take(self, idx, axis=None, out=None, mode="raise"):
        assert axis == 0 and out is None and mode == "raise"
        self.calls.append(1)
        return np.asarray(self)[idx]


def fancy_indexed(problem):
    """A copy of problem whose component hooks gather every array by fancy indexing."""
    twin = copy.copy(problem)
    for name, value in vars(problem).items():
        if isinstance(value, np.ndarray):
            setattr(twin, name, value.view(_FancyTake))
    return twin


def test_hook_gathers_match_fancy_indexing():
    """The hooks gather with ndarray.take: the same bits as fancy indexing, the same IndexError."""
    rng = np.random.default_rng(94)
    X = rng.standard_normal((3, 3))
    for problem, _ in (li.make_least_squares(n=5, d=3, spread=1.0, seed=95),
                       li.make_logistic(n=5, d=3, seed=96)):
        twin = fancy_indexed(problem)
        cases = [([3, 0, 3], X[0]), (np.array([-1, 2, -5]), X[1]), ([-2], X),
                 (np.array([[4, 1], [0, -1], [2, 2]]), X)]
        for hook in ("component_values_at", "component_grads_at"):
            for idx, x in cases:
                _FancyTake.calls.clear()
                expected = getattr(twin, hook)(idx, x)
                assert _FancyTake.calls  # the twin did gather through take
                assert np.array_equal(getattr(problem, hook)(idx, x), expected)
            for bad, x in (([5], X[0]), (np.array([[0, -6]]), X[:1])):
                with pytest.raises(IndexError):
                    getattr(problem, hook)(bad, x)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_small_batch_grad_is_the_ascending_slice_sum(d):
    """Below 8 gradients a batch adds them in ascending position; from 8 on it is numpy's sum."""
    rng = np.random.default_rng(97 + d)
    for problem, _ in (li.make_least_squares(n=12, d=d, spread=1.0, seed=98),
                       li.make_logistic(n=12, d=d, seed=99)):
        for S in (7, 300):
            X = rng.standard_normal((S, d))
            for k in range(2, 13):
                idx = rng.integers(0, 12, size=(S, k))
                grads = problem.component_grads_at(idx, X)
                if k < 8:
                    total = grads[:, 0]
                    for j in range(1, k):
                        total = total + grads[:, j]
                else:
                    total = grads.sum(axis=-2)
                assert np.array_equal(problem.batch_grad(idx, X), total / k)
                assert np.array_equal(problem.batch_grad(idx[0], X[0]), (total / k)[0])


@pytest.mark.parametrize("m, d", [(1, 8), (2, 10), (10, 10), (3, 64)])
def test_block_rows_equal_single_point_calls(m, d):
    """A point's components share one matrix-vector product, the same in a block as alone."""
    rng = np.random.default_rng(100 * m + d)
    n, S = 7, 9
    problem = li.LeastSquaresProblem(rng.standard_normal((n, m, d)), rng.standard_normal((n, m)))
    X = rng.standard_normal((S, d))
    rows = rng.integers(0, n, size=(S, 4))
    for hook in (problem.component_values_at, problem.component_grads_at):
        every, shared, gathered = hook(None, X), hook(rows[0], X), hook(rows, X)
        for s in range(S):
            assert np.array_equal(every[s], hook(None, X[s]))
            assert np.array_equal(shared[s], hook(rows[0], X[s]))
            assert np.array_equal(gathered[s], hook(rows[s], X[s]))


def test_generation_is_seed_deterministic():
    a1, c1 = li.make_least_squares(n=6, d=3, spread=1.0, seed=500)
    a2, c2 = li.make_least_squares(n=6, d=3, spread=1.0, seed=500)
    b1, _ = li.make_least_squares(n=6, d=3, spread=1.0, seed=501)
    x = np.ones(3)
    assert np.array_equal(a1.grad(x), a2.grad(x))
    assert np.array_equal(c1.x_star, c2.x_star)
    assert not np.array_equal(a1.grad(x), b1.grad(x))
