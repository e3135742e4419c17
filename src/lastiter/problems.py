"""Convex smooth finite-sum problems with certified minimizers.

A problem is a family {f_1, ..., f_n} of convex, individually smooth
functions together with positive sampling weights summing to one.  The
objective is the weighted mean f(x) = sum_i w_i f_i(x).  Everything the rest
of the package consumes is produced here: exact component values and
gradients at one point or a stack of points, per-component smoothness
constants, the smoothness constant of the mean, and a solution certificate
carrying the minimizer x*, the optimal value, the gradient second moment at
the solution sum_i w_i ||grad f_i(x*)||^2, and the gradient-norm residual
actually achieved.

Two families are implemented:

* least squares: f_i(x) = 0.5 ||A_i x - b_i||^2;
* logistic: f_i(x) = log(1 + exp(-y_i <a_i, x>)).  The generator emits
  feature rows in +/- label pairs along shared directions, which makes the
  mean coercive on the span of the design and so guarantees a finite
  minimizer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .reporting import write_json
from .rng import PROBLEM_STREAM, stream

__all__ = [
    "CertificationError",
    "FiniteSumProblem",
    "GenerationError",
    "LeastSquaresProblem",
    "LogisticProblem",
    "MEMORY_BUDGET_ENTRIES",
    "SolutionCertificate",
    "UnsupportedSamplingError",
    "certify_solution",
    "load_problem",
    "make_least_squares",
    "make_logistic",
    "problem_from_doc",
    "problem_to_doc",
    "save_problem",
]

# Largest array a family may hold or form, in float64 entries (the
# per-component Hessians of a least-squares family have n*d*d of them).
MEMORY_BUDGET_ENTRIES = 2**23

_WEIGHT_SUM_TOL = 1e-9
# The residual ||grad f(x*)|| every certificate reaches, and the Newton steps
# it may take.  On separable data each step grows the margins by about 1; past
# a margin near 745 exp underflows, the Hessian is exactly zero and the
# Cholesky divides by zero, so the cap stays far below that.
_CERTIFY_TOL = 1e-10
_NEWTON_STEP_CAP = 100
# Eigenvalues and curvatures below this fraction of hessian(0)'s largest count as zero.
_SINGULAR_RATIO = 1e-12


class UnsupportedSamplingError(ValueError):
    """The requested sampling combination is not defined."""


class GenerationError(ValueError):
    """A problem instance could not be built (degenerate or oversized data)."""


class CertificationError(RuntimeError):
    """Certification failed; carries the gradient-norm residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = float(best_residual)


@dataclass(frozen=True)
class SolutionCertificate:
    """Certified minimizer data, derived from a problem's arrays by :func:`certify_solution`.

    Attributes:
        x_star: the certified minimizer.
        inf_f: objective value at ``x_star``.
        sigma_star_sq: gradient second moment sum_i w_i ||grad f_i(x*)||^2.
        grad_norm_residual: ||grad f(x_star)|| actually measured.
        tol: the residual the certifier held it to.
    """

    x_star: np.ndarray
    inf_f: float
    sigma_star_sq: float
    grad_norm_residual: float
    tol: float


class FiniteSumProblem:
    """Weighted family of convex smooth components with an exact mean.

    Subclasses provide the component values and gradients at a point or at
    a stack of points; this base class owns the weights, the smoothness
    constants, and the weighted mean.  Instances are immutable by convention
    and safe to share across worker processes.

    The component hooks take ``idx`` = None (every component), an index
    vector (k,), or one index row per point (S, k), and ``x`` of shape (d,)
    or (S, d); they return values of shape (..., k) and gradients of shape
    (..., k, d).  Each row is computed by the same per-row BLAS calls
    whatever S is, so a row's result never depends on the rows beside it.
    """

    kind = "abstract"
    # The arrays that define an instance, in document and digest order.
    array_names: tuple = ()

    def __init__(self, weights, smoothness_components, smoothness_mean, dimension):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise GenerationError("weights must be a nonempty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise GenerationError("weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise GenerationError(f"weights must sum to 1, got {float(w.sum())!r}")
        lc = np.asarray(smoothness_components, dtype=float)
        if lc.shape != w.shape or not np.all(np.isfinite(lc)) or np.any(lc < 0):
            raise GenerationError("per-component smoothness constants must be finite and >= 0")
        if float(lc.max()) <= 0:
            raise GenerationError("all components are constant; max smoothness must be positive")
        self.weights = w
        self.n = int(w.size)
        self.dimension = int(dimension)
        self.smoothness_components = lc
        self.L = float(lc.max())
        self.L_f = float(smoothness_mean)
        self.uniform_weights = bool(np.array_equal(w, np.full(self.n, 1.0 / self.n)))
        self.cum_weights = None if self.uniform_weights else np.cumsum(w)
        self._digest = None

    @staticmethod
    def _weights(weights, n: int) -> np.ndarray:
        """Sampling weights for n components, uniform when None; the shape is checked here."""
        w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise GenerationError(f"weights must have shape ({n},)")
        return w

    # -- family hooks -----------------------------------------------------

    def component_values_at(self, idx, x) -> np.ndarray:
        raise NotImplementedError

    def component_grads_at(self, idx, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        """Hessian (d, d) of the mean at x, without BLAS; ``_mean_eigs`` holds those of hessian(0)."""
        raise NotImplementedError

    def component_entries(self) -> int:
        """Float64 entries the kernels hold per point and component; sizes seed blocks."""
        return self.dimension * self.dimension

    def digest(self) -> str:
        """Hex SHA-256 over the family tag and each defining array's dtype, shape and raw bytes.

        Equal digests mean bitwise-equal instances of the same family; the
        value is computed once per instance and cached on it.
        """
        if self._digest is None:
            h = hashlib.sha256(self.kind.encode())
            for name in self.array_names:
                array = np.ascontiguousarray(getattr(self, name))
                h.update(f"\0{name}\0{array.dtype.str}\0{array.shape}\0".encode())
                h.update(array.data)
            self._digest = h.hexdigest()
        return self._digest

    # -- derived quantities -----------------------------------------------

    def batch_smoothness(self, b: int) -> float:
        """Expected smoothness of the gradient averaged over a sampled size-b subset.

        b = 1 samples one component from the weights, so the constant is the
        max component smoothness L.  For b > 1 it is the b-nice expected
        smoothness of Gower et al. (SGD: General Analysis and Improved Rates,
        ICML 2019, Prop. 3.8),
        (n-b)/(b(n-1)) L + n(b-1)/(b(n-1)) L_f, which falls from L at b = 1
        to the mean smoothness L_f at b = n.

        Raises:
            UnsupportedSamplingError: b lies outside [1, n], or b > 1 with
                non-uniform weights.
        """
        if b == 1:
            return self.L
        n = self.n
        if b < 1:
            raise UnsupportedSamplingError(f"batch size must be >= 1, got {b}")
        if b > n:
            raise UnsupportedSamplingError(f"batch size {b} exceeds the family size n={n}")
        if not self.uniform_weights:
            raise UnsupportedSamplingError(
                "subset sampling with non-uniform weights is not defined; "
                "use batch_size 1 or uniform weights"
            )
        return (n - b) / (b * (n - 1)) * self.L + n * (b - 1) / (b * (n - 1)) * self.L_f

    def value(self, x):
        """Weighted mean objective f(x); one value per row when x is (S, d)."""
        x = np.asarray(x, dtype=float)
        out = self.weighted_mean(self.component_values_at(None, x))
        return float(out) if x.ndim == 1 else out

    def weighted_mean(self, values) -> np.ndarray:
        """Weighted mean over the last (component) axis of values (..., n)."""
        if self.uniform_weights:
            return values.sum(axis=-1) / self.n
        return np.matmul(values[..., None, :], self.weights[:, None])[..., 0, 0]

    def batch_grad(self, idx, x) -> np.ndarray:
        """Average of the component gradients over idx (every component when None).

        Gradients are summed in ascending position along the batch axis and
        divided once; with idx = None this is the gradient of a uniformly
        weighted mean, so the full-batch SGD step and :meth:`grad` are the
        same computation.  A batch of one is its gradient, exactly.
        """
        grads = self.component_grads_at(idx, x)
        k = grads.shape[-2]
        return grads[..., 0, :] if k == 1 else grads.sum(axis=-2) / k

    def grad(self, x) -> np.ndarray:
        """Gradient of the weighted mean."""
        x = np.asarray(x, dtype=float)
        if self.uniform_weights:
            return self.batch_grad(None, x)
        return self.weights @ self.component_grads_at(None, x)

    def second_moment(self, x):
        """Gradient second moment sum_i w_i ||grad f_i(x)||^2; one value per row when x is (S, d)."""
        x = np.asarray(x, dtype=float)
        grads = self.component_grads_at(None, x)
        out = self.weighted_mean(np.einsum("...ni,...ni->...n", grads, grads))
        return float(out) if x.ndim == 1 else out

    def check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("point has non-finite entries")
        return x


class LeastSquaresProblem(FiniteSumProblem):
    """f_i(x) = 0.5 ||A_i x - b_i||^2 with stacked designs A (n, m, d)."""

    kind = "least_squares"
    array_names = ("design", "offsets", "weights")

    def __init__(self, design, offsets, weights=None):
        A = np.asarray(design, dtype=float)
        b = np.asarray(offsets, dtype=float)
        if A.ndim != 3:
            raise GenerationError("design must have shape (n, m, d)")
        n, m, d = A.shape
        _check_budget(n * max(m, d) * d)  # the design, or the Hessian stack (n, d, d)
        if b.shape != (n, m):
            raise GenerationError(f"offsets must have shape ({n}, {m}), got {b.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise GenerationError("design and offsets must be finite")
        self.design = A
        self.offsets = b
        # Per-component quadratic data: gradient of f_i is H_i x - c_i.  The
        # product of A_i with its own transpose goes to BLAS syrk, which
        # computes one triangle and mirrors it, so each H_i is exactly symmetric.
        self._hess = np.matmul(A.transpose(0, 2, 1), A)
        self._atb = np.einsum("nmi,nm->ni", A, b)
        eigs = np.linalg.eigvalsh(self._hess)
        l_components = np.maximum(eigs[:, -1], 0.0)
        w = self._weights(weights, n)
        mean_hess = np.einsum("n,nij->ij", w, self._hess)
        self._mean_eigs = np.linalg.eigvalsh(mean_hess)
        super().__init__(w, l_components, float(self._mean_eigs[-1]), d)
        self.mean_hessian = mean_hess

    def component_values_at(self, idx, x):
        A = self.design if idx is None else self.design[idx]
        b = self.offsets if idx is None else self.offsets[idx]
        r = np.matmul(A, x[..., None, :, None])[..., 0] - b
        return 0.5 * np.einsum("...nm,...nm->...n", r, r)

    def component_grads_at(self, idx, x):
        H = self._hess if idx is None else self._hess[idx]
        c = self._atb if idx is None else self._atb[idx]
        return np.matmul(H, x[..., None, :, None])[..., 0] - c

    def hessian(self, x):
        return self.mean_hessian

    def component_entries(self):
        # a gathered Hessian for the gradient, a residual for the value
        return max(self.dimension * self.dimension, self.offsets.shape[1])


class LogisticProblem(FiniteSumProblem):
    """f_i(x) = log(1 + exp(-y_i <a_i, x>)) for feature rows a_i, labels +/-1."""

    kind = "logistic"
    array_names = ("features", "labels", "weights")

    def __init__(self, features, labels, weights=None):
        F = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float)
        if F.ndim != 2:
            raise GenerationError("features must have shape (n, d)")
        n, d = F.shape
        _check_budget(max(n, d) * d)  # the features, or the Gram matrix (d, d)
        if y.shape != (n,) or not np.all(np.isin(y, (-1.0, 1.0))):
            raise GenerationError("labels must be a length-n vector of +/-1")
        if not np.all(np.isfinite(F)):
            raise GenerationError("features must be finite")
        row_sq = np.einsum("ni,ni->n", F, F)
        if np.any(row_sq < 1e-24):
            raise GenerationError("zero feature row makes a component constant")
        self.features = F
        self.labels = y
        l_components = 0.25 * row_sq
        w = self._weights(weights, n)
        gram = np.einsum("n,ni,nj->ij", w, F, F)
        self._mean_eigs = 0.25 * np.linalg.eigvalsh(gram)  # hessian(0) is gram / 4
        super().__init__(w, l_components, float(self._mean_eigs[-1]), d)

    def _margins(self, idx, x):
        F = self.features if idx is None else self.features[idx]
        y = self.labels if idx is None else self.labels[idx]
        return F, y, y * np.matmul(F, x[..., :, None])[..., 0]

    def component_values_at(self, idx, x):
        _, _, margins = self._margins(idx, x)
        return np.logaddexp(0.0, -margins)

    def component_grads_at(self, idx, x):
        F, y, margins = self._margins(idx, x)
        # the logistic sigmoid of -margins; exp overflows to inf past a margin
        # of about 709, where the sigmoid is exactly 0 as it should be
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(margins))
        return (-(y * s))[..., None] * F

    def hessian(self, x):
        F, _, margins = self._margins(None, x)
        # s (1 - s) for s the sigmoid of -margins, in logs so no exp overflows
        curvature = np.exp(-np.logaddexp(0.0, margins) - np.logaddexp(0.0, -margins))
        return np.einsum("ni,nj->ij", (self.weights * curvature)[:, None] * F, F)

    def component_entries(self):
        return self.dimension


# -- certification ---------------------------------------------------------


def _cholesky(H: np.ndarray) -> np.ndarray:
    """Lower factor G of symmetric positive definite H = G G^T, without BLAS or LAPACK.

    A threaded BLAS splits its sums differently at each thread count, so
    LAPACK moves in the last bits with it.  Each step here is an elementwise
    product and a pairwise sum along one row: the dot-product (left-looking)
    factor, one column per step, from the lower triangle of H only.
    """
    d = H.shape[0]
    G = np.zeros((d, d))
    for j in range(d):
        col = H[j:, j] - (G[j:, :j] * G[j, :j]).sum(axis=1)
        G[j:, j] = col / np.sqrt(col[0])
    return G


def _cholesky_solve(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve G G^T x = c by forward and back substitution, one entry per step, as :func:`_cholesky`."""
    d = G.shape[0]
    y, x = np.zeros((2, d))
    for k in range(d):
        y[k] = (c[k] - (G[k, :k] * y[:k]).sum()) / G[k, k]
    for k in range(d - 1, -1, -1):
        x[k] = (y[k] - (G[k + 1:, k] * x[k + 1:]).sum()) / G[k, k]
    return x


def _range_basis(H: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal rows (rank, d) spanning the range of symmetric H, by pivoted Gram-Schmidt.

    Each step takes the row farthest from the span so far, orthogonalizes it
    twice, and projects it out of every row, elementwise as in :func:`_cholesky`.
    """
    R, Q = H, np.zeros((rank, H.shape[0]))
    for k in range(rank):
        v = R[int(np.argmax((R * R).sum(axis=1)))]
        v = v - (Q[:k] * (Q[:k] * v).sum(axis=1)[:, None]).sum(axis=0)
        Q[k] = v / np.sqrt((v * v).sum())
        R = R - (R * Q[k]).sum(axis=1)[:, None] * Q[k]
    return Q


def certify_solution(problem: FiniteSumProblem) -> SolutionCertificate:
    """Certify a minimizer of the mean by damped Newton steps from the origin.

    Each step solves hessian(x) dx = -grad f(x) with the BLAS-free Cholesky,
    factoring a Hessian that ``hessian`` returns again (least squares) once.
    When the eigenvalues of hessian(0) show it singular, the steps run on an
    orthonormal basis of its range: the least-norm minimizer is certified.

    Raises:
        CertificationError: the steps stopped above ``_CERTIFY_TOL``, or
            ||grad f|| still fell after ``_NEWTON_STEP_CAP`` steps or the
            curvature along the last step vanished: no minimizer exists.
    """
    eigs, x = problem._mean_eigs, np.zeros(problem.dimension)
    fx, g, H = problem.value(x), problem.grad(x), problem.hessian(x)
    rank = int(np.count_nonzero(eigs > _SINGULAR_RATIO * eigs[-1]))
    # the identity basis of a full-rank family changes no bit of a step
    basis = np.eye(x.size) if rank == x.size else _range_basis(H, rank)
    residual, factored = float(np.sqrt((g * g).sum())), None
    for _ in range(_NEWTON_STEP_CAP):
        if H is not factored:
            # a Hessian singular in floats gives a non-finite step, never taken
            with np.errstate(divide="ignore", invalid="ignore"):
                factored, G = H, _cholesky(np.einsum("kj,lj->kl", np.einsum("ki,ij->kj", basis, H), basis))
        step = (basis * _cholesky_solve(G, -(basis * g).sum(axis=1))[:, None]).sum(axis=0)
        slope = float((g * step).sum())
        # Above the tolerance, halve the step until it passes an Armijo test
        # with float-noise slack, and take it even where ||grad f|| rises;
        # within it, take full steps while ||grad f|| falls.
        for t in 0.5 ** np.arange(60):
            x_next = x + t * step
            if residual <= _CERTIFY_TOL:
                break
            f_next = problem.value(x_next)
            if f_next <= fx + 0.25 * t * slope + 8e-16 * max(1.0, abs(fx)):
                fx = f_next
                break
        else:
            break
        g_next = problem.grad(x_next)
        r_next = float(np.sqrt((g_next * g_next).sum()))
        if residual <= _CERTIFY_TOL and not r_next < residual:
            break
        x, g, residual, H = x_next, g_next, r_next, problem.hessian(x_next)
    else:
        if residual <= _CERTIFY_TOL:
            raise CertificationError(f"||grad f|| still falling after {_NEWTON_STEP_CAP} Newton steps "
                                     f"(residual {residual:.3e}): the mean has no minimizer", residual)
    if residual > _CERTIFY_TOL:
        raise CertificationError(f"Newton steps stopped at residual {residual:.3e}, above tol {_CERTIFY_TOL:g}; "
                                 "the instance is too ill-conditioned to certify", residual)
    # At a minimizer the curvature along a step is at least the Hessian's
    # smallest eigenvalue; along a direction of recession it vanishes.
    if not -slope >= _SINGULAR_RATIO * eigs[-1] * float((step * step).sum()):
        raise CertificationError(f"curvature vanishes along the Newton step at residual {residual:.3e}: "
                                 "the mean has no minimizer", residual)
    return SolutionCertificate(x, problem.value(x), problem.second_moment(x), residual, _CERTIFY_TOL)


# Unused, but the benchmark tracer (perfbench/child.py) wraps this name on this module.
closed_form_certificate = certify_solution


# -- generators -------------------------------------------------------------


def _check_budget(entries: int):
    if entries > MEMORY_BUDGET_ENTRIES:
        raise GenerationError(
            f"instance needs {entries} float64 entries, over the "
            f"{MEMORY_BUDGET_ENTRIES} budget"
        )


def make_least_squares(n: int, d: int, spread: float, seed: int):
    """Generate a least-squares family with its certificate.

    Component minimizers sit at a shared center plus ``spread`` times a
    standard normal offset, so ``spread = 0`` produces an interpolation
    instance (every component minimized at the same point, zero gradient
    second moment at the solution) and larger spreads produce genuinely
    noisy instances.

    Args:
        n: number of components, >= 1.
        d: dimension, >= 1.
        spread: nonnegative dispersion of the per-component minimizers.
        seed: 64-bit stream seed.

    Returns:
        (problem, certificate).
    """
    if n < 1 or d < 1:
        raise GenerationError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    spread = float(spread)
    if not (np.isfinite(spread) and spread >= 0):
        raise GenerationError(f"spread must be finite and >= 0, got {spread!r}")
    _check_budget(n * d * d)  # as the constructor will, before drawing the design
    rng = stream(seed, PROBLEM_STREAM)
    design = rng.standard_normal((n, d, d)) / np.sqrt(d)
    center = rng.standard_normal(d)
    minimizers = center + spread * rng.standard_normal((n, d))
    offsets = np.einsum("nij,nj->ni", design, minimizers)
    problem = LeastSquaresProblem(design, offsets)
    return problem, certify_solution(problem)


def make_logistic(n: int, d: int, seed: int):
    """Generate a logistic family with its certificate.

    Rows come in pairs sharing a direction with opposite labels and
    different magnitudes; every direction therefore carries both class
    labels, the mean is coercive on the span of the design, and a finite
    minimizer exists.  An odd n gets one extra positive-label row along the
    first direction.

    Args:
        n: number of rows, >= 2 (both labels must be representable).
        d: dimension, >= 1.
        seed: 64-bit stream seed.

    Returns:
        (problem, certificate).
    """
    if n < 2:
        raise GenerationError(f"need n >= 2 so both labels occur, got n={n}")
    if d < 1:
        raise GenerationError(f"need d >= 1, got d={d}")
    _check_budget(max(n, d) * d)  # as the constructor will, before drawing the features
    rng = stream(seed, PROBLEM_STREAM)
    k = n // 2
    directions = rng.standard_normal((k, d))
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms < 1e-8):
        raise GenerationError("degenerate zero direction drawn; use another seed")
    scales = rng.uniform(0.5, 2.0, size=k)
    features = np.empty((n, d))
    labels = np.empty(n)
    features[0 : 2 * k : 2] = directions
    labels[0 : 2 * k : 2] = 1.0
    features[1 : 2 * k : 2] = scales[:, None] * directions
    labels[1 : 2 * k : 2] = -1.0
    if n % 2 == 1:
        features[-1] = rng.uniform(0.5, 2.0) * directions[0]
        labels[-1] = 1.0
    problem = LogisticProblem(features, labels)
    return problem, certify_solution(problem)


# -- serialization -----------------------------------------------------------

def _problem_doc(problem: FiniteSumProblem, convert=lambda array: array) -> dict:
    """The lastiter-problem/1 document of a problem, each defining array passed through ``convert``.

    Kept as ndarrays, the arrays are what ``write_json`` writes row by row,
    as the same bytes as their nested lists, without building those lists.
    """
    arrays = {name: convert(getattr(problem, name)) for name in problem.array_names}
    return {"schema": "lastiter-problem/1", "problem": {"kind": problem.kind, **arrays}}


def problem_to_doc(problem: FiniteSumProblem) -> dict:
    """Full-fidelity JSON document of a problem: its family tag and defining arrays."""
    return _problem_doc(problem, np.ndarray.tolist)


def problem_from_doc(doc: dict):
    """Rebuild (problem, certificate) from :func:`problem_to_doc` output.

    :func:`certify_solution` derives the certificate from the arrays, as the
    generators do; a document with any other key is refused.
    """
    if doc.get("schema") != "lastiter-problem/1":
        raise ValueError(f"unrecognized problem schema {doc.get('schema')!r}")
    body = doc["problem"]
    kind = body.get("kind")
    family = next((cls for cls in (LeastSquaresProblem, LogisticProblem) if cls.kind == kind), None)
    if family is None:
        raise ValueError(f"unrecognized problem kind {kind!r}")
    unknown = sorted((set(doc) - {"schema", "problem"}) | (set(body) - {"kind", *family.array_names}))
    if unknown:
        raise ValueError(f"unknown keys {unknown}: a problem document holds arrays only, "
                         "and certificates are derived from the arrays")
    problem = family(**{name: body[name] for name in family.array_names})
    return problem, certify_solution(problem)


def save_problem(path, problem: FiniteSumProblem):
    write_json(path, _problem_doc(problem))


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_doc(json.load(fh))
