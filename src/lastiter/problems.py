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

* least squares: f_i(x) = 0.5 ||A_i x - b_i||^2, certified in closed form
  through the normal equations of the mean;
* logistic: f_i(x) = log(1 + exp(-y_i <a_i, x>)), certified numerically by
  full-gradient descent.  The generator emits feature rows in +/- label
  pairs along shared directions, which makes the mean coercive on the span
  of the design and so guarantees a finite minimizer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

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
    "closed_form_certificate",
    "load_problem",
    "make_least_squares",
    "make_logistic",
    "problem_from_doc",
    "problem_to_doc",
    "save_problem",
]

# Largest generated array, in float64 entries (the per-component matrices of a
# least-squares family have n*d*d of them).
MEMORY_BUDGET_ENTRIES = 2**23

_WEIGHT_SUM_TOL = 1e-9
# Residual a closed-form certificate must reach, and the gradient-descent
# steps a numerical certificate may take to reach its own.
_CLOSED_FORM_TOL = 1e-8
_CERTIFY_ITER_CAP = 200_000


class UnsupportedSamplingError(ValueError):
    """The requested sampling combination is not defined."""


class GenerationError(ValueError):
    """A problem instance could not be built (degenerate or oversized data)."""


class CertificationError(RuntimeError):
    """Numerical certification failed; carries the best residual reached."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = float(best_residual)


@dataclass(frozen=True)
class SolutionCertificate:
    """Certified minimizer data for a finite-sum problem.

    Attributes:
        x_star: the certified minimizer.
        inf_f: objective value at ``x_star``.
        sigma_star_sq: gradient second moment sum_i w_i ||grad f_i(x*)||^2.
        grad_norm_residual: ||grad f(x_star)|| actually measured.
        provenance: "closed_form" or "numerical_solve".
        tol: the residual tolerance the certificate was held to.
    """

    x_star: np.ndarray
    inf_f: float
    sigma_star_sq: float
    grad_norm_residual: float
    provenance: str
    tol: float

    def __post_init__(self):
        if self.provenance not in ("closed_form", "numerical_solve"):
            raise ValueError(f"unknown certificate provenance {self.provenance!r}")
        if not self.grad_norm_residual <= self.tol:
            raise ValueError(
                f"certificate residual {self.grad_norm_residual:g} exceeds "
                f"its tolerance {self.tol:g}"
            )
        if self.sigma_star_sq < 0:
            raise ValueError("sigma_star_sq must be nonnegative")


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

    def component_entries(self) -> int:
        """Float64 entries the kernels hold per point and component; sizes seed blocks."""
        return self.dimension * self.dimension

    def to_doc(self) -> dict:
        """The family tag and the defining arrays as nested lists."""
        return {"kind": self.kind, **{name: getattr(self, name).tolist() for name in self.array_names}}

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
        if b.shape != (n, m):
            raise GenerationError(f"offsets must have shape ({n}, {m}), got {b.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise GenerationError("design and offsets must be finite")
        self.design = A
        self.offsets = b
        # Per-component quadratic data: gradient of f_i is H_i x - c_i.
        self._hess = np.einsum("nmi,nmj->nij", A, A)
        self._atb = np.einsum("nmi,nm->ni", A, b)
        eigs = np.linalg.eigvalsh(self._hess)
        l_components = np.maximum(eigs[:, -1], 0.0)
        w = self._weights(weights, n)
        mean_hess = np.einsum("n,nij->ij", w, self._hess)
        l_mean = float(np.linalg.eigvalsh(mean_hess)[-1])
        super().__init__(w, l_components, l_mean, d)
        self.mean_hessian = mean_hess
        self._mean_atb = w @ self._atb

    def component_values_at(self, idx, x):
        A = self.design if idx is None else self.design[idx]
        b = self.offsets if idx is None else self.offsets[idx]
        r = np.matmul(A, x[..., None, :, None])[..., 0] - b
        return 0.5 * np.einsum("...nm,...nm->...n", r, r)

    def component_grads_at(self, idx, x):
        H = self._hess if idx is None else self._hess[idx]
        c = self._atb if idx is None else self._atb[idx]
        return np.matmul(H, x[..., None, :, None])[..., 0] - c

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
        l_mean = float(0.25 * np.linalg.eigvalsh(gram)[-1])
        super().__init__(w, l_components, l_mean, d)

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

    def component_entries(self):
        return self.dimension


# -- certification ---------------------------------------------------------


def closed_form_certificate(problem: LeastSquaresProblem) -> SolutionCertificate:
    """Certificate from the normal equations of the weighted mean.

    Rejects a singular mean Hessian instead of returning a spurious solve.
    """
    if not isinstance(problem, LeastSquaresProblem):
        raise TypeError("closed-form certification only applies to least squares")
    eigs = np.linalg.eigvalsh(problem.mean_hessian)
    if eigs[-1] <= 0 or eigs[0] <= 1e-12 * eigs[-1]:
        raise GenerationError(
            "mean Hessian is numerically singular "
            f"(eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]); "
            "the mean has no unique minimizer"
        )
    x_star = np.linalg.solve(problem.mean_hessian, problem._mean_atb)
    residual = float(np.linalg.norm(problem.grad(x_star)))
    if residual > _CLOSED_FORM_TOL:
        raise GenerationError(
            f"normal-equations residual {residual:.3e} exceeds tol {_CLOSED_FORM_TOL:.3e}; "
            "the instance is too ill-conditioned to certify in closed form"
        )
    return SolutionCertificate(
        x_star=x_star,
        inf_f=problem.value(x_star),
        sigma_star_sq=problem.second_moment(x_star),
        grad_norm_residual=residual,
        provenance="closed_form",
        tol=_CLOSED_FORM_TOL,
    )


def certify_solution(problem: FiniteSumProblem, tol: float = 1e-10) -> SolutionCertificate:
    """Certify a minimizer numerically by full-gradient descent from the origin.

    Runs deterministic gradient descent with step 1/L_f and a halving
    fallback whenever the smooth-descent test fails.

    Raises:
        CertificationError: the residual tolerance was not reached within
            ``_CERTIFY_ITER_CAP`` iterations, or halving the step 200 times
            did not pass the descent test; carries the best residual seen.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = np.zeros(problem.dimension)
    fx = problem.value(x)
    g = problem.grad(x)
    gg = float(g @ g)
    residual = float(np.sqrt(gg))
    best = residual
    step = 1.0 / problem.L_f
    iterations = 0
    while residual > tol:
        if iterations >= _CERTIFY_ITER_CAP:
            raise CertificationError(
                f"certification did not reach tol {tol:g} in {_CERTIFY_ITER_CAP} "
                f"iterations (best residual {best:g})",
                best_residual=best,
            )
        for _ in range(200):
            x_next = x - step * g
            f_next = problem.value(x_next)
            # Smooth-descent test with float-noise slack; for a correct L_f
            # the first candidate always passes.
            if f_next <= fx - 0.5 * step * gg + 8e-16 * max(1.0, abs(fx)):
                break
            step *= 0.5
        else:
            raise CertificationError(
                f"backtracking stalled at residual {residual:g}", best_residual=best
            )
        x = x_next
        fx = f_next
        g = problem.grad(x)
        gg = float(g @ g)
        residual = float(np.sqrt(gg))
        best = min(best, residual)
        iterations += 1
    return SolutionCertificate(
        x_star=x,
        inf_f=fx,
        sigma_star_sq=problem.second_moment(x),
        grad_norm_residual=residual,
        provenance="numerical_solve",
        tol=float(tol),
    )


# -- generators -------------------------------------------------------------


def _check_budget(entries: int):
    if entries > MEMORY_BUDGET_ENTRIES:
        raise GenerationError(
            f"instance needs {entries} float64 entries, over the "
            f"{MEMORY_BUDGET_ENTRIES} budget"
        )


def make_least_squares(n: int, d: int, spread: float, seed: int):
    """Generate a least-squares family with a closed-form certificate.

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
        (problem, certificate) with ``closed_form`` provenance.
    """
    if n < 1 or d < 1:
        raise GenerationError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    spread = float(spread)
    if not (np.isfinite(spread) and spread >= 0):
        raise GenerationError(f"spread must be finite and >= 0, got {spread!r}")
    _check_budget(n * d * d)
    rng = stream(seed, PROBLEM_STREAM)
    design = rng.standard_normal((n, d, d)) / np.sqrt(d)
    center = rng.standard_normal(d)
    minimizers = center + spread * rng.standard_normal((n, d))
    offsets = np.einsum("nij,nj->ni", design, minimizers)
    problem = LeastSquaresProblem(design, offsets)
    return problem, closed_form_certificate(problem)


def make_logistic(n: int, d: int, seed: int, tol: float = 1e-10):
    """Generate a logistic family with a numerically certified minimizer.

    Rows come in pairs sharing a direction with opposite labels and
    different magnitudes; every direction therefore carries both class
    labels, the mean is coercive on the span of the design, and a finite
    minimizer exists.  An odd n gets one extra positive-label row along the
    first direction.

    Args:
        n: number of rows, >= 2 (both labels must be representable).
        d: dimension, >= 1.
        seed: 64-bit stream seed.
        tol: gradient-norm tolerance for certification.

    Returns:
        (problem, certificate) with ``numerical_solve`` provenance.
    """
    if n < 2:
        raise GenerationError(f"need n >= 2 so both labels occur, got n={n}")
    if d < 1:
        raise GenerationError(f"need d >= 1, got d={d}")
    _check_budget(n * d)
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
    return problem, certify_solution(problem, tol=tol)


# -- serialization -----------------------------------------------------------

def problem_to_doc(problem: FiniteSumProblem, certificate: SolutionCertificate | None = None) -> dict:
    """Full-fidelity JSON document for a problem and optional certificate."""
    doc = {"schema": "lastiter-problem/1", "problem": problem.to_doc()}
    if certificate is not None:
        values = {f.name: getattr(certificate, f.name) for f in fields(SolutionCertificate)}
        doc["certificate"] = {**values, "x_star": certificate.x_star.tolist()}
    return doc


def problem_from_doc(doc: dict):
    """Rebuild (problem, certificate) from :func:`problem_to_doc` output.

    The certificate slot is ``None`` when the document has none.
    """
    if doc.get("schema") != "lastiter-problem/1":
        raise ValueError(f"unrecognized problem schema {doc.get('schema')!r}")
    body = doc["problem"]
    kind = body.get("kind")
    family = next((cls for cls in (LeastSquaresProblem, LogisticProblem) if cls.kind == kind), None)
    if family is None:
        raise ValueError(f"unrecognized problem kind {kind!r}")
    problem = family(**{name: body[name] for name in family.array_names})
    cert = None
    if "certificate" in doc:
        c = doc["certificate"]
        # every field is a float but the minimizer and the provenance
        cast = {"x_star": lambda v: np.asarray(v, dtype=float), "provenance": lambda v: v}
        cert = SolutionCertificate(**{f.name: cast.get(f.name, float)(c[f.name])
                                      for f in fields(SolutionCertificate)})
    return problem, cert


def save_problem(path, problem: FiniteSumProblem, certificate: SolutionCertificate | None = None):
    write_json(path, problem_to_doc(problem, certificate))


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_doc(json.load(fh))
