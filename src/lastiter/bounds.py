"""Closed-form last-iterate gap bounds and their supporting constants.

For SGD with constant step gamma on an L-smooth convex finite sum started a
squared distance D_sq from a minimizer, the expected final gap
E[f(x_T) - inf f] obeys

    T**phi * ( 2 D_sq / (gamma (1 - gamma L) T)
               + 8 gamma ln(T+1) sigma*^2 / (1 - gamma L)**2 )

with phi = 2 gamma L / (1 + gamma L), valid for gamma L in (0, 1) and
T >= 3, where sigma*^2 is the gradient second moment at the solution.
Specializing gamma = 1 / (C L T**beta) gives explicit-constant horizon
bounds, and the square-root case beta = 1/2 has its own sharper constants.

The module also exposes the machinery those bounds are assembled from: the
one-step energy coefficients, the tilted averaging weight sequence and the
residuals of its defining relation, effective mini-batch constants, and the
sample-complexity horizon.  Inputs outside a statement's hypotheses
raise HypothesisError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .problems import FiniteSumProblem, SolutionCertificate, UnsupportedSamplingError
from .rng import _as_integer
from .sgd import StepSizeSchedule, PolynomialStep, resolve_schedule, schedule_to_doc

__all__ = [
    "AbcConstants",
    "BoundReport",
    "EffectiveConstants",
    "HypothesisError",
    "PolyBound",
    "WeightSequence",
    "abc_constants",
    "build_bound_report",
    "complexity_horizon",
    "effective_constants",
    "last_iterate_bound",
    "phi",
    "polynomial_step_bound",
    "sqrt_step_bound",
    "sqrt_step_bound_c2",
    "weight_sequence",
]


class HypothesisError(ValueError):
    """Inputs violate the hypothesis under which a statement is claimed."""


def _require(condition: bool, message: str):
    if not condition:
        raise HypothesisError(message)


def _as_horizon(T, minimum: int) -> int:
    try:
        t = _as_integer(T, "T", HypothesisError)
        float(t)
    except OverflowError:
        raise HypothesisError("T must fit the float range") from None
    _require(t >= minimum, f"T must be >= {minimum}, got {t}")
    return t


def _check_constants(L=None, D_sq=None, sigma_star_sq=None):
    """Reject a non-finite or out-of-range bound constant; None skips a check."""
    if L is not None:
        _require(np.isfinite(L) and L > 0, f"smoothness constant must be positive, got {L!r}")
    if D_sq is not None:
        _require(np.isfinite(D_sq) and D_sq >= 0, f"D_sq must be >= 0, got {D_sq!r}")
    if sigma_star_sq is not None:
        _require(
            np.isfinite(sigma_star_sq) and sigma_star_sq >= 0,
            f"sigma_star_sq must be >= 0, got {sigma_star_sq!r}",
        )


def _check_scale(gamma: float, L: float):
    _require(np.isfinite(gamma) and gamma > 0, f"gamma must be positive, got {gamma!r}")
    _check_constants(L=L)
    gl = gamma * L
    _require(0 < gl < 1, f"gamma * L = {gl!r} must lie strictly inside (0, 1)")
    return gl


def phi(gamma: float, L: float) -> float:
    """Tilting exponent 2 gamma L / (1 + gamma L), in (0, 1)."""
    gl = _check_scale(gamma, L)
    return 2.0 * gl / (1.0 + gl)


@dataclass(frozen=True)
class AbcConstants:
    """Coefficients of the one-step energy inequality.

    With eps = (1 - gamma L) / (1 + gamma L) the triple is a = eps, b = -1,
    c = gamma L (1 + eps), which sums to zero, and the additive noise term
    is v = gamma sigma*^2 / (1 - gamma L).
    """

    a: float
    b: float
    c: float
    v: float

    @property
    def ratio_ab(self) -> float:
        return self.a / self.b

    @property
    def phi(self) -> float:
        return 1.0 + self.a / self.b


def abc_constants(gamma: float, L: float, sigma_star_sq: float) -> AbcConstants:
    """One-step energy coefficients for step gamma on an L-smooth family."""
    gl = _check_scale(gamma, L)
    _check_constants(sigma_star_sq=sigma_star_sq)
    eps = (1.0 - gl) / (1.0 + gl)
    return AbcConstants(
        a=eps,
        b=-1.0,
        c=gl * (1.0 + eps),
        v=gamma * sigma_star_sq / (1.0 - gl),
    )


@dataclass(frozen=True)
class WeightSequence:
    """Tilted averaging weights alpha_{-1..T} for a horizon T.

    ``alphas[..., k]`` stores alpha_{k-1}: alpha_{-1} = 1, then
    alpha_t = alpha_{t-1} (T - t + 1) / (T - t + 1 + ratio_ab) for
    t = 0..T-1, and alpha_T repeats alpha_{T-1}.  The growth exponent is
    phi = 1 + ratio_ab.  Built from a 1-D array of ratios, ``alphas`` holds
    one row per ratio, and every method works row by row on the last axis.
    """

    T: int
    ratio_ab: float | np.ndarray
    alphas: np.ndarray

    @property
    def phi(self) -> float | np.ndarray:
        return 1.0 + self.ratio_ab

    def alpha(self, t: int) -> float | np.ndarray:
        if not -1 <= t <= self.T:
            raise IndexError(f"t must lie in [-1, {self.T}], got {t}")
        value = self.alphas[..., t + 1]
        return float(value) if value.ndim == 0 else value

    def defining_residuals(self) -> np.ndarray:
        """Relative residuals of a alpha_t = -b (alpha_t - alpha_{t-1})(T-t+1).

        Uses the canonical normalization b = -1, a = -ratio_ab, and measures
        backward error: the relation is expanded to
        alpha_t (T-t+1) - alpha_{t-1} (T-t+1) - a alpha_t = 0 and the
        residual is taken relative to the largest addend.  Normalizing by
        the subtracted difference instead would charge the weights for
        cancellation the recursion never performs.
        """
        a = -np.asarray(self.ratio_ab)[..., None]
        t = np.arange(self.T, dtype=float)
        count = self.T - t + 1.0
        term_new = self.alphas[..., 1 : self.T + 1] * count
        term_old = self.alphas[..., 0 : self.T] * count
        term_step = a * self.alphas[..., 1 : self.T + 1]
        residual = np.abs(term_new - term_old - term_step)
        scale = np.maximum(
            np.maximum(np.abs(term_new), np.abs(term_old)),
            np.maximum(np.abs(term_step), np.finfo(float).tiny),
        )
        return residual / scale


def weight_sequence(T, ratio_ab) -> WeightSequence:
    """Build the averaging weight sequence for horizon T and ratio a/b.

    ratio_ab must lie in [-1, 0]; the endpoints give the arithmetic-mean
    regime (phi = 0) and the uniform regime (phi = 1, all weights equal).
    A 1-D array of ratios builds one row of weights per ratio, each equal
    bit for bit to the sequence of that ratio alone.
    """
    T = _as_horizon(T, 1)
    ratios = np.array(ratio_ab, dtype=float)
    if ratios.ndim > 1:
        raise HypothesisError(f"ratio_ab must be a scalar or a 1-D array, got shape {ratios.shape}")
    # NaN fails both comparisons; the message is built only on failure
    if not ((ratios >= -1.0) & (ratios <= 0.0)).all():
        raise HypothesisError(f"ratio_ab must lie in [-1, 0], got {ratio_ab!r}")
    t = np.arange(T, dtype=float)
    count = T - t + 1.0
    core = np.cumprod(count / (count + ratios[..., None]), axis=-1)
    alphas = np.empty(ratios.shape + (T + 2,))
    alphas[..., 0] = 1.0
    alphas[..., 1 : T + 1] = core
    alphas[..., T + 1] = core[..., -1]
    return WeightSequence(T=T, ratio_ab=float(ratios) if ratios.ndim == 0 else ratios, alphas=alphas)


def last_iterate_bound(gamma: float, L: float, D_sq: float, sigma_star_sq: float, T) -> float:
    """Expected final-gap bound for constant step gamma with gamma L in (0, 1).

    Args:
        gamma: step size.
        L: max component smoothness.
        D_sq: squared distance from x0 to the certified minimizer.
        sigma_star_sq: gradient second moment at the minimizer.
        T: horizon, integer >= 3.
    """
    T = _as_horizon(T, 3)
    gl = _check_scale(gamma, L)
    _check_constants(D_sq=D_sq, sigma_star_sq=sigma_star_sq)
    shrink = 1.0 - gl
    tilt = float(T) ** phi(gamma, L)
    bias = 2.0 * D_sq / (gamma * shrink * T)
    noise = 8.0 * gamma * math.log(T + 1.0) * sigma_star_sq / (shrink * shrink)
    return tilt * (bias + noise)


@dataclass(frozen=True)
class PolyBound:
    """Explicit-constant horizon bound and its tilt constant B."""

    value: float
    B: float


def polynomial_step_bound(C: float, beta: float, L: float, D_sq: float, sigma_star_sq: float, T) -> PolyBound:
    """Explicit bound for the resolved step gamma = 1 / (C L T**beta).

    Valid for C >= 2, beta in (0, 1), T >= 3.  The tilt factor
    B = exp(2 / (e beta C)) absorbs T**phi.
    """
    T = _as_horizon(T, 3)
    _require(np.isfinite(C) and C >= 2, f"C must be >= 2, got {C!r}")
    _require(np.isfinite(beta) and 0 < beta < 1, f"beta must lie in (0, 1), got {beta!r}")
    _check_constants(L=L, D_sq=D_sq, sigma_star_sq=sigma_star_sq)
    B = math.exp(2.0 / (math.e * beta * C))
    bias = 4.0 * B * C * L * D_sq / float(T) ** (1.0 - beta)
    noise = 32.0 * B * math.log(T + 1.0) * sigma_star_sq / (C * L * float(T) ** beta)
    return PolyBound(value=bias + noise, B=B)


def sqrt_step_bound(C: float, L: float, D_sq: float, sigma_star_sq: float, T) -> float:
    """Explicit bound for gamma = 1 / (C L sqrt(T)), any C >= 2."""
    T = _as_horizon(T, 3)
    _require(np.isfinite(C) and C >= 2, f"C must be >= 2, got {C!r}")
    _check_constants(L=L, D_sq=D_sq, sigma_star_sq=sigma_star_sq)
    root = math.sqrt(T)
    return 9.0 * C * L * D_sq / root + 67.0 * math.log(T + 1.0) * sigma_star_sq / (C * L * root)


def sqrt_step_bound_c2(L: float, D_sq: float, sigma_star_sq: float, T) -> float:
    """Specialized constants for gamma = 1 / (2 L sqrt(T))."""
    T = _as_horizon(T, 3)
    _check_constants(L=L, D_sq=D_sq, sigma_star_sq=sigma_star_sq)
    root = math.sqrt(T)
    return 17.0 * L * D_sq / root + 34.0 * math.log(T + 1.0) * sigma_star_sq / (L * root)


def complexity_horizon(epsilon: float, L: float, D_sq: float, sigma_star_sq: float) -> int:
    """Minimal horizon T >= 3 with T >= (K / epsilon)**2 (1 + ln(T+1))**2.

    K = max(18 L D_sq, 67 sigma*^2 / (2 L)) matches the sqrt-step bound with
    C = 2 up to its log factor, so running this many steps drives the
    bound below epsilon.  The right side grows with T, so replacing T by
    its ceiling, from T = 3, climbs to the minimal T and never past it.
    ln(T+1) is taken to 60 digits, so the answer is exact and does not
    depend on the platform's log.
    """
    import decimal  # here, so the commands that never call this skip its import

    _require(np.isfinite(epsilon) and epsilon > 0, f"epsilon must be positive, got {epsilon!r}")
    _check_constants(L=L, D_sq=D_sq, sigma_star_sq=sigma_star_sq)
    K = max(18.0 * L * D_sq, 67.0 * sigma_star_sq / (2.0 * L))
    T = 3
    with decimal.localcontext(decimal.Context(prec=60)):
        target = decimal.Decimal(K / epsilon) ** 2
        while (need := target * (1 + decimal.Decimal(T + 1).ln()) ** 2) > T:
            if need > 2**62:
                raise HypothesisError("complexity horizon exceeds 2**62 steps; lower the accuracy demand")
            T = math.ceil(need)
    return T


@dataclass(frozen=True)
class EffectiveConstants:
    """Smoothness and solution-variance constants for batch size b."""

    L_b: float
    sigma_b_sq: float


def effective_constants(problem: FiniteSumProblem, b: int, cert: SolutionCertificate) -> EffectiveConstants:
    """Constants (L_b, sigma_b^2) the bounds take for batch size b.

    L_b is ``problem.batch_smoothness(b)``.  The solution variance scales
    like the variance of a without-replacement sample mean,
    sigma_b^2 = (n-b)/(b(n-1)) sigma*^2, hitting sigma*^2 at b = 1 and 0 at
    b = n.

    Raises:
        UnsupportedSamplingError: b is not a defined sampling mode for the
            problem (see ``batch_smoothness``), or not an integer.
    """
    b = _as_integer(b, "b", UnsupportedSamplingError)
    l_b = problem.batch_smoothness(b)
    sigma_b = cert.sigma_star_sq
    if b > 1:
        n = problem.n
        sigma_b = (n - b) / (b * (n - 1)) * sigma_b
    return EffectiveConstants(L_b=float(l_b), sigma_b_sq=float(sigma_b))


# Every bound a report can carry, in report and table order.
_BOUND_NAMES = ("generic", "polynomial", "sqrt_general", "sqrt_c2")


@dataclass(frozen=True)
class BoundReport:
    """Every bound that applies to one (schedule, problem constants, T) setup."""

    T: int
    gamma: float
    L: float
    D_sq: float
    sigma_star_sq: float
    phi: float
    generic: float
    schedule_variant: str
    C: float | None = None
    beta: float | None = None
    B: float | None = None
    polynomial: float | None = None
    sqrt_general: float | None = None
    sqrt_c2: float | None = None

    def applicable(self) -> dict:
        """Bounds that hold for this setup, keyed by name in ``_BOUND_NAMES`` order."""
        values = {name: getattr(self, name) for name in _BOUND_NAMES}
        return {name: value for name, value in values.items() if value is not None}

    def tightest(self) -> float:
        """Smallest applicable bound.

        Raises:
            HypothesisError: an applicable bound is not finite, so the report
                makes no claim.
        """
        values = self.applicable().values()
        for value in values:
            _require(np.isfinite(value), f"bound must be finite, got {value!r}")
        return min(values)

    def to_doc(self) -> dict:
        return asdict(self)


def build_bound_report(
    schedule: StepSizeSchedule,
    L: float,
    D_sq: float,
    sigma_star_sq: float,
    T,
) -> BoundReport:
    """Resolve a schedule and evaluate every bound that applies to it."""
    T = _as_horizon(T, 3)
    gamma = resolve_schedule(schedule, L, T)
    doc = schedule_to_doc(schedule)
    generic = last_iterate_bound(gamma, L, D_sq, sigma_star_sq, T)
    report = {
        "T": T,
        "gamma": gamma,
        "L": L,
        "D_sq": D_sq,
        "sigma_star_sq": sigma_star_sq,
        "phi": phi(gamma, L),
        "generic": generic,
        "schedule_variant": doc["variant"],
    }
    if isinstance(schedule, PolynomialStep):
        poly = polynomial_step_bound(schedule.C, schedule.beta, L, D_sq, sigma_star_sq, T)
        report.update(C=schedule.C, beta=schedule.beta, B=poly.B, polynomial=poly.value)
        if schedule.beta == 0.5:
            report["sqrt_general"] = sqrt_step_bound(schedule.C, L, D_sq, sigma_star_sq, T)
            if schedule.C == 2.0:
                report["sqrt_c2"] = sqrt_step_bound_c2(L, D_sq, sigma_star_sq, T)
    return BoundReport(**report)
