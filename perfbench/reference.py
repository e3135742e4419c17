"""Reference computations for the benchmark's output checks.

Everything here is written from the mathematics with plain NumPy, without
calling into ``lastiter``, so a check that compares the program's output
with these values tests the program against an independent computation.

* ``lsq_certificate``: the normal-equations certificate of a uniform-weight
  least-squares family f(x) = mean_i 0.5 ||A_i x - b_i||^2.
* ``lsq_exact_gap``: the exact expected gap E f(x_T) - inf f of constant-step
  SGD with uniform size-b subsets drawn without replacement.  SGD on a
  quadratic is linear in the augmented iterate z = [x - x*; 1], so its second
  moment M = E[z z^T] follows the recursion
  M <- E[(I - gamma G_B) M (I - gamma G_B)^T] with G_B the subset mean of
  G_i = [[H_i, g_i*], [0, 0]] (Bach & Moulines, NeurIPS 2013).  The subset
  expectation needs only the single and pair inclusion probabilities b/n and
  b(b-1)/(n(n-1)).
* ``logistic_certificate``: Newton's method on the logistic mean.
* ``sqrt_c2_bound``: 17 L D^2 / sqrt(T) + 34 ln(T+1) sigma*^2 / (L sqrt(T)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Certificate:
    x_star: np.ndarray
    inf_f: float
    sigma_star_sq: float
    residual: float
    L: float


def lsq_certificate(design, offsets) -> Certificate:
    """Minimizer, optimal value, gradient second moment and max smoothness."""
    A = np.asarray(design, dtype=float)
    b = np.asarray(offsets, dtype=float)
    H = np.einsum("nmi,nmj->nij", A, A)
    c = np.einsum("nmi,nm->ni", A, b)
    x_star = np.linalg.solve(H.mean(axis=0), c.mean(axis=0))
    r = np.einsum("nmi,i->nm", A, x_star) - b
    g = np.einsum("nij,j->ni", H, x_star) - c
    return Certificate(
        x_star=x_star,
        inf_f=float(0.5 * np.mean(np.sum(r * r, axis=1))),
        sigma_star_sq=float(np.mean(np.sum(g * g, axis=1))),
        residual=float(np.linalg.norm(g.mean(axis=0))),
        L=float(np.linalg.eigvalsh(H)[:, -1].max()),
    )


def lsq_gradient_norm(design, offsets, x) -> float:
    """||grad f(x)|| of the uniform-weight least-squares mean."""
    A = np.asarray(design, dtype=float)
    r = np.einsum("nmi,i->nm", A, np.asarray(x, dtype=float)) - np.asarray(offsets, dtype=float)
    return float(np.linalg.norm(np.einsum("nmi,nm->i", A, r) / A.shape[0]))


def lsq_exact_gap(design, offsets, gamma: float, T: int, x0, batch_size: int = 1) -> float:
    """Exact E f(x_T) - inf f for SGD with uniform size-b subsets."""
    A = np.asarray(design, dtype=float)
    b = np.asarray(offsets, dtype=float)
    n, _, d = A.shape
    H = np.einsum("nmi,nmj->nij", A, A)
    c = np.einsum("nmi,nm->ni", A, b)
    h_mean = H.mean(axis=0)
    x_star = np.linalg.solve(h_mean, c.mean(axis=0))
    k = d + 1
    G = np.zeros((n, k, k))
    G[:, :d, :d] = H
    G[:, :d, d] = np.einsum("nij,j->ni", H, x_star) - c
    p1 = batch_size / n
    p2 = batch_size * (batch_size - 1) / (n * (n - 1)) if n > 1 else 0.0
    G_sum = G.sum(axis=0)
    eye = np.eye(k)
    # Row-major vec: vec(P M Q^T) = kron(P, Q) vec(M).
    pair = (p1 - p2) * np.einsum("nij,nkl->ikjl", G, G).reshape(k * k, k * k)
    pair += p2 * np.kron(G_sum, G_sum)
    G_mean = G_sum / n
    step = (
        np.eye(k * k)
        - gamma * (np.kron(G_mean, eye) + np.kron(eye, G_mean))
        + (gamma / batch_size) ** 2 * pair
    )
    z0 = np.append(np.asarray(x0, dtype=float) - x_star, 1.0)
    m = np.outer(z0, z0).ravel()
    for _ in range(int(T)):
        m = step @ m
    second = m.reshape(k, k)[:d, :d]
    return float(0.5 * np.sum(h_mean * second))


def logistic_certificate(features, labels, tol: float = 1e-13, max_iter: int = 100) -> Certificate:
    """Damped Newton's method on mean_i log(1 + exp(-y_i <a_i, x>))."""
    F = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, d = F.shape

    def objective(x):
        return float(np.mean(np.logaddexp(0.0, -y * (F @ x))))

    x = np.zeros(d)
    for _ in range(max_iter):
        s = 1.0 / (1.0 + np.exp(y * (F @ x)))  # sigmoid(-margin)
        grad = -(F * (y * s)[:, None]).mean(axis=0)
        if np.linalg.norm(grad) <= tol:
            break
        hess = (F * (s * (1.0 - s))[:, None]).T @ F / n
        direction = np.linalg.solve(hess, grad)
        t, fx = 1.0, objective(x)
        while objective(x - t * direction) > fx - 0.25 * t * (grad @ direction) and t > 1e-12:
            t *= 0.5
        x = x - t * direction
    margins = y * (F @ x)
    s = 1.0 / (1.0 + np.exp(margins))
    g = -(F * (y * s)[:, None])
    return Certificate(
        x_star=x,
        inf_f=float(np.mean(np.logaddexp(0.0, -margins))),
        sigma_star_sq=float(np.mean(np.sum(g * g, axis=1))),
        residual=float(np.linalg.norm(g.mean(axis=0))),
        L=float(0.25 * np.max(np.sum(F * F, axis=1))),
    )


def sqrt_c2_bound(L: float, D_sq: float, sigma_star_sq: float, T: int) -> float:
    """Last-iterate bound for gamma = 1 / (2 L sqrt(T))."""
    root = math.sqrt(T)
    return 17.0 * L * D_sq / root + 34.0 * math.log(T + 1.0) * sigma_star_sq / (L * root)
