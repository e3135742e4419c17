"""Build finite-sum problems and inspect their solution certificates.

Generates a least-squares family that is noisy at its minimizer, a spread-0
least-squares family that interpolates (every component is minimized at x*),
both certified in closed form, and a logistic family certified by the
iterative solver, then round-trips two of them through a JSON file in a
temporary directory that is removed afterwards.  A file holds the arrays
only; loading it certifies the family again, and the re-derived certificate
is the generator's bit for bit.
"""

import argparse
import os
import tempfile

import numpy as np

import lastiter as li


def describe(name, problem, cert):
    print(f"{name}:")
    print(f"  n={problem.n} d={problem.dimension}")
    print(f"  L (max component smoothness)   = {problem.L:.6f}")
    print(f"  L_f (mean-function smoothness) = {problem.L_f:.6f}")
    print(f"  x*                             = {np.array2string(cert.x_star, precision=4)}")
    print(f"  inf f                          = {cert.inf_f:.6e}")
    print(f"  sigma*^2 at x*                 = {cert.sigma_star_sq:.6e}")
    print(f"  grad residual / provenance     = {cert.grad_norm_residual:.2e} / {cert.provenance}")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    problem, cert = li.make_least_squares(n=12, d=4, spread=1.5, seed=args.seed)
    describe("least squares, spread 1.5 (noisy at x*)", problem, cert)

    interp, interp_cert = li.make_least_squares(n=12, d=4, spread=0.0, seed=args.seed)
    describe("least squares, spread 0 (interpolation)", interp, interp_cert)

    logi, logi_cert = li.make_logistic(n=10, d=3, seed=args.seed + 1)
    describe("logistic, separable with paired opposite labels", logi, logi_cert)

    # one component's oracle agrees with a finite difference
    three = np.array([3])
    x = np.full(problem.dimension, 0.25)
    h = 1e-6
    e0 = np.zeros(problem.dimension)
    e0[0] = h
    fd = (problem.component_values_at(three, x + e0)[0]
          - problem.component_values_at(three, x - e0)[0]) / (2 * h)
    grad = problem.component_grads_at(three, x)[0]
    print(f"component 3 grad[0] = {grad[0]:.8f}, finite diff = {fd:.8f}")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        for name, family, family_cert in (("least squares", problem, cert), ("logistic", logi, logi_cert)):
            li.save_problem(path, family)
            loaded, loaded_cert = li.load_problem(path)
            point = np.full(family.dimension, 0.25)
            same = np.array_equal(loaded.grad(point), family.grad(point))
            same_cert = (loaded_cert.x_star.tobytes() == family_cert.x_star.tobytes()
                         and loaded_cert.inf_f == family_cert.inf_f
                         and loaded_cert.sigma_star_sq == family_cert.sigma_star_sq)
            print(f"JSON round trip, {name}: gradients bitwise {same}, "
                  f"reloaded certificate equals the generator's {same_cert}")


if __name__ == "__main__":
    main()
