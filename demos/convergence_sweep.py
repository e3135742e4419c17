"""Estimate last-iterate gaps across horizons and compare them to the bounds.

Sweeps T for a noisy least-squares family under the 1/(2 L sqrt(T)) step,
prints each Monte Carlo estimate next to the generic and closed-form
bounds, and fits the empirical log-log decay slope.
"""

import argparse

import numpy as np

import lastiter as li


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=400)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    problem, cert = li.make_least_squares(n=10, d=2, spread=1.0, seed=101)
    x0 = li.resolve_x0({"policy": "offset", "distance": 1.0, "seed": 5}, problem, cert)

    entries = [("ls-noisy", problem, cert, x0)]
    schedule = li.PolynomialStep(C=2.0, beta=0.5)
    T_grid = (50, 100, 200, 400, 800, 1600)
    rows = li.sweep(entries, T_grid, [schedule], [1], args.seeds, base_seed=0,
                    workers=args.workers)

    print(f"{'T':>6} {'mean gap':>12} {'ci95 upper':>12} {'generic':>12} {'sqrt_c2':>12} {'ok':>3}")
    for row in rows:
        print(
            f"{row.T:>6} {row.mean_gap:>12.3e} {row.ci95_upper:>12.3e} "
            f"{row.theorem1_bound:>12.3e} {row.corollary_bound:>12.3e} "
            f"{'yes' if row.satisfied else 'NO':>3}"
        )

    logs = np.array([[np.log10(r.T), np.log10(r.mean_gap)] for r in rows])
    slope = np.polyfit(logs[:, 0], logs[:, 1], 1)[0]
    print(f"\nempirical log-log slope of the mean gap: {slope:.3f}")
    print("(the sqrt-step theory predicts roughly -0.5 up to the log factor)")

    # mini-batching: same horizon, growing batch; the engine steps at 1/(2 L_b sqrt(T))
    print("\nbatch size effects at T=200:")
    for b in (1, 2, 5, 10):
        check = li.check_cell(problem, cert, x0, 200, schedule, b, n_seeds=args.seeds,
                              base_seed=0, workers=args.workers)
        bounds = check.bounds
        print(
            f"  b={b:>2}  L_b={bounds.L:8.4f}  sigma_b^2={bounds.sigma_star_sq:8.4f}  "
            f"mean gap={check.estimate.mean_gap:.3e}  bound={check.bound_value:.3e}  "
            f"{'ok' if check.satisfied else 'VIOLATED'}"
        )


if __name__ == "__main__":
    main()
