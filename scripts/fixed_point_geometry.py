"""Fixed-point geometry vs the limiting laws, across a sweep of n.

Draws N permutations per size, scales the smallest/largest fixed point and
the extreme spacings by n, and prints KS distances against the limiting
CDFs (exponential-type laws for m and M, the Poisson mixture for the
spacings).  Draws with no fixed point report the boundary conventions;
those fold onto the laws' atoms, which is why the KS columns keep
shrinking instead of saturating.

Example:
    python3 scripts/fixed_point_geometry.py --theta 1 --replicates 4000
"""

import argparse

import numpy as np

from permcycles.cycle_stats import CycleStatistics
from permcycles.gof import ks_two_sample
from permcycles.limit_laws import law_atoms, limit_cdf, sample_limit_spacings
from permcycles.rng import RngStream
from permcycles.sampler import PermutationSampler
from permcycles.weights import norm_constants, parse_weights


def ks_vs_cdf(samples, cdf, atoms):
    """sup |F_N - F| handling the laws' boundary atoms exactly."""
    xs = np.sort(np.asarray(samples, dtype=float))
    cand = np.unique(np.concatenate([xs, np.array(sorted(atoms))]))
    f_right = np.array([cdf(float(v)) for v in cand])
    f_left = f_right - np.array([atoms.get(float(v), 0.0) for v in cand])
    emp_right = np.searchsorted(xs, cand, side="right") / xs.size
    emp_left = np.searchsorted(xs, cand, side="left") / xs.size
    return float(max(np.abs(emp_right - f_right).max(),
                     np.abs(emp_left - f_left).max()))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta", type=float, default=1.0)
    ap.add_argument("--replicates", type=int, default=4000)
    ap.add_argument("--sizes", default="100,400,1600")
    ap.add_argument("--mixture-draws", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ws = parse_weights(f"ewens:{args.theta}")
    mix_delta, mix_big = sample_limit_spacings(
        args.theta, RngStream(args.seed, (2, 0)), size=args.mixture_draws)

    print(f"{'n':>6}  {'KS(m/n)':>9}  {'KS(M/n)':>9}  {'KS(delta)':>9}  {'KS(Delta)':>9}")
    for n in (int(s) for s in args.sizes.split(",")):
        table = norm_constants(ws, n)
        sampler = PermutationSampler(ws, table)
        m = np.empty(args.replicates)
        big_m = np.empty(args.replicates)
        delta = np.empty(args.replicates)
        big_delta = np.empty(args.replicates)
        streams = RngStream(args.seed, (0, 0)).consecutive(args.replicates)
        for i, rng in enumerate(streams):
            perm = sampler.sample(n, rng)
            fx = CycleStatistics.from_permutation(perm, 1).fixed
            m[i], big_m[i] = fx.min_point / n, fx.max_point / n
            delta[i], big_delta[i] = fx.min_spacing / n, fx.max_spacing / n
        # the no-fixed-point convention reports (n+1)/n; its limit lives at 1
        for arr in (m, delta, big_delta):
            np.minimum(arr, 1.0, out=arr)
        ks_m = ks_vs_cdf(m, limit_cdf("m", args.theta), law_atoms("m", args.theta))
        ks_big = ks_vs_cdf(big_m, limit_cdf("M", args.theta), law_atoms("M", args.theta))
        ks_d = ks_two_sample(delta, mix_delta)
        ks_dd = ks_two_sample(big_delta, mix_big)
        print(f"{n:>6}  {ks_m:>9.4f}  {ks_big:>9.4f}  {ks_d:>9.4f}  {ks_dd:>9.4f}")


if __name__ == "__main__":
    main()
