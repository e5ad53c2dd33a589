"""Sweep n and watch small-cycle counts converge to independent Poissons.

For each n in the sweep this draws N permutations, compares the empirical
law of C_k against Poisson(theta_k / k) in total variation for k = 1..k_max,
and reports the empirical corr(C_1, C_2).  TV should shrink visibly as n
grows; the correlation should hover near 0.

Example:
    python3 scripts/count_convergence.py --weights ewens:1.5 --replicates 5000
"""

import argparse

import numpy as np

from permcycles.cycle_stats import CycleStatistics
from permcycles.gof import pearson_correlation, tv_distance
from permcycles.limit_laws import poisson_count_pmf
from permcycles.rng import RngStream
from permcycles.sampler import PermutationSampler
from permcycles.weights import norm_constants, parse_weights


def tv_against_poisson(counts, theta_k, k):
    vals, freq = np.unique(counts, return_counts=True)
    empirical = {int(v): f / counts.size for v, f in zip(vals, freq)}
    theory = {j: poisson_count_pmf(theta_k, k, j) for j in range(int(vals.max()) + 40)}
    return tv_distance(empirical, theory)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--weights", default="ewens:1.5")
    ap.add_argument("--replicates", type=int, default=5000)
    ap.add_argument("--k-max", type=int, default=3, dest="k_max")
    ap.add_argument("--sizes", default="50,200,800,2000",
                    help="comma list of permutation sizes")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ws = parse_weights(args.weights)
    sizes = [int(s) for s in args.sizes.split(",")]
    ks = list(range(1, args.k_max + 1))

    header = ["n"] + [f"TV(C_{k})" for k in ks] + ["corr(C_1,C_2)"]
    print("  ".join(f"{h:>12}" for h in header))
    for n in sizes:
        table = norm_constants(ws, n)
        sampler = PermutationSampler(ws, table)
        counts = np.empty((args.replicates, len(ks)), dtype=np.int64)
        streams = RngStream(args.seed, (0, 0)).consecutive(args.replicates)
        for i, rng in enumerate(streams):
            perm = sampler.sample(n, rng)
            st = CycleStatistics.from_permutation(perm, args.k_max)
            counts[i] = [st.counts[k] for k in ks]
        tvs = [tv_against_poisson(counts[:, j], ws.theta(k), k)
               for j, k in enumerate(ks)]
        corr = pearson_correlation(counts[:, 0], counts[:, 1])
        cells = [f"{n:>12}"] + [f"{tv:>12.4f}" for tv in tvs] + [f"{corr:>12.4f}"]
        print("  ".join(cells))


if __name__ == "__main__":
    main()
