"""Avoidance probabilities of the scaled cycle process on a box union.

Three channels for P(no scaled cycle lands in U):
  exact-n   empirical frequency over sampled permutations,
  limit     the closed form exp(-lambda(U)),
  poisson   a Monte Carlo over the limiting Poisson process itself.

Example:
    python3 scripts/avoidance_demo.py \
        --boxes "box:k=1;0,0.5;box:k=2;0,1;0.5,1" --n 500 --replicates 4000
"""

import argparse
import math

from permcycles.point_process import (
    avoidance_limit,
    count_in,
    intensity,
    limit_block_counts,
    parse_boxes,
    point_measure,
)
from permcycles.rng import RngStream
from permcycles.sampler import PermutationSampler
from permcycles.weights import norm_constants, parse_weights

BLOCK = 4096  # limit-process draws per random stream


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--weights", default="uniform")
    ap.add_argument("--boxes", default="box:k=1;0,0.5;box:k=2;0,1;0.5,1")
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--replicates", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ws = parse_weights(args.weights)
    union = parse_boxes(args.boxes)
    lam = intensity(ws, union)
    limit = avoidance_limit(ws, union)
    print(f"union intensity lambda(U) = {lam:.6f}")
    print(f"limit avoidance  e^-lambda = {limit:.6f}")

    table = norm_constants(ws, args.n)
    sampler = PermutationSampler(ws, table)
    avoided = 0
    for i in range(args.replicates):
        perm = sampler.sample(args.n, RngStream(args.seed, (0, i)))
        avoided += count_in(point_measure(perm), union) == 0
    p_emp = avoided / args.replicates
    se = math.sqrt(p_emp * (1 - p_emp) / args.replicates)
    print(f"empirical at n={args.n}:  {p_emp:.6f}  (se {se:.6f}, "
          f"deviation {abs(p_emp - limit):.6f})")

    k_cap = max(union.levels(), default=1)
    avoided = 0
    for b, start in enumerate(range(0, args.replicates, BLOCK)):
        draws = min(BLOCK, args.replicates - start)
        counts = limit_block_counts(ws, k_cap, union, draws, RngStream(args.seed, (1, b)))
        avoided += int((counts == 0).sum())
    q_hat = avoided / args.replicates
    se = math.sqrt(q_hat * (1 - q_hat) / args.replicates)
    print(f"poisson simulator:       {q_hat:.6f}  (se {se:.6f}, "
          f"deviation {abs(q_hat - limit):.6f})")


if __name__ == "__main__":
    main()
