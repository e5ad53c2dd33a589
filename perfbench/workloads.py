"""The four benchmark workloads and the configs generated from a seed.

Each workload fixes the shape of one ``permcycles experiment`` config.  The
benchmark seed only chooses the config's own ``seed`` for every repetition,
so the program sees nothing but an ordinary config file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Twelve overlapping level-3 boxes make ``intensity`` run 2**12 - 1
# inclusion-exclusion terms; the level-1 and level-2 boxes put points of
# every cycle length up to 3 into play.  The union has intensity ~0.379.
_LEVEL3_BOXES = ";".join(
    f"box:k=3;{0.02 * a:.2f},{0.5 + 0.02 * a:.2f};"
    f"{0.03 * a:.2f},{0.6 + 0.02 * a:.2f};"
    f"{0.01 * a:.2f},{0.7 + 0.01 * a:.2f}"
    for a in range(12)
)
AVOIDANCE_BOXES = _LEVEL3_BOXES + ";box:k=1;0,0.1;box:k=2;0.5,1;0,0.5"


@dataclass(frozen=True)
class Workload:
    name: str
    shape: dict
    workers: int
    main_layers: tuple[str, ...]
    minor_layers: tuple[str, ...]
    why: str

    @property
    def replicates(self) -> int:
        return int(self.shape["replicates"])

    def other_workers(self) -> int:
        return 1 if self.workers == 2 else 2

    def config_seeds(self, seed: int, count: int) -> list[int]:
        """Experiment seeds for ``count`` repetitions, fixed by the bench seed."""
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(2**31) for _ in range(count)]

    def config_text(self, config_seed: int, workers: int) -> str:
        fields = dict(self.shape, seed=config_seed, workers=workers)
        return "".join(f"{key} = {value}\n" for key, value in fields.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="counts_n5",
            shape=dict(kind="counts", weights="ewens:1.5", n=5, k_max=3,
                       compare="oracle", replicates=20000),
            workers=1,
            main_layers=("rng", "sampler", "harness", "oracle"),
            minor_layers=("weights", "point_process", "limit_laws"),
            why="Per-replicate overhead dominates: building the RngStream and "
            "calling sample cost tens of microseconds each while the table costs "
            "nothing. This is the traffic of the slow oracle-exactness tests and "
            "the target of ROADMAP item 3.",
        ),
        Workload(
            name="counts_n20k",
            shape=dict(kind="counts", weights="poly:1,0.5", n=20000, k_max=3,
                       replicates=60),
            workers=2,
            main_layers=("weights", "sampler"),
            minor_layers=("rng", "oracle", "point_process"),
            why="norm_constants costs seconds per worker, placement ~20 ms per "
            "draw and the _cum cache grows by megabytes per draw. Shows the work "
            "of ROADMAP item 2: the array sampler, the parent-built table, and "
            "bounded memory.",
        ),
        Workload(
            name="spacing_cdf_n1k",
            shape=dict(kind="cdf", weights="uniform", statistic="delta", n=1000,
                       replicates=4000, mixture_draws=20000),
            workers=2,
            main_layers=("sampler", "cycle_stats", "gof", "limit_laws"),
            minor_layers=("weights", "point_process"),
            why="The only workload whose statistic reads element positions. It "
            "uses the sampler differently from the counts workloads, so a "
            "lengths-only fast path that slows placement shows here.",
        ),
        Workload(
            name="avoidance_k3",
            shape=dict(kind="avoidance", weights="ewens:1.5", n=1000,
                       replicates=1000, limit_draws=20000, boxes=AVOIDANCE_BOXES),
            workers=1,
            main_layers=("point_process",),
            minor_layers=("oracle", "limit_laws"),
            why="intensity runs 2^12 inclusion-exclusion terms and point_measure, "
            "count_in and simulate_limit_process run per replicate. Without this "
            "workload point_process would go unmeasured; ROADMAP item 4's slab "
            "method shows here and nowhere else.",
        ),
    )
}
