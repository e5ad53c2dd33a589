"""Monte Carlo experiment harness.

Runs batches of permutation draws, reduces them to cycle statistics, and
compares the empirical results against either the closed-form limiting laws
or (for small n) brute-force enumeration.  Replicate i of the permutation
lane always consumes the random stream keyed (seed, 0, i); the avoidance
limit simulation draws in fixed blocks of ``_LIMIT_BLOCK`` draws, block b
from the stream keyed (seed, 1, b), and chunks hold whole blocks.  A chunk
builds one stream and re-keys its Philox per replicate or block
(``RngStream.consecutive``) with the key of SeedSequence((seed, 2, lane, i)),
so every draw equals that of a freshly built stream.  Reduction
happens in replicate order, so reports are byte-identical regardless of how
many worker processes computed them.

Each run builds the normalization table once, in the calling process, and
ships it inside every chunk task.  A worker builds a fresh sampler per task
and holds no state between tasks.

RNG lanes: 0 = permutation draws, 1 = limit-process simulation,
2 = spacing-mixture reference draws.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# the per-draw extractor calls the reducers by these names, which perfbench/tracing.py rebinds
from .cycle_stats import (
    cycle_ranges,
    fixed_point_summary,
    parse_statistic,
    sum_of_k_cycles,
)
from .gof import (
    chi_square_gof,
    dkw_epsilon,
    empirical_cdf,
    ks_distance,
    ks_two_sample,
    pearson_correlation,
    tv_distance,
)
from .limit_laws import (
    law_atoms,
    law_support,
    limit_cdf,
    sample_limit_spacings,
)
from .oracle import exact_statistic_distribution
# point_measure, count_in and simulate_limit_process have no caller here; they stay
# bound on this module because perfbench/tracing.py wraps them by these names.
from .point_process import (
    count_by_draw,
    count_in,
    intensity,
    limit_block_counts,
    parse_boxes,
    point_measure,
    simulate_limit_process,
    tail_intensity_mass,
)
from .rng import RngStream
from .sampler import SAMPLER_VERSION, PermutationSampler
from .weights import NormalizationTable, WeightSequence, norm_constants, parse_weights

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "run_counts_experiment",
    "run_avoidance_experiment",
    "run_cdf_experiment",
    "write_replicates_csv",
]

try:
    from importlib.metadata import version as _pkg_version

    _VERSION = _pkg_version("permcycles")
except Exception:  # pragma: no cover
    _VERSION = "unknown"

_LANE_PERM = 0
_LANE_LIMIT = 1
_LANE_MIXTURE = 2
_LIMIT_BLOCK = 4096  # limit-process draws per stream
_HELD_VALUES = 1 << 16  # cycle entries an avoid chunk holds before counting them
# Names how the limit simulation consumes randomness; reports carry it in their metadata.
LIMIT_STREAM_VERSION = (
    f"one stream per {_LIMIT_BLOCK}-draw block keyed (seed, 1, block); per level the "
    "block's Poisson counts, then its uniforms in draw order (v2)"
)

_KINDS = ("counts", "avoidance", "cdf")
_COMPARE = ("limit", "oracle")
_INT_FIELDS = {
    "n",
    "replicates",
    "seed",
    "workers",
    "k_max",
    "grid_points",
    "mixture_draws",
    "limit_draws",
}


@dataclass
class ExperimentConfig:
    """Everything a run needs; ``workers`` affects speed only, never results."""

    kind: str
    weights: str
    n: int
    replicates: int
    seed: int = 0
    workers: int = 1
    k_max: int = 6
    statistic: str = ""
    boxes: str = ""
    compare: str = "limit"
    grid_points: int = 200
    mixture_draws: int = 0
    limit_draws: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; known: {_KINDS}")
        if self.compare not in _COMPARE:
            raise ValueError(f"unknown compare mode {self.compare!r}; known: {_COMPARE}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.grid_points < 10:
            raise ValueError(f"grid_points must be >= 10, got {self.grid_points}")
        if self.mixture_draws < 0 or self.limit_draws < 0:
            raise ValueError("draw counts must be >= 0")
        ws = parse_weights(self.weights)  # fail early on a bad spec
        if self.kind == "cdf":
            if not self.statistic:
                raise ValueError("cdf experiments need a statistic")
            _law_for_statistic(ws, self.statistic)
        if self.kind == "avoidance":
            parse_boxes(self.boxes)

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        kwargs = {}
        for key, value in mapping.items():
            if key in _INT_FIELDS and isinstance(value, str):
                try:
                    value = int(value)
                except ValueError:
                    raise ValueError(f"config key {key!r} needs an integer, got {value!r}") from None
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        mapping: dict[str, str] = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)

    def echo(self) -> dict:
        """Config as stored in reports: everything that can change results.

        ``workers`` is deliberately left out so reports stay byte-identical
        across different degrees of parallelism.
        """
        out = dataclasses.asdict(self)
        del out["workers"]
        return out


@dataclass
class ExperimentReport:
    """Structured experiment outcome plus per-replicate rows for CSV export."""

    config: dict
    results: dict
    metadata: dict
    replicates: list = field(default_factory=list, repr=False)
    csv_columns: list = field(default_factory=list, repr=False)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "metadata": self.metadata,
            "results": self.results,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def summary(self) -> str:
        lines: list[tuple[str, str]] = []

        def walk(prefix: str, obj) -> None:
            if isinstance(obj, dict):
                for key in sorted(obj, key=lambda s: (len(s), s)):
                    walk(f"{prefix}{key}.", obj[key])
            elif isinstance(obj, (list, tuple)):
                lines.append((prefix[:-1], " ".join(_fmt(v) for v in obj)))
            else:
                lines.append((prefix[:-1], _fmt(obj)))

        walk("", self.results)
        width = max((len(k) for k, _ in lines), default=0)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _clean(value):
    """NaN/inf are not portable JSON; encode them as None/strings."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "infinite"
    return value


# ---------------------------------------------------------------------------
# Worker-side chunk evaluation
# ---------------------------------------------------------------------------

def _scaled_statistic_fn(statistic: str, n: int):
    entry, k = parse_statistic(statistic)
    reduce, i = globals()[entry.reducer], entry.field
    args = () if k is None else (k,)
    if i is None:
        return lambda perm: reduce(perm, *args) / n
    return lambda perm: reduce(perm, *args)[i] / n


def _draws(ws: WeightSequence, table: NormalizationTable, seed: int, start: int, stop: int):
    """Permutations of replicates start..stop-1 from a sampler private to one chunk."""
    sampler = PermutationSampler(ws, table)
    for rng in RngStream(seed, (_LANE_PERM, start)).consecutive(stop - start):
        yield sampler.sample(table.n_max, rng)


def _run_chunk(task):
    kind = task[0]
    if kind == "counts":
        _, ws, table, seed, k_max, start, stop = task
        out = []
        for perm in _draws(ws, table, seed, start, stop):
            row = [0] * k_max
            for c in perm.cycles:
                if len(c) <= k_max:
                    row[len(c) - 1] += 1
            out.append(tuple(row))
        return out
    if kind == "stat":
        _, ws, table, seed, statistic, start, stop = task
        stat = _scaled_statistic_fn(statistic, table.n_max)
        return [stat(perm) for perm in _draws(ws, table, seed, start, stop)]
    if kind == "avoid":
        _, ws, table, seed, boxes_text, start, stop = task
        union = parse_boxes(boxes_text)
        counts = np.zeros(stop - start, dtype=np.int64)
        # per union level, one row (draw, *cycle) for each cycle of that length
        held: dict[int, list] = {k: [] for k in union.levels()}
        values, last = 0, stop - start - 1
        for d, perm in enumerate(_draws(ws, table, seed, start, stop)):
            for c in perm.cycles:
                if len(c) in held:
                    held[len(c)].append((d,) + c)
                    values += len(c)
            if values < _HELD_VALUES and d < last:
                continue
            for k, rows in held.items():
                if rows:
                    rows = np.array(rows)
                    counts += count_by_draw(union, k, rows[:, 1:] / table.n_max, rows[:, 0],
                                            len(counts))
                    held[k] = []
            values = 0
        return counts.tolist()
    if kind == "limit_avoid":
        _, ws, k_cap, seed, boxes_text, start, stop = task
        union = parse_boxes(boxes_text)
        firsts = range(start, stop, _LIMIT_BLOCK)
        streams = RngStream(seed, (_LANE_LIMIT, start // _LIMIT_BLOCK)).consecutive(len(firsts))
        blocks = [
            limit_block_counts(ws, k_cap, union, min(b + _LIMIT_BLOCK, stop) - b, rng)
            for b, rng in zip(firsts, streams)
        ]
        return np.concatenate(blocks).tolist()
    raise ValueError(f"unknown chunk kind {kind!r}")


def _chunk_bounds(total: int, workers: int, unit: int = 1) -> list[tuple[int, int]]:
    """About four chunks per worker, each whole ``unit``-sized blocks but the last."""
    per = unit * max(1, math.ceil(math.ceil(total / unit) / max(1, workers * 4)))
    return [(s, min(s + per, total)) for s in range(0, total, per)]


def _map_chunks(tasks, workers: int) -> list:
    if workers <= 1 or len(tasks) <= 1:
        chunks = [_run_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(_run_chunk, tasks))
    records: list = []
    for c in chunks:
        records.extend(c)
    return records


def _metadata(ws: WeightSequence) -> dict:
    return {
        "package": f"permcycles {_VERSION}",
        "bit_generator": "Philox",
        "sampler": SAMPLER_VERSION,
        "rng_lanes": {"permutations": 0, "limit_process": 1, "mixture": 2},
        "limit_stream": LIMIT_STREAM_VERSION,
        "weights": ws.spec_string(),
        "conventions": {
            "no_k_cycle": "min range = n, max range = 0 before scaling",
            "no_fixed_point": "m = n+1, M = 0, delta = Delta = n+1 before scaling",
        },
    }


def _poisson_pmf_dict(theta_k: float, k: int, tail_eps: float = 1e-12) -> dict[int, float]:
    """Poisson(theta_k / k) pmf on 0..J, J the first j >= mean leaving < tail_eps mass above.

    Terms are computed in log space, so a large mean cannot underflow them, on
    0..mean + 10 sqrt(mean) + 40, beyond which the true tail is far below
    ``tail_eps``.  Rounding in j log(mean) grows like eps * mean, so the terms
    are divided by their sum; a sum off 1 by more than 1e-6 is more than
    rounding, and the function raises.
    """
    mean = theta_k / k
    if mean == 0.0:
        return {0: 1.0}
    if not math.isfinite(mean):
        raise ValueError(f"Poisson mean {mean!r} for {k}-cycles is not finite")
    log_mean = math.log(mean)
    j_top = math.ceil(mean + 10.0 * math.sqrt(mean)) + 40
    terms = [math.exp(j * log_mean - mean - math.lgamma(j + 1)) for j in range(j_top + 1)]
    total = math.fsum(terms)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"Poisson({mean!r}) pmf for {k}-cycles sums to {total!r} on 0..{j_top}")
    # the tail is summed from the top, so it keeps its precision however small
    j_end, above = j_top, 0.0
    while j_end - 1 >= mean and (above + terms[j_end]) / total < tail_eps:
        above += terms[j_end]
        j_end -= 1
    return {j: terms[j] / total for j in range(j_end + 1)}


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def run_counts_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical k-cycle count pmfs against Poisson(theta_k / k) or the oracle."""
    if cfg.kind != "counts":
        raise ValueError(f"config kind is {cfg.kind!r}, not 'counts'")
    ws = parse_weights(cfg.weights)
    table = norm_constants(ws, cfg.n)
    tasks = [
        ("counts", ws, table, cfg.seed, cfg.k_max, s, e)
        for s, e in _chunk_bounds(cfg.replicates, cfg.workers)
    ]
    records = _map_chunks(tasks, cfg.workers)
    data = np.asarray(records, dtype=np.int64)
    n_rep = cfg.replicates

    per_count: dict[str, dict] = {}
    for k in range(1, cfg.k_max + 1):
        col = data[:, k - 1]
        values, freq = np.unique(col, return_counts=True)
        emp = {int(v): c / n_rep for v, c in zip(values, freq)}
        if cfg.compare == "oracle":
            dist = exact_statistic_distribution(ws, cfg.n, f"count:{k}")
            theory = {int(v): float(p) for v, p in zip(dist.support, dist.probabilities)}
            theory_mean = dist.mean()
        else:
            theory = _poisson_pmf_dict(ws.theta(k), k)
            theory_mean = ws.theta(k) / k
        j_hi = max(max(emp), max(theory))
        observed = [int(np.sum(col == j)) for j in range(j_hi + 1)] + [0]
        covered = math.fsum(theory.get(j, 0.0) for j in range(j_hi + 1))
        expected = [n_rep * theory.get(j, 0.0) for j in range(j_hi + 1)]
        expected.append(n_rep * max(0.0, 1.0 - covered))
        chi = chi_square_gof(observed, expected)
        per_count[str(k)] = {
            "empirical_mean": float(col.mean()),
            "theory_mean": float(theory_mean),
            "tv_distance": float(tv_distance(emp, theory)),
            "chi_square": {
                "statistic": _clean(chi.statistic),
                "dof": chi.dof,
                "p_value": _clean(chi.p_value),
                "cells": chi.cells,
            },
            "flag": "insufficient-sample" if chi.insufficient else "ok",
        }

    correlations: dict[str, float | None] = {}
    for i in range(1, cfg.k_max + 1):
        for j in range(i + 1, cfg.k_max + 1):
            if n_rep < 2:
                corr = None
            else:
                corr = _clean(pearson_correlation(data[:, i - 1], data[:, j - 1]))
            correlations[f"C_{i}_C_{j}"] = corr

    results = {
        "mode": cfg.compare,
        "replicates": n_rep,
        "per_count": per_count,
        "correlations": correlations,
    }
    return ExperimentReport(
        config=cfg.echo(),
        results=results,
        metadata=_metadata(ws),
        replicates=[list(r) for r in records],
        csv_columns=[f"C_{k}" for k in range(1, cfg.k_max + 1)],
    )


def run_avoidance_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical avoidance probability of a box union against exp(-intensity)."""
    if cfg.kind != "avoidance":
        raise ValueError(f"config kind is {cfg.kind!r}, not 'avoidance'")
    ws = parse_weights(cfg.weights)
    union = parse_boxes(cfg.boxes)
    lam = intensity(ws, union)
    limit_p = math.exp(-lam)
    n_rep = cfg.replicates

    table = norm_constants(ws, cfg.n)
    tasks = [
        ("avoid", ws, table, cfg.seed, cfg.boxes, s, e)
        for s, e in _chunk_bounds(n_rep, cfg.workers)
    ]
    counts = np.asarray(_map_chunks(tasks, cfg.workers), dtype=np.int64)
    p_hat = float(np.mean(counts == 0))
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_rep)

    results: dict = {
        "intensity": float(lam),
        "limit_probability": float(limit_p),
        "empirical": {
            "probability": p_hat,
            "se": se,
            "replicates": n_rep,
            "mean_points_in_union": float(counts.mean()),
            "abs_error": abs(p_hat - limit_p),
        },
    }

    m_draws = cfg.limit_draws if cfg.limit_draws else n_rep
    levels = union.levels()
    k_cap = max(levels) if levels else 1
    sim_tasks = [
        ("limit_avoid", ws, k_cap, cfg.seed, cfg.boxes, s, e)
        for s, e in _chunk_bounds(m_draws, cfg.workers, _LIMIT_BLOCK)
    ]
    sim_counts = np.asarray(_map_chunks(sim_tasks, cfg.workers), dtype=np.int64)
    q_hat = float(np.mean(sim_counts == 0))
    results["limit_simulation"] = {
        "probability": q_hat,
        "se": math.sqrt(max(q_hat * (1.0 - q_hat), 1e-12) / m_draws),
        "draws": m_draws,
        "truncation_level": k_cap,
        "truncated_tail_mass": _clean(tail_intensity_mass(ws, k_cap)),
        "abs_error": abs(q_hat - limit_p),
    }
    return ExperimentReport(
        config=cfg.echo(),
        results=results,
        metadata=_metadata(ws),
        replicates=[[int(c)] for c in counts],
        csv_columns=["points_in_union"],
    )


def _law_for_statistic(ws: WeightSequence, statistic: str):
    """(law, theta, k) of the limit a cdf run compares with; k is None for a law without one."""
    entry, k = parse_statistic(statistic)
    law = entry.law_at(k)
    if law is None:
        raise ValueError(
            f"statistic {statistic!r} has no closed-form limiting CDF; check it with "
            f"`permcycles exact`, a counts run or Laplace transforms instead"
        )
    return law, ws.theta(k or 1), k if entry.law_k is None else None


def run_cdf_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical CDF of one scaled statistic against its limiting law.

    Grid comparisons exclude atom locations; each atom's mass is compared
    separately at binomial resolution.  For the spacing statistics an
    optional second channel draws from the limiting mixture construction
    and compares the two samples directly.
    """
    if cfg.kind != "cdf":
        raise ValueError(f"config kind is {cfg.kind!r}, not 'cdf'")
    ws = parse_weights(cfg.weights)
    law, theta, k = _law_for_statistic(ws, cfg.statistic)
    cdf = limit_cdf(law, theta, k)
    atoms = law_atoms(law, theta, k)
    n_rep = cfg.replicates

    table = norm_constants(ws, cfg.n)
    tasks = [
        ("stat", ws, table, cfg.seed, cfg.statistic, s, e)
        for s, e in _chunk_bounds(n_rep, cfg.workers)
    ]
    samples = np.asarray(_map_chunks(tasks, cfg.workers), dtype=float)

    lo, hi = law_support(law)
    if hi is None:
        hi = max(float(samples.max()) * 1.05, 3.0 * theta, 1.0)
    grid = np.linspace(lo, hi, cfg.grid_points + 2)[1:-1]
    grid = grid[[all(abs(x - a) > 1e-9 for a in atoms) for x in grid]]
    theory = np.array([cdf(float(x)) for x in grid])
    ks = ks_distance(empirical_cdf(samples, grid), theory)

    atom_results = {}
    for loc, mass in sorted(atoms.items()):
        if loc <= 0.0:
            emp_mass = float(np.mean(np.abs(samples - loc) <= 1e-12))
        else:
            # finite-n conventions can land slightly above the atom (e.g. (n+1)/n)
            emp_mass = float(np.mean(samples >= loc - 1e-12))
        se = math.sqrt(max(mass * (1.0 - mass), 1e-12) / n_rep)
        atom_results[f"{loc:g}"] = {
            "theory_mass": float(mass),
            "empirical_mass": emp_mass,
            "abs_error": abs(emp_mass - mass),
            "binomial_se": se,
        }

    results: dict = {
        "statistic": cfg.statistic,
        "law": law,
        "replicates": n_rep,
        "grid_ks": float(ks),
        "grid_points": int(grid.size),
        "dkw_epsilon_95": dkw_epsilon(n_rep),
        "atoms": atom_results,
    }

    if cfg.mixture_draws and law in ("delta", "Delta"):
        mins, maxs = sample_limit_spacings(
            theta, RngStream(cfg.seed, (_LANE_MIXTURE, 0)), size=cfg.mixture_draws
        )
        ref = mins if law == "delta" else maxs
        two = ks_distance(empirical_cdf(samples, grid), empirical_cdf(ref, grid))
        results["mixture"] = {
            "draws": int(cfg.mixture_draws),
            "grid_ks_two_sample": float(two),
            "atom_mass": float(np.mean(ref >= 1.0 - 1e-12)),
        }

    return ExperimentReport(
        config=cfg.echo(),
        results=results,
        metadata=_metadata(ws),
        replicates=[[float(v)] for v in samples],
        csv_columns=[cfg.statistic],
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Dispatch a config to its runner."""
    if cfg.kind == "counts":
        return run_counts_experiment(cfg)
    if cfg.kind == "avoidance":
        return run_avoidance_experiment(cfg)
    return run_cdf_experiment(cfg)


def write_replicates_csv(report: ExperimentReport, path) -> None:
    """Per-replicate records as CSV: a replicate index plus the record columns."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate"] + list(report.csv_columns))
        for i, row in enumerate(report.replicates):
            writer.writerow([i] + list(row))
