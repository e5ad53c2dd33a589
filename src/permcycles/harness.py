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

A config's ``n`` is one size or a sweep of increasing sizes.  Each run builds
the normalization table once, at the largest n, in the calling process, and
ships it inside every chunk task; every n of a sweep draws its replicates from
the same streams (seed, 0, i), so each n's block equals a single-n run's
results.  A worker builds a fresh sampler per task and holds no state between
tasks.

RNG lanes: 0 = permutation draws, 1 = limit-process simulation,
2 = spacing-mixture reference draws.
"""

from __future__ import annotations

import dataclasses
import json
import math
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
    _poisson_count_pmfs,
    law_atoms,
    law_support,
    limit_cdf,
    sample_limit_spacings,
)
from .oracle import MAX_ENUM_N, exact_statistic_distribution
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
)
from .rng import RngStream
from .sampler import SAMPLER_VERSION, PermutationSampler
from .weights import (
    NormalizationTable,
    WeightSequence,
    norm_constants,
    parse_weights,
    tail_intensity_mass,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "write_replicates_csv",
]

_LANE_PERM = 0
_LANE_LIMIT = 1
_LANE_MIXTURE = 2
_LIMIT_BLOCK = 4096  # limit-process draws per stream
_HELD_VALUES = 1 << 16  # cycle entries an avoid chunk holds before counting them
_TAIL_EPS = 1e-12  # Poisson mass a counts run's theory table may leave above its last cell
_MAX_PMF_CELLS = 1 << 21  # longest Poisson table a counts run builds (~0.3 GB at its peak)
# Names how the limit simulation consumes randomness; reports carry it in their metadata.
LIMIT_STREAM_VERSION = (
    f"one stream per {_LIMIT_BLOCK}-draw block keyed (seed, 1, block); per level the "
    "block's Poisson counts, then its uniforms in draw order (v2)"
)


def _key(default=dataclasses.MISSING, *, kind="", choices=(), least=None):
    """A config field with its rules: the one kind that reads it (any other kind
    must leave it at its default), its allowed values, and an integer's least value."""
    return field(default=default, metadata={"kind": kind, "choices": choices, "least": least})


@dataclass
class ExperimentConfig:
    """Everything a run needs; ``workers`` affects speed only, never results.

    ``n`` is one size or a strictly increasing tuple of sizes (a sweep).
    """

    kind: str = _key(choices=("counts", "avoidance", "cdf"))
    weights: str = _key()
    n: int | tuple[int, ...] = _key(least=1)
    replicates: int = _key(least=1)
    seed: int = _key(0, least=0)
    workers: int = _key(1, least=1)
    k_max: int = _key(6, kind="counts", least=1)
    statistic: str = _key("", kind="cdf")
    boxes: str = _key("", kind="avoidance")
    compare: str = _key("limit", kind="counts", choices=("limit", "oracle"))
    grid_points: int = _key(200, kind="cdf", least=10)
    mixture_draws: int = _key(0, kind="cdf", least=0)
    limit_draws: int = _key(0, kind="avoidance", least=0)

    def __post_init__(self) -> None:
        if isinstance(self.n, (tuple, list)):
            self.n = self.n[0] if len(self.n) == 1 else tuple(self.n)
        for f in dataclasses.fields(self):
            key, value, rule = f.name, getattr(self, f.name), f.metadata
            if rule["choices"] and value not in rule["choices"]:
                raise ValueError(f"config key {key!r} must be one of {rule['choices']}, got {value!r}")
            low = min(value, default=0) if isinstance(value, tuple) else value
            if rule["least"] is not None and low < rule["least"]:
                raise ValueError(f"{key} must be >= {rule['least']}, got {value}")
            if rule["kind"] and self.kind != rule["kind"] and value != f.default:
                raise ValueError(f"config key {key!r} is read by {rule['kind']} experiments only, "
                                 f"not by {self.kind}")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"the sizes of a sweep must increase strictly, got {self.n}")
        if self.compare == "oracle" and self.sizes[-1] > MAX_ENUM_N:
            raise ValueError(f"compare = oracle enumerates S_n, so it needs n <= {MAX_ENUM_N}, "
                             f"got {self.n}")
        ws = parse_weights(self.weights)  # fail early on a bad spec
        if self.kind == "cdf":
            if not self.statistic:
                raise ValueError("cdf experiments need a statistic")
            law = _law_for_statistic(ws, self.statistic)[0]
            if self.mixture_draws and law not in ("delta", "Delta"):
                raise ValueError(f"mixture_draws needs the delta or Delta law, not {law}")
        if self.kind == "avoidance":
            parse_boxes(self.boxes)

    @property
    def sizes(self) -> tuple[int, ...]:
        """The sizes a run draws at, in increasing order."""
        return self.n if isinstance(self.n, tuple) else (self.n,)

    @classmethod
    def from_mapping(cls, mapping) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        missing = [f.name for f in dataclasses.fields(cls)
                   if f.default is dataclasses.MISSING and f.name not in mapping]
        if missing:
            raise ValueError(f"config key {missing[0]!r} is missing")
        ints = {f.name for f in dataclasses.fields(cls) if f.metadata["least"] is not None}
        kwargs = {}
        for key, value in mapping.items():
            if key in ints and isinstance(value, str):
                try:
                    value = tuple(map(int, value.split(","))) if key == "n" else int(value)
                except ValueError:
                    raise ValueError(f"config key {key!r} needs an integer, got {value!r}") from None
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        mapping: dict[str, str] = {}
        first_line: dict[str, int] = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                if key in first_line:
                    raise ValueError(f"{path}:{lineno}: key {key!r} was already set on line "
                                     f"{first_line[key]}")
                first_line[key] = lineno
                mapping[key] = value
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
                for key in sorted(obj, key=lambda s: (len(str(s)), str(s))):
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


def _draws(ws: WeightSequence, table: NormalizationTable, n: int, seed: int, start: int,
           stop: int):
    """Permutations of [n] of replicates start..stop-1 from a sampler private to the caller.

    The sampler and the streams are checked here, before the first draw is taken.
    """
    sampler = PermutationSampler(ws, table)
    streams = RngStream(seed, (_LANE_PERM, start)).consecutive(stop - start)
    return (sampler.sample(n, rng) for rng in streams)


def _run_chunk(task):
    kind = task[0]
    if kind == "counts":
        _, ws, table, n, seed, k_max, start, stop = task
        out = []
        for perm in _draws(ws, table, n, seed, start, stop):
            row = [0] * k_max
            for k in perm.lengths:
                if k <= k_max:
                    row[k - 1] += 1
            out.append(tuple(row))
        return out
    if kind == "stat":
        _, ws, table, n, seed, statistic, start, stop = task
        stat = _scaled_statistic_fn(statistic, n)
        return [stat(perm) for perm in _draws(ws, table, n, seed, start, stop)]
    if kind == "avoid":
        _, ws, table, n, seed, boxes_text, start, stop = task
        union = parse_boxes(boxes_text)
        counts = np.zeros(stop - start, dtype=np.int64)
        # per union level, one row (draw, *cycle) for each cycle of that length
        held: dict[int, list] = {k: [] for k in union.levels()}
        values, last = 0, stop - start - 1
        for d, perm in enumerate(_draws(ws, table, n, seed, start, stop)):
            for k, rows in held.items():
                for c in perm.cycles_of_length(k):
                    rows.append((d,) + c)
                    values += k
            if values < _HELD_VALUES and d < last:
                continue
            for k, rows in held.items():
                if rows:
                    rows = np.array(rows)
                    counts += count_by_draw(union, k, rows[:, 1:] / n, rows[:, 0], len(counts))
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
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            chunks = list(ex.map(_run_chunk, tasks))
    records: list = []
    for c in chunks:
        records.extend(c)
    return records


def _map_replicates(cfg: ExperimentConfig, kind: str, ws: WeightSequence,
                    table: NormalizationTable, n: int, arg) -> list:
    """Records of every replicate at size n, in replicate order, from ``kind`` chunk tasks."""
    tasks = [(kind, ws, table, n, cfg.seed, arg, s, e)
             for s, e in _chunk_bounds(cfg.replicates, cfg.workers)]
    return _map_chunks(tasks, cfg.workers)


def _metadata(ws: WeightSequence) -> dict:
    from . import __version__

    return {
        "package": f"permcycles {__version__}",
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


def _poisson_pmf_dict(theta_k: float, k: int) -> dict[int, float]:
    """Poisson(theta_k / k) pmf on 0..J, J the first j >= mean leaving < _TAIL_EPS mass above.

    Terms are computed in log space, so a large mean cannot underflow them, on
    0..mean + 10 sqrt(mean) + 40, beyond which the true tail is far below
    ``_TAIL_EPS``.  Rounding in j log(mean) grows like eps * mean, so the terms
    are divided by their sum; a sum off 1 by more than 1e-6 is more than
    rounding, and the function raises.
    """
    mean = theta_k / k
    if mean == 0.0:
        return {0: 1.0}
    if not math.isfinite(mean):
        raise ValueError(f"Poisson mean {mean!r} for {k}-cycles is not finite")
    j_top = math.ceil(mean + 10.0 * math.sqrt(mean)) + 40
    if j_top >= _MAX_PMF_CELLS:
        raise ValueError(f"Poisson({mean!r}) pmf for {k}-cycles needs {j_top + 1} cells, "
                         f"more than the {_MAX_PMF_CELLS} a counts run tabulates")
    terms = _poisson_count_pmfs(theta_k, k, range(j_top + 1))
    total = math.fsum(terms)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"Poisson({mean!r}) pmf for {k}-cycles sums to {total!r} on 0..{j_top}")
    # the tail is summed from the top, so it keeps its precision however small
    j_end, above = j_top, 0.0
    while j_end - 1 >= mean and (above + terms[j_end]) / total < _TAIL_EPS:
        above += terms[j_end]
        j_end -= 1
    return {j: terms[j] / total for j in range(j_end + 1)}


# ---------------------------------------------------------------------------
# Experiment runners: one generator per kind, yielding (results, rows) per n
# ---------------------------------------------------------------------------


def _counts(cfg: ExperimentConfig, ws: WeightSequence, table: NormalizationTable):
    """Empirical k-cycle count pmfs against Poisson(theta_k / k) or the oracle."""
    n_rep = cfg.replicates
    # the limit tables do not depend on n, and a mean too large to tabulate fails before any draw
    limit = {} if cfg.compare == "oracle" else {
        k: _poisson_pmf_dict(ws.theta(k), k) for k in range(1, cfg.k_max + 1)}
    for n in cfg.sizes:
        records = _map_replicates(cfg, "counts", ws, table, n, cfg.k_max)
        data = np.asarray(records, dtype=np.int64)

        per_count: dict[str, dict] = {}
        for k in range(1, cfg.k_max + 1):
            col = data[:, k - 1]
            if cfg.compare == "oracle":
                dist = exact_statistic_distribution(ws, n, f"count:{k}")
                theory = {int(v): float(p) for v, p in zip(dist.support, dist.probabilities)}
                theory_mean = dist.mean()
            else:
                theory = limit[k]
                theory_mean = ws.theta(k) / k
            j_hi = max(int(col.max()), max(theory))
            observed = np.bincount(col, minlength=j_hi + 1).tolist() + [0]
            emp = {j: c / n_rep for j, c in enumerate(observed) if c}
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
        yield results, [list(r) for r in records]


def _avoidance(cfg: ExperimentConfig, ws: WeightSequence, table: NormalizationTable):
    """Empirical avoidance probability of a box union against exp(-intensity).

    The intensity and the limit-process channel do not depend on n, so a
    sweep computes them once and repeats them in every block.
    """
    union = parse_boxes(cfg.boxes)
    lam = intensity(ws, union)
    limit_p = math.exp(-lam)
    n_rep = cfg.replicates

    m_draws = cfg.limit_draws if cfg.limit_draws else n_rep
    k_cap = max(union.levels(), default=1)
    sim_tasks = [
        ("limit_avoid", ws, k_cap, cfg.seed, cfg.boxes, s, e)
        for s, e in _chunk_bounds(m_draws, cfg.workers, _LIMIT_BLOCK)
    ]
    sim_counts = np.asarray(_map_chunks(sim_tasks, cfg.workers), dtype=np.int64)
    q_hat = float(np.mean(sim_counts == 0))
    simulation = {
        "probability": q_hat,
        "se": math.sqrt(max(q_hat * (1.0 - q_hat), 1e-12) / m_draws),
        "draws": m_draws,
        "truncation_level": k_cap,
        "truncated_tail_mass": _clean(tail_intensity_mass(ws, k_cap)),
        "abs_error": abs(q_hat - limit_p),
    }

    for n in cfg.sizes:
        counts = np.asarray(_map_replicates(cfg, "avoid", ws, table, n, cfg.boxes), dtype=np.int64)
        p_hat = float(np.mean(counts == 0))
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_rep)
        results = {
            "intensity": float(lam),
            "limit_probability": float(limit_p),
            "empirical": {
                "probability": p_hat,
                "se": se,
                "replicates": n_rep,
                "mean_points_in_union": float(counts.mean()),
                "abs_error": abs(p_hat - limit_p),
            },
            "limit_simulation": simulation,
        }
        yield results, [[int(c)] for c in counts]


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


def _cdf(cfg: ExperimentConfig, ws: WeightSequence, table: NormalizationTable):
    """Empirical CDF of one scaled statistic against its limiting law.

    Grid comparisons exclude atom locations; each atom's mass is compared
    separately at binomial resolution.  For the spacing statistics an
    optional second channel draws from the limiting mixture construction
    once and compares each n's sample with it directly.
    """
    law, theta, k = _law_for_statistic(ws, cfg.statistic)
    cdf = limit_cdf(law, theta, k)
    atoms = law_atoms(law, theta, k)
    lo, hi_law = law_support(law)
    n_rep = cfg.replicates
    if cfg.mixture_draws:
        mins, maxs = sample_limit_spacings(
            theta, RngStream(cfg.seed, (_LANE_MIXTURE, 0)), size=cfg.mixture_draws
        )
        ref = mins if law == "delta" else maxs

    for n in cfg.sizes:
        samples = np.asarray(_map_replicates(cfg, "stat", ws, table, n, cfg.statistic), dtype=float)

        hi = hi_law
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
        if cfg.mixture_draws:
            two = ks_distance(empirical_cdf(samples, grid), empirical_cdf(ref, grid))
            results["mixture"] = {
                "draws": int(cfg.mixture_draws),
                "grid_ks_two_sample": float(two),
                "atom_mass": float(np.mean(ref >= 1.0 - 1e-12)),
            }
        yield results, [[float(v)] for v in samples]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run a config from one table built at its largest n.

    A single-n run reports its one block as ``results``, with its
    per-replicate rows; a sweep keys its blocks by the integer n, which the
    JSON report lists in increasing order, and keeps no rows.
    """
    ws = parse_weights(cfg.weights)
    table = norm_constants(ws, cfg.sizes[-1])
    if cfg.kind == "counts":
        blocks, columns = _counts(cfg, ws, table), [f"C_{k}" for k in range(1, cfg.k_max + 1)]
    elif cfg.kind == "avoidance":
        blocks, columns = _avoidance(cfg, ws, table), ["points_in_union"]
    else:
        blocks, columns = _cdf(cfg, ws, table), [cfg.statistic]
    if len(cfg.sizes) == 1:
        results, rows = next(blocks)
    else:
        results = {n: block for n, (block, _) in zip(cfg.sizes, blocks)}
        rows, columns = [], []
    return ExperimentReport(cfg.echo(), results, _metadata(ws), rows, columns)


def write_replicates_csv(report: ExperimentReport, path) -> None:
    """Per-replicate records as CSV: a replicate index plus the record columns."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate"] + list(report.csv_columns))
        for i, row in enumerate(report.replicates):
            writer.writerow([i] + list(row))
