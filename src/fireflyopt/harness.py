"""Seeded experiment harness: config parsing, repetition runs, summaries, files.

A config is a flat key/value document (YAML subset).  Repetition r always
runs with seed base_seed + r, so experiments are reproducible end to end:
the same config yields byte-identical output files, whether repetitions
run sequentially or concurrently.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .benchmarks import benchmark_names, lookup, make_moving_peaks
from .core import FaParams, Objective, RunReport, pairwise_sweep, run
from .randomization import ScheduleDescriptor, levy_step
from .variants import (
    MultiSwarmConfig,
    elitist_best_move,
    global_best_pull_step,
    initialize_multiswarm,
    make_sentinels,
    multiswarm_step,
    reduction_mode,
)

# variant -> (key, value) the variant forces; any other explicit value is an error
_FORCED = {"elitist": ("elitism", True), "chaotic_alpha": ("alpha_schedule", "chaotic")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    The fields are the config keys: a config document sets some of them,
    a field without a default is a required key, and the summary echoes
    every field but output_dir as resolved.  elitism and alpha_schedule
    default by variant (elitism off, a geometric schedule), and a
    multiswarm swarm_size defaults to pop_size // num_swarms.  Parsing ends
    by building the first repetition's objective and, for multiswarm, its
    swarm layout, so the checks of the code that owns them run before any
    repetition does.
    """

    benchmark: str
    variant: str
    repetitions: int
    base_seed: int
    dim: int = 2
    alpha: float = 0.2
    beta0: float = 1.0
    gamma: float = 1.0
    pop_size: int = 25
    max_fes: int = 50_000
    epsilon_kind: str = "gaussian"
    update_scheme: str = "asynchronous"
    elitism: Optional[bool] = None
    alpha_schedule: Optional[str] = None
    schedule_ratio: float = 0.97
    schedule_x0: float = 0.7
    success_threshold: float = 1e-2
    output_dir: Optional[str] = None
    levy_lambda: float = 1.5
    elitist_trials: int = 2
    num_swarms: int = 5
    swarm_size: Optional[int] = None
    exclusion_radius: float = 0.1
    anticonvergence_radius: float = 0.05
    sentinel_count: int = 1
    peak_count: int = 5
    shift_interval: int = 5000
    shift_length: float = 10.0
    peaks_lower: float = 0.0
    peaks_upper: float = 100.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {tuple(VARIANTS)}")
        if self.benchmark != "moving_peaks" and self.benchmark not in benchmark_names():
            raise ValueError(
                f"unknown benchmark {self.benchmark!r}; known: {', '.join(benchmark_names())}, moving_peaks"
            )
        if self.repetitions < 1:
            raise ValueError("malformed value for 'repetitions': must be >= 1")
        if self.dim < 1:
            raise ValueError(f"malformed value for 'dim': must be >= 1, got {self.dim}")
        if self.elitist_trials < 0:
            raise ValueError(f"malformed value for 'elitist_trials': must be >= 0, got {self.elitist_trials}")
        if not 1.0 < self.levy_lambda < 3.0:
            raise ValueError(f"malformed value for 'levy_lambda': must lie in (1, 3), got {self.levy_lambda}")
        if not math.isfinite(self.success_threshold):
            raise ValueError(
                f"malformed value for 'success_threshold': must be finite, got {self.success_threshold}"
            )

        if self.variant in _FORCED:
            key, value = _FORCED[self.variant]
            if getattr(self, key) not in (None, value):
                raise ValueError(
                    f"the {self.variant} variant requires {key} {value!r}; "
                    f"drop the {key!r} key or set it to {value!r}"
                )
            object.__setattr__(self, key, value)
        if self.alpha_schedule is None:
            object.__setattr__(self, "alpha_schedule", "geometric")
        if self.elitism is None:
            object.__setattr__(self, "elitism", False)
        self.params  # validates the run parameters

        if self.variant == "multiswarm":
            if self.num_swarms < 1:
                raise ValueError(f"malformed value for 'num_swarms': must be >= 1, got {self.num_swarms}")
            if self.swarm_size is None:
                object.__setattr__(self, "swarm_size", self.pop_size // self.num_swarms)
        objective = build_objective(self, self.base_seed)
        if self.multiswarm is not None:
            initialize_multiswarm(objective, self.params, self.multiswarm, self.base_seed)

    @cached_property
    def params(self) -> FaParams:
        """The run parameters, alpha schedule included.

        FaParams checks its fields before the schedule is built from alpha,
        so an invalid alpha is named as such.
        """
        params = FaParams(
            alpha=self.alpha,
            beta0=self.beta0,
            gamma=self.gamma,
            pop_size=self.pop_size,
            max_fes=self.max_fes,
            epsilon_kind=self.epsilon_kind,
            update_scheme=self.update_scheme,
            elitism=self.elitism,
        )
        schedule = ScheduleDescriptor(
            kind=self.alpha_schedule, alpha0=self.alpha, ratio=self.schedule_ratio, x0=self.schedule_x0
        )
        return replace(params, alpha_schedule=schedule)

    @cached_property
    def multiswarm(self) -> Optional[MultiSwarmConfig]:
        """The multi-swarm layout, or None when the variant is not multiswarm."""
        if self.variant != "multiswarm":
            return None
        return MultiSwarmConfig(
            num_swarms=self.num_swarms,
            swarm_size=self.swarm_size,
            exclusion_radius=self.exclusion_radius,
            anticonvergence_radius=self.anticonvergence_radius,
            sentinel_count=self.sentinel_count,
        )

    def flat(self) -> dict:
        """Canonical flat key/value form, defaults filled in.

        The output destination is excluded on purpose: emitted artifacts
        must not depend on where they are written.
        """
        values = asdict(self)
        del values["output_dir"]
        return values


@dataclass(frozen=True)
class SummaryStats:
    """Aggregates over repetition final-best values.

    success_rate is the fraction of repetitions whose final best reached
    the known optimum value plus success_threshold; it is None when the
    objective has no known optimum.  mean_fes_to_success averages, over
    successful repetitions only, the first evaluation count at which the
    threshold was reached (our operationalization of search efficiency);
    None when nothing succeeded.
    """

    mean_best: float
    std_best: float
    min_best: float
    max_best: float
    success_rate: Optional[float]
    mean_fes_to_success: Optional[float]


def _coerce(key: str, value, want):
    if get_origin(want) is Union:  # Optional[T] reads as T
        want = get_args(want)[0]
    if want is bool:
        if isinstance(value, bool):
            return value
        raise ValueError(f"malformed value for {key!r}: expected a boolean, got {value!r}")
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"malformed value for {key!r}: expected an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"malformed value for {key!r}: expected a number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"malformed value for {key!r}: expected a string, got {value!r}")
    return value


def parse_config(source: str) -> ExperimentConfig:
    """Parse a flat key/value config document, filling documented defaults.

    Unknown keys and malformed values are rejected with the offending key
    named in the diagnostic.
    """
    try:
        raw = yaml.safe_load(source)
    except yaml.YAMLError as exc:
        raise ValueError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError("config must be a flat key/value mapping")
    types = get_type_hints(ExperimentConfig)
    for key in raw:
        if key not in types:
            raise ValueError(f"unknown config key {key!r}")
    for field in fields(ExperimentConfig):
        if field.default is MISSING and field.name not in raw:
            raise ValueError(f"missing required config key {field.name!r}")
    return ExperimentConfig(**{key: _coerce(key, value, types[key]) for key, value in raw.items()})


def build_objective(config: ExperimentConfig, seed: int) -> Objective:
    """Objective for one repetition; dynamic landscapes are seeded per repetition.

    The landscape stream is decorrelated from the optimizer stream of the
    same repetition via a distinct spawn key.
    """
    if config.benchmark == "moving_peaks":
        return make_moving_peaks(
            peak_count=config.peak_count,
            dim=config.dim,
            lower=config.peaks_lower,
            upper=config.peaks_upper,
            shift_interval=config.shift_interval,
            shift_length=config.shift_length,
            seed=np.random.SeedSequence(seed, spawn_key=(2,)),
        )
    return lookup(config.benchmark, config.dim)


def run_multiswarm(
    objective: Objective,
    params: FaParams,
    config: MultiSwarmConfig,
    seed: int,
) -> tuple[RunReport, list[dict]]:
    """Multi-swarm search until the shared evaluation budget is spent.

    Change detection uses fixed sentinel probes drawn from a stream
    decorrelated from the swarms.  The budget is enforced on the total
    across swarms, so the final generation may overshoot by at most one
    generation's worth of evaluations.  Returns the report plus the
    interaction event log (exclusions, anti-convergence resets, detected
    landscape changes), each tagged with its generation.
    """
    swarms = initialize_multiswarm(objective, params, config, seed)
    sentinels = make_sentinels(objective, config.sentinel_count, np.random.SeedSequence(seed, spawn_key=(3,)))
    events: list[dict] = []
    trace: list[tuple[int, int, float]] = []
    gen = 0
    total = 0
    global_best = None
    while total < params.max_fes:
        log: list[dict] = []
        multiswarm_step(swarms, config, objective, params, log=log, sentinels=sentinels)
        for event in log:
            event["generation"] = gen
            events.append(event)
        total = sum(s.fes_used for s in swarms)
        bests = [s.best for s in swarms if s.best is not None]
        global_best = min(bests, key=lambda b: b.fitness)
        trace.append((gen, total, global_best.fitness))
        gen += 1
    report = RunReport(trace=trace, final_best=global_best.copy(), fes_total=total, seed=seed)
    return report, events


# The runners look up the variant hooks as module globals at call time, so
# a replaced global (for instance a tracing wrapper) sees every call.


def _run_base(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    return run(objective, params, seed)


def _run_elitist(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    m = config.elitist_trials

    def elitist_sweep(state, objective, params, alpha_t):
        pairwise_sweep(state, objective, params, alpha_t)
        elitist_best_move(state, m, params, objective, alpha=alpha_t)

    return run(objective, params, seed, sweep=elitist_sweep)


def _run_levy(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    lam = config.levy_lambda

    def levy_sweep(state, objective, params, alpha_t):
        pairwise_sweep(state, objective, params, alpha_t, eps_fn=lambda rng, n: levy_step(rng, n, lam))

    return run(objective, params, seed, sweep=levy_sweep)


def _run_pull(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    return run(objective, params, seed, sweep=global_best_pull_step)


def _run_multiswarm(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    report, _ = run_multiswarm(objective, params, config.multiswarm, seed)
    return report


# variant -> (runner, reduction_mode preset applied to the params or None)
VARIANTS = {
    "base": (_run_base, None),
    "elitist": (_run_elitist, None),
    "gaussian_pull": (_run_pull, None),
    "levy": (_run_levy, None),
    "chaotic_alpha": (_run_base, None),
    "multiswarm": (_run_multiswarm, None),
    "sa_like": (_run_base, "sa_like"),
    "de_like": (_run_base, "de_like"),
    "pso_like": (_run_pull, "pso_like"),
}


def run_single(config: ExperimentConfig, seed: int) -> RunReport:
    """One repetition of the configured variant with the given seed."""
    objective = build_objective(config, seed)
    runner, preset = VARIANTS[config.variant]
    params = config.params if preset is None else reduction_mode(preset, config.params, seed=seed)
    return runner(objective, params, config, seed)


def _optimum_value(config: ExperimentConfig) -> Optional[float]:
    if config.benchmark == "moving_peaks":
        return None
    return lookup(config.benchmark, config.dim).known_optimum[1]


def summarize(reports: list[RunReport], optimum_value: Optional[float], threshold: float) -> SummaryStats:
    finals = np.array([r.final_best.fitness for r in reports])
    success_rate = None
    mean_fes = None
    if optimum_value is not None:
        bar = optimum_value + threshold
        hits = [r for r in reports if r.final_best.fitness <= bar]
        success_rate = len(hits) / len(reports)
        if hits:
            firsts = []
            for r in hits:
                firsts.append(next(fes for _, fes, best in r.trace if best <= bar))
            mean_fes = float(np.mean(firsts))
    return SummaryStats(
        mean_best=float(np.mean(finals)),
        std_best=float(np.std(finals)),
        min_best=float(np.min(finals)),
        max_best=float(np.max(finals)),
        success_rate=success_rate,
        mean_fes_to_success=mean_fes,
    )


def run_experiment(config: ExperimentConfig, workers: int = 1) -> tuple[SummaryStats, list[RunReport]]:
    """All repetitions of one experiment; repetition r uses seed base_seed + r.

    Repetitions are independent, so workers > 1 executes them concurrently;
    results are aggregated in repetition order either way and the outputs
    are identical.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = [config.base_seed + r for r in range(config.repetitions)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda s: run_single(config, s), seeds))
    else:
        reports = [run_single(config, s) for s in seeds]
    stats = summarize(reports, _optimum_value(config), config.success_threshold)
    return stats, reports


def _median_columns(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=0) of a float array, the same bits, partitioning a in place.

    The steps are np.median's: partition at the middle index (odd row
    count) or pair (even) and at the last index, take the mean of the
    middle slice, and give NaN for a column holding one.  np.median's own
    NaN check also asks whether the result is a masked array, and its first
    call imports numpy.ma: over 1 MiB of resident memory, at the point where
    a run's peak is reached.
    """
    n = a.shape[0]
    h = n // 2
    a.partition([h, -1] if n % 2 else [h - 1, h, -1], axis=0)
    median = np.mean(a[h - 1 + n % 2 : h + 1], axis=0)
    np.copyto(median, a[-1], where=np.isnan(a[-1]))
    return median


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_results(
    stats: SummaryStats,
    reports: list[RunReport],
    config: ExperimentConfig,
    out_dir=None,
) -> list[Path]:
    """Write the summary record, one curve file per repetition, and the median curve.

    Curve files are CSV with header generation,fes_used,best_fitness and
    fitness printed with 17 significant digits, which round-trips binary
    floating point exactly.  Re-emitting the same results is byte-identical.
    """
    target = out_dir if out_dir is not None else config.output_dir
    if target is None:
        raise ValueError("no output directory: set output_dir in the config or pass out_dir")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    summary = {"config": config.flat(), "stats": asdict(stats)}
    path = out / "summary.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(path)

    for r, report in enumerate(reports):
        lines = ["generation,fes_used,best_fitness"]
        for gen, fes, best in report.trace:
            lines.append(f"{gen},{fes},{_fmt(best)}")
        path = out / f"curve_rep{r:03d}.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    # One median over a (reps, depth) array per column covers every
    # generation of the common prefix.  lines is rebound first, freeing the
    # last curve's lines; fromiter raises the peak resident size less than
    # nested lists do.
    lines = ["generation,fes_used,best_fitness"]
    depth = min(len(r.trace) for r in reports)
    fes_col, best_col = (
        _median_columns(np.array([np.fromiter((row[k] for row in r.trace), float, depth) for r in reports]))
        for k in (1, 2)
    )
    for g, (fes, best) in enumerate(zip(fes_col, best_col)):
        lines.append(f"{g},{_fmt(fes)},{_fmt(best)}")
    path = out / "median_curve.csv"
    path.write_text("\n".join(lines) + "\n")
    written.append(path)
    return written


COMPARE_COLUMNS = ("variant", "mean_best", "std_best", "success_rate", "mean_fes_to_success")


def compare_variants(configs: list[ExperimentConfig], workers: int = 1) -> str:
    """Run several configs on one benchmark and tabulate their summaries.

    All configs must share the benchmark, dimension, and evaluation
    budget; rows follow the input order.  Absent statistics are left
    empty.
    """
    if not configs:
        raise ValueError("no configs to compare")
    head = configs[0]
    for cfg in configs[1:]:
        if (cfg.benchmark, cfg.dim) != (head.benchmark, head.dim):
            raise ValueError("compared configs must share the same benchmark and dim")
        if cfg.max_fes != head.max_fes:
            raise ValueError("compared configs must share the same evaluation budget")
    lines = [
        f"# benchmark={head.benchmark},dim={head.dim},max_fes={head.max_fes}",
        ",".join(COMPARE_COLUMNS),
    ]
    for cfg in configs:
        stats, _ = run_experiment(cfg, workers=workers)
        cells = [
            cfg.variant,
            _fmt(stats.mean_best),
            _fmt(stats.std_best),
            "" if stats.success_rate is None else _fmt(stats.success_rate),
            "" if stats.mean_fes_to_success is None else _fmt(stats.mean_fes_to_success),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
