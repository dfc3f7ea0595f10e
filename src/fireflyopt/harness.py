"""Seeded experiment harness: config parsing, repetition runs, summaries, files.

A config is a flat key/value document (YAML subset).  Repetition r always
runs with seed base_seed + r, so experiments are reproducible end to end:
the same config yields byte-identical output files for every workers count.
Repetitions run in seed order on the calling thread.  Threads would
overlap only in numpy's normal draw and the C sweep's call, which release
the interpreter lock (about 19 and 9 us of a 57 us generation at pop 25,
dim 5), and each release costs a lock handoff between the threads: a
two-thread pool took a base-variant run from 0.41 to 0.51 s and the
dynamic_multiswarm config from 0.84 to 1.21 s, with 15,502 and 39,260
context switches against 7 and 47 (medians of 7 runs, same digests,
2-vCPU VM; README "Command line").
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .benchmarks import benchmark_names, lookup, make_moving_peaks
from .core import FaParams, Objective, RunReport, _run, pairwise_sweep, run
# levy_step is not called here: the levy variant draws its steps through
# core's step table.  It stays a module global because perfbench/probe.py
# wraps harness.levy_step.
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

# every benchmark name a config may give: the registry's, then the dynamic one
BENCHMARKS = (*benchmark_names(), "moving_peaks")
# key -> the least value a config may give it, whatever the variant (an unset
# swarm_size, None, has none)
_FLOORS = {"repetitions": 1, "base_seed": 0, "dim": 1, "elitist_trials": 0, "num_swarms": 1, "swarm_size": 1,
           "sentinel_count": 0, "peak_count": 1, "shift_interval": 1}


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
    repetition does.  Whatever the variant, the keys in _FLOORS have a
    floor and every number must be finite.
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
        if self.benchmark not in BENCHMARKS:
            raise ValueError(f"unknown benchmark {self.benchmark!r}; known: {', '.join(BENCHMARKS)}")
        for key, floor in _FLOORS.items():
            if (value := getattr(self, key)) is not None and value < floor:
                raise ValueError(f"malformed value for {key!r}: must be >= {floor}, got {value}")

        _, _, forced, steps = VARIANTS[self.variant]
        if forced is not None:
            key, value = forced
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
        if self.epsilon_kind == "levy":
            raise ValueError("malformed value for 'epsilon_kind': levy steps are the levy variant's; "
                             "set variant: levy instead")
        if steps is not None and self.epsilon_kind != "gaussian":
            raise ValueError(f"malformed value for 'epsilon_kind': the {self.variant} variant draws its own steps, "
                             f"got {self.epsilon_kind!r}; drop the key or set it to 'gaussian'")
        self.params  # validates the run parameters

        if self.variant == "multiswarm" and self.swarm_size is None:
            if self.num_swarms > self.pop_size:
                raise ValueError(
                    f"malformed value for 'num_swarms': must not exceed pop_size ({self.pop_size}) "
                    f"when swarm_size is not set, got {self.num_swarms}"
                )
            object.__setattr__(self, "swarm_size", self.pop_size // self.num_swarms)
        objective = build_objective(self, self.base_seed)
        if self.multiswarm is not None:
            initialize_multiswarm(objective, self.params, self.multiswarm, self.base_seed)
        # last, so that the owner of a key the variant reads names it first
        for key, value in self.flat().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"malformed value for {key!r}: must be finite, got {value}")

    @cached_property
    def params(self) -> FaParams:
        """The run parameters, alpha schedule included.

        FaParams checks its fields before the schedule is built from alpha,
        so an invalid alpha is named as such.  A variant that draws its own
        steps runs with their epsilon_kind; the summary still echoes the
        config's key.
        """
        params = FaParams(
            alpha=self.alpha,
            beta0=self.beta0,
            gamma=self.gamma,
            pop_size=self.pop_size,
            max_fes=self.max_fes,
            epsilon_kind=VARIANTS[self.variant][3] or self.epsilon_kind,
            update_scheme=self.update_scheme,
            elitism=self.elitism,
            levy_lambda=self.levy_lambda,
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
        try:
            return float(value)
        except OverflowError as exc:  # an integer beyond the largest float
            raise ValueError(f"malformed value for {key!r}: {exc}") from None
    if not isinstance(value, str):
        raise ValueError(f"malformed value for {key!r}: expected a string, got {value!r}")
    return value


class _ConfigLoader(yaml.SafeLoader):
    """yaml.safe_load's loader, except that a mapping may not repeat a key."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep)
        if len(mapping) < len(node.value):
            seen = set()
            for key_node, _ in node.value:
                key = self.construct_object(key_node)
                if key in seen:
                    raise ValueError(f"repeated config key {key!r}")
                seen.add(key)
        return mapping


def parse_config(source: str) -> ExperimentConfig:
    """Parse a flat key/value config document, filling documented defaults.

    Unknown and repeated keys and malformed values are rejected with the
    offending key named in the diagnostic.
    """
    try:
        raw = yaml.load(source, Loader=_ConfigLoader)
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

    The landscape stream is SeedSequence(seed, spawn_key=(2,)).  That is
    also the stream of swarm 2 of a multiswarm run with 3 or more swarms
    (initialize_multiswarm spawns swarm k with key (k,)), so the two are
    not independent: that swarm draws its first positions from the
    landscape's own draws.
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

    Change detection uses fixed sentinel probes drawn from the stream
    SeedSequence(seed, spawn_key=(3,)).  That is also swarm 3's stream when
    there are 4 or more swarms, so the sentinels then sit on that swarm's
    first positions.  core._run runs one multiswarm_step per generation and
    checks the budget on the total across swarms between generations, so
    the final generation may overshoot by at most one generation's worth of
    evaluations.  Returns the report plus the interaction event log
    (exclusions, anti-convergence resets, detected landscape changes), each
    tagged with its generation.

    A layout that initialize_multiswarm rejects (sentinel probes that use
    up the budget among them) raises ValueError before any evaluation.
    """
    swarms = initialize_multiswarm(objective, params, config, seed)
    sentinels = make_sentinels(objective, config.sentinel_count, np.random.SeedSequence(seed, spawn_key=(3,)))
    events: list[dict] = []

    def generation(g: int) -> None:
        # a fresh log per call, which perfbench/probe.py counts
        log: list[dict] = []
        multiswarm_step(swarms, config, objective, params, log=log, sentinels=sentinels)
        events.extend(map(partial(dict, generation=g), log))

    return _run(swarms, params, seed, generation), events


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


def _run_pull(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    return run(objective, params, seed, sweep=global_best_pull_step)


def _run_multiswarm(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    report, _ = run_multiswarm(objective, params, config.multiswarm, seed)
    return report


# variant -> (runner, reduction_mode preset applied to the params, (key, value)
# the variant forces, epsilon_kind it draws whatever the config says); None
# where it has none.  Any other explicit value of a forced key is an error.
VARIANTS = {
    "base": (_run_base, None, None, None),
    "elitist": (_run_elitist, None, ("elitism", True), None),
    "gaussian_pull": (_run_pull, None, None, "gaussian"),
    "levy": (_run_base, None, None, "levy"),
    "chaotic_alpha": (_run_base, None, ("alpha_schedule", "chaotic"), None),
    "multiswarm": (_run_multiswarm, None, None, None),
    "sa_like": (_run_base, "sa_like", None, None),
    "de_like": (_run_base, "de_like", None, None),
    "pso_like": (_run_pull, "pso_like", None, "gaussian"),
}


def run_single(config: ExperimentConfig, seed: int) -> RunReport:
    """One repetition of the configured variant with the given seed."""
    objective = build_objective(config, seed)
    runner, preset, _, _ = VARIANTS[config.variant]
    params = config.params if preset is None else reduction_mode(preset, config.params, seed=seed)
    return runner(objective, params, config, seed)


def summarize(reports: list[RunReport], optimum_value: Optional[float], threshold: float) -> SummaryStats:
    finals = np.array([r.final_best.fitness for r in reports])
    success_rate = None
    mean_fes = None
    if optimum_value is not None:
        bar = optimum_value + threshold
        hits = [r for r in reports if r.final_best.fitness <= bar]
        success_rate = len(hits) / len(reports)
        if hits:
            mean_fes = float(np.mean([next(fes for _, fes, best in r.trace if best <= bar) for r in hits]))
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

    workers (>= 1) is the cap that process-parallel repetitions will honour.
    Today it does not change how repetitions run: they run in seed order on
    the calling thread, so the outputs are the same for every workers count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    reports = [run_single(config, config.base_seed + r) for r in range(config.repetitions)]
    optimum = build_objective(config, config.base_seed).known_optimum
    stats = summarize(reports, None if optimum is None else optimum[1], config.success_threshold)
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
