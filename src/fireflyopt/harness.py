"""Seeded experiment harness: config parsing, repetition runs, summaries, files.

A config is a flat key/value document (YAML subset).  Repetition r always
runs with seed base_seed + r, so experiments are reproducible end to end:
the same config yields byte-identical output files, whether repetitions
run sequentially or concurrently.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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

_REQUIRED_KEYS = ("benchmark", "variant", "repetitions", "base_seed")

# key -> (type, default); None default means resolved elsewhere
_KEY_SPEC = {
    "benchmark": (str, None),
    "variant": (str, None),
    "repetitions": (int, None),
    "base_seed": (int, None),
    "dim": (int, 2),
    "alpha": (float, 0.2),
    "beta0": (float, 1.0),
    "gamma": (float, 1.0),
    "pop_size": (int, 25),
    "max_fes": (int, 50_000),
    "epsilon_kind": (str, "gaussian"),
    "update_scheme": (str, "asynchronous"),
    "elitism": (bool, None),
    "alpha_schedule": (str, None),
    "schedule_ratio": (float, 0.97),
    "schedule_x0": (float, 0.7),
    "success_threshold": (float, 1e-2),
    "output_dir": (str, None),
    "levy_lambda": (float, 1.5),
    "elitist_trials": (int, 2),
    "num_swarms": (int, 5),
    "swarm_size": (int, None),
    "exclusion_radius": (float, 0.1),
    "anticonvergence_radius": (float, 0.05),
    "sentinel_count": (int, 1),
    "peak_count": (int, 5),
    "shift_interval": (int, 5000),
    "shift_length": (float, 10.0),
    "peaks_lower": (float, 0.0),
    "peaks_upper": (float, 100.0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    benchmark: str
    dim: int
    variant: str
    repetitions: int
    base_seed: int
    params: FaParams
    success_threshold: float
    output_dir: Optional[str]
    levy_lambda: float
    elitist_trials: int
    multiswarm: Optional[MultiSwarmConfig]
    peak_count: int
    shift_interval: Optional[int]
    shift_length: float
    peaks_lower: float
    peaks_upper: float

    def flat(self) -> dict:
        """Canonical flat key/value form, defaults filled in.

        The output destination is excluded on purpose: emitted artifacts
        must not depend on where they are written.
        """
        sched = self.params.alpha_schedule
        ms = self.multiswarm
        return {
            "benchmark": self.benchmark,
            "variant": self.variant,
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "dim": self.dim,
            "alpha": self.params.alpha,
            "beta0": self.params.beta0,
            "gamma": self.params.gamma,
            "pop_size": self.params.pop_size,
            "max_fes": self.params.max_fes,
            "epsilon_kind": self.params.epsilon_kind,
            "update_scheme": self.params.update_scheme,
            "elitism": self.params.elitism,
            "alpha_schedule": sched.kind,
            "schedule_ratio": sched.ratio,
            "schedule_x0": sched.x0,
            "success_threshold": self.success_threshold,
            "levy_lambda": self.levy_lambda,
            "elitist_trials": self.elitist_trials,
            "num_swarms": ms.num_swarms if ms else _KEY_SPEC["num_swarms"][1],
            "swarm_size": ms.swarm_size if ms else None,
            "exclusion_radius": ms.exclusion_radius if ms else _KEY_SPEC["exclusion_radius"][1],
            "anticonvergence_radius": (
                ms.anticonvergence_radius if ms else _KEY_SPEC["anticonvergence_radius"][1]
            ),
            "sentinel_count": ms.sentinel_count if ms else _KEY_SPEC["sentinel_count"][1],
            "peak_count": self.peak_count,
            "shift_interval": self.shift_interval,
            "shift_length": self.shift_length,
            "peaks_lower": self.peaks_lower,
            "peaks_upper": self.peaks_upper,
        }


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


def _coerce(key: str, value):
    want, _ = _KEY_SPEC[key]
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
    for key in raw:
        if key not in _KEY_SPEC:
            raise ValueError(f"unknown config key {key!r}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ValueError(f"missing required config key {key!r}")

    values = {}
    for key, (_, default) in _KEY_SPEC.items():
        values[key] = _coerce(key, raw[key]) if key in raw else default

    variant = values["variant"]
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}")
    benchmark = values["benchmark"]
    if benchmark != "moving_peaks" and benchmark not in benchmark_names():
        raise ValueError(
            f"unknown benchmark {benchmark!r}; known: {', '.join(benchmark_names())}, moving_peaks"
        )
    if values["repetitions"] < 1:
        raise ValueError("malformed value for 'repetitions': must be >= 1")

    schedule_kind = values["alpha_schedule"]
    if variant == "chaotic_alpha":
        if schedule_kind not in (None, "chaotic"):
            raise ValueError("the chaotic_alpha variant requires alpha_schedule 'chaotic'")
        schedule_kind = "chaotic"
    elif schedule_kind is None:
        schedule_kind = "geometric"
    schedule = ScheduleDescriptor(
        kind=schedule_kind,
        alpha0=values["alpha"],
        ratio=values["schedule_ratio"],
        x0=values["schedule_x0"],
    )

    elitism = values["elitism"]
    if variant == "elitist":
        if elitism is False:
            raise ValueError("the elitist variant requires elitism; drop the 'elitism' key or set it true")
        elitism = True
    elif elitism is None:
        elitism = False

    params = FaParams(
        alpha=values["alpha"],
        beta0=values["beta0"],
        gamma=values["gamma"],
        pop_size=values["pop_size"],
        max_fes=values["max_fes"],
        epsilon_kind=values["epsilon_kind"],
        update_scheme=values["update_scheme"],
        alpha_schedule=schedule,
        elitism=elitism,
    )

    ms = None
    if variant == "multiswarm":
        swarm_size = values["swarm_size"]
        if swarm_size is None:
            if params.pop_size % values["num_swarms"] != 0:
                raise ValueError(
                    "malformed value for 'num_swarms': it must divide pop_size, "
                    "or set 'swarm_size' explicitly"
                )
            swarm_size = params.pop_size // values["num_swarms"]
        ms = MultiSwarmConfig(
            num_swarms=values["num_swarms"],
            swarm_size=swarm_size,
            exclusion_radius=values["exclusion_radius"],
            anticonvergence_radius=values["anticonvergence_radius"],
            sentinel_count=values["sentinel_count"],
        )
        if ms.num_swarms * ms.swarm_size != params.pop_size:
            raise ValueError("num_swarms * swarm_size must equal pop_size")

    return ExperimentConfig(
        benchmark=benchmark,
        dim=values["dim"],
        variant=variant,
        repetitions=values["repetitions"],
        base_seed=values["base_seed"],
        params=params,
        success_threshold=values["success_threshold"],
        output_dir=values["output_dir"],
        levy_lambda=values["levy_lambda"],
        elitist_trials=values["elitist_trials"],
        multiswarm=ms,
        peak_count=values["peak_count"],
        shift_interval=values["shift_interval"],
        shift_length=values["shift_length"],
        peaks_lower=values["peaks_lower"],
        peaks_upper=values["peaks_upper"],
    )


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
    started = time.perf_counter()
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
    report = RunReport(
        trace=trace,
        final_best=global_best.copy(),
        fes_total=total,
        seed=seed,
        wall_time=time.perf_counter() - started,
    )
    return report, events


# The runners look up the variant hooks as module globals at call time, so
# a replaced global (for instance a tracing wrapper) sees every call.


def _run_base(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    return run(objective, params, seed)


def _run_elitist(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    m = config.elitist_trials

    def best_move(state, objective, params, alpha_t):
        elitist_best_move(state, m, params, objective, alpha=alpha_t)

    return run(objective, params, seed, best_move=best_move)


def _run_levy(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    lam = config.levy_lambda

    def levy_sweep(state, objective, params, alpha_t):
        pairwise_sweep(state, objective, params, alpha_t, eps_fn=lambda rng, n: levy_step(rng, n, lam))

    return run(objective, params, seed, sweep=levy_sweep)


def _run_pull(objective: Objective, params: FaParams, config: ExperimentConfig, seed: int) -> RunReport:
    def pull_sweep(state, objective, params, alpha_t):
        global_best_pull_step(state, objective, params, alpha=alpha_t)

    return run(objective, params, seed, sweep=pull_sweep)


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
    seeds = [config.base_seed + r for r in range(config.repetitions)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda s: run_single(config, s), seeds))
    else:
        reports = [run_single(config, s) for s in seeds]
    stats = summarize(reports, _optimum_value(config), config.success_threshold)
    return stats, reports


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

    summary = {
        "config": config.flat(),
        "stats": {
            "mean_best": stats.mean_best,
            "std_best": stats.std_best,
            "min_best": stats.min_best,
            "max_best": stats.max_best,
            "success_rate": stats.success_rate,
            "mean_fes_to_success": stats.mean_fes_to_success,
        },
    }
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

    depth = min(len(r.trace) for r in reports)
    lines = ["generation,fes_used,best_fitness"]
    for g in range(depth):
        fes = float(np.median([r.trace[g][1] for r in reports]))
        best = float(np.median([r.trace[g][2] for r in reports]))
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
        if cfg.params.max_fes != head.params.max_fes:
            raise ValueError("compared configs must share the same evaluation budget")
    lines = [
        f"# benchmark={head.benchmark},dim={head.dim},max_fes={head.params.max_fes}",
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
