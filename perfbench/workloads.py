"""The benchmark's workloads: which fireflyopt commands run, on which configs.

A workload is a list of CLI invocations run one after another.  Each
invocation reads config files generated from the workload seed, which is
written as base_seed and also forwarded as --seed; the program sees nothing
else of the benchmark.  Every invocation uses --workers 2, the core count
of the reference machine, so repetition parallelism comes only from there.
Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKERS = 2

# The criterion-4 acceptance protocol of the test suite: sphere, dim 5,
# default parameters (pop 25, alpha 0.2 decaying by 0.97, gamma 1) and a
# budget of 50k evaluations per repetition.
PAPER_VARIANTS = ("base", "elitist", "levy", "chaotic_alpha", "gaussian_pull")
PAPER_CONFIG = """\
benchmark: sphere
variant: {variant}
repetitions: 2
base_seed: {seed}
dim: 5
pop_size: 25
max_fes: 50000
"""

SCALE_SCHEMES = ("asynchronous", "synchronous")
SCALE_CONFIG = """\
benchmark: rastrigin
variant: base
repetitions: 1
base_seed: {seed}
dim: 50
pop_size: 200
max_fes: 1000
update_scheme: {scheme}
"""

DYNAMIC_CONFIG = """\
benchmark: moving_peaks
variant: multiswarm
repetitions: 4
base_seed: {seed}
dim: 5
pop_size: 40
num_swarms: 5
sentinel_count: 3
shift_interval: 2000
max_fes: 40000
"""


@dataclass(frozen=True)
class Config:
    """One generated config file and what its artifacts must satisfy."""

    name: str
    text: str
    repetitions: int
    max_fes: int
    # One swarm spends exactly max_fes and its best-so-far never rises;
    # multiswarm overshoots by up to one generation and resets swarm bests.
    single_swarm: bool


@dataclass(frozen=True)
class Invocation:
    """One fireflyopt command: `run` with one config or `compare` with several."""

    command: str
    configs: tuple[Config, ...]

    def cli_args(self, config_dir: Path, out_dir: Path, seed: int) -> list[str]:
        paths = [str(config_dir / f"{c.name}.yaml") for c in self.configs]
        if self.command == "run":
            return ["run", "--config", paths[0], "--out", str(out_dir), "--seed", str(seed),
                    "--workers", str(WORKERS)]
        return ["compare", "--configs", *paths, "--out", str(out_dir), "--seed", str(seed),
                "--workers", str(WORKERS)]


def _config(name, template, seed, repetitions, max_fes, single_swarm, **fields) -> Config:
    return Config(name, template.format(seed=seed, **fields), repetitions, max_fes, single_swarm)


def paper_suite(seed: int) -> list[Invocation]:
    return [
        Invocation("run", (_config(v, PAPER_CONFIG, seed, 2, 50_000, True, variant=v),))
        for v in PAPER_VARIANTS
    ]


def scale_pop200_d50(seed: int) -> list[Invocation]:
    configs = tuple(
        _config(s, SCALE_CONFIG, seed, 1, 1000, True, scheme=s) for s in SCALE_SCHEMES
    )
    return [Invocation("compare", configs)]


def dynamic_multiswarm(seed: int) -> list[Invocation]:
    return [Invocation("run", (_config("multiswarm", DYNAMIC_CONFIG, seed, 4, 40_000, False),))]


WORKLOADS = {
    "paper_suite": paper_suite,
    "scale_pop200_d50": scale_pop200_d50,
    "dynamic_multiswarm": dynamic_multiswarm,
}


def base_seed(seed: int) -> int:
    """The base_seed a workload seed maps to (numpy seeds must be non-negative)."""
    return seed % 2**32


def write_configs(invocations: list[Invocation], config_dir: Path) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for inv in invocations:
        for c in inv.configs:
            (config_dir / f"{c.name}.yaml").write_text(c.text)
