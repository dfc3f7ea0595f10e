"""Golden digests: every emitted artifact of a set of small configs, byte for byte.

The digests in golden_digests.json pin the whole artifact set (summary.json,
curve_rep###.csv, median_curve.csv) of each config below, so a refactor
that drifts any trace by a single ulp fails here.  To print the digests of
the current source as JSON:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fireflyopt import emit_results, parse_config, run_experiment

GOLDEN = Path(__file__).with_name("golden_digests.json")

SMALL = """\
benchmark: {benchmark}
variant: {variant}
repetitions: 2
base_seed: 11
dim: 2
pop_size: 10
max_fes: 600
"""

ABOVE_CROSSOVER = """\
benchmark: rastrigin
variant: {variant}
repetitions: 2
base_seed: 11
dim: 10
pop_size: 40
max_fes: 400
"""

MULTISWARM = "num_swarms: 2\n"

CONFIGS = {
    **{
        f"sphere_{variant}": SMALL.format(benchmark="sphere", variant=variant)
        + (MULTISWARM if variant == "multiswarm" else "")
        for variant in (
            "base",
            "elitist",
            "gaussian_pull",
            "levy",
            "chaotic_alpha",
            "multiswarm",
            "sa_like",
            "de_like",
            "pso_like",
        )
    },
    "sphere_base_uniform_centered": SMALL.format(benchmark="sphere", variant="base")
    + "epsilon_kind: uniform_centered\n",
    "sphere_base_synchronous": SMALL.format(benchmark="sphere", variant="base")
    + "update_scheme: synchronous\n",
    "sphere_elitist_synchronous": SMALL.format(benchmark="sphere", variant="elitist")
    + "update_scheme: synchronous\n",
    "four_peaks_base": SMALL.format(benchmark="four_peaks", variant="base"),
    "rastrigin_base_d3": SMALL.format(benchmark="rastrigin", variant="base").replace("dim: 2", "dim: 3"),
    # pop * dim above core.ROW_SWEEP_MIN_CELLS: these pin the row-parallel sweep
    **{
        f"rastrigin_{name}_d10_pop40": ABOVE_CROSSOVER.format(variant=variant) + extra
        for name, variant, extra in (
            ("base", "base", ""),
            ("base_synchronous", "base", "update_scheme: synchronous\n"),
            ("elitist", "elitist", ""),
            ("levy", "levy", ""),
        )
    },
    "moving_peaks_multiswarm": """\
benchmark: moving_peaks
variant: multiswarm
repetitions: 2
base_seed: 11
dim: 2
pop_size: 12
num_swarms: 3
sentinel_count: 2
shift_interval: 150
max_fes: 900
""",
    # swarms of 8 x 5: exclusion, anti-convergence and change events all fire
    "moving_peaks_multiswarm_d5_pop40": """\
benchmark: moving_peaks
variant: multiswarm
repetitions: 2
base_seed: 11
dim: 5
pop_size: 40
num_swarms: 5
sentinel_count: 3
shift_interval: 1000
max_fes: 6000
""",
    # shift_interval 7 divides no evaluation pass: shifts land mid-batch
    "moving_peaks_base_shift7": SMALL.format(benchmark="moving_peaks", variant="base")
    + "shift_interval: 7\n",
    "moving_peaks_multiswarm_shift7": """\
benchmark: moving_peaks
variant: multiswarm
repetitions: 2
base_seed: 11
dim: 3
pop_size: 24
num_swarms: 3
sentinel_count: 3
shift_interval: 7
max_fes: 1200
""",
}


def artifact_digests(text: str, out_dir: Path) -> dict[str, str]:
    config = parse_config(text)
    stats, reports = run_experiment(config)
    written = emit_results(stats, reports, config, out_dir)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert artifact_digests(CONFIGS[name], tmp_path) == golden[name]


def test_golden_digests_cover_every_config():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CONFIGS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: artifact_digests(text, Path(tmp) / name) for name, text in sorted(CONFIGS.items())}
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
