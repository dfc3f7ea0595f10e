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
