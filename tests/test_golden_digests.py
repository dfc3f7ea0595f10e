"""Golden digests: every emitted artifact of a set of small configs, byte for byte.

The digests in golden_digests.json pin the whole artifact set (summary.json,
curve_rep###.csv, median_curve.csv) of each config below, so a refactor
that drifts any trace by a single ulp fails here.  To print the digests of
the current source as JSON:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from fireflyopt import core, emit_results, parse_config, run_experiment

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

D10_POP40 = """\
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
    # 605 evaluations: 60 passes of 10, then a last pass cut to 5 rows that
    # is neither sorted nor moved
    **{
        f"sphere_{variant}_cut": SMALL.format(benchmark="sphere", variant=variant).replace("600", "605")
        for variant in ("base", "gaussian_pull")
    },
    "four_peaks_base": SMALL.format(benchmark="four_peaks", variant="base"),
    "rastrigin_base_d3": SMALL.format(benchmark="rastrigin", variant="base").replace("dim: 2", "dim: 3"),
    # 400 cells: these pin the C loop, and the plain Python loop at that size
    # when the loader is disabled
    **{
        f"rastrigin_{name}_d10_pop40": D10_POP40.format(variant=variant) + extra
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


def _reject_constant(name: str):
    raise ValueError(f"summary.json holds {name}, which strict JSON has no literal for")


def artifact_digests(text: str, out_dir: Path) -> dict[str, str]:
    config = parse_config(text)
    stats, reports = run_experiment(config)
    written = emit_results(stats, reports, config, out_dir)
    json.loads((out_dir / "summary.json").read_text(), parse_constant=_reject_constant)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert artifact_digests(CONFIGS[name], tmp_path) == golden[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_digests_on_the_python_sweeps(name, tmp_path, monkeypatch):
    # the same digests from the Python sweep, which runs where the C sweep cannot
    monkeypatch.setattr(core, "_load_native_sweep", lambda: (None, "Python sweeps pinned"))
    golden = json.loads(GOLDEN.read_text())
    assert artifact_digests(CONFIGS[name], tmp_path) == golden[name]


@pytest.mark.parametrize("name", ["sphere_gaussian_pull", "moving_peaks_multiswarm_d5_pop40"])
def test_cli_emits_golden_digests_on_one_blas_thread(name, tmp_path):
    # the CLI runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is set;
    # these two configs make the engine's matmuls (pull_rows r^2 and
    # variants._pair_distances)
    config, out = tmp_path / "config.yaml", tmp_path / "out"
    config.write_text(CONFIGS[name])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(core.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "fireflyopt", "run", "--config", str(config), "--out", str(out)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == json.loads(GOLDEN.read_text())[name]


def test_golden_digests_cover_every_config():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CONFIGS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: artifact_digests(text, Path(tmp) / name) for name, text in sorted(CONFIGS.items())}
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
