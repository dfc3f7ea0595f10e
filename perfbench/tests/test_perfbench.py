"""Self-checks of the benchmark: probes, artifact checks and committed digests.

    python3 -m pytest perfbench/tests -q

They run small versions of the three workload shapes, so they take seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from checks import check
from workloads import WORKLOADS, Config, Invocation

ROOT = Path(__file__).resolve().parents[2]


def _tiny_paper(seed):
    text = "benchmark: sphere\nvariant: {v}\nrepetitions: 2\nbase_seed: {s}\ndim: 3\npop_size: 10\nmax_fes: 2000\n"
    return [Invocation("run", (Config(v, text.format(v=v, s=seed), 2, 2000, True),))
            for v in ("elitist", "levy", "chaotic_alpha", "gaussian_pull")]


def _tiny_scale(seed):
    text = ("benchmark: rastrigin\nvariant: base\nrepetitions: 1\nbase_seed: {s}\ndim: 4\npop_size: 12\n"
            "max_fes: 240\nupdate_scheme: {u}\n")
    return [Invocation("compare", tuple(Config(u, text.format(s=seed, u=u), 1, 240, True)
                                        for u in ("asynchronous", "synchronous")))]


def _tiny_dynamic(seed):
    text = ("benchmark: moving_peaks\nvariant: multiswarm\nrepetitions: 2\nbase_seed: {s}\ndim: 3\npop_size: 16\n"
            "num_swarms: 4\nsentinel_count: 2\nshift_interval: 300\nmax_fes: 3000\n")
    return [Invocation("run", (Config("multiswarm", text.format(s=seed), 2, 3000, False),))]


TINY = {"tiny_paper": _tiny_paper, "tiny_scale": _tiny_scale, "tiny_dynamic": _tiny_dynamic}
COUNT_METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                 if m["unit"] in ("count", "B")]


@pytest.fixture
def runner(monkeypatch, tmp_path):
    for name, make in TINY.items():
        monkeypatch.setitem(WORKLOADS, name, make)
    return lambda name, seed=3: bench.Runner(name, seed, tmp_path / name)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_runs_repeat_counts_match_fes_total_and_untraced_digests(runner, workload):
    r = runner(workload)
    plain = r.iteration()
    runs = []
    for _ in range(2):
        reps, traced = r.iteration("reps"), r.iteration("trace")
        assert reps["failed"] == traced["failed"] == 0, reps["problems"] + traced["problems"]
        assert plain["digests"] == reps["digests"] == traced["digests"]
        runs.append(bench.layer_metrics(reps, traced, traced["fes"]))
        assert runs[-1]["benchmarks.eval_calls"] == traced["fes"] > 0
    assert {m: runs[0][m] for m in COUNT_METRICS} == {m: runs[1][m] for m in COUNT_METRICS}
    if workload == "tiny_dynamic":
        assert runs[0]["variants.probe_evals"] > 0
        assert runs[0]["variants.change_events"] > 0


def test_setup_probe_stops_after_the_first_objective(runner):
    r = runner("tiny_dynamic")
    assert 0 < r.setup_time() < 30
    assert not (r.work / f"setup{r.runs}").exists()  # nothing was emitted


def _emit(inv, tmp_path):
    config_dir, out = tmp_path / "configs", tmp_path / "out"
    config_dir.mkdir()
    for c in inv.configs:
        (config_dir / f"{c.name}.yaml").write_text(c.text)
    proc = subprocess.run([sys.executable, "-m", "fireflyopt", *inv.cli_args(config_dir, out, 3)],
                          env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=120)
    return out, proc


def test_checks_fail_the_repetitions_a_changed_artifact_belongs_to(tmp_path):
    inv = _tiny_dynamic(3)[0]
    out, proc = _emit(inv, tmp_path)
    good = check(inv, out, proc.stdout, proc.returncode, 3, None)
    assert (good.failed, good.attempted) == (0, 2), good.problems

    # a reference that disagrees on one curve fails that repetition only
    stale = dict(good.digests, **{"multiswarm/curve_rep001.csv": "0" * 64})
    assert check(inv, out, proc.stdout, 0, 3, stale).failed == 1
    # an edited curve no longer matches the median curve either: all fail
    curve = out / "curve_rep001.csv"
    original = curve.read_text()
    curve.write_text(original.replace("\n1,", "\n1,1", 1))
    assert check(inv, out, proc.stdout, 0, 3, good.digests).failed == 2
    curve.write_text(original)

    summary = out / "summary.json"
    summary.write_text(summary.read_text().replace('"base_seed": 3', '"base_seed": 4'))
    assert check(inv, out, proc.stdout, 0, 3, None).failed == 2
    assert check(inv, out, proc.stdout, 1, 3, None).failed == 2


def test_compare_table_must_equal_stdout(tmp_path):
    inv = _tiny_scale(3)[0]
    out, proc = _emit(inv, tmp_path)
    assert check(inv, out, proc.stdout, proc.returncode, 3, None).failed == 0
    assert check(inv, out, proc.stdout + "x", proc.returncode, 3, None).failed == 2


def test_committed_digests_cover_the_default_and_holdout_seeds():
    table = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    for workload, make in WORKLOADS.items():
        for seed in (bench.DEFAULT_SEED, bench.HOLDOUT_SEED):
            artifacts = sum(1 if inv.command == "compare" else 2 + inv.configs[0].repetitions
                            for inv in make(seed))
            assert len(table[workload][str(seed)]) == artifacts


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_suite", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
