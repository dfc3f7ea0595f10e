"""Experiment harness: config parsing, runs, emitted files, compare table, CLI."""

import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fireflyopt import (
    ExperimentConfig,
    Firefly,
    RunReport,
    SummaryStats,
    benchmark_names,
    parse_config,
    run_experiment,
)
from fireflyopt.cli import main
from fireflyopt.harness import _median_columns, compare_variants, emit_results, run_single

MINIMAL = """
benchmark: sphere
variant: base
repetitions: 3
base_seed: 7
"""

SMALL = MINIMAL + """
pop_size: 10
max_fes: 800
"""


def small_config(**overrides):
    doc = SMALL
    for key, value in overrides.items():
        doc += f"{key}: {value}\n"
    return parse_config(doc)


# ------------------------------------------------------------------ parsing


def test_parse_minimal_fills_defaults():
    config = parse_config(MINIMAL)
    assert config.benchmark == "sphere" and config.variant == "base"
    assert config.repetitions == 3 and config.base_seed == 7
    assert config.dim == 2
    assert config.params.alpha == 0.2
    assert config.params.beta0 == 1.0
    assert config.params.gamma == 1.0
    assert config.params.pop_size == 25
    assert config.params.max_fes == 50_000
    assert config.params.epsilon_kind == "gaussian"
    assert config.params.update_scheme == "asynchronous"
    assert config.params.alpha_schedule.kind == "geometric"
    assert config.params.alpha_schedule.ratio == 0.97
    assert config.params.elitism is False
    assert config.success_threshold == 1e-2
    assert config.multiswarm is None


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="gama"):
        parse_config(MINIMAL + "gama: 2.0\n")


def test_parse_rejects_malformed_value():
    with pytest.raises(ValueError, match="alpha"):
        parse_config(MINIMAL + "alpha: sometimes\n")
    with pytest.raises(ValueError, match="pop_size"):
        parse_config(MINIMAL + "pop_size: 12.5\n")


def test_parse_requires_keys():
    with pytest.raises(ValueError, match="base_seed"):
        parse_config("benchmark: sphere\nvariant: base\nrepetitions: 3\n")


def test_parse_gamma_override_passthrough():
    config = parse_config(MINIMAL + "gamma: 3.5\n")
    assert config.params.gamma == 3.5


def test_parse_rejects_unknown_variant_and_benchmark():
    with pytest.raises(ValueError, match="variant"):
        parse_config("benchmark: sphere\nvariant: annealed\nrepetitions: 1\nbase_seed: 0\n")
    with pytest.raises(ValueError, match="benchmark"):
        parse_config("benchmark: schwefel\nvariant: base\nrepetitions: 1\nbase_seed: 0\n")


@pytest.mark.parametrize("name", benchmark_names() + ("moving_peaks",))
@pytest.mark.parametrize("dim", [0, -3])
def test_parse_rejects_non_positive_dim(name, dim):
    # before the check, moving_peaks with dim 0 failed only mid-run, and the
    # registry benchmarks only when the first repetition built its objective
    with pytest.raises(ValueError, match="'dim'"):
        parse_config(f"benchmark: {name}\nvariant: base\nrepetitions: 1\nbase_seed: 0\ndim: {dim}\n")


def test_parse_variant_wiring():
    elitist = parse_config(MINIMAL.replace("variant: base", "variant: elitist"))
    assert elitist.params.elitism is True
    with pytest.raises(ValueError, match="elitism"):
        parse_config(MINIMAL.replace("variant: base", "variant: elitist") + "elitism: false\n")
    chaotic = parse_config(MINIMAL.replace("variant: base", "variant: chaotic_alpha"))
    assert chaotic.params.alpha_schedule.kind == "chaotic"
    with pytest.raises(ValueError, match="chaotic"):
        parse_config(
            MINIMAL.replace("variant: base", "variant: chaotic_alpha") + "alpha_schedule: constant\n"
        )


@pytest.mark.parametrize(
    "variant, key, value",
    [("elitist", "elitism", "false"), ("chaotic_alpha", "alpha_schedule", "geometric"),
     ("chaotic_alpha", "alpha_schedule", "constant")],
)
def test_parse_rejects_forced_setting_conflicts(variant, key, value):
    doc = MINIMAL.replace("variant: base", f"variant: {variant}")
    with pytest.raises(ValueError, match=key):
        parse_config(doc + f"{key}: {value}\n")


# A valid non-default value for every config key, set on the base variant.
ECHO_VALUES = {
    "benchmark": "rastrigin",
    "variant": "levy",
    "repetitions": 4,
    "base_seed": 8,
    "dim": 3,
    "alpha": 0.3,
    "beta0": 0.5,
    "gamma": 2.0,
    "pop_size": 12,
    "max_fes": 900,
    "epsilon_kind": "uniform_centered",
    "update_scheme": "synchronous",
    "elitism": True,
    "alpha_schedule": "constant",
    "schedule_ratio": 0.9,
    "schedule_x0": 0.3,
    "success_threshold": 0.05,
    "levy_lambda": 1.2,
    "elitist_trials": 3,
    "num_swarms": 3,
    "swarm_size": 4,
    "exclusion_radius": 0.2,
    "anticonvergence_radius": 0.02,
    "sentinel_count": 2,
    "peak_count": 3,
    "shift_interval": 300,
    "shift_length": 2.5,
    "peaks_lower": -10.0,
    "peaks_upper": 50.0,
}


@pytest.mark.parametrize("field", [f for f in fields(ExperimentConfig) if f.name != "output_dir"],
                         ids=lambda f: f.name)
def test_summary_echo_reports_each_key_as_set(field):
    # Every key is echoed as the document set it, multiswarm keys on a
    # non-multiswarm variant included.
    value = ECHO_VALUES[field.name]
    assert value != field.default
    settings = {**yaml.safe_load(MINIMAL), field.name: value}
    doc = "".join(f"{key}: {json.dumps(setting)}\n" for key, setting in settings.items())
    assert parse_config(doc).flat()[field.name] == value


def test_parse_multiswarm_layout():
    doc = MINIMAL.replace("variant: base", "variant: multiswarm") + "pop_size: 24\nnum_swarms: 4\n"
    config = parse_config(doc)
    assert config.multiswarm.swarm_size == 6
    with pytest.raises(ValueError, match="num_swarms"):
        parse_config(MINIMAL.replace("variant: base", "variant: multiswarm") + "pop_size: 25\nnum_swarms: 4\n")


@pytest.mark.parametrize("num_swarms", [0, -2])
def test_parse_rejects_non_positive_num_swarms(num_swarms):
    doc = MINIMAL.replace("variant: base", "variant: multiswarm") + f"num_swarms: {num_swarms}\n"
    with pytest.raises(ValueError, match="num_swarms"):
        parse_config(doc)


@pytest.mark.parametrize(
    "key, value",
    [("elitist_trials", "-1"), ("levy_lambda", "5.0"), ("levy_lambda", "1.0"), ("levy_lambda", ".nan"),
     ("success_threshold", ".nan"), ("success_threshold", ".inf")],
)
def test_parse_rejects_out_of_range_variant_keys(key, value):
    # each was accepted, and elitist_trials -1 failed only at run time
    with pytest.raises(ValueError, match=f"malformed value for '{key}'"):
        parse_config(MINIMAL + f"{key}: {value}\n")


@pytest.mark.parametrize(
    "key, value",
    [("alpha", ".inf"), ("alpha", "-1"), ("beta0", ".nan"), ("gamma", ".nan"), ("exclusion_radius", ".nan"),
     ("anticonvergence_radius", ".inf")],
)
def test_parse_rejects_non_finite_parameters(key, value):
    # alpha also starts the schedule; FaParams checks it first, by its name
    doc = MINIMAL.replace("variant: base", "variant: multiswarm") + "pop_size: 10\nnum_swarms: 2\n"
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        parse_config(doc + f"{key}: {value}\n")


MOVING = MINIMAL.replace("benchmark: sphere", "benchmark: moving_peaks")
MULTISWARM = MINIMAL.replace("variant: base", "variant: multiswarm")


@pytest.mark.parametrize(
    "doc, match",
    [
        (MOVING + "peaks_lower: .nan\n", "lower and upper must be finite"),
        (MOVING + "peaks_upper: .inf\n", "lower and upper must be finite"),
        (MOVING + "peaks_lower: 200.0\n", "with lower < upper"),
        (MOVING + "peaks_lower: 5.0\npeaks_upper: 5.0\n", "with lower < upper"),
        (MOVING + "peak_count: 0\n", "peak_count"),
        (MOVING + "shift_interval: 0\n", "shift_interval"),
        (MOVING + "shift_length: .nan\n", "shift_length"),
        (MINIMAL.replace("sphere", "four_peaks") + "dim: 3\n", "four_peaks is defined only for dim=2"),
        (MULTISWARM + "dim: 5\nexclusion_radius: 5.0\n", "exclusion_radius 5.0 must be below half"),
        (MULTISWARM + "pop_size: 40\nnum_swarms: 3\n",
         r"^num_swarms \* swarm_size must equal pop_size \(3 \* 13 != 40\)$"),
    ],
    ids=["lower_nan", "upper_inf", "lower_above_upper", "equal_bounds", "peak_count", "shift_interval",
         "shift_length", "four_peaks_dim3", "exclusion_radius", "indivisible_pop_size"],
)
def test_parse_runs_the_checks_of_the_objective_and_swarm_layout(doc, match):
    # each parsed and failed only in the first repetition, some with an
    # error naming no key; an indivisible pop_size advised a swarm_size that
    # no value satisfies
    with pytest.raises(ValueError, match=match):
        parse_config(doc)


def test_config_builds_params_and_multiswarm_once():
    config = parse_config(MULTISWARM + "pop_size: 10\nnum_swarms: 2\n")
    assert config.params is config.params
    assert config.multiswarm is config.multiswarm


def test_parse_rejects_non_mapping():
    with pytest.raises(ValueError):
        parse_config("- a\n- b\n")


# ------------------------------------------------------------- experiments


def test_repetition_seeds_follow_base_seed():
    config = small_config()
    _, reports = run_experiment(config)
    assert [r.seed for r in reports] == [7, 8, 9]


def test_single_repetition_stats_degenerate():
    config = parse_config("benchmark: sphere\nvariant: base\nrepetitions: 1\nbase_seed: 3\npop_size: 8\nmax_fes: 400\n")
    stats, reports = run_experiment(config)
    assert stats.mean_best == stats.min_best == stats.max_best == reports[0].final_best.fitness
    assert stats.std_best == 0.0


def test_success_stats_pinned_regression():
    # deterministic small run: seeds 7..9, one repetition barely misses 1e-2
    stats, _ = run_experiment(small_config())
    assert stats.success_rate == 2 / 3
    assert stats.mean_fes_to_success == 530.0


def test_concurrent_matches_sequential(tmp_path):
    config = small_config()
    stats_seq, reports_seq = run_experiment(config, workers=1)
    stats_con, reports_con = run_experiment(config, workers=4)
    assert stats_seq == stats_con
    for a, b in zip(reports_seq, reports_con):
        assert a.trace == b.trace
        assert np.array_equal(a.final_best.position, b.final_best.position)
    seq_dir, con_dir = tmp_path / "seq", tmp_path / "con"
    emit_results(stats_seq, reports_seq, config, seq_dir)
    emit_results(stats_con, reports_con, config, con_dir)
    for path in sorted(seq_dir.iterdir()):
        assert path.read_bytes() == (con_dir / path.name).read_bytes()


@pytest.mark.parametrize("variant", ["elitist", "gaussian_pull", "levy", "chaotic_alpha", "sa_like", "de_like", "pso_like"])
def test_every_variant_runs_and_is_deterministic(variant):
    config = small_config(variant=variant)
    a = run_single(config, 5)
    b = run_single(config, 5)
    assert a.trace == b.trace


def test_multiswarm_variant_through_harness():
    doc = SMALL.replace("variant: base", "variant: multiswarm") + "num_swarms: 2\n"
    config = parse_config(doc)
    a = run_single(config, 4)
    b = run_single(config, 4)
    assert a.trace == b.trace
    assert a.fes_total >= config.params.max_fes


def test_moving_peaks_benchmark_through_harness():
    doc = """
benchmark: moving_peaks
variant: multiswarm
repetitions: 2
base_seed: 1
pop_size: 12
num_swarms: 3
max_fes: 600
shift_interval: 200
"""
    config = parse_config(doc)
    stats, reports = run_experiment(config)
    assert stats.success_rate is None and stats.mean_fes_to_success is None
    assert all(r.fes_total >= 600 for r in reports)


# ------------------------------------------------------------------- files


def test_emit_files_and_byte_stability(tmp_path):
    config = small_config()
    stats, reports = run_experiment(config)
    first = tmp_path / "a"
    written = emit_results(stats, reports, config, first)
    names = {p.name for p in written}
    assert names == {"summary.json", "curve_rep000.csv", "curve_rep001.csv", "curve_rep002.csv", "median_curve.csv"}
    again = tmp_path / "b"
    emit_results(stats, reports, config, again)
    for path in written:
        assert path.read_bytes() == (again / path.name).read_bytes()


def test_emitted_curves_match_traces_and_monotone(tmp_path):
    config = small_config()
    stats, reports = run_experiment(config)
    emit_results(stats, reports, config, tmp_path)
    for r, report in enumerate(reports):
        lines = (tmp_path / f"curve_rep{r:03d}.csv").read_text().strip().splitlines()
        assert lines[0] == "generation,fes_used,best_fitness"
        assert len(lines) - 1 == len(report.trace)
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(x >= y for x, y in zip(values, values[1:]))
        assert values == [row[2] for row in report.trace]  # 17 digits round-trip


def test_median_curve_recomputed_from_rep_files(tmp_path):
    config = small_config()
    stats, reports = run_experiment(config)
    emit_results(stats, reports, config, tmp_path)
    per_rep = []
    for r in range(config.repetitions):
        lines = (tmp_path / f"curve_rep{r:03d}.csv").read_text().strip().splitlines()[1:]
        per_rep.append([float(line.split(",")[2]) for line in lines])
    medians = np.median(np.array(per_rep), axis=0)
    lines = (tmp_path / "median_curve.csv").read_text().strip().splitlines()[1:]
    got = [float(line.split(",")[2]) for line in lines]
    assert np.array_equal(np.array(got), medians)


def test_median_curve_uses_common_generation_prefix(tmp_path):
    # traces of unequal length (as dynamic runs can produce) are medianed
    # only over the generation indices present in every repetition
    import fireflyopt as fo

    config = small_config()
    reports = [
        fo.RunReport(trace=[(0, 10, 5.0), (1, 20, 4.0), (2, 30, 3.0)],
                     final_best=fo.Firefly(np.zeros(2), 3.0), fes_total=30, seed=7),
        fo.RunReport(trace=[(0, 10, 7.0), (1, 20, 6.0)],
                     final_best=fo.Firefly(np.zeros(2), 6.0), fes_total=20, seed=8),
    ]
    stats, _ = run_experiment(config)
    emit_results(stats, reports[:2], config, tmp_path)
    lines = (tmp_path / "median_curve.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 2
    assert [float(line.split(",")[2]) for line in lines[1:]] == [6.0, 5.0]


def _median_curve_per_generation(reports):
    """median_curve.csv as it was built before: two np.median calls per generation."""
    depth = min(len(r.trace) for r in reports)
    lines = ["generation,fes_used,best_fitness"]
    for g in range(depth):
        fes = float(np.median([r.trace[g][1] for r in reports]))
        best = float(np.median([r.trace[g][2] for r in reports]))
        lines.append(f"{g},{format(fes, '.17g')},{format(best, '.17g')}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_median_curve_matches_per_generation_formula(tmp_path_factory, lengths, ties, seed):
    # unequal lengths are what multiswarm runs produce; ties and signed
    # zeros exercise the middle-pair mean of an even repetition count
    rng = np.random.default_rng(seed)
    reports = []
    for r, length in enumerate(lengths):
        fes = np.cumsum(rng.integers(1, 60, length)).tolist()
        best = rng.integers(-2, 3, length) * 0.5 if ties else rng.standard_normal(length) * 10.0 ** rng.integers(-12, 4)
        best = [-0.0 if v == 0 and rng.random() < 0.5 else float(v) for v in best]
        trace = [(g, fes[g], best[g]) for g in range(length)]
        reports.append(RunReport(trace=trace, final_best=Firefly(np.zeros(2), best[-1]), fes_total=fes[-1], seed=r))
    config = small_config(repetitions=len(reports))
    out = tmp_path_factory.mktemp("median")
    stats = SummaryStats(0.0, 0.0, 0.0, 0.0, None, None)
    emit_results(stats, reports, config, out)
    assert (out / "median_curve.csv").read_text() == _median_curve_per_generation(reports)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    reps=st.integers(1, 6),
    depth=st.integers(1, 12),
    values=st.sampled_from(["normal", "ties", "zeros", "non_finite"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_median_columns_matches_np_median(reps, depth, values, seed):
    rng = np.random.default_rng(seed)
    if values == "normal":
        a = rng.standard_normal((reps, depth)) * 10.0 ** rng.integers(-300, 300)
    elif values == "ties":
        a = rng.integers(-2, 3, (reps, depth)) * 0.5
    elif values == "zeros":
        a = rng.choice([0.0, -0.0, 1.0, -1.0], (reps, depth))
    else:
        a = rng.choice([np.nan, np.inf, -np.inf, 1.0, -0.0, 1e308], (reps, depth))
    # 1e308 + 1e308 overflows and inf - inf is NaN, in both
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.median(a, axis=0)
        got = _median_columns(a.copy())
    assert got.tobytes() == want.tobytes()


def test_emit_does_not_import_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma, ~1.5 MiB at a run's peak
    code = (
        "import sys\n"
        "from fireflyopt import parse_config, run_experiment\n"
        "from fireflyopt.harness import emit_results\n"
        f"config = parse_config({SMALL!r})\n"
        "stats, reports = run_experiment(config)\n"
        f"emit_results(stats, reports, config, {str(tmp_path)!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    assert len((tmp_path / "median_curve.csv").read_text().splitlines()) > 1


def test_summary_json_contents(tmp_path):
    config = small_config()
    stats, reports = run_experiment(config)
    emit_results(stats, reports, config, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["benchmark"] == "sphere"
    assert summary["config"]["pop_size"] == 10
    assert "output_dir" not in summary["config"]
    assert summary["stats"]["mean_best"] == stats.mean_best
    assert summary["stats"]["min_best"] <= summary["stats"]["mean_best"] <= summary["stats"]["max_best"]
    assert 0.0 <= summary["stats"]["success_rate"] <= 1.0


def test_emit_requires_destination():
    config = small_config()
    stats, reports = run_experiment(config)
    with pytest.raises(ValueError, match="output"):
        emit_results(stats, reports, config, None)


# ----------------------------------------------------------------- compare


def parse_compare_table(text: str) -> list[dict]:
    """Inverse of compare_variants: one dict per data row."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if cells[0] == "variant":
            continue
        rows.append(
            {
                "variant": cells[0],
                "mean_best": float(cells[1]),
                "std_best": float(cells[2]),
                "success_rate": None if cells[3] == "" else float(cells[3]),
                "mean_fes_to_success": None if cells[4] == "" else float(cells[4]),
            }
        )
    return rows


def test_compare_single_config_roundtrip():
    config = small_config()
    table = compare_variants([config])
    rows = parse_compare_table(table)
    assert len(rows) == 1
    stats, _ = run_experiment(config)
    assert rows[0]["variant"] == "base"
    assert rows[0]["mean_best"] == stats.mean_best
    assert rows[0]["std_best"] == stats.std_best
    assert rows[0]["success_rate"] == stats.success_rate
    assert rows[0]["mean_fes_to_success"] == stats.mean_fes_to_success
    assert table.splitlines()[0] == "# benchmark=sphere,dim=2,max_fes=800"


def test_compare_row_order_and_budget_check():
    base = small_config()
    sa = small_config(variant="sa_like")
    table = compare_variants([base, sa])
    rows = parse_compare_table(table)
    assert [r["variant"] for r in rows] == ["base", "sa_like"]
    other_budget = small_config(max_fes=1000)
    with pytest.raises(ValueError, match="budget"):
        compare_variants([base, other_budget])
    rastrigin = parse_config(SMALL.replace("benchmark: sphere", "benchmark: rastrigin"))
    with pytest.raises(ValueError, match="benchmark"):
        compare_variants([base, rastrigin])


@pytest.mark.parametrize("workers", [0, -3])
def test_run_experiment_rejects_non_positive_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        run_experiment(small_config(), workers=workers)


# --------------------------------------------------------------------- cli


def test_cli_list_benchmarks(capsys):
    assert main(["list-benchmarks"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "sphere" in out and "moving_peaks" in out


def test_cli_run_writes_files(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(SMALL)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "median_curve.csv").exists()
    assert "mean best" in capsys.readouterr().out


def test_cli_seed_override(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(SMALL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(a), "--seed", "99"]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b), "--seed", "99"]) == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert json.loads((a / "summary.json").read_text())["config"]["base_seed"] == 99


def test_cli_uses_config_output_dir(tmp_path):
    dest = tmp_path / "from_config"
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(SMALL + f"output_dir: {dest}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert (dest / "summary.json").exists()


def test_cli_run_without_destination_fails(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(SMALL)
    assert main(["run", "--config", str(cfg)]) == 1
    assert "output" in capsys.readouterr().err


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL + "gama: 1\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "gama" in capsys.readouterr().err
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--config", str(missing)]) == 1
    capsys.readouterr()


def test_cli_compare(tmp_path, capsys):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    a.write_text(SMALL)
    b.write_text(SMALL.replace("variant: base", "variant: sa_like"))
    out_dir = tmp_path / "cmp"
    assert main(["compare", "--configs", str(a), str(b), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    rows = parse_compare_table(out)
    assert [r["variant"] for r in rows] == ["base", "sa_like"]
    assert (out_dir / "compare.csv").read_text() == out


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_rejects_non_positive_workers(tmp_path, capsys, command, workers):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(SMALL)
    out_dir = tmp_path / "out"
    flag = "--config" if command == "run" else "--configs"
    assert main([command, flag, str(cfg), "--out", str(out_dir), "--workers", workers]) == 1
    assert "workers" in capsys.readouterr().err
    assert not out_dir.exists()
