"""fireflyopt benchmark: timed end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record

Run from the root of a source tree; the package is imported from its src/
and nowhere else.  The workloads are in workloads.py; the metrics, their
units and bounds in BENCHMARK.json; the reasoning in README.md.

--trace 0: the workload runs through the plain CLI (`python -m fireflyopt`,
no probes) once per iteration, at least once, and again while another
iteration of average length still ends within S seconds of iterations.  Set-up is sampled at least
SETUP_SAMPLES times, once after each iteration, by stopping the CLI right
after its first objective is built.  Each end-to-end metric is the median
over the samples or iterations.

--trace 1: one iteration with repetition spans only, then one fully traced
iteration; the per-layer metrics come from these two (see README.md).

Every invocation's artifacts are checked (checks.py) against the digests
committed in digests.json for the seed, or, for other seeds, against the
run's first iteration.  --record runs one iteration and commits its
digests for a seed that has none.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Lines before it describe the machine, the iterations and any failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check
from workloads import WORKERS, WORKLOADS, base_seed, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 9
# Reference digests are committed for every seed in 0..10; a change that
# claims a gain shows it on DEFAULT_SEED and again on HOLDOUT_SEED.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7
DEADLINE_S = 170.0  # a run must end within 180 s


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


STARTED = monotonic()


def environment() -> dict:
    """Where and on what a result was measured."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    from importlib.metadata import version

    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
    }


class Runner:
    """Spawns invocations of one workload and checks what they emit."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = base_seed(seed)
        self.invocations = WORKLOADS[workload](self.seed)
        self.work = work
        write_configs(self.invocations, work / "configs")
        committed = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(self.seed))
        self.reference = committed
        self.reference_source = f"committed digests for seed {self.seed}" if committed else None
        self.runs = 0

    def _spawn(self, argv: list[str], tag: str):
        """Run argv to completion; returns (exit code, wall s, cpu s, peak RSS KiB, stdout, spawn time)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out_path = self.work / f"{tag}.stdout"
        err_path = self.work / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(max(1.0, DEADLINE_S - (spawned - STARTED)), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text()[-2000:])
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, ended - spawned, cpu, usage.ru_maxrss, out_path.read_text(), spawned

    def _probe_argv(self, mode: str, dump: Path, cli_args: list[str]) -> list[str]:
        return [sys.executable, str(HERE / "probe.py"), "--mode", mode, "--dump", str(dump), "--", *cli_args]

    def setup_time(self) -> float:
        """Seconds from spawning the CLI until its first objective is built."""
        self.runs += 1
        tag = f"setup{self.runs}"
        dump = self.work / f"{tag}.json"
        cli_args = self.invocations[0].cli_args(self.work / "configs", self.work / tag, self.seed)
        code, _, _, _, _, spawned = self._spawn(self._probe_argv("setup", dump, cli_args), tag)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        return json.loads(dump.read_text())["setup_done"] - spawned

    def iteration(self, mode: str = "plain") -> dict:
        """Run every invocation of the workload once; mode is plain, reps or trace."""
        self.runs += 1
        result = {"wall": 0.0, "cpu": 0.0, "rss_kib": 0, "fes": 0, "attempted": 0, "failed": 0,
                  "digests": {}, "dumps": [], "problems": []}
        for k, inv in enumerate(self.invocations):
            tag = f"run{self.runs}-{k}"
            out = self.work / tag
            cli_args = inv.cli_args(self.work / "configs", out, self.seed)
            dump = self.work / f"{tag}.json"
            if mode == "plain":
                argv = [sys.executable, "-m", "fireflyopt", *cli_args]
            else:
                argv = self._probe_argv(mode, dump, cli_args)
            code, wall, cpu, rss, stdout, _ = self._spawn(argv, tag)
            verdict = check(inv, out, stdout, code, self.seed, self.reference)
            if mode != "plain" and code == 0:
                result["dumps"].append(json.loads(dump.read_text()))
            shutil.rmtree(out, ignore_errors=True)
            result["wall"] += wall
            result["cpu"] += cpu
            result["rss_kib"] = max(result["rss_kib"], rss)
            result["fes"] += verdict.fes_total
            result["attempted"] += verdict.attempted
            result["failed"] += verdict.failed
            result["digests"].update(verdict.digests)
            result["problems"] += verdict.problems
        if self.reference is None and result["failed"] == 0:
            self.reference = result["digests"]
            self.reference_source = f"first iteration (no committed digests for seed {self.seed})"
        return result


def _merge(dumps: list[dict]) -> dict:
    merged = {"total": {}, "own": {}, "calls": {}, "counts": {}, "spans": []}
    for dump in dumps:
        for key in ("total", "own", "calls", "counts"):
            for name, value in dump[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["spans"] += dump["spans"]
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(reps: dict, traced: dict, fes_total: int) -> dict:
    """Per-layer metrics from a reps-mode iteration and a traced iteration."""
    rep = _merge(reps["dumps"])
    tr = _merge(traced["dumps"])
    total, own, calls, counts = tr["total"], tr["own"], tr["calls"], tr["counts"]

    def t(name):
        return total.get(name, 0.0)

    def n(name, table=counts):
        return table.get(name, 0)

    rep_spans = [s for s in rep["spans"] if s["name"] == "harness.run_single"]
    rep_ms = [1e3 * (s["end"] - s["start"]) for s in rep_spans]
    experiment_s = sum(s["end"] - s["start"] for s in rep["spans"] if s["name"] == "harness.run_experiment")
    evals = n("benchmarks.eval", calls)
    return {
        "core.sweep_self_s": own.get("core.pairwise_sweep", 0.0),
        "core.sweep_moves": n("core.sweep_moves"),
        "core.sweep_ns_per_move_dim": 1e9 * _ratio(own.get("core.pairwise_sweep", 0.0), n("core.sweep_move_dims")),
        "core.sweep_calls": n("core.pairwise_sweep", calls),
        "benchmarks.eval_calls": evals,
        "benchmarks.eval_s": t("benchmarks.eval"),
        "benchmarks.eval_us_per_call": 1e6 * _ratio(t("benchmarks.eval"), evals),
        "core.evaluate_self_s": own.get("core.evaluate", 0.0),
        "core.order_s": t("core.order"),
        "core.find_best_s": t("core.find_best"),
        "core.initialize_s": t("core.initialize"),
        "core.step_self_s": own.get("core.step", 0.0),
        "core.generations": n("core.step", calls),
        "harness.fes_total": fes_total,
        "harness.rep_wall_ms_p50": statistics.median(rep_ms) if rep_ms else 0.0,
        "harness.rep_wall_ms_pmax": max(rep_ms, default=0.0),
        "harness.rep_parallel_efficiency": _ratio(sum(s["cpu"] for s in rep_spans), experiment_s * WORKERS),
        "harness.parse_config_s": t("harness.parse_config"),
        "cli.main_self_s": own.get("cli.main", 0.0),
        "harness.summarize_s": t("harness.summarize"),
        "harness.emit_s": t("harness.emit_results"),
        "harness.emit_bytes": n("harness.emit_bytes"),
        "harness.emit_files": n("harness.emit_files"),
        "randomization.alpha_at_s": t("randomization.alpha_at"),
        "randomization.alpha_at_calls": n("randomization.alpha_at", calls),
        "randomization.levy_step_s": t("randomization.levy_step"),
        "variants.elitist_best_move_s": t("variants.elitist_best_move"),
        "variants.elitist_improve_ratio": _ratio(n("variants.elitist_improvements"), n("variants.elitist_attempts")),
        "variants.pull_step_s": t("variants.global_best_pull_step"),
        "variants.multiswarm_step_self_s": own.get("variants.multiswarm_step", 0.0),
        "variants.probe_evals": n("variants.probe_evals"),
        "variants.useful_eval_share": 1.0 - _ratio(n("variants.probe_evals"), evals),
        "variants.change_events": n("variants.change_events"),
        "variants.exclusion_events": n("variants.exclusion_events"),
        "variants.anticonvergence_events": n("variants.anticonvergence_events"),
        "trace.overhead_s": traced["wall"] - reps["wall"],
    }


def _report(spec: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _record(runner: Runner) -> int:
    runner.setup_time()  # warms the bytecode cache like a timed run
    it = runner.iteration()
    for p in it["problems"]:
        print(f"# problem: {p}")
    if it["failed"]:
        print(f"# {it['failed']} of {it['attempted']} repetitions failed; nothing recorded")
        return 1
    table = json.loads(DIGESTS.read_text())
    slot = table.setdefault(runner.workload, {})
    key = str(runner.seed)
    if key in slot and slot[key] != it["digests"]:
        print(f"# committed digests for seed {key} differ from this run; remove them by hand to re-pin")
        return 1
    slot[key] = it["digests"]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"# recorded {len(it['digests'])} digests for {runner.workload} seed {key}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fireflyopt benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40, help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="commit this seed's reference digests")
    args = parser.parse_args(argv)

    if not (SRC / "fireflyopt" / "__init__.py").is_file():
        print(f"error: no fireflyopt package under {SRC}; run from a fireflyopt source tree",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        if args.record:
            return _record(runner)
        print("# env " + json.dumps(environment(), sort_keys=True))
        print(f"# workload {args.workload}, seed {runner.seed}, trace {args.trace}")
        runner.setup_time()  # warm-up: fills the bytecode cache; not reported
        iterations = []
        if args.trace:
            iterations.append(runner.iteration("reps"))
            iterations.append(runner.iteration("trace"))
            fes_total = iterations[-1]["fes"]
            values = layer_metrics(*iterations, fes_total)
            if values["benchmarks.eval_calls"] != fes_total:
                iterations[-1]["problems"].append(
                    f"traced {values['benchmarks.eval_calls']} evaluations, artifacts report {fes_total}")
                iterations[-1]["failed"] = iterations[-1]["attempted"]
            metrics = _report(spec["per_layer"], values)
        else:
            # Set-up samples are spread over the run, one after each iteration,
            # so that they see the same machine as the iterations do.
            setups = []
            measured = 0.0
            while True:
                began = monotonic()
                iterations.append(runner.iteration())
                measured += monotonic() - began
                setups.append(runner.setup_time())
                per_iteration = measured / len(iterations)
                if (measured + per_iteration > args.seconds
                        or monotonic() - STARTED + per_iteration > DEADLINE_S - 10):
                    break
            setups += [runner.setup_time() for _ in range(SETUP_SAMPLES - len(setups))]
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(it["wall"] for it in iterations),
                "cpu_s": statistics.median(it["cpu"] for it in iterations),
                "fes_per_s": statistics.median(it["fes"] / it["wall"] for it in iterations),
                "peak_rss_mb": statistics.median(it["rss_kib"] / 1024 for it in iterations),
            }
            metrics = _report(spec["end_to_end"], values)
            print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
        attempted = sum(it["attempted"] for it in iterations)
        failed = sum(it["failed"] for it in iterations)
        for k, it in enumerate(iterations):
            print(f"# iteration {k}: wall {it['wall']:.3f} s, cpu {it['cpu']:.3f} s, fes {it['fes']}, "
                  f"peak rss {it['rss_kib'] / 1024:.1f} MiB, {it['failed']}/{it['attempted']} failed")
            for p in it["problems"][:20]:
                print(f"# problem: {p}")
        print(f"# reference: {runner.reference_source or 'none (first iteration failed)'}")
        for name, m in metrics.items():
            print(f"# {name:36s} {m['value']:>16.6g} {m['unit']}")
        print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} repetitions)")
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
