"""The benchmark probe's view of the engine.

perfbench/probe.py traces a run by replacing module globals of the package
(its TRACE_POINTS) with counting wrappers, so it sees only the calls that
the package makes through those globals, looked up at call time.  These
tests install the probe's own wrappers and hooks in process, run tiny
configs, and check that the probe counts what the runs did: a change that
stops looking a global up at call time, or hands the probe a log other than
the generation's own, still passes every digest but blinds the probe.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from fireflyopt import harness
from fireflyopt.harness import parse_config

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
DOC = "benchmark: {benchmark}\nvariant: {variant}\nrepetitions: 1\nbase_seed: 3\ndim: 2\n"
TINY = {
    "base": DOC.format(benchmark="sphere", variant="base") + "pop_size: 5\nmax_fes: 100\n",
    "elitist": DOC.format(benchmark="sphere", variant="elitist") + "pop_size: 5\nmax_fes: 103\n",
    "multiswarm": DOC.format(benchmark="moving_peaks", variant="multiswarm")
    + "pop_size: 12\nnum_swarms: 3\nsentinel_count: 2\nshift_interval: 100\nmax_fes: 1200\n"
    + "exclusion_radius: 0.2\nanticonvergence_radius: 0.3\n",
}


@pytest.fixture
def install(monkeypatch):
    """Installs the probe's wrappers on every TRACE_POINTS target, until the test ends; returns its Tracer."""

    def install():
        spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
        probe = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(probe)
        tracer = probe.Tracer()
        for name, targets, pre, post in probe.TRACE_POINTS:
            for module_name, attr in targets:
                module = importlib.import_module(f"fireflyopt.{module_name}")
                monkeypatch.setattr(module, attr, tracer.wrap(name, getattr(module, attr), pre, post))
        return tracer

    return install


@pytest.mark.parametrize("variant", ["base", "elitist"])
def test_probe_counts_one_core_step_per_generation(install, variant):
    tracer = install()
    report = harness.run_single(parse_config(TINY[variant]), 3)
    calls = tracer.dump()["calls"]
    assert calls["core.step"] == len(report.trace) > 1
    if variant == "elitist":
        # 7 evaluations a generation; the last generation's 5 rows spend the
        # budget, so it does not move and probes nothing
        assert calls["variants.elitist_best_move"] == len(report.trace) - 1


def test_probe_counts_multiswarm_generations_and_events(install):
    config = parse_config(TINY["multiswarm"])
    objective = harness.build_objective(config, 3)
    _, events = harness.run_multiswarm(objective, config.params, config.multiswarm, 3)
    untraced = Counter(event["event"] for event in events)
    assert set(untraced) == {"change", "exclusion", "anticonvergence"}
    tracer = install()
    report = harness.run_single(config, 3)
    dump = tracer.dump()
    assert dump["calls"]["variants.multiswarm_step"] == len(report.trace)
    assert {kind: dump["counts"][f"variants.{kind}_events"] for kind in untraced} == untraced
