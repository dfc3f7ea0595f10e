"""Run the fireflyopt CLI in this process with probes installed from outside.

    python3 perfbench/probe.py --mode MODE --dump FILE -- <fireflyopt CLI arguments>

The probes replace module globals of the package with timing wrappers; the
package's source is not modified.  Modes:

  setup  stop as soon as the first repetition's objective is built and
         dump that moment (CLOCK_MONOTONIC, comparable across processes);
  reps   one span per repetition and per experiment, nothing finer;
  trace  a span around every layer boundary in TRACE_POINTS plus every
         objective evaluation, aggregated per thread into inclusive CPU
         time, self time (inclusive minus child spans) and call counts,
         together with the work counters the benchmark reports.

The dump is a JSON document written when the CLI returns; the process
exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import sys
import threading
import time
from bisect import bisect_left
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _ThreadStats:
    def __init__(self):
        self.frames: list[list] = []  # [span name, time covered by child spans]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.own: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[dict] = []


class Tracer:
    """Span recorder whose hot path touches only per-thread state."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._lock = threading.Lock()

    def stats(self) -> _ThreadStats:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name, fn, pre=None, post=None, keep_span=False):
        """Wrapper of fn recording a span called name.

        Span times are CPU seconds of the calling thread, so a thread that
        waits for the interpreter lock while another runs is not charged
        for it.  A kept span also records its wall-clock start and end.
        pre(st, args, kwargs) runs before the span opens and returns a note;
        post(st, note, result, args, kwargs) runs after it closes and
        returns the value handed back to the caller.  Their cost, like the
        wrapper's own bookkeeping, is charged to neither this span nor its
        parent's self time.
        """
        clock = time.thread_time
        wall = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            st = self.stats()
            note = pre(st, args, kwargs) if pre is not None else None
            frames = st.frames
            frames.append([name, 0.0])
            began = wall() if keep_span else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = frames.pop()[1]
            duration = end - start
            st.total[name] += duration
            st.own[name] += duration - child
            st.calls[name] += 1
            if keep_span:
                st.spans.append({"name": name, "thread": threading.get_ident(), "start": began,
                                 "end": wall(), "cpu": duration})
            if post is not None:
                result = post(st, note, result, args, kwargs)
            if frames:
                frames[-1][1] += clock() - entered
            return result

        return wrapper

    def dump(self) -> dict:
        total, own, calls, counts = defaultdict(float), defaultdict(float), Counter(), Counter()
        spans = []
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for key, value in st.total.items():
                total[key] += value
            for key, value in st.own.items():
                own[key] += value
            calls.update(st.calls)
            counts.update(st.counts)
            spans.extend(st.spans)
        return {"total": total, "own": own, "calls": calls, "counts": counts, "spans": spans}


def _count_moves(st, args, kwargs):
    # pairwise_sweep(state, objective, params, ...) on a sorted population:
    # firefly i moves once toward each strictly brighter peer, and a firefly
    # with none takes one random step unless elitism holds it in place.
    state, objective, params = args[:3]
    fit = [fly.fitness for fly in state.fireflies]
    brighter = [bisect_left(fit, f) for f in fit]
    moves = sum(brighter) + (0 if params.elitism else brighter.count(0))
    st.counts["core.sweep_moves"] += moves
    st.counts["core.sweep_move_dims"] += moves * objective.dim


def _elitist_before(st, args, kwargs):
    state, m, params = args[:3]
    if min(m, params.max_fes - state.fes_used) > 0:
        st.counts["variants.elitist_attempts"] += 1
    return min(fly.fitness for fly in state.fireflies)


def _elitist_after(st, before, result, args, kwargs):
    if min(fly.fitness for fly in args[0].fireflies) < before:
        st.counts["variants.elitist_improvements"] += 1
    return result


def _count_events(st, note, result, args, kwargs):
    for event in kwargs.get("log") or ():
        st.counts[f"variants.{event['event']}_events"] += 1
    return result


def _count_emitted(st, note, paths, args, kwargs):
    st.counts["harness.emit_files"] += len(paths)
    st.counts["harness.emit_bytes"] += sum(Path(p).stat().st_size for p in paths)
    return paths


def _count_probe(st, args, kwargs):
    frames = st.frames
    if frames and frames[-1][0] == "variants.multiswarm_step":
        st.counts["variants.probe_evals"] += 1


# (span name, [(module, global name)], pre hook, post hook).  Every entry is
# a module global that the package looks up at call time, so replacing it
# intercepts every call made through that module.
TRACE_POINTS = [
    ("harness.parse_config", [("cli", "parse_config")], None, None),
    ("harness.run_experiment", [("cli", "run_experiment"), ("harness", "run_experiment")], None, None),
    ("harness.compare_variants", [("cli", "compare_variants")], None, None),
    ("harness.emit_results", [("cli", "emit_results")], None, _count_emitted),
    ("harness.summarize", [("harness", "summarize")], None, None),
    ("harness.run_single", [("harness", "run_single")], None, None),
    ("harness.run_multiswarm", [("harness", "run_multiswarm")], None, None),
    ("core.initialize", [("core", "initialize"), ("variants", "initialize")], None, None),
    ("core.step", [("core", "step"), ("variants", "step")], None, None),
    ("core.evaluate", [("core", "evaluate")], None, None),
    ("core.order", [("core", "order")], None, None),
    ("core.find_best", [("core", "find_best")], None, None),
    ("core.pairwise_sweep", [("core", "pairwise_sweep"), ("harness", "pairwise_sweep")], _count_moves, None),
    ("randomization.alpha_at", [("core", "alpha_at"), ("variants", "alpha_at")], None, None),
    ("randomization.levy_step", [("harness", "levy_step")], None, None),
    ("variants.elitist_best_move", [("harness", "elitist_best_move")], _elitist_before, _elitist_after),
    ("variants.global_best_pull_step", [("harness", "global_best_pull_step")], None, None),
    ("variants.multiswarm_step", [("harness", "multiswarm_step")], None, _count_events),
]

# Spans kept one by one (the rest are only aggregated).
KEPT_SPANS = ("harness.run_experiment", "harness.run_single")


class _SetupDone(BaseException):
    """Raised to leave the CLI once set-up is complete (not an Exception,
    so the CLI's error handler lets it through)."""


def _module(name: str):
    return importlib.import_module(f"fireflyopt.{name}")


def _patch(module_name: str, attr: str, replacement) -> None:
    module = _module(module_name)
    if not callable(getattr(module, attr, None)):
        raise RuntimeError(f"fireflyopt.{module_name}.{attr} is not a callable module global")
    setattr(module, attr, replacement)


def _install_setup_stop() -> None:
    from fireflyopt import harness

    def stop_after_build(configs):
        harness.build_objective(configs[0], configs[0].base_seed)
        raise _SetupDone(monotonic())

    _patch("cli", "run_experiment", lambda config, workers=1: stop_after_build([config]))
    _patch("cli", "compare_variants", lambda configs, workers=1: stop_after_build(configs))


def _install(tracer: Tracer, mode: str) -> None:
    for name, targets, pre, post in TRACE_POINTS:
        if mode == "reps" and name not in KEPT_SPANS:
            continue
        for module_name, attr in targets:
            original = getattr(_module(module_name), attr)
            _patch(module_name, attr, tracer.wrap(name, original, pre, post, keep_span=name in KEPT_SPANS))
    if mode != "trace":
        return

    build = _module("harness").build_objective

    def traced_objective(config, seed):
        # A shallow copy keeps every field, the dynamic landscape's
        # change_hook included; only eval is replaced.
        objective = build(config, seed)
        rebuilt = copy.copy(objective)
        object.__setattr__(rebuilt, "eval", tracer.wrap("benchmarks.eval", objective.eval, pre=_count_probe))
        return rebuilt

    _patch("harness", "build_objective", tracer.wrap("harness.build_objective", traced_objective))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "reps", "trace"), required=True)
    parser.add_argument("--dump", required=True, help="where to write the JSON dump")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="arguments of the fireflyopt CLI, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(SRC))
    import fireflyopt

    if Path(fireflyopt.__file__).resolve().parent != SRC / "fireflyopt":
        raise RuntimeError(f"imported fireflyopt from {fireflyopt.__file__}, not from {SRC}")

    tracer = Tracer()
    dump: dict = {}
    if args.mode == "setup":
        _install_setup_stop()
    else:
        _install(tracer, args.mode)
    main_fn = tracer.wrap("cli.main", _module("cli").main)
    try:
        code = main_fn(cli_args)
    except _SetupDone as done:
        code = 0
        dump["setup_done"] = done.args[0]
    else:
        if args.mode == "setup":
            code = code or 1  # the CLI returned without building an objective
    dump.update(tracer.dump())
    Path(args.dump).write_text(json.dumps(dump))
    return code


if __name__ == "__main__":
    sys.exit(main())
