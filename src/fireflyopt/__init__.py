"""Firefly-algorithm optimization toolkit.

Base algorithm and its published variant mechanisms as composable
strategies, a benchmark registry including a dynamic moving-peaks
landscape, and a seeded experiment harness with machine-readable output.

The names below are imported from their submodule when first used (PEP
562), so `import fireflyopt` loads neither numpy nor yaml.  That lets the
command line (fireflyopt.cli) set its environment before numpy loads.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "benchmarks": "FOUR_PEAKS_MINIMA MovingPeaks benchmark_names lookup make_moving_peaks",
        "core": "EvaluationError FaParams Firefly Objective RunReport SwarmState attractiveness distance "
                "evaluate find_best initialize intensity_at move_firefly order pairwise_sweep run step",
        "harness": "ExperimentConfig SummaryStats compare_variants emit_results parse_config run_experiment "
                   "run_multiswarm run_single",
        "randomization": "ScheduleDescriptor alpha_at gaussian_step levy_step logistic_next mantegna_sigma "
                         "uniform_centered_step",
        "variants": "MultiSwarmConfig PenaltySpec SentinelSet elitist_best_move global_best_pull_step "
                    "initialize_multiswarm make_sentinels multiswarm_step penalty_wrap reduction_mode",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
