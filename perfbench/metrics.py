"""Metric table of the logeuler benchmark.

One place names every workload and metric: its unit, which direction is
better, the bound an end-to-end metric may worsen by before a change counts
as a regression, and, for each per-layer metric, the end-to-end metric and
workload it should move.  ``BENCHMARK.json`` at the repository root is
generated from this table::

    python3 perfbench/metrics.py > BENCHMARK.json

End-to-end metrics come from untraced runs and are reported on every
workload.  A *round* is the unit the closed loop repeats: one simulate run,
one ``verify multiplier`` invocation, or one pass over the five lab
invocations (verify_lab_n256).
"""

from __future__ import annotations

import json

from tracer import TRACED

WORKLOADS = {
    "simulate_diag_n256": (
        "cli simulate at n=256, gamma 1.5, dealias, diagnostics every step and "
        "snapshots: one norm bundle costs more than an RK4 step, so norms, "
        "runio and output memory show"
    ),
    "verify_multiplier_n1024": (
        "criterion 5 through the cli on a 1024^2 lattice, no solver: repeated "
        "symbol tables and full-lattice transforms dominate time and peak RSS"
    ),
    "verify_lab_n256": (
        "embedding, loginterp x2, bernstein and sharpness at n=256: the other "
        "checks, the extremizer, and norms applied to many independent fields"
    ),
}

RUN_SECONDS = 25

# what a workload's work unit is, and what its seed selects
UNITS = {
    "simulate_diag_n256": "steps",
    "verify_multiplier_n1024": "fields",
    "verify_lab_n256": "fields",
}
SEED_NOTES = {
    "simulate_diag_n256": "seed sets the random_band IC",
    "verify_multiplier_n1024": "seed sets the corpus",
    "verify_lab_n256": "seed sets the corpus",
}

# name, unit, better, bound, meaning
END_TO_END = (
    ("wall_s", "s", "lower", 0.25,
     "mean wall time of one round of the closed loop (the timed body over "
     "its rounds)"),
    ("work_per_s", "1/s", "higher", 0.25,
     "work units per second over all rounds: RK4 steps on "
     "simulate_diag_n256 (steps_per_s), corpus fields on the verify "
     "workloads (fields_per_s)"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "ru_maxrss of the fresh workload process"),
    ("setup_s", "s", "lower", 0.25,
     "launch of a fresh process to its first timed call (interpreter, "
     "import logeuler, input generation); median of several launches"),
)

MODULES = tuple(TRACED)  # the layers: logeuler's modules

MICRO_SIZES = (128, 256, 512)
MICRO_ENTRIES = (
    "spectral.rfft2_ms", "solver.rhs_ms", "solver.step_rk4_ms",
    "norms.compute_norm_bundle_ms", "norms.grad_u_sup_ms",
    "norms.lp_norm_map_ms",
)

_SIM = "simulate_diag_n256"
_MUL = "verify_multiplier_n1024"
_LAB = "verify_lab_n256"
_CLI3 = f"{_SIM}, {_MUL}, {_LAB}"

# name, unit, better, what it should move (end-to-end metric on workload)
PER_LAYER = (
    ("spectral.fft_calls", "count", "lower",
     f"work_per_s on {_SIM} and {_LAB}"),
    ("spectral.fft_s", "s", "lower", f"work_per_s on {_SIM} and {_LAB}"),
    ("spectral.fft_bytes_computed", "B", "lower",
     f"work_per_s and peak_rss_mb on {_SIM} and {_LAB}"),
    ("spectral.fft_calls_per_step", "count", "lower",
     f"step time (work_per_s) on {_SIM}"),
    ("spectral.dft_inverse_calls", "count", "lower",
     f"work_per_s on {_SIM} and {_LAB}"),
    ("spectral.dft_inverse_self_s", "s", "lower",
     f"work_per_s on {_SIM} and {_LAB}"),
    ("multipliers.symbol_evals", "count", "lower",
     f"wall_s, work_per_s, peak_rss_mb on {_MUL}"),
    ("multipliers.symbol_eval_s", "s", "lower", f"wall_s on {_MUL}"),
    ("multipliers.lp_project_self_s", "s", "lower", f"wall_s on {_MUL}"),
    ("multipliers.apply_multiplier_self_s", "s", "lower", f"wall_s on {_MUL}"),
    ("multipliers.velocity_spectral_s", "s", "lower",
     f"work_per_s on {_SIM} and {_LAB}"),
    ("norms.bundle_calls", "count", "lower", f"work_per_s on {_SIM}"),
    ("norms.bundle_s", "s", "lower",
     f"work_per_s on {_SIM}"),
    ("norms.grad_u_sup_self_s", "s", "lower",
     f"work_per_s on {_SIM} and {_LAB}"),
    ("norms.lp_norm_map_self_s", "s", "lower",
     f"work_per_s on {_SIM} and {_LAB}"),
    ("norms.sup_p_ratio_self_s", "s", "lower", f"work_per_s on {_LAB}"),
    ("norms.lp_norm_self_s", "s", "lower", f"work_per_s on {_LAB}"),
    ("norms.sobolev_norm_self_s", "s", "lower",
     f"work_per_s on {_SIM} and {_LAB}"),
    ("norms.generalized_energy_self_s", "s", "lower", f"work_per_s on {_SIM}"),
    ("solver.steps", "count", "higher",
     f"work done in the traced rounds of {_SIM}"),
    ("solver.run_self_s", "s", "lower", f"work_per_s on {_SIM}"),
    ("solver.make_ic_s", "s", "lower", f"setup_s and wall_s on {_SIM}"),
    ("solver.cfl_dt_s", "s", "lower", f"setup_s and work_per_s on {_SIM}"),
    ("inequalities.build_corpus_s", "s", "lower",
     f"wall_s and peak_rss_mb on {_MUL} and {_LAB}"),
    ("inequalities.corpus_fields", "count", "higher",
     f"work done in the traced rounds of {_MUL} and {_LAB}"),
    ("inequalities.check_embedding_self_s", "s", "lower", f"wall_s on {_LAB}"),
    ("inequalities.check_log_interpolation_self_s", "s", "lower",
     f"wall_s on {_LAB}"),
    ("inequalities.check_multiplier_bound_self_s", "s", "lower",
     f"wall_s on {_MUL}"),
    ("inequalities.check_bernstein_self_s", "s", "lower", f"wall_s on {_LAB}"),
    ("inequalities.row_yield", "ratio", "higher",
     f"wall_s on {_MUL} and {_LAB}"),
    ("extremizer.sharpness_curve_s", "s", "lower",
     f"wall_s on {_LAB} (regression guard, about 40 ms)"),
    ("extremizer.radial_norms_calls", "count", "lower", f"wall_s on {_LAB}"),
    ("runio.write_s", "s", "lower", f"wall_s on {_SIM}"),
    ("runio.bytes_written", "B", "lower", f"wall_s on {_SIM}"),
    ("runio.snapshots", "count", "higher",
     f"work done in the traced rounds of {_SIM}"),
    ("runio.parse_config_s", "s", "lower", f"wall_s on {_SIM}"),
    ("cli.self_s", "s", "lower", f"wall_s on {_CLI3} (about 0)"),
    *(
        (f"{module}.errors", "count", "lower", "failed share of operations")
        for module in MODULES
    ),
    *(
        (f"{module}.rss_rise_mb", "MB", "lower", "peak_rss_mb on every workload")
        for module in MODULES
    ),
    ("trace_overhead_frac", "ratio", "lower",
     "cost of the span recorder: traced rounds over the untraced rounds "
     "alternated with them in one process, minus 1"),
    *(
        (f"{entry}.n{n}", "ms", "lower",
         "layer cost at one size; moves the workload that runs the layer")
        for n in MICRO_SIZES for entry in MICRO_ENTRIES
    ),
)


def end_to_end_units() -> dict[str, str]:
    return {name: unit for name, unit, *_ in END_TO_END}


def per_layer_units() -> dict[str, str]:
    return {name: unit for name, unit, *_ in PER_LAYER}


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json implied by this table."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
