"""Outside-in span recorder for the traced benchmark run.

``Recorder.install()`` replaces each traced public function of logeuler,
and the 2-D transforms of ``scipy.fft`` and ``numpy.fft``, with a wrapper in
every namespace that holds it (``logeuler.solver.compute_norm_bundle``,
``logeuler.cli.run``, ``scipy.fft.irfft2``, ...), so calls between modules
and within one module are both seen.  ``restore()`` puts the originals back;
nothing under ``src/`` is edited.  A span is ``[name, layer, parent, start,
end, escaped, rss_rise_kb, extra]``; spans stay in memory until the run
ends.  Self time is a span's duration minus its children's durations (the
caller is single-threaded, so children never overlap).

``layer_metrics`` reduces the spans to the per-layer metrics of
``metrics.PER_LAYER``; it needs only the standard library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
from collections import defaultdict
from time import perf_counter

# layer (logeuler module) -> public functions whose calls are recorded.
# spectral.reflect and hermitian_part stay unwrapped so that
# dft_inverse's self time includes its Hermitian check.
TRACED = {
    "spectral": ("dft_forward", "dft_inverse", "gradient", "perp_gradient",
                 "inv_laplacian", "dealias", "project_zero_mean"),
    "multipliers": ("tgamma_eval", "phi_eval", "tgamma_symbol",
                    "apply_multiplier", "lp_project", "velocity_spectral",
                    "biot_savart", "mtilde"),
    "norms": ("lp_norm", "lp_norm_map", "sobolev_norm", "sup_p_ratio",
              "grad_u_sup", "generalized_energy", "compute_norm_bundle"),
    "solver": ("make_ic", "rhs", "cfl_dt", "step_rk4", "advance", "run",
               "gronwall_envelope"),
    "inequalities": ("build_corpus", "check_embedding",
                     "check_log_interpolation", "check_multiplier_bound",
                     "check_bernstein"),
    "extremizer": ("build_extremizer", "radial_norms", "sharpness_curve"),
    "runio": ("parse_config", "write_config_echo", "write_diagnostics_csv",
              "read_diagnostics_csv", "write_snapshot", "read_snapshot",
              "write_inequality_csv", "write_sharpness_csv"),
    "cli": ("run_cli",),
}
FFT_NAMESPACES = ("scipy.fft", "numpy.fft")
FFT_FUNCS = ("fft2", "ifft2", "rfft2", "irfft2")

NAME, LAYER, PARENT, START, END, ESCAPED, RSS, EXTRA = range(8)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _fft_bytes(args, kwargs, result):
    return int(getattr(args[0], "nbytes", 0)) + int(result.nbytes)


def _written_bytes(args, kwargs, result):
    path = kwargs.get("path", args[-1])
    return os.path.getsize(path)


def _length(args, kwargs, result):
    return len(result)


def _check_extra(fn):
    """Rows emitted and (block x exponent) combinations tried per field."""
    sig = inspect.signature(fn)

    def extra(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        per_field = 1
        for key in ("N_set", "q", "pq_pairs"):
            if key in bound:
                per_field *= len(bound[key])
        return [len(result.rows), per_field]

    return extra


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._rss = 0

    def install(self) -> None:
        for layer in TRACED:
            importlib.import_module(f"logeuler.{layer}")
        namespaces = [
            module for name, module in list(sys.modules.items())
            if name == "logeuler" or name.startswith("logeuler.")
        ]
        for layer, names in TRACED.items():
            module = sys.modules[f"logeuler.{layer}"]
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                hook = None
                if fname.startswith("write_"):
                    hook = _written_bytes
                elif fname == "build_corpus":
                    hook = _length
                elif fname.startswith("check_"):
                    hook = _check_extra(fn)
                self._patch(fn, self._wrap(f"{layer}.{fname}", layer, fn, hook),
                            namespaces)
        for ns_name in FFT_NAMESPACES:
            ns = importlib.import_module(ns_name)
            for fname in FFT_FUNCS:
                fn = getattr(ns, fname)
                self._patch(fn, self._wrap(f"{ns_name}.{fname}", "spectral", fn,
                                           _fft_bytes), [*namespaces, ns])
        self._rss = _maxrss_kb()

    def restore(self) -> None:
        for ns, key, fn in reversed(self._undo):
            setattr(ns, key, fn)
        self._undo.clear()

    def _patch(self, fn, wrapper, namespaces) -> None:
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapper)
                    self._undo.append((ns, key, fn))

    def _wrap(self, name, layer, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, False, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ESCAPED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                rss = _maxrss_kb()
                if rss > self._rss:
                    span[RSS] = rss - self._rss
                    self._rss = rss
            if hook is not None:
                span[EXTRA] = hook(args, kwargs, result)
            return result

        return traced


def layer_metrics(spans: list[list], steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in metrics.PER_LAYER
    (without trace_overhead_frac and the microtable)."""
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
            children[s[PARENT]].append(i)

    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    extra_sum = defaultdict(int)
    errors = defaultdict(int)
    rss_kb = defaultdict(int)
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        total[name] += dur[i]
        self_s[name] += dur[i] - child_time[i]
        if isinstance(s[EXTRA], int):
            extra_sum[name] += s[EXTRA]
        rss_kb[s[LAYER]] += s[RSS]
        parent = s[PARENT]
        if s[ESCAPED] and (parent < 0 or spans[parent][LAYER] != s[LAYER]):
            errors[s[LAYER]] += 1

    fft = [f"{ns}.{fn}" for ns in FFT_NAMESPACES for fn in FFT_FUNCS]
    fft_calls = sum(calls[n] for n in fft)
    rows = attempted = 0
    for i, s in enumerate(spans):
        if s[NAME].startswith("inequalities.check_") and s[EXTRA]:
            emitted, per_field = s[EXTRA]
            fields = sum(
                spans[c][EXTRA] or 0 for c in children[i]
                if spans[c][NAME] == "inequalities.build_corpus"
            )
            rows += emitted
            attempted += per_field * fields
    writes = [n for n in total if n.startswith("runio.write_")]

    m = {
        "spectral.fft_calls": fft_calls,
        "spectral.fft_s": sum(total[n] for n in fft),
        "spectral.fft_bytes_computed": sum(extra_sum[n] for n in fft),
        "spectral.fft_calls_per_step": fft_calls / steps if steps else 0.0,
        "spectral.dft_inverse_calls": calls["spectral.dft_inverse"],
        "spectral.dft_inverse_self_s": self_s["spectral.dft_inverse"],
        "multipliers.symbol_evals":
            calls["multipliers.tgamma_eval"] + calls["multipliers.phi_eval"],
        "multipliers.symbol_eval_s":
            total["multipliers.tgamma_eval"] + total["multipliers.phi_eval"],
        "multipliers.lp_project_self_s": self_s["multipliers.lp_project"],
        "multipliers.apply_multiplier_self_s": self_s["multipliers.apply_multiplier"],
        "multipliers.velocity_spectral_s": total["multipliers.velocity_spectral"],
        "norms.bundle_calls": calls["norms.compute_norm_bundle"],
        "norms.bundle_s": total["norms.compute_norm_bundle"],
        **{
            f"norms.{fn}_self_s": self_s[f"norms.{fn}"]
            for fn in ("grad_u_sup", "lp_norm_map", "sup_p_ratio", "lp_norm",
                       "sobolev_norm", "generalized_energy")
        },
        "solver.steps": steps,
        "solver.run_self_s": self_s["solver.run"],
        "solver.make_ic_s": total["solver.make_ic"],
        "solver.cfl_dt_s": total["solver.cfl_dt"],
        "inequalities.build_corpus_s": total["inequalities.build_corpus"],
        "inequalities.corpus_fields": extra_sum["inequalities.build_corpus"],
        **{
            f"inequalities.{fn}_self_s": self_s[f"inequalities.{fn}"]
            for fn in ("check_embedding", "check_log_interpolation",
                       "check_multiplier_bound", "check_bernstein")
        },
        "inequalities.row_yield": rows / attempted if attempted else 0.0,
        "extremizer.sharpness_curve_s": total["extremizer.sharpness_curve"],
        "extremizer.radial_norms_calls": calls["extremizer.radial_norms"],
        "runio.write_s": sum(total[n] for n in writes),
        "runio.bytes_written": sum(extra_sum[n] for n in writes),
        "runio.snapshots": calls["runio.write_snapshot"],
        "runio.parse_config_s": total["runio.parse_config"],
        "cli.self_s": self_s["cli.run_cli"],
    }
    for layer in TRACED:
        m[f"{layer}.errors"] = errors[layer]
        m[f"{layer}.rss_rise_mb"] = rss_kb[layer] / 1024.0
    return m
