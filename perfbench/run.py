"""logeuler benchmark: closed-loop workloads, output checks, metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from anywhere; it measures the logeuler sources in ``src/`` next to
this directory and exits with status 2 when they are missing.  Every
workload is a closed loop with one caller: a single-threaded process that
makes the next call only when the previous one returned.  Workloads run one
at a time, each in fresh processes (``worker.py``), so that ``setup_s`` and
``peak_rss_mb`` are their own.

``--trace 0`` prints every end-to-end metric of ``metrics.END_TO_END`` with
its unit and sample count, from untraced runs: a few processes running
rounds for ``--seconds`` in all, with set-up-only launches before, between
and after them, so that the ``setup_s`` samples spread over the whole run.
``--trace 1`` prints every per-layer metric of ``metrics.PER_LAYER`` from
one process: its set-up and the workload's traced rounds run under the span
recorder (``tracer.py``), alternated with as many untraced rounds, the base
of ``trace_overhead_frac``; then the layer microtable (``microtable.py``).
Counts in the traced run repeat exactly for one seed.

Output checks fail operations; the last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit status is 1
when any operation failed.  Workload output goes to a temporary directory
under ``.perfbench_tmp/`` that is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import metrics
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHUNKS = 5             # an untraced run's measuring processes, at most
SETUP_PROBES = 2       # set-up-only launches before, between and after them
TIME_LIMIT = 170.0     # seconds for one workload, all its processes included
CHILD_ENV = {
    # one caller, one thread: keep BLAS/OpenMP pools out of the measurement
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
PERCENTILES = (90, 99, 99.9)


class BenchError(RuntimeError):
    pass


def run_child(mode, workload, seed, seconds, tmp, deadline) -> dict:
    out = os.path.join(tmp, f"{workload}-{mode}-{time.monotonic_ns()}.json")
    launched = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
           str(seed), repr(seconds), repr(launched), tmp, out]
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                            stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) passed the {TIME_LIMIT:g} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise BenchError(f"{workload} ({mode}) worker exited with {rc}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile above the median with at least ten samples
    beyond it, or None."""
    best = None
    for pct in PERCENTILES:
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            best = (pct, statistics.quantiles(samples, n=1000, method="inclusive")
                    [round(pct * 10) - 1])
    return best


def summarize(rounds: list[dict]) -> dict:
    """Round statistics.  ``wall_s`` is the mean round (timed body over
    rounds), not the median: on the machine this was tuned on, a 2-vCPU VM
    whose speed drifts between 1x and 2.3x its best over seconds to minutes,
    the mean of a run spread less from run to run than its median."""
    walls = [r["wall"] for r in rounds]
    return {
        "walls": walls,
        "wall_s": sum(walls) / len(walls),
        "work_per_s": sum(r["units"] for r in rounds) / sum(walls),
        "units": sum(r["units"] for r in rounds),
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(len(r["errors"]) for r in rounds),
        "errors": [e for r in rounds for e in r["errors"]],
    }


def fmt_line(name, value, unit, note) -> str:
    return f"  {name:<44} {value:>14.6g} {unit:<6} {note}"


def untraced(name, seed, seconds, tmp, deadline) -> tuple[dict, dict]:
    """Measuring processes of ``seconds / CHUNKS`` each while half of one
    still fits in ``seconds``, each after ``SETUP_PROBES`` set-up-only
    launches, and as many launches after the last one."""
    launches, rounds, peaks, spent = [], [], [], []
    while True:
        launches += [run_child("setup", name, seed, seconds, tmp, deadline)["setup_s"]
                     for _ in range(SETUP_PROBES)]
        if spent and sum(spent) + 0.5 * statistics.mean(spent) > seconds:
            break
        t0 = time.monotonic()
        child = run_child("measure", name, seed, seconds / CHUNKS, tmp, deadline)
        spent.append(time.monotonic() - t0 - child["setup_s"])
        launches.append(child["setup_s"])
        rounds += child["rounds"]
        peaks.append(child["peak_rss_mb"])
    s = summarize(rounds)
    values = {
        "wall_s": s["wall_s"],
        "work_per_s": s["work_per_s"],
        "peak_rss_mb": max(peaks),
        "setup_s": statistics.median(launches),
    }
    n = len(s["walls"])
    wall_tail = tail(s["walls"])
    notes = {
        "wall_s": f"mean of {n} rounds in {len(peaks)} processes; "
        f"median {statistics.median(s['walls']):.6g}"
        + (f", p{wall_tail[0]:g} {wall_tail[1]:.6g}" if wall_tail else ""),
        "work_per_s": f"{s['units']} {metrics.UNITS[name]} over {n} rounds",
        "peak_rss_mb": "largest ru_maxrss of the measuring processes",
        "setup_s": f"median of {len(launches)} launches",
    }
    lines = [fmt_line(k, values[k], metrics.end_to_end_units()[k], notes[k])
             for k in values]
    lines.append(fmt_line("failed_frac", s["failed"] / s["attempted"], "1",
                          f"{s['failed']} failed of {s['attempted']} operations"))
    return values, {**s, "lines": lines}


def traced(name, seed, seconds, tmp, deadline) -> tuple[dict, dict]:
    child = run_child("trace", name, seed, seconds, tmp, deadline)
    s = summarize(child["rounds"])
    base = summarize(child["base_rounds"])
    steps = s["units"] if metrics.UNITS[name] == "steps" else 0
    values = tracer.layer_metrics(child["spans"], steps)
    values["trace_overhead_frac"] = s["wall_s"] / base["wall_s"] - 1.0
    values.update(child["micro"])
    units = metrics.per_layer_units()
    notes = {k: "" for k in values}
    pairs = [t / u - 1.0 for t, u in zip(s["walls"], base["walls"])]
    notes["trace_overhead_frac"] = (
        f"{len(pairs)} alternating pairs in one process; per pair "
        f"{min(pairs):+.3f} .. {max(pairs):+.3f}"
    )
    lines = [fmt_line(k, v, units[k], notes[k]) for k, v in values.items()]
    lines.append("  microtable: solver.rhs and solver.step_rk4 include the full<->half"
                 " lattice conversion that ROADMAP's _rhs_half/_rk4_half rows omit")
    return values, {**s, "lines": lines,
                    "errors": s["errors"] + base["errors"],
                    "failed": s["failed"] + base["failed"],
                    "attempted": s["attempted"] + base["attempted"]}


def check_names(values: dict, trace: bool) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != want:
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(want - set(values))}, "
            f"extra {sorted(set(values) - want)}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*metrics.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "logeuler", "__init__.py")):
        print(f"error: no logeuler sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = list(metrics.WORKLOADS) if args.workload == "all" else [args.workload]
    measure = traced if args.trace else untraced
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT
            values, s = measure(name, args.seed, args.seconds, tmp, deadline)
            check_names(values, bool(args.trace))
            results[name] = (values, s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    units = metrics.per_layer_units() if args.trace else metrics.end_to_end_units()
    out_metrics = {}
    attempted = failed = 0
    for name, (values, s) in results.items():
        print(f"== {name}  seed {args.seed}  "
              f"({'traced, alternating rounds' if args.trace else f'untraced, {args.seconds:g} s'};"
              f" {metrics.SEED_NOTES[name]})")
        print("\n".join(s["lines"]))
        for err in s["errors"]:
            print(f"  FAILED: {err}")
        print("  no layer queues or waits: one single-threaded caller, no process"
              " pool, so no wait metric is reported")
        attempted += s["attempted"]
        failed += s["failed"]
        prefix = "" if len(results) == 1 else f"{name}."
        out_metrics.update({f"{prefix}{k}": {"value": v, "unit": units[k]}
                            for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
