"""One workload in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS LAUNCHED TMP OUT

MODE is ``setup`` (set up, then exit), ``measure`` (closed loop for SECONDS,
untraced) or ``trace`` (set-up under the span recorder, then the workload's
``trace_pairs`` traced rounds alternated with as many untraced ones, then
the layer microtable).  LAUNCHED is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, ``import logeuler`` and input generation.  The
result is written as JSON to OUT.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def closed_loop(workload, seconds: float) -> list:
    """Rounds while at least half a typical round fits before ``seconds``
    (at least one), so a run overshoots by half a round at most."""
    rounds, spent = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(workload.round())
        spent.append(time.monotonic() - t0)
        if time.monotonic() - start + 0.5 * statistics.median(spent) > seconds:
            return rounds


@contextlib.contextmanager
def _recording(recorder):
    if recorder is None:
        yield
        return
    recorder.install()
    try:
        yield
    finally:
        recorder.restore()


def alternating(workload, recorder) -> dict:
    """``trace_pairs`` traced rounds and as many untraced ones in the order
    T U U T T U ...: the k-th of each kind are neighbours, so a pair sees the
    same machine speed.  A traced round comes first so that the recorder
    sees the process's memory grow."""
    rounds = {"rounds": [], "base_rounds": []}
    for i in range(2 * workload.trace_pairs):
        traced = i % 4 in (0, 3)
        with _recording(recorder if traced else None):
            r = workload.round()
        rounds["rounds" if traced else "base_rounds"].append(vars(r))
    return rounds


def main(argv: list[str]) -> None:
    mode, name, seed, seconds, launched, tmp, out = argv
    sys.path.insert(0, SRC)
    import logeuler

    if not os.path.abspath(logeuler.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported logeuler from {logeuler.__file__}, not {SRC}")
    import tracer
    import workloads

    recorder = tracer.Recorder() if mode == "trace" else None
    with _recording(recorder):
        workload = workloads.WORKLOADS[name](int(seed), tmp)
    result = {"setup_s": time.monotonic() - float(launched)}
    if mode == "measure":
        result["rounds"] = [vars(r) for r in closed_loop(workload, float(seconds))]
    elif mode == "trace":
        import microtable

        result.update(alternating(workload, recorder))
        result["spans"] = recorder.spans
        result["micro"] = microtable.microtable(int(seed))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
