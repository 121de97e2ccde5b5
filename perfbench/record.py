"""Record one point of the benchmark trajectory.

    python3 perfbench/record.py TAG [--seeds 1,2,...] [--seconds 25]

Runs ``run.py`` once per workload and seed untraced, and once per workload
traced (first seed), one invocation at a time.  Writes
``perfbench/BENCH_<TAG>.json`` with every end-to-end metric's median,
quartiles and spread (quartile distance over median) against its bound,
the traced per-layer metrics, and a description of the machine gathered by
reading ``/proc``, ``/sys`` and ``.git`` only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        head = _read(os.path.join(git, "HEAD"))
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            return _read(os.path.join(git, ref))
        for line in _read(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = _read(os.path.join(index, "size"))
    mem_kb = None
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "mem_total_mb": mem_kb // 1024 if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag")
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {name: bound for name, _, _, bound, _ in metrics.END_TO_END}

    untraced, traced = {}, {}
    for workload in metrics.WORKLOADS:
        runs = [bench(workload, seed, args.seconds, 0) for seed in seeds]
        summary = {}
        for name, unit in metrics.end_to_end_units().items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": bounds[name], "values": values,
            }
            print(f"{workload:<24} {name:<12} median {med:12.6g} {unit:<4} "
                  f"spread {(q3 - q1) / med:6.3f} (bound {bounds[name]})")
        untraced[workload] = {
            "seeds": seeds,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": summary,
        }
        traced_run = bench(workload, seeds[0], args.seconds, 1)
        traced[workload] = {
            "seed": seeds[0],
            "metrics": {k: v["value"] for k, v in traced_run["metrics"].items()},
        }

    point = {
        "tag": args.tag,
        "run_seconds": args.seconds,
        "machine": machine(),
        "untraced": untraced,
        "traced": traced,
    }
    path = os.path.join(HERE, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    print(f"-> {path}")


if __name__ == "__main__":
    main()
