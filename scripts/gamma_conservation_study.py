#!/usr/bin/env python3
"""Conservation and norm-growth study across smoothing strengths.

Integrates the same seeded initial vorticity for several gamma values and
tabulates the invariant drifts, the velocity-gradient sup norm, and the
fitted envelope constants.
"""

import argparse
import os

from logeuler.runio import write_diagnostics_csv
from logeuler.solver import (
    InitialConditionSpec,
    SolverConfig,
    gronwall_envelope,
    run,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--tmax", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--amplitude", type=float, default=10.0)
    parser.add_argument(
        "--gammas", default="0,0.5,1,1.5", help="comma-separated gamma list"
    )
    parser.add_argument("--out", default="runs/gamma_study")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    header = (
        f"{'gamma':>6} {'steps':>6} {'l2 drift':>12} {'energy drift':>13} "
        f"{'grad_u_sup':>11} {'c_a':>10} {'c_b':>10}"
    )
    print(header)
    for gamma in (float(g) for g in args.gammas.split(",")):
        cfg = SolverConfig(
            n=args.n,
            gamma=gamma,
            t_max=args.tmax,
            cfl=0.2,
            mollify="dealias",
            ic=InitialConditionSpec(kind="random_band", amplitude=args.amplitude),
            seed=args.seed,
            diag_interval=1,
        )
        result = run(cfg)
        records = result.records
        path = os.path.join(args.out, f"gamma_{gamma:g}.csv")
        write_diagnostics_csv(records, path)
        if result.blown_up:
            print(f"{gamma:6.2f}  blow-up at t = {result.blowup_t:.4g}")
            continue
        l2s = [r.norms.l2 for r in records]
        energies = [r.norms.energy_gamma for r in records]
        row = (
            f"{gamma:6.2f} {len(records) - 1:6d} "
            f"{(max(l2s) - min(l2s)) / l2s[0]:12.3e} "
            f"{(max(energies) - min(energies)) / energies[0]:13.3e} "
            f"{records[-1].norms.grad_u_sup:11.4f}"
        )
        if len(records) < 3:
            print(f"{row}  envelope fits: need at least 3 records")
            continue
        env = gronwall_envelope(records, records[0].norms)
        print(f"{row} {env.c_a:10.3e} {env.c_b:10.3e}")


if __name__ == "__main__":
    main()
