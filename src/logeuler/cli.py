"""Command-line front end: single runs, gamma/resolution sweeps, the
inequality-verification lab, and report rendering from stored CSVs.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .extremizer import sharpness_curve
from .inequalities import (
    CorpusSpec,
    InequalityReport,
    check_bernstein,
    check_embedding,
    check_log_interpolation,
    check_multiplier_bound,
)
from .runio import (
    CONFIG_DEFAULTS,
    ConfigError,
    DIAG_HEADER,
    RunSettings,
    default_out_root,
    parse_config,
    read_diagnostics_csv,
    records_from_rows,
    write_config_echo,
    write_diagnostics_csv,
    write_inequality_csv,
    write_sharpness_csv,
    write_snapshot,
)
from .solver import gronwall_envelope, run

__all__ = ["main", "run_cli"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logeuler",
        description="Pseudo-spectral log-regularized 2D Euler solver and "
        "inequality verification lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--gamma", help="log-smoothing exponent (>= 0)")
        p.add_argument("--n", help="grid resolution (power of two >= 8)")
        p.add_argument("--tmax", dest="t_max", help="integration time")
        p.add_argument("--cfl", help="CFL number in (0, 1]")
        p.add_argument("--mollify", help="dyadic cutoff N, 'dealias' or 'auto'")
        p.add_argument(
            "--ic", help="single_mode | shell | random_band | vortex_pair"
        )
        p.add_argument("--ic-band", help="random_band cutoff (0 = auto n/16)")
        p.add_argument("--seed", help="random seed")
        p.add_argument("--pmax", dest="p_max",
                       help="largest Lebesgue exponent tracked")
        p.add_argument("--diag-every", help="steps between diagnostics records")
        p.add_argument("--snap-every", help="steps between snapshots (0 = off)")
        p.add_argument("--out", metavar="DIR", help="output directory")

    p_sim = sub.add_parser("simulate", help="integrate one configuration")
    add_common(p_sim)

    p_sweep = sub.add_parser(
        "sweep", help="cartesian product of gamma and resolution lists"
    )
    add_common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs")

    p_ver = sub.add_parser("verify", help="run one inequality check")
    p_ver.add_argument(
        "mode",
        choices=["embedding", "loginterp", "multiplier", "bernstein", "sharpness"],
    )
    p_ver.add_argument("--gamma", type=float, default=1.5)
    p_ver.add_argument("--n", type=int, default=128, help="corpus grid resolution")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--size", type=int, default=80, help="corpus size")
    p_ver.add_argument("--band", type=int, default=0, help="corpus band (0 = n/4)")
    p_ver.add_argument("--pmax", type=int, default=64)
    p_ver.add_argument("--nmax", type=int, default=256, help="largest dyadic block")
    p_ver.add_argument("--out", metavar="DIR")

    p_rep = sub.add_parser("report", help="summarize stored CSV output")
    p_rep.add_argument("path", help="run directory or CSV file")
    return parser


# ---------------------------------------------------------------------------
# simulate / sweep
# ---------------------------------------------------------------------------

def _overrides_from_args(args) -> dict[str, object]:
    """The config keys given as flags; a flag's dest is its config key."""
    return {key: getattr(args, key) for key in CONFIG_DEFAULTS
            if getattr(args, key, None) is not None}


def _execute_run(settings: RunSettings) -> int:
    os.makedirs(settings.out_dir, exist_ok=True)
    result = run(settings.solver)
    write_config_echo(settings, os.path.join(settings.out_dir, "config.txt"))
    if result.records:
        write_diagnostics_csv(
            result.records, os.path.join(settings.out_dir, "diagnostics.csv")
        )
    if result.snapshots:
        snap_dir = os.path.join(settings.out_dir, "snapshots")
        os.makedirs(snap_dir, exist_ok=True)
        for snap in result.snapshots:
            write_snapshot(
                snap, os.path.join(snap_dir, f"step_{snap.step_count:08d}.lgeu")
            )
    if result.blown_up:
        marker = os.path.join(settings.out_dir, "blowup.txt")
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(
                f"blow-up at t = {result.blowup_t!r}, step {result.blowup_step}\n"
            )
        print(
            f"BLOW-UP at t = {result.blowup_t:.6g} (step {result.blowup_step}); "
            f"partial results in {settings.out_dir}",
            file=sys.stderr,
        )
        return 1
    final = result.records[-1]
    print(
        f"run finished: t = {final.t:.6g}, records = {len(result.records)}, "
        f"l2 = {final.norms.l2:.9g}, energy = {final.norms.energy_gamma:.9g} "
        f"-> {settings.out_dir}"
    )
    return 0


def _cmd_simulate(args) -> int:
    settings = parse_config(args.config, _overrides_from_args(args))
    return _execute_run(settings)


def _sweep_worker(config: str | None, overrides: dict) -> tuple[int, str]:
    """One sweep run as (exit status, status line); an error fails only it."""
    try:
        code = _execute_run(parse_config(config, overrides))
    except (ConfigError, OSError, ValueError) as exc:
        return 1, f"error: {exc}"
    return code, "ok" if code == 0 else f"exit {code}"


def _cmd_sweep(args) -> int:
    overrides = _overrides_from_args(args)
    if "gamma" not in overrides or "n" not in overrides:
        base = parse_config(args.config).raw  # file values, then defaults
        overrides = {"gamma": base["gamma"], "n": base["n"], **overrides}
    gammas = str(overrides.pop("gamma")).split(",")
    ns = str(overrides.pop("n")).split(",")
    out_root = overrides.pop("out", None)
    if out_root is None:
        out_root = os.path.join(default_out_root(), "sweep")
    jobs = []
    for gamma in gammas:
        for n in ns:
            child = dict(overrides)
            child["gamma"] = gamma
            child["n"] = n
            child["out"] = os.path.join(out_root, f"g{float(gamma):g}_n{int(n)}")
            jobs.append(child)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_worker, [args.config] * len(jobs), jobs))
    else:
        results = list(map(_sweep_worker, [args.config] * len(jobs), jobs))
    for child, (_, status) in zip(jobs, results):
        print(f"  {os.path.basename(child['out'])}: {status}")
    print(f"sweep finished: {len(jobs)} runs under {out_root}")
    return max((code for code, _ in results), default=0)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _dyadic_range(n_max: int) -> list[float]:
    out = []
    value = 2.0
    while value <= n_max:
        out.append(value)
        value *= 2.0
    return out


def _print_report(report: InequalityReport, csv_path: str) -> None:
    print(f"== {report.name} ==")
    for key, value in report.params.items():
        print(f"  {key} = {value}")
    print(f"  rows = {len(report.rows)}")
    print(f"  max ratio = {report.max_ratio:.9g}  (worst: {report.attaining_id})")
    print(f"  csv -> {csv_path}")


def _cmd_verify(args) -> int:
    out_dir = args.out or os.path.join(default_out_root(), "verify")
    os.makedirs(out_dir, exist_ok=True)
    corpus = CorpusSpec(
        kind="default", seed=args.seed, size=args.size, band=args.band, n=args.n
    )
    csv_path = os.path.join(out_dir, f"{args.mode}.csv")
    if args.mode == "sharpness":
        if args.pmax < 4:
            raise ConfigError("sharpness needs --pmax >= 4")
        p_list, p = [], 4.0
        while p <= args.pmax:
            p_list.append(p)
            p *= 2.0
        rows = sharpness_curve(p_list)
        write_sharpness_csv(rows, csv_path)
        print("== sharpness ==")
        print("       p    ||f||_2   ||f||_H1dot    ||f||_p     ratio   1/sqrt(log p)")
        for row in rows:
            print(
                f"  {row.p:6.0f}  {row.l2:9.5f}  {row.h1dot:12.5f}  "
                f"{row.lp:9.5f}  {row.embed_ratio:8.5f}  {row.inv_sqrt_log_p:10.5f}"
            )
        print(f"  csv -> {csv_path}")
        return 0
    if args.mode == "embedding":
        report = check_embedding(corpus, args.pmax)
    elif args.mode == "loginterp":
        report = check_log_interpolation(corpus, args.gamma, args.pmax)
    elif args.mode == "multiplier":
        report = check_multiplier_bound(
            args.gamma, _dyadic_range(args.nmax), (2.0, float("inf")), corpus
        )
    else:  # bernstein
        pairs = ((2.0, 2.0), (2.0, 4.0), (2.0, float("inf")), (4.0, float("inf")))
        report = check_bernstein(corpus, _dyadic_range(args.nmax), pairs)
    write_inequality_csv(report, csv_path)
    _print_report(report, csv_path)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _summarize_diagnostics(path: str) -> int:
    rows = read_diagnostics_csv(path)
    records = records_from_rows(rows)
    print(f"== diagnostics: {path} ({len(rows)} records) ==")
    for col in ("l2", "l4", "l8", "energy_gamma"):
        series = [row[col] for row in rows]
        lo, hi = min(series), max(series)
        drift = (hi - lo) / lo if lo > 0 else 0.0
        print(f"  {col}: start {series[0]:.9g}  relative drift {drift:.3e}")
    if len(records) >= 3:
        env = gronwall_envelope(records, records[0].norms)
        flag = "VIOLATED" if env.violated else "ok"
        print(
            f"  envelope fits: c_a = {env.c_a:.6g}, c_b = {env.c_b:.6g} "
            f"(ceiling {env.ceiling:g}, {flag})"
        )
    else:
        print("  envelope fits: need at least 3 records")
    return 0


def _summarize_generic_csv(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    print(f"== {os.path.basename(path)}: {len(rows)} rows ==")
    if "ratio" in header:
        idx = header.index("ratio")
        ratios = [float(row[idx]) for row in rows]
        worst = max(range(len(ratios)), key=ratios.__getitem__)
        print(f"  max ratio = {ratios[worst]:.9g}  (row: {rows[worst][0]})")
    else:
        for name, row in zip(header, zip(*rows)):
            print(f"  {name}: {', '.join(row)}")
    return 0


def _cmd_report(args) -> int:
    path = args.path
    if os.path.isdir(path):
        path = os.path.join(path, "diagnostics.csv")
    if not os.path.exists(path):
        print(f"no report input at {path}", file=sys.stderr)
        return 1
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header == DIAG_HEADER:
        return _summarize_diagnostics(path)
    return _summarize_generic_csv(path)


def run_cli(argv=None) -> int:
    """Dispatch one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
