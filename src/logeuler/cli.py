"""Command-line front end: single runs, gamma/resolution sweeps, the
inequality-verification lab, and report rendering from stored CSVs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from contextlib import nullcontext

from .extremizer import sharpness_curve
from .inequalities import (
    CorpusSpec,
    check_bernstein,
    check_embedding,
    check_log_interpolation,
    check_multiplier_bound,
    family_maxima,
)
from .runio import (
    KEYS,
    RUN_KEYS,
    ConfigError,
    DIAG_HEADER,
    RunSettings,
    default_out_root,
    diagnostics_row,
    parse_config,
    parse_value,
    parse_values,
    read_config_file,
    read_diagnostics_csv,
    records_from_rows,
    write_config_echo,
    write_inequality_csv,
    write_sharpness_csv,
    write_snapshot,
)
from .solver import (ENVELOPE_CEILING, BlowUpError, SolverConfig, StallError,
                     gronwall_envelope, run)

__all__ = ["build_parser", "run_cli"]


VERIFY_KEYS = ("gamma", "n", "seed", "size", "band", "p_max", "nmax", "out")
NMAX = 256  # verify's largest dyadic block unless --nmax is given


def _add_keys(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        key = KEYS[name]
        parser.add_argument(key.flag or "--" + name.replace("_", "-"),
                            dest=name, help=key.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logeuler",
        description="Pseudo-spectral log-regularized 2D Euler solver and "
        "inequality verification lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one configuration")
    p_sweep = sub.add_parser(
        "sweep", help="cartesian product of the comma-separated gamma and n "
        "lists, from the flags or the config file"
    )
    for p in (p_sim, p_sweep):
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        _add_keys(p, RUN_KEYS)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel runs")

    p_ver = sub.add_parser("verify", help="run one inequality check")
    p_ver.add_argument(
        "mode",
        choices=["embedding", "loginterp", "multiplier", "bernstein", "sharpness"],
    )
    _add_keys(p_ver, VERIFY_KEYS)

    p_rep = sub.add_parser("report", help="summarize stored CSV output")
    p_rep.add_argument("path", help="run directory or CSV file")
    return parser


# ---------------------------------------------------------------------------
# simulate / sweep
# ---------------------------------------------------------------------------

def _given(args, names) -> dict[str, str]:
    """The unparsed values of the keys given as flags."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _execute_run(settings: RunSettings) -> tuple[int, str]:
    """Run one configuration as (exit status, closing line: stdout's, or
    stderr's after a blow-up (1) or a stall (3)), writing the config echo
    first, each CSV row flushed as made and each snapshot renamed into place
    once whole."""
    out = settings.out_dir
    os.makedirs(out, exist_ok=True)
    write_config_echo(settings, os.path.join(out, "config.txt"))
    count, final = 0, None

    def on_record(rec) -> None:
        nonlocal count, final
        diag.write(diagnostics_row(rec))
        diag.flush()
        count, final = count + 1, rec

    def on_snapshot(snap) -> None:
        path = os.path.join(out, "snapshots", f"step_{snap.step_count:08d}.lgeu")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_snapshot(snap, path + ".tmp")
        os.replace(path + ".tmp", path)

    with open(os.path.join(out, "diagnostics.csv"), "w", encoding="utf-8",
              newline="\n") as diag:
        diag.write(DIAG_HEADER + "\n")
        try:
            run(settings.solver, on_record, on_snapshot)
        except BlowUpError as exc:
            with open(os.path.join(out, "blowup.txt"), "w", encoding="utf-8") as fh:
                fh.write(f"blow-up at t = {exc.t!r}, step {exc.step_count}\n")
            return 1, (f"BLOW-UP at t = {exc.t:.6g} (step {exc.step_count}); "
                       f"partial results in {out}")
        except StallError as exc:
            return 3, (f"STALL at t = {exc.t:.6g} (step {exc.step_count}, "
                       f"dt = {exc.dt:.3g}); partial results in {out}")
    return 0, (f"run finished: t = {final.t:.6g}, records = {count}, "
               f"l2 = {final.norms.l2:.9g}, energy = {final.norms.energy_gamma:.9g} "
               f"-> {out}")


def _cmd_simulate(args) -> int:
    code, line = _execute_run(parse_config(args.config, _given(args, RUN_KEYS)))
    print(line, file=sys.stderr if code else sys.stdout)
    return code


def _sweep_worker(values: dict) -> tuple[int, str, str, str]:
    """One sweep run as (exit status, status line, the text of its warnings,
    closing line), printed by the caller in job order; an error fails only
    this run."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, line = _execute_run(parse_config(None, values))
            status = "ok" if code == 0 else f"exit {code}"
        except (ConfigError, OSError, ValueError) as exc:
            code, status, line = 1, f"error: {exc}", ""
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename,
                                           w.lineno, w.line) for w in caught)
    return code, status, shown, line


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    given = read_config_file(args.config) if args.config else {}
    given.update(_given(args, RUN_KEYS))  # flags override the file

    def axis(name: str) -> list:
        if name not in given:
            return [getattr(SolverConfig, name)]
        return [parse_value(name, text) for text in given.pop(name).split(",")]

    gammas, ns = axis("gamma"), axis("n")
    base = parse_values(given)  # every other value fails before any run
    out_root = base.pop("out", "") or os.path.join(default_out_root(), "sweep")
    jobs = [base | {"gamma": gamma, "n": n,
                    "out": os.path.join(out_root, f"g{gamma:g}_n{n}")}
            for gamma in gammas for n in ns]
    outs = [job["out"] for job in jobs]
    shared = sorted({os.path.basename(out) for out in outs if outs.count(out) > 1})
    if shared:
        raise ConfigError(f"sweep runs would share a directory: {', '.join(shared)}")
    workers = min(args.jobs, len(jobs))
    results = []
    pool = None
    if workers > 1:  # imported here, or every launch would load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool or nullcontext():
        for code, status, shown, line in (pool.map if pool else map)(
                _sweep_worker, jobs):
            sys.stderr.write(shown)
            if line:
                print(line, file=sys.stderr if code else sys.stdout)
            results.append((code, status))
    for out, (_, status) in zip(outs, results):
        print(f"  {os.path.basename(out)}: {status}")
    print(f"sweep finished: {len(jobs)} runs under {out_root}")
    return max(code for code, _ in results)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _doublings(first: float, last: float) -> list[float]:
    """first, 2 first, 4 first, ... up to last."""
    out = []
    while first <= last:
        out.append(first)
        first *= 2.0
    return out


def _cmd_verify(args) -> int:
    # every input error surfaces before the output directory is made
    given = parse_values(_given(args, VERIFY_KEYS))
    out_dir = given.pop("out", "") or os.path.join(default_out_root(), "verify")
    csv_path = os.path.join(out_dir, f"{args.mode}.csv")
    gamma = given.pop("gamma", SolverConfig.gamma)
    p_max = given.pop("p_max", SolverConfig.p_max)
    n_set = _doublings(2.0, given.pop("nmax", NMAX))
    if args.mode == "sharpness":
        rows = sharpness_curve(_doublings(4.0, p_max))
        os.makedirs(out_dir, exist_ok=True)
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
    corpus = CorpusSpec(**given)  # n, seed, size and band as given
    if args.mode == "embedding":
        report = check_embedding(corpus, p_max)
    elif args.mode == "loginterp":
        report = check_log_interpolation(corpus, gamma, p_max)
    elif args.mode == "multiplier":
        report = check_multiplier_bound(gamma, n_set, (2.0, float("inf")), corpus)
    else:  # bernstein
        pairs = ((2.0, 2.0), (2.0, 4.0), (2.0, float("inf")), (4.0, float("inf")))
        report = check_bernstein(corpus, n_set, pairs)
    os.makedirs(out_dir, exist_ok=True)
    write_inequality_csv(report, csv_path)
    print(f"== {report.name} ==")
    for key, value in report.params.items():
        print(f"  {key} = {value}")
    print(f"  rows = {len(report.rows)}")
    print(f"  max ratio = {report.max_ratio:.9g}  (worst: {report.attaining_id})")
    _print_family_maxima(report.family_maxima)
    print(f"  csv -> {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _print_family_maxima(maxima: dict[str, float]) -> None:
    print("  max ratio by family: "
          + ", ".join(f"{family} {value:.9g}" for family, value in maxima.items()))


def _summarize_diagnostics(path: str) -> int:
    rows = read_diagnostics_csv(path)
    records = records_from_rows(rows)
    print(f"== diagnostics: {path} ({len(rows)} records) ==")
    if not rows:  # a run stopped before its first record
        print("  no records: nothing to summarize")
        return 0
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
            f"(ceiling {ENVELOPE_CEILING:g}, {flag})"
        )
    else:
        print("  envelope fits: need at least 3 records")
    return 0


def _summarize_generic_csv(path: str) -> int:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = rows.pop(0) if rows else []
    # files written before ids were quoted split single_mode[1,0] in two
    rows = [[",".join(row[:k]), *row[k:]]
            for row in rows for k in [len(row) - len(header) + 1]]
    print(f"== {os.path.basename(path)}: {len(rows)} rows ==")
    if not rows:
        print("  no rows: nothing to summarize")
    elif "ratio" in header:
        idx = header.index("ratio")
        ratios = [float(row[idx]) for row in rows]
        worst = max(range(len(ratios)), key=ratios.__getitem__)
        print(f"  max ratio = {ratios[worst]:.9g}  (row: {rows[worst][0]})")
        _print_family_maxima(family_maxima((row[0], r) for row, r in zip(rows, ratios)))
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {"simulate": _cmd_simulate, "sweep": _cmd_sweep,
                "verify": _cmd_verify, "report": _cmd_report}
    try:
        return commands[args.command](args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(run_cli())
