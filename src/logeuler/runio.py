"""On-disk formats: key=value config files, diagnostics CSV, binary field
snapshots, and the CSV forms of inequality/sharpness reports.

All numeric serialization uses 17 significant digits with a dot decimal
separator, so re-parsing a written file reproduces every float64 exactly.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .extremizer import SharpnessRow
from .inequalities import InequalityReport
from .norms import NormBundle
from .solver import DiagnosticsRecord, InitialConditionSpec, Snapshot, SolverConfig

__all__ = [
    "ConfigError",
    "SnapshotError",
    "RunSettings",
    "Snapshot",
    "CONFIG_DEFAULTS",
    "DIAG_HEADER",
    "parse_config",
    "write_config_echo",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
    "records_from_rows",
    "write_snapshot",
    "read_snapshot",
    "write_inequality_csv",
    "write_sharpness_csv",
    "default_out_root",
]


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


class SnapshotError(ValueError):
    """Malformed snapshot file."""


SNAPSHOT_MAGIC = b"LGEU"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIddQ")  # magic, version, n, gamma, time, step_count

DIAG_HEADER = "t,dt,l2,l4,l8,h1dot,hm1dot,sup_p_ratio,grad_u_sup,energy_gamma"

# every key is optional; values shown are the documented defaults
CONFIG_DEFAULTS: Mapping[str, object] = {
    "n": 256,
    "gamma": 1.5,
    "t_max": 1.0,
    "cfl": 0.5,
    "mollify": "auto",
    "ic": "random_band",
    "ic_mode": "1,0",
    "ic_band": 0,
    "ic_amplitude": 1.0,
    "ic_width": 0.4,
    "ic_separation": math.pi / 2,
    "seed": 0,
    "p_max": 64,
    "diag_every": 10,
    "snap_every": 0,
    "out": "",
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def default_out_root() -> str:
    return os.environ.get("LGEU_OUT", "runs")


@dataclass(frozen=True)
class RunSettings:
    """A fully resolved simulation configuration plus its output directory."""

    solver: SolverConfig
    out_dir: str
    raw: Mapping[str, object]


def _parse_value(key: str, text: str):
    default = CONFIG_DEFAULTS[key]
    text = text.strip()
    try:
        if key == "mollify":
            return text if text in ("auto", "dealias") else int(text)
        if key == "ic_mode":
            parts = [int(p) for p in text.split(",")]
            if len(parts) != 2:
                raise ValueError("expected two integers")
            return f"{parts[0]},{parts[1]}"
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': cannot parse {text!r} ({exc})")


def _read_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
            values[key] = _parse_value(key, text)
    return values


def parse_config(
    path: str | None = None, overrides: Mapping[str, object] | None = None
) -> RunSettings:
    """Resolve a simulation configuration.

    File values override defaults, explicit overrides (CLI flags) override
    the file.  Unknown keys and out-of-range values raise ``ConfigError``
    naming the offending key.
    """
    values = dict(CONFIG_DEFAULTS)
    if path is not None:
        values.update(_read_config_file(path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"unknown config key '{key}'")
        values[key] = _parse_value(key, str(val)) if isinstance(val, str) else val

    mode = tuple(int(p) for p in str(values["ic_mode"]).split(","))
    try:
        ic = InitialConditionSpec(
            kind=str(values["ic"]),
            mode=(mode[0], mode[1]),
            band=int(values["ic_band"]),
            seed=int(values["seed"]),
            amplitude=float(values["ic_amplitude"]),
            width=float(values["ic_width"]),
            separation=float(values["ic_separation"]),
        )
        solver = SolverConfig(
            n=int(values["n"]),
            gamma=float(values["gamma"]),
            t_max=float(values["t_max"]),
            cfl=float(values["cfl"]),
            mollify=values["mollify"],
            ic=ic,
            seed=int(values["seed"]),
            p_max=int(values["p_max"]),
            diag_interval=int(values["diag_every"]),
            snapshot_interval=int(values["snap_every"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out = str(values["out"])
    if not out:
        name = f"sim-g{solver.gamma:g}-n{solver.n}-seed{solver.seed}"
        out = os.path.join(default_out_root(), name)
    return RunSettings(solver, out, values)


def write_config_echo(settings: RunSettings, path: str) -> None:
    """Write the fully resolved configuration as sorted key = value lines.

    The output directory itself is omitted: the echo describes the run, and
    identical runs must produce identical files wherever they land.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(settings.raw):
            if key == "out":
                continue
            value = settings.raw[key]
            text = _fmt(value) if isinstance(value, float) else str(value)
            fh.write(f"{key} = {text}\n")


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

def write_diagnostics_csv(records: Sequence[DiagnosticsRecord], path: str) -> None:
    """One row per record under the fixed header, full float64 precision."""
    if not records:
        raise ValueError("no diagnostics records to write")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(DIAG_HEADER + "\n")
        for rec in records:
            b = rec.norms
            row = (
                rec.t, rec.dt_used, b.l2, b.lp[4], b.lp[8], b.h1dot, b.hm1dot,
                b.sup_p_ratio, b.grad_u_sup, b.energy_gamma,
            )
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_diagnostics_csv(path: str) -> list[dict[str, float]]:
    """Parse a diagnostics CSV back into per-row {column: value} dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != DIAG_HEADER:
            raise ValueError(f"{path}: unexpected diagnostics header {header!r}")
        cols = header.split(",")
        rows = []
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(cols):
                raise ValueError(f"{path}: ragged row {line!r}")
            rows.append({c: float(v) for c, v in zip(cols, parts)})
    return rows


def records_from_rows(rows: Sequence[Mapping[str, float]]) -> list[DiagnosticsRecord]:
    """Rebuild diagnostics records (as far as the CSV allows) for refits."""
    records = []
    for row in rows:
        bundle = NormBundle(
            l2=row["l2"],
            h1dot=row["h1dot"],
            hm1dot=row["hm1dot"],
            lp={2: row["l2"], 4: row["l4"], 8: row["l8"]},
            sup_p_ratio=row["sup_p_ratio"],
            grad_u_sup=row["grad_u_sup"],
            energy_gamma=row["energy_gamma"],
        )
        records.append(DiagnosticsRecord(row["t"], bundle, row["dt"], 0.0))
    return records


# ---------------------------------------------------------------------------
# binary snapshots
# ---------------------------------------------------------------------------

def write_snapshot(snap: Snapshot, path: str) -> None:
    """Layout: magic "LGEU", u32 version, u32 n, f64 gamma, f64 time,
    u64 step_count, then n*n little-endian float64 values (row-major)."""
    if snap.values.shape != (snap.n, snap.n):
        raise SnapshotError(
            f"payload shape {snap.values.shape} does not match n = {snap.n}"
        )
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, snap.n, snap.gamma, snap.time,
        snap.step_count,
    )
    payload = np.ascontiguousarray(snap.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_snapshot(path: str) -> Snapshot:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, n, gamma, time, step_count = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + n * n * 8
    if len(raw) != expected:
        raise SnapshotError(
            f"{path}: payload length {len(raw) - _HEADER.size} does not match "
            f"n = {n} (expected {n * n * 8} bytes)"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n, n)
    return Snapshot(n, gamma, time, step_count, values.copy())


# ---------------------------------------------------------------------------
# report CSVs
# ---------------------------------------------------------------------------

def write_inequality_csv(report: InequalityReport, path: str) -> None:
    """One row per (function, parameter combination): id, params, ratio."""
    param_keys = [k for k, _ in report.rows[0].params] if report.rows else []
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["function_id", *param_keys, "ratio"]) + "\n")
        for row in report.rows:
            values = dict(row.params)
            fields = [row.function_id]
            fields += [_fmt(values[k]) for k in param_keys]
            fields.append(_fmt(row.ratio))
            fh.write(",".join(fields) + "\n")


def write_sharpness_csv(rows: Sequence[SharpnessRow], path: str) -> None:
    cols = ("p", "l2", "h1dot", "lp", "embed_ratio", "inv_sqrt_log_p",
            "c_h1", "c_lp")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, c)) for c in cols) + "\n")
