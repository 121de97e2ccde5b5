"""On-disk formats: key=value config files, diagnostics CSV, binary field
snapshots, and the CSV forms of inequality/sharpness reports.

All numeric serialization uses 17 significant digits with a dot decimal
separator, so re-parsing a written file reproduces every float64 exactly.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from .extremizer import SharpnessRow
from .inequalities import InequalityReport
from .norms import NormBundle
from .solver import DiagnosticsRecord, InitialConditionSpec, Snapshot, SolverConfig

__all__ = [
    "ConfigError",
    "SnapshotError",
    "RunSettings",
    "KEYS",
    "RUN_KEYS",
    "DIAG_HEADER",
    "parse_value",
    "parse_values",
    "read_config_file",
    "run_values",
    "parse_config",
    "write_config_echo",
    "diagnostics_row",
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

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def default_out_root() -> str:
    return os.environ.get("LGEU_OUT", "runs")


def _mollify(text: str) -> int | str:
    return text if text in ("auto", "dealias") else int(text)


def _pair(text: str) -> tuple[int, int]:
    parts = tuple(int(p) for p in text.split(","))
    if len(parts) != 2:
        raise ValueError("expected two integers")
    return parts


@dataclass(frozen=True)
class Key:
    """One input key.  ``field`` names the ``SolverConfig`` attribute that
    holds a run key's value and default ("ic.<name>" for the initial data);
    the flag is ``--`` and the key with ``-`` unless ``flag`` says otherwise.
    Value rules live in the dataclasses, not here."""

    parse: Callable[[str], object]
    help: str
    field: str = ""
    flag: str = ""


KEYS: Mapping[str, Key] = {
    "n": Key(int, "grid points per side (power of two >= 8)", "n"),
    "gamma": Key(float, "smoothing exponent (finite, >= 0)", "gamma"),
    "t_max": Key(float, "integration time (finite, > 0)", "t_max", "--tmax"),
    "cfl": Key(float, "CFL number in (0, 1]", "cfl"),
    "mollify": Key(_mollify, "dyadic cutoff N | dealias | auto", "mollify"),
    "ic": Key(str, "single_mode | shell | random_band | vortex_pair", "ic.kind"),
    "ic_mode": Key(_pair, "single_mode wavevector k1,k2", "ic.mode"),
    "ic_band": Key(int, "random_band cutoff, 0..n/3 (0 -> n/16)", "ic.band"),
    "ic_amplitude": Key(float, "scale factor (random_band: L2 norm)", "ic.amplitude"),
    "ic_width": Key(float, "vortex blob width", "ic.width"),
    "ic_separation": Key(float, "vortex pair separation", "ic.separation"),
    "seed": Key(int, "random seed (>= 0)", "ic.seed"),
    "p_max": Key(int, "largest Lebesgue exponent", "p_max", "--pmax"),
    "diag_every": Key(int, "steps between diagnostics records", "diag_interval"),
    "snap_every": Key(int, "steps between snapshots (0 = off)", "snapshot_interval"),
    "out": Key(str, "output directory"),
    "size": Key(int, "corpus size"),
    "band": Key(int, "corpus band (0 = n/4)"),
    "nmax": Key(int, "largest dyadic block"),
}
# the keys of a config file: those of a run, then its output directory
RUN_KEYS = tuple(name for name, key in KEYS.items() if key.field) + ("out",)


def parse_value(name: str, text: str) -> object:
    try:
        return KEYS[name].parse(text.strip())
    except ValueError as exc:
        raise ConfigError(f"config key '{name}': cannot parse {text!r} ({exc})")


def parse_values(given: Mapping[str, object]) -> dict[str, object]:
    """Parse the text values of ``given``; other values pass as they are."""
    return {name: parse_value(name, value) if isinstance(value, str) else value
            for name, value in given.items()}


def read_config_file(path: str) -> dict[str, str]:
    """The unparsed ``key = value`` texts of a config file."""
    texts: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in RUN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
            texts[key] = text
    return texts


def run_values(solver: SolverConfig) -> dict[str, object]:
    """The value of every run key except ``out`` in a resolved config."""
    return {name: attrgetter(key.field)(solver)
            for name, key in KEYS.items() if key.field}


@dataclass(frozen=True)
class RunSettings:
    """A fully resolved simulation configuration plus its output directory."""

    solver: SolverConfig
    out_dir: str


def parse_config(
    path: str | None = None, overrides: Mapping[str, object] | None = None
) -> RunSettings:
    """Resolve a simulation configuration.

    Explicit overrides (CLI flags) override the file, and a key given in
    neither takes its ``SolverConfig`` or ``InitialConditionSpec`` default.
    Unknown keys and out-of-range values raise ``ConfigError`` naming the key.
    """
    values = parse_values(read_config_file(path)) if path is not None else {}
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in RUN_KEYS:
            raise ConfigError(f"unknown config key '{name}'")
        values.update(parse_values({name: value}))
    out = str(values.pop("out", ""))
    fields = {KEYS[name].field: value for name, value in values.items()}
    ic = {f[3:]: fields.pop(f) for f in list(fields) if f.startswith("ic.")}
    try:
        solver = SolverConfig(**fields, ic=InitialConditionSpec(**ic))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not out:
        name = f"sim-g{solver.gamma:g}-n{solver.n}-seed{solver.ic.seed}"
        out = os.path.join(default_out_root(), name)
    return RunSettings(solver, out)


def write_config_echo(settings: RunSettings, path: str) -> None:
    """Write the fully resolved configuration as sorted key = value lines.

    The output directory itself is omitted: the echo describes the run, and
    identical runs must produce identical files wherever they land.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for name, value in sorted(run_values(settings.solver).items()):
            if isinstance(value, float):
                text = _fmt(value)
            elif isinstance(value, tuple):
                text = ",".join(map(str, value))
            else:
                text = str(value)
            fh.write(f"{name} = {text}\n")


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

def diagnostics_row(rec: DiagnosticsRecord) -> str:
    """One CSV line of ``rec`` under ``DIAG_HEADER``, full float64 precision."""
    b = rec.norms
    row = (rec.t, rec.dt_used, b.l2, b.lp[4], b.lp[8], b.h1dot, b.hm1dot,
           b.sup_p_ratio, b.grad_u_sup, b.energy_gamma)
    return ",".join(_fmt(v) for v in row) + "\n"


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
    """One row per (function, parameter combination): id, params, ratio.
    Ids that hold a comma, such as ``single_mode[1,0]``, are quoted."""
    param_keys = [k for k, _ in report.rows[0].params] if report.rows else []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["function_id", *param_keys, "ratio"])
        for row in report.rows:
            values = dict(row.params)
            writer.writerow([row.function_id, *(_fmt(values[k]) for k in param_keys),
                             _fmt(row.ratio)])


def write_sharpness_csv(rows: Sequence[SharpnessRow], path: str) -> None:
    cols = ("p", "l2", "h1dot", "lp", "embed_ratio", "inv_sqrt_log_p",
            "c_h1", "c_lp")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(getattr(row, c)) for c in cols) + "\n")
