"""The three closed-loop workloads and their output checks.

Each workload is built from ``(seed, tmp)`` in its set-up and then repeats
``round()``: one caller, single-threaded, the next call made only when the
previous one returned.  A round returns a ``Round``; only the calls into
logeuler are inside ``wall``, the output checks run outside it.  Every check
is a bound the code guarantees for any seed; a failed check fails its
operation.  Calls go through module attributes (``solver.make_ic``,
``cli.run_cli``) so the span recorder sees them.  The traced run makes
``trace_pairs`` traced rounds, alternated with as many untraced ones.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import shutil
from dataclasses import dataclass, field
from time import perf_counter

from logeuler import cli, solver
from logeuler.spectral import Grid


@dataclass
class Round:
    wall: float                 # seconds spent in calls into logeuler
    ops: int                    # operations attempted
    units: int                  # work units done (RK4 steps or corpus fields)
    errors: list[str] = field(default_factory=list)   # one per failed operation


def _read_csv(path: str) -> list[dict[str, str]]:
    """Rows of a logeuler CSV.  Function ids such as ``single_mode[1,0]``
    hold unquoted commas, so fields are split off from the right."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return [
            dict(zip(header, line.rstrip("\n").rsplit(",", len(header) - 1)))
            for line in fh if line.strip()
        ]


def _column(rows, name: str) -> list[float]:
    return [float(row[name]) for row in rows]


def _drift(values: list[float]) -> float:
    return (max(values) - min(values)) / values[0]


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class SimulateDiagN256:
    """``logeuler simulate`` as in scripts/gamma_conservation_study.py.

    n=256, gamma 1.5, dealias, CFL 0.2, random_band IC of amplitude 50 with
    the workload seed, diagnostics every step and a snapshot every 10.
    t_max is ``STEPS`` initial CFL steps, so a run is about ``STEPS`` steps
    whatever the seed and its cost does not follow the seed's velocity.
    """

    name = "simulate_diag_n256"
    trace_pairs = 5
    STEPS = 30
    _SNAP = re.compile(r"step_(\d+)\.lgeu$")

    def __init__(self, seed: int, tmp: str):
        self.tmp = tmp
        config_path = os.path.join(tmp, "simulate.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write("ic_amplitude = 50\n")
        grid = Grid(256)
        ic = solver.make_ic(
            solver.InitialConditionSpec(kind="random_band", amplitude=50.0, seed=seed),
            grid,
        )
        t_max = self.STEPS * solver.cfl_dt(ic, 1.5, 0.2, grid)
        self.args = [
            "simulate", "--config", config_path, "--n", "256", "--gamma", "1.5",
            "--mollify", "dealias", "--cfl", "0.2", "--ic", "random_band",
            "--seed", str(seed), "--tmax", repr(t_max), "--diag-every", "1",
            "--snap-every", "10",
        ]
        self.digest = None
        self.count = 0

    def round(self) -> Round:
        out = os.path.join(self.tmp, f"simulate-{self.count}")
        self.count += 1
        t0 = perf_counter()
        rc = cli.run_cli([*self.args, "--out", out])
        wall = perf_counter() - t0
        try:
            steps, errors = self._check(rc, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Round(wall, 1, steps, ["; ".join(errors)] if errors else [])

    def _check(self, rc: int, out: str) -> tuple[int, list[str]]:
        if rc != 0:
            return 0, [f"simulate exited with {rc}"]
        diag = os.path.join(out, "diagnostics.csv")
        rows = _read_csv(diag)
        snap_dir = os.path.join(out, "snapshots")
        snaps = sorted(os.listdir(snap_dir))
        steps = max(int(self._SNAP.match(name).group(1)) for name in snaps)
        errors = []
        if len(rows) != steps + 1:
            errors.append(f"{len(rows)} diagnostics rows for {steps} steps")
        for col in ("l2", "energy_gamma"):
            drift = _drift(_column(rows, col))
            if not drift <= 1e-6:
                errors.append(f"{col} drift {drift:.3e} > 1e-6")
        h1 = _column(rows, "h1dot")
        if not abs(h1[-1] / h1[0] - 1.0) >= 1e-4:
            errors.append(f"h1dot moved only {h1[-1] / h1[0] - 1.0:.3e}")
        digest = _digest([diag, *(os.path.join(snap_dir, name) for name in snaps)])
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            errors.append("diagnostics or snapshots differ from the first repeat")
        return len(rows) - 1, errors


class _VerifyWorkload:
    """Shared loop of the verify workloads: a round runs every invocation in
    ``self.ops`` and checks its CSV with the matching ``_check_<mode>``."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.count = 0

    def round(self) -> Round:
        out = os.path.join(self.tmp, f"verify-{self.count}")
        self.count += 1
        wall, units, errors = 0.0, 0, []
        try:
            for label, args, fields in self.ops:
                t0 = perf_counter()
                rc = cli.run_cli([*args, "--out", out])
                wall += perf_counter() - t0
                units += fields
                mode = args[1]
                if rc != 0:
                    errors.append(f"{label}: exited with {rc}")
                    continue
                rows = _read_csv(os.path.join(out, f"{mode}.csv"))
                problem = getattr(self, f"_check_{mode}")(rows)
                if problem:
                    errors.append(f"{label}: {problem}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Round(wall, len(self.ops), units, errors)

    @staticmethod
    def _nonfinite(rows, col: str = "ratio") -> str | None:
        if not all(math.isfinite(v) for v in _column(rows, col)):
            return f"non-finite {col}"
        return None


class VerifyMultiplierN1024(_VerifyWorkload):
    """Criterion 5 through the CLI: one ``verify multiplier`` per round."""

    name = "verify_multiplier_n1024"
    trace_pairs = 1
    SIZE = 24
    BLOCKS = {2.0**j for j in range(1, 9)}

    def __init__(self, seed: int, tmp: str):
        super().__init__(tmp)
        self.ops = [(
            "multiplier",
            ["verify", "multiplier", "--n", "1024", "--band", "512",
             "--size", str(self.SIZE), "--nmax", "256", "--gamma", "1.5",
             "--seed", str(seed)],
            self.SIZE,
        )]

    def _check_multiplier(self, rows) -> str | None:
        q2 = [row for row in rows if float(row["q"]) == 2.0]
        qinf = [row for row in rows if math.isinf(float(row["q"]))]
        if {float(row["N"]) for row in q2} != self.BLOCKS:
            return "not every dyadic block 2..256 is populated"
        if not max(_column(q2, "ratio")) <= 1.0 + 1e-12:
            return f"q=2 ratio {max(_column(q2, 'ratio')):.17g} > 1 + 1e-12"
        if not qinf:
            return "no q=inf rows"
        return self._nonfinite(qinf)


class VerifyLabN256(_VerifyWorkload):
    """The remaining lab checks at n=256; a round is all five invocations."""

    name = "verify_lab_n256"
    trace_pairs = 2
    SIZE = 80

    def __init__(self, seed: int, tmp: str):
        super().__init__(tmp)
        corpus = ["--n", "256", "--size", str(self.SIZE), "--seed", str(seed)]
        self.ops = [
            ("embedding", ["verify", "embedding", *corpus], self.SIZE),
            ("loginterp band 32",
             ["verify", "loginterp", *corpus, "--band", "32"], self.SIZE),
            ("loginterp band 64",
             ["verify", "loginterp", *corpus, "--band", "64"], self.SIZE),
            ("bernstein", ["verify", "bernstein", *corpus, "--nmax", "64"], self.SIZE),
            ("sharpness", ["verify", "sharpness", "--pmax", "256"], 0),
        ]

    def _check_embedding(self, rows) -> str | None:
        if len(rows) != self.SIZE:
            return f"{len(rows)} rows for a corpus of {self.SIZE}"
        return self._nonfinite(rows)

    def _check_loginterp(self, rows) -> str | None:
        return self._nonfinite(rows)

    def _check_bernstein(self, rows) -> str | None:
        problem = self._nonfinite(rows)
        if problem:
            return problem
        l2l2 = [float(r["ratio"]) for r in rows
                if float(r["p"]) == 2.0 and float(r["q"]) == 2.0]
        if not l2l2 or not max(l2l2) <= 1.0 + 1e-12:
            return "Bernstein (2,2) ratio missing or > 1 + 1e-12"
        return None

    def _check_sharpness(self, rows) -> str | None:
        if not rows:
            return "no rows"
        for row in rows:
            scaled = float(row["embed_ratio"]) / float(row["inv_sqrt_log_p"])
            if not scaled >= 0.12:
                return f"p={row['p']}: ratio*sqrt(log p) = {scaled:.4g} < 0.12"
        return None


WORKLOADS = {
    cls.name: cls
    for cls in (SimulateDiagN256, VerifyMultiplierN1024, VerifyLabN256)
}
