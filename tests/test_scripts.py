"""Smoke runs of the study scripts under scripts/, at n = 32."""

import os
import subprocess
import sys
from pathlib import Path

from logeuler.runio import read_diagnostics_csv

ROOT = Path(__file__).resolve().parents[1]

REPORT_HEADERS = {
    "embedding.csv": "function_id,p,ratio",
    "loginterp.csv": "function_id,gamma,ratio",
    "multiplier.csv": "function_id,N,q,ratio",
    "bernstein.csv": "function_id,N,p,q,ratio",
    "sharpness.csv": "p,l2,h1dot,lp,embed_ratio,inv_sqrt_log_p,c_h1,c_lp",
}


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_gamma_conservation_study_short_run(tmp_path):
    # gamma = 1.5 takes a single step here, too few records for the
    # envelope fits; the script reports that and goes on
    stdout = run_script(
        "gamma_conservation_study.py", "--n", "32", "--tmax", "0.05",
        "--gamma", "0,1.5", "--out", str(tmp_path),
    )
    assert "need at least 3 records" in stdout
    for gamma in ("0", "1.5"):
        rows = read_diagnostics_csv(str(tmp_path / f"g{gamma}_n32" / "diagnostics.csv"))
        assert len(rows) >= 2
        assert rows[0]["t"] == 0.0


def test_verification_battery(tmp_path):
    run_script("verification_battery.py", "--n", "32", "--out", str(tmp_path))
    for name, header in REPORT_HEADERS.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1
        ncols = len(header.split(","))
        for line in lines[1:]:
            # function ids such as single_mode[1,0] hold commas
            fields = line.rsplit(",", ncols - 1)
            numeric = fields[1:] if header.startswith("function_id") else fields
            assert all(isinstance(float(x), float) for x in numeric)
