"""Smoke runs of the study scripts under scripts/, at n = 32."""

import hashlib
import importlib.util
import os
import re
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
    stdout = run_script("verification_battery.py", "--n", "32", "--out", str(tmp_path))
    # each CSV's sha256 as sha256sum prints it, in the order of the runs
    digests = re.findall(r"^([0-9a-f]{64})  (.+)$", stdout, re.M)
    assert [path for _, path in digests] == [str(tmp_path / name) for name in REPORT_HEADERS]
    for digest, path in digests:
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
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


def test_mutation_probe_anchors_occur_once_in_src():
    # a change that moves an anchor must update the probe's list
    spec = importlib.util.spec_from_file_location(
        "mutation_probe", ROOT / "scripts" / "mutation_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    counts = probe.anchor_counts()
    assert len(counts) == len(probe.MUTANTS) >= 20
    assert counts == dict.fromkeys(counts, 1)
    for name, path, anchor, replacement in probe.MUTANTS:
        text = (ROOT / "src" / "logeuler" / path).read_text()
        lines = text.splitlines()
        mutated = probe.mutate(text, anchor, replacement).splitlines()
        assert len(mutated) == len(lines), name
        assert sum(a != b for a, b in zip(lines, mutated)) == 1, name
