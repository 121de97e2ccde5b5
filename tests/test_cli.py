import concurrent.futures
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from logeuler.cli import run_cli
from logeuler.runio import (
    DIAG_HEADER,
    parse_config,
    read_diagnostics_csv,
    read_snapshot,
    write_config_echo,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_simulate_writes_outputs(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(
        [
            "simulate", "--ic", "single_mode", "--tmax", "0.1", "--n", "64",
            "--diag-every", "1", "--snap-every", "1", "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "config.txt").exists()
    assert any(p.suffix == ".lgeu" for p in (out / "snapshots").iterdir())


def test_simulate_flag_overrides_config(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("gamma = 1.5\nn = 32\nt_max = 0.05\nic = shell\n")
    out = tmp_path / "run"
    rc = run_cli(
        ["simulate", "--config", str(cfg), "--gamma", "0.5", "--out", str(out)]
    )
    assert rc == 0
    text = (out / "config.txt").read_text()
    assert "gamma = 0.5" in text
    assert "n = 32" in text


def test_simulate_bad_gamma_exits_nonzero(tmp_path, capsys):
    rc = run_cli(["simulate", "--gamma", "-1", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, flags",
    [("ic_amplitude = nan\n", []), ("ic_width = 0\n", ["--ic", "vortex_pair"]),
     # a nan gamma used to run, blow up at t = 0 and write blowup.txt
     ("", ["--gamma", "nan"])],
)
def test_simulate_bad_ic_parameters_are_config_errors(tmp_path, capsys, config, flags):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    out = tmp_path / "run"
    rc = run_cli(
        ["simulate", "--config", str(cfg), *flags, "--n", "32", "--tmax", "0.01",
         "--out", str(out)]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "blowup.txt").exists()


@pytest.mark.parametrize(
    "config, flags, message",
    [("", ["--ic-band", "12"], "ic band 12 exceeds the dealias band 10"),
     ("ic = single_mode\nic_mode = 0,0\n", [], "needs a nonzero wavevector"),
     # used to fail in the seeded generator
     ("", ["--seed", "-1"], "ic seed must be >= 0, got -1")],
)
def test_simulate_bad_ic_writes_nothing(tmp_path, capsys, config, flags, message):
    # n = 32 dealiases at 10; these used to fail only once the run had
    # created its output directory
    cfg = tmp_path / "ic.cfg"
    cfg.write_text(config)
    out = tmp_path / "run"
    rc = run_cli(["simulate", "--config", str(cfg), "--n", "32", *flags,
                  "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_identical_config_gives_bit_identical_outputs(tmp_path):
    args = [
        "simulate", "--ic", "random_band", "--seed", "9", "--n", "64",
        "--tmax", "0.1", "--diag-every", "1", "--snap-every", "2",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out_a)]) == 0
    assert run_cli(args + ["--out", str(out_b)]) == 0
    diag_a = (out_a / "diagnostics.csv").read_bytes()
    diag_b = (out_b / "diagnostics.csv").read_bytes()
    assert diag_a == diag_b
    snaps_a = sorted((out_a / "snapshots").iterdir())
    snaps_b = sorted((out_b / "snapshots").iterdir())
    assert [p.name for p in snaps_a] == [p.name for p in snaps_b]
    for pa, pb in zip(snaps_a, snaps_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_a_zero_field_writes_the_same_diagnostics_at_any_pmax(tmp_path):
    # a zero field's sweep map stops at p = 8 whatever --pmax, so a huge one
    # costs no memory (its map once held a float per p up to p_max)
    args = ["simulate", "--n", "32", "--ic-amplitude", "0", "--tmax", "0.1"]
    for p_max in ("64", "2000000"):
        assert run_cli([*args, "--pmax", p_max, "--out", str(tmp_path / p_max)]) == 0
    diag = [(tmp_path / p_max / "diagnostics.csv").read_bytes()
            for p_max in ("64", "2000000")]
    assert diag[0] == diag[1]
    assert len(diag[0].splitlines()) > 2


def test_sweep_creates_run_directories(tmp_path):
    out = tmp_path / "sweep"
    rc = run_cli(
        [
            "sweep", "--gamma", "0,0.5,1.5", "--n", "32", "--tmax", "0.05",
            "--ic", "shell", "--out", str(out),
        ]
    )
    assert rc == 0
    dirs = sorted(p.name for p in out.iterdir())
    assert dirs == ["g0.5_n32", "g0_n32", "g1.5_n32"]
    for child in out.iterdir():
        assert (child / "diagnostics.csv").exists()


def test_sweep_parallel_jobs(tmp_path):
    out = tmp_path / "sweep"
    rc = run_cli(
        [
            "sweep", "--gamma", "0.5,1.5", "--n", "32", "--tmax", "0.05",
            "--ic", "shell", "--jobs", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["g0.5_n32", "g1.5_n32"]


def test_sweep_prints_in_job_order_whatever_the_jobs(tmp_path, capfd):
    # the n = 16 run ends first; its worker used to print its line first
    args = ["sweep", "--gamma", "0", "--n", "128,16", "--out", str(tmp_path)]
    stdout = []
    for jobs in ("1", "2"):
        assert run_cli([*args, "--jobs", jobs]) == 0
        stdout.append(capfd.readouterr().out)
    assert stdout[1] == stdout[0]
    assert [line.split(": ")[0] for line in stdout[0].splitlines()] == [
        "run finished", "run finished", "  g0_n128", "  g0_n16",
        "sweep finished"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    rc = run_cli(["sweep", "--gamma", "0", "--n", "16", "--tmax", "0.02",
                  "--jobs", jobs, "--out", str(out)])
    assert rc == 1
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs, gammas, started", [("5000", "0,0.5", [2]),
                                                   ("2", "0", [])])
def test_sweep_starts_at_most_one_worker_per_run(tmp_path, monkeypatch, jobs,
                                                 gammas, started):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    rc = run_cli(["sweep", "--gamma", gammas, "--n", "16", "--tmax", "0.02",
                  "--jobs", jobs, "--out", str(tmp_path / "sweep")])
    assert rc == 0
    assert pools == started


@pytest.mark.parametrize(
    "flags, expected",
    [([], ["g0.5_n16"]),
     (["--n", "32"], ["g0.5_n32"]),
     (["--gamma", "0,1"], ["g0_n16", "g1_n16"])],
)
def test_sweep_takes_missing_lists_from_the_config_file(tmp_path, flags, expected):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("gamma = 0.5\nn = 16\nt_max = 0.02\nic = shell\n")
    out = tmp_path / "sweep"
    rc = run_cli(["sweep", "--config", str(cfg), *flags, "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == expected


@pytest.mark.parametrize(
    "flags, expected",
    [([], ["g0.5_n16", "g0.5_n32", "g0_n16", "g0_n32"]),
     (["--n", "32"], ["g0.5_n32", "g0_n32"]),
     (["--gamma", "1"], ["g1_n16", "g1_n32"])],
)
def test_sweep_takes_the_lists_in_the_config_file(tmp_path, flags, expected):
    cfg = tmp_path / "lists.cfg"
    cfg.write_text("gamma = 0,0.5\nn = 16,32\nt_max = 0.02\nic = shell\n")
    out = tmp_path / "sweep"
    rc = run_cli(["sweep", "--config", str(cfg), *flags, "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == expected


@pytest.mark.parametrize("key, text", [("gamma", "0,0.5"), ("n", "16,32")])
def test_simulate_rejects_a_list_in_the_config_file(tmp_path, capsys, key, text):
    cfg = tmp_path / "lists.cfg"
    cfg.write_text(f"{key} = {text}\nt_max = 0.02\nic = shell\n")
    out = tmp_path / "run"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"config key '{key}': cannot parse '{text}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "gammas, shared", [("0.1234567,0.1234568", "g0.123457_n16"), ("1.5,1.50", "g1.5_n16")]
)
def test_sweep_rejects_runs_that_share_a_directory(tmp_path, capsys, gammas, shared):
    # both runs used to write one directory at once and report "2 runs"
    out = tmp_path / "sweep"
    rc = run_cli(["sweep", "--gamma", gammas, "--n", "16", "--tmax", "0.02",
                  "--ic", "shell", "--jobs", "2", "--out", str(out)])
    assert rc == 1
    assert f"sweep runs would share a directory: {shared}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("root", ["flag", "file", "default"])
def test_sweep_output_root_is_the_flag_then_the_file_then_the_default(
    tmp_path, monkeypatch, root
):
    monkeypatch.setenv("LGEU_OUT", str(tmp_path / "default"))
    cfg = tmp_path / "base.cfg"
    text = "t_max = 0.02\nic = shell\nn = 16\n"
    if root != "default":
        text += f"out = {tmp_path / 'file'}\n"
    cfg.write_text(text)
    flags = ["--out", str(tmp_path / "flag")] if root == "flag" else []
    assert run_cli(["sweep", "--config", str(cfg), "--gamma", "0.5", *flags]) == 0
    runs = tmp_path / root / ("sweep" if root == "default" else "")
    assert (runs / "g0.5_n16" / "diagnostics.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base.cfg", root]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_finishes_the_other_runs_after_one_fails(tmp_path, capsys, jobs):
    # ic band 12 exceeds the dealias band of n = 32 (10) but not of n = 64
    cfg = tmp_path / "band.cfg"
    cfg.write_text("ic_band = 12\n")
    out = tmp_path / "sweep"
    rc = run_cli(
        ["sweep", "--config", str(cfg), "--gamma", "1.5", "--n", "32,64",
         "--tmax", "0.02", "--jobs", jobs, "--out", str(out)]
    )
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  g1.5_n32: error: ic band 12 exceeds the dealias band 10" in lines
    assert "  g1.5_n64: ok" in lines
    assert (out / "g1.5_n64" / "diagnostics.csv").exists()


def test_sweep_runs_the_valid_resolutions_when_one_is_invalid(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = run_cli(
        ["sweep", "--gamma", "1.5", "--n", "48,32", "--tmax", "0.02",
         "--ic", "shell", "--out", str(out)]
    )
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert "  g1.5_n48: error: n must be a power of two >= 8, got 48" in lines
    assert "  g1.5_n32: ok" in lines
    assert (out / "g1.5_n32" / "diagnostics.csv").exists()


def test_sweep_stderr_is_the_same_whatever_the_jobs(tmp_path):
    # both runs blow up; their numpy warnings used to interleave under --jobs 2
    cfg = tmp_path / "blow.cfg"
    cfg.write_text("ic = random_band\nic_band = 4\nic_amplitude = 1e160\n"
                   "t_max = 1.0\ndiag_every = 1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    stderr = []
    for jobs in ("2", "2", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "logeuler.cli", "sweep", "--config", str(cfg),
             "--gamma", "1.5", "--n", "32,64", "--jobs", jobs,
             "--out", str(tmp_path / "sweep")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        stderr.append(proc.stderr)
    assert stderr[0] == stderr[1] == stderr[2]
    blowups = [line for line in stderr[0].splitlines() if line.startswith("BLOW-UP")]
    assert [line.split("partial results in ")[1] for line in blowups] == [
        str(tmp_path / "sweep" / "g1.5_n32"), str(tmp_path / "sweep" / "g1.5_n64")]
    assert "RuntimeWarning" in stderr[0]


# stderr of a blow-up where both the first state's norm bundle and the step
# from it overflow, under ``python -W always``, with logeuler's and numpy's
# package directories written as <logeuler> and <numpy>.  It names source
# lines, so a change that moves one of them updates this pin.
BLOWUP_STDERR = """\
<logeuler>/solver.py:335: RuntimeWarning: overflow encountered in multiply
  np.multiply(u2, wy, out=wy)
<numpy>/fft/_pocketfft.py:101: RuntimeWarning: overflow encountered in rfft_n_even
  return ufunc(a, fct, axes=[(axis,), (), (axis,)], out=out)
<numpy>/fft/_pocketfft.py:101: RuntimeWarning: invalid value encountered in rfft_n_even
  return ufunc(a, fct, axes=[(axis,), (), (axis,)], out=out)
<numpy>/fft/_pocketfft.py:101: RuntimeWarning: invalid value encountered in fft
  return ufunc(a, fct, axes=[(axis,), (), (axis,)], out=out)
<logeuler>/solver.py:338: RuntimeWarning: invalid value encountered in multiply
  out = np.multiply(trunc.neg_chi, a, out=out)
<logeuler>/solver.py:342: RuntimeWarning: invalid value encountered in multiply
  discarded = plancherel(trunc.removed_weight * np.abs(a) ** 2)
<logeuler>/norms.py:181: RuntimeWarning: overflow encountered in multiply
  weighted = power * _sobolev_weight(power.shape[0], order)
<logeuler>/spectral.py:329: RuntimeWarning: overflow encountered in multiply
  return FOUR_PI_SQ * float(np.sum(half_spectrum_weights(density.shape[0]) * density))
<numpy>/_core/fromnumeric.py:83: RuntimeWarning: overflow encountered in reduce
  return ufunc.reduce(obj, axis, dtype, out, **passkwargs)
<logeuler>/solver.py:386: RuntimeWarning: invalid value encountered in multiply
  np.multiply(0.5 * dt, k1, out=stage)
BLOW-UP at t = 2.32798e-155 (step 1); partial results in run
"""


def test_blowup_stderr_keeps_the_serial_warning_order(tmp_path):
    # the bundle runs on a helper thread beside the step; whichever thread
    # meets the overflow first, the warnings must come as a serial loop
    # gives them, run after run
    import numpy

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    roots = {os.path.join(SRC, "logeuler"): "<logeuler>",
             os.path.dirname(numpy.__file__): "<numpy>"}
    for attempt in range(5):
        cwd = tmp_path / str(attempt)
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "logeuler.cli", "simulate",
             "--n", "32", "--ic", "random_band", "--ic-band", "4",
             "--ic-amplitude", "1e155", "--tmax", "1", "--diag-every", "1",
             "--snap-every", "1", "--out", "run"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        stderr = proc.stderr
        for root, name in roots.items():
            stderr = stderr.replace(root, name)
        assert stderr == BLOWUP_STDERR, attempt


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_simulate_blowup_writes_marker(tmp_path, capsys):
    cfg = tmp_path / "blow.cfg"
    cfg.write_text(
        "n = 32\nic = random_band\nic_band = 4\nic_amplitude = 1e160\n"
        "t_max = 1.0\ndiag_every = 1\n"
    )
    out = tmp_path / "run"
    rc = run_cli(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert (out / "blowup.txt").exists()
    assert (out / "diagnostics.csv").exists()  # partial results preserved
    marker = re.fullmatch(r"blow-up at t = (\S+), step (\d+)\n",
                          (out / "blowup.txt").read_text())
    assert marker, (out / "blowup.txt").read_text()
    t, step = float(marker[1]), int(marker[2])
    assert repr(t) == marker[1]
    rows = read_diagnostics_csv(str(out / "diagnostics.csv"))
    assert rows and all(row["t"] < t for row in rows)
    assert f"BLOW-UP at t = {t:.6g} (step {step}); " in capsys.readouterr().err


STALL_FLAGS = ["--n", "32", "--ic", "random_band", "--ic-band", "4",
               "--ic-amplitude", "1e150", "--tmax", "1"]


def test_a_stalled_simulate_ends_with_status_3(tmp_path):
    # dt is about 2e-150 from the start; the run used to go on for ever
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "logeuler.cli", "simulate", *STALL_FLAGS,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert re.search(r"^STALL at t = 0 \(step 0, dt = \S+\); partial results in ",
                     proc.stderr, re.M), proc.stderr
    assert "BLOW-UP" not in proc.stderr and proc.stdout == ""
    assert not (out / "blowup.txt").exists()
    assert [row["t"] for row in read_diagnostics_csv(str(out / "diagnostics.csv"))] == [0.0]


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_sweep_reports_a_stalled_run_as_exit_3(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = run_cli(["sweep", *STALL_FLAGS, "--gamma", "1.5", "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "  g1.5_n32: exit 3" in captured.out.splitlines()
    assert "STALL at t = 0 (step 0" in captured.err


def test_simulate_memory_does_not_grow_with_the_run(tmp_path):
    # shell data is steady, so each run takes ceil(t_max / dt) equal steps
    args = ["simulate", "--n", "32", "--diag-every", "1", "--snap-every", "1",
            "--ic", "shell", "--ic-amplitude", "10", "--pmax", "8"]
    assert run_cli([*args, "--tmax", "0.5", "--out", str(tmp_path / "warm")]) == 0
    peaks, records = [], []
    for t_max in ("3", "30"):  # 41 and 404 steps
        out = tmp_path / t_max
        tracemalloc.start()
        try:
            assert run_cli([*args, "--tmax", t_max, "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        records.append(len(read_diagnostics_csv(str(out / "diagnostics.csv"))))
    assert records[0] > 35 and records[1] > 9 * records[0]
    # one 32 x 32 snapshot takes 8 KiB
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


def test_killed_run_leaves_valid_output(tmp_path):
    # at amplitude 100 the run takes some 10^4 steps; it is killed after 3
    flags = ["--n", "64", "--tmax", "100", "--diag-every", "1", "--snap-every", "1",
             "--ic-amplitude", "100"]
    out = tmp_path / "run"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "logeuler.cli", "simulate", *flags, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    csv, snaps = out / "diagnostics.csv", out / "snapshots"
    try:
        deadline = time.monotonic() + 60
        while not (csv.exists() and len(csv.read_text().splitlines()) >= 1 + 3
                   and len(list(snaps.glob("step_*.lgeu"))) >= 2):
            assert proc.poll() is None, "the run ended before it was killed"
            assert time.monotonic() < deadline, "too little output after 60 s"
            time.sleep(0.02)
    finally:
        proc.kill()
        proc.wait()
    echo = tmp_path / "echo.txt"
    given = {"n": "64", "t_max": "100", "diag_every": "1", "snap_every": "1",
             "ic_amplitude": "100"}  # the flags above
    write_config_echo(parse_config(None, given), str(echo))
    assert (out / "config.txt").read_bytes() == echo.read_bytes()
    assert len(read_diagnostics_csv(str(csv))) >= 3
    for path in snaps.glob("step_*.lgeu"):
        assert read_snapshot(str(path)).n == 64


def test_verify_sharpness_writes_table(tmp_path):
    out = tmp_path / "v"
    rc = run_cli(["verify", "sharpness", "--pmax", "64", "--out", str(out)])
    assert rc == 0
    lines = (out / "sharpness.csv").read_text().splitlines()
    assert lines[0].startswith("p,")
    assert len(lines) == 1 + 5  # p = 4, 8, 16, 32, 64


def test_verify_sharpness_past_p_372(tmp_path):
    # --pmax 512 used to exit 1 with "Error: math domain error"
    out = tmp_path / "v"
    rc = run_cli(["verify", "sharpness", "--pmax", "1024", "--out", str(out)])
    assert rc == 0
    lines = (out / "sharpness.csv").read_text().splitlines()
    assert len(lines) == 1 + 9  # p = 4, 8, ..., 1024
    for line in lines[1:]:
        assert all(math.isfinite(float(v)) for v in line.split(","))


def test_no_command_loads_scipy(tmp_path):
    # scipy, sympy and mpmath are test oracles only: every verify mode, a
    # simulate and a report on it run on numpy alone
    script = (
        "import sys\n"
        "from logeuler.cli import run_cli\n"
        "out = sys.argv[1]\n"
        "for mode in ('embedding', 'loginterp', 'multiplier', 'bernstein', 'sharpness'):\n"
        "    assert run_cli(['verify', mode, '--n', '32', '--size', '20', '--nmax', '8',\n"
        "                    '--pmax', '8', '--out', f'{out}/{mode}']) == 0\n"
        "assert run_cli(['simulate', '--n', '32', '--tmax', '0.02', '--diag-every', '1',\n"
        "                '--snap-every', '1', '--out', f'{out}/run']) == 0\n"
        "assert run_cli(['report', f'{out}/run']) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'sympy', 'mpmath')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True,
        text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_leaves_multiprocessing_out():
    # only a parallel sweep needs a process pool; loading multiprocessing at
    # import would cost every launch its start-up time
    script = "import sys, logeuler.cli\nprint('multiprocessing' in sys.modules)\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_embedding_small_corpus(tmp_path):
    out = tmp_path / "v"
    rc = run_cli(
        [
            "verify", "embedding", "--n", "32", "--size", "20", "--pmax", "8",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "embedding.csv").read_text().splitlines()
    assert lines[0] == "function_id,p,ratio"
    assert len(lines) == 21


@pytest.mark.parametrize(
    "flags, message",
    [  # p_max = 1 used to end in a KeyError traceback
     (["embedding", "--pmax", "1"], "p_max must be >= 2, got 1"),
     (["loginterp", "--pmax", "1"], "p_max must be >= 2, got 1"),
     (["embedding", "--n", "12"], "n must be a power of two >= 8, got 12"),
     # a negative band used to fall back to n/4 silently
     (["bernstein", "--band", "-3"], "corpus band must be >= 0"),
     (["embedding", "--seed", "-1"], "corpus seed must be >= 0, got -1"),
     # a nan gamma used to exit 0 with "max ratio = nan"
     *((["multiplier", "--gamma", g], "gamma must be finite and >= 0")
       for g in ("-0.1", "nan", "inf")),
     # --nmax 1 gives no dyadic block; it used to exit 0 with rows = 0
     *(([mode, "--nmax", "1"], "N_set must hold at least one dyadic block")
       for mode in ("multiplier", "bernstein")),
     (["sharpness", "--pmax", "3"], "sharpness needs"),
     # used to be argparse's exit 2
     (["embedding", "--n", "abc"], "config key 'n': cannot parse 'abc'"),
     # p = 2^120 used to end in "math domain error"
     (["sharpness", "--pmax", str(2**120)], "p must be in [4, 2^100]"),
     # a band past n/2 folded a multiscale mode onto the mean
     (["loginterp", "--n", "64", "--band", "64"], "<= n/2 = 32, got 64"),
     (["embedding", "--n", "64", "--band", "33"], "<= n/2 = 32, got 33")],
)
def test_verify_bad_input_writes_nothing(tmp_path, capsys, flags, message):
    out = tmp_path / "v"
    rc = run_cli(["verify", *flags, "--size", "20", "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_multiplier_small(tmp_path):
    out = tmp_path / "v"
    rc = run_cli(
        [
            "verify", "multiplier", "--n", "32", "--size", "20", "--nmax", "8",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (out / "multiplier.csv").exists()


def test_report_on_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(
        [
            "simulate", "--ic", "random_band", "--n", "64", "--tmax", "0.2",
            "--diag-every", "1", "--out", str(out),
        ]
    ) == 0
    capsys.readouterr()
    rc = run_cli(["report", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "envelope fits" in captured.out


def test_report_on_a_header_only_diagnostics_csv(tmp_path, capsys):
    # what a run killed between its header and its first row leaves
    (tmp_path / "diagnostics.csv").write_text(DIAG_HEADER + "\n")
    assert run_cli(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "(0 records)" in out
    assert "no records" in out


def test_report_on_inequality_csv(tmp_path, capsys):
    # function ids such as single_mode[1,0] hold commas: report must find
    # the ratio column and the id that verify names
    worst = re.compile(r"max ratio = (\S+)  \((?:worst|row): (.*)\)")
    out = tmp_path / "v"
    for mode, flag, value in (("embedding", "--pmax", "8"),
                              ("multiplier", "--nmax", "4")):
        assert run_cli(
            [
                "verify", mode, "--n", "32", "--size", "20", flag, value,
                "--out", str(out),
            ]
        ) == 0
        verified = worst.search(capsys.readouterr().out).groups()
        rc = run_cli(["report", str(out / f"{mode}.csv")])
        assert rc == 0
        assert worst.search(capsys.readouterr().out).groups() == verified


def test_verify_and_report_print_the_maximum_per_family(tmp_path, capsys):
    by_family = re.compile(r"max ratio by family: (.*)")
    out = tmp_path / "v"
    assert run_cli(
        ["verify", "embedding", "--n", "32", "--size", "20", "--pmax", "8",
         "--out", str(out)]
    ) == 0
    verified = by_family.search(capsys.readouterr().out).group(1)
    assert [part.split()[0] for part in verified.split(", ")] == [
        "random_band", "single_mode", "shell", "multiscale"]
    assert run_cli(["report", str(out / "embedding.csv")]) == 0
    assert by_family.search(capsys.readouterr().out).group(1) == verified


def test_verify_gives_identical_csvs_across_processes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "logeuler.cli", "verify", "embedding", "--n", "64",
             "--size", "24", "--seed", "3", "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    csv_a = (tmp_path / "a" / "embedding.csv").read_bytes()
    assert csv_a == (tmp_path / "b" / "embedding.csv").read_bytes()


@pytest.mark.parametrize("mode", ["embedding", "multiplier", "bernstein"])
def test_verify_csvs_do_not_follow_the_blas_kernel(tmp_path, mode):
    # no lab number goes through BLAS, whose Sandybridge kernel gives other
    # last digits than the default one
    csvs = []
    for core in ("", "Sandybridge"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        if core:
            env["OPENBLAS_CORETYPE"] = core
        out = tmp_path / (core or "default")
        proc = subprocess.run(
            [sys.executable, "-m", "logeuler.cli", "verify", mode, "--n", "128",
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append((out / f"{mode}.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_report_reads_ids_written_before_they_were_quoted(tmp_path, capsys):
    path = tmp_path / "multiplier.csv"
    path.write_text("function_id,N,q,ratio\n"
                    "single_mode[1,0],2,inf,0.25\n"
                    "random_band[0],2,inf,0.125\n")
    assert run_cli(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "max ratio = 0.25  (row: single_mode[1,0])" in out
    assert "max ratio by family: single_mode 0.25, random_band 0.125" in out


def test_report_on_a_header_only_inequality_csv(tmp_path, capsys):
    path = tmp_path / "embedding.csv"
    path.write_text("function_id,p,ratio\n")
    assert run_cli(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 rows" in out
    assert "no rows" in out


def test_report_missing_path(tmp_path):
    assert run_cli(["report", str(tmp_path / "nothing")]) == 1


def test_unknown_subcommand_exits_2():
    assert run_cli(["frobnicate"]) == 2


def test_env_var_sets_output_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LGEU_OUT", str(tmp_path / "root"))
    rc = run_cli(["simulate", "--ic", "shell", "--n", "32", "--tmax", "0.05"])
    assert rc == 0
    assert (tmp_path / "root" / "sim-g1.5-n32-seed0" / "diagnostics.csv").exists()
