import pytest

from logeuler.cli import run_cli


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
     ("ic = single_mode\nic_mode = 0,0\n", [], "needs a nonzero wavevector")],
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


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_simulate_blowup_writes_marker(tmp_path):
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


def test_verify_sharpness_writes_table(tmp_path):
    out = tmp_path / "v"
    rc = run_cli(["verify", "sharpness", "--pmax", "64", "--out", str(out)])
    assert rc == 0
    lines = (out / "sharpness.csv").read_text().splitlines()
    assert lines[0].startswith("p,")
    assert len(lines) == 1 + 5  # p = 4, 8, 16, 32, 64


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


def test_report_on_inequality_csv(tmp_path, capsys):
    out = tmp_path / "v"
    assert run_cli(
        [
            "verify", "embedding", "--n", "32", "--size", "20", "--pmax", "8",
            "--out", str(out),
        ]
    ) == 0
    capsys.readouterr()
    rc = run_cli(["report", str(out / "embedding.csv")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "max ratio" in captured.out


def test_report_missing_path(tmp_path):
    assert run_cli(["report", str(tmp_path / "nothing")]) == 1


def test_unknown_subcommand_exits_2():
    assert run_cli(["frobnicate"]) == 2


def test_env_var_sets_output_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LGEU_OUT", str(tmp_path / "root"))
    rc = run_cli(["simulate", "--ic", "shell", "--n", "32", "--tmax", "0.05"])
    assert rc == 0
    assert (tmp_path / "root" / "sim-g1.5-n32-seed0" / "diagnostics.csv").exists()
