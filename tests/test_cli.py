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
    [("ic_amplitude = nan\n", []), ("ic_width = 0\n", ["--ic", "vortex_pair"])],
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
