import csv
import math
import pathlib

import numpy as np
import pytest

from logeuler.inequalities import InequalityReport, ReportRow
from logeuler.norms import NormBundle
from logeuler.runio import (
    DIAG_HEADER,
    RUN_KEYS,
    ConfigError,
    SnapshotError,
    diagnostics_row,
    parse_config,
    parse_values,
    read_config_file,
    read_diagnostics_csv,
    read_snapshot,
    records_from_rows,
    run_values,
    write_config_echo,
    write_inequality_csv,
    write_snapshot,
)
from logeuler.solver import (
    DiagnosticsRecord,
    InitialConditionSpec,
    Snapshot,
    SolverConfig,
    gronwall_envelope,
    run,
)


def bundle(scale=1.0):
    return NormBundle(
        l2=1.23456789012345678 * scale,
        h1dot=math.pi * scale,
        hm1dot=0.1 * scale,
        lp={2: 1.23456789012345678 * scale, 4: 0.9 * scale, 8: 0.8 * scale},
        sup_p_ratio=0.87 * scale,
        grad_u_sup=0.034 * scale,
        energy_gamma=5.3159932 * scale,
    )


def record(t, scale=1.0):
    return DiagnosticsRecord(t, bundle(scale), 0.01, 1e-30)


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        settings = parse_config(str(path))
        cfg = settings.solver
        assert cfg.n == 256
        assert cfg.gamma == 1.5
        assert cfg.cfl == 0.5
        assert cfg.t_max == 1.0
        assert cfg.p_max == 64

    def test_no_file_gives_defaults(self):
        assert parse_config().solver.n == 256

    def test_negative_gamma_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma = -1\n")
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("viscosity = 0.1\n")
        with pytest.raises(ConfigError, match="viscosity"):
            parse_config(str(path))

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "base.cfg"
        path.write_text("gamma = 1.5\nn = 64\n")
        settings = parse_config(str(path), {"gamma": "0.5"})
        assert settings.solver.gamma == 0.5
        assert settings.solver.n == 64

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nn = 32  # trailing\n")
        assert parse_config(str(path)).solver.n == 32

    def test_mollify_forms(self, tmp_path):
        for text, expected in (("dealias", None), ("auto", 64), ("32", 32)):
            path = tmp_path / "m.cfg"
            path.write_text(f"mollify = {text}\n")
            assert parse_config(str(path)).solver.mollify_n == expected

    def test_bad_ic_kind(self, tmp_path):
        path = tmp_path / "ic.cfg"
        path.write_text("ic = whirl\n")
        with pytest.raises(ConfigError, match="ic"):
            parse_config(str(path))

    def test_non_power_of_two_n(self, tmp_path):
        path = tmp_path / "n.cfg"
        path.write_text("n = 100\n")
        with pytest.raises(ConfigError, match="n must be"):
            parse_config(str(path))

    def test_config_echo_roundtrip(self, tmp_path):
        settings = parse_config(None, {"gamma": "0.75", "n": "64"})
        echo = tmp_path / "config.txt"
        write_config_echo(settings, str(echo))
        reparsed = parse_config(str(echo))
        assert reparsed.solver == settings.solver


DEFAULT_ECHO = """\
cfl = 0.5
diag_every = 10
gamma = 1.5
ic = random_band
ic_amplitude = 1
ic_band = 0
ic_mode = 1,0
ic_separation = 1.5707963267948966
ic_width = 0.40000000000000002
mollify = auto
n = 256
p_max = 64
seed = 0
snap_every = 0
t_max = 1
"""

EVERY_KEY_CONFIG = """\
n = 128
gamma = 0.75
t_max = 0.25
cfl = 0.3
mollify = 32
ic = single_mode
ic_mode = 3,-2
ic_band = 5
ic_amplitude = 2.5
ic_width = 0.3
ic_separation = 1.2345678901234567
seed = 7
p_max = 32
diag_every = 3
snap_every = 4
out = elsewhere
"""

EVERY_KEY_ECHO = """\
cfl = 0.29999999999999999
diag_every = 3
gamma = 0.75
ic = single_mode
ic_amplitude = 2.5
ic_band = 5
ic_mode = 3,-2
ic_separation = 1.2345678901234567
ic_width = 0.29999999999999999
mollify = 32
n = 128
p_max = 32
seed = 7
snap_every = 4
t_max = 0.25
"""


@pytest.mark.parametrize(
    "config, expected",
    [(None, DEFAULT_ECHO), (EVERY_KEY_CONFIG, EVERY_KEY_ECHO)],
    ids=["defaults", "every-key"],
)
def test_config_echo_bytes(tmp_path, config, expected):
    path = None
    if config is not None:
        path = tmp_path / "in.cfg"
        path.write_text(config)
        path = str(path)
    echo = tmp_path / "config.txt"
    write_config_echo(parse_config(path), str(echo))
    assert echo.read_bytes() == expected.encode("utf-8")


def test_readme_defaults_block_is_the_default_config(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config keys and defaults", 1)[1].split("```")[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    values = parse_values(read_config_file(str(path)))
    assert list(values) == list(RUN_KEYS)
    assert values.pop("out") == ""  # empty -> a name derived from the run
    assert values == run_values(parse_config().solver)


def write_diagnostics(records, path):
    """The bytes a run writes: the header, then one row per record."""
    path.write_text(DIAG_HEADER + "\n" + "".join(map(diagnostics_row, records)),
                    encoding="utf-8", newline="\n")


class TestDiagnosticsCsv:
    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diagnostics([record(0.0)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].count(",") == 9

    def test_constant_column_count(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diagnostics([record(0.0), record(0.5), record(1.0)], path)
        lines = path.read_text().splitlines()
        assert len({line.count(",") for line in lines}) == 1

    def test_reparse_is_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        recs = [record(0.1 * i, scale=1.0 + 0.3 * i) for i in range(4)]
        write_diagnostics(recs, path)
        rows = read_diagnostics_csv(str(path))
        for rec, row in zip(recs, rows):
            assert row["t"] == rec.t
            assert row["l2"] == rec.norms.l2
            assert row["l4"] == rec.norms.lp[4]
            assert row["l8"] == rec.norms.lp[8]
            assert row["h1dot"] == rec.norms.h1dot
            assert row["hm1dot"] == rec.norms.hm1dot
            assert row["energy_gamma"] == rec.norms.energy_gamma

    def test_envelope_refit_from_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        recs = [record(0.1 * i, scale=1.0 + 0.05 * i) for i in range(5)]
        write_diagnostics(recs, path)
        rebuilt = records_from_rows(read_diagnostics_csv(str(path)))
        direct = gronwall_envelope(recs, recs[0].norms)
        refit = gronwall_envelope(rebuilt, rebuilt[0].norms)
        assert refit.c_a == pytest.approx(direct.c_a, rel=1e-12)
        assert refit.c_b == pytest.approx(direct.c_b, rel=1e-12)


class TestSnapshots:
    def snapshot(self, n=16, seed=0):
        rng = np.random.default_rng(seed)
        return Snapshot(n, 1.5, 0.25, 42, rng.standard_normal((n, n)))

    def test_run_snapshots_are_written_as_they_are(self, tmp_path):
        cfg = SolverConfig(n=16, gamma=0.5, t_max=0.05, snapshot_interval=1,
                           ic=InitialConditionSpec(kind="shell"))
        records, snapshots = [], []
        run(cfg, records.append, snapshots.append)
        snap = snapshots[-1]
        assert isinstance(snap, Snapshot)
        path = tmp_path / "s.lgeu"
        write_snapshot(snap, str(path))
        back = read_snapshot(str(path))
        assert (back.n, back.gamma, back.time, back.step_count) == (
            16, 0.5, snap.time, snap.step_count)
        assert np.array_equal(back.values, snap.values)

    def test_roundtrip_bit_exact(self, tmp_path):
        snap = self.snapshot()
        path = tmp_path / "s.lgeu"
        write_snapshot(snap, str(path))
        back = read_snapshot(str(path))
        assert back.n == snap.n
        assert back.gamma == snap.gamma
        assert back.time == snap.time
        assert back.step_count == snap.step_count
        assert np.array_equal(back.values, snap.values)
        # writing the recovered snapshot reproduces the file byte for byte
        path2 = tmp_path / "s2.lgeu"
        write_snapshot(back, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "s.lgeu"
        write_snapshot(self.snapshot(), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(SnapshotError, match="length"):
            read_snapshot(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.lgeu"
        path.write_bytes(b"LG")
        with pytest.raises(SnapshotError):
            read_snapshot(str(path))

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "s.lgeu"
        write_snapshot(self.snapshot(), str(path))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(str(path))

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "s.lgeu"
        write_snapshot(self.snapshot(), str(path))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(str(path))

    def test_shape_mismatch_rejected_on_write(self, tmp_path):
        snap = Snapshot(8, 1.5, 0.0, 0, np.zeros((4, 4)))
        with pytest.raises(SnapshotError):
            write_snapshot(snap, str(tmp_path / "s.lgeu"))


def test_inequality_csv_quotes_ids_that_hold_commas(tmp_path):
    params = (("N", 2.0), ("q", math.inf))
    report = InequalityReport("multiplier_bound", {}, (
        ReportRow("single_mode[1,0]", params, 0.1),
        ReportRow("random_band[0]", params, 1 / 3),
    ))
    path = tmp_path / "multiplier.csv"
    write_inequality_csv(report, str(path))
    assert path.read_text().splitlines() == [
        "function_id,N,q,ratio",
        '"single_mode[1,0]",2,inf,0.10000000000000001',
        "random_band[0],2,inf,0.33333333333333331",
    ]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == ["single_mode[1,0]", "random_band[0]"]
    assert {len(row) for row in rows} == {4}
