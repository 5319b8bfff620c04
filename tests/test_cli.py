import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maxwellsim
from maxwellsim.cli import main
from maxwellsim.config import parse_config
from maxwellsim.errors import ConfigError

TWO_PI = 2.0 * math.pi
# README demonstration packet (width 2)
DEMO = "p0 = 10.0\nwidth = 2.0\nm = 0.85\ng = 1.5\n"
# feasibility-scale ion run, short
ION = ("eta = 0.05\nomega1_tilde = 62.8\nomega1 = 6.28\nomega2_tilde = 314.0\n"
       "p0 = 3.0\nt_final = 0.1\n")


def read_csv(path):
    """Split a written CSV into (comment lines, header columns, float table)."""
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


class TestParseConfig:

    def test_valid_evolve_config(self):
        text = ("command = evolve\np0 = 10.0\nwidth = 2.0\nm = 0.85\n"
                "g = 1.5\nt_final = 14.0\n")
        config = parse_config(text)
        assert config.command == "evolve"
        assert config.values["p0"] == 10.0
        assert config.values["grid_points"] == 4096      # default filled
        assert config.values["spinor"] == (1.0, 0.0, 0.0)

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\ncommand = evolve  # trailing\np0 = 1.0 # too\n" \
               "width = 2.0\nm = 0.0\ng = 0.0\nt_final = 1.0\n"
        assert parse_config(text).values["p0"] == 1.0

    def test_negative_slope_rejected(self):
        with pytest.raises(ConfigError, match="g must be positive"):
            parse_config("command = sweep-transmission\nm = 1.0\ng = -1\np0 = 1.0\n")

    def test_empty_lists_all_missing_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("", command="evolve")
        for key in ("g", "m", "p0", "width"):
            assert key in str(err.value)

    def test_spec_demo_config_is_complete(self):
        # the four packet parameters alone make a valid scattering run
        config = parse_config(
            "command = evolve\np0 = 10.0\nwidth = 2.0\nm = 0.85\ng = 1.5\n")
        assert config.values["t_final"] == 0.0  # resolved to 7 x width at run

    def test_unknown_key_rejected(self):
        text = "command = evolve\np0 = 1.0\nwidth = 2.0\nm = 0.0\ng = 0.0\n" \
               "t_final = 1.0\nwdith = 3.0\n"
        with pytest.raises(ConfigError, match="wdith"):
            parse_config(text)
        # keys that configured nothing are gone from the schemas
        with pytest.raises(ConfigError, match="x_c"):
            parse_config("eta = 0.05\nomega1_tilde = 1.0\nomega1 = 1.0\n"
                         "omega2_tilde = 1.0\nt_final = 1.0\nx_c = 0.0\n",
                         command="crosscheck")
        with pytest.raises(ConfigError, match="threads"):
            parse_config("m = 1.0\ng = 1.0\np0 = 1.0\nthreads = 2\n",
                         command="sweep-transmission")

    def test_type_error_carries_line_number(self):
        text = "command = evolve\np0 = ten\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(text)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("p0 = 1.0\np0 = 2.0\n", command="evolve")

    def test_command_mismatch(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("command = evolve\n", command="crosscheck")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config("command = simulate\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n", command="evolve")


class TestCliRuns:

    def test_sweep_deterministic(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("spin = 1\nm = 1.0\ng = 5.0\np0 = 1.0\n"
                       "theta_points = 21\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep-transmission", "--config", str(cfg),
                     "--output", str(out1)]) == 0
        assert main(["sweep-transmission", "--config", str(cfg),
                     "--output", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

        comments, header, rows = read_csv(out1)
        assert header == ["theta", "gamma_pp", "gamma_p0", "gamma_pm",
                          "transmission"]
        assert len(rows) == 21
        thetas = [float(r[0]) for r in rows]
        assert thetas == sorted(thetas)
        assert any(c.startswith("# g = 5.0") for c in comments)

    def test_sweep_reruns_byte_identical(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("spin = 1/2\nm = 1.0\ng = 1.0\np0 = 1.0\n"
                       "theta_points = 7\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep-transmission", "--config", str(cfg), "--output", str(out1)])
        main(["sweep-transmission", "--config", str(cfg), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_lz_oracle_run(self, tmp_path):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("spin = 1\nmtilde_c2 = 0.85\ng = 1.5\n")
        out = tmp_path / "oracle.csv"
        assert main(["lz-oracle", "--config", str(cfg),
                     "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header[0] == "ratio"
        row = dict(zip(header, map(float, rows[0])))
        assert row["ratio"] == pytest.approx(0.85**2 / 1.5)
        for band in ("gamma_pp", "gamma_p0", "gamma_pm"):
            assert row[band] == pytest.approx(row[f"analytic_{band}"], abs=1e-3)

    def test_evolve_run_with_snapshot(self, tmp_path):
        cfg = tmp_path / "evolve.cfg"
        snap = tmp_path / "snap.csv"
        cfg.write_text(
            "p0 = 10.0\nwidth = 2.0\nm = 0.85\ng = 1.5\nt_final = 2.0\n"
            "project_band = +\ngrid_points = 512\n"
            f"snapshot_path = {snap}\n"
        )
        out = tmp_path / "trace.csv"
        assert main(["evolve", "--config", str(cfg), "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["t", "norm", "x_mean", "w_plus", "w_zero", "w_minus"]
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(2.0)
        norms = [float(r[1]) for r in rows]
        assert np.allclose(norms, 1.0, atol=1e-8)

        _, sheader, srows = read_csv(snap)
        assert sheader == ["x", "re_comp1", "im_comp1", "re_comp2", "im_comp2",
                           "re_comp3", "im_comp3", "abs2_plus_band",
                           "abs2_zero_band", "abs2_minus_band", "abs2_total"]
        assert len(srows) == 512
        table = np.array([[float(v) for v in r] for r in srows])
        # band densities integrate to the recorded band weights
        dx = table[1, 0] - table[0, 0]
        assert np.sum(table[:, 10]) * dx == pytest.approx(1.0, abs=1e-8)

    def test_ion_evolve_run(self, tmp_path):
        cfg = tmp_path / "ion.cfg"
        snap = tmp_path / "ion_snap.csv"
        cfg.write_text(
            f"eta = 0.05\nomega1_tilde = {TWO_PI * 10}\nomega1 = {TWO_PI * 1}\n"
            f"omega2_tilde = {TWO_PI * 50}\nn_fock = 64\np0 = 3.0\n"
            "project_band = +\nt_final = 0.2\nn_records = 9\n"
            f"snapshot_path = {snap}\n"
        )
        out = tmp_path / "ion.csv"
        assert main(["ion-evolve", "--config", str(cfg),
                     "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["t_ms", "pop_a", "pop_b", "pop_c", "x_mean",
                          "w_plus", "w_zero", "w_minus", "fock_tail"]
        assert len(rows) == 9
        first = dict(zip(header, map(float, rows[0])))
        assert first["w_plus"] == pytest.approx(1.0, abs=1e-6)

        # final-state position readout shares the wave-packet snapshot format
        _, sheader, srows = read_csv(snap)
        assert sheader[0] == "x" and sheader[-1] == "abs2_total"
        table = np.array([[float(v) for v in r] for r in srows])
        dx = table[1, 0] - table[0, 0]
        last = dict(zip(header, map(float, rows[-1])))
        band_integrals = table[:, 7:10].sum(axis=0) * dx
        assert band_integrals == pytest.approx(
            [last["w_plus"], last["w_zero"], last["w_minus"]], abs=1e-6)

    def test_crosscheck_run(self, tmp_path):
        cfg = tmp_path / "cross.cfg"
        cfg.write_text(
            f"eta = 0.05\nomega1_tilde = {TWO_PI * 10}\nomega1 = {TWO_PI * 0.5}\n"
            f"omega2_tilde = {TWO_PI * 50}\nn_fock = 128\np0 = 4.0\n"
            "t_final = 0.8\ngrid_points = 1024\n"
        )
        out = tmp_path / "cross.csv"
        assert main(["crosscheck", "--config", str(cfg),
                     "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["method", "w_plus", "w_zero", "w_minus", "transmission"]
        table = {r[0]: [float(v) for v in r[1:]] for r in rows}
        assert set(table) == {"analytic", "sweep-integrator", "wavepacket", "ion"}
        # the two asymptotic routes agree tightly; the finite-time routes
        # agree with each other tightly and with the asymptotics loosely
        assert np.allclose(table["analytic"], table["sweep-integrator"],
                           atol=1e-3)
        assert np.allclose(table["wavepacket"], table["ion"], atol=1e-3)
        assert np.allclose(table["analytic"], table["wavepacket"], atol=0.05)


class TestExitCodes:

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m = 1.0\ng = -1\np0 = 1.0\n")
        code = main(["sweep-transmission", "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("evolve", DEMO + "spinor = 1,0,0,0\n"),
        ("evolve", DEMO + "grid_points = 1000\n"),
        ("evolve", DEMO + "grid_length = 15\n"),
        ("ion-evolve", ION + "spinor = 1,0\n"),
        ("evolve", DEMO + "dt = 1.0\n"),
        ("ion-evolve", ION + "n_fock = 8\n"),
        ("ion-evolve", ION + "n_records = 1\n"),
        ("ion-evolve", "eta = 0.05\nomega1_tilde = 62.8\nomega1 = 0.0\n"
                       "omega2_tilde = 314.0\np0 = 5.0\nt_final = 0.1\n"
                       "n_fock = 256\nspinor = 1,0,1\nproject_band = 0\n"),
        ("sweep-transmission", "spin = 1\nm = 1.0\ng = 1.0\np0 = 1.0\n"
                               "theta_max = 1.6\n"),
    ], ids=["spinor-4", "grid-points", "grid-length", "ion-spinor-2",
            "evolve-dt", "ion-n-fock-8", "ion-one-record", "ion-empty-band",
            "sweep-angle"])
    def test_rejected_parameter_is_2(self, tmp_path, capsys, command, text):
        # parseable values that a library validator rejects
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error[config]" in capsys.readouterr().err

    def test_missing_config_is_4(self, tmp_path, capsys):
        code = main(["sweep-transmission", "--config",
                     str(tmp_path / "missing.cfg"),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 4
        assert "error[io]" in capsys.readouterr().err

    def test_guard_violation_is_3(self, tmp_path, capsys):
        # packet dies on the boundary: numerical-guard exit
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("p0 = 20.0\nwidth = 1.0\ncenter = 10.0\nm = 0.0\n"
                       "g = 0.0\nt_final = 10.0\ndt = 0.02\n"
                       "grid_points = 512\ngrid_length = 40.0\n"
                       "project_band = +\n")
        code = main(["evolve", "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 3
        assert "error[guard]" in capsys.readouterr().err

    def test_unwritable_output_is_4(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("spin = 1\nm = 1.0\ng = 1.0\np0 = 1.0\n"
                       "theta_points = 3\n")
        code = main(["sweep-transmission", "--config", str(cfg),
                     "--output", str(tmp_path / "no_dir" / "x.csv")])
        assert code == 4

    def test_output_key_in_config(self, tmp_path):
        out = tmp_path / "from_key.csv"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("spin = 1\nm = 1.0\ng = 1.0\np0 = 1.0\n"
                       f"theta_points = 3\noutput = {out}\n")
        assert main(["sweep-transmission", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_no_output_anywhere_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("spin = 1\nm = 1.0\ng = 1.0\np0 = 1.0\n")
        assert main(["sweep-transmission", "--config", str(cfg)]) == 2
        assert "output" in capsys.readouterr().err


def test_cli_import_leaves_scipy_sparse_unloaded():
    # Every command imports the ion emulator; only the ion commands may pay
    # for loading scipy.sparse (start-up time and resident memory).
    src = str(Path(maxwellsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, maxwellsim.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.sparse')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.stdout.strip() == "[]"
