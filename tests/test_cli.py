import ast
import atexit
import contextlib
import gc
import importlib
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import maxwellsim
from maxwellsim import cli
from maxwellsim.cli import _format_value, main
from maxwellsim.config import COMMANDS, RunConfig, _parse_float, parse_config
from maxwellsim.errors import ConfigError, ParameterError
from maxwellsim.wavepacket import Grid1D

TWO_PI = 2.0 * math.pi
# README demonstration packet (width 2)
DEMO = "p0 = 10.0\nwidth = 2.0\nm = 0.85\ng = 1.5\n"
# the crosscheck run of the tests, at gap ratio 0.14
CROSS = (f"eta = 0.05\nomega1_tilde = {TWO_PI * 10}\nomega1 = {TWO_PI * 0.5}\n"
         f"omega2_tilde = {TWO_PI * 50}\nn_fock = 128\np0 = 4.0\n"
         "t_final = 0.8\ngrid_points = 1024\n")
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

    def test_non_finite_number_rejected(self):
        base = "command = sweep-transmission\nm = 1.0\ng = 1.0\np0 = 1.0\n"
        for line in ("theta_max = nan", "theta_min = -inf", "c = 1e999"):
            with pytest.raises(ConfigError, match="line 5"):
                parse_config(base + line + "\n")
        with pytest.raises(ConfigError, match="finite"):
            parse_config("p0 = 1.0\nwidth = 2.0\nm = 0.0\ng = 0.0\n"
                         "spinor = 1,nan,0\n", command="evolve")

    def test_initial_band_none_rejected_with_line_number(self):
        # `none` filters nothing in project_band; a sweep must start on a band
        text = "mtilde_c2 = 1.0\ng = 1.0\ninitial_band = none\n"
        with pytest.raises(ConfigError, match="line 3: initial_band must be one of"):
            parse_config(text, command="lz-oracle")
        for band in ("+", "0", "-"):
            config = parse_config(f"mtilde_c2 = 1.0\ng = 1.0\ninitial_band = {band}\n",
                                  command="lz-oracle")
            assert config.values["initial_band"] == band

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


_KEYS = sorted({key for schema in COMMANDS.values() for key in schema}
               | {"command", "output"})
_VALUES = st.one_of(
    st.sampled_from(sorted(COMMANDS) + ["+", "0", "-", "none", "1/2", "yes"]),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0.0", "1,nan,0",
                     "1e200", "1e300", "1e-300"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.lists(st.floats(-2.0, 2.0).map(repr), min_size=1, max_size=4).map(",".join),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(["=", " = ", "=="]), _VALUES)
    .map("".join),
    st.text(max_size=20),
)
# a complete config for each command, whose values the draws then replace
_BASE = {
    "sweep-transmission": {"m": "1.0", "g": "1.0", "p0": "1.0"},
    "lz-oracle": {"mtilde_c2": "1.0", "g": "1.0"},
    "evolve": {"p0": "10.0", "width": "2.0", "m": "0.85", "g": "1.5"},
    "ion-evolve": {"eta": "0.05", "omega1_tilde": "62.8", "omega1": "6.28",
                   "omega2_tilde": "314.0", "p0": "3.0", "t_final": "0.1"},
    "crosscheck": {"eta": "0.05", "omega1_tilde": "62.8", "omega1": "6.28",
                   "omega2_tilde": "314.0", "t_final": "0.1"},
}


@st.composite
def _edited_configs(draw, values_strategy=_VALUES, base=_BASE):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    values = {**base[command],
              **draw(st.dictionaries(st.sampled_from(sorted(COMMANDS[command])),
                                     values_strategy, max_size=3))}
    return "\n".join(f"{key} = {value}" for key, value in values.items()), command


_CONFIG_TEXTS = st.one_of(st.text(), st.lists(_LINES, max_size=12).map("\n".join))


class TestParseConfigProperties:

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=_CONFIG_TEXTS,
           command=st.one_of(st.none(), st.sampled_from(sorted(COMMANDS))))
    def test_any_text(self, text, command):
        self._result_or_config_error(text, command)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edited=_edited_configs())
    def test_edited_valid_config(self, edited):
        self._result_or_config_error(*edited)

    @staticmethod
    def _result_or_config_error(text, command):
        # any text parses to a RunConfig with finite numbers, or is refused
        try:
            config = parse_config(text, command)
        except ConfigError:
            return
        assert isinstance(config, RunConfig)
        assert config.command in COMMANDS
        for value in config.values.values():
            numbers = value if isinstance(value, tuple) else (value,)
            for number in numbers:
                if isinstance(number, float):
                    assert math.isfinite(number)


def _oracle_steps(mtilde_c2, g, c, hbar, endpoint_factor, dt):
    """Magnus steps of one swept-level call (dt and dt/2 runs)."""
    scale = max(mtilde_c2, math.sqrt(hbar * c * g))
    kx = endpoint_factor * scale / (c * hbar)
    step = dt or hbar / math.hypot(c * hbar * kx, mtilde_c2)
    return 3.0 * (2.0 * kx * hbar / g) / step


def _packet_steps(length, points, t_final, c, rate, dt):
    """Steps of an evolve run; ``rate`` is g c m c^2 ||[Cz, Cx]|| / hbar^2."""
    step = dt or min(3.0 * length / points / c,
                     (6e-4 / rate) ** (1 / 3) if rate > 0 else math.inf)
    return t_final / step


def _affordable(config) -> bool:
    """Whether a parsed config runs in well under a second: small grids,
    Fock spaces and record counts, and few steps."""
    try:
        return _cheap_run(config.command, config.values)
    except (ArithmeticError, ValueError):
        return False  # an estimate out of float range


def _cheap_run(command, v) -> bool:
    if command == "sweep-transmission":
        return v["theta_points"] <= 2000
    if command == "lz-oracle":
        return _oracle_steps(v["mtilde_c2"], v["g"], v["c"], v["hbar"],
                             v["endpoint_factor"], v["dt"]) <= 1e5
    if command == "evolve":
        width = v["width"]
        rate = 2.0 * v["g"] * v["c"] ** 3 * v["m"] / v["hbar"] ** 2  # norm <= 2
        steps = _packet_steps(v["grid_length"] or 40.0 * width, v["grid_points"],
                              v["t_final"] or 7.0 * width, v["c"], rate, v["dt"])
        return v["grid_points"] <= 1024 and steps <= 2000
    eta, w1t, w1, w2t = (v[k] for k in ("eta", "omega1_tilde", "omega1",
                                         "omega2_tilde"))
    # ||H|| t_final sets the Chebyshev propagator's work
    ion_work = (eta * (w1t + 3.0 * w2t) * math.sqrt(v["n_fock"]) + w1) * v["t_final"]
    records = v.get("n_records", 2)  # crosscheck keeps 2
    affordable = v["n_fock"] <= 256 and records <= 200 and ion_work <= 1000
    if command == "ion-evolve" or not affordable:
        return affordable
    # crosscheck also runs the oracle and a packet on the mapped parameters
    delta = v["delta"]
    c, g = math.sqrt(2.0) * eta * delta * w1t, eta * w2t / delta
    if c == 0 or g == 0:
        return True  # refused before any run
    width = math.sqrt(2.0) * delta
    return (v["grid_points"] <= 2048
            and _oracle_steps(w1, g, c, 1.0, 30.0, 0.0) <= 1e5
            and _packet_steps(40.0 * width, v["grid_points"], v["t_final"], c,
                              g * c * w1, 0.0) <= 2000)


# values a schema accepts more often than arbitrary text, mixed into _VALUES
_PLAUSIBLE = st.one_of(
    st.integers(0, 600).map(str),
    st.floats(0.0, 3.0).map(repr),
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["0", "1", "1/2", "+", "-", "none", "true", "1,0,1", "0.6,0.8"]),
)


# three plausible values to one of _VALUES
_CLI_VALUES = st.integers(0, 3).flatmap(lambda i: _PLAUSIBLE if i else _VALUES)
# _BASE on small grids and Fock spaces
_SMALL_BASE = {
    **_BASE,
    "evolve": {**_BASE["evolve"], "grid_points": "512", "t_final": "1.0"},
    "ion-evolve": {**_BASE["ion-evolve"], "n_fock": "64"},
    "crosscheck": {**_BASE["crosscheck"], "grid_points": "512"},
}


class TestCliProperties:
    """``main()`` ends every config on a documented exit code."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(edited=_edited_configs(_CLI_VALUES, _SMALL_BASE))
    def test_accepted_config_never_exits_1(self, edited):
        text, command = edited
        try:
            assume(_affordable(parse_config(text, command)))
        except ConfigError:
            pass  # refused by the parser: main() must say so with exit 2
        with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
            Path("run.cfg").write_text(text)
            # an escaping exception is exit 1 with a traceback
            assert main([command, "--config", "run.cfg",
                         "--output", "out.csv"]) in (0, 2, 3, 4)


def _extreme_values():
    """Every numeric key of every command, one at a time: floats at 1e300
    and 1e-300, integers at 10^16."""
    for command in sorted(COMMANDS):
        for key, spec in sorted(COMMANDS[command].items()):
            values = (("1e300", "1e-300") if spec.parse is _parse_float
                      else (str(10**16),) if spec.parse is int else ())
            for value in values:
                yield pytest.param(command, key, value,
                                   id=f"{command}-{key}-{value}")


# extreme values that must be refused, with a part of their message: a
# sweep of 10^16 angles, packets whose momentum lies far past the grid's
# pi / dx, a packet width whose square underflows, and an ion mass term
# whose band field squares past the float range
_MUST_REFUSE = {
    ("sweep-transmission", "theta_points", str(10**16)): "theta_points must be",
    ("evolve", "p0", "1e300"): "pi / dx",
    ("crosscheck", "p0", "1e300"): "pi / dx",
    ("evolve", "width", "1e-300"): "its square underflows",
    ("ion-evolve", "omega1", "1e300"): "squared magnitude overflows",
}


@pytest.mark.parametrize("command, key, value", _extreme_values())
def test_extreme_value_ends_on_a_documented_code_at_once(tmp_path, capsys,
                                                         command, key, value):
    cfg = tmp_path / "run.cfg"
    values = {**_SMALL_BASE[command], key: value}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    refusal = _MUST_REFUSE.get((command, key, value))
    start = time.monotonic()
    with warnings.catch_warnings():
        # a float operation out of range must end on a refusal, not a warning;
        # the Lamb-Dicke UserWarning at eta = 1e300 is intended
        warnings.simplefilter("error", RuntimeWarning)
        if refusal:  # refused before any float operation can warn
            warnings.simplefilter("error")
        code = main([command, "--config", str(cfg),
                     "--output", str(tmp_path / "out.csv")])
    assert time.monotonic() - start < 1.0
    assert code in (0, 2, 3, 4)
    if refusal:
        assert code == 2
        assert refusal in capsys.readouterr().err


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

    def test_lz_oracle_run_at_huge_hbar(self, tmp_path):
        # dt = 3.3e148 here: the Magnus step's Sy term is formed without
        # dt**3, which would overflow although the term itself is 0
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("mtilde_c2 = 0\ng = 1.0\nhbar = 1e300\n")
        out = tmp_path / "oracle.csv"
        assert main(["lz-oracle", "--config", str(cfg),
                     "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header, map(float, rows[0])))
        assert row["analytic_gamma_pm"] == 1.0
        assert row["gamma_pm"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", ["0.85", "0"], ids=["massive", "massless"])
    def test_evolve_free_run_at_huge_scales(self, tmp_path, m):
        # g = 0: the exact evolution is one Magnus step over t_final = 1e103,
        # whose Sy term is formed without dt**3, which would overflow
        cfg = tmp_path / "free.cfg"
        cfg.write_text(f"p0 = 0\nwidth = 1e104\nm = {m}\ng = 0\nt_final = 1e103\n"
                       "grid_length = 2e105\ngrid_points = 256\n")
        out = tmp_path / "free.csv"
        assert main(["evolve", "--config", str(cfg), "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        norms = [float(row[header.index("norm")]) for row in rows]
        assert len(norms) >= 2
        assert max(abs(norm - 1.0) for norm in norms) < 1e-10

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
        table = _crosscheck(tmp_path, CROSS)
        assert list(table) == ["analytic", "sweep-integrator", "wavepacket",
                               "characteristics", "ion"]
        # the two asymptotic routes agree tightly; the three finite-time
        # routes agree with each other tightly and with the asymptotics loosely
        assert np.allclose(table["analytic"], table["sweep-integrator"],
                           atol=5e-5)
        assert np.allclose(table["wavepacket"], table["characteristics"],
                           atol=5e-6)
        assert np.allclose(table["ion"], table["characteristics"], atol=1e-7)
        assert np.allclose(table["wavepacket"], table["ion"], atol=1e-3)
        assert np.allclose(table["analytic"], table["wavepacket"], atol=0.05)

    def test_crosscheck_mid_transit(self, tmp_path):
        # the finite-time rows are compared at the same t, so a run still
        # crossing the slope is a valid comparison
        table = _crosscheck(tmp_path, CROSS.replace("t_final = 0.8", "t_final = 0.2"))
        assert np.allclose(table["wavepacket"], table["characteristics"],
                           atol=5e-6)

    @pytest.mark.parametrize("t_final", ["0.1", "0.25", "0.8"])
    def test_crosscheck_massless(self, tmp_path, t_final):
        # at m = 0 the band projectors jump at k = 0; the reference is read
        # on the packet's own grid, so the two rows still agree
        text = (CROSS.replace("t_final = 0.8", f"t_final = {t_final}")
                .replace(f"omega1 = {TWO_PI * 0.5}", "omega1 = 0.0"))
        table = _crosscheck(tmp_path, text)
        assert np.allclose(table["wavepacket"], table["characteristics"],
                           atol=1e-9)

    def test_crosscheck_refuses_a_packet_off_the_reference(self, tmp_path, capsys):
        # evolve's own guard: a packet 1e-3 (L2) off its exact reference
        from maxwellsim import wavepacket

        exact = wavepacket._exact_evolution

        def perturbed(*args):
            reference, dropped = exact(*args)
            reference.amplitudes *= 1.0 + 1e-3
            return reference, dropped

        cfg = tmp_path / "cross.cfg"
        cfg.write_text(CROSS)
        with mock.patch.object(wavepacket, "_exact_evolution", perturbed):
            assert main(["crosscheck", "--config", str(cfg),
                         "--output", str(tmp_path / "cross.csv")]) == 3
        assert "characteristics" in capsys.readouterr().err


def _crosscheck(tmp_path, text) -> dict:
    """Run crosscheck on ``text``; return its rows by method, in order."""
    cfg = tmp_path / "cross.cfg"
    cfg.write_text(text)
    out = tmp_path / "cross.csv"
    assert main(["crosscheck", "--config", str(cfg), "--output", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["method", "w_plus", "w_zero", "w_minus", "transmission"]
    return {r[0]: [float(v) for v in r[1:]] for r in rows}


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
        ("evolve", "p0 = 20.0\nwidth = 1.0\ncenter = 10.0\nm = 0.0\ng = 0.0\n"
                   "t_final = 15.0\ndt = 15.0\ngrid_points = 512\n"
                   "grid_length = 40.0\nproject_band = +\n"),
        ("ion-evolve", ION.replace("omega1_tilde = 62.8", "omega1_tilde = 0.0")),
        ("crosscheck", ION.replace("omega1_tilde = 62.8", "omega1_tilde = 0.0")),
        ("crosscheck", ION.replace("omega2_tilde = 314.0", "omega2_tilde = 0.0")),
        ("lz-oracle", "mtilde_c2 = 0\ng = 1.0\nendpoint_factor = 1e-175\n"),
        ("crosscheck", ION + "delta = 1e-175\n"),
        # a float operation out of range (OverflowError, ZeroDivisionError)
        ("evolve", DEMO + "c = 1e200\n"),
        ("evolve", DEMO + "hbar = 1e-300\n"),
        ("sweep-transmission", "m = 1.0\ng = 1.0\np0 = 1.0\nc = 1e200\n"),
        ("sweep-transmission", "m = 1e300\ng = 1e-300\np0 = 1.0\n"),
        ("lz-oracle", "mtilde_c2 = 1e300\ng = 1.0\n"),
        ("ion-evolve", ION.replace("omega1_tilde = 62.8", "omega1_tilde = 1e300")),
        ("crosscheck", ION.replace("omega1 = 6.28", "omega1 = 1e300")),
    ], ids=["spinor-4", "grid-points", "grid-length", "ion-spinor-2",
            "evolve-dt", "ion-n-fock-8", "ion-one-record", "ion-empty-band",
            "sweep-angle", "evolve-edge-jump", "ion-no-kinetic-drive",
            "crosscheck-no-kinetic-drive", "crosscheck-no-slope",
            "oracle-window-underflow", "crosscheck-mass-overflow",
            "evolve-c-overflow", "evolve-hbar-underflow", "sweep-c-overflow",
            "sweep-mass-overflow", "oracle-mass-overflow",
            "ion-kinetic-overflow", "crosscheck-light-shift-overflow"])
    def test_rejected_parameter_is_2(self, tmp_path, capsys, command, text):
        # parseable values that a library validator rejects
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("lz-oracle", "mtilde_c2 = 1e160\ng = 1.0\n"),
        ("lz-oracle", "mtilde_c2 = 1e120\ng = 1.0\n"),
        ("lz-oracle", "mtilde_c2 = 0.5\ng = 1.0\ndt = 1e-9\n"),
        ("crosscheck", ION.replace("omega1 = 6.28", "omega1 = 1e120")),
    ], ids=["oracle-window-square-overflow", "oracle-step-count",
            "oracle-explicit-dt-step-count", "crosscheck-step-count"])
    def test_oversized_sweep_is_2_at_once(self, tmp_path, capsys, command, text):
        # the sweep's step count is bounded before any integration
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        start = time.monotonic()
        code = main([command, "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        ("ion-evolve", ION + "n_fock = 4097\n"),
        ("crosscheck", ION + "n_fock = 4097\n"),
        # 2^22 record entries at 3 x 128 amplitudes a record, plus one
        ("ion-evolve", ION + f"n_records = {2**22 // (3 * 128) + 1}\n"),
        ("ion-evolve", ION + "reduce_ion2 = false\n"
                       f"n_records = {2**22 // (6 * 128) + 1}\n"),
        # about 1.3e9 Hamiltonian applications, hours of work
        ("ion-evolve", ION.replace("t_final = 0.1", "t_final = 1e6")
         + "n_fock = 512\nn_records = 2\n"),
    ], ids=["ion-n-fock", "crosscheck-n-fock", "ion-records",
            "ion-full-records", "ion-propagation-work"])
    def test_oversized_ion_run_is_2_at_once(self, tmp_path, capsys, command, text):
        # the Fock truncation and the record array are bounded before any
        # allocation that scales with them
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        start = time.monotonic()
        code = main([command, "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text", [
        # a flat-band packet at rest: about 1e9 steps of 256 points
        ("evolve", "p0 = 0.0\nwidth = 2.0\nm = 1.0\ng = 0.0\nspinor = 0,1,0\n"
                   "project_band = 0\ngrid_points = 256\nt_final = 1e9\n"),
        ("crosscheck", ION.replace("t_final = 0.1", "t_final = 1e6")),
        # 2^40 points: Grid1D.x alone would take 8 TiB
        ("evolve", DEMO + "grid_points = 1099511627776\n"),
        ("crosscheck", ION + "grid_points = 1099511627776\n"),
    ], ids=["evolve-steps", "crosscheck-steps", "evolve-grid", "crosscheck-grid"])
    def test_oversized_packet_run_is_2_at_once(self, tmp_path, capsys, command,
                                               text):
        # the grid size and the packet's work are bounded before any
        # allocation or step; the grid cap is checked first, so that no
        # run below can allocate the large grid
        with pytest.raises(ParameterError):
            Grid1D(80.0, 2**40)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        start = time.monotonic()
        code = main([command, "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert "error[config]" in capsys.readouterr().err

    def test_angle_count_is_capped(self, tmp_path, capsys):
        # 10^16 angles would be built as one list; a million are accepted
        base = "spin = 1\nm = 1.0\ng = 1.0\np0 = 1.0\n"
        assert parse_config(base + "theta_points = 1000000\n",
                            "sweep-transmission").values["theta_points"] == 10**6
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(base + "theta_points = 10000000000000000\n")
        start = time.monotonic()
        code = main(["sweep-transmission", "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert "line 5: theta_points" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("p0", ["250", "1e300"])
    def test_packet_past_the_grid_momentum_is_2(self, tmp_path, capsys, p0):
        # the demo grid holds wavenumbers below pi / dx = 160.8: p0 = 250
        # would alias to a mean k of -71.7, p0 = 1e300 to noise
        cfg = tmp_path / "evolve.cfg"
        cfg.write_text(DEMO.replace("p0 = 10.0", f"p0 = {p0}"))
        code = main(["evolve", "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "pi / dx" in capsys.readouterr().err

    def test_memory_error_is_2(self, tmp_path, capsys):
        # a backstop behind the size caps
        from maxwellsim import wavepacket

        cfg = tmp_path / "evolve.cfg"
        cfg.write_text(DEMO + "t_final = 1.0\ngrid_points = 512\n")
        with mock.patch.object(wavepacket, "evolve", side_effect=MemoryError):
            code = main(["evolve", "--config", str(cfg),
                         "--output", str(tmp_path / "x.csv")])
        assert code == 2
        assert "memory" in capsys.readouterr().err

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


@pytest.mark.parametrize("value, text", [
    (True, "true"), (False, "false"), (np.bool_(True), "True"),
    (3, "3"), (np.int64(-7), "-7"), (np.int32(5), "5"),
    (0.1, "0.1"), (1e-300, "1e-300"), (np.float64(0.1), "0.1"),
    (np.float32(0.1), "0.10000000149011612"), (np.float16(0.1), "0.0999755859375"),
    ("abc", "abc"), ((1.0, 0.0, np.float64(0.5)), "1.0,0.0,0.5"),
    ([np.float32(0.1), 2], "0.10000000149011612,2"),
])
def test_format_value(value, text):
    # numpy scalars format as they did when the CLI imported numpy itself
    assert _format_value(value) == text


@pytest.mark.parametrize("command, text", [
    ("evolve", "p0 = 10.0\nwidth = 2.0\nm = 0.85\ng = 1.5\nt_final = 1.0\n"
               "spinor = 0.6,0.0,0.8\ngrid_points = 512\nsnapshot_path = {snap}\n"),
    ("ion-evolve", ION + "n_fock = 64\nproject_band = +\nn_records = 7\n"
                         "snapshot_path = {snap}\n"),
], ids=["evolve", "ion-evolve"])
def test_csv_rows_reach_the_formatter_as_floats(tmp_path, command, text):
    # rows come as lists of Python floats, and the file holds the bytes that
    # the same rows give as numpy float64 scalars
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.format(snap=tmp_path / "snap.csv"))
    written = []
    write_csv = cli._write_csv

    def capture(path, columns, rows, config):
        written.append((path, columns, rows, config))
        write_csv(path, columns, rows, config)

    with mock.patch.object(cli, "_write_csv", capture):
        assert main([command, "--config", str(cfg),
                     "--output", str(tmp_path / "trace.csv")]) == 0
    assert len(written) == 2  # the trace and the snapshot
    for path, columns, rows, config in written:
        assert all(type(v) is float for row in rows for v in row)
        reference = tmp_path / "numpy-rows.csv"
        write_csv(str(reference), columns, list(np.array(rows)), config)
        assert Path(path).read_bytes() == reference.read_bytes()


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its standard output."""
    src = str(Path(maxwellsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    return done.stdout.strip()


def _loaded_modules(code: str, package: str) -> str:
    """Run ``code`` in a fresh interpreter that then prints the sorted names
    of the loaded modules of ``package``; return that output."""
    return _run_fresh(code + "\nimport sys; print(sorted(m for m in sys.modules "
                      f"if m.split('.')[0] == {package!r}))")


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy is a test extra: no command may load it
    assert _loaded_modules("import maxwellsim.cli", "scipy") == "[]"


def test_package_import_loads_no_numpy():
    # the package resolves its public names on first use
    assert _loaded_modules("import maxwellsim", "numpy") == "[]"
    assert _loaded_modules("import maxwellsim.cli", "numpy") == "[]"


def test_sweep_transmission_runs_without_numpy(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("spin = 1\nm = 1.0\ng = 5.0\np0 = 1.0\ntheta_points = 21\n")
    code = ("from maxwellsim.cli import main\n"
            f"assert main(['sweep-transmission', '--config', {str(cfg)!r}, "
            f"'--output', {str(tmp_path / 'sweep.csv')!r}]) == 0")
    assert _loaded_modules(code, "numpy") == "[]"
    assert len(read_csv(tmp_path / "sweep.csv")[2]) == 21


def test_lz_oracle_loads_only_its_route(tmp_path):
    # the oracle runs on math alone: no other route, no spin_algebra, no numpy
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("spin = 1/2\nmtilde_c2 = 0.6\ng = 1.0\n")
    code = ("from maxwellsim.cli import main\n"
            f"assert main(['lz-oracle', '--config', {str(cfg)!r}, "
            f"'--output', {str(tmp_path / 'oracle.csv')!r}]) == 0")
    route = ["maxwellsim"] + [f"maxwellsim.{name}" for name in (
        "cli", "config", "errors", "landau_zener", "sweep_integrator")]
    assert _loaded_modules(code, "maxwellsim") == str(route)
    assert _loaded_modules(code, "numpy") == "[]"
    assert len(read_csv(tmp_path / "oracle.csv")[2]) == 1


def _main_loads(tmp_path, command: str, text: str) -> list[str]:
    """The maxwellsim modules loaded by one ``main`` run of ``command`` on
    the config ``text``, in a fresh interpreter."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = ("from maxwellsim.cli import main\n"
            f"assert main([{command!r}, '--config', {str(cfg)!r}, "
            f"'--output', {str(tmp_path / 'out.csv')!r}]) == 0")
    return ast.literal_eval(_loaded_modules(code, "maxwellsim"))


@pytest.mark.parametrize("command, text, route", [
    # the packet route serves ion-evolve only for its snapshot readout; the
    # packet guard takes its rotor kernel from spin_algebra, so neither
    # loads the swept-level integrator
    ("ion-evolve", ION, ("ion_emulator",)),
    ("ion-evolve", ION + "snapshot_path = {tmp}/snapshot.csv\n",
     ("ion_emulator", "wavepacket")),
    ("evolve", DEMO + "t_final = 1.0\ngrid_points = 512\n", ("wavepacket",)),
], ids=["ion-evolve", "ion-evolve-snapshot", "evolve"])
def test_command_loads_only_its_route(tmp_path, command, text, route):
    shared = ("cli", "config", "errors", "landau_zener", "spin_algebra")
    loaded = _main_loads(tmp_path, command, text.format(tmp=tmp_path))
    assert loaded == ["maxwellsim"] + [
        f"maxwellsim.{name}" for name in sorted(shared + route)]


def test_ion_evolve_snapshot_loads_the_packet_route(tmp_path):
    snapshot = tmp_path / "snapshot.csv"
    loaded = _main_loads(tmp_path, "ion-evolve", ION + f"snapshot_path = {snapshot}\n")
    assert "maxwellsim.wavepacket" in loaded
    assert snapshot.exists()


def test_ion_emulator_band_readers_are_the_packet_routes():
    # bench/tracing.py wraps them under ion_emulator's names
    from maxwellsim import ion_emulator, wavepacket

    assert ion_emulator.band_populations is wavepacket.band_populations
    assert ion_emulator.band_components is wavepacket.band_components
    with pytest.raises(AttributeError):
        ion_emulator.no_such_name


def test_public_names_resolve_to_their_home_modules():
    # in a fresh interpreter, so each name is resolved lazily, not cached
    code = ("import importlib, maxwellsim as ms\n"
            "assert set(ms.__all__) <= set(dir(ms))\n"
            "for name, home in ms._HOME.items():\n"
            "    first = getattr(ms, name)\n"
            "    assert first is getattr(importlib.import_module("
            "'maxwellsim.' + home), name), name\n"
            "    assert vars(ms)[name] is first, name\n"
            "from maxwellsim import lz_spin1, Grid1D, IonParams, ConfigError\n"
            "print(len(ms.__all__))")
    assert _run_fresh(code) == str(len(maxwellsim.__all__))
    with pytest.raises(AttributeError):
        maxwellsim.no_such_name


def test_package_loads_no_scipy():
    # the sideband toolbox, the Hamiltonian and the run use numpy alone
    code = ("import maxwellsim as ms\n"
            "ion = ms.IonParams(eta=0.05, omega1_tilde=1.0, omega1=0.5, "
            "omega2_tilde=0.8, n_fock=16, reduce_ion2=False)\n"
            "ms.sideband_toolbox(ion, \"a'b'\", 'blue', 1.0, 0.3)\n"
            "ms.build_maxwell_hamiltonian(ion)\n"
            "state = ms.coherent_initial_state(ion, 0.5, (1, 0, 0))\n"
            "ms.evolve_ion(state, ion, 0.1, n_records=2)")
    assert _loaded_modules(code, "scipy") == "[]"


def test_evolve_leaves_scipy_unloaded(tmp_path):
    # the corrected step and the measured guard use numpy alone
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text(DEMO + "t_final = 1.0\ngrid_points = 512\n")
    code = ("from maxwellsim.cli import main\n"
            f"assert main(['evolve', '--config', {str(cfg)!r}, "
            f"'--output', {str(tmp_path / 'trace.csv')!r}]) == 0")
    assert _loaded_modules(code, "scipy") == "[]"
    assert (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("command, text", [
    ("ion-evolve", ION + "project_band = +\nsnapshot_path = {snapshot}\n"),
    ("crosscheck", CROSS),
], ids=["ion-evolve", "crosscheck"])
def test_ion_commands_leave_scipy_unloaded(tmp_path, command, text):
    # preparation, Chebyshev propagation and readout use numpy alone
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.format(snapshot=tmp_path / "snapshot.csv"))
    code = ("from maxwellsim.cli import main\n"
            f"assert main([{command!r}, '--config', {str(cfg)!r}, "
            f"'--output', {str(tmp_path / 'out.csv')!r}]) == 0")
    assert _loaded_modules(code, "scipy") == "[]"
    assert (tmp_path / "out.csv").exists()
    if "snapshot_path" in text:
        assert (tmp_path / "snapshot.csv").exists()


def _private_sibling_uses(package: Path) -> list[str]:
    """``module: name`` for every underscore name that a module of
    ``package`` imports from a sibling module or reads off one."""
    siblings = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()  # local names of sibling modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and node.module.split(".")[0] != package.name:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    found.append(f"{path.stem}: {alias.name}")
                if node.module in (None, package.name) and alias.name in siblings:
                    bound.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound and node.attr.startswith("_")
                    and not node.attr.endswith("__")):
                found.append(f"{path.stem}: {node.value.id}.{node.attr}")
    return found


def test_modules_use_no_private_name_of_a_sibling():
    # a name one module needs from another is part of that module's public API
    package = Path(maxwellsim.__file__).resolve().parent
    assert _private_sibling_uses(package) == []


# A cheap run of every command; a snapshot is written where a command has one.
CHEAP_RUNS = {
    "sweep-transmission": "spin = 1\nm = 1.0\ng = 5.0\np0 = 1.0\ntheta_points = 21\n",
    "lz-oracle": "spin = 1/2\nmtilde_c2 = 0.6\ng = 1.0\n",
    "evolve": DEMO + "t_final = 1.0\ngrid_points = 512\nsnapshot_path = {snapshot}\n",
    "ion-evolve": ION + "snapshot_path = {snapshot}\n",
    "crosscheck": CROSS.replace("t_final = 0.8", "t_final = 0.2"),
}


def _main_returns(tmp_path, kind: str):
    """Call ``main`` to one kind of return: ``"ok"`` (exit 0),
    ``"config-error"`` (exit 2) or ``"usage-error"`` (argparse's
    ``SystemExit``)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CHEAP_RUNS["sweep-transmission"] if kind == "ok" else "g = -1\n")
    command = "no-such-command" if kind == "usage-error" else "sweep-transmission"
    argv = [command, "--config", str(cfg), "--output", str(tmp_path / "out.csv")]
    if kind == "usage-error":
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == (0 if kind == "ok" else 2)


class _Node:
    pass


class TestCollectorState:
    """``main`` turns collection off while it runs and freezes the heap at
    process exit; an in-process caller keeps normal collection."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("kind", ["ok", "config-error", "usage-error"])
    def test_caller_keeps_its_collection(self, tmp_path, capsys, kind, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            node = _Node()
            node.cycle = node
            dropped = weakref.ref(node)
            del node
            _main_returns(tmp_path, kind)
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == 0
            gc.collect()
            assert dropped() is None  # not frozen: the collector still finds it
        finally:
            (gc.enable if was else gc.disable)()

    def test_one_freeze_hook_per_process(self, tmp_path, capsys):
        hooks = []

        def unregister(fn):
            hooks[:] = [hook for hook in hooks if hook != fn]

        with mock.patch.object(atexit, "register", hooks.append), \
                mock.patch.object(atexit, "unregister", unregister):
            _main_returns(tmp_path, "ok")
            _main_returns(tmp_path, "usage-error")
        assert hooks == [gc.freeze]


def _cheap_argv(tmp_path, command: str) -> tuple[list[str], list[Path]]:
    """The arguments of a cheap ``command`` run and the files it writes."""
    cfg, out, snapshot = (tmp_path / f"{command}.{suffix}"
                          for suffix in ("cfg", "csv", "snapshot.csv"))
    text = CHEAP_RUNS[command]
    cfg.write_text(text.format(snapshot=snapshot))
    written = [out, snapshot] if "{snapshot}" in text else [out]
    return [command, "--config", str(cfg), "--output", str(out)], written


@pytest.mark.parametrize("command", sorted(CHEAP_RUNS))
def test_no_output_depends_on_exit_time_finalization(tmp_path, command):
    # the heap is frozen at exit, so an object left in a reference cycle is
    # never finalized there: a file still open in one would lose its tail
    argv, written = _cheap_argv(tmp_path, command)
    reports = []
    with warnings.catch_warnings(), \
            mock.patch.object(sys, "unraisablehook", reports.append):
        warnings.simplefilter("error", ResourceWarning)
        assert main(argv) == 0
        gc.collect()
    assert reports == []
    expected = [path.read_bytes() for path in written]
    for path in written:
        path.unlink()

    src = str(Path(maxwellsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "maxwellsim.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert (done.returncode, done.stderr) == (0, "")
    assert [path.read_bytes() for path in written] == expected
