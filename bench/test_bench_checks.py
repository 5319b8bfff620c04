"""Each output check accepts a real maxwellsim output and rejects a copy of it
perturbed to break that check's property; the span bookkeeping gives the
documented self times."""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

import checks
import tracing
from maxwellsim import cli

SWEEP = {"spin": "1", "m": 0.9, "g": 1.3, "p0": 2.0}
ORACLE_RATIO = 0.5
DEMO_RATIO = 0.85**2 / 1.5
ION = {"eta": 0.05, "omega1_tilde": 20 * math.pi, "omega1": 2 * math.pi,
       "omega2_tilde": 100 * math.pi}
ION_RATIO = checks.ion_ratio(**ION)

# Small, fast versions of the benchmark's configurations.
CONFIGS = {
    "sweep": ("sweep-transmission", SWEEP),
    # A coarser step than the default keeps this under two seconds.
    "oracle": ("lz-oracle", {"spin": "1", "mtilde_c2": math.sqrt(ORACLE_RATIO), "g": 1.0,
                             "endpoint_factor": 20.0, "dt": 0.002}),
    "demo": ("evolve", {"p0": 10.0, "width": 2.0, "m": 0.85, "g": 1.5,
                        "project_band": "+", "grid_points": 1024}),
    "superposition": ("evolve", {"p0": 10.0, "width": 2.0, "m": 0.85, "g": 1.5,
                                 "spinor": "0.7071067811865476,0,0.7071067811865476",
                                 "grid_points": 1024, "snapshot_path": "SNAPSHOT"}),
    "ion-reduced": ("ion-evolve", {**ION, "p0": 7.0, "project_band": "+", "t_final": 1.0,
                                   "n_fock": 160, "reduce_ion2": "true"}),
    "ion-full": ("ion-evolve", {**ION, "p0": 7.0, "project_band": "+", "t_final": 1.0,
                                "n_fock": 160, "reduce_ion2": "false"}),
}
COLUMNS = {"sweep": checks.SWEEP_COLUMNS, "oracle": checks.ORACLE_COLUMNS,
           "demo": checks.TRACE_COLUMNS, "superposition": checks.TRACE_COLUMNS,
           "snapshot": checks.SNAPSHOT_COLUMNS, "ion-reduced": checks.ION_COLUMNS,
           "ion-full": checks.ION_COLUMNS}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    snapshot = tmp / "snapshot.csv"
    for name, (command, values) in CONFIGS.items():
        config = tmp / f"{name}.cfg"
        config.write_text("".join(
            f"{key} = {snapshot if value == 'SNAPSHOT' else value}\n"
            for key, value in values.items()))
        assert cli.main([command, "--config", str(config),
                         "--output", str(tmp / f"{name}.csv")]) == 0
    return {name: checks.read_table(
                snapshot if name == "snapshot" else tmp / f"{name}.csv", columns)
            for name, columns in COLUMNS.items()}


def _shift(table, column, row, delta):
    table.rows[row, table.columns.index(column)] += delta


def _raise_quiet_cell(table):
    rho = table.rows[:, table.columns.index("abs2_total")]
    rho[len(rho) // 40] = 0.5 * rho.max()


# (output, check, perturbation breaking exactly the checked property)
CASES = [
    ("sweep", lambda t: checks.sweep_closed_forms(t, **SWEEP),
     lambda t: (_shift(t, "gamma_pm", 0, 1e-9), _shift(t, "gamma_pp", 0, -1e-9))),
    ("sweep", checks.sweep_rows_sum, lambda t: _shift(t, "gamma_pp", 3, 1e-9)),
    ("sweep", checks.sweep_symmetric, lambda t: _shift(t, "transmission", 0, 1e-9)),
    ("sweep", checks.sweep_monotone, lambda t: _shift(t, "transmission", -1, 0.5)),
    ("oracle", lambda t: checks.oracle_closed_forms(t, "1", ORACLE_RATIO),
     lambda t: (_shift(t, "gamma_pm", 0, 5e-4), _shift(t, "gamma_pp", 0, -5e-4))),
    ("oracle", checks.oracle_majorana,
     lambda t: (_shift(t, "gamma_p0", 0, 1e-7), _shift(t, "gamma_pp", 0, -1e-7))),
    ("oracle", checks.oracle_rows_sum, lambda t: _shift(t, "gamma_pp", 0, 1e-9)),
    ("oracle", checks.oracle_rows_sum, lambda t: _shift(t, "analytic_transmission", 0, 1e-9)),
    ("oracle", lambda t: checks.oracle_analytic_columns(t, "1", ORACLE_RATIO),
     lambda t: (_shift(t, "analytic_gamma_pm", 0, 1e-9),
                _shift(t, "analytic_gamma_pp", 0, -1e-9))),
    ("demo", checks.trace_norm, lambda t: _shift(t, "norm", -1, 1e-7)),
    ("demo", checks.trace_band_sum, lambda t: _shift(t, "w_zero", 5, 1e-9)),
    ("demo", lambda t: checks.trace_final_bands(t, DEMO_RATIO),
     lambda t: (_shift(t, "w_plus", -1, 0.06), _shift(t, "w_minus", -1, -0.06))),
    ("snapshot", checks.snapshot_five_peaks, _raise_quiet_cell),
    ("ion-reduced", checks.ion_populations_sum, lambda t: _shift(t, "pop_a", 3, 1e-9)),
    ("ion-reduced", checks.ion_fock_tail, lambda t: _shift(t, "fock_tail", -1, 2e-6)),
    ("ion-reduced", lambda t: checks.ion_final_bands(t, ION_RATIO),
     lambda t: (_shift(t, "w_plus", -1, 0.08), _shift(t, "w_zero", -1, -0.08))),
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_check_rejects_perturbed_copy(outputs, case):
    name, check, perturb = CASES[case]
    check(outputs[name])
    copy = outputs[name].copy()
    perturb(copy)
    with pytest.raises(checks.CheckError):
        check(copy)


def test_ion_pair_rejects_perturbed_copy(outputs):
    reduced, full = outputs["ion-reduced"], outputs["ion-full"]
    checks.ion_pair(reduced, full)
    copy = full.copy()
    _shift(copy, "x_mean", 10, 1e-9)
    with pytest.raises(checks.CheckError):
        checks.ion_pair(reduced, copy)


def test_read_table_rejects_wrong_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# command = evolve\nt,norm\n0.0,1.0\n")
    with pytest.raises(checks.CheckError):
        checks.read_table(path, checks.TRACE_COLUMNS)


def test_layer_metrics_self_time():
    spans = [
        ["cli.run", 0.0, 10.0, None, {}],
        ["wavepacket.evolve", 1.0, 4.0, 0, {}],
        ["wavepacket.step", 2.0, 2.5, 1, {}],
        ["wavepacket.step", 2.5, 3.5, 1, {}],
        ["wavepacket.band_populations", 3.5, 5.0, 0, {}],
        ["ion_emulator.evolve_ion", 5.0, 9.0, 0, {"hilbert_dim": 768, "records": 3}],
        ["ion_emulator.build_maxwell_hamiltonian", 5.0, 6.0, 5, {}],
        ["wavepacket.band_populations", 7.0, 8.0, 5, {}],
    ]
    got = tracing.combine([tracing.layer_metrics(spans)])
    assert got["cli.self_s"] == pytest.approx(10.0 - 4.0 - 4.0)
    assert got["wavepacket.evolve_s"] == pytest.approx(3.0)
    assert got["wavepacket.steps"] == 2
    assert got["wavepacket.step_us"] == pytest.approx(0.75e6)
    assert got["wavepacket.band_populations_calls"] == 2
    assert got["ion_emulator.propagate_s"] == pytest.approx(2.0)
    assert got["ion_emulator.readout_s"] == pytest.approx(1.0)
    assert got["ion_emulator.hilbert_dim"] == 768


def test_pool_thread_spans_belong_to_the_waiting_call():
    recorder = tracing.Recorder()
    leaf = recorder.wrap(math.sqrt)

    def outer():
        with ThreadPoolExecutor(max_workers=1) as pool:
            return list(pool.map(leaf, [1.0, 4.0]))

    assert recorder.wrap(outer)() == [1.0, 2.0]
    spans = recorder.spans()
    assert [s[3] for s in spans] == [None, 0, 0]
    assert all(s[1] <= s[2] for s in spans)
