"""Command-line front end: run orchestration and deterministic CSV emission.

``maxwellsim <command> --config <path> [--output <path>]``

Commands
--------
sweep-transmission   angle sweep of the closed-form transition probabilities
lz-oracle            swept-level integration vs the closed forms, one setup
evolve               spectral wave-packet run (trace CSV, optional snapshot)
ion-evolve           trapped-ion emulator trajectory
crosscheck           four-way band-population comparison for one setup

Every CSV starts with a ``#``-commented echo of the fully resolved
configuration followed by an exact header line.  Floats are written with
shortest round-trip formatting and no timestamps appear anywhere, so a rerun
of the same configuration is byte-identical.

Exit codes: 0 success, 2 configuration error (including a parameter value a
library validator rejects), 3 numerical-guard violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import ion_emulator, landau_zener, sweep_integrator, wavepacket
from .config import COMMANDS, RunConfig, parse_config
from .errors import ConfigError, MaxwellSimError, NumericalGuardError
from .spin_algebra import PhysicalParams, pauli_algebra, spin1_matrices

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4

SNAPSHOT_COLUMNS = (
    "x",
    "re_comp1", "im_comp1", "re_comp2", "im_comp2", "re_comp3", "im_comp3",
    "abs2_plus_band", "abs2_zero_band", "abs2_minus_band", "abs2_total",
)
ORACLE_COLUMNS = (
    "ratio", "gamma_pp", "gamma_p0", "gamma_pm", "transmission",
    "analytic_gamma_pp", "analytic_gamma_p0", "analytic_gamma_pm",
    "analytic_transmission",
)
CROSSCHECK_COLUMNS = ("method", "w_plus", "w_zero", "w_minus", "transmission")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip representation
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _write_csv(path: str, columns, rows, config: RunConfig):
    lines = [f"# command = {config.command}"]
    for key in sorted(config.values):
        lines.append(f"# {key} = {_format_value(config.values[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _physical(values) -> PhysicalParams:
    return PhysicalParams(c=values["c"], m=values["m"], g=values["g"],
                          hbar=values["hbar"])


def _run_sweep_transmission(config: RunConfig) -> list[str]:
    v = config.values
    params = _physical(v)
    spin = 1.0 if v["spin"] == "1" else 0.5
    thetas = np.linspace(v["theta_min"], v["theta_max"], v["theta_points"])
    rows = landau_zener.angle_sweep(params, spin, v["p0"], thetas)
    _write_csv(config.output_path, landau_zener.SWEEP_COLUMNS,
               [tuple(float(x) for x in row) for row in rows], config)
    return [config.output_path]


def _run_lz_oracle(config: RunConfig) -> list[str]:
    v = config.values
    params = PhysicalParams(c=v["c"], m=0.0, g=v["g"], hbar=v["hbar"])
    algebra = spin1_matrices() if v["spin"] == "1" else pauli_algebra()
    problem = sweep_integrator.sweep_problem(
        algebra, params, v["mtilde_c2"],
        endpoint_factor=v["endpoint_factor"], initial_band=v["initial_band"],
    )
    dt = v["dt"] if v["dt"] > 0 else None
    oracle = sweep_integrator.integrate_sweep(problem, dt)
    formula = landau_zener.lz_spin1 if v["spin"] == "1" else landau_zener.lz_spin_half
    analytic = formula(params, v["mtilde_c2"])
    ratio = v["mtilde_c2"] ** 2 / (v["hbar"] * v["c"] * v["g"])
    row = (ratio, oracle.gamma_pp, oracle.gamma_p0, oracle.gamma_pm,
           oracle.transmission, analytic.gamma_pp, analytic.gamma_p0,
           analytic.gamma_pm, analytic.transmission)
    _write_csv(config.output_path, ORACLE_COLUMNS, [row], config)
    return [config.output_path]


def _run_evolve(config: RunConfig) -> list[str]:
    v = config.values
    params = _physical(v)
    length = v["grid_length"] if v["grid_length"] > 0 else 40.0 * v["width"]
    grid = wavepacket.Grid1D(length, v["grid_points"])
    band = None if v["project_band"] == "none" else v["project_band"]
    fld = wavepacket.gaussian_packet(
        grid, v["p0"], v["width"], v["center"], v["spinor"], params,
        project_band=band,
    )
    dt = v["dt"] if v["dt"] > 0 else None
    stride = v["record_stride"] if v["record_stride"] > 0 else None
    t_final = v["t_final"] if v["t_final"] > 0 else 7.0 * v["width"]
    result = wavepacket.evolve(fld, t_final, params, dt=dt,
                               record_stride=stride)
    _write_csv(config.output_path, wavepacket.TRACE_COLUMNS,
               [tuple(row) for row in result.trace], config)
    written = [config.output_path]
    if v["snapshot_path"]:
        _write_snapshot(v["snapshot_path"], result.final, params, config)
        written.append(v["snapshot_path"])
    return written


def _write_snapshot(path: str, fld: wavepacket.SpinorField,
                    params: PhysicalParams, config: RunConfig):
    if fld.dimension != 3:
        raise ConfigError("snapshot output is defined for three-component fields")
    comps = wavepacket.band_components(fld, params)
    band_dens = [np.sum(np.abs(c) ** 2, axis=1) for c in comps]
    amp = fld.amplitudes
    parts = np.stack([amp.real, amp.imag], axis=2).reshape(len(amp), 6)
    rows = np.column_stack([fld.grid.x, parts, *band_dens, wavepacket.density(fld)])
    _write_csv(path, SNAPSHOT_COLUMNS, rows, config)


def _ion_params(values) -> ion_emulator.IonParams:
    return ion_emulator.IonParams(
        eta=values["eta"],
        omega1_tilde=values["omega1_tilde"],
        omega1=values["omega1"],
        omega2_tilde=values["omega2_tilde"],
        delta_spread=values["delta"],
        n_fock=values["n_fock"],
        reduce_ion2=values["reduce_ion2"],
    )


def _run_ion_evolve(config: RunConfig) -> list[str]:
    v = config.values
    ion = _ion_params(v)
    band = None if v["project_band"] == "none" else v["project_band"]
    state = ion_emulator.coherent_initial_state(ion, v["p0"], v["spinor"],
                                                project_band=band)
    trajectory = ion_emulator.evolve_ion(state, ion, v["t_final"], v["n_records"])
    _write_csv(config.output_path, ion_emulator.ION_TRACE_COLUMNS,
               [tuple(row) for row in trajectory.trace], config)
    written = [config.output_path]
    if v["snapshot_path"]:
        # position-space readout of the final state, same format as evolve
        mapped = ion_emulator.map_parameters(ion)
        fld = ion_emulator.position_wavefunction(
            trajectory.final, ion_emulator.default_readout_grid(ion))
        _write_snapshot(v["snapshot_path"], fld, mapped.physical, config)
        written.append(v["snapshot_path"])
    return written


def _run_crosscheck(config: RunConfig) -> list[str]:
    """Band populations for one setup from all four routes.

    The analytic and swept-level rows are asymptotic (t -> infinity)
    probabilities; the wave-packet and ion rows are read off at ``t_final``,
    which should be chosen late enough that the band weights are stationary.
    """
    v = config.values
    ion = _ion_params(v)
    mapped = ion_emulator.map_parameters(ion)
    params = mapped.physical
    width = ion.packet_width
    p0 = v["p0"] if v["p0"] > 0 else 10.0 / width

    analytic = landau_zener.lz_spin1(params, params.rest_energy)
    rows = [("analytic", analytic.gamma_pp, analytic.gamma_p0,
             analytic.gamma_pm, analytic.transmission)]

    problem = sweep_integrator.sweep_problem(spin1_matrices(), params,
                                             params.rest_energy)
    oracle = sweep_integrator.integrate_sweep(problem)
    rows.append(("sweep-integrator", oracle.gamma_pp, oracle.gamma_p0,
                 oracle.gamma_pm, oracle.transmission))

    grid = wavepacket.Grid1D(40.0 * width, v["grid_points"])
    fld = wavepacket.gaussian_packet(grid, p0, width, 0.0, (1.0, 0.0, 0.0),
                                     params, project_band="+")
    result = wavepacket.evolve(fld, v["t_final"], params)
    if not _band_weights_stationary(result.trace):
        raise NumericalGuardError(
            "wave-packet band weights not stationary over the last 10% of the "
            "run; increase t_final before comparing"
        )
    pops = wavepacket.band_populations(result.final, params)
    rows.append(("wavepacket", pops.w_plus, pops.w_zero, pops.w_minus,
                 pops.w_zero + pops.w_minus))

    state = ion_emulator.coherent_initial_state(ion, p0, (1.0, 0.0, 0.0),
                                                project_band="+")
    trajectory = ion_emulator.evolve_ion(state, ion, v["t_final"], v["n_records"])
    w_plus, w_zero, w_minus = trajectory.trace[-1, 5:8]
    rows.append(("ion", float(w_plus), float(w_zero), float(w_minus),
                 float(w_zero + w_minus)))

    _write_csv(config.output_path, CROSSCHECK_COLUMNS, rows, config)
    return [config.output_path]


def _band_weights_stationary(trace: np.ndarray, tol: float = 0.01) -> bool:
    """True when each band weight moves < tol over the last 10% of the trace.

    Finite-time band weights carry a first-order nonadiabatic ripple that
    decays only as the sweep leaves the crossing, so the comparison guard
    uses a percent-level tolerance; fully separated late-time states settle
    far below it.
    """
    tail = max(2, int(math.ceil(0.1 * trace.shape[0])))
    window = trace[-tail:, 3:6]
    return bool(np.max(window.max(axis=0) - window.min(axis=0)) < tol)


_RUNNERS = {
    "sweep-transmission": _run_sweep_transmission,
    "lz-oracle": _run_lz_oracle,
    "evolve": _run_evolve,
    "ion-evolve": _run_ion_evolve,
    "crosscheck": _run_crosscheck,
}


def run(config: RunConfig) -> list[str]:
    """Execute a validated configuration; returns the paths written."""
    if config.output_path is None:
        raise ConfigError("no output path given (use --output or an output key)")
    return _RUNNERS[config.command](config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxwellsim",
        description="Klein-tunneling simulator for pseudospin-1 Maxwell particles",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--output", help="output CSV path")
    args = parser.parse_args(argv)

    try:
        text = open(args.config).read()
    except OSError as exc:
        print(f"error[io]: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        config = parse_config(text, args.command)
        if args.output is not None:
            config.output_path = args.output
        run(config)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalGuardError as exc:
        print(f"error[guard]: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_IO
    except MaxwellSimError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
