"""Command-line front end: run orchestration and deterministic CSV emission.

``maxwellsim <command> --config <path> [--output <path>]``

Commands
--------
sweep-transmission   angle sweep of the closed-form transition probabilities
lz-oracle            swept-level integration vs the closed forms, one setup
evolve               spectral wave-packet run (trace CSV, optional snapshot)
ion-evolve           trapped-ion emulator trajectory
crosscheck           band populations of one setup from every route

Every CSV starts with a ``#``-commented echo of the fully resolved
configuration followed by an exact header line.  Floats are written with
shortest round-trip formatting and no timestamps appear anywhere, so a rerun
of the same configuration is byte-identical.

Exit codes: 0 success, 2 configuration error (including a parameter value a
library validator rejects, one that drives a float operation out of range,
or a run too large for memory), 3 numerical-guard violation, 4 I/O error.

Each runner imports the route modules it uses, so a command loads only its
own route: ``sweep-transmission`` and ``lz-oracle`` run on :mod:`math` and
never import numpy.

:func:`main` runs with automatic garbage collection off and restores the
caller's setting when it returns, so the route imports it makes trigger no
collection.  It also registers :func:`gc.freeze` with :mod:`atexit`, once
per process: exit hooks run before the interpreter's shutdown collections,
so those skip every object still alive at exit (numpy's import-time objects
above all).  A caller that imports the package and calls :func:`main`
in-process keeps normal collection for as long as its process lives.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import numbers
import sys
from typing import TYPE_CHECKING

from . import landau_zener
from .config import COMMANDS, RunConfig, parse_config
from .errors import ConfigError, MaxwellSimError, NumericalGuardError
from .landau_zener import PhysicalParams

if TYPE_CHECKING:
    from . import ion_emulator, wavepacket

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
#: The ``spin`` key's values as the spins of ``landau_zener.spin_model``.
_SPIN_VALUES = {"1": 1, "1/2": 0.5}


def _format_value(value) -> str:
    if type(value) is float:  # the bulk of every CSV: ``tolist()`` rows
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    # numpy registers its integer and floating scalars with these ABCs;
    # floats, numpy's float64 among them, take the cheaper check first
    if isinstance(value, float) or (isinstance(value, numbers.Real)
                                    and not isinstance(value, numbers.Integral)):
        return repr(float(value))  # shortest round-trip representation
    if isinstance(value, numbers.Integral):
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


def _angle_grid(lo: float, hi: float, n: int) -> list[float]:
    """``n`` angles from ``lo`` to ``hi`` with the arithmetic of
    ``numpy.linspace``, so the grid is the same bit for bit."""
    delta = hi - lo
    if n == 1:
        return [0.0 * delta + lo]
    step = delta / (n - 1)
    if step == 0:  # a subnormal step: scale by delta instead
        grid = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


def _run_sweep_transmission(config: RunConfig) -> list[str]:
    v = config.values
    params = _physical(v)
    thetas = _angle_grid(v["theta_min"], v["theta_max"], v["theta_points"])
    rows = landau_zener.angle_sweep(params, _SPIN_VALUES[v["spin"]], v["p0"], thetas)
    _write_csv(config.output_path, landau_zener.SWEEP_COLUMNS, rows, config)
    return [config.output_path]


def _run_lz_oracle(config: RunConfig) -> list[str]:
    from . import sweep_integrator

    v = config.values
    params = PhysicalParams(c=v["c"], m=0.0, g=v["g"], hbar=v["hbar"])
    spin = _SPIN_VALUES[v["spin"]]
    oracle = sweep_integrator.integrate_sweep(
        spin, params, v["mtilde_c2"], initial_band=v["initial_band"],
        endpoint_factor=v["endpoint_factor"], dt=v["dt"] if v["dt"] > 0 else None,
    )
    formula = landau_zener.lz_spin1 if spin == 1 else landau_zener.lz_spin_half
    analytic = formula(params, v["mtilde_c2"])
    ratio = landau_zener.gap_ratio(params, v["mtilde_c2"])
    row = (ratio, oracle.gamma_pp, oracle.gamma_p0, oracle.gamma_pm,
           oracle.transmission, analytic.gamma_pp, analytic.gamma_p0,
           analytic.gamma_pm, analytic.transmission)
    _write_csv(config.output_path, ORACLE_COLUMNS, [row], config)
    return [config.output_path]


def _run_evolve(config: RunConfig) -> list[str]:
    from . import wavepacket

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
               result.trace.tolist(), config)
    written = [config.output_path]
    if v["snapshot_path"]:
        _write_snapshot(v["snapshot_path"], result.final, params, config)
        written.append(v["snapshot_path"])
    return written


def _write_snapshot(path: str, fld: wavepacket.SpinorField,
                    params: PhysicalParams, config: RunConfig):
    import numpy as np

    from . import wavepacket

    if fld.dimension != 3:
        raise ConfigError("snapshot output is defined for three-component fields")
    comps = wavepacket.band_components(fld, params)
    band_dens = [np.sum(np.abs(c) ** 2, axis=1) for c in comps]
    amp = fld.amplitudes
    parts = np.stack([amp.real, amp.imag], axis=2).reshape(len(amp), 6)
    rows = np.column_stack([fld.grid.x, parts, *band_dens, wavepacket.density(fld)])
    _write_csv(path, SNAPSHOT_COLUMNS, rows.tolist(), config)


def _ion_params(values) -> ion_emulator.IonParams:
    from . import ion_emulator

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
    from . import ion_emulator

    v = config.values
    ion = _ion_params(v)
    band = None if v["project_band"] == "none" else v["project_band"]
    state = ion_emulator.coherent_initial_state(ion, v["p0"], v["spinor"],
                                                project_band=band)
    trajectory = ion_emulator.evolve_ion(state, ion, v["t_final"], v["n_records"])
    _write_csv(config.output_path, ion_emulator.ION_TRACE_COLUMNS,
               trajectory.trace.tolist(), config)
    written = [config.output_path]
    if v["snapshot_path"]:
        # position-space readout of the final state, same format as evolve
        fld = ion_emulator.position_wavefunction(
            trajectory.final, ion_emulator.default_readout_grid(ion))
        _write_snapshot(v["snapshot_path"], fld, ion_emulator.map_parameters(ion),
                        config)
        written.append(v["snapshot_path"])
    return written


def _run_crosscheck(config: RunConfig) -> list[str]:
    """Band populations for one setup from every route.

    The analytic and swept-level rows are asymptotic (t -> infinity)
    probabilities; the packet, its exact evolution along the characteristics
    (``EvolveResult.reference``) and the ion rows are read off at
    ``t_final``.  A packet more than its ``split_error_limit`` from the
    reference in L2 raises :class:`NumericalGuardError`; the ion row is
    reported, not checked.
    """
    from . import ion_emulator, sweep_integrator, wavepacket

    v = config.values
    ion = _ion_params(v)
    params = ion_emulator.map_parameters(ion)
    width = ion.packet_width
    p0 = v["p0"] if v["p0"] > 0 else 10.0 / width

    analytic = landau_zener.lz_spin1(params, params.rest_energy)
    rows = [("analytic", analytic.gamma_pp, analytic.gamma_p0,
             analytic.gamma_pm, analytic.transmission)]

    oracle = sweep_integrator.integrate_sweep(1, params, params.rest_energy)
    rows.append(("sweep-integrator", oracle.gamma_pp, oracle.gamma_p0,
                 oracle.gamma_pm, oracle.transmission))

    grid = wavepacket.Grid1D(40.0 * width, v["grid_points"])
    fld = wavepacket.gaussian_packet(grid, p0, width, 0.0, (1.0, 0.0, 0.0),
                                     params, project_band="+")
    result = wavepacket.evolve(fld, v["t_final"], params)
    gap = result.final.amplitudes - result.reference.amplitudes
    distance = math.sqrt(wavepacket.SpinorField(grid, gap).norm())
    if distance > result.split_error_limit:
        raise NumericalGuardError(
            f"wave packet lies {distance:.3e} (L2) from the exact evolution "
            f"along the characteristics, above {result.split_error_limit:.0e}")
    _, _, _, w_plus, w_zero, w_minus = result.trace[-1].tolist()
    rows.append(("wavepacket", w_plus, w_zero, w_minus, w_zero + w_minus))
    pops = wavepacket.band_populations(result.reference, params)
    rows.append(("characteristics", pops.w_plus, pops.w_zero, pops.w_minus,
                 pops.w_zero + pops.w_minus))

    state = ion_emulator.coherent_initial_state(ion, p0, (1.0, 0.0, 0.0),
                                                project_band="+")
    # only the final record is read
    trajectory = ion_emulator.evolve_ion(state, ion, v["t_final"], 2)
    w_plus, w_zero, w_minus = trajectory.trace[-1, 5:8].tolist()
    rows.append(("ion", w_plus, w_zero, w_minus, w_zero + w_minus))

    _write_csv(config.output_path, CROSSCHECK_COLUMNS, rows, config)
    return [config.output_path]


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
    # re-registering keeps one hook however often main runs in a process
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="maxwellsim",
        description="Klein-tunneling simulator for pseudospin-1 Maxwell particles",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--output", help="output CSV path")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as handle:
            text = handle.read()
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
    except ArithmeticError as exc:
        print(f"error[config]: {exc!r}: a derived quantity is out of "
              "floating-point range", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a backstop: every route caps its sizes before allocating
        print(f"error[config]: {exc!r}: the run does not fit in memory",
              file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
