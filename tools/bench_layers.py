"""In-process timings of maxwellsim's inner layers, appended to BENCH_layers.json.

    python3 tools/bench_layers.py --label NAME [--src DIR]

Each layer is called on a fixed input until about 50 ms have passed, nine
times over; the record keeps the median, the quartiles and the minimum of
the time per call, in microseconds.  Layers:

* ``trace_row``, ``step`` and ``band_weights`` of the README demo packet
  (``p0 = 10``, ``width = 2``, ``m = 0.85``, ``g = 1.5``, band ``+``) at
  N = 4096 and 2048;
* ``band_weights`` at the ion benchmark's record batches, 300 x 512 and
  50 x 256, on the projectors of the feasibility working point;
* the exact reference of the README demo at its reference step (the Magnus
  sweep along the characteristics that ``evolve`` measures its run
  against);
* the step predictor of the README demo (``predict_step_demo``): the chain
  of the corrected steps' rotors along the same characteristics at the
  reference step, and its distance from the reference;
* ``evolve`` of the README demo (N = 4096, ``t_final = 14``; 146 steps, 239
  before the default dt was predicted) and of the packet benchmark's
  ``(1, 0, 1) / sqrt(2)`` packet at N = 2048 (``t_final = 14``; 148 steps,
  180 before), each one whole run with its trace;
* one ``integrate_sweep`` call: spin 1, ``g = 1``, ``mtilde_c2 = 0.75``;
* one ion Hamiltonian application (the ladder kernel) on ``(3 n_ion2,
  n_fock)`` rows of (3, 256), (6, 256) and (3, 512);
* the ion momentum basis at ``n_fock`` 256 and 512, built afresh each call
  (through ``__wrapped__``, past its cache);
* ``evolve_ion`` on the ion benchmark's three runs (``p0 = 7``, band ``+``,
  ``t_final = 1``): reduced and full at ``n_fock`` 256 with 50 records,
  reduced at 512 with 300;
* one in-process ``crosscheck`` command (``cli.main``) at gap ratio 0.14:
  ``n_fock`` 128, ``p0 = 4``, ``t_final = 0.8`` and 1024 grid points.
  ``n_records`` is left out, so trees with and without that key run alike;
* start-up, one layer per command: the wall time of a fresh ``python -c``
  that imports ``maxwellsim.cli`` and the route modules that command's
  runner imports (:data:`ROUTES`), over 21 processes per command taken in
  turn.  As in a benchmark child, the package is a copy without bytecode
  caches and ``PYTHONDONTWRITEBYTECODE=1`` is set, so every process
  compiles the package afresh.  The ``startup_bare`` layer, a fresh
  ``python -c pass`` in the same environment, runs in the same turns: a
  command's layer minus ``startup_bare`` is the package's share of its
  start-up, within one record;
* interpreter exit, one layer per command: a fresh process of the same kind
  calls ``cli.main`` on a small config of that command (:data:`CONFIGS`)
  and stamps ``time.monotonic()`` once ``main`` returns; the layer is the
  time from that stamp to the moment the parent sees the process end, over
  21 processes per command taken in turn.

``--src`` times the package under another source tree (a scratch checkout of
an earlier commit, say), so two trees can be compared on one machine.  Each
record also stores its environment: Python, numpy and BLAS versions, core
count, load average and whether numba is importable.  BLAS runs on one
thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_layers.json"
REPEATS = 9
STARTS = 21
TWO_PI = 2.0 * math.pi
# The route modules each command's runner imports after maxwellsim.cli.
ROUTES = {
    "sweep-transmission": ("maxwellsim.landau_zener",),
    "lz-oracle": ("maxwellsim.sweep_integrator",),
    "evolve": ("maxwellsim.wavepacket",),
    "ion-evolve": ("maxwellsim.ion_emulator",),
    "crosscheck": ("maxwellsim.ion_emulator", "maxwellsim.sweep_integrator",
                   "maxwellsim.wavepacket"),
}
# A small config of each command: the exit layers run every one, the
# in-process crosscheck layer the last.
CONFIGS = {
    "sweep-transmission": "spin = 1\nm = 1.0\ng = 5.0\np0 = 1.0\ntheta_points = 21\n",
    "lz-oracle": "spin = 1/2\nmtilde_c2 = 0.6\ng = 1.0\n",
    "evolve": ("p0 = 10.0\nwidth = 2.0\nm = 0.85\ng = 1.5\nt_final = 1.0\n"
               "grid_points = 512\n"),
    "ion-evolve": ("eta = 0.05\nomega1_tilde = 62.8\nomega1 = 6.28\n"
                   "omega2_tilde = 314.0\np0 = 3.0\nt_final = 0.1\n"),
    "crosscheck": (f"eta = 0.05\nomega1_tilde = {TWO_PI * 10}\n"
                   f"omega1 = {TWO_PI * 0.5}\nomega2_tilde = {TWO_PI * 50}\n"
                   "n_fock = 128\np0 = 4.0\nt_final = 0.8\ngrid_points = 1024\n"),
}


def _summary_us(samples) -> dict:
    """Median, quartiles and minimum of samples in microseconds."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "min_us": min(samples)}


def _per_call_us(fn) -> dict:
    """Median, quartiles and minimum of the time per call, in microseconds."""
    fn()
    start, calls = time.perf_counter(), 0
    while time.perf_counter() - start < 0.05:
        fn()
        calls += 1
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return {**_summary_us(samples), "calls": calls, "repeats": REPEATS}


@contextlib.contextmanager
def _fresh_package(src: Path):
    """A scratch directory holding a bytecode-free copy of ``src``'s
    package, and the environment a process needs to import that copy
    without writing bytecode, as the benchmark's children do."""
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(src / "maxwellsim", Path(work) / "maxwellsim",
                        ignore=shutil.ignore_patterns("__pycache__"))
        yield Path(work), {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                           "PYTHONPATH": os.pathsep.join(
                               filter(None, [work, os.environ.get("PYTHONPATH")]))}


def startup_layers(src: Path) -> dict:
    """Wall time of a fresh interpreter that imports ``maxwellsim.cli`` and
    one command's route, per command, from a bytecode-free copy of ``src``,
    and of a bare one (``bare``) in the same environment and turns."""
    codes = {"bare": "pass"}
    for command, modules in ROUTES.items():
        codes[command] = "; ".join(f"import {name}"
                                   for name in ("maxwellsim.cli", *modules))
    samples = {name: [] for name in codes}
    with _fresh_package(src) as (_, env):
        for _ in range(STARTS):
            for name, code in codes.items():
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=env, check=True)
                samples[name].append((time.perf_counter() - start) * 1e6)
    return {f"startup_{name}": {**_summary_us(times), "processes": STARTS}
            for name, times in samples.items()}


def exit_layers(src: Path) -> dict:
    """Time from ``cli.main`` returning to the end of its process, per
    command, in fresh interpreters on a bytecode-free copy of ``src``."""
    samples = {command: [] for command in CONFIGS}
    with _fresh_package(src) as (work, env):
        for command, text in CONFIGS.items():
            (work / f"{command}.cfg").write_text(text)
        for _ in range(STARTS):
            for command in CONFIGS:
                argv = [command, "--config", str(work / f"{command}.cfg"),
                        "--output", str(work / f"{command}.csv")]
                code = ("import time\nfrom maxwellsim import cli\n"
                        f"code = cli.main({argv!r})\n"
                        "print(time.monotonic())\nraise SystemExit(code)\n")
                done = subprocess.run([sys.executable, "-c", code], env=env,
                                      check=True, capture_output=True, text=True)
                end = time.monotonic()
                samples[command].append((end - float(done.stdout)) * 1e6)
    return {f"exit_{command}": {**_summary_us(times), "processes": STARTS}
            for command, times in samples.items()}


def _ladder_apply(ion_emulator, h, rows, n_fock):
    """One Hamiltonian application through the ladder kernel."""
    import numpy as np

    rng = np.random.default_rng(7)
    v = rng.normal(size=(rows, n_fock)) + 1j * rng.normal(size=(rows, n_fock))
    out = np.empty_like(v)
    apply = ion_emulator._ladder_kernel(rows, n_fock)
    block = ion_emulator._ladder_block(h)
    return lambda: apply(block, v, out)


def layers() -> dict:
    import numpy as np

    from maxwellsim import ion_emulator, spin_algebra, sweep_integrator, wavepacket

    params = spin_algebra.PhysicalParams(m=0.85, g=1.5)
    out = {}
    for points in (4096, 2048):
        grid = wavepacket.Grid1D(80.0, points)
        fld = wavepacket.gaussian_packet(grid, 10.0, 2.0, 0.0, (1.0, 0.0, 0.0),
                                         params, project_band="+")
        dt = wavepacket.default_time_step(grid, params, 14.0)
        norm = fld.norm()
        _, packed = wavepacket._grid_projectors(grid, params, 3)
        psi_k = np.fft.fft(fld.amplitudes, axis=0)
        out[f"trace_row_N{points}"] = _per_call_us(
            lambda: wavepacket._trace_row(fld, params))
        out[f"step_N{points}"] = _per_call_us(
            lambda: wavepacket.step(fld, dt, params, norm))
        out[f"band_weights_N{points}"] = _per_call_us(
            lambda: spin_algebra.band_weights(psi_k, packed))

    def ion_point(n_fock, reduce_ion2):
        """The feasibility working point of the ion benchmark."""
        return ion_emulator.IonParams(
            eta=0.05, omega1_tilde=TWO_PI * 10.0, omega1=TWO_PI * 1.0,
            omega2_tilde=TWO_PI * 50.0, n_fock=n_fock, reduce_ion2=reduce_ion2)

    rng = np.random.default_rng(2001)
    for records, n_fock in ((300, 512), (50, 256)):
        packed = ion_emulator._momentum_basis(ion_point(n_fock, True))[-1]
        shape = (records, 3, n_fock)
        # the emulator's layout: spinor-major records, read through a transpose
        momentum = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        psi = momentum.transpose(0, 2, 1)
        out[f"band_weights_ion_{records}x{n_fock}"] = _per_call_us(
            lambda: spin_algebra.band_weights(psi, packed))

    grid = wavepacket.Grid1D(80.0, 4096)
    fld = wavepacket.gaussian_packet(grid, 10.0, 2.0, 0.0, (1.0, 0.0, 0.0),
                                     params, project_band="+")
    dt = wavepacket.default_time_step(grid, params, 14.0)
    n_steps = round(14.0 / dt)
    out["exact_reference_demo"] = _per_call_us(
        lambda: wavepacket._exact_evolution(
            fld, params, wavepacket._kept_spectrum(fld), dt, n_steps))
    kept = wavepacket._kept_spectrum(fld)
    reference, _ = wavepacket._exact_evolution(fld, params, kept, dt, n_steps)
    out["predict_step_demo"] = _per_call_us(
        lambda: wavepacket._predicted_error(fld, params, kept, reference, dt,
                                            n_steps))
    out["evolve_demo_N4096"] = _per_call_us(
        lambda: wavepacket.evolve(fld, 14.0, params))
    grid = wavepacket.Grid1D(80.0, 2048)
    superposition = wavepacket.gaussian_packet(
        grid, 10.0, 2.0, 0.0, (math.sqrt(0.5), 0.0, math.sqrt(0.5)), params)
    out["evolve_superposition_N2048"] = _per_call_us(
        lambda: wavepacket.evolve(superposition, 14.0, params))

    sweep_params = spin_algebra.PhysicalParams(g=1.0)
    out["integrate_sweep"] = _per_call_us(
        lambda: sweep_integrator.integrate_sweep(1, sweep_params, 0.75))

    for rows, n_fock in ((3, 256), (6, 256), (3, 512)):
        ion = ion_point(n_fock, rows == 3)
        out[f"ion_ladder_{rows}x{n_fock}"] = _per_call_us(_ladder_apply(
            ion_emulator, ion_emulator.build_maxwell_hamiltonian(ion), rows, n_fock))
    for n_fock in (256, 512):
        ion = ion_point(n_fock, True)
        out[f"ion_momentum_basis_{n_fock}"] = _per_call_us(
            lambda: ion_emulator._momentum_basis.__wrapped__(ion))
    for name, n_fock, reduce_ion2, records in (
            ("reduced", 256, True, 50), ("full", 256, False, 50),
            ("records", 512, True, 300)):
        ion = ion_point(n_fock, reduce_ion2)
        state = ion_emulator.coherent_initial_state(ion, 7.0, (1.0, 0.0, 0.0),
                                                    project_band="+")
        out[f"evolve_ion_{name}"] = _per_call_us(
            lambda: ion_emulator.evolve_ion(state, ion, 1.0, records))
    out["crosscheck"] = _crosscheck_call()
    return out


def _crosscheck_call() -> dict:
    """Time one ``crosscheck`` command in-process, writing to a scratch
    directory."""
    import tempfile

    from maxwellsim import cli

    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "cross.cfg"
        config.write_text(CONFIGS["crosscheck"])
        argv = ["crosscheck", "--config", str(config),
                "--output", str(Path(work) / "cross.csv")]

        def run():
            if cli.main(argv) != 0:
                raise RuntimeError("crosscheck failed")

        return _per_call_us(run)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "cores": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this record")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree holding the maxwellsim package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "maxwellsim" / "__init__.py").is_file():
        print(f"bench_layers: no maxwellsim package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    record = {"label": args.label, "environment": environment(),
              "layers": {**startup_layers(src), **exit_layers(src),
                         **layers()}}
    history = json.loads(OUT.read_text()) if OUT.exists() else []
    history.append(record)
    OUT.write_text(json.dumps(history, indent=1) + "\n")
    for name, timing in record["layers"].items():
        print(f"{name:34s} {timing['median_us']:12.1f} us  "
              f"[{timing['q1_us']:.1f}, {timing['q3_us']:.1f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
