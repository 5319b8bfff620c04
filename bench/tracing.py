"""Spans around calls into maxwellsim's public functions, and the per-layer
metrics derived from them.

The child process (:mod:`child`) wraps the functions in :data:`TRACED` in
place and records one span per call: ``[name, start, end, parent, attrs]``,
with ``parent`` the index of the enclosing span or ``None``.  The parent
process turns each invocation's spans into the per-layer metrics of
:data:`PER_LAYER` with :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

# (module, attribute) lookups wrapped in the traced run.  A name one module
# imports from another is wrapped where its caller looks it up, so
# ``band_populations`` appears under both wavepacket and ion_emulator.  The
# functions that feed no metric are wrapped so that ``cli.run``'s self time
# leaves out every library call the CLI makes.
TRACED = (
    ("maxwellsim.config", "parse_config"),
    ("maxwellsim.cli", "parse_config"),
    ("maxwellsim.cli", "run"),
    ("maxwellsim.landau_zener", "angle_sweep"),
    ("maxwellsim.sweep_integrator", "integrate_sweep"),
    ("maxwellsim.wavepacket", "gaussian_packet"),
    ("maxwellsim.wavepacket", "evolve"),
    ("maxwellsim.wavepacket", "step"),
    ("maxwellsim.wavepacket", "band_populations"),
    ("maxwellsim.wavepacket", "band_components"),
    ("maxwellsim.wavepacket", "density"),
    ("maxwellsim.ion_emulator", "coherent_initial_state"),
    ("maxwellsim.ion_emulator", "evolve_ion"),
    ("maxwellsim.ion_emulator", "build_maxwell_hamiltonian"),
    ("maxwellsim.ion_emulator", "position_wavefunction"),
    ("maxwellsim.ion_emulator", "band_populations"),
    ("maxwellsim.ion_emulator", "band_components"),
)
# The untraced runs wrap only this lookup, for the parse part of setup_s.
PARSE = (("maxwellsim.cli", "parse_config"),)

# Work counts taken from a call's bound arguments.
_COUNTS = {
    "landau_zener.angle_sweep":
        lambda a: {"angles": len(a["thetas"])},
    "ion_emulator.evolve_ion":
        lambda a: {"hilbert_dim": a["ion"].dim, "records": a["n_records"]},
}

#: Per-layer metric -> unit, in the order they are printed.
PER_LAYER = {
    "config.parse_s": "s",
    "cli.self_s": "s",
    "landau_zener.angle_sweep_s": "s",
    "landau_zener.angles": "count",
    "sweep_integrator.integrate_s": "s",
    "sweep_integrator.calls": "count",
    "wavepacket.evolve_s": "s",
    "wavepacket.steps": "count",
    "wavepacket.step_us": "us",
    "wavepacket.band_populations_s": "s",
    "wavepacket.band_populations_calls": "count",
    "ion_emulator.prepare_s": "s",
    "ion_emulator.assemble_s": "s",
    "ion_emulator.propagate_s": "s",
    "ion_emulator.readout_s": "s",
    "ion_emulator.hilbert_dim": "count",
    "ion_emulator.records": "count",
}


# Time inside wavepacket.step, carried from layer_metrics to combine.
_STEP_S = "wavepacket.step_s"


class Recorder:
    """Spans of one process, kept in memory until :meth:`spans` is read."""

    def __init__(self):
        self._spans = []
        self._main_stack = []
        self._local = threading.local()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        counts = _COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread's first span belongs to the call that is blocked
            # in the main thread waiting for it.
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            attrs = {}
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = counts(bound.arguments)
            span = [name, time.perf_counter(), None, parent, attrs]
            self._spans.append(span)
            stack.append(len(self._spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, lookups):
        """Replace each ``module.attribute`` with a traced version; a function
        reachable under several names gets one wrapper, hence one span per call."""
        wrappers = {}
        for module_name, attribute in lookups:
            module = importlib.import_module(module_name)
            fn = getattr(module, attribute)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn)
            setattr(module, attribute, wrappers[id(fn)])

    def spans(self) -> list:
        return self._spans


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one invocation; see the README for definitions."""
    out = dict.fromkeys(list(PER_LAYER) + [_STEP_S], 0.0)
    children = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)

    def self_time(i):
        start, end = spans[i][1], spans[i][2]
        return end - start - _covered(
            (spans[c][1], spans[c][2]) for c in children.get(i, ()))

    for i, (name, start, end, parent, attrs) in enumerate(spans):
        took = end - start
        under_evolve_ion = parent is not None and spans[parent][0] == "ion_emulator.evolve_ion"
        if name == "config.parse_config":
            out["config.parse_s"] += took
        elif name == "cli.run":
            out["cli.self_s"] += self_time(i)
        elif name == "landau_zener.angle_sweep":
            out["landau_zener.angle_sweep_s"] += took
            out["landau_zener.angles"] += attrs["angles"]
        elif name == "sweep_integrator.integrate_sweep":
            out["sweep_integrator.integrate_s"] += took
            out["sweep_integrator.calls"] += 1
        elif name == "wavepacket.evolve":
            out["wavepacket.evolve_s"] += took
        elif name == "wavepacket.step":
            out["wavepacket.steps"] += 1
            out[_STEP_S] += took
        elif name == "wavepacket.band_populations":
            out["wavepacket.band_populations_s"] += took
            out["wavepacket.band_populations_calls"] += 1
        elif name == "ion_emulator.coherent_initial_state":
            out["ion_emulator.prepare_s"] += took
        elif name == "ion_emulator.build_maxwell_hamiltonian":
            out["ion_emulator.assemble_s"] += took
        elif name == "ion_emulator.evolve_ion":
            out["ion_emulator.propagate_s"] += self_time(i)
            out["ion_emulator.hilbert_dim"] = max(
                out["ion_emulator.hilbert_dim"], attrs["hilbert_dim"])
            out["ion_emulator.records"] += attrs["records"]
        if under_evolve_ion and name in ("ion_emulator.position_wavefunction",
                                         "wavepacket.band_populations"):
            out["ion_emulator.readout_s"] += took
    return out


def combine(per_invocation) -> dict:
    """Per-layer metrics of a round: sums over its invocations, except the
    largest Hilbert dimension and the mean time per step."""
    total = dict.fromkeys(list(PER_LAYER) + [_STEP_S], 0.0)
    for metrics in per_invocation:
        for key, value in metrics.items():
            if key == "ion_emulator.hilbert_dim":
                total[key] = max(total[key], value)
            else:
                total[key] += value
    steps = total["wavepacket.steps"]
    step_s = total.pop(_STEP_S)
    total["wavepacket.step_us"] = 1e6 * step_s / steps if steps else 0.0
    return total
