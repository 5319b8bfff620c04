"""Benchmark of the maxwellsim CLI on three workloads.

    python3 bench/run.py --workload {oracle,packet,ion} --seed N --seconds S --trace {0,1}

Run from the repository root.  The benchmark writes seeded configuration
files, then runs rounds of CLI invocations one at a time (a closed loop with
one client) until S seconds have passed, at least one round.  Each
invocation is a fresh ``python3 bench/child.py`` process that calls
``maxwellsim.cli.main``; its outputs are checked against numbers computed
in :mod:`checks`.  One operation is one invocation plus its checks.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of :mod:`tracing`.  Each
metric is the median over the run's rounds.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One BLAS / OpenMP thread in every child process, on both sides of any
# comparison: dense eigh would otherwise start one thread per core.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
# Children compile maxwellsim on every start (about 10-30 ms of setup_s), so
# the first run in a fresh checkout costs the same as the others.
CHILD_ENV = {**THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}

import checks  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# No round starts once this much of the 180 s a run may take has passed.
RUN_LIMIT_S = 170.0

TWO_PI = 2.0 * math.pi
# Feasibility working point of the two-ion proposal (rad/ms, ms).
ION_POINT = {"eta": 0.05, "omega1_tilde": TWO_PI * 10.0, "omega1": TWO_PI * 1.0,
             "omega2_tilde": TWO_PI * 50.0}
# README demonstration packet.
DEMO = {"p0": 10.0, "width": 2.0, "m": 0.85, "g": 1.5}


@dataclass
class Op:
    """One CLI invocation: ``command`` on ``values``, then ``check(workdir)``."""

    name: str
    command: str
    values: dict
    check: Callable[[Path], None]


def _read(workdir: Path, name: str, columns) -> checks.Table:
    return checks.read_table(workdir / f"{name}.csv", columns)


def oracle_ops(rng: random.Random) -> list[Op]:
    """Closed-form angle sweeps, then one swept-level oracle call per spin.

    Oracle ratios stay in [0.05, 1]: above r = 1 the sweep window grows with
    the gap, so the step count, and the run time, would follow the seed.
    """
    ops = []
    for spin, tag in (("1", "1"), ("1/2", "half")):
        ratio, g, p0 = rng.uniform(0.05, 3.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        m = math.sqrt(ratio * g)

        def check(w, name=f"sweep-{tag}", spin=spin, m=m, g=g, p0=p0):
            table = _read(w, name, checks.SWEEP_COLUMNS)
            checks.sweep_closed_forms(table, spin, m, g, p0)
            checks.sweep_rows_sum(table)
            checks.sweep_symmetric(table)
            checks.sweep_monotone(table)

        ops.append(Op(f"sweep-{tag}", "sweep-transmission",
                      {"spin": spin, "m": m, "g": g, "p0": p0}, check))
    for spin, tag in (("1", "1"), ("1/2", "half")):
        ratio, g = rng.uniform(0.05, 1.0), rng.uniform(0.5, 2.0)

        def check(w, name=f"oracle-{tag}", spin=spin, ratio=ratio):
            table = _read(w, name, checks.ORACLE_COLUMNS)
            checks.oracle_closed_forms(table, spin, ratio)
            if spin == "1":
                checks.oracle_majorana(table)
            checks.oracle_rows_sum(table)
            checks.oracle_analytic_columns(table, spin, ratio)

        ops.append(Op(f"oracle-{tag}", "lz-oracle",
                      {"spin": spin, "mtilde_c2": math.sqrt(ratio * g), "g": g}, check))
    return ops


def packet_ops(rng: random.Random) -> list[Op]:
    """The README demo, and a (1, 0, 1)/sqrt(2) packet with a snapshot.

    The seed moves the packet centres; the potential is linear, so a shift
    changes the answer only by a translation and leaves the step count alone.
    """
    def check_demo(w):
        table = _read(w, "demo", checks.TRACE_COLUMNS)
        checks.trace_norm(table)
        checks.trace_band_sum(table)
        checks.trace_final_bands(table, DEMO["m"] ** 2 / DEMO["g"])

    def check_superposition(w):
        table = _read(w, "superposition", checks.TRACE_COLUMNS)
        checks.trace_norm(table)
        checks.trace_band_sum(table)
        checks.snapshot_five_peaks(
            _read(w, "superposition-snapshot", checks.SNAPSHOT_COLUMNS))

    return [
        Op("demo", "evolve",
           {**DEMO, "center": rng.uniform(-2.0, 2.0), "project_band": "+"}, check_demo),
        Op("superposition", "evolve",
           {**DEMO, "center": rng.uniform(-2.0, 2.0),
            "spinor": (math.sqrt(0.5), 0.0, math.sqrt(0.5)), "grid_points": 2048,
            "snapshot_path": "superposition-snapshot.csv"},
           check_superposition),
    ]


def ion_ops(rng: random.Random) -> list[Op]:
    """Reduced and full two-ion runs at n_fock 256, then a reduced run at
    n_fock 512 with many records.  The seed sets the packet momentum."""
    ratio = checks.ion_ratio(**ION_POINT)
    base = {**ION_POINT, "p0": rng.uniform(6.5, 7.5), "project_band": "+",
            "t_final": 1.0}
    runs = (("ion-reduced", 256, True, 50), ("ion-full", 256, False, 50),
            ("ion-records", 512, True, 300))
    ops = []
    for name, n_fock, reduced, records in runs:
        def check(w, name=name):
            table = _read(w, name, checks.ION_COLUMNS)
            checks.ion_populations_sum(table)
            checks.ion_fock_tail(table)
            checks.ion_final_bands(table, ratio)
            if name == "ion-full":
                checks.ion_pair(_read(w, "ion-reduced", checks.ION_COLUMNS), table)

        ops.append(Op(name, "ion-evolve", {**base, "n_fock": n_fock,
                                           "reduce_ion2": reduced,
                                           "n_records": records}, check))
    return ops


WORKLOADS = {"oracle": oracle_ops, "packet": packet_ops, "ion": ion_ops}


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_format(v) for v in value)
    if isinstance(value, str):
        return value
    return repr(value)


def write_config(path: Path, op: Op, workdir: Path):
    values = dict(op.values)
    if "snapshot_path" in values:
        values["snapshot_path"] = str(workdir / values["snapshot_path"])
    lines = [f"command = {op.command}"]
    lines += [f"{key} = {_format(value)}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")


@dataclass
class Invocation:
    exit_code: int
    wall: float
    setup: float
    cpu: float
    rss_mb: float
    spans: list


def invoke(op: Op, workdir: Path, trace: bool, timeout: float, env: dict) -> Invocation:
    """Run one child process and measure it from just before its start to its exit."""
    config = workdir / f"{op.name}.cfg"
    report = workdir / f"{op.name}.report.json"
    write_config(config, op, workdir)
    for stale in workdir.glob(f"{op.name}*.csv"):
        stale.unlink()
    report.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(report), "1" if trace else "0",
            op.command, "--config", str(config), "--output", str(workdir / f"{op.name}.csv")]
    with open(workdir / f"{op.name}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env)
        watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans, setup = [], math.nan
    if proc.returncode == 0 and report.exists():
        data = json.loads(report.read_text())
        expected = ROOT / "src" / "maxwellsim" / "cli.py"
        if Path(data["package"]).resolve() != expected.resolve():
            raise SystemExit(f"bench: child imported {data['package']}, not {expected}")
        spans = data["spans"]
        parse = sum(s[2] - s[1] for s in spans if s[0] == "config.parse_config")
        setup = data["imported"] - start + parse
    return Invocation(proc.returncode, end - start, setup,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, spans)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = WORKLOADS[workload](random.Random(seed))
    workdir = BENCH / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = {**os.environ, **CHILD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}

    began = time.monotonic()
    rounds, attempted, failed, correct = [], 0, 0, True
    while True:
        round_start = time.monotonic()
        done = []
        for op in ops:
            attempted += 1
            result = invoke(op, workdir, trace, RUN_LIMIT_S - (time.monotonic() - began), env)
            if result.exit_code != 0 or math.isnan(result.setup):
                failed += 1
                log = (workdir / f"{op.name}.log").read_text()[-2000:]
                print(f"bench: {op.name} exited {result.exit_code}\n{log}", file=sys.stderr)
                continue
            try:
                op.check(workdir)
            except (checks.CheckError, OSError) as exc:
                correct = False
                print(f"bench: {op.name}: check failed: {exc}", file=sys.stderr)
            done.append(result)
        rounds.append(done)
        elapsed = time.monotonic() - began
        round_took = time.monotonic() - round_start
        if elapsed >= seconds or elapsed + round_took > RUN_LIMIT_S:
            break

    if trace:
        per_round = [tracing.combine(tracing.layer_metrics(r.spans) for r in done)
                     for done in rounds]
        units = tracing.PER_LAYER
        wall = statistics.median(sum(r.wall for r in done) for done in rounds)
        print(f"# traced wall_s per round: {wall!r}")
    else:
        per_round = [{"wall_s": sum(r.wall for r in done),
                      "setup_s": sum(r.setup for r in done),
                      "cpu_s": sum(r.cpu for r in done),
                      "peak_rss_mb": max((r.rss_mb for r in done), default=0.0)}
                     for done in rounds]
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = statistics.median(r[name] for r in per_round)
        metrics[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maxwellsim" / "cli.py").is_file():
        print(f"bench: no maxwellsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
