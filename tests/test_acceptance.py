"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines.
"""

import math

import numpy as np
import pytest
from scipy.signal import find_peaks

from maxwellsim import (
    Grid1D,
    IonParams,
    PhysicalParams,
    band_components,
    band_populations,
    coherent_initial_state,
    default_time_step,
    density,
    evolve,
    evolve_ion,
    gaussian_packet,
    lz_spin1,
    map_parameters,
    step,
    integrate_sweep,
    angle_sweep,
)
from maxwellsim.landau_zener import gap_ratio, spin_model
from maxwellsim.spin_algebra import field_projectors

TWO_PI = 2.0 * math.pi

# working point quoted for the two-ion proposal (angular kHz / ms units)
ION_SETUP = dict(eta=0.05, omega1_tilde=TWO_PI * 10.0, omega1=TWO_PI * 1.0,
                 omega2_tilde=TWO_PI * 50.0)

# scattering demo parameters (natural units)
SCATTER = PhysicalParams(c=1.0, m=0.85, g=1.5)
PACKET_P0 = 10.0
PACKET_WIDTH = 2.0


def report(criterion: int, name: str, ok: bool, details: str):
    print(f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"criterion {criterion} ({name}): {details}"


@pytest.fixture(scope="module")
def fig_grid():
    return Grid1D(80.0, 4096)


@pytest.fixture(scope="module")
def scattering_final(fig_grid):
    fld = gaussian_packet(fig_grid, PACKET_P0, PACKET_WIDTH, 0.0, (1, 0, 0),
                          SCATTER, project_band="+")
    return evolve(fld, 7.0 * PACKET_WIDTH, SCATTER).final


def test_criterion_1_feasibility_numbers():
    """Parameter mapping reproduces the quoted working point."""
    physical = map_parameters(IonParams(**ION_SETUP))
    transmission = lz_spin1(physical, physical.rest_energy).transmission
    ratio = gap_ratio(physical, physical.rest_energy)
    ok_ratio = round(ratio, 3) == 0.566
    ok_t = abs(transmission - 0.658) <= 0.005
    report(1, "feasibility numbers", ok_ratio and ok_t,
           f"ratio = {ratio:.3f} (want 0.566), "
           f"analytic T = {transmission:.3f} (want 0.658 +- 0.005)")


def test_criterion_2_integrator_matches_closed_forms():
    """Swept-level integrator vs analytic probabilities, 10 gap ratios."""
    ratios = np.linspace(0.05, 3.0, 10)
    worst1 = 0.0
    worst_half = 0.0
    for ratio in ratios:
        params = PhysicalParams(m=math.sqrt(ratio), g=1.0)
        mtilde = params.rest_energy

        oracle = integrate_sweep(1, params, mtilde)
        formula = lz_spin1(params, mtilde)
        worst1 = max(worst1, max(
            abs(a - b) for a, b in zip(oracle.as_tuple(), formula.as_tuple())))

        half = integrate_sweep(0.5, params, mtilde)
        worst_half = max(worst_half,
                         abs(half.transmission - math.exp(-math.pi * ratio)))
    ok = worst1 < 1e-4 and worst_half < 1e-4
    report(2, "integrator vs closed forms", ok,
           f"max |spin-1 deviation| = {worst1:.2e}, "
           f"max |spin-1/2 deviation| = {worst_half:.2e} (want < 1e-4)")


def test_criterion_3_packet_dynamics_match_closed_forms(scattering_final):
    """Band-projected packet after the crossing lands on the closed forms."""
    pops = band_populations(scattering_final, SCATTER).as_tuple()
    exact = lz_spin1(SCATTER, SCATTER.rest_energy).as_tuple()
    deviation = max(abs(w - t) for w, t in zip(pops, exact))
    ok = deviation <= 1e-4
    report(3, "packet dynamics vs closed forms", ok,
           f"(w+, w0, w-) = ({pops[0]:.4f}, {pops[1]:.4f}, {pops[2]:.4f}) "
           f"vs the closed forms at ratio 0.85^2 / 1.5 = 0.4817, "
           f"max |dev| = {deviation:.2e} (want <= 1e-4)")


def test_criterion_4_five_peaks_and_flat_band_at_rest(fig_grid):
    """Superposition packet forms five density peaks; flat band stays put."""
    xi = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    fld = gaussian_packet(fig_grid, PACKET_P0, PACKET_WIDTH, 0.0, xi, SCATTER)
    mid = evolve(fld, 6.0 * PACKET_WIDTH, SCATTER)

    def flat_band_centroid(state):
        comp = band_components(state, SCATTER)[1]
        rho = np.sum(np.abs(comp) ** 2, axis=1)
        return float(np.sum(state.grid.x * rho) / np.sum(rho))

    x_before = flat_band_centroid(mid.final)
    late = evolve(mid.final, 1.2 * PACKET_WIDTH, SCATTER)
    x_after = flat_band_centroid(late.final)
    speed = abs(x_after - x_before) / (1.2 * PACKET_WIDTH)

    rho = density(late.final)
    peaks, _ = find_peaks(rho, prominence=0.01 * rho.max())
    ok_peaks = len(peaks) == 5
    ok_speed = speed < 0.05 * SCATTER.c
    report(4, "five-peak structure and localization", ok_peaks and ok_speed,
           f"{len(peaks)} peaks above 1% prominence (want 5) at "
           f"t = 7.2 width; flat-band centroid speed = {speed:.2e} c "
           f"(want < 0.05 c)")


def test_criterion_5_angle_sweep_properties():
    """Symmetry, monotonicity, slope dominance, spin ordering of T(theta)."""
    half_thetas = np.linspace(0.0, 1.5, 91)
    thetas = np.concatenate([-half_thetas[:0:-1], half_thetas])
    m, p0 = 1.0, 1.0
    sweeps = {}
    for g in (1.0, 5.0):
        params = PhysicalParams(m=m, g=g)
        sweeps[("1", g)] = np.array(angle_sweep(params, 1, p0, thetas))[:, 4]
        sweeps[("1/2", g)] = np.array(angle_sweep(params, 0.5, p0, thetas))[:, 4]

    sym = max(np.max(np.abs(t - t[::-1])) for t in sweeps.values())
    upper = sweeps[("1", 5.0)][len(half_thetas) - 1:]
    mono = np.all(np.diff(upper) <= 1e-14) and all(
        np.all(np.diff(t[len(half_thetas) - 1:]) <= 1e-14)
        for t in sweeps.values())
    slope_dom = (np.all(sweeps[("1", 5.0)] >= sweeps[("1", 1.0)])
                 and np.all(sweeps[("1/2", 5.0)] >= sweeps[("1/2", 1.0)]))
    spin_dom = (np.all(sweeps[("1", 1.0)] >= sweeps[("1/2", 1.0)])
                and np.all(sweeps[("1", 5.0)] >= sweeps[("1/2", 5.0)]))
    ok = sym < 1e-12 and bool(mono) and bool(slope_dom) and bool(spin_dom)
    report(5, "angle-sweep properties", ok,
           f"|T(theta) - T(-theta)| <= {sym:.1e}, monotone in |theta|: {mono}, "
           f"larger slope dominates: {slope_dom}, spin-1 >= spin-1/2: {spin_dom}")


def test_criterion_6_ion_continuum_equivalence():
    """Two-ion emulator vs continuum packet vs closed forms, 1 ms window."""
    ion = IonParams(**ION_SETUP, n_fock=256, reduce_ion2=True)
    physical = map_parameters(ion)
    width = ion.packet_width
    p0 = 10.0 / width  # quasi-classical packet: p0 * width / hbar = 10

    state = coherent_initial_state(ion, p0, (1, 0, 0), project_band="+")
    trajectory = evolve_ion(state, ion, 1.0, n_records=60)
    ion_bands = trajectory.trace[-1, 5:8]
    window = trajectory.trace[trajectory.trace[:, 0] >= 0.85, 5:8]
    settle = float(np.max(window.max(axis=0) - window.min(axis=0)))

    grid = Grid1D(40.0 * width, 2048)
    fld = gaussian_packet(grid, p0, width, 0.0, (1, 0, 0), physical,
                          project_band="+")
    continuum = band_populations(evolve(fld, 1.0, physical).final,
                                 physical).as_tuple()
    formula = lz_spin1(physical, physical.rest_energy).as_tuple()

    dev_continuum = max(abs(a - b) for a, b in zip(ion_bands, continuum))
    dev_formula = max(abs(a - b) for a, b in zip(ion_bands, formula))
    ok = dev_continuum < 1e-6 and dev_formula < 0.07 and settle < 0.01
    report(6, "ion-continuum equivalence", ok,
           f"|ion - continuum| = {dev_continuum:.2e} (want < 1e-6), "
           f"|ion - closed form| = {dev_formula:.2e} (want < 0.07), "
           f"band-weight settle over final 15% = {settle:.2e} (want < 0.01, "
           f"saturated within 1 ms)")


class TestCriterion7PropertySuites:

    def test_projector_algebra(self):
        # the band projectors every route caches, at the fields
        # (c hbar kx, m c^2) of c = hbar = 1
        rng = np.random.default_rng(11)
        n = 1000
        kx = rng.uniform(-20, 20, n)
        rng.uniform(-20, 20, n)  # a transverse draw no route takes; m as before
        m = rng.uniform(0.0, 3.0, n)
        m[::7] = 0.0
        field = np.stack([kx, m], axis=-1)
        e_plus = np.linalg.norm(field, axis=-1)[:, None, None]
        worst = 0.0
        for spin in (1, 0.5):
            model = spin_model(spin)
            h = np.tensordot(field, np.array([model.cx, model.cz]), 1)
            projectors = field_projectors(spin, field)
            for i, p in enumerate(projectors):
                for j, q in enumerate(projectors):
                    target = p if i == j else np.zeros_like(p)
                    worst = max(worst, float(np.max(np.abs(p @ q - target))))
            completeness = sum(projectors) - np.eye(len(model.cx))
            worst = max(worst, float(np.max(np.abs(completeness))))
            rebuilt = e_plus * (projectors[0] - projectors[-1])
            worst = max(worst, float(np.max(np.abs(rebuilt - h))))
        report(7, "projector algebra (1000 momenta, both spins)", worst < 1e-10,
               f"max defect = {worst:.2e} (want < 1e-10)")

    def test_norm_conservation_long_run(self):
        grid = Grid1D(80.0, 512)
        fld = gaussian_packet(grid, PACKET_P0, PACKET_WIDTH, 0.0, (1, 0, 0),
                              SCATTER, project_band="+")
        current = fld
        for _ in range(10_000):
            current = step(current, 12.0 / 10_000, SCATTER)
        drift = abs(current.norm() - fld.norm())
        report(7, "unitarity over 1e4 steps", drift < 1e-8,
               f"norm drift = {drift:.2e} (want < 1e-8)")

    def test_evolve_refinement_convergence(self):
        grid = Grid1D(80.0, 1024)
        fld = gaussian_packet(grid, PACKET_P0, PACKET_WIDTH, 0.0, (1, 0, 0),
                              SCATTER, project_band="+")
        dt0 = default_time_step(grid, SCATTER, 2.0)
        base = evolve(fld, 2.0, SCATTER, dt=dt0, record_stride=10**9)
        halved = evolve(fld, 2.0, SCATTER, dt=dt0 / 2, record_stride=10**9)
        dt_change = float(np.max(np.abs(base.trace[-1] - halved.trace[-1])))

        doubled_grid = Grid1D(80.0, 2048)
        fld2 = gaussian_packet(doubled_grid, PACKET_P0, PACKET_WIDTH, 0.0,
                               (1, 0, 0), SCATTER, project_band="+")
        refined = evolve(fld2, 2.0, SCATTER, dt=dt0, record_stride=10**9)
        grid_change = float(np.max(np.abs(base.trace[-1] - refined.trace[-1])))
        ok = dt_change < 1e-6 and grid_change < 1e-6
        report(7, "evolve refinement convergence", ok,
               f"dt halving moved observables by {dt_change:.2e}, grid "
               f"doubling by {grid_change:.2e} (want < 1e-6)")

    def test_reduced_ion2_equivalence(self):
        kwargs = dict(**ION_SETUP, n_fock=48)
        reduced = IonParams(**kwargs, reduce_ion2=True)
        full = IonParams(**kwargs, reduce_ion2=False)
        run_r = evolve_ion(coherent_initial_state(reduced, 2.0, (1, 0, 0)),
                           reduced, 0.2, n_records=6)
        run_f = evolve_ion(coherent_initial_state(full, 2.0, (1, 0, 0)),
                           full, 0.2, n_records=6)
        deviation = float(np.max(np.abs(run_r.trace - run_f.trace)))
        report(7, "reduced vs full second ion", deviation < 1e-10,
               f"max observable deviation = {deviation:.2e} (want < 1e-10)")
