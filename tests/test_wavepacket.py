import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from maxwellsim import (
    BoundaryContaminationError,
    Grid1D,
    ParameterError,
    PhysicalParams,
    band_components,
    band_populations,
    classify_scattering,
    default_time_step,
    density,
    evolve,
    gaussian_packet,
    lz_spin1,
    momentum_mean,
    pauli_algebra,
    position_mean,
    spin1_matrices,
    step,
)
from maxwellsim.wavepacket import TRACE_COLUMNS, _grid_projectors

SCATTER = PhysicalParams(c=1.0, m=0.85, g=1.5)
FREE = PhysicalParams(c=1.0, m=0.85, g=0.0)


@pytest.fixture(scope="module")
def grid():
    return Grid1D(80.0, 1024)


@pytest.fixture(scope="module")
def scattering_run(grid):
    """Band-projected incident packet driven well past the crossing."""
    fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                          project_band="+")
    return evolve(fld, 20.0, SCATTER)


class TestGrid:

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Grid1D(10.0, 1000)
        with pytest.raises(ValueError):
            Grid1D(10.0, 128)

    def test_geometry(self, grid):
        assert grid.dx == pytest.approx(80.0 / 1024)
        assert grid.x[0] == -40.0
        assert np.max(np.abs(grid.k)) == pytest.approx(np.pi / grid.dx)


class TestGaussianPacket:

    def test_momentum_expectation(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER)
        assert momentum_mean(fld, SCATTER) == pytest.approx(10.0, abs=1e-3)

    def test_normalized(self, grid):
        fld = gaussian_packet(grid, 3.0, 1.5, -4.0, (0.2, 0.5, 0.1), SCATTER)
        assert fld.norm() == pytest.approx(1.0, abs=1e-12)

    def test_superposition_spinor_band_split(self, grid):
        xi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        pops = band_populations(gaussian_packet(grid, 10.0, 2.0, 0.0, xi, SCATTER),
                                SCATTER)
        assert abs(pops.w_plus - pops.w_minus) < 1e-12
        assert pops.w_zero < 1e-12

    def test_projection_gives_pure_band(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                              project_band="+")
        pops = band_populations(fld, SCATTER)
        assert pops.w_plus == pytest.approx(1.0, abs=1e-10)
        assert abs(pops.w_zero) < 1e-10 and abs(pops.w_minus) < 1e-10

    def test_orthogonal_projection_rejected(self, grid):
        # (1, 0, 1) has no flat-band weight at any wavenumber
        xi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        with pytest.raises(ValueError):
            gaussian_packet(grid, 10.0, 2.0, 0.0, xi, SCATTER, project_band="0")

    def test_geometry_validation(self, grid):
        with pytest.raises(ValueError):
            gaussian_packet(grid, 1.0, 0.2, 0.0, (1, 0, 0), SCATTER)
        with pytest.raises(ValueError):
            gaussian_packet(grid, 1.0, 2.0, 35.0, (1, 0, 0), SCATTER)

    def test_middle_spinor_is_flat_band_at_rest(self, grid):
        fld = gaussian_packet(grid, 0.0, 4.0, 0.0, (0, 1, 0), SCATTER)
        assert band_populations(fld, SCATTER).w_zero > 0.95


class TestStep:

    def test_free_step_preserves_bands(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (0.3, 0.1, 0.8), FREE)
        before = band_populations(fld, FREE).as_tuple()
        after = band_populations(step(fld, 0.05, FREE), FREE).as_tuple()
        assert np.allclose(before, after, atol=1e-12)

    def test_massless_transport(self, grid):
        # positive branch of the massless spectrum is dispersionless:
        # one (arbitrarily long) step is an exact grid translation
        params = PhysicalParams(c=1.0, m=0.0, g=0.0)
        fld = gaussian_packet(grid, 10.0, 2.0, -5.0, (1, 0, 0), params,
                              project_band="+")
        dt = 64 * grid.dx
        moved = step(fld, dt, params)
        assert np.max(np.abs(moved.amplitudes
                             - np.roll(fld.amplitudes, 64, axis=0))) < 1e-10
        assert position_mean(moved) - position_mean(fld) == pytest.approx(
            dt, abs=1e-8)

    def test_corrected_step_fifth_order(self, grid):
        # K S K cancels Strang's constant dt^3 term: the symmetric scheme's
        # local defect is O(dt^5), so halving dt divides it by 32
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                              project_band="+")

        def split_defect(dt):
            once = step(fld, dt, SCATTER)
            twice = step(step(fld, dt / 2, SCATTER), dt / 2, SCATTER)
            return np.sqrt(np.sum(np.abs(once.amplitudes - twice.amplitudes) ** 2)
                           * grid.dx)

        errs = [split_defect(dt) for dt in (0.06, 0.03, 0.015)]
        assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.15)
        assert errs[1] / errs[2] == pytest.approx(32.0, rel=0.15)

    def test_dt_guard(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER)
        with pytest.raises(ValueError):
            step(fld, 1.0, SCATTER)
        # a bound beyond the float range reads inf and is refused
        with pytest.raises(ParameterError):
            step(fld, 1e120, SCATTER)

    def test_default_step_at_extreme_speed(self, grid):
        # the transport cap c dt <= 3 dx is 1e129 here: the step is the run
        slow = PhysicalParams(c=2e-130, m=0.85, g=1.5)
        assert default_time_step(grid, slow, 1.0) == 1.0
        assert default_time_step(grid, SCATTER, 1.0) == pytest.approx(
            1.0 / 13)  # the one-step limit, (6e-4 / (1.5 * 0.85))^(1/3) = 0.0778


class TestEvolve:

    def test_free_band_populations_constant(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), FREE)
        result = evolve(fld, 5.0, FREE, dt=0.01)
        weights = result.trace[:, 3:6]
        assert np.max(np.abs(weights - weights[0])) < 1e-10

    def test_trace_layout(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), FREE)
        result = evolve(fld, 0.5, FREE, dt=0.05)
        assert result.trace.shape[1] == len(TRACE_COLUMNS)
        assert result.trace[0, 0] == 0.0
        assert result.trace[-1, 0] == pytest.approx(0.5)
        assert np.allclose(result.trace[:, 1], 1.0, atol=1e-10)

    def test_scattering_matches_closed_form(self, scattering_run):
        pops = band_populations(scattering_run.final, SCATTER)
        formula = lz_spin1(SCATTER, SCATTER.rest_energy)
        assert pops.w_plus == pytest.approx(formula.gamma_pp, abs=0.05)
        assert pops.w_zero == pytest.approx(formula.gamma_p0, abs=0.05)
        assert pops.w_minus == pytest.approx(formula.gamma_pm, abs=0.05)

    def test_spectral_exactness_free(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), FREE)
        many = evolve(fld, 1.0, FREE, dt=1.0 / 1024, record_stride=10**9)
        one = step(fld, 1.0, FREE)
        assert np.max(np.abs(many.final.amplitudes - one.amplitudes)) < 1e-10

    def test_unitarity_long_run(self):
        small = Grid1D(80.0, 512)
        fld = gaussian_packet(small, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                              project_band="+")
        current = fld
        for _ in range(10_000):
            current = step(current, 12.0 / 10_000, SCATTER)
        assert abs(current.norm() - fld.norm()) < 1e-8

    def test_convergence_under_refinement(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                              project_band="+")
        dt0 = default_time_step(grid, SCATTER, 2.0)
        coarse = evolve(fld, 2.0, SCATTER, dt=dt0, record_stride=10**9)
        fine = evolve(fld, 2.0, SCATTER, dt=dt0 / 2, record_stride=10**9)
        assert np.max(np.abs(coarse.trace[-1] - fine.trace[-1])) < 1e-6

        doubled = Grid1D(80.0, 2048)
        fld2 = gaussian_packet(doubled, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                               project_band="+")
        refined = evolve(fld2, 2.0, SCATTER, dt=dt0, record_stride=10**9)
        assert np.max(np.abs(coarse.trace[-1] - refined.trace[-1])) < 1e-6

    def test_boundary_guard(self):
        # fast massless packet aimed at the edge must trip the guard
        params = PhysicalParams(c=1.0, m=0.0, g=0.0)
        small = Grid1D(40.0, 512)
        fld = gaussian_packet(small, 20.0, 1.0, 10.0, (1, 0, 0), params,
                              project_band="+")
        with pytest.raises(BoundaryContaminationError):
            evolve(fld, 10.0, params, dt=0.02)

    def test_step_cannot_jump_the_edge_guard(self):
        # one 15-unit step would carry the packet across the periodic edge
        # between two checks (x_mean 10 -> -15), so it must be refused; the
        # default step, capped at c dt <= 3 dx, trips the guard instead
        params = PhysicalParams(c=1.0, m=0.0, g=0.0)
        small = Grid1D(40.0, 512)
        fld = gaussian_packet(small, 20.0, 1.0, 10.0, (1, 0, 0), params,
                              project_band="+")
        with pytest.raises(ParameterError, match="edge"):
            evolve(fld, 15.0, params, dt=15.0)
        with pytest.raises(ParameterError):
            evolve(fld, 3.01 * small.dx, params, dt=3.01 * small.dx)
        assert evolve(fld, 2.99 * small.dx, params, dt=2.99 * small.dx).steps == 1
        with pytest.raises(BoundaryContaminationError):
            evolve(fld, 15.0, params)

    def test_reports_steps_and_error_bound(self):
        # README demo: the transport cap sets dt (the one-step limit is 1.3x
        # looser), and the measured splitting error is the true one
        grid = Grid1D(80.0, 4096)
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                              project_band="+")
        result = evolve(fld, 14.0, SCATTER)
        assert result.steps == 239
        assert result.steps * result.dt == pytest.approx(14.0, rel=1e-14)
        assert result.dt == pytest.approx(default_time_step(grid, SCATTER, 14.0),
                                          rel=1e-14)
        assert result.split_error_limit == 1e-4
        assert 0.0 < result.split_error <= result.split_error_limit
        reference = evolve(fld, 14.0, SCATTER, dt=result.dt / 4,
                           record_stride=10**9)
        distance = math.sqrt(np.sum(np.abs(result.final.amplitudes
                                           - reference.final.amplitudes) ** 2)
                             * grid.dx)
        assert result.split_error == pytest.approx(distance, rel=0.05)
        assert 0.0 <= result.edge_weight_max < 1e-6
        assert result.trace[-1, 0] == 14.0
        assert result.final.time == 14.0

    @pytest.mark.parametrize("t0, t_final", [(0.0, 0.7), (0.0, 2.9), (0.3, 1.3)])
    def test_record_times_do_not_drift(self, t0, t_final):
        # times are t0 + t_final * i / steps, not a running sum of dt
        grid = Grid1D(40.0, 512)
        fld = gaussian_packet(grid, 2.0, 2.0, -5.0, (1, 0, 0), SCATTER)
        fld.time = t0
        result = evolve(fld, t_final, SCATTER, dt=0.01, record_stride=7)
        assert result.trace[-1, 0] == t0 + t_final
        assert result.final.time == t0 + t_final
        steps = np.append(np.arange(0, result.steps, 7), result.steps)
        assert np.array_equal(result.trace[:, 0],
                              t0 + t_final * (steps / result.steps))


def _splitting_constant(params, dimension):
    """g c m c^2 ||[Cz, Cx]|| / hbar^2, the norm taken from the matrices."""
    algebra = spin1_matrices() if dimension == 3 else pauli_algebra()
    cx, _, cz = algebra.coupling_matrices
    commutator = np.linalg.norm(cz @ cx - cx @ cz, 2)
    return (params.g * params.c * params.rest_energy * commutator
            / params.hbar**2)


_SPINORS = {3: (0.6, 0.3, 0.74), 2: (0.8, 0.6)}


class TestSplittingBoundProperties:
    """The proven one-step bound and the measured run error over both spins,
    m and g in [0, 2]."""

    small = Grid1D(40.0, 256)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(dimension=st.sampled_from([3, 2]), m=st.floats(0.0, 2.0),
           g=st.floats(0.0, 2.0), p0=st.floats(-3.0, 3.0),
           fraction=st.floats(0.05, 0.99))
    def test_one_step_defect_within_local_bound(self, dimension, m, g, p0,
                                                fraction):
        params = PhysicalParams(c=1.0, m=m, g=g)
        constant = _splitting_constant(params, dimension)
        # under the transport cap and the step's own 1e-4 guard
        dt_max = 3 * self.small.dx / params.c
        if constant > 0:
            dt_max = min(dt_max, (6e-4 / constant) ** (1 / 3))
        dt = fraction * dt_max
        fld = gaussian_packet(self.small, p0, 2.0, 0.0, _SPINORS[dimension],
                              params)
        once = step(fld, dt, params)
        twice = step(step(fld, dt / 2, params), dt / 2, params)
        defect = math.sqrt(np.sum(np.abs(once.amplitudes - twice.amplitudes) ** 2)
                           * self.small.dx)
        # the bound for dt plus the bound for two steps of dt/2, plus round-off
        local = dt**3 * constant / 6.0
        assert defect <= 1.25 * local + 1e-12

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(dimension=st.sampled_from([3, 2]), m=st.floats(0.0, 2.0),
           g=st.floats(0.0, 2.0), p0=st.floats(-3.0, 3.0))
    def test_measured_error_matches_refined_run(self, dimension, m, g, p0):
        params = PhysicalParams(c=1.0, m=m, g=g)
        fld = gaussian_packet(self.small, p0, 2.0, 0.0, _SPINORS[dimension],
                              params)
        coarse = evolve(fld, 2.0, params, record_stride=10**9)
        assert coarse.split_error <= coarse.split_error_limit
        fine = evolve(fld, 2.0, params, dt=coarse.dt / 8, record_stride=10**9)
        assert fine.steps == 8 * coarse.steps
        distance = math.sqrt(np.sum(np.abs(coarse.final.amplitudes
                                           - fine.final.amplitudes) ** 2)
                             * self.small.dx)
        assert abs(coarse.split_error - distance) <= 0.1 * distance + 1e-10


class TestBandStructureObservables:

    def test_band_components_partition(self, grid):
        fld = gaussian_packet(grid, 6.0, 2.0, 0.0, (0.4, 0.2, 0.9), SCATTER)
        comps = band_components(fld, SCATTER)
        assert np.max(np.abs(comps.sum(axis=0) - fld.amplitudes)) < 1e-12
        overlaps = np.abs(
            np.einsum("axs,bxs->ab", comps.conj(), comps) * grid.dx)
        assert np.max(overlaps - np.diag(np.diag(overlaps))) < 1e-12

    @pytest.mark.parametrize("spinor", [(0.4, 0.2, 0.9), (0.8, 0.6)])
    def test_band_populations_match_projector_sum(self, grid, spinor):
        # reference: psi^dagger P psi summed over k, one band at a time
        fld = gaussian_packet(grid, 6.0, 2.0, 0.0, spinor, SCATTER)
        fld.amplitudes *= np.exp(0.3j * grid.x)[:, None]
        projectors, _ = _grid_projectors(grid, SCATTER, fld.dimension)
        psi_k = np.fft.fft(fld.amplitudes, axis=0)
        reference = [np.einsum("ki,kij,kj->", psi_k.conj(), p, psi_k).real
                     * grid.dx / grid.points for p in projectors]
        pops = band_populations(fld, SCATTER).as_tuple()
        if fld.dimension == 2:
            pops = (pops[0], pops[2])
        assert np.allclose(pops, reference, rtol=0, atol=1e-14)

    def test_five_peak_structure(self, grid):
        xi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, xi, SCATTER)
        result = evolve(fld, 14.4, SCATTER)
        rho = density(result.final)
        peaks, _ = find_peaks(rho, prominence=0.01 * rho.max())
        assert len(peaks) == 5

    def test_classification(self, scattering_run):
        formula = lz_spin1(SCATTER, SCATTER.rest_energy)
        breakdown = classify_scattering(scattering_run.final, SCATTER, 0.0)
        assert breakdown.transmitted == pytest.approx(formula.gamma_pm, abs=0.05)
        assert breakdown.localized == pytest.approx(formula.gamma_p0, abs=0.05)
        assert breakdown.reflected == pytest.approx(formula.gamma_pp, abs=0.05)
        assert not breakdown.incomplete_separation
        assert breakdown.total == pytest.approx(scattering_run.final.norm(),
                                                abs=1e-8)

    def test_classification_stationary_precondition(self, scattering_run):
        tail = scattering_run.trace[-max(2, scattering_run.trace.shape[0] // 10):,
                                    3:6]
        assert np.max(tail.max(axis=0) - tail.min(axis=0)) < 1e-3

    def test_free_run_classification(self, grid):
        # forward-moving positive-band packet: nothing reflected, nothing
        # transmitted into the negative band; all weight ends in residual
        params = PhysicalParams(c=1.0, m=0.85, g=0.0)
        fld = gaussian_packet(grid, 10.0, 2.0, -8.0, (1, 0, 0), params,
                              project_band="+")
        result = evolve(fld, 16.0, params, dt=0.01)
        breakdown = classify_scattering(result.final, params, 0.0)
        assert breakdown.reflected < 1e-5
        assert breakdown.transmitted < 1e-10
        assert breakdown.localized < 1e-10
        assert breakdown.residual == pytest.approx(1.0, abs=1e-5)
