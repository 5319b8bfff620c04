import collections
import contextlib
import math
import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from dense_reference import couplings
from maxwellsim import (
    BoundaryContaminationError,
    Grid1D,
    NumericalGuardError,
    ParameterError,
    PhysicalParams,
    band_components,
    band_populations,
    default_time_step,
    density,
    evolve,
    gaussian_packet,
    lz_spin1,
    step,
)
from maxwellsim import cli, wavepacket
from maxwellsim.spin_algebra import rotor_matrix
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


class TestTraceReadout:
    """A trace record reads what the public readers read."""

    def test_demo_records_match_the_public_readers(self):
        # the README demo, recorded at every step
        grid = Grid1D(80.0, 4096)
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                              project_band="+")
        states = []
        trace_row = wavepacket._trace_row

        def record(state, params):
            states.append(state.copy())
            return trace_row(state, params)

        with mock.patch.object(wavepacket, "_trace_row", record):
            result = evolve(fld, 14.0, SCATTER)
        assert result.steps == 146 and len(states) == len(result.trace) == 147
        for state, row in zip(states, result.trace):
            rho = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
            want = (state.time, state.norm(), np.sum(grid.x * rho) / np.sum(rho),
                    *band_populations(state, SCATTER).as_tuple())
            assert np.max(np.abs(row - want)) < 1e-14
            assert np.max(np.abs(density(state) - rho)) < 1e-15


class TestGrid:

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            Grid1D(10.0, 1000)
        with pytest.raises(ValueError):
            Grid1D(10.0, 128)

    @pytest.mark.parametrize("length, points, field", [
        pytest.param(np.nan, 256, "grid length", id="nan"),
        pytest.param(np.inf, 256, "grid length", id="inf"),
        pytest.param(10.0, 256.0, "points", id="float-points"),
    ])
    def test_refuses_non_finite_length(self, length, points, field):
        # a NaN length once passed, and gaussian_packet then blamed the
        # width; a float point count ended on a bare TypeError
        with pytest.raises(ParameterError, match=f"^{field} must be"):
            Grid1D(length, points)

    def test_point_cap(self):
        # refused in the constructor, before the lazy x and k exist
        assert Grid1D(10.0, 2**20).points == 2**20
        for points in (2**21, 2**40):
            with pytest.raises(ParameterError, match="2"):
                Grid1D(10.0, points)

    def test_geometry(self, grid):
        assert grid.dx == pytest.approx(80.0 / 1024)
        assert grid.x[0] == -40.0
        assert np.max(np.abs(grid.k)) == pytest.approx(np.pi / grid.dx)


class TestGaussianPacket:

    def test_momentum_expectation(self, grid):
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER)
        weights = np.sum(np.abs(np.fft.fft(fld.amplitudes, axis=0)) ** 2, axis=1)
        p_mean = SCATTER.hbar * np.sum(grid.k * weights) / np.sum(weights)
        assert p_mean == pytest.approx(10.0, abs=1e-3)

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

    @pytest.mark.parametrize("p0", [-159.0, 250.0, 1e300, math.nan])
    def test_momentum_must_fit_the_grid(self, p0):
        # the demo grid holds wavenumbers below pi / dx = 160.8; a packet
        # reaching past it would alias (p0 = 250 reads a mean k of -71.7)
        grid = Grid1D(80.0, 4096)
        with pytest.raises(ParameterError, match="pi / dx"):
            gaussian_packet(grid, p0, 2.0, 0.0, (1, 0, 0), SCATTER)
        # |p0| + 5 / width just below pi / dx is kept
        gaussian_packet(grid, -158.0, 2.0, 0.0, (1, 0, 0), SCATTER)

    def test_width_whose_square_underflows_is_refused(self):
        # 2 width^2 = 0 would make the envelope 0 / 0
        with pytest.raises(ParameterError, match="its square underflows"):
            gaussian_packet(Grid1D(4e-299, 1024), 0.0, 1e-300, 0.0, (1, 0, 0),
                            SCATTER)
        # a width whose square is still a normal float is kept
        width = 2e-154
        fld = gaussian_packet(Grid1D(40.0 * width, 1024), 0.0, width, 0.0,
                              (1, 0, 0), SCATTER)
        assert np.all(np.isfinite(fld.amplitudes))
        assert fld.norm() == pytest.approx(1.0, rel=1e-12)

    def test_width_whose_square_overflows_is_refused(self, tmp_path):
        # (x - center)^2 = inf, and 2 width^2 = inf, would zero or flatten
        # the envelope; the refusal names the width and comes before any
        # float operation could warn
        with pytest.raises(ParameterError, match="width 1e[+]159 is too large"):
            gaussian_packet(Grid1D(2e160, 256), 0.0, 1e159, 0.0, (1, 0, 0),
                            SCATTER)
        with pytest.raises(ParameterError, match="width 1e[+]153 is too large"):
            gaussian_packet(Grid1D(2.4e154, 256), 0.0, 1e153, 3e153, (1, 0, 0),
                            SCATTER)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("p0 = 0\nwidth = 1e159\ngrid_length = 2e160\n"
                       "grid_points = 256\nt_final = 1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["evolve", "--config", str(cfg), "--output",
                             str(tmp_path / "wide.csv")]) == 2
        # a grid whose every (x - center)^2 is finite is kept
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fld = gaussian_packet(Grid1D(2.6e154, 256), 0.0, 2.5e153, 0.0,
                                  (1, 0, 0), SCATTER)
        assert fld.norm() == pytest.approx(1.0, rel=1e-12)

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
        x_mean = [grid.x @ density(f) / np.sum(density(f)) for f in (fld, moved)]
        assert x_mean[1] - x_mean[0] == pytest.approx(dt, abs=1e-8)

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
        # the reference step's c dt <= 3 dx is 1e129 here: the step is the
        # run, and so is the predicted default, capped at 2 reference steps
        slow = PhysicalParams(c=2e-130, m=0.85, g=1.5)
        assert default_time_step(grid, slow, 1.0) == 1.0
        assert default_time_step(grid, SCATTER, 1.0) == pytest.approx(
            1.0 / 13)  # the one-step limit, (6e-4 / (1.5 * 0.85))^(1/3) = 0.0778
        fld = gaussian_packet(grid, 0.0, 2.0, 0.0, (1, 0, 0), slow)
        result = evolve(fld, 1.0, slow)
        assert result.steps == 1 and result.edge_cells == 3


class TestEvolve:

    @pytest.mark.parametrize("inputs, match", [
        ({"record_stride": 0}, "record_stride"),
        ({"record_stride": -2}, "record_stride"),
        ({"record_stride": 2.5}, "record_stride"),
        ({"dt": math.nan}, "dt"),
        ({"dt": -0.01}, "dt"),
        ({"t_final": math.nan}, "t_final"),
        ({"t_final": math.inf}, "t_final"),
        ({"t_final": -1.0}, "t_final"),
    ])
    def test_refuses_invalid_run_inputs(self, grid, inputs, match):
        # the config parser refuses these before the library sees them;
        # called directly, evolve must not end on a ZeroDivisionError, a
        # bare ValueError or an OverflowError, nor accept them silently
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER)
        with pytest.raises(ParameterError, match=match):
            evolve(fld, params=SCATTER, **{"t_final": 1.0, **inputs})

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
        # between two checks (x_mean 10 -> -15); its guarded strip, c dt
        # wide, reaches the packet, so it is refused.  A step past 3 cells
        # widens the strip, and the default step trips the guard instead
        params = PhysicalParams(c=1.0, m=0.0, g=0.0)
        small = Grid1D(40.0, 512)
        fld = gaussian_packet(small, 20.0, 1.0, 10.0, (1, 0, 0), params,
                              project_band="+")
        with pytest.raises(ParameterError, match="edge"):
            evolve(fld, 15.0, params, dt=15.0)
        for cells, reach in ((3, 2.99), (4, 3.01), (12, 11.5)):
            result = evolve(fld, reach * small.dx, params, dt=reach * small.dx)
            assert result.steps == 1 and result.edge_cells == cells
        with pytest.raises(BoundaryContaminationError):
            evolve(fld, 15.0, params)

    def test_reports_steps_and_error_bound(self):
        # README demo: the reference step is 14 / 239, where the chain of
        # corrected steps lies 1.38e-6 from the reference; the dt^4 law puts
        # 1e-5 at 146 steps, and the measured splitting error is the true one
        grid = Grid1D(80.0, 4096)
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                              project_band="+")
        result = evolve(fld, 14.0, SCATTER)
        assert default_time_step(grid, SCATTER, 14.0) == 14.0 / 239
        assert result.steps == 146
        assert result.steps * result.dt == pytest.approx(14.0, rel=1e-14)
        assert result.dt == 14.0 / 146
        assert result.split_error_limit == 1e-4
        assert 5e-6 <= result.split_error <= 2e-5
        assert result.predicted_error == pytest.approx(result.split_error,
                                                       rel=0.05)
        # c dt = 4.9 dx; the reference keeps its 4 x 239 steps and its bits
        assert result.edge_cells == 5 and result.reference_steps == 956
        exact, _ = wavepacket._exact_evolution(
            fld, SCATTER, wavepacket._kept_spectrum(fld), 14.0 / 239, 239)
        assert np.array_equal(result.reference.amplitudes, exact.amplitudes)
        reference = evolve(fld, 14.0, SCATTER, dt=result.dt / 4,
                           record_stride=10**9)
        distance = math.sqrt(np.sum(np.abs(result.final.amplitudes
                                           - reference.final.amplitudes) ** 2)
                             * grid.dx)
        assert result.split_error == pytest.approx(distance, rel=0.05)
        assert 0.0 <= result.edge_weight_max < 1e-6
        assert result.trace[-1, 0] == 14.0
        assert result.final.time == 14.0

    @pytest.mark.parametrize("params, bound", [
        (SCATTER, None), (PhysicalParams(m=0.0, g=1.5), 1e-8), (FREE, 1e-8),
    ], ids=["demo", "massless", "no-slope"])
    def test_reference_is_the_exact_final_state(self, params, bound):
        # README demo: the final state lies split_error from the reference;
        # where g m = 0 the splitting is exact, and so is the reference: the
        # measured error is round-off and the dropped tail, about 1.4e-11
        grid = Grid1D(80.0, 4096)
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), params,
                              project_band="+")
        result = evolve(fld, 14.0, params)
        reference = result.reference
        assert reference.grid == grid and reference.time == result.final.time
        gap = result.final.amplitudes - reference.amplitudes
        distance = math.sqrt(np.sum(np.abs(gap) ** 2) * grid.dx)
        if bound is None:
            assert distance == pytest.approx(result.split_error, rel=0.01)
        else:
            assert distance <= result.split_error <= 1e-10
            assert distance <= bound

    def test_reference_of_an_empty_run_is_the_input(self, grid):
        # a run that takes no step builds no reference and predicts no error
        fld = gaussian_packet(grid, 10.0, 2.0, 0.0, (1, 0, 0), SCATTER,
                              project_band="+")
        result = evolve(fld, 0.0, SCATTER)
        assert result.steps == 0 and len(result.trace) == 1
        assert result.split_error == result.predicted_error == 0.0
        assert result.reference_steps == 0 and result.edge_cells == 3
        assert np.array_equal(result.final.amplitudes, fld.amplitudes)
        assert np.array_equal(result.reference.amplitudes, fld.amplitudes)

    def test_rotation_angle_above_the_square_range(self, tmp_path, capsys):
        # g = 0: the reference rotates by m c^2 t = 8.5e156 rad, whose square
        # overflows; it stays finite, and the run's measured error (phases
        # that far out are rounding) ends the run on the guard, not on NaN
        cfg = tmp_path / "far.cfg"
        cfg.write_text("p0 = 0\nm = 0.85\ng = 0\nt_final = 1e157\n"
                       "width = 1e153\ngrid_length = 2e154\ngrid_points = 256\n")
        argv = ["evolve", "--config", str(cfg), "--output", str(tmp_path / "f.csv")]
        results = []
        exact = wavepacket._exact_evolution

        def record(*args):
            reference, dropped = exact(*args)
            results.append(reference)
            return reference, dropped

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(wavepacket, "_exact_evolution", record):
                code = cli.main(argv)
        assert len(results) == 1  # g m = 0: a smaller dt cannot help
        assert np.all(np.isfinite(results[0].amplitudes))
        assert code == 3
        assert "measured splitting error 1.40" in capsys.readouterr().err

    def test_work_caps(self, grid):
        # 2e9 point-steps; then 7e5 steps at 1e9 / 1024 point-steps, whose
        # exact reference takes 1.2e9 steps of the components that a narrow
        # packet keeps (about half the grid): both refused before any step
        fld = gaussian_packet(grid, 0.0, 0.4, 0.0, (1, 0, 0), SCATTER)
        dt = default_time_step(grid, SCATTER, 0.0)
        start = time.monotonic()
        with pytest.raises(ParameterError, match="point-steps"):
            evolve(fld, 2e6 * dt, SCATTER)
        with pytest.raises(ParameterError, match="component-steps"):
            evolve(fld, 7e5 * dt, SCATTER)
        assert time.monotonic() - start < 1.0

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


# A fast, heavy spin-1/2 packet on a steep slope: at the reference step
# (226 steps) the run's measured splitting error is above the limit.
SHRINK = PhysicalParams(m=0.5, g=20.0)
SHRINK_CONFIG = ("spinor = 1,0\nm = 0.5\ng = 20.0\np0 = 5.0\nwidth = 1.0\n"
                 "grid_length = 40.0\ngrid_points = 2048\nt_final = 7.0\n")

# Packets whose momentum the slope sweeps past the grid's -pi/dx: spinor,
# m, g, p0, width and t_final on Grid1D(40, 256), centered at 0.  Each
# once took four runs, at ever smaller dt, before a guard error.
WRAPPING = [((1, 0), 1.7, 3.75, -9.0, 0.7, 1.9),
            ((1, 0, 0), 0.4, 17.0, -6.0, 1.9, 0.75)]
# Less than 1e-6 of this one wraps (Grid1D(80, 256)): it runs, once.
BARELY_WRAPPING = ((1, 0, 0), 0.9, 1.25, 7.5, 2.5, 12.9)


@contextlib.contextmanager
def _counted_runs():
    """Yield the step counts of the runs :func:`evolve` makes."""
    runs = []
    run = wavepacket._run

    def record(*args):
        runs.append(args[4])
        return run(*args)

    with mock.patch.object(wavepacket, "_run", record):
        yield runs


def _config(grid, spinor, m, g, p0, width, t_final) -> str:
    return (f"spinor = {','.join(map(str, spinor))}\nm = {m}\ng = {g}\n"
            f"p0 = {p0}\nwidth = {width}\ngrid_length = {grid.length}\n"
            f"grid_points = {grid.points}\nt_final = {t_final}\n")


class TestMeasuredGuard:
    """The run is made once and its measured error checked once: above
    1e-4 an explicit dt is a parameter error and the default dt a guard
    violation, never a rerun.  A packet whose momentum would wrap around
    the grid is refused before any step."""

    @pytest.fixture
    def packet(self):
        return gaussian_packet(Grid1D(40.0, 2048), 5.0, 1.0, 0.0, (1, 0), SHRINK)

    @staticmethod
    @contextlib.contextmanager
    def _driven(scale):
        """Predict 1e-5 at the reference step, which makes it the default
        dt, and scale the exact reference by ``scale``; yield the step
        counts of the runs and of the references built."""
        references = []
        exact = wavepacket._exact_evolution

        def record_reference(fld, params, spectrum, dt, n_steps):
            reference, dropped = exact(fld, params, spectrum, dt, n_steps)
            references.append(n_steps)
            reference.amplitudes *= scale
            return reference, dropped

        with _counted_runs() as runs, mock.patch.multiple(
                wavepacket, _exact_evolution=record_reference,
                _predicted_error=lambda *args: 1e-5):
            yield runs, references

    def test_predicted_default_dt_meets_the_limit(self, packet):
        # 8.26e-4 at the reference step: the dt^4 law picks 682 steps, and
        # the error falls faster than that law this far out, to 5.5e-7
        with _counted_runs() as runs:
            result = evolve(packet, 7.0, SHRINK)
        assert runs == [682] and result.steps == 682
        assert result.predicted_error == pytest.approx(1e-5, rel=0.01)
        assert result.split_error == pytest.approx(5.5e-7, rel=0.01)
        assert result.reference_steps == 4 * 226

    def test_explicit_dt_is_refused(self, packet):
        # the reference step, taken as an explicit dt
        with pytest.raises(ParameterError, match="measured splitting error") as info:
            evolve(packet, 7.0, SHRINK, dt=7.0 / 226)
        first = float(re.search(r"error (\S+)", str(info.value)).group(1))
        assert first == pytest.approx(8.26e-4, rel=1e-3)

    def test_error_that_stays_above_the_limit_is_a_guard_violation(self, packet):
        # a reference 2e-4 off keeps the run's error above the limit
        with self._driven(1.0 + 2e-4) as (runs, references):
            with pytest.raises(NumericalGuardError, match="characteristics"):
                evolve(packet, 7.0, SHRINK)
        assert runs == [226] and references == [226]

    def test_non_finite_error_is_a_guard_violation_at_once(self, packet):
        with self._driven(math.nan) as (runs, _):
            with pytest.raises(NumericalGuardError, match="error nan"):
                evolve(packet, 7.0, SHRINK)
        assert runs == [226]

    @pytest.mark.parametrize("case", WRAPPING, ids=["spin-half", "spin-one"])
    def test_wrapping_momentum_is_refused_before_any_step(self, case):
        spinor, m, g, p0, width, t_final = case
        params = PhysicalParams(m=m, g=g)
        fld = gaussian_packet(Grid1D(40.0, 256), p0, width, 0.0, spinor, params)
        with _counted_runs() as runs:
            with pytest.raises(BoundaryContaminationError,
                               match="momentum edge.*more grid points"):
                evolve(fld, t_final, params)
        assert runs == []

    def test_barely_wrapping_momentum_runs_once(self):
        spinor, m, g, p0, width, t_final = BARELY_WRAPPING
        params = PhysicalParams(m=m, g=g)
        fld = gaussian_packet(Grid1D(80.0, 256), p0, width, 0.0, spinor, params)
        with _counted_runs() as runs:
            with pytest.raises(NumericalGuardError, match="characteristics"):
                evolve(fld, t_final, params)
        assert runs == [123]

    def test_cli_exit_codes(self, tmp_path):
        cfg = tmp_path / "shrink.cfg"
        cfg.write_text(SHRINK_CONFIG)
        argv = ["evolve", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 0
        explicit = tmp_path / "explicit.cfg"
        explicit.write_text(SHRINK_CONFIG + f"dt = {7.0 / 226}\n")
        assert cli.main(["evolve", "--config", str(explicit), "--output",
                         str(tmp_path / "e.csv")]) == 2
        with self._driven(1.0 + 2e-4):
            assert cli.main(argv) == 3
        cases = [(Grid1D(40.0, 256),) + case for case in WRAPPING]
        cases.append((Grid1D(80.0, 256),) + BARELY_WRAPPING)
        for case in cases:
            cfg.write_text(_config(*case))
            assert cli.main(argv) == 3


def _splitting_constant(params, dimension):
    """g c m c^2 ||[Cz, Cx]|| / hbar^2, the norm taken from the matrices."""
    cx, _, cz = couplings((dimension - 1) / 2)
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
        # within the reference step's limits: c dt <= 3 dx and the step's
        # own 1e-4 guard
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


class TestPacketRunProperties:
    """Drawn packets of both spins on a small grid: every run that returns
    lies within its measured error of the exact reference after one run,
    and where g m > 0 the predicted error is within 2x of the measured one;
    every refused draw raises a documented error and is counted."""

    small = Grid1D(40.0, 256)

    def test_runs_keep_within_their_measured_error(self):
        outcomes, checked = collections.Counter(), collections.Counter()
        runs = []
        run = wavepacket._run

        def record(*args):
            runs.append(args[4])
            return run(*args)

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(dimension=st.sampled_from([3, 2]), m=st.floats(0.0, 2.0),
               g=st.floats(0.0, 2.0), p0=st.floats(-6.0, 6.0),
               width=st.floats(0.7, 3.0), center=st.floats(-6.0, 6.0),
               spinor=st.lists(st.tuples(st.floats(-1.0, 1.0),
                                         st.floats(-1.0, 1.0)),
                               min_size=3, max_size=3),
               reach=st.floats(0.5, 2.5))
        def draw(dimension, m, g, p0, width, center, spinor, reach):
            params = PhysicalParams(c=1.0, m=m, g=g)
            xi = [complex(re, im) for re, im in spinor[:dimension]]
            # the packet turns near t = |p0| / g; the horizon reaches past
            # that but stops before a band moving at c reaches the edge
            edge = (self.small.length / 2 - abs(center) - 5 * width) / params.c
            t_final = max(0.0, min(reach * (abs(p0) + 1.0) / max(g, 0.1), edge))
            runs.clear()
            try:
                fld = gaussian_packet(self.small, p0, width, center, xi, params)
                result = evolve(fld, t_final, params, record_stride=10**9)
            except (ParameterError, NumericalGuardError) as exc:
                outcomes[type(exc).__name__] += 1
                return
            outcomes["ran"] += 1
            checked["shrank"] += len(runs) > 1
            gap = result.final.amplitudes - result.reference.amplitudes
            distance = math.sqrt(np.sum(np.abs(gap) ** 2) * self.small.dx)
            # split_error sums the same squares in another order
            assert distance <= result.split_error * (1.0 + 1e-12)
            assert result.split_error <= result.split_error_limit
            # |<P psi, psi> - <P phi, phi>| <= (|psi| + |phi|) |psi - phi|
            want = band_populations(result.reference, params).as_tuple()
            assert np.max(np.abs(result.trace[-1, 3:] - want)) <= (
                2.0 * result.split_error + 1e-12)
            # the prediction follows the line, not the periodic grid, whose
            # potential jumps at the edge: check it where the packet's tail
            # there stays below e^-24 of its peak
            far = abs(center) + 7 * width + params.c * t_final <= self.small.length / 2
            if g * m > 0 and far and result.split_error > 1e-9:
                checked["predicted"] += 1
                ratio = result.predicted_error / result.split_error
                assert 0.5 <= ratio <= 2.0, (ratio, result.split_error)

        with mock.patch.object(wavepacket, "_run", record):
            draw()
        assert outcomes["ran"] >= 0.75 * sum(outcomes.values()), outcomes
        assert checked["shrank"] == 0 and checked["predicted"] >= 20, checked

    def test_each_run_is_made_once(self):
        # both spins, m in [0, 5], g in [0, 20], grids 40 or 80 long of 256
        # to 1024 points: a draw returns after exactly one run or raises a
        # documented error, and one whose momentum the slope sweeps past
        # -pi/dx is refused before any step
        outcomes = collections.Counter()

        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(dimension=st.sampled_from([3, 2]), m=st.floats(0.0, 5.0),
               g=st.floats(0.0, 20.0), length=st.sampled_from([40.0, 80.0]),
               points=st.sampled_from([256, 512, 1024]),
               p0=st.floats(-10.0, 10.0), width=st.floats(0.7, 3.0),
               t_final=st.floats(0.0, 15.0))
        def draw(dimension, m, g, length, points, p0, width, t_final):
            params = PhysicalParams(m=m, g=g)
            grid = Grid1D(length, points)
            try:
                fld = gaussian_packet(grid, p0, width, 0.0,
                                      _SPINORS[dimension], params)
            except ParameterError:
                outcomes["no packet"] += 1
                return
            weights = np.sum(np.abs(np.fft.fft(fld.amplitudes, axis=0)) ** 2,
                             axis=1)
            swept = grid.k - g * t_final / params.hbar < -math.pi / grid.dx
            wraps = np.sum(weights[swept]) > 1e-6 * np.sum(weights)
            with _counted_runs() as runs:
                try:
                    evolve(fld, t_final, params, record_stride=10**9)
                except BoundaryContaminationError as exc:
                    wrapped = "momentum edge" in str(exc)
                    assert wrapped == wraps and len(runs) == (not wraps)
                    outcomes["wrapped" if wrapped else "edge"] += 1
                    return
                except (ParameterError, NumericalGuardError) as exc:
                    assert not wraps and len(runs) <= 1
                    outcomes[type(exc).__name__] += 1
                    return
            assert not wraps and len(runs) == 1
            outcomes["ran"] += 1

        draw()
        assert outcomes["ran"] >= 10 and outcomes["wrapped"] >= 5, outcomes


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

    def test_classification(self, tmp_path):
        # the scattering_run setup through the CLI: the snapshot's band
        # densities split the final state into the reflected (+, x < 0),
        # localized (0) and transmitted (-, x > 0) packets
        cfg = tmp_path / "scatter.cfg"
        snap = tmp_path / "snap.csv"
        cfg.write_text("p0 = 10.0\nwidth = 2.0\nm = 0.85\ng = 1.5\n"
                       "project_band = +\nt_final = 20.0\ngrid_points = 1024\n"
                       f"grid_length = 80.0\nsnapshot_path = {snap}\n")
        assert cli.main(["evolve", "--config", str(cfg),
                         "--output", str(tmp_path / "trace.csv")]) == 0
        rows = [line for line in snap.read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0].split(",")[7:] == ["abs2_plus_band", "abs2_zero_band",
                                          "abs2_minus_band", "abs2_total"]
        table = np.loadtxt(rows[1:], delimiter=",")
        x, plus, zero, minus, total = table[:, [0, 7, 8, 9, 10]].T
        dx = x[1] - x[0]
        reflected = np.sum(plus[x < 0]) * dx
        localized = np.sum(zero) * dx
        transmitted = np.sum(minus[x > 0]) * dx
        formula = lz_spin1(SCATTER, SCATTER.rest_energy)
        assert reflected == pytest.approx(formula.gamma_pp, abs=0.05)
        assert localized == pytest.approx(formula.gamma_p0, abs=0.05)
        assert transmitted == pytest.approx(formula.gamma_pm, abs=0.05)
        # the three packets have separated: almost nothing lies elsewhere
        # (1.3e-6 measured)
        residual = np.sum(total) * dx - reflected - localized - transmitted
        assert abs(residual) < 1e-4

    def test_classification_stationary_precondition(self, scattering_run):
        tail = scattering_run.trace[-max(2, scattering_run.trace.shape[0] // 10):,
                                    3:6]
        assert np.max(tail.max(axis=0) - tail.min(axis=0)) < 1e-3


class TestComponentMajorLayout:
    """Fields are held component-major; every reader and the step match the
    row-major formulas, whichever order the amplitudes arrive in.  A silent
    fall back to C order would keep the numbers and lose the contiguous
    rows, so the order of every returned field is checked too."""

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(points=st.sampled_from([256, 512]), dimension=st.sampled_from([2, 3]),
           order=st.sampled_from("CF"), seed=st.integers(0, 2**32 - 1))
    def test_readers_and_step_match_row_major_formulas(self, points, dimension,
                                                       order, seed):
        grid = Grid1D(40.0, points)
        rng = np.random.default_rng(seed)
        shape = (points, dimension)
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        raw /= math.sqrt(np.sum(np.abs(raw) ** 2) * grid.dx)
        given_amps = np.asarray(raw, order=order)
        fld = wavepacket.SpinorField(grid, given_amps)
        assert fld.amplitudes.flags.f_contiguous
        assert (fld.amplitudes is given_amps) == (order == "F")  # one conversion
        assert fld.copy().amplitudes.flags.f_contiguous
        a = np.ascontiguousarray(raw)  # the row-major reference layout

        assert abs(fld.norm() - np.vdot(a, a).real * grid.dx) < 1e-14
        parts = a.view(float)
        rho = np.einsum("ij,ij->i", parts, parts)
        assert np.max(np.abs(density(fld) - rho)) < 1e-14

        projectors, _ = _grid_projectors(grid, SCATTER, dimension)
        psi_k = np.fft.fft(a, axis=0)
        weights = np.einsum("ki,bkij,kj->b", psi_k.conj(), projectors,
                            psi_k).real * grid.dx / points
        pops = band_populations(fld, SCATTER).as_tuple()
        if dimension == 2:
            pops = (pops[0], pops[2])
        assert np.max(np.abs(np.array(pops) - weights)) < 1e-14
        comps = band_components(fld, SCATTER)
        reference = np.fft.ifft(np.einsum("bkij,kj->bki", projectors, psi_k),
                                axis=1)
        assert comps.shape == reference.shape
        assert np.max(np.abs(comps - reference)) < 1e-14

        dt = default_time_step(grid, SCATTER, 1.0, dimension)
        half = np.exp(-0.5j * SCATTER.g * grid.x * dt / SCATTER.hbar)[:, None]
        kinetic = rotor_matrix(
            wavepacket._corrected_rotors(grid.k, SCATTER, dt, dimension),
            dimension)  # (N, d, d)
        mixed = np.einsum("kij,kj->ki", kinetic, np.fft.fft(a * half, axis=0))
        stepped = step(fld, dt, SCATTER)
        assert stepped.amplitudes.flags.f_contiguous
        assert np.max(np.abs(stepped.amplitudes
                             - np.fft.ifft(mixed, axis=0) * half)) < 1e-14

    @pytest.mark.parametrize("spinor", [(1.0, 0.0, 0.0), (0.8, 0.6)])
    @pytest.mark.parametrize("order", "CF")
    def test_evolve_returns_component_major_fields(self, spinor, order):
        grid = Grid1D(80.0, 256)
        packet = gaussian_packet(grid, 2.0, 4.0, 0.0, spinor, SCATTER)
        fld = wavepacket.SpinorField(
            grid, np.asarray(packet.amplitudes, order=order))
        result = evolve(fld, 1.0, SCATTER)
        assert result.steps > 0
        assert result.final.amplitudes.flags.f_contiguous
        assert result.reference.amplitudes.flags.f_contiguous

    @pytest.mark.parametrize("point, guarded", [
        (0, True), (2, True), (3, False), (-4, False), (-3, True), (-1, True),
    ])
    def test_edge_guard_reads_both_edges(self, point, guarded):
        # the guard gathers the first and the last 3 points of every component
        grid = Grid1D(40.0, 256)
        amps = np.zeros((256, 3), complex)
        amps[128, 0] = 1.0
        amps[point, 2] = 1e-2j  # 1e-4 of the norm
        fld = wavepacket.SpinorField(grid, amps)
        if guarded:
            with pytest.raises(BoundaryContaminationError):
                evolve(fld, 0.0, SCATTER)
        else:
            assert evolve(fld, 0.0, SCATTER).edge_weight_max == 0.0

    @pytest.mark.parametrize("kind", ["C complex", "C real", "F real"])
    def test_readers_accept_an_array_assigned_later(self, kind):
        # only the constructor converts; the readers must still read a
        # C-ordered or real array assigned to the attribute afterwards
        grid = Grid1D(80.0, 256)
        packet = gaussian_packet(grid, 2.0, 4.0, 1.0, (0.8, 0.6, 0.0), SCATTER)
        amps = packet.amplitudes if kind == "C complex" else packet.amplitudes.real
        amps = np.asarray(amps, order=kind[0])
        built = wavepacket.SpinorField(grid, amps.copy())
        fld = wavepacket.SpinorField(grid, built.amplitudes)
        fld.amplitudes = amps
        assert fld.norm() == pytest.approx(built.norm(), abs=1e-14)
        assert density(fld).shape == (grid.points,)
        assert np.max(np.abs(density(fld) - density(built))) < 1e-14
        assert np.max(np.abs(np.subtract(band_populations(fld, SCATTER).as_tuple(),
                                         band_populations(built, SCATTER).as_tuple()))) < 1e-14
        assert np.max(np.abs(step(fld, 0.01, SCATTER).amplitudes
                             - step(built, 0.01, SCATTER).amplitudes)) < 1e-14
