import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dense_reference import ladder_matrix, quadratures, spin_matrices
from maxwellsim import (
    Grid1D,
    GridCoverageError,
    IonParams,
    NumericalGuardError,
    ParameterError,
    TruncationError,
    band_components,
    band_populations,
    build_maxwell_hamiltonian,
    coherent_initial_state,
    default_readout_grid,
    evolve_ion,
    gaussian_packet,
    map_parameters,
    position_wavefunction,
    sideband_toolbox,
)
from maxwellsim import ion_emulator, spin_algebra
from maxwellsim.landau_zener import gap_ratio
from maxwellsim.ion_emulator import (
    _bessel_weights,
    _hermite_basis,
    _ladder_block,
    _ladder_kernel,
    _momentum_basis,
)

TWO_PI = 2.0 * math.pi

# feasibility-scale working point (angular kHz, times in ms)
PAPER_ION = dict(eta=0.05, omega1_tilde=TWO_PI * 10.0, omega1=TWO_PI * 1.0,
                 omega2_tilde=TWO_PI * 50.0)


def small_ion(**overrides):
    defaults = dict(eta=0.05, omega1_tilde=1.0, omega1=0.5, omega2_tilde=0.8,
                    n_fock=16, reduce_ion2=True)
    defaults.update(overrides)
    return IonParams(**defaults)


class TestIonParams:

    def test_validation(self):
        with pytest.raises(ValueError):
            small_ion(eta=0.0)
        with pytest.raises(ValueError):
            small_ion(omega1=-1.0)
        with pytest.raises(ValueError):
            small_ion(n_fock=8)

    @pytest.mark.parametrize("name, value", [
        *(pytest.param(name, value, id=f"{name}-{value}")
          for name in ("eta", "omega1_tilde", "omega1", "omega2_tilde",
                       "delta_spread")
          for value in (math.nan, math.inf)),
        pytest.param("n_fock", 16.5, id="n_fock-float"),
        pytest.param("reduce_ion2", "no", id="reduce_ion2-string"),
    ])
    def test_refuses_non_finite_fields(self, name, value):
        # a NaN delta_spread once passed, and evolve_ion ended on numpy's
        # "SVD did not converge"; a float n_fock once built a state of
        # non-integer dimension, and a string reduce_ion2 ran reduced
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            small_ion(**{name: value})

    def test_lamb_dicke_warning(self):
        with pytest.warns(UserWarning):
            small_ion(eta=0.3)

    def test_dimensions(self):
        assert small_ion().dim == 48
        assert small_ion(reduce_ion2=False).dim == 96
        assert small_ion(reduce_ion2=np.False_, n_fock=np.int64(16)).dim == 96

    def test_packet_width(self):
        assert small_ion(delta_spread=2.0).packet_width == pytest.approx(
            2.0 * math.sqrt(2.0))


class TestQuadratures:

    def test_ground_state_variances(self):
        x, p = quadratures(1.3, 24)
        ground = np.zeros(24)
        ground[0] = 1.0
        assert np.real(ground @ (x @ x @ ground)) == pytest.approx(1.3**2)
        assert np.real(ground @ (p @ p @ ground)) == pytest.approx(
            1.0 / (4.0 * 1.3**2))

    def test_hermitian(self):
        x, p = quadratures(0.7, 16)
        assert np.allclose(x, x.conj().T)
        assert np.allclose(p, p.conj().T)

    def test_commutator_truncation(self):
        n = 20
        x, p = quadratures(1.0, n)
        commutator = (x @ p - p @ x) / 1j
        expected = np.eye(n)
        expected[-1, -1] = -(n - 1)
        assert np.allclose(commutator, expected, atol=1e-13)


class TestSidebandToolbox:

    def test_outputs_hermitian(self):
        ion = small_ion(reduce_ion2=False)
        for pair in ("ab", "bc", "a'b'"):
            for kind in ("carrier", "red", "blue"):
                h = ladder_matrix(sideband_toolbox(ion, pair, kind, 1.1, 0.4), ion.n_fock)
                assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_carrier_is_pair_coupling(self):
        ion = small_ion()
        h = ladder_matrix(sideband_toolbox(ion, "ab", "carrier", 2.0, 0.0), ion.n_fock)
        sx_ab = np.zeros((3, 3), dtype=complex)
        sx_ab[0, 1] = sx_ab[1, 0] = 1.0
        assert np.allclose(h, np.kron(sx_ab, np.eye(ion.n_fock)))

    def test_red_plus_blue_makes_momentum_coupling(self):
        ion = small_ion()
        rabi = 1.7
        h = ladder_matrix(sideband_toolbox(ion, "ab", "red", rabi, -math.pi / 2)
                          + sideband_toolbox(ion, "ab", "blue", rabi, +math.pi / 2),
                          ion.n_fock)
        sx_ab = np.zeros((3, 3), dtype=complex)
        sx_ab[0, 1] = sx_ab[1, 0] = 1.0
        p = quadratures(ion.delta_spread, ion.n_fock)[1]
        target = ion.delta_spread * rabi * ion.eta * np.kron(sx_ab, p)
        assert np.max(np.abs(h - target)) < 1e-14

    def test_red_plus_blue_zero_phase_makes_position_coupling(self):
        ion = small_ion(reduce_ion2=False)
        rabi = 0.9
        h = ladder_matrix(sideband_toolbox(ion, "a'b'", "red", rabi, 0.0)
                          + sideband_toolbox(ion, "a'b'", "blue", rabi, 0.0), ion.n_fock)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        x = quadratures(ion.delta_spread, ion.n_fock)[0]
        target = (rabi * ion.eta / 2.0) * np.kron(
            np.kron(np.eye(3), sigma_x), x) / ion.delta_spread
        assert np.max(np.abs(h - target)) < 1e-14

    def test_bad_arguments(self):
        ion = small_ion()
        with pytest.raises(ValueError):
            sideband_toolbox(ion, "ac", "red", 1.0)
        with pytest.raises(ValueError):
            sideband_toolbox(ion, "ab", "green", 1.0)
        with pytest.raises(ValueError):
            sideband_toolbox(ion, "a'b'", "red", 1.0)  # ion 2 reduced away


class TestCompositeHamiltonian:

    def test_pairwise_couplings_build_spin1(self):
        sx_ab = np.zeros((3, 3), dtype=complex)
        sx_ab[0, 1] = sx_ab[1, 0] = 1.0
        sx_bc = np.zeros((3, 3), dtype=complex)
        sx_bc[1, 2] = sx_bc[2, 1] = 1.0
        sx, _, sz = spin_matrices(1)
        assert np.allclose(sx_ab + sx_bc, math.sqrt(2.0) * sx)
        sz_ab = np.diag([1.0, -1.0, 0.0])
        sz_bc = np.diag([0.0, 1.0, -1.0])
        assert np.allclose(sz_ab + sz_bc, sz)

    def test_direct_assembly_matches_toolbox(self):
        ion = small_ion(reduce_ion2=False)
        h = ladder_matrix(build_maxwell_hamiltonian(ion), ion.n_fock)
        sx, _, sz = spin_matrices(1)
        x, p = quadratures(ion.delta_spread, ion.n_fock)
        eye2 = np.eye(2)
        eye_n = np.eye(ion.n_fock)
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = (
            math.sqrt(2.0) * ion.eta * ion.delta_spread * ion.omega1_tilde
            * np.kron(np.kron(sx, eye2), p)
            + ion.omega1 * np.kron(np.kron(sz, eye2), eye_n)
            + ion.eta * ion.omega2_tilde / ion.delta_spread
            * np.kron(np.kron(np.eye(3), sigma_x), x)
        )
        assert np.max(np.abs(h - expected)) < 1e-13

    def test_hermitian_and_conserves_ion2(self):
        ion = small_ion(reduce_ion2=False)
        h = ladder_matrix(build_maxwell_hamiltonian(ion), ion.n_fock)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        sigma2x = np.kron(np.kron(np.eye(3), np.array([[0, 1], [1, 0]])),
                          np.eye(ion.n_fock))
        assert np.max(np.abs(h @ sigma2x - sigma2x @ h)) < 1e-13

    def test_mass_only_spectrum(self):
        ion = small_ion(omega1_tilde=0.0, omega2_tilde=0.0, omega1=2.0)
        eigenvalues = np.sort(np.linalg.eigvalsh(
            ladder_matrix(build_maxwell_hamiltonian(ion), ion.n_fock)))
        n = ion.n_fock
        expected = np.sort(np.concatenate(
            [-2.0 * np.ones(n), np.zeros(n), 2.0 * np.ones(n)]))
        assert np.allclose(eigenvalues, expected, atol=1e-12)


class TestParameterMapping:

    def test_feasibility_numbers(self):
        p = map_parameters(IonParams(**PAPER_ION))
        assert round(gap_ratio(p, p.rest_energy), 3) == 0.566
        assert p.c == pytest.approx(math.sqrt(2.0) * 0.05 * TWO_PI * 10.0)
        assert p.rest_energy == pytest.approx(TWO_PI * 1.0)
        assert p.g == pytest.approx(0.05 * TWO_PI * 50.0)

    def test_ratio_consistency(self):
        # r = (hbar W1)^2 / (hbar c g) = W1^2 / (sqrt(2) eta^2 W1t W2t)
        ion = small_ion()
        p = map_parameters(ion)
        assert gap_ratio(p, p.rest_energy) == pytest.approx(
            ion.omega1**2 / (math.sqrt(2.0) * ion.eta**2 * ion.omega1_tilde
                             * ion.omega2_tilde), rel=1e-12)

    def test_massless_limit(self):
        p = map_parameters(small_ion(omega1=0.0))
        assert p.m == 0.0
        assert gap_ratio(p, p.rest_energy) == 0.0

    def test_zero_slope(self):
        # without a slope there is no crossing, so no gap ratio
        p = map_parameters(small_ion(omega2_tilde=0.0))
        assert p.g == 0.0
        with pytest.raises(ParameterError):
            gap_ratio(p, p.rest_energy)


class TestCoherentState:

    def test_rest_state(self):
        state = coherent_initial_state(small_ion(n_fock=32), 0.0, (1, 0, 0))
        assert abs(state.amplitudes[0, 0, 0]) == pytest.approx(1.0)

    def test_poisson_statistics(self):
        ion = small_ion(n_fock=64)
        state = coherent_initial_state(ion, 4.0, (1, 0, 0))
        weights = np.abs(state.amplitudes[0, 0]) ** 2
        n = np.arange(64)
        assert np.sum(n * weights) == pytest.approx(16.0, abs=1e-8)
        from scipy.special import gammaln
        pmf = np.exp(-16.0 + n * math.log(16.0) - gammaln(n + 1))
        assert np.max(np.abs(weights - pmf)) < 1e-12

    def test_displacement_expectations(self):
        ion = small_ion(n_fock=64, delta_spread=1.4)
        state = coherent_initial_state(ion, 3.0, (0, 1, 0))
        x, p = quadratures(ion.delta_spread, ion.n_fock)
        amps = state.amplitudes
        x_mean = np.real(np.einsum("sjn,nm,sjm->", amps.conj(), x, amps))
        p_mean = np.real(np.einsum("sjn,nm,sjm->", amps.conj(), p, amps))
        assert x_mean == pytest.approx(0.0, abs=1e-8)
        assert p_mean == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("p0", [math.nan, math.inf])
    def test_refuses_non_finite_momentum(self, p0):
        # once a NaN state, which propagation then reported as not converged
        with pytest.raises(ParameterError, match="p0 must be finite"):
            coherent_initial_state(small_ion(n_fock=32), p0, (1, 0, 0))

    def test_truncation_headroom_guard(self):
        with pytest.raises(TruncationError):
            coherent_initial_state(small_ion(n_fock=16), 4.0, (1, 0, 0))
        # a NaN tail fails the guard too, not only a large one
        with pytest.raises(TruncationError):
            ion_emulator._fock_tail(np.full((3, 1, 16), np.nan))

    def test_band_projection(self):
        ion = IonParams(**PAPER_ION, n_fock=96)
        state = coherent_initial_state(ion, 4.0, (1, 0, 0), project_band="+")
        grid = default_readout_grid(ion)
        pops = band_populations(position_wavefunction(state, grid),
                                map_parameters(ion))
        assert pops.w_plus == pytest.approx(1.0, abs=1e-8)


class TestPositionReadout:

    def test_ground_state_gaussian(self):
        ion = small_ion(n_fock=32, delta_spread=0.9)
        state = coherent_initial_state(ion, 0.0, (1, 0, 0))
        grid = default_readout_grid(ion)
        fld = position_wavefunction(state, grid)
        rho = np.sum(np.abs(fld.amplitudes) ** 2, axis=1)
        variance = np.sum(grid.x**2 * rho) * grid.dx
        assert variance == pytest.approx(0.9**2, rel=1e-6)

    def test_coherent_state_matches_continuum_packet(self):
        ion = IonParams(**PAPER_ION, n_fock=64)
        state = coherent_initial_state(ion, 4.0, (1, 0, 0))
        grid = default_readout_grid(ion)
        fld = position_wavefunction(state, grid)
        reference = gaussian_packet(grid, 4.0, ion.packet_width, 0.0,
                                    (1, 0, 0), map_parameters(ion))
        overlap = abs(np.sum(fld.amplitudes.conj() * reference.amplitudes)
                      * grid.dx)
        assert overlap > 1.0 - 1e-6

    def test_top_mode_quadrature_norm(self):
        # the highest retained eigenfunction integrates to one on a grid
        # that spans its classical turning points with margin
        n_fock = 128
        sigma = math.sqrt(2.0)
        half = sigma * math.sqrt(2 * n_fock + 1) + 8.0
        points = 2 ** math.ceil(math.log2(2 * half / 0.05))
        grid = Grid1D(2 * half, points)
        basis = _hermite_basis(grid, n_fock, 1.0)
        norm = np.sum(basis[n_fock - 1] ** 2) * grid.dx
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_grid_coverage_guard(self):
        ion = small_ion(n_fock=64)
        state = coherent_initial_state(ion, 0.0, (1, 0, 0))
        with pytest.raises(GridCoverageError):
            position_wavefunction(state, Grid1D(10.0, 256))


class TestIonEvolution:

    def test_free_case_band_populations_constant(self):
        ion = IonParams(**{**PAPER_ION, "omega2_tilde": 0.0}, n_fock=64)
        state = coherent_initial_state(ion, 3.0, (1, 0, 0), project_band="+")
        trajectory = evolve_ion(state, ion, 0.3, n_records=10)
        weights = trajectory.trace[:, 5:8]
        assert np.max(np.abs(weights - weights[0])) < 1e-8

    def test_propagator_composes(self):
        ion = small_ion(n_fock=24)
        state = coherent_initial_state(ion, 1.5, (1, 0, 0))
        one = evolve_ion(state, ion, 0.7, n_records=2).final
        two = evolve_ion(one, ion, 0.7, n_records=2).final
        direct = evolve_ion(state, ion, 1.4, n_records=2).final
        assert np.max(np.abs(two.amplitudes - direct.amplitudes)) < 1e-10

    def test_energy_conserved(self):
        ion = small_ion(n_fock=48)
        h = ladder_matrix(build_maxwell_hamiltonian(ion), ion.n_fock)

        def energy(state):
            v = state.amplitudes.ravel()
            return np.real(np.vdot(v, h @ v))

        state = coherent_initial_state(ion, 2.0, (1, 0, 0))
        final = evolve_ion(state, ion, 2.0, n_records=5).final
        assert energy(final) == pytest.approx(energy(state), rel=1e-8)

    def test_reduced_matches_full_ion2(self):
        kwargs = dict(eta=0.05, omega1_tilde=TWO_PI * 10.0, omega1=TWO_PI * 1.0,
                      omega2_tilde=TWO_PI * 50.0, n_fock=48)
        reduced = IonParams(**kwargs, reduce_ion2=True)
        full = IonParams(**kwargs, reduce_ion2=False)
        state_r = coherent_initial_state(reduced, 2.0, (1, 0, 0))
        state_f = coherent_initial_state(full, 2.0, (1, 0, 0))
        run_r = evolve_ion(state_r, reduced, 0.2, n_records=6)
        run_f = evolve_ion(state_f, full, 0.2, n_records=6)
        assert np.max(np.abs(run_r.trace - run_f.trace)) < 1e-10

    def test_zero_duration_repeats_initial_row(self):
        ion = small_ion(n_fock=24)
        state = coherent_initial_state(ion, 1.0, (0, 1, 0))
        trajectory = evolve_ion(state, ion, 0.0, n_records=4)
        assert trajectory.trace.shape == (4, 9)
        assert np.array_equal(trajectory.trace,
                              np.tile(trajectory.trace[0], (4, 1)))
        assert np.array_equal(trajectory.trace[0, 1:4],
                              np.sum(np.abs(state.amplitudes) ** 2, axis=(1, 2)))
        assert np.array_equal(trajectory.final.amplitudes, state.amplitudes)

    def test_trajectory_layout(self):
        ion = small_ion(n_fock=24)
        state = coherent_initial_state(ion, 1.0, (1, 0, 0))
        trajectory = evolve_ion(state, ion, 0.5, n_records=7)
        assert trajectory.trace.shape == (7, 9)
        assert trajectory.trace[0, 0] == 0.0
        assert trajectory.trace[-1, 0] == pytest.approx(0.5)
        pops = trajectory.trace[:, 1:4].sum(axis=1)
        assert np.allclose(pops, 1.0, atol=1e-10)


class TestMomentumReadout:
    """evolve_ion reads bands in the truncated-p eigenbasis; the position-grid
    readout (position_wavefunction plus band_populations) is the reference."""

    @pytest.mark.parametrize("reduce_ion2", [True, False], ids=["reduced", "full"])
    @pytest.mark.parametrize("omega2_tilde, spinor, band", [
        (TWO_PI * 50.0, (1, 1, 1), None),
        (0.0, (1, 1, 1), None),
        (TWO_PI * 50.0, (1, 0, 0), "+"),
    ], ids=["slope", "free", "projected"])
    def test_matches_grid_readout(self, reduce_ion2, omega2_tilde, spinor, band):
        ion = IonParams(**{**PAPER_ION, "omega2_tilde": omega2_tilde},
                        n_fock=256, reduce_ion2=reduce_ion2)
        state = coherent_initial_state(ion, 7.0, spinor, project_band=band)
        trajectory = evolve_ion(state, ion, 0.5, n_records=3)
        grid = default_readout_grid(ion)
        physical = map_parameters(ion)
        x = quadratures(ion.delta_spread, ion.n_fock)[0]
        for row, current in ((trajectory.trace[0], state),
                             (trajectory.trace[-1], trajectory.final)):
            reference = band_populations(position_wavefunction(current, grid),
                                         physical)
            assert np.max(np.abs(row[5:8] - reference.as_tuple())) < 1e-12
            x_mean = np.real(np.sum(current.amplitudes.conj()
                                    * (current.amplitudes @ x.T)))
            assert row[4] == pytest.approx(x_mean, rel=1e-12, abs=1e-12)
            levels = np.sum(np.abs(current.amplitudes) ** 2, axis=(1, 2))
            assert np.max(np.abs(row[1:4] - levels)) < 1e-14

    def test_projection_matches_grid_filter(self):
        # the grid filter of the initial state, taken back to the Fock basis
        ion = IonParams(**PAPER_ION, n_fock=256)
        state = coherent_initial_state(ion, 7.0, (1, 1, 1))
        projected = coherent_initial_state(ion, 7.0, (1, 1, 1), project_band="0")
        grid = default_readout_grid(ion)
        comps = band_components(position_wavefunction(state, grid),
                                map_parameters(ion))
        basis = _hermite_basis(grid, ion.n_fock, ion.delta_spread)
        fock = (basis @ comps[1]).T * grid.dx
        fock /= np.linalg.norm(fock)
        assert np.max(np.abs(projected.amplitudes[:, 0] - fock)) < 1e-12

    def test_rejects_state_outside_ion2_sector(self):
        ion = small_ion(n_fock=24, reduce_ion2=False)
        state = coherent_initial_state(ion, 1.0, (1, 0, 0))
        state.amplitudes[:, 1] *= -1.0  # ion 2 along -sigma2_x
        with pytest.raises(ValueError, match="sigma2_x"):
            evolve_ion(state, ion, 0.1, n_records=2)

    @pytest.mark.parametrize("built, other", [
        # a (3, 2, 128) state under 256 Fock levels: once a numpy broadcast error
        (dict(n_fock=128, reduce_ion2=False), dict(n_fock=256, reduce_ion2=False)),
        # another mass term: once evolved silently under the second
        (dict(n_fock=128, omega1=TWO_PI), dict(n_fock=128, omega1=3.0 * TWO_PI)),
    ], ids=["shape", "physics"])
    def test_rejects_ion_other_than_the_states(self, built, other):
        state = coherent_initial_state(small_ion(**built), 1.0, (1, 0, 0))
        with pytest.raises(ParameterError, match="state was built for"):
            evolve_ion(state, small_ion(**other), 0.1, n_records=2)

    @pytest.mark.parametrize("inputs, match", [
        ({"t_final": math.nan}, "t_final"),
        ({"t_final": math.inf}, "t_final"),
        ({"n_records": 2.5}, "n_records"),
    ])
    def test_refuses_invalid_run_inputs(self, inputs, match):
        # called directly, evolve_ion must not end on a bare ValueError,
        # OverflowError or TypeError
        ion = small_ion(n_fock=24)
        state = coherent_initial_state(ion, 1.0, (1, 0, 0))
        with pytest.raises(ParameterError, match=match):
            evolve_ion(state, ion, **{"t_final": 0.1, "n_records": 2, **inputs})


def _dense_records(state, ion, times):
    """Reference: dense ``expm(-i H t)`` of the assembled toolbox Hamiltonian."""
    from scipy.linalg import expm

    h = ladder_matrix(build_maxwell_hamiltonian(ion), ion.n_fock)
    v = state.amplitudes.ravel()
    return [(expm(-1j * h * t) @ v).reshape(state.amplitudes.shape) for t in times]


class TestMatrixFreeHamiltonian:
    """The ladder kernel against the dense matrix of the toolbox Hamiltonian."""

    @staticmethod
    def _check_kernel(ion):
        h = build_maxwell_hamiltonian(ion)
        apply = _ladder_kernel(len(h.zero), ion.n_fock)
        rng = np.random.default_rng(7)
        dense = ladder_matrix(h, ion.n_fock)
        for scale in (1.0, -2j / 3.0):
            # twice per scale: the kernel's work buffer is reused
            for _ in range(2):
                v = (rng.normal(size=(len(h.zero), ion.n_fock))
                     + 1j * rng.normal(size=(len(h.zero), ion.n_fock)))
                got = apply(_ladder_block(h, scale), v, np.empty_like(v))
                want = scale * (dense @ v.ravel())
                assert np.max(np.abs(got.ravel() - want)) < 1e-13

    @pytest.mark.parametrize("reduce_ion2", [True, False], ids=["reduced", "full"])
    @pytest.mark.parametrize("zeroed", [None, "omega1", "omega1_tilde", "omega2_tilde"])
    def test_matches_assembled_hamiltonian(self, reduce_ion2, zeroed):
        overrides = {zeroed: 0.0} if zeroed else {}
        self._check_kernel(IonParams(**{**PAPER_ION, **overrides}, n_fock=24,
                                     reduce_ion2=reduce_ion2))

    @pytest.mark.parametrize("reduce_ion2", [True, False], ids=["reduced", "full"])
    @pytest.mark.parametrize("zeroed", [None, "omega1", "omega1_tilde", "omega2_tilde"])
    def test_odd_fock_matches_assembled_hamiltonian(self, reduce_ion2, zeroed):
        overrides = {zeroed: 0.0} if zeroed else {}
        self._check_kernel(IonParams(**{**PAPER_ION, **overrides}, n_fock=25,
                                     reduce_ion2=reduce_ion2))



# Large mass (which moves nothing in Fock space) makes R t span several
# Chebyshev blocks while the packet stays far from the truncation.
_BLOCKS_ION = dict(eta=0.05, omega1_tilde=TWO_PI * 10.0, omega1=TWO_PI * 40.0,
                   omega2_tilde=TWO_PI * 5.0)


class TestMomentumBasis:
    """``_momentum_basis`` against the truncated ``p`` of the dense reference:
    residual, orthonormality and the spectrum's symmetry."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n_fock=st.integers(16, 600), delta_spread=st.floats(0.05, 20.0))
    def test_eigenpairs_of_truncated_momentum(self, n_fock, delta_spread):
        ion = small_ion(n_fock=n_fock, delta_spread=delta_spread)
        p, phase, vectors, _, _ = _momentum_basis.__wrapped__(ion)
        p_op = quadratures(delta_spread, n_fock)[1]
        eigenvectors = phase.conj()[:, None] * vectors  # on the Fock basis
        p_max = np.max(np.abs(p))
        residual = np.linalg.norm(p_op @ eigenvectors - eigenvectors * p)
        assert residual <= 1e-13 * p_max
        assert np.linalg.norm(vectors.T @ vectors - np.eye(n_fock)) <= 1e-13
        assert vectors.dtype == np.float64 and p.shape == (n_fock,)
        assert np.all(np.diff(p) > 0)
        assert np.max(np.abs(p + p[::-1])) <= 1e-13 * p_max

    def test_odd_fock_has_one_zero_mode(self):
        p, _, vectors, _, _ = _momentum_basis.__wrapped__(small_ion(n_fock=17))
        assert p[8] == 0.0
        # the p = 0 vector lives on the even Fock levels alone
        assert np.max(np.abs(vectors[1::2, 8])) == 0.0


class TestChebyshevPropagation:

    def test_bessel_weights(self):
        from scipy.special import jv

        z = np.array([1e-3, 0.5, 7.3, 33.0, 64.0])
        weights = _bessel_weights(z)
        k = np.arange(weights.shape[1] + 40)
        want = (2.0 - (k == 0)) * jv(k[None, :], z[:, None])
        assert np.max(np.abs(weights - want[:, :weights.shape[1]])) < 1e-14
        # the cut drops only weights below 1e-14
        assert np.max(np.abs(want[:, weights.shape[1]:])) < 1e-14

    @pytest.mark.parametrize("reduce_ion2", [True, False], ids=["reduced", "full"])
    @pytest.mark.parametrize("n_records", [2, 9, 60])
    def test_matches_dense_expm(self, reduce_ion2, n_records):
        ion = IonParams(**_BLOCKS_ION, n_fock=24, reduce_ion2=reduce_ion2)
        state = coherent_initial_state(ion, 1.0, (1, 1, 0))
        trajectory = evolve_ion(state, ion, 0.5, n_records=n_records)
        times = trajectory.trace[:, 0]
        reference = _dense_records(state, ion, times)
        pops = [np.sum(np.abs(r) ** 2, axis=(1, 2)) for r in reference]
        assert np.max(np.abs(trajectory.trace[:, 1:4] - pops)) < 1e-12
        assert np.max(np.abs(trajectory.final.amplitudes - reference[-1])) < 1e-12

    @pytest.mark.parametrize("reduce_ion2", [True, False], ids=["reduced", "full"])
    def test_odd_fock_records_match_dense_expm(self, reduce_ion2):
        # every column of a record at odd n_fock, read against the dense
        # propagator and a dense eigendecomposition of the truncated p
        ion = IonParams(**_BLOCKS_ION, n_fock=25, reduce_ion2=reduce_ion2)
        state = coherent_initial_state(ion, 1.0, (1, 1, 1))
        trajectory = evolve_ion(state, ion, 0.5, n_records=9)
        reference = _dense_records(state, ion, trajectory.trace[:, 0])
        x, p_op = quadratures(ion.delta_spread, ion.n_fock)
        p, to_p = np.linalg.eigh(p_op)
        physical = map_parameters(ion)
        projectors = spin_algebra.field_projectors(
            1, spin_algebra.bloch_field(physical, p))
        for row, amps in zip(trajectory.trace, reference):
            fock = np.einsum("j,sjn->sn", ion.ion2_plus, amps)
            momentum = fock @ to_p.conj()  # (3, n_fock): spinors at each p_j
            bands = np.einsum("sj,bjst,tj->b", momentum.conj(), projectors,
                              momentum).real
            x_mean = np.real(np.sum(amps.conj() * (amps @ x.T)))
            assert np.max(np.abs(row[1:4] - np.sum(np.abs(amps) ** 2, axis=(1, 2)))) < 1e-12
            assert row[4] == pytest.approx(x_mean, abs=1e-12)
            assert np.max(np.abs(row[5:8] - bands)) < 1e-12
        assert trajectory.band_sum_drift < 1e-13
        assert np.max(np.abs(trajectory.final.amplitudes - reference[-1])) < 1e-12

    def test_blocks_compose(self):
        # one run across several blocks equals three chained shorter runs
        ion = IonParams(**_BLOCKS_ION, n_fock=32)
        state = coherent_initial_state(ion, 1.0, (1, 0, 0), project_band="+")
        whole = evolve_ion(state, ion, 0.6, n_records=61)
        rows, current = [whole.trace[0]], state
        for _ in range(3):
            part = evolve_ion(current, ion, 0.2, n_records=21)
            rows.extend(part.trace[1:])
            current = part.final
        assert whole.matvecs > 0
        assert np.max(np.abs(whole.trace - np.array(rows))) < 1e-12
        assert np.max(np.abs(whole.final.amplitudes - current.amplitudes)) < 1e-12

    def test_reports_diagnostics(self):
        ion = IonParams(**PAPER_ION, n_fock=128)
        state = coherent_initial_state(ion, 4.0, (1, 0, 0), project_band="+")
        trajectory = evolve_ion(state, ion, 0.3, n_records=11)
        assert trajectory.fock_tail_max == np.max(trajectory.trace[:, 8])
        assert 0.0 <= trajectory.norm_drift < 1e-12
        assert 0.0 <= trajectory.band_sum_drift < 1e-12
        assert trajectory.matvecs > 0
        idle = evolve_ion(state, ion, 0.0, n_records=3)
        assert (idle.matvecs, idle.norm_drift) == (0, 0.0)

    def test_incomplete_momentum_basis_is_a_guard_violation(self, monkeypatch):
        # a basis without its p = 0 vector loses that vector's weight
        ion = small_ion(n_fock=17)
        p, phase, vectors, projectors, packed = _momentum_basis(ion)
        vectors = vectors.copy()
        vectors[:, 8] = 0.0
        monkeypatch.setattr(ion_emulator, "_momentum_basis",
                            lambda ion: (p, phase, vectors, projectors, packed))
        state = coherent_initial_state(ion, 0.0, (1, 0, 0))
        with pytest.raises(NumericalGuardError, match="band weights"):
            evolve_ion(state, ion, 0.1, n_records=2)

    def test_size_caps(self):
        with pytest.raises(ValueError, match="n_fock"):
            small_ion(n_fock=ion_emulator._MAX_FOCK + 1)
        ion = small_ion(n_fock=24, reduce_ion2=False)
        state = coherent_initial_state(ion, 1.0, (1, 0, 0))
        most = ion_emulator._MAX_RECORD_ENTRIES // ion.dim
        with pytest.raises(ValueError, match="records"):
            evolve_ion(state, ion, 0.1, n_records=most + 1)

    def test_underestimated_bound_is_a_guard_violation(self, monkeypatch):
        # a spectral bound below ||H|| makes the series diverge
        bound = ion_emulator._spectral_bound
        monkeypatch.setattr(ion_emulator, "_spectral_bound",
                            lambda ion, p_max: bound(ion, p_max) / 3.0)
        ion = small_ion(n_fock=24)
        state = coherent_initial_state(ion, 1.0, (1, 0, 0))
        with pytest.raises(NumericalGuardError, match="norm"):
            evolve_ion(state, ion, 20.0, n_records=3)

    def test_rejects_zero_state(self):
        ion = small_ion(n_fock=24)
        state = coherent_initial_state(ion, 1.0, (1, 0, 0))
        state.amplitudes[:] = 0.0
        with pytest.raises(ValueError, match="zero norm"):
            evolve_ion(state, ion, 0.1, n_records=2)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(eta=st.floats(0.01, 0.2), omega1_tilde=st.floats(0.5, 10.0),
           omega1=st.floats(0.0, 200.0), omega2_tilde=st.floats(0.0, 10.0),
           n_fock=st.integers(32, 64), t_final=st.floats(0.0, 1.0),
           n_records=st.integers(2, 20))
    def test_norm_kept_and_reduced_matches_full(self, eta, omega1_tilde, omega1,
                                                omega2_tilde, n_fock, t_final,
                                                n_records):
        kwargs = dict(eta=eta, omega1_tilde=omega1_tilde, omega1=omega1,
                      omega2_tilde=omega2_tilde, n_fock=n_fock)
        runs = []
        for reduce_ion2 in (True, False):
            ion = IonParams(**kwargs, reduce_ion2=reduce_ion2)
            state = coherent_initial_state(ion, 1.0, (1, 1, 1))
            try:
                runs.append(evolve_ion(state, ion, t_final, n_records=n_records))
            except TruncationError:
                assume(False)
        for run in runs:
            assert run.norm_drift < 1e-12
            assert np.max(np.abs(run.trace[:, 1:4].sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(runs[0].trace - runs[1].trace)) < 1e-10
