import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from maxwellsim import (
    ConvergenceError,
    ParameterError,
    PhysicalParams,
    integrate_sweep,
    lz_spin1,
    lz_spin_half,
    pauli_algebra,
    spin1_matrices,
)
from maxwellsim.spin_algebra import (
    _ROTOR_BLOCK,
    magnus_rotors,
    rotor,
    rotor_matrix,
    rotor_product,
    sweep_rotor,
)


class TestProblemValidation:

    def test_endpoints_must_be_far(self):
        with pytest.raises(ValueError):
            integrate_sweep(spin1_matrices(), PhysicalParams(g=1.0), 1.0,
                            endpoint_factor=10.0)

    def test_unknown_band(self):
        with pytest.raises(ValueError):
            integrate_sweep(pauli_algebra(), PhysicalParams(g=1.0), 1.0,
                            initial_band="0")

    def test_needs_slope(self):
        with pytest.raises(ValueError):
            integrate_sweep(spin1_matrices(), PhysicalParams(g=0.0), 1.0)


    def test_window_out_of_range(self):
        # max|H| is finite, but the projectors would square it
        with pytest.raises(ParameterError, match="floating-point range"):
            integrate_sweep(spin1_matrices(), PhysicalParams(g=1.0), 1e160)

    @pytest.mark.parametrize("mtilde_c2, dt", [(1e120, None), (0.5, 1e-9)],
                             ids=["default-dt", "explicit-dt"])
    def test_step_count_is_capped(self, mtilde_c2, dt):
        # 1e120 asks for 1.8e243 steps at the default dt
        with pytest.raises(ParameterError, match="steps of dt"):
            integrate_sweep(spin1_matrices(), PhysicalParams(g=1.0), mtilde_c2,
                            dt=dt)


class TestAgainstClosedForms:
    """The core cross-validation: integrator vs the analytic expressions."""

    def test_massless_transmits_fully(self):
        probs = integrate_sweep(spin1_matrices(), PhysicalParams(m=0.0, g=1.0), 0.0)
        assert probs.gamma_pm == pytest.approx(1.0, abs=1e-6)

    def test_spin1_reference_ratio(self):
        # ratio 0.4817: frozen closed-form values (0.2817, 0.4981, 0.2202)
        params = PhysicalParams(m=0.85, g=1.5)
        probs = integrate_sweep(spin1_matrices(), params, params.rest_energy)
        assert probs.gamma_pp == pytest.approx(0.2817, abs=0.01)
        assert probs.gamma_p0 == pytest.approx(0.4981, abs=0.01)
        assert probs.gamma_pm == pytest.approx(0.2202, abs=0.01)
        formula = lz_spin1(params, params.rest_energy)
        for got, want in zip(probs.as_tuple(), formula.as_tuple()):
            assert got == pytest.approx(want, abs=1e-4)

    def test_spin_half_reference_ratio(self):
        # two-level sweep at ratio 0.56: T = exp(-0.56 pi) = 0.172
        params = PhysicalParams(m=0.0, g=1.0)
        mtilde = np.sqrt(0.56)
        probs = integrate_sweep(pauli_algebra(), params, float(mtilde))
        assert probs.transmission == pytest.approx(0.172, abs=0.002)
        assert probs.transmission == pytest.approx(
            lz_spin_half(params, float(mtilde)).transmission, abs=1e-3)
        assert probs.gamma_p0 == 0.0


class TestIntegratorProperties:

    def test_populations_sum_to_one(self):
        params = PhysicalParams(m=0.6, g=0.9)
        probs = integrate_sweep(spin1_matrices(), params, params.rest_energy)
        assert probs.gamma_pp + probs.gamma_p0 + probs.gamma_pm == \
            pytest.approx(1.0, abs=1e-12)

    def test_endpoint_insensitivity(self):
        params = PhysicalParams(m=0.85, g=1.5)
        near = integrate_sweep(spin1_matrices(), params, params.rest_energy)
        far = integrate_sweep(spin1_matrices(), params, params.rest_energy,
                              endpoint_factor=60.0)
        for a, b in zip(near.as_tuple(), far.as_tuple()):
            assert abs(a - b) < 1e-3

    def test_doubly_stochastic(self):
        params = PhysicalParams(m=0.85, g=1.5)
        # w[final, initial], one integration per initial band
        w = np.array([integrate_sweep(
            spin1_matrices(), params, params.rest_energy, initial_band=band).as_tuple()
            for band in ("+", "0", "-")]).T
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-3)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-3)
        assert w.shape == (3, 3)

    def test_coarse_dt_rejected(self):
        # a dt just inside the Magnus convergence radius moves the
        # populations by about 6e-4 when halved, above the 1e-4 guard
        params = PhysicalParams(g=1.0)
        kx_start = 20.0 * 1.0  # endpoint_factor times sqrt(hbar c g)
        e_max = np.sqrt(kx_start**2 + 0.3)
        with pytest.raises(ConvergenceError):
            integrate_sweep(pauli_algebra(), params, math.sqrt(0.3),
                            endpoint_factor=20.0, dt=3.1 / e_max)

    def test_dt_precondition(self):
        # dt = 1.0, and a dt just outside the Magnus convergence radius
        params = PhysicalParams(m=1.0, g=2.0)
        kx_start = 30.0 * math.sqrt(2.0)  # default endpoint_factor, sqrt(hbar c g)
        e_max = np.sqrt(kx_start**2 + 1.0)
        for dt in (1.0, 1.001 * math.pi / e_max):
            with pytest.raises(ValueError):
                integrate_sweep(spin1_matrices(), params, params.rest_energy, dt=dt)


class TestPublicKernel:
    """The path kernel and the Magnus step that the oracle and the packet
    guard share."""

    @pytest.mark.parametrize("algebra", [spin1_matrices(), pauli_algebra()],
                             ids=["spin1", "spin-half"])
    def test_magnus_step_is_its_generator_exponential(self, algebra):
        params = PhysicalParams(c=1.3, g=0.7, hbar=0.9)
        mass, dt = 0.6, 0.4
        cx, _, cz = algebra.coupling_matrices
        a, b = params.c * params.hbar * cx, mass * cz
        # the generator dt H(k_mid) + (i dt^3 g / (12 hbar^2)) [a, b]
        commutator = (1j * dt**3 * params.g / (12.0 * params.hbar**2)) * (a @ b - b @ a)
        k = np.array([-3.0, -0.4, 0.0, 1.1, 2.5])
        exact = np.array([expm(-1j * (dt * (kx * a + b) + commutator) / params.hbar)
                          for kx in k])
        step = rotor_matrix(magnus_rotors(algebra, params, mass, dt)(k),
                            algebra.dimension)
        assert np.max(np.abs(step - exact)) < 1e-14
        # the commutator term is far above that tolerance
        midpoint = np.array([expm(-1j * dt * (kx * a + b) / params.hbar) for kx in k])
        assert np.max(np.abs(midpoint - exact)) > 1e-4

    def test_sweep_rotor_is_the_ordered_step_product(self):
        params = PhysicalParams(g=1.5)
        rate, dt, n_steps = params.g / params.hbar, 0.1, 10
        steps = magnus_rotors(spin1_matrices(), params, 0.85, dt)
        k0 = np.linspace(-20.0, 20.0, 4096)
        assert _ROTOR_BLOCK // k0.size < n_steps  # the product crosses blocks
        total = rotor(np.zeros((k0.size, 3)))
        for n in range(n_steps):
            total = rotor_product(steps(k0 - rate * (n + 0.5) * dt), total)
        assert np.max(np.abs(sweep_rotor(steps, k0, rate, dt, n_steps) - total)) < 1e-14

    def test_array_of_starts_matches_scalar_calls(self):
        dt = 0.05
        steps = magnus_rotors(pauli_algebra(), PhysicalParams(g=1.0), 0.6, dt)
        k0 = np.array([-4.0, -1.0, 0.5, 3.0])
        together = sweep_rotor(steps, k0, 1.0, dt, 37)
        apart = [sweep_rotor(steps, k, 1.0, dt, 37) for k in k0]
        assert together.shape == (4, 4)
        assert all(q.shape == (1, 4) for q in apart)
        assert np.max(np.abs(together - np.concatenate(apart))) < 1e-15


def _oracle(ratio, spin, c=1.0, g=1.0, hbar=1.0):
    params = PhysicalParams(c=c, g=g, hbar=hbar)
    algebra = spin1_matrices() if spin == 1 else pauli_algebra()
    mtilde = math.sqrt(ratio * hbar * c * g)
    return integrate_sweep(algebra, params, mtilde), params, mtilde


_RATIOS = st.floats(0.0, 3.0)
_SPINS = st.sampled_from([1, 0.5])
_SCALES = st.floats(0.25, 4.0)


class TestPropertySuite:
    """The oracle over r in [0, 3] at the default step and window."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ratio=_RATIOS, spin=_SPINS)
    def test_matches_closed_forms(self, ratio, spin):
        probs, params, mtilde = _oracle(ratio, spin)
        formula = (lz_spin1 if spin == 1 else lz_spin_half)(params, mtilde)
        for got, want in zip(probs.as_tuple(), formula.as_tuple()):
            assert got == pytest.approx(want, abs=1e-4)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ratio=_RATIOS)
    def test_majorana_identity(self, ratio):
        # the spin-1 sweep factorises into spin-1/2 sweeps
        probs, _, _ = _oracle(ratio, 1)
        y = math.sqrt(probs.gamma_pm)
        assert probs.gamma_p0 == pytest.approx(2.0 * y * (1.0 - y), abs=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(ratio=_RATIOS, spin=_SPINS, c=_SCALES, g=_SCALES, hbar=_SCALES)
    def test_depends_only_on_ratio(self, ratio, spin, c, g, hbar):
        # the problem is the same in units of sqrt(hbar c g); only the
        # rounded-up step count may differ by one, a change of order 1e-11
        scaled, _, _ = _oracle(ratio, spin, c, g, hbar)
        unit, _, _ = _oracle(ratio, spin)
        for a, b in zip(scaled.as_tuple(), unit.as_tuple()):
            assert a == pytest.approx(b, abs=1e-10)


def _window_too_narrow(params, mtilde, endpoint_factor):
    """The endpoint rule, in the oracle's own arithmetic: ``c hbar kx_start``
    must reach 20 times the gap."""
    chbar = params.c * params.hbar
    sweep_scale = math.sqrt(params.hbar * params.c * params.g)
    kx_start = endpoint_factor * max(mtilde, sweep_scale) / chbar
    return chbar * kx_start < 20.0 * mtilde


class TestValidationPropertySuite:
    """One call validates and integrates: it refuses exactly the windows
    that break the endpoint rule and returns probabilities otherwise."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(factor=st.floats(10.0, 60.0), ratio=_RATIOS, spin=_SPINS,
           c=_SCALES, g=_SCALES, hbar=_SCALES)
    # either side of the rule at r = 1, where c hbar kx_start = factor * m~
    @example(factor=20.0, ratio=1.0, spin=1, c=1.0, g=1.0, hbar=1.0)
    @example(factor=19.99, ratio=1.0, spin=1, c=1.0, g=1.0, hbar=1.0)
    def test_rejects_exactly_the_narrow_windows(self, factor, ratio, spin, c, g,
                                                hbar):
        params = PhysicalParams(c=c, g=g, hbar=hbar)
        algebra = spin1_matrices() if spin == 1 else pauli_algebra()
        mtilde = math.sqrt(ratio * hbar * c * g)
        if _window_too_narrow(params, mtilde, factor):
            with pytest.raises(ParameterError):
                integrate_sweep(algebra, params, mtilde, endpoint_factor=factor)
            return
        probs = integrate_sweep(algebra, params, mtilde, endpoint_factor=factor)
        assert all(0.0 <= p <= 1.0 for p in probs.as_tuple())
        assert sum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-12)
