import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from dense_reference import closed_projectors, couplings, spin_matrices
from maxwellsim import (
    ConvergenceError,
    NumericalGuardError,
    ParameterError,
    PhysicalParams,
    integrate_sweep,
    lz_spin1,
    lz_spin_half,
)
from maxwellsim.landau_zener import magnus_step, spin_model
from maxwellsim.spin_algebra import (
    _ROTOR_BLOCK,
    magnus_sweep,
    rotor,
    rotor_matrix,
    rotor_product,
)
from maxwellsim import sweep_integrator
from maxwellsim.sweep_integrator import _band_table, _magnus_chain


def _step_rotors(spin, params, mass, dt, k_mid):
    """Rotors of the Magnus steps of dt about the midpoints ``k_mid``."""
    ax, ay, az = magnus_step(spin, params, mass, dt)
    return rotor(np.asarray(k_mid)[..., None] * np.array([ax, 0.0, 0.0])
                 + np.array([0.0, ay, az]))


class TestProblemValidation:

    def test_endpoints_must_be_far(self):
        with pytest.raises(ValueError):
            integrate_sweep(1, PhysicalParams(g=1.0), 1.0,
                            endpoint_factor=10.0)

    def test_needs_slope(self):
        with pytest.raises(ValueError):
            integrate_sweep(1, PhysicalParams(g=0.0), 1.0)

    @pytest.mark.parametrize("spin", [1.5, 0, "1", [1], spin_matrices(1)],
                             ids=["three-halves", "zero", "string", "list", "algebra"])
    def test_unknown_spin(self, spin):
        with pytest.raises(ParameterError, match="spin must be 1 or 0.5"):
            integrate_sweep(spin, PhysicalParams(g=1.0), 1.0)

    def test_window_out_of_range(self):
        # max|H| is finite, but the projectors would square it
        with pytest.raises(ParameterError, match="floating-point range"):
            integrate_sweep(1, PhysicalParams(g=1.0), 1e160)

    @pytest.mark.parametrize("mtilde_c2, dt", [(1e120, None), (0.5, 1e-9)],
                             ids=["default-dt", "explicit-dt"])
    def test_step_count_is_capped(self, mtilde_c2, dt):
        # 1e120 asks for 1.8e243 steps at the default dt
        with pytest.raises(ParameterError, match="steps of dt"):
            integrate_sweep(1, PhysicalParams(g=1.0), mtilde_c2,
                            dt=dt)

    def test_step_cap_names_the_exact_count_and_the_cap(self):
        # just above the cap both numbers read 3e+05 at three digits
        mtilde = math.sqrt(166.59)
        kx_start = 30.0 * mtilde  # default endpoint_factor times the gap
        dt = 1.0 / math.hypot(kx_start, mtilde)
        with pytest.raises(ParameterError) as refused:
            integrate_sweep(1, PhysicalParams(g=1.0), mtilde)
        needed, cap = re.search(r"needs (\d+) steps .* cap of (\d+)$",
                                str(refused.value)).groups()
        assert int(needed) == math.ceil(2.0 * kx_start / dt) > 300000
        assert cap == "300000"


class TestAgainstClosedForms:
    """The core cross-validation: integrator vs the analytic expressions."""

    def test_massless_transmits_fully(self):
        probs = integrate_sweep(1, PhysicalParams(m=0.0, g=1.0), 0.0)
        assert probs.gamma_pm == pytest.approx(1.0, abs=1e-6)

    def test_spin1_reference_ratio(self):
        # ratio 0.4817: frozen closed-form values (0.2817, 0.4981, 0.2202)
        params = PhysicalParams(m=0.85, g=1.5)
        probs = integrate_sweep(1, params, params.rest_energy)
        assert probs.gamma_pp == pytest.approx(0.2817, abs=0.01)
        assert probs.gamma_p0 == pytest.approx(0.4981, abs=0.01)
        assert probs.gamma_pm == pytest.approx(0.2202, abs=0.01)
        formula = lz_spin1(params, params.rest_energy)
        for got, want in zip(tuple(probs), tuple(formula)):
            assert got == pytest.approx(want, abs=1e-4)

    def test_spin_half_reference_ratio(self):
        # two-level sweep at ratio 0.56: T = exp(-0.56 pi) = 0.172
        params = PhysicalParams(m=0.0, g=1.0)
        mtilde = np.sqrt(0.56)
        probs = integrate_sweep(0.5, params, float(mtilde))
        assert probs.transmission == pytest.approx(0.172, abs=0.002)
        assert probs.transmission == pytest.approx(
            lz_spin_half(params, float(mtilde)).transmission, abs=1e-3)
        assert probs.gamma_p0 == 0.0


class TestIntegratorProperties:

    def test_populations_sum_to_one(self):
        params = PhysicalParams(m=0.6, g=0.9)
        probs = integrate_sweep(1, params, params.rest_energy)
        assert probs.gamma_pp + probs.gamma_p0 + probs.gamma_pm == \
            pytest.approx(1.0, abs=1e-12)

    def test_endpoint_insensitivity(self):
        params = PhysicalParams(m=0.85, g=1.5)
        near = integrate_sweep(1, params, params.rest_energy)
        far = integrate_sweep(1, params, params.rest_energy,
                              endpoint_factor=60.0)
        for a, b in zip(tuple(near), tuple(far)):
            assert abs(a - b) < 1e-3

    def test_doubly_stochastic(self):
        # the whole table w[final, initial] of the oracle's fine run in its
        # own window: kx_start = 30 sqrt(hbar c g), dt / 2 of hbar / max|H|
        params = PhysicalParams(m=0.85, g=1.5)
        mass, rate = params.rest_energy, 1.5
        kx_start = 30.0 * math.sqrt(1.5)
        e_max = math.hypot(kx_start, mass)
        total_time = 2.0 * kx_start / rate
        n_steps = math.ceil(total_time / (1.0 / e_max))
        q = _magnus_chain(1, params, mass, kx_start, total_time / n_steps / 2.0,
                          2 * n_steps)
        w = np.array(_band_table(q, kx_start / e_max, mass / e_max, 3))
        assert w.shape == (3, 3)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        # its + column is what the oracle returns
        oracle = integrate_sweep(1, params, mass)
        assert np.max(np.abs(w[:, 0] - tuple(oracle))) < 1e-14

    def test_coarse_dt_rejected(self):
        # a dt just inside the Magnus convergence radius moves the
        # populations by about 6e-4 when halved, above the 1e-4 guard
        params = PhysicalParams(g=1.0)
        kx_start = 20.0 * 1.0  # endpoint_factor times sqrt(hbar c g)
        e_max = np.sqrt(kx_start**2 + 0.3)
        with pytest.raises(ConvergenceError):
            integrate_sweep(0.5, params, math.sqrt(0.3),
                            endpoint_factor=20.0, dt=3.1 / e_max)

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_norm_drift_rejected(self, spin, monkeypatch):
        # a chain that grows by 1e-7 keeps its halving delta near 1e-7 but
        # drifts the norm of U by 2e-7 or more, above the 1e-8 guard
        chain = sweep_integrator._magnus_chain
        monkeypatch.setattr(sweep_integrator, "_magnus_chain", lambda *args: tuple(
            a * (1.0 + 1e-7) for a in chain(*args)))
        with pytest.raises(NumericalGuardError, match="norm drift"):
            integrate_sweep(spin, PhysicalParams(g=1.0), 0.6)

    def test_dt_precondition(self):
        # dt = 1.0, and a dt just outside the Magnus convergence radius
        params = PhysicalParams(m=1.0, g=2.0)
        kx_start = 30.0 * math.sqrt(2.0)  # default endpoint_factor, sqrt(hbar c g)
        e_max = np.sqrt(kx_start**2 + 1.0)
        for dt in (1.0, 1.001 * math.pi / e_max):
            with pytest.raises(ValueError):
                integrate_sweep(1, params, params.rest_energy, dt=dt)


class TestBandReadout:

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_is_the_projector_trace(self, spin):
        # w[f, b] = tr(P_f U P_b U^dagger) with the dense rotor and the closed
        # projectors of the unit fields (+-fx, 0, fz), whose E+ is 1
        rng = np.random.default_rng(29)
        cx, _, cz = couplings(spin)
        dimension = cx.shape[0]
        # the first axis is massless
        for phi in np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, 40)]):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            fx, fz = math.cos(phi), math.sin(phi)
            start, end = (closed_projectors(sign * fx * cx + fz * cz, 1.0)
                          for sign in (1.0, -1.0))
            u = rotor_matrix(q, dimension)
            want = [[np.trace(pf @ u @ pb @ u.conj().T).real for pb in start]
                    for pf in end]
            got = _band_table(tuple(q), fx, fz, dimension)
            assert np.max(np.abs(np.array(got) - want)) < 1e-14


class TestPublicKernel:
    """The Magnus path product that the packet's exact reference takes, and
    the oracle's scalar chain of the same steps."""

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_magnus_step_is_its_generator_exponential(self, spin):
        params = PhysicalParams(c=1.3, g=0.7, hbar=0.9)
        mass, dt = 0.6, 0.4
        cx, _, cz = couplings(spin)
        a, b = params.c * params.hbar * cx, mass * cz
        # the generator dt H(k_mid) + (i dt^3 g / (12 hbar^2)) [a, b]
        commutator = (1j * dt**3 * params.g / (12.0 * params.hbar**2)) * (a @ b - b @ a)
        k = np.array([-3.0, -0.4, 0.0, 1.1, 2.5])
        exact = np.array([expm(-1j * (dt * (kx * a + b) + commutator) / params.hbar)
                          for kx in k])
        # one swept step of dt whose midpoint is k
        k0 = k + params.g / params.hbar * dt / 2.0
        step = rotor_matrix(magnus_sweep(spin, params, mass, k0, dt, 1), len(cx))
        assert np.max(np.abs(step - exact)) < 1e-14
        # the commutator term is far above that tolerance
        midpoint = np.array([expm(-1j * dt * (kx * a + b) / params.hbar) for kx in k])
        assert np.max(np.abs(midpoint - exact)) > 1e-4

    def test_sweep_is_the_ordered_step_product(self):
        params = PhysicalParams(g=1.5)
        rate, dt, n_steps = params.g / params.hbar, 0.1, 10
        k0 = np.linspace(-20.0, 20.0, 4096)
        assert _ROTOR_BLOCK // k0.size < n_steps  # the product crosses blocks
        total = rotor(np.zeros((k0.size, 3)))
        for n in range(n_steps):
            step = _step_rotors(1, params, 0.85, dt, k0 - rate * (n + 0.5) * dt)
            total = rotor_product(step, total)
        sweep = magnus_sweep(1, params, 0.85, k0, dt, n_steps)
        assert np.max(np.abs(sweep - total)) < 1e-14

    def test_array_of_starts_matches_scalar_calls(self):
        params = PhysicalParams(g=1.0)
        k0 = np.array([-4.0, -1.0, 0.5, 3.0])
        together = magnus_sweep(0.5, params, 0.6, k0, 0.05, 37)
        apart = [magnus_sweep(0.5, params, 0.6, k, 0.05, 37) for k in k0]
        assert together.shape == (4, 4)
        assert all(q.shape == (1, 4) for q in apart)
        assert np.max(np.abs(together - np.concatenate(apart))) < 1e-15

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(spin=st.sampled_from([1, 0.5]), c=st.floats(0.25, 4.0),
           g=st.floats(0.25, 4.0), hbar=st.floats(0.25, 4.0),
           mass=st.floats(0.0, 3.0), reach=st.floats(0.05, 1.0),
           offset=st.floats(-1.0, 1.5), blocks=st.integers(0, 1),
           extra=st.integers(1, _ROTOR_BLOCK - 1))
    def test_scalar_chain_is_the_vectorised_kernel(self, spin, c, g, hbar, mass,
                                                   reach, offset, blocks, extra):
        n_steps = blocks * _ROTOR_BLOCK + extra
        kappa = spin_model(spin).coupling
        params = PhysicalParams(c=c, g=g, hbar=hbar)
        rate = params.g / params.hbar
        # steps of at most about 1.5 rad, as at the oracle's default dt
        dt = reach * math.sqrt(2.0 / (kappa * c * rate * n_steps))
        k0 = offset * rate * n_steps * dt / 2.0
        vectorised = magnus_sweep(spin, params, mass, k0, dt, n_steps)[0]
        scalar = _magnus_chain(spin, params, mass, k0, dt, n_steps)
        # each side rounds n_steps quaternion products; the pairwise tree's
        # errors follow the smooth path, so they add up to about 3e-17 a step
        # (the chain keeps within 4e-14 of the exact product, below)
        tolerance = max(1e-13, n_steps * np.finfo(float).eps)
        assert np.max(np.abs(np.array(scalar) - vectorised)) <= tolerance

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_scalar_chain_is_the_exact_step_product(self, spin):
        # the product of the same step rotors in 40 significant digits, over
        # more than one rotor block
        params = PhysicalParams(c=1.3, g=0.7, hbar=0.9)
        rate, dt, mass = params.g / params.hbar, 0.01, 0.6
        n_steps = _ROTOR_BLOCK + 1617
        k0 = rate * n_steps * dt / 2.0
        steps = _step_rotors(spin, params, mass, dt,
                             k0 - rate * (np.arange(n_steps) + 0.5) * dt)
        with decimal.localcontext() as context:
            context.prec = 40
            w, x, y, z = map(decimal.Decimal, (1, 0, 0, 0))
            for q in steps.tolist():
                pw, px, py, pz = map(decimal.Decimal, q)
                w, x, y, z = (pw * w - px * x - py * y - pz * z,
                              pw * x + w * px + py * z - pz * y,
                              pw * y + w * py + pz * x - px * z,
                              pw * z + w * pz + px * y - py * x)
        exact = np.array([w, x, y, z], dtype=float)
        scalar = _magnus_chain(spin, params, mass, k0, dt, n_steps)
        assert np.max(np.abs(np.array(scalar) - exact)) < 1e-13


def _oracle(ratio, spin, c=1.0, g=1.0, hbar=1.0):
    params = PhysicalParams(c=c, g=g, hbar=hbar)
    mtilde = math.sqrt(ratio * hbar * c * g)
    return integrate_sweep(spin, params, mtilde), params, mtilde


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
        for got, want in zip(tuple(probs), tuple(formula)):
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
        for a, b in zip(tuple(scaled), tuple(unit)):
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
        mtilde = math.sqrt(ratio * hbar * c * g)
        if _window_too_narrow(params, mtilde, factor):
            with pytest.raises(ParameterError):
                integrate_sweep(spin, params, mtilde, endpoint_factor=factor)
            return
        probs = integrate_sweep(spin, params, mtilde, endpoint_factor=factor)
        assert all(0.0 <= p <= 1.0 for p in tuple(probs))
        assert sum(tuple(probs)) == pytest.approx(1.0, abs=1e-12)
