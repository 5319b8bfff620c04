import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from maxwellsim import (
    ParameterError,
    PhysicalParams,
    TransitionProbabilities,
    angle_sweep,
    lz_spin1,
    lz_spin_half,
)
from maxwellsim.cli import _angle_grid
from maxwellsim.landau_zener import SWEEP_COLUMNS


class TestSpin1Formula:

    def test_feasibility_point(self):
        # exponent ratio 0.56 gives the large-transmission working point
        params = PhysicalParams(m=math.sqrt(0.56), g=1.0)
        probs = lz_spin1(params, params.rest_energy)
        assert probs.transmission == pytest.approx(0.658, abs=0.005)

    def test_massless_perfect_transmission(self):
        probs = lz_spin1(PhysicalParams(m=0.0, g=1.0), 0.0)
        assert probs.gamma_pm == 1.0
        assert probs.gamma_p0 == 0.0
        assert probs.transmission == 1.0

    def test_reference_point(self):
        # m = 0.85, g = 1.5 (ratio 0.4817); frozen values confirmed
        # independently by the swept-level integrator in
        # test_sweep_integrator.py
        params = PhysicalParams(m=0.85, g=1.5)
        probs = lz_spin1(params, params.rest_energy)
        assert probs.gamma_pm == pytest.approx(0.2202, abs=5e-5)
        assert probs.gamma_p0 == pytest.approx(0.4981, abs=5e-5)
        assert probs.gamma_pp == pytest.approx(0.2817, abs=5e-5)

    def test_requires_positive_slope(self):
        with pytest.raises(ValueError):
            lz_spin1(PhysicalParams(m=1.0, g=0.0), 1.0)

    def test_overflowing_square_reflects(self):
        # the square of a finite rest energy overflows: r = inf, T = 0
        probs = lz_spin1(PhysicalParams(g=1.0), 1e200)
        assert probs.as_tuple() == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("formula", [lz_spin1, lz_spin_half])
    @pytest.mark.parametrize("mtilde_c2", [math.nan, math.inf])
    def test_non_finite_rest_energy_rejected(self, formula, mtilde_c2):
        with pytest.raises(ParameterError):
            formula(PhysicalParams(m=1.0, g=1.0), mtilde_c2)


class TestSpinHalfFormula:

    def test_massless(self):
        assert lz_spin_half(PhysicalParams(g=1.0), 0.0).transmission == 1.0

    def test_reference_point(self):
        params = PhysicalParams(m=0.85, g=1.5)
        probs = lz_spin_half(params, params.rest_energy)
        assert probs.transmission == pytest.approx(0.2202, abs=5e-5)
        assert probs.gamma_p0 == 0.0

    def test_spin1_transmits_more(self):
        for ratio in (0.1, 0.5, 1.0, 2.5):
            params = PhysicalParams(m=math.sqrt(ratio), g=1.0)
            t1 = lz_spin1(params, params.rest_energy).transmission
            t2 = lz_spin_half(params, params.rest_energy).transmission
            assert t1 > t2


class TestAngleSweep:

    def test_normal_incidence_matches_formula(self):
        params = PhysicalParams(m=0.85, g=1.5)
        row = angle_sweep(params, 1, 10.0, [0.0])[0]
        direct = lz_spin1(params, params.rest_energy)
        assert row[1] == direct.gamma_pp
        assert row[2] == direct.gamma_p0
        assert row[3] == direct.gamma_pm

    def test_oblique_point(self):
        # m = 1, p0 = 1, theta = pi/4, g = 5: exponent ratio 1.5 / 5
        row = angle_sweep(PhysicalParams(m=1.0, g=5.0), 1, 1.0, [math.pi / 4])[0]
        assert row[4] == pytest.approx(0.859, abs=1e-3)

    def test_columns_and_shape(self):
        params = PhysicalParams(m=1.0, g=1.0)
        thetas = np.linspace(-1.0, 1.0, 11)
        for spin, formula in ((0.5, lz_spin_half), (1, lz_spin1)):
            rows = np.array(angle_sweep(params, spin, 1.0, thetas))
            assert rows.shape == (11, len(SWEEP_COLUMNS))
            # the vectorised rows match the scalar formula angle by angle
            for theta, row in zip(thetas, rows):
                mtilde = math.hypot(params.rest_energy, math.sin(theta) * params.c)
                probs = formula(params, mtilde)
                assert row[0] == theta
                assert row[1:] == pytest.approx(
                    [*probs.as_tuple(), probs.transmission], abs=1e-15)

    def test_large_transverse_term_reflects(self):
        # the transverse energy squared overflows: r = inf, T = 0, no error
        rows = angle_sweep(PhysicalParams(m=1.0, g=1.0), 1, 1e200, [0.5, -1.0])
        for row in rows:
            assert row[1:] == (1.0, 0.0, 0.0, 0.0)

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            angle_sweep(PhysicalParams(m=1.0, g=1.0), 1, 1.0, [math.pi / 2])

    def test_nan_angle_rejected(self):
        with pytest.raises(ParameterError):
            angle_sweep(PhysicalParams(m=1.0, g=1.0), 1, 1.0, [0.0, math.nan])

    @pytest.mark.parametrize("p0", [math.inf, -math.inf, math.nan])
    def test_non_finite_momentum_rejected(self, p0):
        with pytest.raises(ParameterError):
            angle_sweep(PhysicalParams(m=1.0, g=1.0), 1, p0, [0.3])

    def test_unknown_spin(self):
        with pytest.raises(ValueError):
            angle_sweep(PhysicalParams(m=1.0, g=1.0), 2, 1.0, [0.0])


class TestFormulaProperties:

    def test_probability_closure(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            params = PhysicalParams(m=rng.uniform(0, 2), g=rng.uniform(0.01, 10))
            mtilde = math.hypot(params.rest_energy, rng.uniform(-3, 3))
            probs = lz_spin1(params, mtilde)
            assert probs.gamma_pp + probs.gamma_p0 + probs.gamma_pm == \
                pytest.approx(1.0, abs=1e-12)
            assert probs.transmission == probs.gamma_p0 + probs.gamma_pm

    def test_limits(self):
        params_steep = PhysicalParams(m=1.0, g=1e8)
        assert lz_spin1(params_steep, 1.0).transmission > 1.0 - 1e-6
        params_flat = PhysicalParams(m=1.0, g=1e-3)
        assert lz_spin1(params_flat, 1.0).transmission < 1e-12

    def test_angle_symmetry(self):
        params = PhysicalParams(m=1.0, g=2.0)
        thetas = np.linspace(0.0, 1.4, 29)
        forward = np.array(angle_sweep(params, 1, 1.3, thetas))[:, 4]
        mirrored = np.array(angle_sweep(params, 1, 1.3, -thetas))[:, 4]
        assert np.allclose(forward, mirrored, rtol=0.0, atol=1e-15)

    def test_monotone_in_angle_magnitude(self):
        params = PhysicalParams(m=1.0, g=2.0)
        thetas = np.linspace(0.0, 1.5, 40)
        t = np.array(angle_sweep(params, 1, 1.0, thetas))[:, 4]
        assert np.all(np.diff(t) <= 1e-15)
        assert t[0] >= t.max() - 1e-15

    def test_larger_slope_dominates_pointwise(self):
        thetas = np.linspace(-1.4, 1.4, 31)
        small, large = PhysicalParams(m=1.0, g=1.0), PhysicalParams(m=1.0, g=5.0)
        t_small = np.array(angle_sweep(small, 1, 1.0, thetas))[:, 4]
        t_large = np.array(angle_sweep(large, 1, 1.0, thetas))[:, 4]
        assert np.all(t_large >= t_small)

    def test_clamp_guard(self):
        with pytest.raises(ValueError):
            TransitionProbabilities(0.5, 0.7, 0.2)  # sums beyond 1 by > 1e-12


_RATIOS = st.floats(0.0, 5.0)
_SCALES = st.floats(0.25, 4.0)
_SPINS = st.sampled_from([1, 0.5])
_ANGLES = st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=8)
_FORMULAS = {1: lz_spin1, 0.5: lz_spin_half}


def _at_ratio(ratio, c=1.0, g=1.0, hbar=1.0):
    """Parameters and effective rest energy with gap ratio ``ratio``."""
    return PhysicalParams(c=c, g=g, hbar=hbar), math.sqrt(ratio * hbar * c * g)


class TestClosedFormPropertySuite:
    """lz_spin1, lz_spin_half and angle_sweep over the parameter space."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ratio=_RATIOS, spin=_SPINS, m=st.floats(0.0, 3.0),
           g=st.floats(0.01, 10.0), p0=st.floats(0.0, 5.0), thetas=_ANGLES)
    def test_rows_sum_to_one(self, ratio, spin, m, g, p0, thetas):
        probs = _FORMULAS[spin](*_at_ratio(ratio))
        assert sum(probs.as_tuple()) == pytest.approx(1.0, abs=1e-12)
        assert probs.transmission == probs.gamma_p0 + probs.gamma_pm
        rows = np.array(angle_sweep(PhysicalParams(m=m, g=g), spin, p0, thetas))
        assert np.allclose(rows[:, 1:4].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.array_equal(rows[:, 4], rows[:, 2] + rows[:, 3])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ratios=st.lists(_RATIOS, min_size=2, max_size=8), spin=_SPINS)
    def test_transmission_does_not_rise_with_ratio(self, ratios, spin):
        ratios = sorted(ratios)
        t = [_FORMULAS[spin](*_at_ratio(r)).transmission for r in ratios]
        assert np.all(np.diff(t) <= 1e-15)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ratio=_RATIOS, spin=_SPINS, c=_SCALES, g=_SCALES, hbar=_SCALES,
           p0=st.floats(0.0, 5.0), thetas=_ANGLES)
    def test_invariant_under_rescaling_at_fixed_ratio(self, ratio, spin, c, g,
                                                      hbar, p0, thetas):
        unit = _FORMULAS[spin](*_at_ratio(ratio))
        scaled = _FORMULAS[spin](*_at_ratio(ratio, c, g, hbar))
        assert scaled.as_tuple() == pytest.approx(unit.as_tuple(), abs=1e-12)
        # angle sweep: m c^2 and p0 c carry the energy unit sqrt(hbar c g)
        unit_energy = math.sqrt(hbar * c * g)
        base = PhysicalParams(m=math.sqrt(ratio), g=1.0)
        rescaled = PhysicalParams(c=c, m=math.sqrt(ratio) * unit_energy / c**2,
                                  g=g, hbar=hbar)
        rows = angle_sweep(base, spin, p0, thetas)
        rows_scaled = angle_sweep(rescaled, spin, p0 * unit_energy / c, thetas)
        assert np.allclose(rows_scaled, rows, rtol=0.0, atol=1e-12)


def _vectorised_rows(params, spin, p0, thetas):
    """The angle sweep as numpy evaluates it, array-wide."""
    thetas = np.asarray(thetas, dtype=float)
    mtilde_c2 = np.sqrt(params.rest_energy**2 + (p0 * params.c * np.sin(thetas)) ** 2)
    r = mtilde_c2**2 / (params.hbar * params.c * params.g)
    gamma_pm = np.exp(-np.pi * r)
    y = np.exp(-np.pi * r / 2.0)
    gamma_p0 = 2.0 * y * (1.0 - y) if spin == 1 else np.zeros_like(r)
    gammas = np.clip([1.0 - gamma_pm - gamma_p0, gamma_p0, gamma_pm], 0.0, 1.0)
    return np.column_stack([thetas, *gammas, gammas[1] + gammas[2]])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestScalarClosedFormPropertySuite:
    """The math-only closed-form path against numpy's arithmetic."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lo=st.floats(allow_nan=False, allow_infinity=False),
           hi=st.floats(allow_nan=False, allow_infinity=False),
           n=st.integers(1, 1000), same=st.booleans())
    @example(lo=-1.5, hi=1.5, n=1, same=False)
    @example(lo=0.25, hi=0.25, n=7, same=False)
    @example(lo=0.0, hi=5e-324, n=4, same=False)  # a step below the least subnormal
    @example(lo=-0.0, hi=1.0, n=1, same=False)
    def test_cli_angle_grid_is_linspace(self, lo, hi, n, same):
        hi = lo if same else hi
        with np.errstate(all="ignore"):  # hi - lo may overflow, as in the CLI
            reference = np.linspace(lo, hi, n)
        assert np.array_equal(_bits(_angle_grid(lo, hi, n)), _bits(reference))

    # math.exp and numpy's exp may differ by 1 ulp (<= 2^-53 below 1) at
    # each of the two exponentials; gamma_p0 = 2 y (1 - y) doubles y's, and
    # the sums add them: 3 x 2^-53 plus the sums' own rounding.
    ROW_TOL = 2.0 * 2.0**-52

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(spin=_SPINS, m=st.floats(0.0, 3.0), g=st.floats(0.01, 10.0),
           c=_SCALES, hbar=_SCALES, p0=st.floats(0.0, 5.0), thetas=_ANGLES)
    # both exponentials one ulp off, in opposite directions: 3.3e-16
    @example(spin=1, m=0.0906, g=4.36, c=1.0, hbar=1.0, p0=0.0, thetas=[0.0])
    def test_rows_match_vectorised_formulas(self, spin, m, g, c, hbar, p0, thetas):
        params = PhysicalParams(c=c, m=m, g=g, hbar=hbar)
        rows = np.array(angle_sweep(params, spin, p0, thetas))
        reference = _vectorised_rows(params, spin, p0, thetas)
        assert np.array_equal(rows[:, 0], reference[:, 0])
        assert np.max(np.abs(rows - reference)) <= self.ROW_TOL
