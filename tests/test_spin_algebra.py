import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from maxwellsim import (
    PhysicalParams,
    adiabatic_projectors,
    pauli_algebra,
    spin1_matrices,
)
from maxwellsim import spin_algebra
from maxwellsim.errors import ParameterError
from maxwellsim.spin_algebra import (
    algebra_for,
    apply_projectors,
    band_weights,
    bloch_field,
    field_hamiltonian,
    field_projectors,
    pack_projectors,
    rotor,
    rotor_matrix,
    rotor_product,
    spin_components,
)


def comm(a, b):
    return a @ b - b @ a


def bloch_hamiltonian(algebra, kx, params):
    """``c hbar kx Cx + m c^2 Cz`` through the band layer."""
    return field_hamiltonian(algebra, bloch_field(params, kx))


def e_plus(kx, params):
    """Upper band energy ``sqrt(c^2 hbar^2 k^2 + m^2 c^4)``: the field's length."""
    return np.linalg.norm(bloch_field(params, kx), axis=-1)


def band_projectors(kx, params):
    """Spin-1 band projectors ``(P+, P0, P-)`` at one momentum."""
    return field_projectors(spin1_matrices(), bloch_field(params, kx))


class TestSpinMatrices:

    def test_spin1_defining_basis(self):
        alg = spin1_matrices()
        assert alg.dimension == 3
        assert np.allclose(alg.sz, np.diag([1.0, 0.0, -1.0]))

    def test_spin1_casimir(self):
        alg = spin1_matrices()
        total = alg.sx @ alg.sx + alg.sy @ alg.sy + alg.sz @ alg.sz
        assert np.allclose(total, 2.0 * np.eye(3), atol=1e-12)

    def test_spin1_commutators(self):
        alg = spin1_matrices()
        assert np.allclose(comm(alg.sx, alg.sy), 1j * alg.sz, atol=1e-12)
        assert np.allclose(comm(alg.sy, alg.sz), 1j * alg.sx, atol=1e-12)
        assert np.allclose(comm(alg.sz, alg.sx), 1j * alg.sy, atol=1e-12)

    def test_spin1_component_eigenvalues(self):
        alg = spin1_matrices()
        for s in (alg.sx, alg.sy, alg.sz):
            assert np.allclose(s, s.conj().T)
            assert np.allclose(np.sort(np.linalg.eigvalsh(s)), [-1.0, 0.0, 1.0],
                               atol=1e-12)

    def test_pauli_basics(self):
        alg = pauli_algebra()
        sx, sy, sz = alg.coupling_matrices
        assert np.allclose(sz, np.diag([1.0, -1.0]))
        assert np.allclose(sx @ sy, 1j * sz)
        for sigma in (sx, sy, sz):
            assert np.allclose(sigma @ sigma, np.eye(2))

    def test_pauli_spin_components_are_half(self):
        alg = pauli_algebra()
        for s in (alg.sx, alg.sy, alg.sz):
            assert np.allclose(np.sort(np.linalg.eigvalsh(s)), [-0.5, 0.5])
        assert np.allclose(comm(alg.sx, alg.sy), 1j * alg.sz, atol=1e-12)


class TestPhysicalParams:

    def test_invariants(self):
        with pytest.raises(ValueError):
            PhysicalParams(c=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(m=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(g=-0.1)
        with pytest.raises(ValueError):
            PhysicalParams(hbar=0.0)

    def test_rest_energy(self):
        assert PhysicalParams(c=2.0, m=0.25).rest_energy == 1.0


class TestBlochHamiltonian:

    def test_mass_only(self):
        h = bloch_hamiltonian(spin1_matrices(), 0.0, PhysicalParams(m=1.0))
        assert np.allclose(h, np.diag([1.0, 0.0, -1.0]))

    def test_massless_spectrum(self):
        # independent route: eigen-solver on the assembled matrix
        h = bloch_hamiltonian(spin1_matrices(), 1.0, PhysicalParams(m=0.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-1.0, 0.0, 1.0],
                           atol=1e-12)

    def test_pauli_massless_spectrum(self):
        h = bloch_hamiltonian(pauli_algebra(), -5.0, PhysicalParams(m=0.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-5.0, 5.0], atol=1e-12)

    def test_hermitian(self):
        h = bloch_hamiltonian(spin1_matrices(), -0.7,
                              PhysicalParams(c=2.0, m=0.5, hbar=0.5))
        assert np.isrealobj(h)
        assert np.allclose(h, h.T)


class TestBandEnergies:

    def test_rest_energy(self):
        assert e_plus(0.0, PhysicalParams(m=1.0)) == 1.0

    def test_against_eigenvalues(self):
        params = PhysicalParams(m=0.85)
        energy = e_plus(10.0, params)
        assert energy == pytest.approx(10.036059983878136, abs=1e-12)
        h = bloch_hamiltonian(spin1_matrices(), 10.0, params)
        assert np.allclose(np.linalg.eigvalsh(h), [-energy, 0.0, energy],
                           atol=1e-10)

    def test_massless(self):
        params = PhysicalParams(c=2.0, m=0.0, hbar=0.5)
        assert e_plus(-5.0, params) == pytest.approx(5.0 * params.c * params.hbar)


class TestBandProjectors:

    def test_rest_frame_projectors(self):
        p_plus, p_zero, p_minus = band_projectors(0.0, PhysicalParams(m=1.0))
        assert np.allclose(p_plus, np.diag([1, 0, 0]))
        assert np.allclose(p_zero, np.diag([0, 1, 0]))
        assert np.allclose(p_minus, np.diag([0, 0, 1]))

    def test_completeness(self):
        projectors = band_projectors(-1.1, PhysicalParams(m=0.3))
        assert np.allclose(sum(projectors), np.eye(3), atol=1e-12)

    def test_rank_one(self):
        # nondegenerate spectrum away from the crossing: each projector rank 1
        projectors = band_projectors(10.0, PhysicalParams(m=0.85))
        for p in projectors:
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-10)

    def test_large_finite_field_keeps_its_bands(self):
        # a mass field whose square still fits: level a is band +, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p_plus, p_zero, _ = field_projectors(spin1_matrices(), [0.0, 1.3e154])
        assert np.array_equal(p_plus, np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(p_zero, np.diag([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("field", [[1e155, 0.0], [0.0, 1e300], [np.inf, 1.0]])
    def test_overflowing_field_is_refused(self, field):
        # the squared field overflowed to inf, and the projectors came out
        # degenerate (P0 = 1, P+- = 0) behind a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="squared magnitude overflows"):
                field_projectors(spin1_matrices(), [[1.0, 0.5], field])


class TestProjectorPropertySuite:
    """Randomized projector algebra over 1000 momentum/mass draws, 1e-10."""

    N_SAMPLES = 1000
    TOL = 1e-10

    def _random_inputs(self, dim):
        rng = np.random.default_rng(20230815 + dim)
        kx = rng.uniform(-20, 20, self.N_SAMPLES)
        ky = rng.uniform(-20, 20, self.N_SAMPLES)
        m = rng.uniform(0.0, 3.0, self.N_SAMPLES)
        m[::10] = 0.0  # exercise the massless branch away from k = 0
        return kx, ky, m

    def _batched(self, dim):
        alg = spin1_matrices() if dim == 3 else pauli_algebra()
        kx, ky, m = self._random_inputs(dim)
        cx, cy, cz = alg.coupling_matrices
        h = (kx[:, None, None] * cx + ky[:, None, None] * cy
             + m[:, None, None] * cz)
        e_plus = np.sqrt(kx**2 + ky**2 + m**2)
        return h, e_plus, adiabatic_projectors(h, e_plus)

    @pytest.mark.parametrize("dim", [3, 2])
    def test_idempotent_orthogonal_complete(self, dim):
        h, e_plus, projectors = self._batched(dim)
        eye = np.eye(dim)
        for i, p in enumerate(projectors):
            for j, q in enumerate(projectors):
                product = p @ q
                target = p if i == j else 0.0 * p
                assert np.max(np.abs(product - target)) < self.TOL
        assert np.max(np.abs(sum(projectors) - eye)) < self.TOL

    @pytest.mark.parametrize("dim", [3, 2])
    def test_spectral_reconstruction(self, dim):
        h, e_plus, projectors = self._batched(dim)
        e = e_plus[:, None, None]
        if dim == 3:
            rebuilt = e * projectors[0] - e * projectors[2]
        else:
            rebuilt = e * projectors[0] - e * projectors[1]
        assert np.max(np.abs(rebuilt - h)) < self.TOL

    @pytest.mark.parametrize("dim", [3, 2])
    def test_eigenvalue_relation(self, dim):
        h, e_plus, projectors = self._batched(dim)
        eigenvalues = np.linalg.eigvalsh(h)
        if dim == 3:
            expected = np.stack([-e_plus, np.zeros_like(e_plus), e_plus], axis=1)
        else:
            expected = np.stack([-e_plus, e_plus], axis=1)
        assert np.max(np.abs(eigenvalues - expected)) < self.TOL
        # each projector picks out its band: H P = E P
        bands = [e_plus, np.zeros_like(e_plus), -e_plus] if dim == 3 \
            else [e_plus, -e_plus]
        for e_band, p in zip(bands, projectors):
            assert np.max(np.abs(h @ p - e_band[:, None, None] * p)) < self.TOL


class TestBandLayerPropertySuite:
    """``band_weights`` against one einsum per band, and ``apply_projectors``
    against the complex matrix product."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(dim=st.sampled_from([3, 2]),
           batch=st.lists(st.integers(1, 5), max_size=2).map(tuple),
           # site-free (the oracle's sweep ends), a grid, and a 2-D block
           sites=st.just(()) | st.tuples(st.integers(1, 12))
           | st.tuples(st.integers(1, 4), st.integers(1, 3)),
           m=st.sampled_from([0.0, 0.85]) | st.floats(0.0, 3.0),
           block=st.sampled_from([1 << 16, 1, 37]),
           components_first=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_band_weights_match_per_band_einsum(self, dim, batch, sites, m,
                                                block, components_first, seed):
        rng = np.random.default_rng(seed)
        params = PhysicalParams(c=1.3, m=m, hbar=0.8)
        k = rng.uniform(-20.0, 20.0, sites)
        k.flat[0] = 0.0  # fully degenerate when m = 0
        projectors = field_projectors(algebra_for(dim), bloch_field(params, k))
        assert projectors.shape == (dim,) + sites + (dim, dim)
        assert np.isrealobj(projectors)
        packed = pack_projectors(projectors)
        assert packed.shape == (dim * (dim + 1) // 2,) + sites + (dim,)

        shape = batch + (dim,) + sites if components_first else batch + sites + (dim,)
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if components_first:  # the ion's records: a view, spinor axis last
            psi = np.moveaxis(psi, len(batch), -1)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2, axis=tuple(range(len(batch), psi.ndim)),
                              keepdims=True))

        with mock.patch.object(spin_algebra, "_WEIGHT_BLOCK", block):
            weights = band_weights(psi, packed)
        flat = psi.reshape(batch + (-1, dim))
        reference = np.stack(
            [np.einsum("...ni,nij,...nj->...", flat.conj(), p.reshape(-1, dim, dim),
                       flat).real for p in projectors], axis=-1)
        assert weights.shape == batch + (dim,)
        assert np.max(np.abs(weights - reference)) < 1e-14
        assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-14

        one = psi.reshape((-1,) + sites + (dim,))[0]
        components = apply_projectors(projectors, one)
        want = (projectors.astype(complex) @ one[..., None])[..., 0]
        assert np.max(np.abs(components - want)) < 1e-14
        assert np.max(np.abs(components.sum(axis=0) - one)) < 1e-14

        # complex projectors (of a transverse Cy term, say) are refused,
        # not silently read by their real parts
        with pytest.raises(ValueError, match="real projectors"):
            pack_projectors(projectors.astype(complex))
        with pytest.raises(ValueError, match="real projectors"):
            apply_projectors(projectors.astype(complex), one)


class TestRotors:
    """Quaternion propagators against the dense matrix exponential."""

    @pytest.mark.parametrize("algebra", [spin1_matrices(), pauli_algebra()],
                             ids=["spin1", "spin-half"])
    def test_match_matrix_exponential(self, algebra):
        rng = np.random.default_rng(7)
        omega = rng.normal(scale=2.0, size=(6, 3))
        omega[0] = 0.0  # the identity, where the rotation axis is undefined
        spins = np.stack([algebra.sx, algebra.sy, algebra.sz])
        generators = np.einsum("na,aij->nij", omega, spins)
        exact = np.array([expm(-1j * h) for h in generators])
        assert np.allclose(spin_components(generators, algebra), omega,
                           atol=1e-14)
        d = algebra.dimension
        q = rotor(omega)
        assert np.max(np.abs(rotor_matrix(q, d) - exact)) < 1e-14
        product = rotor_matrix(rotor_product(q[1:4], q[3:]), d)
        assert np.max(np.abs(product - exact[1:4] @ exact[3:])) < 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(dim=st.sampled_from([3, 2]),
           shapes=st.sampled_from([((), ()), ((5,), (5,)), ((4, 1), (3,)),
                                   ((), (6,))]),
           scale=st.sampled_from([1e-3, 1.0, 30.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_product_is_the_matrix_product(self, dim, shapes, scale, seed):
        rng = np.random.default_rng(seed)
        p = rotor(rng.normal(scale=scale, size=shapes[0] + (3,)))
        q = rotor(rng.normal(scale=scale, size=shapes[1] + (3,)))
        product = rotor_product(p, q)
        assert product.shape == np.broadcast_shapes(p.shape, q.shape)
        assert np.max(np.abs(np.sum(product**2, axis=-1) - 1.0)) < 1e-14
        want = rotor_matrix(p, dim) @ rotor_matrix(q, dim)
        assert np.max(np.abs(rotor_matrix(product, dim) - want)) < 1e-14

    @pytest.mark.parametrize("algebra", [spin1_matrices(), pauli_algebra()],
                             ids=["spin1", "spin-half"])
    @pytest.mark.parametrize("angle", [0.0, 5e-324, 1e-310, 1e-170, 1e3],
                             ids=["zero", "subnormal", "subnormal-2",
                                  "square-underflows", "1e3-rad"])
    def test_unit_rotor_at_extreme_angles(self, algebra, angle):
        axis = np.array([0.48, -0.6, 0.64])
        omega = angle * axis
        q = rotor(omega)
        assert abs(np.sum(q**2) - 1.0) < 1e-15
        # the vector part is sin(angle / 2) times the axis, also where the
        # squared angle underflows and the limit 1/2 of sin(angle/2) / angle
        # takes over
        assert np.allclose(q[1:], np.sin(angle / 2.0) * axis, rtol=1e-15, atol=1e-320)
        spins = np.stack([algebra.sx, algebra.sy, algebra.sz])
        exact = expm(-1j * np.einsum("a,aij->ij", omega, spins))
        tol = 1e-15 if angle < 1 else 1e-12  # expm's own error grows with angle
        assert np.max(np.abs(rotor_matrix(q, algebra.dimension) - exact)) < tol


class TestMassAxisRotation:
    """A mass term along any unit axis in the y-z plane is the pure-``Cz``
    mass term rotated about x, so the swept-level oracle integrates with
    ``Cz`` alone."""

    @pytest.mark.parametrize("algebra", [spin1_matrices(), pauli_algebra()],
                             ids=["spin1", "spin-half"])
    def test_rotation_about_x_carries_cz_to_the_tilted_axis(self, algebra):
        cx, cy, cz = algebra.coupling_matrices
        kx = np.array([-40.0, -0.3, 0.0, 0.7, 40.0])
        for theta in np.linspace(-3.0, 3.0, 7):
            u = rotor_matrix(rotor((theta, 0.0, 0.0)), algebra.dimension)
            tilted = -np.sin(theta) * cy + np.cos(theta) * cz
            assert np.max(np.abs(u.conj().T @ tilted @ u - cz)) < 1e-14
            assert np.max(np.abs(u.conj().T @ cx @ u - cx)) < 1e-14
            # hence H_tilted(k) = U H_plain(k) U^dagger, band by band
            plain = field_projectors(algebra, np.stack(
                np.broadcast_arrays(kx, 0.8), -1))
            dense = kx[:, None, None] * cx + 0.8 * tilted
            literal = np.stack(adiabatic_projectors(dense, np.hypot(kx, 0.8)))
            assert np.max(np.abs(u @ plain @ u.conj().T - literal)) < 1e-14
