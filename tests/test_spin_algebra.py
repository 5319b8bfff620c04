import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from dense_reference import closed_projectors, couplings, spin_matrices
from maxwellsim import PhysicalParams
from maxwellsim import spin_algebra, wavepacket
from maxwellsim.errors import ParameterError
from maxwellsim.landau_zener import magnus_step, spin_model
from maxwellsim.spin_algebra import (
    apply_projectors,
    band_weights,
    bloch_field,
    field_projectors,
    pack_projectors,
    rotor,
    rotor_matrix,
    rotor_product,
)


def comm(a, b):
    return a @ b - b @ a


def hamiltonian(spin, field):
    """The real ``field . (Cx, Cz)`` of the spin's model."""
    model = spin_model(spin)
    return np.tensordot(field, np.array([model.cx, model.cz]), 1)


def bloch_hamiltonian(spin, kx, params):
    """``c hbar kx Cx + m c^2 Cz`` of the spin's model."""
    return hamiltonian(spin, bloch_field(params, kx))


def e_plus(kx, params):
    """Upper band energy ``sqrt(c^2 hbar^2 k^2 + m^2 c^4)``: the field's length."""
    return np.linalg.norm(bloch_field(params, kx), axis=-1)


def band_projectors(kx, params):
    """Spin-1 band projectors ``(P+, P0, P-)`` at one momentum."""
    return field_projectors(1, bloch_field(params, kx))


class TestSpinMatrices:

    def test_spin1_defining_basis(self):
        sx, sy, sz = spin_matrices(1)
        assert sx.shape == sy.shape == (3, 3)
        assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))

    def test_spin1_casimir(self):
        sx, sy, sz = spin_matrices(1)
        total = sx @ sx + sy @ sy + sz @ sz
        assert np.allclose(total, 2.0 * np.eye(3), atol=1e-12)

    def test_spin1_commutators(self):
        sx, sy, sz = spin_matrices(1)
        assert np.allclose(comm(sx, sy), 1j * sz, atol=1e-12)
        assert np.allclose(comm(sy, sz), 1j * sx, atol=1e-12)
        assert np.allclose(comm(sz, sx), 1j * sy, atol=1e-12)

    def test_spin1_component_eigenvalues(self):
        for s in spin_matrices(1):
            assert np.allclose(s, s.conj().T)
            assert np.allclose(np.sort(np.linalg.eigvalsh(s)), [-1.0, 0.0, 1.0],
                               atol=1e-12)

    def test_pauli_basics(self):
        sx, sy, sz = couplings(0.5)
        assert np.allclose(sz, np.diag([1.0, -1.0]))
        assert np.allclose(sx @ sy, 1j * sz)
        for sigma in (sx, sy, sz):
            assert np.allclose(sigma @ sigma, np.eye(2))

    def test_pauli_spin_components_are_half(self):
        sx, sy, sz = spin_matrices(0.5)
        for s in (sx, sy, sz):
            assert np.allclose(np.sort(np.linalg.eigvalsh(s)), [-0.5, 0.5])
        assert np.allclose(comm(sx, sy), 1j * sz, atol=1e-12)


class TestSpinModelTable:
    """The numpy-free per-spin model against the complex dense reference."""

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_matches_the_reference_matrices(self, spin):
        model = spin_model(spin)
        kappa = model.coupling
        cx, cz = np.array(model.cx), np.array(model.cz)
        sx, _, sz = spin_matrices(spin)
        # bit for bit: the packet and ion Hamiltonians keep their last bit
        assert np.array_equal(cx, kappa * sx.real)
        assert np.array_equal(cz, kappa * sz.real)
        assert not sx.imag.any() and not sz.imag.any()
        assert kappa**2 * spin == pytest.approx(
            np.linalg.norm(cz @ cx - cx @ cz, 2), rel=1e-15)
        # the labels follow the descending eigenvalues of H at a positive
        # mass field, and so do the projectors
        field = np.array([0.7, 0.4])
        energies = np.linalg.eigvalsh(hamiltonian(spin, field))[::-1]
        signs = {"+": 1.0, "0": 0.0, "-": -1.0}
        assert [signs[label] for label in model.labels] == list(
            np.sign(np.round(energies, 12)))
        projectors = field_projectors(spin, field)
        assert np.allclose([np.trace(hamiltonian(spin, field) @ p) for p in projectors],
                           energies, rtol=0.0, atol=1e-14)


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["c", "m", "g", "hbar"])
    def test_refuses_non_finite_fields(self, name, value):
        # NaN and inf once passed the sign checks
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            PhysicalParams(**{name: value})

    def test_rest_energy(self):
        assert PhysicalParams(c=2.0, m=0.25).rest_energy == 1.0

    def test_value_type_contract(self):
        # equal fields are one key of the packet route's lru_caches
        params = PhysicalParams(m=0.85, g=1.5)
        assert params == PhysicalParams(1.0, 0.85, 1.5, 1.0)
        assert hash(params) == hash(PhysicalParams(1.0, 0.85, 1.5, 1.0))
        assert repr(params) == "PhysicalParams(c=1.0, m=0.85, g=1.5, hbar=1.0)"
        with pytest.raises(AttributeError):
            params.m = 1.0


class TestBlochHamiltonian:

    def test_mass_only(self):
        h = bloch_hamiltonian(1, 0.0, PhysicalParams(m=1.0))
        assert np.allclose(h, np.diag([1.0, 0.0, -1.0]))

    def test_massless_spectrum(self):
        # independent route: eigen-solver on the assembled matrix
        h = bloch_hamiltonian(1, 1.0, PhysicalParams(m=0.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-1.0, 0.0, 1.0],
                           atol=1e-12)

    def test_pauli_massless_spectrum(self):
        h = bloch_hamiltonian(0.5, -5.0, PhysicalParams(m=0.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-5.0, 5.0], atol=1e-12)

    def test_hermitian(self):
        h = bloch_hamiltonian(1, -0.7, PhysicalParams(c=2.0, m=0.5, hbar=0.5))
        assert np.isrealobj(h)
        assert np.allclose(h, h.T)


class TestBandEnergies:

    def test_rest_energy(self):
        assert e_plus(0.0, PhysicalParams(m=1.0)) == 1.0

    def test_against_eigenvalues(self):
        params = PhysicalParams(m=0.85)
        energy = e_plus(10.0, params)
        assert energy == pytest.approx(10.036059983878136, abs=1e-12)
        h = bloch_hamiltonian(1, 10.0, params)
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
            p_plus, p_zero, _ = field_projectors(1, [0.0, 1.3e154])
        assert np.array_equal(p_plus, np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(p_zero, np.diag([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("field", [[0.0, 1e-200], [1e-200, 0.0],
                                       [3e-170, 4e-170], [1e-160, 0.0]],
                             ids=["mass", "momentum", "both", "subnormal-square"])
    def test_tiny_field_keeps_its_bands(self, field):
        # the squared field underflowed to 0 (or lost digits as a subnormal),
        # and a nonzero field came out degenerate (P0 = 1) or off its bands
        field = np.array(field)
        scaled = field_projectors(1, field * 1e180)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = field_projectors(1, field)
        assert np.allclose(tiny, scaled, rtol=0.0, atol=1e-15)

    def test_zero_field_stays_degenerate(self):
        p_plus, p_zero, p_minus = field_projectors(1, [0.0, 0.0])
        assert np.array_equal(p_zero, np.eye(3))
        assert not p_plus.any() and not p_minus.any()

    def test_normal_field_magnitude_is_the_norm(self):
        # the norm and hypot differ in the last bit on many fields; fields
        # whose square is a normal float keep the norm, so outputs are as before
        rng = np.random.default_rng(3)
        fields = rng.normal(size=(1000, 2)) * np.exp(rng.uniform(-300, 300, (1000, 1)))
        norms = np.linalg.norm(fields, axis=-1)
        fields = fields[(norms > 1e-150) & (norms < 1e150)]
        expected = np.stack(closed_projectors(
            hamiltonian(1, fields), np.linalg.norm(fields, axis=-1)))
        assert np.array_equal(field_projectors(1, fields), expected)

    @pytest.mark.parametrize("field", [[1e155, 0.0], [0.0, 1e300], [np.inf, 1.0]])
    def test_overflowing_field_is_refused(self, field):
        # the squared field overflowed to inf, and the projectors came out
        # degenerate (P0 = 1, P+- = 0) behind a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="squared magnitude overflows"):
                field_projectors(1, [[1.0, 0.5], field])


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
        kx, ky, m = self._random_inputs(dim)
        cx, cy, cz = couplings((dim - 1) / 2)
        h = (kx[:, None, None] * cx + ky[:, None, None] * cy
             + m[:, None, None] * cz)
        e_plus = np.sqrt(kx**2 + ky**2 + m**2)
        return h, e_plus, closed_projectors(h, e_plus)

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
        projectors = field_projectors((dim - 1) / 2, bloch_field(params, k))
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

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_match_matrix_exponential(self, spin):
        rng = np.random.default_rng(7)
        omega = rng.normal(scale=2.0, size=(6, 3))
        omega[0] = 0.0  # the identity, where the rotation axis is undefined
        spins = np.stack(spin_matrices(spin))
        generators = np.einsum("na,aij->nij", omega, spins)
        exact = np.array([expm(-1j * h) for h in generators])
        d = len(spins[0])
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

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    @pytest.mark.parametrize("angle", [0.0, 5e-324, 1e-310, 1e-170, 1e3],
                             ids=["zero", "subnormal", "subnormal-2",
                                  "square-underflows", "1e3-rad"])
    def test_unit_rotor_at_extreme_angles(self, spin, angle):
        axis = np.array([0.48, -0.6, 0.64])
        omega = angle * axis
        q = rotor(omega)
        assert abs(np.sum(q**2) - 1.0) < 1e-15
        # the vector part is sin(angle / 2) times the axis, also where the
        # squared angle underflows and the limit 1/2 of sin(angle/2) / angle
        # takes over
        assert np.allclose(q[1:], np.sin(angle / 2.0) * axis, rtol=1e-15, atol=1e-320)
        spins = np.stack(spin_matrices(spin))
        exact = expm(-1j * np.einsum("a,aij->ij", omega, spins))
        tol = 1e-15 if angle < 1 else 1e-12  # expm's own error grows with angle
        assert np.max(np.abs(rotor_matrix(q, len(spins[0])) - exact)) < tol


    def test_unit_rotor_where_the_squared_angle_overflows(self):
        # |omega| = 1e160: omega^2 overflows, and hypot takes the angle; a
        # rotor whose square is finite keeps its bits
        axis = np.array([0.48, -0.6, 0.64])
        omega = np.stack([1e160 * axis, 1e3 * axis, [1e200, -1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = rotor(omega)
        assert np.all(np.abs(np.sum(q**2, axis=-1) - 1.0) < 1e-15)
        assert np.array_equal(q[1], rotor(1e3 * axis))
        # the vector part lies along the axis (sin(angle / 2) may be negative)
        vector = q[0, 1:] / np.linalg.norm(q[0, 1:])
        assert abs(abs(vector @ axis) - 1.0) < 1e-15

def _projection(matrices, spin):
    """Real ``omega`` with ``matrices = omega . (sx, sy, sz)``, by the trace
    inner products under which the spin components are orthogonal."""
    spins = np.stack(spin_matrices(spin))
    norms = np.einsum("aij,aji->a", spins, spins).real
    return np.einsum("...ij,aji->...a", matrices, spins).real / norms


class TestClosedFormRotationVectors:
    """The step rotors' closed-form rotation vectors against the projection
    of their matrix generators, commutators included, onto the spin basis."""

    @staticmethod
    def _draws(seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            params = PhysicalParams(c=rng.uniform(0.2, 5.0), m=rng.uniform(0.0, 3.0),
                                    g=rng.uniform(0.0, 5.0), hbar=rng.uniform(0.2, 5.0))
            yield params, rng.uniform(1e-3, 0.5), rng.normal(scale=20.0, size=7)

    @staticmethod
    def _assert_close(got, want):
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_magnus_step(self, spin):
        cx, _, cz = couplings(spin)
        for params, dt, k in self._draws(11):
            mass = params.rest_energy
            a, b = params.c * params.hbar * cx, mass * cz
            generator = (dt * (k[:, None, None] * a + b)
                         + 1j * dt**3 * params.g / (12.0 * params.hbar**2) * comm(a, b))
            want = _projection(generator / params.hbar, spin)
            # the rotation vector of the step about each k, as magnus_sweep
            # forms it: (k ax, ay, az)
            ax, ay, az = magnus_step(spin, params, mass, dt)
            got = k[:, None] * np.array([ax, 0.0, 0.0]) + np.array([0.0, ay, az])
            self._assert_close(got, want)

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_packet_kinetic_factor_and_correction(self, spin):
        cx, _, cz = couplings(spin)
        for params, dt, k in self._draws(12):
            kinetic = dt * (params.c * params.hbar * k[:, None, None] * cx
                            + params.rest_energy * cz) / params.hbar
            rate = params.g * params.c * params.rest_energy / params.hbar**2
            # K = exp(-i M) with M = -i dt^3 C / 24, C = rate [Cz, Cx]
            correction = -1j * dt**3 * rate / 24.0 * comm(cz, cx)
            vectors = []

            def record(omega):
                vectors.append(np.asarray(omega, dtype=float))
                return rotor(omega)

            with mock.patch.object(wavepacket, "rotor", record):
                wavepacket._corrected_rotors(k, params, dt, len(cx))
            self._assert_close(vectors[0], _projection(correction, spin))
            self._assert_close(vectors[1], _projection(kinetic, spin))
            # K is half of the Magnus step's commutator term, exactly
            ax, ay, az = magnus_step(spin, params, params.rest_energy, dt)
            assert np.array_equal(vectors[0], (0.0, ay / 2.0, 0.0))
            assert np.array_equal(vectors[1][:, 1:], np.tile((0.0, az), (len(k), 1)))
            assert np.array_equal(vectors[1][:, 0], k * ax)


class TestMassAxisRotation:
    """A mass term along any unit axis in the y-z plane is the pure-``Cz``
    mass term rotated about x, so the swept-level oracle integrates with
    ``Cz`` alone."""

    @pytest.mark.parametrize("spin", [1, 0.5], ids=["spin1", "spin-half"])
    def test_rotation_about_x_carries_cz_to_the_tilted_axis(self, spin):
        cx, cy, cz = couplings(spin)
        kx = np.array([-40.0, -0.3, 0.0, 0.7, 40.0])
        for theta in np.linspace(-3.0, 3.0, 7):
            u = rotor_matrix(rotor((theta, 0.0, 0.0)), len(cx))
            tilted = -np.sin(theta) * cy + np.cos(theta) * cz
            assert np.max(np.abs(u.conj().T @ tilted @ u - cz)) < 1e-14
            assert np.max(np.abs(u.conj().T @ cx @ u - cx)) < 1e-14
            # hence H_tilted(k) = U H_plain(k) U^dagger, band by band
            plain = field_projectors(spin, np.stack(
                np.broadcast_arrays(kx, 0.8), -1))
            dense = kx[:, None, None] * cx + 0.8 * tilted
            literal = np.stack(closed_projectors(dense, np.hypot(kx, 0.8)))
            assert np.max(np.abs(u @ plain @ u.conj().T - literal)) < 1e-14
