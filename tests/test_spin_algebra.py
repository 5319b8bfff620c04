import numpy as np
import pytest
from scipy.linalg import expm

from maxwellsim import (
    DegenerateBandsError,
    PhysicalParams,
    adiabatic_projectors,
    band_energies,
    band_projectors,
    bloch_hamiltonian,
    pauli_algebra,
    spin1_matrices,
)
from maxwellsim.spin_algebra import (
    rotor,
    rotor_matrix,
    rotor_product,
    spin_components,
)


def comm(a, b):
    return a @ b - b @ a


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
        sx, sy, sz = alg.pauli
        assert np.allclose(sz, np.diag([1.0, -1.0]))
        assert np.allclose(sx @ sy, 1j * sz)
        for sigma in (sx, sy, sz):
            assert np.allclose(sigma @ sigma, np.eye(2))

    def test_pauli_spin_components_are_half(self):
        alg = pauli_algebra()
        for s in (alg.sx, alg.sy, alg.sz):
            assert np.allclose(np.sort(np.linalg.eigvalsh(s)), [-0.5, 0.5])
        assert np.allclose(comm(alg.sx, alg.sy), 1j * alg.sz, atol=1e-12)

    def test_spin1_pauli_raises(self):
        with pytest.raises(ValueError):
            spin1_matrices().pauli


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
        h = bloch_hamiltonian(spin1_matrices(), 0.0, 0.0, PhysicalParams(m=1.0))
        assert np.allclose(h, np.diag([1.0, 0.0, -1.0]))

    def test_massless_spectrum(self):
        # independent route: eigen-solver on the assembled matrix
        h = bloch_hamiltonian(spin1_matrices(), 1.0, 0.0, PhysicalParams(m=0.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-1.0, 0.0, 1.0],
                           atol=1e-12)

    def test_pauli_massless_spectrum(self):
        h = bloch_hamiltonian(pauli_algebra(), 3.0, 4.0, PhysicalParams(m=0.0))
        assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [-5.0, 5.0], atol=1e-12)

    def test_hermitian(self):
        h = bloch_hamiltonian(spin1_matrices(), 0.3, -0.7,
                              PhysicalParams(c=2.0, m=0.5, hbar=0.5))
        assert np.allclose(h, h.conj().T)


class TestBandEnergies:

    def test_rest_energy(self):
        assert np.allclose(band_energies(0.0, 0.0, PhysicalParams(m=1.0)),
                           (1.0, 0.0, -1.0))

    def test_against_eigenvalues(self):
        params = PhysicalParams(m=0.85)
        e_plus, e_zero, e_minus = band_energies(10.0, 0.0, params)
        assert e_plus == pytest.approx(10.036059983878136, abs=1e-12)
        h = bloch_hamiltonian(spin1_matrices(), 10.0, 0.0, params)
        assert np.allclose(np.linalg.eigvalsh(h), [e_minus, e_zero, e_plus],
                           atol=1e-10)

    def test_massless(self):
        params = PhysicalParams(c=2.0, m=0.0, hbar=0.5)
        e_plus = band_energies(3.0, 4.0, params)[0]
        assert e_plus == pytest.approx(5.0 * params.c * params.hbar)


class TestBandProjectors:

    def test_rest_frame_projectors(self):
        p_plus, p_zero, p_minus = band_projectors(0.0, 0.0, PhysicalParams(m=1.0))
        assert np.allclose(p_plus, np.diag([1, 0, 0]))
        assert np.allclose(p_zero, np.diag([0, 1, 0]))
        assert np.allclose(p_minus, np.diag([0, 0, 1]))

    def test_completeness(self):
        projectors = band_projectors(0.4, -1.1, PhysicalParams(m=0.3))
        assert np.allclose(sum(projectors), np.eye(3), atol=1e-12)

    def test_rank_one(self):
        # nondegenerate spectrum away from the crossing: each projector rank 1
        projectors = band_projectors(10.0, 0.0, PhysicalParams(m=0.85))
        for p in projectors:
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateBandsError):
            band_projectors(0.0, 0.0, PhysicalParams(m=0.0))


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
