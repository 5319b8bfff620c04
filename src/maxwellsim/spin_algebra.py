"""Spin matrices, Bloch Hamiltonians, band energies and band projectors.

Everything downstream (analytic transition probabilities, the swept-level
integrator, the spectral propagator, the trapped-ion emulator) is built on
the objects defined here.  Two representations are supported:

* spin 1 (dimension 3): standard angular-momentum basis, ``Sz = diag(1, 0, -1)``,
  giving the three bands ``E+ > E0 = 0 > E-``;
* spin 1/2 (dimension 2): Pauli matrices.  The stored components are the
  spin operators ``sigma/2``; the Bloch Hamiltonian couples through the bare
  Pauli matrices so that the mass term has eigenvalues ``+-1 * m c^2``.

Projectors are evaluated from the closed polynomial in ``H/E+`` rather than
from an eigen-solver, which keeps them free of eigenvector phase ambiguity
and lets them vectorize over momentum grids.

Every propagator the package needs, ``exp(-i omega . S)`` with a real
vector omega, is a rotation.  It is held as the unit quaternion of its
SU(2) element (a "rotor"), so products of many step propagators are a few
array operations on 4-vectors, and the d x d matrix (the SU(2) matrix itself
for spin 1/2, its symmetric square for spin 1) is formed once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBandsError

__all__ = [
    "SpinAlgebra",
    "PhysicalParams",
    "spin1_matrices",
    "pauli_algebra",
    "bloch_hamiltonian",
    "band_energies",
    "band_projectors",
    "adiabatic_projectors",
    "spin_components",
    "rotor",
    "rotor_product",
    "rotor_matrix",
]

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class SpinAlgebra:
    """Spin-component matrices plus identity for one representation.

    ``sx, sy, sz`` are the dimensionless spin components (Hermitian,
    ``[sx, sy] = i sz`` and cyclic).  ``dimension`` is 2 or 3.
    """

    dimension: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    identity: np.ndarray

    @property
    def coupling_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Matrices entering the Bloch Hamiltonian.

        Spin 1 couples through the spin components themselves; spin 1/2
        through the bare Pauli matrices (twice the spin components).
        """
        if self.dimension == 2:
            return 2.0 * self.sx, 2.0 * self.sy, 2.0 * self.sz
        return self.sx, self.sy, self.sz

    @property
    def pauli(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bare Pauli matrices (dimension-2 algebra only)."""
        if self.dimension != 2:
            raise ValueError("Pauli matrices are only defined for dimension 2")
        return self.coupling_matrices

    @property
    def band_labels(self) -> tuple[str, ...]:
        return ("+", "0", "-") if self.dimension == 3 else ("+", "-")


@dataclass(frozen=True)
class PhysicalParams:
    """Effective speed of light, rest mass, potential slope, and hbar.

    Natural units ``hbar = c = 1`` are the default; the trapped-ion module
    produces instances in its own (hbar = 1, Delta = 1) units.
    """

    c: float = 1.0
    m: float = 0.0
    g: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if self.g < 0:
            raise ValueError(f"g must be nonnegative, got {self.g}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def rest_energy(self) -> float:
        """m c^2."""
        return self.m * self.c**2


def spin1_matrices() -> SpinAlgebra:
    """Spin-1 components in the standard angular-momentum basis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return SpinAlgebra(3, sx, sy, sz, np.eye(3, dtype=complex))


def pauli_algebra() -> SpinAlgebra:
    """Spin-1/2 algebra; components are sigma/2, couplings the bare sigma."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return SpinAlgebra(2, sx / 2, sy / 2, sz / 2, np.eye(2, dtype=complex))


def bloch_hamiltonian(
    algebra: SpinAlgebra, kx: float, ky: float, params: PhysicalParams
) -> np.ndarray:
    """Kinetic-plus-mass Bloch Hamiltonian ``c hbar (kx Sx + ky Sy) + m c^2 Sz``."""
    cx, cy, cz = algebra.coupling_matrices
    chbar = params.c * params.hbar
    return chbar * kx * cx + chbar * ky * cy + params.rest_energy * cz


def band_energies(kx, ky, params: PhysicalParams):
    """Band energies ``(E+, E0, E-)`` with ``E+- = +-sqrt(c^2 hbar^2 k^2 + m^2 c^4)``.

    The flat band ``E0 = 0`` exists only in the spin-1 representation; the
    spin-1/2 spectrum consists of the outer pair alone.  Accepts scalars or
    arrays.
    """
    chbar = params.c * params.hbar
    e_plus = np.sqrt((chbar * kx) ** 2 + (chbar * ky) ** 2 + params.rest_energy**2)
    return e_plus, np.zeros_like(e_plus), -e_plus


def adiabatic_projectors(h: np.ndarray, e_plus) -> tuple[np.ndarray, ...]:
    """Band projectors of a Hermitian matrix with spectrum ``{+E, 0, -E}`` (or ``{+-E}``).

    ``h`` may carry leading batch axes (``(..., d, d)`` with matching
    ``e_plus`` of shape ``(...)``).  Batch entries with ``e_plus == 0`` are
    fully degenerate: there the outer projectors are set to zero and, for
    dimension 3, the flat-band projector absorbs the identity.  Scalar
    callers are expected to reject that case beforehand.

    Returns ``(P+, P0, P-)`` for dimension 3 and ``(P+, P-)`` for dimension 2.
    """
    e = np.asarray(e_plus, dtype=float)
    dim = h.shape[-1]
    safe = np.where(e == 0.0, 1.0, e)
    hn = h / safe[..., None, None]
    hn = np.where((e == 0.0)[..., None, None], 0.0, hn)
    eye = np.broadcast_to(np.eye(dim, dtype=complex), h.shape)
    if dim == 2:
        return (eye + hn) / 2.0, (eye - hn) / 2.0
    hn2 = hn @ hn
    p_plus = (hn2 + hn) / 2.0
    p_minus = (hn2 - hn) / 2.0
    p_zero = eye - hn2
    return p_plus, p_zero, p_minus


def band_projectors(
    kx: float, ky: float, params: PhysicalParams, algebra: SpinAlgebra | None = None
) -> tuple[np.ndarray, ...]:
    """Momentum-space band projectors at a single ``(kx, ky)`` point.

    Raises :class:`DegenerateBandsError` when ``kx = ky = m = 0`` (all bands
    touch and the polynomial construction is undefined).
    """
    if algebra is None:
        algebra = spin1_matrices()
    e_plus = band_energies(kx, ky, params)[0]
    if e_plus == 0.0:
        raise DegenerateBandsError(
            "band projectors undefined at kx = ky = m = 0 (all bands degenerate)"
        )
    h = bloch_hamiltonian(algebra, kx, ky, params)
    return adiabatic_projectors(h, e_plus)


def spin_components(matrices: np.ndarray, algebra: SpinAlgebra) -> np.ndarray:
    """Real coefficients ``omega`` with ``matrices = omega . (sx, sy, sz)``,
    shape ``(..., 3)``.  The matrices must lie in the span of the spin
    components (which are orthogonal under the trace)."""
    spins = np.stack([algebra.sx, algebra.sy, algebra.sz])
    norms = np.einsum("aij,aji->a", spins, spins).real
    return np.einsum("...ij,aji->...a", matrices, spins).real / norms


def rotor(omega) -> np.ndarray:
    """Quaternion ``(w, x, y, z)`` of ``exp(-i omega . S)``, shape ``(..., 4)``:
    its SU(2) element is ``w - i (x sigma_x + y sigma_y + z sigma_z)``
    ``= exp(-i omega . sigma / 2)``."""
    omega = np.asarray(omega, dtype=float)
    angle = np.sqrt(np.sum(omega**2, axis=-1, keepdims=True))
    # sin(angle / 2) omega / angle, finite at angle = 0
    return np.concatenate(
        [np.cos(angle / 2.0), 0.5 * np.sinc(angle / (2.0 * np.pi)) * omega], axis=-1)


def rotor_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion of the product ``U_p U_q`` of two rotors."""
    pw, pv = p[..., :1], p[..., 1:]
    qw, qv = q[..., :1], q[..., 1:]
    return np.concatenate([pw * qw - np.sum(pv * qv, axis=-1, keepdims=True),
                           pw * qv + qw * pv + np.cross(pv, qv)], axis=-1)


def rotor_matrix(q: np.ndarray, dimension: int) -> np.ndarray:
    """The ``(..., d, d)`` matrices ``exp(-i omega . S)`` of rotors ``q``.

    For spin 1 this is the symmetric square of the SU(2) matrix
    ``[[a, b], [c, d]]`` in the basis ``|1> = |uu>``,
    ``|0> = (|ud> + |du>) / sqrt(2)``, ``|-1> = |dd>``, which is the basis
    of :func:`spin1_matrices`.
    """
    w, x, y, z = np.moveaxis(np.asarray(q), -1, 0)
    a, b, c, d = w - 1j * z, -y - 1j * x, y - 1j * x, w + 1j * z
    if dimension == 2:
        rows = [[a, b], [c, d]]
    else:
        rows = [[a * a, _SQRT2 * a * b, b * b],
                [_SQRT2 * a * c, a * d + b * c, _SQRT2 * b * d],
                [c * c, _SQRT2 * c * d, d * d]]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
