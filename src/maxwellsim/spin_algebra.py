"""Spin matrices, Bloch fields, band projectors and band weights.

Everything downstream (analytic transition probabilities, the swept-level
integrator, the spectral propagator, the trapped-ion emulator) is built on
the objects defined here, and every route reads its bands out through
:func:`field_projectors` and :func:`band_weights` (or
:func:`apply_projectors`).  Two representations are supported:

* spin 1 (dimension 3): standard angular-momentum basis, ``Sz = diag(1, 0, -1)``,
  giving the three bands ``E+ > E0 = 0 > E-``;
* spin 1/2 (dimension 2): Pauli matrices.  The stored components are the
  spin operators ``sigma/2``; the Bloch Hamiltonian couples through the bare
  Pauli matrices so that the mass term has eigenvalues ``+-1 * m c^2``.

Projectors are evaluated from the closed polynomial in ``H/E+`` rather than
from an eigen-solver, which keeps them free of eigenvector phase ambiguity
and lets them vectorize over momentum grids.  ``Cx`` and ``Cz`` are real in
both bases, so without a ``Cy`` term ``H`` and its projectors are real.

Every propagator the package needs, ``exp(-i omega . S)`` with a real
vector omega, is a rotation.  It is held as the unit quaternion of its
SU(2) element (a "rotor"), so products of many step propagators are a few
array operations on 4-vectors, and the d x d matrix (the SU(2) matrix itself
for spin 1/2, its symmetric square for spin 1) is formed once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landau_zener import PhysicalParams

__all__ = [
    "SpinAlgebra",
    "PhysicalParams",
    "spin1_matrices",
    "pauli_algebra",
    "algebra_for",
    "bloch_field",
    "field_hamiltonian",
    "adiabatic_projectors",
    "field_projectors",
    "band_weights",
    "apply_projectors",
    "spin_components",
    "rotor",
    "rotor_product",
    "rotor_matrix",
]

_SQRT2 = np.sqrt(2.0)
_WEIGHT_BLOCK = 1 << 16


@dataclass(frozen=True)
class SpinAlgebra:
    """Spin-component matrices for one representation.

    ``sx, sy, sz`` are the dimensionless spin components (Hermitian,
    ``[sx, sy] = i sz`` and cyclic).  ``dimension`` is 2 or 3.
    """

    dimension: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

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
    def band_labels(self) -> tuple[str, ...]:
        return ("+", "0", "-") if self.dimension == 3 else ("+", "-")


def spin1_matrices() -> SpinAlgebra:
    """Spin-1 components in the standard angular-momentum basis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return SpinAlgebra(3, sx, sy, sz)


def pauli_algebra() -> SpinAlgebra:
    """Spin-1/2 algebra; components are sigma/2, couplings the bare sigma."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return SpinAlgebra(2, sx / 2, sy / 2, sz / 2)


def algebra_for(dimension: int) -> SpinAlgebra:
    """The spin-1 algebra for dimension 3, the Pauli algebra for 2."""
    return spin1_matrices() if dimension == 3 else pauli_algebra()


def bloch_field(params: PhysicalParams, kx, ky=0.0) -> np.ndarray:
    """Fields ``(c hbar kx, c hbar ky, m c^2)``, shape ``(..., 3)``, with
    ``H(k) = field . (Cx, Cy, Cz)``."""
    chbar = params.c * params.hbar
    return np.stack(np.broadcast_arrays(chbar * kx, chbar * ky, params.rest_energy), -1)


def field_hamiltonian(algebra: SpinAlgebra, field) -> np.ndarray:
    """``field . (Cx, Cy, Cz)`` for real fields ``(..., 3)``; real where no
    field has a y component."""
    couplings = np.stack(algebra.coupling_matrices)
    if not np.any(field[..., 1]):
        couplings = couplings.real
    return np.tensordot(field, couplings, 1)


def adiabatic_projectors(h: np.ndarray, e_plus) -> tuple[np.ndarray, ...]:
    """Band projectors of a Hermitian matrix with spectrum ``{+E, 0, -E}`` (or ``{+-E}``).

    ``h`` may carry leading batch axes (``(..., d, d)`` with matching
    ``e_plus`` of shape ``(...)``).  Batch entries with ``e_plus == 0`` are
    fully degenerate (``h = 0``): there the outer projectors vanish and the
    flat-band projector is the identity for dimension 3, and both
    projectors are half the identity for dimension 2.

    Returns ``(P+, P0, P-)`` for dimension 3 and ``(P+, P-)`` for dimension 2.
    """
    e = np.asarray(e_plus, dtype=float)
    hn = h / np.where(e == 0.0, 1.0, e)[..., None, None]
    eye = np.broadcast_to(np.eye(h.shape[-1], dtype=h.dtype), h.shape)
    if h.shape[-1] == 2:
        return (eye + hn) / 2.0, (eye - hn) / 2.0
    hn2 = hn @ hn
    return (hn2 + hn) / 2.0, eye - hn2, (hn2 - hn) / 2.0


def field_projectors(algebra: SpinAlgebra, field) -> np.ndarray:
    """Band projectors of ``H = field . (Cx, Cy, Cz)`` at real fields of
    shape ``(..., 3)``, stacked ``(bands, ..., d, d)`` in the order of
    ``algebra.band_labels``.  A zero field maps as in
    :func:`adiabatic_projectors`, so the projectors always sum to 1."""
    field = np.asarray(field, dtype=float)
    e_plus = np.linalg.norm(field, axis=-1)
    return np.stack(adiabatic_projectors(field_hamiltonian(algebra, field), e_plus))


def band_weights(psi: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """``sum_n psi_n^dagger P_bn psi_n`` for every band b, ``(..., bands)``,
    for ``psi`` of shape ``(..., *sites, d)`` with any leading batch axes.

    It equals ``sum P * (psi^* psi^T)``: one outer product and one matrix
    product, both real for real projectors, over blocks of the batch that
    bound the outer product to ``_WEIGHT_BLOCK`` entries.
    """
    stack = projectors.reshape(len(projectors), -1)
    batch = psi.shape[:psi.ndim - projectors.ndim + 2]
    rows = psi.reshape((-1,) + psi.shape[len(batch):])
    block = max(1, _WEIGHT_BLOCK // stack.shape[1])
    out = np.empty((len(rows), len(stack)))
    for first in range(0, len(rows), block):
        part = rows[first:first + block]
        outer = part.conj()[..., :, None] * part[..., None, :]
        outer = outer.real if np.isrealobj(projectors) else outer
        out[first:first + block] = (outer.reshape(len(part), -1) @ stack.T).real
    return out.reshape(batch + (len(stack),))


def apply_projectors(projectors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``P psi`` for projectors ``(..., d, d)`` and ``psi`` of shape ``(..., d)``.

    Real projectors act on the real and imaginary parts of ``psi`` as one
    real matrix product, without a complex copy of the projectors.
    """
    psi = np.ascontiguousarray(psi, dtype=complex)
    if np.iscomplexobj(projectors):
        return (projectors @ psi[..., None])[..., 0]
    pairs = psi.view(float).reshape(psi.shape + (2,))
    return (projectors @ pairs).view(complex)[..., 0]


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
