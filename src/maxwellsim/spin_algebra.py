"""Spin matrices, Bloch fields, band projectors and band weights.

Everything downstream (analytic transition probabilities, the swept-level
integrator, the spectral propagator, the trapped-ion emulator) is built on
the objects defined here, and every route reads its bands out through
:func:`field_projectors` and :func:`band_weights` (or
:func:`apply_projectors`).  A route packs its projectors once with
:func:`pack_projectors` and caches them; :func:`band_weights` then reads
each state from its real moments ``Re psi_i^* psi_j`` in one matrix
product.  Two representations are supported:

* spin 1 (dimension 3): standard angular-momentum basis, ``Sz = diag(1, 0, -1)``,
  giving the three bands ``E+ > E0 = 0 > E-``;
* spin 1/2 (dimension 2): Pauli matrices.  The stored components are the
  spin operators ``sigma/2``; the Bloch Hamiltonian couples through the bare
  Pauli matrices so that the mass term has eigenvalues ``+-1 * m c^2``.

Projectors are evaluated from the closed polynomial in ``H/E+`` rather than
from an eigen-solver, which keeps them free of eigenvector phase ambiguity
and lets them vectorize over momentum grids.  ``H(k) = c hbar k Cx +
m c^2 Cz`` couples through ``Cx`` and ``Cz`` only, which are real in both
bases, so ``H`` and its band projectors are real.

Every propagator the package needs, ``exp(-i omega . S)`` with a real
vector omega, is a rotation.  It is held as the unit quaternion of its
SU(2) element (a "rotor"), so products of many step propagators are a few
array operations on 4-vectors, written component by component into one
array, and the d x d matrix (the SU(2) matrix itself for spin 1/2, its
symmetric square for spin 1) is formed once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
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
    "pack_projectors",
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


def bloch_field(params: PhysicalParams, kx) -> np.ndarray:
    """Fields ``(c hbar kx, m c^2)``, shape ``(..., 2)``, with
    ``H(k) = field . (Cx, Cz)``."""
    return np.stack(np.broadcast_arrays(params.c * params.hbar * kx,
                                        params.rest_energy), -1)


def field_hamiltonian(algebra: SpinAlgebra, field) -> np.ndarray:
    """The real ``field . (Cx, Cz)`` for real fields ``(..., 2)``."""
    cx, _, cz = algebra.coupling_matrices
    return np.tensordot(field, np.stack([cx.real, cz.real]), 1)


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
    """Real band projectors of ``H = field . (Cx, Cz)`` at real fields of
    shape ``(..., 2)``, stacked ``(bands, ..., d, d)`` in the order of
    ``algebra.band_labels``.  A zero field maps as in
    :func:`adiabatic_projectors`, so the projectors always sum to 1.  A
    field whose squared magnitude overflows raises :class:`ParameterError`."""
    field = np.asarray(field, dtype=float)
    with np.errstate(over="ignore"):
        e_plus = np.linalg.norm(field, axis=-1)
    # the norm squares the field; past about 1.3e154 that overflows
    if not np.isfinite(e_plus).all():
        raise ParameterError("band field out of floating-point range: its "
                             "squared magnitude overflows")
    return np.stack(adiabatic_projectors(field_hamiltonian(algebra, field), e_plus))


def pack_projectors(projectors: np.ndarray) -> np.ndarray:
    """Real symmetric projectors ``(bands, *sites, d, d)`` packed for
    :func:`band_weights`: shape ``(d (d + 1) / 2, *sites, bands)``, one row
    per real moment of a state.

    ``psi^dagger P psi = sum_i P_ii |psi_i|^2 + 2 sum_{i<j} P_ij
    Re(psi_i^* psi_j)``, so row k holds the factor of moment k: ``P_ii`` or
    ``2 P_ij``.  The pairs ``(i, i + s)`` run by offset s, then by i.
    Complex projectors raise ``ValueError``.
    """
    if np.iscomplexobj(projectors):
        raise ValueError("pack_projectors takes real projectors only")
    d = projectors.shape[-1]
    rows = [projectors[..., i, i + s] * (2.0 if s else 1.0)
            for s in range(d) for i in range(d - s)]
    return np.ascontiguousarray(np.moveaxis(np.stack(rows), 1, -1))


def band_weights(psi: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """``sum_n psi_n^dagger P_bn psi_n`` for every band b, ``(..., bands)``,
    for ``psi`` of shape ``(..., *sites, d)`` with any leading batch axes and
    ``packed = pack_projectors(P)``.

    The real moments ``Re psi_i^* psi_j`` are products of the real and
    imaginary parts of psi, and one matrix product contracts them with the
    packed entries.  No complex product is formed.  Blocks of the batch
    bound the moments to ``_WEIGHT_BLOCK`` entries.
    """
    d = psi.shape[-1]
    count, *sites, bands = packed.shape
    n = math.prod(sites)
    batch = psi.shape[:psi.ndim - len(sites) - 1]
    coefficients = packed.reshape(count, n, bands)
    # components first, (d, rows, n), so every moment is a contiguous product
    parts = np.moveaxis(psi.reshape((-1, n, d)), -1, 0)
    out = np.empty((parts.shape[1], bands))
    block = max(1, _WEIGHT_BLOCK // (count * n))
    for first in range(0, len(out), block):
        moments = _moments(parts[:, first:first + block])
        out[first:first + block] = np.matmul(moments, coefficients).sum(axis=0)
    return out.reshape(batch + (bands,))


def _moments(parts: np.ndarray) -> np.ndarray:
    """The real moments ``Re psi_i^* psi_j = re_i re_j + im_i im_j`` of the
    states ``parts``, shape ``(d, rows, n)``, in the row order of
    :func:`pack_projectors`."""
    re, im = np.ascontiguousarray(parts.real), np.ascontiguousarray(parts.imag)
    d = len(re)
    out = np.empty((d * (d + 1) // 2,) + re.shape[1:])
    scratch = np.empty_like(re)
    row = 0
    for s in range(d):
        k = d - s
        np.multiply(re[:k], re[s:], out=out[row:row + k])
        np.multiply(im[:k], im[s:], out=scratch[:k])
        out[row:row + k] += scratch[:k]
        row += k
    return out


def apply_projectors(projectors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``P psi`` for real projectors ``(..., d, d)`` and ``psi`` of shape
    ``(..., d)``: one real matrix product on the real and imaginary parts of
    ``psi``, without a complex copy of the projectors.  Complex projectors
    raise ``ValueError``."""
    if np.iscomplexobj(projectors):
        raise ValueError("apply_projectors takes real projectors only")
    psi = np.ascontiguousarray(psi, dtype=complex)
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
    angle = np.sqrt(np.sum(omega**2, axis=-1))
    out = np.empty(omega.shape[:-1] + (4,))
    out[..., 0] = np.cos(0.5 * angle)
    # sin(angle / 2) / angle, with its limit 1/2 at angle = 0
    scale = np.divide(np.sin(0.5 * angle), angle,
                      out=np.full(angle.shape, 0.5), where=angle > 0)
    np.multiply(scale[..., None], omega, out=out[..., 1:])
    return out


def rotor_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quaternion of the product ``U_p U_q`` of two rotors."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    out = np.empty(np.broadcast_shapes(np.shape(p), np.shape(q)))
    out[..., 0] = pw * qw - px * qx - py * qy - pz * qz
    out[..., 1] = pw * qx + qw * px + py * qz - pz * qy
    out[..., 2] = pw * qy + qw * py + pz * qx - px * qz
    out[..., 3] = pw * qz + qw * pz + px * qy - py * qx
    return out


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
