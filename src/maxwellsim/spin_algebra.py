"""Bloch fields, band projectors, band weights and rotors on numpy arrays.

The spectral propagator and the trapped-ion emulator are built on the
objects defined here, and both read their bands out through
:func:`field_projectors` and :func:`band_weights` (or
:func:`apply_projectors`).  The swept-level oracle
(:mod:`maxwellsim.sweep_integrator`) follows one start, so it writes the
same projector polynomial and rotor chain out on :mod:`math` floats and
never loads this module.  A route packs its projectors once with
:func:`pack_projectors` and caches them; :func:`band_weights` then reads
each state from its real moments ``Re psi_i^* psi_j`` in one matrix
product.

The model lives in :mod:`maxwellsim.landau_zener` (``spin_model`` and
``magnus_step``), and :func:`field_projectors` and :func:`magnus_rotors`
take the spin, 1 or 0.5.  :func:`spin1_matrices` (``Sz = diag(1, 0, -1)``)
and :func:`pauli_algebra` (``sigma / 2``) are the complex dense reference
that tests hold the model to; no route calls them.

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
symmetric square for spin 1) is formed once at the end.  The packet
guard takes the path product :func:`sweep_rotor` and the Magnus step
:func:`magnus_rotors` over thousands of starts; the oracle's scalar chain
takes the same steps one start at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .landau_zener import PhysicalParams, magnus_step, spin_model

__all__ = [
    "SpinAlgebra",
    "PhysicalParams",
    "spin1_matrices",
    "pauli_algebra",
    "bloch_field",
    "adiabatic_projectors",
    "field_projectors",
    "pack_projectors",
    "band_weights",
    "apply_projectors",
    "rotor",
    "rotor_product",
    "rotor_matrix",
    "sweep_rotor",
    "magnus_rotors",
]

_SQRT2 = np.sqrt(2.0)
_WEIGHT_BLOCK = 1 << 16
# Step rotors per block of :func:`sweep_rotor`; bounds its memory (a few
# arrays of this many 4-vectors) whatever the step and start counts.
_ROTOR_BLOCK = 16384
# Below this magnitude a field's square is subnormal or 0.
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


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
        """The Bloch Hamiltonian's ``(Cx, Cy, Cz) = kappa (sx, sy, sz)``, with
        kappa from :func:`~maxwellsim.landau_zener.spin_model`."""
        kappa = spin_model((self.dimension - 1) / 2).coupling
        return tuple(kappa * s for s in (self.sx, self.sy, self.sz))


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


def bloch_field(params: PhysicalParams, kx) -> np.ndarray:
    """Fields ``(c hbar kx, m c^2)``, shape ``(..., 2)``, with
    ``H(k) = field . (Cx, Cz)``."""
    return np.stack(np.broadcast_arrays(params.c * params.hbar * kx,
                                        params.rest_energy), -1)


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


def field_projectors(spin, field) -> np.ndarray:
    """Real band projectors of ``H = field . (Cx, Cz)`` for spin 1 or 0.5 at
    real fields of shape ``(..., 2)``, stacked ``(bands, ..., d, d)`` in the
    order of the spin's band labels.  A zero field maps as in
    :func:`adiabatic_projectors`, so the projectors always sum to 1.  A
    field whose squared magnitude overflows raises :class:`ParameterError`."""
    model = spin_model(spin)
    field = np.asarray(field, dtype=float)
    with np.errstate(over="ignore"):
        e_plus = np.linalg.norm(field, axis=-1)
    # the norm squares the field; past about 1.3e154 that overflows
    if not np.isfinite(e_plus).all():
        raise ParameterError("band field out of floating-point range: its "
                             "squared magnitude overflows")
    # below about 1.5e-154 the square loses precision, and below about
    # 1e-162 it underflows to 0: there hypot, which forms no square, takes
    # the magnitude, so only a zero field is degenerate
    small = e_plus < _SQRT_TINY
    if small.any():
        e_plus = np.where(small, np.hypot(field[..., 0], field[..., 1]), e_plus)
    h = np.tensordot(field, np.array([model.cx, model.cz]), 1)
    return np.stack(adiabatic_projectors(h, e_plus))


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


def sweep_rotor(step_rotors, k0, rate, dt, n_steps) -> np.ndarray:
    """Rotor of the ordered product of ``n_steps`` step propagators along
    ``k(t) = k0 - rate t``, one per start: shape ``(len(k0), 4)``, or
    ``(1, 4)`` for a scalar ``k0``.

    ``step_rotors(k_mid)`` maps an array of step-midpoint wavenumbers to the
    rotors (``k_mid.shape + (4,)``) of the step propagators.  Rotors are
    built in blocks of at most ``_ROTOR_BLOCK`` and multiplied pairwise, so
    the memory stays bounded whatever the step and start counts;
    :func:`rotor_matrix` turns the result into the d x d propagator.
    """
    k0 = np.atleast_1d(np.asarray(k0, dtype=float))
    total = rotor(np.zeros((k0.size, 3)))
    block = max(1, _ROTOR_BLOCK // k0.size)
    for first in range(0, n_steps, block):
        steps = np.arange(first, min(first + block, n_steps))
        q = step_rotors(k0 - rate * (steps[:, None] + 0.5) * dt)
        while len(q) > 1:
            pairs = rotor_product(q[1::2], q[0:-1:2])
            q = np.concatenate([pairs, q[-1:]]) if len(q) % 2 else pairs
        total = rotor_product(q[0], total)
    return total


def magnus_rotors(spin, params: PhysicalParams, mass_energy: float, dt: float):
    """Step-rotor function of the 4th-order Magnus scheme for ``H(k) = c hbar
    k Cx + mass_energy Cz`` swept at ``dk/dt = -g / hbar``, for
    :func:`sweep_rotor`: the step about ``k_mid`` rotates by ``(k_mid ax, ay,
    az)`` of :func:`~maxwellsim.landau_zener.magnus_step`."""
    ax, ay, az = magnus_step(spin, params, mass_energy, dt)
    slope, offset = np.array([ax, 0.0, 0.0]), np.array([0.0, ay, az])
    return lambda k_mid: rotor(k_mid[..., None] * slope + offset)
