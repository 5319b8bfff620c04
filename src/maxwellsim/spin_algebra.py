"""Bloch fields, band projectors, band weights and rotors on numpy arrays.

The spectral propagator and the trapped-ion emulator are built on the
objects defined here, and both read their bands out through
:func:`field_projectors` and :func:`band_weights` (or
:func:`apply_projectors`).  The swept-level oracle
(:mod:`maxwellsim.sweep_integrator`) follows one start, so it writes the
rotor chain out on :mod:`math` floats, reads its bands off the angle
between the field axes at its window's ends, and never loads this module.
A route packs its projectors once with :func:`pack_projectors` and caches
them; :func:`band_weights` then reads each state from its real moments
``Re psi_i^* psi_j`` in one matrix product.

The model lives in :mod:`maxwellsim.landau_zener` (``spin_model`` and
``magnus_step``), and :func:`field_projectors` and :func:`magnus_sweep`
take the spin, 1 or 0.5.  The complex dense spin matrices that the tests
hold the model to live beside the tests, not in the package.

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
symmetric square for spin 1) is formed once at the end.  The packet's
exact reference takes the Magnus path product :func:`magnus_sweep` over
thousands of starts, and its step predictor takes the split step's own
rotors through the same :func:`rotor_chain`; the oracle's scalar chain
takes the Magnus steps one start at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .landau_zener import PhysicalParams, magnus_step, spin_model

__all__ = [
    "PhysicalParams",
    "bloch_field",
    "field_projectors",
    "pack_projectors",
    "band_weights",
    "apply_projectors",
    "rotor",
    "rotor_product",
    "rotor_matrix",
    "rotor_chain",
    "magnus_sweep",
]

_SQRT2 = np.sqrt(2.0)
_WEIGHT_BLOCK = 1 << 16
# Step rotors per block of :func:`rotor_chain`; bounds its memory (a few
# arrays of this many 4-vectors) whatever the step and start counts.
_ROTOR_BLOCK = 16384
# Below this magnitude a field's square is subnormal or 0.
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def bloch_field(params: PhysicalParams, kx) -> np.ndarray:
    """Fields ``(c hbar kx, m c^2)``, shape ``(..., 2)``, with
    ``H(k) = field . (Cx, Cz)``."""
    return np.stack(np.broadcast_arrays(params.c * params.hbar * kx,
                                        params.rest_energy), -1)


def field_projectors(spin, field) -> np.ndarray:
    """Real band projectors of ``H = field . (Cx, Cz)`` for spin 1 or 0.5 at
    real fields of shape ``(..., 2)``, stacked ``(bands, ..., d, d)`` in the
    order of the spin's band labels.  They are the closed polynomial in
    ``hn = H / E+``: ``(hn^2 + hn) / 2``, ``1 - hn^2`` and ``(hn^2 - hn) /
    2`` for spin 1, ``(1 +- hn) / 2`` for spin 1/2.  At a zero field ``hn =
    0``, so the projectors still sum to 1: the flat band takes the identity
    (spin 1), or each band half of it (spin 1/2).  A field whose squared
    magnitude overflows raises :class:`ParameterError`."""
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
    hn = h / np.where(e_plus == 0.0, 1.0, e_plus)[..., None, None]
    eye = np.eye(len(model.cx))
    if len(model.labels) == 2:
        return np.stack([(eye + hn) / 2.0, (eye - hn) / 2.0])
    hn2 = hn @ hn
    return np.stack([(hn2 + hn) / 2.0, eye - hn2, (hn2 - hn) / 2.0])


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
    with np.errstate(over="ignore"):
        angle = np.sqrt(np.sum(omega**2, axis=-1))
    # the square overflows above about 1.3e154 rad; hypot forms none there
    big = np.isinf(angle)
    if big.any():
        angle = np.where(big, np.hypot.reduce(omega, axis=-1), angle)
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
    ``|0> = (|ud> + |du>) / sqrt(2)``, ``|-1> = |dd>``: the basis of
    ``Sz = diag(1, 0, -1)``, in which the spin model is written.
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


def rotor_chain(step_rotors, k0, rate, dt, n_steps) -> np.ndarray:
    """Rotor of the ordered product of ``n_steps`` steps of ``dt`` along
    ``k(t) = k0 - rate t``, one per start: shape ``(len(k0), 4)``, or
    ``(1, 4)`` for a scalar ``k0``.  ``step_rotors`` maps the midpoint
    wavenumbers of a block of steps, ``(steps, starts)``, to their rotors.

    Step rotors are built in blocks of at most ``_ROTOR_BLOCK`` and
    multiplied pairwise, so the memory stays bounded whatever the step and
    start counts.
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


def magnus_sweep(spin, params: PhysicalParams, mass_energy: float, k0, dt,
                 n_steps) -> np.ndarray:
    """Rotor of the ordered product of ``n_steps`` 4th-order Magnus steps of
    ``dt`` for ``H(k) = c hbar k Cx + mass_energy Cz`` swept along ``k(t) =
    k0 - (g / hbar) t``, one per start, as :func:`rotor_chain` returns it.

    The step about ``k_mid`` rotates by ``(k_mid ax, ay, az)`` of
    :func:`~maxwellsim.landau_zener.magnus_step`; :func:`rotor_matrix`
    turns the result into the d x d propagator.
    """
    ax, ay, az = magnus_step(spin, params, mass_energy, dt)
    slope, offset = np.array([ax, 0.0, 0.0]), np.array([0.0, ay, az])
    return rotor_chain(lambda k_mid: rotor(k_mid[..., None] * slope + offset),
                       k0, params.g / params.hbar, dt, n_steps)
