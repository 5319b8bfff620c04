"""Fock-truncated emulation of the pseudospin-1 model with two trapped ions.

Encoding: three internal levels (a, b, c) of ion 1 carry the spinor, one
shared motional mode carries position/momentum through the quadratures
``x = Delta (ad + a)`` and ``p = hbar (a - ad) / (2 i Delta)``, and a second
two-level ion provides the linear potential through an ``x sigma2_x``
coupling.  With ion 2 polarized along +sigma2_x (a conserved quantity) the
composite Hamiltonian

    H = sqrt(2) eta Delta W1t (Sx p) + hbar W1 Sz + hbar eta W2t (x / Delta) s2x

reproduces the continuum model with the correspondence

    c     = sqrt(2) eta Delta W1t
    m c^2 = hbar W1
    g     = hbar eta W2t / Delta .

All couplings are combinations of the standard carrier / red-sideband /
blue-sideband interactions (the Lamb-Dicke toolbox); the composite builder
assembles them with the phase and Rabi choices that realize the
correspondence above exactly.  Every toolbox term, and so ``H``, has the
ladder form ``zero x 1 + up x a + up^dag x ad`` on (ion 1 x ion 2) x motion
with ``(3 n_ion2)``-square ``zero`` and ``up``: :func:`sideband_toolbox`
and :func:`build_maxwell_hamiltonian` return it as a
:class:`LadderOperator`.  Propagation takes ``H`` from
:func:`build_maxwell_hamiltonian` and applies it in that form, never
assembling the full matrix: one application is one matrix product of
the ``(3 n_ion2) x (9 n_ion2)`` block ``[zero | up | up^dag]`` with the
state stacked over its two ladder shifts.  :func:`evolve_ion` expands
``exp(-i H t / hbar)`` in Chebyshev polynomials.  Band readout and filtering
use the eigenbasis of the truncated ``p`` (the Gauss-Hermite discrete
variable representation; Light, Hamilton & Lill, J. Chem. Phys. 82, 1400
(1985)), on whose vector j ``H`` acts as the mapped ``H(k)`` at
``k = p_j / hbar``, and the band layer of :mod:`maxwellsim.spin_algebra`
reads them out; the position grid serves only :func:`position_wavefunction`.
``p`` couples even Fock levels only to odd ones, so its eigenpairs come
from the singular value decomposition of its half-size even-by-odd block.

Imports: the module loads :mod:`maxwellsim.wavepacket` only inside
:func:`default_readout_grid` and :func:`position_wavefunction`, the
position-space snapshot readout, so a run that writes no snapshot loads the
ion route alone.

Units: hbar = 1 and lengths in units of ``delta_spread`` unless stated;
quote Rabi frequencies in angular kHz (rad/ms) and times come out in ms,
matching typical hyperfine-qubit experiments.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (GridCoverageError, NumericalGuardError, ParameterError,
                     TruncationError)
from .landau_zener import spin_model
from .spin_algebra import (PhysicalParams, apply_projectors, band_weights,
                           bloch_field, field_projectors, pack_projectors)

if TYPE_CHECKING:
    from .wavepacket import Grid1D, SpinorField

__all__ = [
    "IonParams",
    "IonState",
    "ION_TRACE_COLUMNS",
    "IonTrajectory",
    "LadderOperator",
    "quadratures",
    "sideband_toolbox",
    "build_maxwell_hamiltonian",
    "map_parameters",
    "coherent_initial_state",
    "evolve_ion",
    "position_wavefunction",
    "default_readout_grid",
]

#: Column order of ``IonTrajectory.trace``.
ION_TRACE_COLUMNS = (
    "t_ms", "pop_a", "pop_b", "pop_c", "x_mean",
    "w_plus", "w_zero", "w_minus", "fock_tail",
)

_HBAR = 1.0
# Weight allowed in the top 4 Fock levels before truncation is declared broken.
_TAIL_LEVELS = 4
_TAIL_TOL = 1e-6
# Largest relative change of any record's norm before propagation is
# declared broken (an underestimated spectral bound makes the Chebyshev
# series diverge); also the largest relative gap between a record's band
# weights and its norm before the readout is declared broken (a momentum
# basis short of a vector).
_NORM_TOL = 1e-10
# Size caps, checked before any allocation.  At n_fock = 4096 the momentum
# basis takes 3.4 s and 370 MiB; a record array of 2^22 complex entries
# (64 MiB) peaks near 320 MiB in the readout.
_MAX_FOCK = 4096
_MAX_RECORD_ENTRIES = 2**22
# Chebyshev blocks: every record of a block is expanded from the block's
# first state over at most this many units of R t / hbar, and the series is
# cut where every coefficient falls below _COEFF_CUT.
_BLOCK_Z = 64.0
_COEFF_CUT = 1e-14
# Largest number of Hamiltonian applications a run may make: about 100 s at
# n_fock = 512 (10 us each), far above the 946 to 1,313 that a 1 ms run at
# the feasibility point makes.
_MAX_MATVECS = 10**7

_LEVEL_PAIRS = ("ab", "bc", "a'b'")
_KINDS = ("carrier", "red", "blue")


@dataclass(frozen=True)
class IonParams:
    """Lamb-Dicke parameter, Rabi frequencies, mode spread and truncation.

    ``omega1_tilde`` drives both sideband pairs on ion 1 (the kinetic
    coupling), ``omega1`` is the light-shift splitting (the mass term),
    ``omega2_tilde`` the sideband drive on ion 2 (the potential slope).
    With ``reduce_ion2`` the conserved ``sigma2_x = +1`` sector replaces the
    explicit second ion, halving the Hilbert space.
    """

    eta: float
    omega1_tilde: float
    omega1: float
    omega2_tilde: float
    delta_spread: float = 1.0
    n_fock: int = 128
    reduce_ion2: bool = True

    def __post_init__(self):
        if self.eta <= 0:
            raise ParameterError("Lamb-Dicke parameter must be positive")
        if self.eta > 0.2:
            warnings.warn(
                f"eta = {self.eta} is outside the Lamb-Dicke regime; "
                "first-order sideband Hamiltonians become inaccurate",
                stacklevel=2,
            )
        for name in ("omega1_tilde", "omega1", "omega2_tilde"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")
        if self.delta_spread <= 0:
            raise ParameterError("delta_spread must be positive")
        if not 16 <= self.n_fock <= _MAX_FOCK:
            raise ParameterError(f"n_fock must lie in [16, {_MAX_FOCK}]")

    @property
    def n_ion2(self) -> int:
        return 1 if self.reduce_ion2 else 2

    @property
    def dim(self) -> int:
        return 3 * self.n_ion2 * self.n_fock

    @property
    def packet_width(self) -> float:
        """Amplitude Gaussian width of the motional ground state: sqrt(2) Delta."""
        return math.sqrt(2.0) * self.delta_spread

    @property
    def ion2_plus(self) -> np.ndarray:
        """Ion-2 amplitudes of the +sigma2_x eigenstate (one entry when reduced)."""
        return np.ones(self.n_ion2) / math.sqrt(self.n_ion2)


@dataclass
class IonState:
    """Amplitudes over ``|ion1> x |ion2> x |n>``, shaped ``(3, n_ion2, n_fock)``."""

    amplitudes: np.ndarray
    params: IonParams
    time: float = 0.0

    def __post_init__(self):
        expected = (3, self.params.n_ion2, self.params.n_fock)
        if self.amplitudes.shape != expected:
            raise ValueError(
                f"amplitudes must have shape {expected}, got {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@dataclass
class IonTrajectory:
    """Recorded ion evolution; trace rows follow :data:`ION_TRACE_COLUMNS`.

    ``norm_drift`` is the largest relative change of a record's norm from the
    input's (guarded at 1e-10), ``band_sum_drift`` the largest gap between a
    record's three band weights and its norm, relative to the input's norm
    (guarded at 1e-10), ``fock_tail_max`` the largest ``fock_tail``
    (guarded at 1e-6), and ``matvecs`` the number of Hamiltonian
    applications the Chebyshev expansion made.
    """

    trace: np.ndarray
    final: IonState
    norm_drift: float
    band_sum_drift: float
    fock_tail_max: float
    matvecs: int


@dataclass(frozen=True, eq=False)
class LadderOperator:
    """``zero x 1 + up x a + up^dag x ad`` on (ion 1 x ion 2) x motion, with
    ``a`` the mode's annihilator and ``(3 n_ion2)``-square ``zero`` and
    ``up``; ``zero`` is Hermitian."""

    zero: np.ndarray
    up: np.ndarray

    def __add__(self, other: LadderOperator) -> LadderOperator:
        return LadderOperator(self.zero + other.zero, self.up + other.up)

    def toarray(self, n_fock: int) -> np.ndarray:
        """The dense matrix on ``n_fock`` Fock levels."""
        a = _annihilator(n_fock)
        return (np.kron(self.zero, np.eye(n_fock)) + np.kron(self.up, a)
                + np.kron(self.up.conj().T, a.T))


def _annihilator(n_fock: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_fock)), 1)


def quadratures(delta_spread: float, n_fock: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated position and momentum matrices on the Fock basis.

    ``x = Delta (a + ad)`` and ``p = hbar (a - ad) / (2 i Delta)``; the
    ground-state variances are ``Delta^2`` and ``hbar^2 / 4 Delta^2``.  The
    truncation corrupts only the last diagonal entry of ``[x, p]``.
    """
    if n_fock < 2:
        raise ValueError("n_fock must be at least 2")
    a = _annihilator(n_fock)
    return delta_spread * (a + a.T), _HBAR / (2j * delta_spread) * (a - a.T)


def sideband_toolbox(
    ion: IonParams, level_pair: str, kind: str, rabi: float, phase: float = 0.0
) -> LadderOperator:
    """One resonant interaction of the Lamb-Dicke toolbox on the full space.

    ``kind``: "carrier" gives ``(hbar rabi / 2)(s+ e^{i phase} + h.c.)``;
    "red" and "blue" attach ``a`` respectively ``ad`` to the raising part
    with an extra factor ``eta``, so ``up`` is ``(hbar eta rabi / 2)
    e^{i phase} s+`` respectively its adjoint.  ``level_pair`` is "ab",
    "bc" (ion 1) or "a'b'" (ion 2; requires ``reduce_ion2 = False``).
    """
    if level_pair not in _LEVEL_PAIRS:
        raise ValueError(f"unknown level pair {level_pair!r}; use one of {_LEVEL_PAIRS}")
    if kind not in _KINDS:
        raise ValueError(f"unknown interaction kind {kind!r}; use one of {_KINDS}")

    if level_pair == "a'b'":
        if ion.reduce_ion2:
            raise ValueError("cannot address ion 2 with reduce_ion2 set")
        raising = np.kron(np.eye(3), [[0.0, 1.0], [0.0, 0.0]])
    else:
        pair = [1.0, 0.0] if level_pair == "ab" else [0.0, 1.0]
        raising = np.kron(np.diag(pair, 1), np.eye(ion.n_ion2))
    strength = _HBAR * rabi / 2.0 * (1.0 if kind == "carrier" else ion.eta)
    term = strength * np.exp(1j * phase) * raising
    zero = np.zeros_like(term)
    if kind == "carrier":
        return LadderOperator(term + term.conj().T, zero)
    return LadderOperator(zero, term if kind == "red" else term.conj().T)


def build_maxwell_hamiltonian(ion: IonParams) -> LadderOperator:
    """The Hamiltonian realizing the three-band model with a linear slope.

    The kinetic coupling is red+blue sidebands at phases -pi/2 / +pi/2 on
    both ion-1 pairs, which evaluates to
    ``eta Delta W1t (sx_ab + sx_bc) p = sqrt(2) eta Delta W1t Sx p``.  The
    mass term is a direct light-shift splitting ``hbar W1 diag(1, 0, -1)``.
    The slope is red+blue at phase 0 on ion 2 with Rabi ``2 W2t``, giving
    ``hbar eta W2t (x / Delta) sigma2_x``; in the reduced sector sigma2_x is
    replaced by its +1 eigenvalue, leaving ``hbar eta W2t (a + ad)``.
    """
    sz_ion1 = np.kron(np.diag([1.0, 0.0, -1.0]), np.eye(ion.n_ion2))
    h = LadderOperator(_HBAR * ion.omega1 * sz_ion1, np.zeros_like(sz_ion1))
    for pair in ("ab", "bc"):
        h += sideband_toolbox(ion, pair, "red", ion.omega1_tilde, -np.pi / 2)
        h += sideband_toolbox(ion, pair, "blue", ion.omega1_tilde, +np.pi / 2)
    if ion.reduce_ion2:
        h += LadderOperator(np.zeros((3, 3)),
                            _HBAR * ion.eta * ion.omega2_tilde * np.eye(3))
    else:
        h += sideband_toolbox(ion, "a'b'", "red", 2.0 * ion.omega2_tilde, 0.0)
        h += sideband_toolbox(ion, "a'b'", "blue", 2.0 * ion.omega2_tilde, 0.0)
    return h


def map_parameters(ion: IonParams) -> PhysicalParams:
    """Continuum parameters (hbar = 1, lengths in Delta) for an ion setup."""
    c = math.sqrt(2.0) * ion.eta * ion.delta_spread * ion.omega1_tilde
    if c**2 == 0:
        raise ParameterError("mapping requires positive eta and omega1_tilde, "
                             "with c^2 nonzero in floating point")
    m = _HBAR * ion.omega1 / c**2
    g = _HBAR * ion.eta * ion.omega2_tilde / ion.delta_spread
    if not (math.isfinite(m) and math.isfinite(g)):
        raise ParameterError("mapped mass or slope out of floating-point range")
    return PhysicalParams(c=c, m=m, g=g, hbar=_HBAR)


def _coherent_amplitudes(alpha: complex, n_fock: int) -> np.ndarray:
    """Fock amplitudes of |alpha>, evaluated in log space for stability."""
    if alpha == 0:
        return np.eye(1, n_fock, dtype=complex)[0]  # the vacuum
    n = np.arange(n_fock)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n_fock)])
    log_mod = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) - log_factorial / 2.0
    return np.exp(log_mod) * np.exp(1j * n * np.angle(alpha))


def default_readout_grid(ion: IonParams) -> Grid1D:
    """Position grid covering the truncated Fock space with Nyquist headroom."""
    delta = ion.delta_spread
    half_span = (math.sqrt(2.0 * ion.n_fock) + 6.0) * delta
    # Resolve twice the largest momentum representable at the truncation.
    dx_needed = math.pi * delta / math.sqrt(4.0 * ion.n_fock + 2.0)
    points = 2 ** math.ceil(math.log2(max(1024, 2.0 * half_span / dx_needed)))
    from .wavepacket import Grid1D

    return Grid1D(2.0 * half_span, points)


def coherent_initial_state(
    ion: IonParams,
    p0: float,
    spinor,
    project_band: str | None = None,
) -> IonState:
    """Motional coherent state with ``<x> = 0`` and ``<p> = p0``, ion 2 along +sigma2_x.

    ``p0`` is in units of hbar / Delta.  The displacement is purely along
    momentum (``alpha = i p0 Delta / hbar``).  Optional ``project_band``
    filters the state onto one dispersion branch of the mapped continuum
    model in the truncated momentum eigenbasis.
    """
    xi = np.asarray(spinor, dtype=complex)
    if xi.shape != (3,) or np.linalg.norm(xi) == 0:
        raise ParameterError("spinor must be a nonzero 3-vector")
    xi = xi / np.linalg.norm(xi)

    alpha = 1j * p0 * ion.delta_spread / _HBAR
    if abs(alpha) ** 2 + 6.0 * abs(alpha) >= ion.n_fock:
        raise TruncationError(
            f"coherent state with |alpha|^2 = {abs(alpha)**2:.1f} needs more "
            f"Fock headroom than n_fock = {ion.n_fock}"
        )
    motional = _coherent_amplitudes(alpha, ion.n_fock)

    amps = xi[:, None, None] * ion.ion2_plus[None, :, None] * motional[None, None, :]
    state = IonState(amps, ion)
    _fock_tail(amps)

    if project_band is not None:
        state = _project_band(state, project_band)
    return state


def _fock_tail(amplitudes: np.ndarray) -> np.ndarray:
    """Weight in the top Fock levels of each state in ``(..., 3, n_ion2,
    n_fock)``; raises :class:`TruncationError` where it exceeds 1e-6."""
    tail = np.sum(np.abs(amplitudes[..., -_TAIL_LEVELS:]) ** 2, axis=(-3, -2, -1))
    if np.max(tail) > _TAIL_TOL:
        raise TruncationError(
            f"weight {np.max(tail):.3e} in the top {_TAIL_LEVELS} Fock levels "
            f"exceeds {_TAIL_TOL}; raise n_fock"
        )
    return tail


@lru_cache(maxsize=8)
def _momentum_basis(ion: IonParams):
    """``(p, phase, vectors, projectors, packed)``: the eigenvalues ``p``
    (ascending) of the truncated momentum quadrature, the unitary ``to_p =
    diag(phase) @ vectors`` (``fock @ to_p`` = amplitudes on the eigenvectors
    p_j) with ``phase = (-i)^n`` and real ``vectors``, the real band
    projectors ``(bands, n_fock, 3, 3)`` of the mapped ``H(k)`` at ``k = p_j /
    hbar``, and the same projectors packed for ``band_weights``.

    With the phase ``i^n`` on Fock state n, ``p`` is real tridiagonal with
    ``<n-1|p|n> = hbar sqrt(n) / 2 Delta`` and couples even ``n`` only to odd
    ``n``.  Its even-by-odd block ``B`` is lower bidiagonal, and with ``B = u
    diag(s) v^T`` the vectors ``(u_j, +-v_j) / sqrt(2)`` (even entries, odd
    entries) belong to ``p = +-s_j``.  An odd ``n_fock`` leaves one more even
    row than odd columns, and the null vector ``u_0`` of ``B^T`` gives the
    eigenvector ``(u_0, 0)`` at ``p = 0``.
    """
    n = np.arange(ion.n_fock)
    off = _HBAR * np.sqrt(n[1:]) / (2.0 * ion.delta_spread)
    n_even, n_odd = (ion.n_fock + 1) // 2, ion.n_fock // 2
    block = np.zeros((n_even, n_odd))
    block[np.arange(n_odd), np.arange(n_odd)] = off[0::2]  # <2j|p|2j+1>
    block[np.arange(1, n_even), np.arange(n_even - 1)] = off[1::2]  # <2j|p|2j-1>
    u, s, vt = np.linalg.svd(block)  # s descending; u square, so it holds u_0
    even = u[:, :n_odd] / math.sqrt(2.0)
    odd = vt.T / math.sqrt(2.0)
    # columns: -s ascending, then the zero mode, then +s ascending
    vectors = np.zeros((ion.n_fock, ion.n_fock))
    vectors[0::2, :n_odd] = even
    vectors[1::2, :n_odd] = -odd
    vectors[0::2, n_odd:n_even] = u[:, n_odd:]
    vectors[0::2, n_even:] = even[:, ::-1]
    vectors[1::2, n_even:] = odd[:, ::-1]
    p = np.concatenate([-s, np.zeros(n_even - n_odd), s[::-1]])
    phase = np.array([1.0, -1j, -1.0, 1j])[n % 4]
    projectors = field_projectors(1, bloch_field(map_parameters(ion), p / _HBAR))
    return p, phase, vectors, projectors, pack_projectors(projectors)


def _ladder_block(h: LadderOperator, scale: complex = 1.0) -> np.ndarray:
    """``scale [zero | up | up^dag]``, the ``(3 n_ion2) x (9 n_ion2)`` matrix
    that :func:`_ladder_kernel`'s ``apply`` takes."""
    return scale * np.concatenate([h.zero, h.up, h.up.conj().T], axis=1)


def _ladder_kernel(rows: int, n_fock: int):
    """``apply(block, v, out)``: ``out = zero v + up (a v) + up^dag (ad v)``
    for ``v`` of shape ``(rows, n_fock)`` and ``block`` from
    :func:`_ladder_block`, with ``a`` the mode's annihilator.

    ``v``, ``a v`` and ``ad v`` are written into one zero-padded work buffer
    ``(3 rows, n_fock)`` kept by the closure, so an application is two
    scalings and one matrix product with no temporaries.
    """
    sqrt_n = np.sqrt(np.arange(1.0, n_fock)).astype(complex)  # no cast per call
    work = np.zeros((3 * rows, n_fock), dtype=complex)
    lowered = work[rows:2 * rows, :-1]  # (a v)_n = sqrt(n + 1) v_{n+1}
    raised = work[2 * rows:, 1:]  # (ad v)_n = sqrt(n) v_{n-1}

    def apply(block: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        work[:rows] = v
        np.multiply(v[:, 1:], sqrt_n, out=lowered)
        np.multiply(v[:, :-1], sqrt_n, out=raised)
        return np.matmul(block, work, out=out)

    return apply


def _spectral_bound(ion: IonParams, p_max: float) -> float:
    """``R >= ||H||`` by the triangle inequality over the mass, kinetic and
    slope terms: ``hbar W1 + c max|p| + g max|x|``, where the truncated ``x``
    has the spectrum of ``p`` scaled by ``2 Delta^2 / hbar``."""
    physical = map_parameters(ion)
    x_max = 2.0 * ion.delta_spread**2 / _HBAR * p_max
    bound = _HBAR * ion.omega1 + physical.c * p_max + physical.g * x_max
    if not math.isfinite(bound):
        raise ParameterError("Hamiltonian norm bound out of floating-point range")
    return bound


def _bessel_weights(z: np.ndarray) -> np.ndarray:
    """``(2 - delta_k0) J_k(z_r)`` for each ``z_r``, shape ``(len(z), K)``,
    cut after the last ``k`` where some weight reaches 1e-14.

    ``J_k(z)`` is the k-th Fourier coefficient of ``exp(i z sin theta)``
    (the Bessel generating function), taken by one FFT on enough points
    that aliasing stays below round-off.
    """
    points = 2 ** math.ceil(math.log2(2.0 * float(np.max(z)) + 128.0))
    theta = 2.0 * np.pi * np.arange(points) / points
    bessel = np.fft.fft(np.exp(1j * np.outer(z, np.sin(theta))), axis=1).real / points
    bessel = bessel[:, :points // 2]
    keep = np.flatnonzero(np.max(np.abs(bessel), axis=0) >= _COEFF_CUT)
    weights = bessel[:, :keep[-1] + 1]
    weights[:, 1:] *= 2.0
    return weights


def _chebyshev_records(psi: np.ndarray, ion: IonParams, bound: float,
                       t_final: float, n_records: int) -> tuple[np.ndarray, int]:
    """States ``exp(-i H t_r / hbar) psi`` at ``n_records`` uniform times
    from 0 to ``t_final``, and the number of ``H`` applications made.

    ``psi`` has shape ``(3 n_ion2, n_fock)``.  With ``G = -i H / R`` and
    ``S_k = (-i)^k T_k(H / R) psi`` (so ``S_{k+1} = 2 G S_k + S_{k-1}``),
    ``exp(-i z H / R) psi = sum_k (2 - delta_k0) J_k(z) S_k`` (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The records are grouped into
    blocks spanning at most ``R t / hbar = 64``; one stack of ``S_k`` from a
    block's first state and one real matrix product with the Bessel weights
    give every record in the block.  A record interval longer than that is
    split into equal substeps.  The number of ``H`` applications is counted
    from ``R t_final`` before any state is allocated, and a run that would
    make more than ``_MAX_MATVECS`` (1e7) raises :class:`ParameterError`.
    """
    z_record = bound * t_final / (n_records - 1) / _HBAR
    if z_record == 0.0:
        return np.broadcast_to(psi, (n_records,) + psi.shape).copy(), 0
    substeps = math.ceil(z_record / _BLOCK_Z)
    z_step = z_record / substeps
    per_block = max(1, int(_BLOCK_Z // z_step))
    steps = (n_records - 1) * substeps
    # every block but the last is full, so this bounds the applications
    full = min(per_block, steps)
    weights = {full: _bessel_weights(z_step * np.arange(1, full + 1))}
    estimate = -(-steps // per_block) * (weights[full].shape[1] - 1)
    if estimate > _MAX_MATVECS:
        raise ParameterError(
            f"the propagation would take about {estimate:.3g} Hamiltonian "
            f"applications, above the cap of {_MAX_MATVECS:.0e}; shorten t_final")

    records = np.empty((n_records,) + psi.shape, dtype=complex)
    records[0] = psi
    h = build_maxwell_hamiltonian(ion)
    blocks = (_ladder_block(h, -1j / bound), _ladder_block(h, -2j / bound))  # G, 2 G
    apply = _ladder_kernel(*psi.shape)
    matvecs = 0
    current = psi
    for start in range(0, steps, per_block):
        length = min(per_block, steps - start)
        if length not in weights:
            weights[length] = _bessel_weights(z_step * np.arange(1, length + 1))
        block = weights[length]
        stack = np.empty((block.shape[1],) + psi.shape, dtype=complex)
        stack[0] = current
        for k in range(1, len(stack)):
            apply(blocks[k > 1], stack[k - 1], stack[k])
            if k > 1:
                stack[k] += stack[k - 2]
        matvecs += len(stack) - 1
        # Real weights on the interleaved real/imaginary parts of the stack.
        states = (block @ stack.reshape(len(stack), -1).view(float)).view(complex)
        states = states.reshape((length,) + psi.shape)
        step = np.arange(start + 1, start + length + 1)
        recorded = step % substeps == 0
        records[step[recorded] // substeps] = states[recorded]
        current = states[-1]
    return records, matvecs


def _real_matmul(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``z @ m`` for a real matrix ``m``: the real and imaginary rows of z,
    flattened to two dimensions, go through one real matrix product."""
    rows = z.reshape(-1, z.shape[-1])
    out = np.concatenate([rows.real, rows.imag]) @ m
    return (out[:len(rows)] + 1j * out[len(rows):]).reshape(z.shape[:-1] + (-1,))


def _sector_amplitudes(state: IonState) -> np.ndarray:
    """Spinor-by-Fock amplitudes ``(3, n_fock)`` of ion 2's +sigma2_x sector;
    raises ``ValueError`` when more than 1e-10 of the weight lies outside it."""
    fock = np.einsum("j,sjn->sn", state.params.ion2_plus, state.amplitudes)
    discarded = state.norm() - float(np.sum(np.abs(fock) ** 2))
    if discarded > 1e-10:
        raise ValueError(
            f"ion 2 carries weight {discarded:.3e} outside the +sigma2_x "
            "sector; no spinor-field representation exists"
        )
    return fock


def _project_band(state: IonState, band: str) -> IonState:
    """Filter onto one dispersion branch in the truncated momentum eigenbasis."""
    ion = state.params
    labels = spin_model(1).labels
    if band not in labels:
        raise ParameterError(f"unknown band {band!r}")
    _, phase, vectors, projectors, _ = _momentum_basis(ion)
    momentum = _real_matmul(_sector_amplitudes(state) * phase, vectors)  # (3, n_fock)
    projected = apply_projectors(projectors[labels.index(band)], momentum.T).T
    weight = float(np.sum(np.abs(projected) ** 2))
    if weight < 1e-12:
        raise ParameterError(f"state has no weight on band {band!r}")
    fock = _real_matmul(projected, vectors.T) * phase.conj() / math.sqrt(weight)
    amps = fock[:, None, :] * ion.ion2_plus[None, :, None]
    _fock_tail(amps)
    return IonState(amps, ion, state.time)


@lru_cache(maxsize=8)
def _hermite_basis(grid: Grid1D, n_fock: int, delta_spread: float) -> np.ndarray:
    """Oscillator eigenfunctions on the grid, shape ``(n_fock, points)``.

    Normalized three-term recurrence with oscillator length sqrt(2) Delta
    (so the ground-state density variance is Delta^2).
    """
    sigma = math.sqrt(2.0) * delta_spread
    u = grid.x / sigma
    basis = np.empty((n_fock, grid.points))
    basis[0] = np.exp(-u**2 / 2.0) / (math.pi**0.25 * math.sqrt(sigma))
    if n_fock > 1:
        basis[1] = math.sqrt(2.0) * u * basis[0]
    for n in range(2, n_fock):
        basis[n] = (math.sqrt(2.0 / n) * u * basis[n - 1]
                    - math.sqrt((n - 1) / n) * basis[n - 2])
    return basis


def position_wavefunction(state: IonState, grid: Grid1D) -> SpinorField:
    """Continuum spinor field of the motional state (ion 2 contracted out).

    Requires ion 2 (when present) to be polarized along +sigma2_x; weight in
    the orthogonal sector would have no single-spinor representation.  The
    grid must span the truncated Fock space,
    ``L/2 >= (sqrt(2 n_fock) + 4) Delta``.
    """
    ion = state.params
    needed = (math.sqrt(2.0 * ion.n_fock) + 4.0) * ion.delta_spread
    if grid.length / 2.0 < needed:
        raise GridCoverageError(
            f"grid half-length {grid.length / 2:.1f} below the required {needed:.1f}"
        )
    fock = _sector_amplitudes(state)
    basis = _hermite_basis(grid, ion.n_fock, ion.delta_spread)
    from .wavepacket import SpinorField

    # (3, points) rows: the component-major layout SpinorField keeps
    return SpinorField(grid, (fock @ basis).T, state.time)


def evolve_ion(
    state: IonState, ion: IonParams, t_final: float, n_records: int = 50
) -> IonTrajectory:
    """Evolution under the static composite Hamiltonian.

    A Chebyshev expansion of ``exp(-i H t / hbar)`` (see
    :func:`_chebyshev_records`) gives the state at ``n_records`` uniform
    times from 0 to ``t_final`` to double precision, with ``H`` applied
    in its ladder form; its work grows with ``R t_final`` for the spectral bound
    ``R = hbar W1 + c max|p| + g max|x|``.  Every record is read at once:
    internal populations, ``<x> = 2 Delta Re sum sqrt(n+1) c_n* c_{n+1}``,
    mapped-model band populations in the truncated momentum eigenbasis, and
    the Fock-tail weight (guarded at 1e-6).  A record whose norm differs
    from the input's by more than 1e-10 (relative), or whose band weights
    sum to more than 1e-10 of the input's norm away from its own norm,
    raises :class:`NumericalGuardError`.  ``H`` conserves sigma2_x, so only
    the input state is checked to lie in ion 2's +sigma2_x sector.  The
    record array, ``n_records x 3 n_ion2 n_fock`` complex entries, may hold
    at most 2^22 of them.  An ``ion`` other than ``state.params``, a
    non-finite or negative ``t_final`` or a non-integer ``n_records`` raises
    :class:`ParameterError`.
    """
    if ion != state.params:
        raise ParameterError(f"the state was built for {state.params}, not {ion}")
    if not 0.0 <= t_final < math.inf:
        raise ParameterError(f"t_final must be finite and nonnegative, got {t_final}")
    try:
        n_records = operator.index(n_records)
    except TypeError:
        raise ParameterError(
            f"n_records must be an integer, got {n_records!r}") from None
    if n_records < 2:
        raise ParameterError("need at least two record times")
    if n_records * ion.dim > _MAX_RECORD_ENTRIES:
        raise ParameterError(
            f"{n_records} records of {ion.dim} amplitudes exceed the "
            f"{_MAX_RECORD_ENTRIES} entries a run may hold; ask for at most "
            f"{_MAX_RECORD_ENTRIES // ion.dim} records")
    _sector_amplitudes(state)
    norm = state.norm()
    if norm == 0:
        raise ParameterError("state has zero norm")
    p, phase, vectors, _, packed = _momentum_basis(ion)
    bound = _spectral_bound(ion, float(np.max(np.abs(p))))
    records, matvecs = _chebyshev_records(
        state.amplitudes.reshape(-1, ion.n_fock), ion, bound, t_final, n_records)

    amps = records.reshape((n_records,) + state.amplitudes.shape)
    pops = np.sum(np.abs(amps) ** 2, axis=(2, 3))
    record_norms = pops.sum(axis=1)
    drift = float(np.max(np.abs(record_norms / norm - 1.0)))
    if not drift <= _NORM_TOL:  # also catches a series that overflowed to nan
        raise NumericalGuardError(
            f"record norm drifted by {drift:.3e} (relative), above {_NORM_TOL}; "
            "the Chebyshev propagation is not converged"
        )
    tails = _fock_tail(amps)
    x_mean = 2.0 * ion.delta_spread * np.einsum(
        "rsjn,n,rsjn->r", amps[..., :-1].conj(),
        np.sqrt(np.arange(1.0, ion.n_fock)), amps[..., 1:]).real
    momentum = _real_matmul(
        np.einsum("j,rsjn->rsn", ion.ion2_plus, amps) * phase, vectors)
    bands = band_weights(momentum.transpose(0, 2, 1), packed)
    band_sum_drift = float(np.max(np.abs(bands.sum(axis=1) - record_norms))) / norm
    if not band_sum_drift <= _NORM_TOL:
        raise NumericalGuardError(
            f"band weights miss their record's norm by {band_sum_drift:.3e} "
            f"(relative), above {_NORM_TOL}; the momentum readout is incomplete"
        )

    times = state.time + np.linspace(0.0, t_final, n_records)
    rows = np.column_stack([times, pops, x_mean, bands, tails])
    return IonTrajectory(rows, IonState(amps[-1].copy(), ion, times[-1]),
                         norm_drift=drift, band_sum_drift=band_sum_drift,
                         fock_tail_max=float(np.max(tails)), matvecs=matvecs)


def __getattr__(name):
    # bench/tracing.py wraps the packet route's two band readers under this
    # module's names, so they resolve here on first use (PEP 562) and load
    # that route only then.  The ion route reads its bands through
    # spin_algebra.band_weights.  ROADMAP item 5 retires those traced rows.
    if name in ("band_components", "band_populations"):
        from . import wavepacket

        return getattr(wavepacket, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
