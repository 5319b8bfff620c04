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
correspondence above exactly.  Operators are ``scipy.sparse`` CSR arrays
built with ``scipy.sparse.kron``, and evolution applies ``expm_multiply`` to
the state.  The sparse modules load only inside the functions that use them,
which keeps them off the start-up path of every CLI command.

Units: hbar = 1 and lengths in units of ``delta_spread`` unless stated;
quote Rabi frequencies in angular kHz (rad/ms) and times come out in ms,
matching typical hyperfine-qubit experiments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import GridCoverageError, ParameterError, TruncationError
from .spin_algebra import PhysicalParams
from .wavepacket import Grid1D, SpinorField, band_components, band_populations

__all__ = [
    "IonParams",
    "IonState",
    "MappedParams",
    "ION_TRACE_COLUMNS",
    "IonTrajectory",
    "quadratures",
    "sideband_toolbox",
    "build_maxwell_hamiltonian",
    "map_parameters",
    "coherent_initial_state",
    "evolve_ion",
    "position_wavefunction",
    "default_readout_grid",
    "energy_expectation",
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
        if self.n_fock < 16:
            raise ParameterError("n_fock must be at least 16")

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

    def ravel(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)

    def fock_tail(self) -> float:
        """Weight in the top Fock levels; must stay below 1e-6."""
        return float(np.sum(np.abs(self.amplitudes[..., -_TAIL_LEVELS:]) ** 2))

    def internal_populations(self) -> np.ndarray:
        """Occupations of the three ion-1 levels (a, b, c)."""
        return np.sum(np.abs(self.amplitudes) ** 2, axis=(1, 2))


@dataclass(frozen=True)
class MappedParams:
    """Continuum parameters realized by an ion configuration."""

    physical: PhysicalParams
    ratio: float  # (m c^2)^2 / (hbar c g), the single knob of the crossing


@dataclass
class IonTrajectory:
    """Recorded ion evolution; trace rows follow :data:`ION_TRACE_COLUMNS`."""

    trace: np.ndarray
    final: IonState


def _destroy(n_fock: int):
    import scipy.sparse as sp

    return sp.diags_array(np.sqrt(np.arange(1, n_fock, dtype=float)), offsets=1,
                          dtype=complex, format="csr")


def quadratures(delta_spread: float, n_fock: int):
    """Truncated position and momentum matrices (sparse CSR) on the Fock basis.

    ``x = Delta (a + ad)`` and ``p = hbar (a - ad) / (2 i Delta)``; the
    ground-state variances are ``Delta^2`` and ``hbar^2 / 4 Delta^2``.  The
    truncation corrupts only the last diagonal entry of ``[x, p]``.
    """
    if n_fock < 2:
        raise ValueError("n_fock must be at least 2")
    a = _destroy(n_fock)
    ad = a.conj().T
    x = delta_spread * (a + ad)
    p = _HBAR / (2j * delta_spread) * (a - ad)
    return x, p


def _sigma_plus_ion1(pair: str) -> np.ndarray:
    """Raising operator on the named ion-1 level pair, basis order (a, b, c)."""
    op = np.zeros((3, 3), dtype=complex)
    if pair == "ab":
        op[0, 1] = 1.0
    else:  # "bc"
        op[1, 2] = 1.0
    return op


def _embed(ion: IonParams, internal1: np.ndarray | None,
           internal2: np.ndarray | None, motional=None):
    """Sparse kron assembly ion1 x ion2 x motion, identity for omitted factors."""
    import scipy.sparse as sp

    if motional is None:
        motional = sp.eye_array(ion.n_fock, dtype=complex, format="csr")
    op1 = internal1 if internal1 is not None else np.eye(3, dtype=complex)
    full = op1
    if not ion.reduce_ion2:
        op2 = internal2 if internal2 is not None else np.eye(2, dtype=complex)
        full = np.kron(full, op2)
    elif internal2 is not None:
        raise ValueError("cannot embed an ion-2 operator with reduce_ion2 set")
    return sp.kron(full, motional, format="csr")


def sideband_toolbox(
    ion: IonParams, level_pair: str, kind: str, rabi: float, phase: float = 0.0
):
    """One resonant interaction of the Lamb-Dicke toolbox on the full space.

    ``kind``: "carrier" gives ``(hbar rabi / 2)(s+ e^{i phase} + h.c.)``;
    "red" and "blue" attach ``a`` respectively ``ad`` to the raising part
    with an extra factor ``eta``.  ``level_pair`` is "ab", "bc" (ion 1) or
    "a'b'" (ion 2; requires ``reduce_ion2 = False``).
    """
    if level_pair not in _LEVEL_PAIRS:
        raise ValueError(f"unknown level pair {level_pair!r}; use one of {_LEVEL_PAIRS}")
    if kind not in _KINDS:
        raise ValueError(f"unknown interaction kind {kind!r}; use one of {_KINDS}")

    a = _destroy(ion.n_fock)
    if kind == "carrier":
        raise_motional = None
        strength = _HBAR * rabi / 2.0
    else:
        raise_motional = a if kind == "red" else a.conj().T
        strength = _HBAR * rabi * ion.eta / 2.0

    if level_pair == "a'b'":
        sp = np.array([[0, 1], [0, 0]], dtype=complex)
        raising = _embed(ion, None, sp, raise_motional)
    else:
        raising = _embed(ion, _sigma_plus_ion1(level_pair), None, raise_motional)
    term = strength * np.exp(1j * phase) * raising
    return term + term.conj().T


def build_maxwell_hamiltonian(ion: IonParams):
    """Sparse CSR Hamiltonian realizing the three-band model with a linear slope.

    The kinetic coupling is red+blue sidebands at phases -pi/2 / +pi/2 on
    both ion-1 pairs, which evaluates to
    ``eta Delta W1t (sx_ab + sx_bc) p = sqrt(2) eta Delta W1t Sx p``.  The
    mass term is a direct light-shift splitting ``hbar W1 diag(1, 0, -1)``.
    The slope is red+blue at phase 0 on ion 2 with Rabi ``2 W2t``, giving
    ``hbar eta W2t (x / Delta) sigma2_x``; in the reduced sector sigma2_x is
    replaced by its +1 eigenvalue.
    """
    sz_ion1 = np.diag([1.0, 0.0, -1.0]).astype(complex)
    h = _HBAR * ion.omega1 * _embed(ion, sz_ion1, None)
    for pair in ("ab", "bc"):
        h += sideband_toolbox(ion, pair, "red", ion.omega1_tilde, -np.pi / 2)
        h += sideband_toolbox(ion, pair, "blue", ion.omega1_tilde, +np.pi / 2)

    if ion.reduce_ion2:
        x, _ = quadratures(ion.delta_spread, ion.n_fock)
        h += _HBAR * ion.eta * ion.omega2_tilde * _embed(
            ion, None, None, x / ion.delta_spread
        )
    else:
        h += sideband_toolbox(ion, "a'b'", "red", 2.0 * ion.omega2_tilde, 0.0)
        h += sideband_toolbox(ion, "a'b'", "blue", 2.0 * ion.omega2_tilde, 0.0)
    return h


def map_parameters(ion: IonParams) -> MappedParams:
    """Continuum parameters (hbar = 1, lengths in Delta) for an ion setup."""
    c = math.sqrt(2.0) * ion.eta * ion.delta_spread * ion.omega1_tilde
    if c == 0:
        raise ValueError("mapping requires positive eta and omega1_tilde")
    m = _HBAR * ion.omega1 / c**2
    g = _HBAR * ion.eta * ion.omega2_tilde / ion.delta_spread
    physical = PhysicalParams(c=c, m=m, g=g, hbar=_HBAR)
    if ion.omega1 == 0:
        ratio = 0.0
    elif ion.omega2_tilde == 0:
        ratio = math.inf
    else:
        ratio = ion.omega1**2 / (
            math.sqrt(2.0) * ion.eta**2 * ion.omega1_tilde * ion.omega2_tilde
        )
    return MappedParams(physical, ratio)


def _coherent_amplitudes(alpha: complex, n_fock: int) -> np.ndarray:
    """Fock amplitudes of |alpha>, evaluated in log space for stability."""
    n = np.arange(n_fock)
    if alpha == 0:
        out = np.zeros(n_fock, dtype=complex)
        out[0] = 1.0
        return out
    log_mod = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) - gammaln(n + 1) / 2.0
    return np.exp(log_mod) * np.exp(1j * n * np.angle(alpha))


def default_readout_grid(ion: IonParams) -> Grid1D:
    """Position grid covering the truncated Fock space with Nyquist headroom."""
    delta = ion.delta_spread
    half_span = (math.sqrt(2.0 * ion.n_fock) + 6.0) * delta
    # Resolve twice the largest momentum representable at the truncation.
    dx_needed = math.pi * math.sqrt(2.0) * delta / (
        2.0 * math.sqrt(2.0 * ion.n_fock + 1.0)
    )
    points = 2 ** math.ceil(math.log2(max(1024, 2.0 * half_span / dx_needed)))
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
    model by a position-space round trip.
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
    _check_tail(state)

    if project_band is not None:
        state = _project_band(state, project_band)
    return state


def _check_tail(state: IonState):
    tail = state.fock_tail()
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"weight {tail:.3e} in the top {_TAIL_LEVELS} Fock levels exceeds "
            f"{_TAIL_TOL}; raise n_fock"
        )


def _project_band(state: IonState, band: str) -> IonState:
    """Filter onto one dispersion branch via the position-space representation."""
    ion = state.params
    grid = default_readout_grid(ion)
    mapped = map_parameters(ion)
    fld = position_wavefunction(state, grid)
    labels = ("+", "0", "-")
    if band not in labels:
        raise ParameterError(f"unknown band {band!r}")
    comps = band_components(fld, mapped.physical)
    projected = comps[labels.index(band)]
    weight = float(np.sum(np.abs(projected) ** 2) * grid.dx)
    if weight < 1e-12:
        raise ParameterError(f"state has no weight on band {band!r}")

    basis = _hermite_basis(grid, ion.n_fock, ion.delta_spread)
    fock = (basis @ projected) * grid.dx  # (n_fock, 3)
    amps = fock.T[:, None, :] * ion.ion2_plus[None, :, None]
    amps /= math.sqrt(np.sum(np.abs(amps) ** 2))
    out = IonState(amps, ion, state.time)
    _check_tail(out)
    return out


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
    fock = np.einsum("j,sjn->sn", ion.ion2_plus, state.amplitudes)
    discarded = state.norm() - float(np.sum(np.abs(fock) ** 2))
    if discarded > 1e-10:
        raise ValueError(
            f"ion 2 carries weight {discarded:.3e} outside the +sigma2_x "
            "sector; no spinor-field representation exists"
        )
    basis = _hermite_basis(grid, ion.n_fock, ion.delta_spread)
    amplitudes = (fock @ basis).T  # (points, 3)
    return SpinorField(grid, amplitudes.astype(complex), state.time)


def energy_expectation(state: IonState, ion: IonParams) -> float:
    h = build_maxwell_hamiltonian(ion)
    v = state.ravel()
    return float(np.real(v.conj() @ (h @ v)))


def evolve_ion(
    state: IonState, ion: IonParams, t_final: float, n_records: int = 50
) -> IonTrajectory:
    """Evolution under the static composite Hamiltonian.

    One ``scipy.sparse.linalg.expm_multiply`` call (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)) applies ``exp(-i H t / hbar)`` to the state
    at ``n_records`` uniform times from 0 to ``t_final``, to double precision;
    its work grows with ``||H|| t_final``.  Records internal populations,
    ``<x>``, mapped-model band populations, and the Fock-tail weight (guarded
    at 1e-6) at each time.
    """
    from scipy.sparse.linalg import expm_multiply

    if t_final < 0:
        raise ParameterError("t_final must be nonnegative")
    if n_records < 2:
        raise ParameterError("need at least two record times")
    h = build_maxwell_hamiltonian(ion)
    states = expm_multiply(-1j * h / _HBAR, state.ravel(), start=0.0,
                           stop=t_final, num=n_records, endpoint=True)

    grid = default_readout_grid(ion)
    mapped = map_parameters(ion)
    x_op = _embed(ion, None, None, quadratures(ion.delta_spread, ion.n_fock)[0])

    times = np.linspace(0.0, t_final, n_records)
    rows = np.empty((n_records, len(ION_TRACE_COLUMNS)))
    for i, (t, psi_t) in enumerate(zip(times, states)):
        current = IonState(
            psi_t.reshape(state.amplitudes.shape), ion, state.time + t
        )
        _check_tail(current)
        pops = current.internal_populations()
        x_mean = float(np.real(np.vdot(psi_t, x_op @ psi_t)))
        bands = band_populations(position_wavefunction(current, grid), mapped.physical)
        rows[i] = (current.time, pops[0], pops[1], pops[2], x_mean,
                   bands.w_plus, bands.w_zero, bands.w_minus, current.fock_tail())
    return IonTrajectory(rows, current)
