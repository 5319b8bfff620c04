"""1D spectral propagation of spinor wave packets in a linear potential.

The equation of motion is ``i hbar dPsi/dt = [c hbar k Cx + m c^2 Cz + g x] Psi``
for a two- or three-component spinor on a uniform periodic grid.  Evolution
uses corrected Strang splitting:

    exp(-i g x dt / 2 hbar)          pointwise in position space
    K exp(-i H(k) dt / hbar) K       pointwise in momentum space
    exp(-i g x dt / 2 hbar)          pointwise in position space

With ``T = c hbar k Cx + m c^2 Cz`` and ``V = g x`` the double commutators
are ``[V, [V, T]] = 0`` and ``[T, [T, V]] = -i g c hbar m c^2 [Cz, Cx]``,
which depends on neither k nor the grid.  So the logarithm of one Strang
step is the exact generator plus the constant ``dt^3 C / 12`` with
``C = (g c m c^2 / hbar^2) [Cz, Cx]``, plus O(dt^5).  The factor
``K = exp(-dt^3 C / 24)`` on both sides cancels that term and leaves a
symmetric fourth-order scheme (the modified-potential idea of Chin, Phys.
Lett. A 226, 344 (1997)); K commutes with the potential, so it folds into
the kinetic factor at no cost per step.  The kinetic factor is exact per
wavenumber, so free evolution (g = 0) is exact to round-off.  Every factor
is unitary, hence the norm is conserved to round-off for any dt.

A run's splitting error is measured after stepping, and a guard keeps it
at or below 1e-4 in L2, the oracle's halving tolerance.  In momentum space
``g x = i g d/dk``, so each Fourier component k0 moves along
``k(t) = k0 - g t / hbar`` under ``H(k(t))``, and along that path the exact
evolution is a product of d x d matrices, built by the rotor layer's
``magnus_sweep`` at a quarter of the reference step dt0 (below) for every
component but a tail of weight w at most 1e-22 of the norm.  One inverse
FFT and the phase ``exp(-i g t x / hbar)`` turn it into the exact final
state, ``EvolveResult.reference``, and :func:`evolve` reports
``||final - reference|| + sqrt(w)`` as ``EvolveResult.split_error``.
:func:`step` alone also refuses a dt whose proven one-step bound
``dt^3 g c m c^2 ||[Cz, Cx]|| / (6 hbar^2)`` exceeds 1e-4: Strang's
``dt^3 / 12`` (Jahnke & Lubich, BIT 40, 735 (2000)) plus ``dt^3 / 24`` for
each K (``||[Cz, Cx]||`` is 1 for spin 1 and 2 for spin 1/2).

The reference step dt0 (:func:`default_time_step`) is the largest within
that one-step limit and ``c dt <= 3 dx``.  The default dt is sized from the
run's predicted error.  Along the same characteristics the corrected step
acts on each component as ``K U(k_mid) K``; the chain of those rotors over
the run at dt0 lies E0 from the reference, and the scheme is 4th order, so
the default dt is ``dt0 (1e-5 / E0)^(1/4)``, at most ``2 dt0``.  Where
g m = 0 the splitting is exact and the default is dt0.  The guarded edge
strip is ``max(3, ceil(c dt / dx))`` cells wide: no band moves faster than
c, so no part of the packet can cross it between two checks.

The linear potential is discontinuous across the periodic boundary, which is
harmless as a pointwise phase but means the packet must never reach the
edge; a per-step contamination guard enforces this instead of an absorbing
layer, keeping the evolution exactly unitary.  Likewise no part of the
packet may be swept past the grid's momentum edge ``-pi/dx``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BoundaryContaminationError, NumericalGuardError, ParameterError
from .landau_zener import magnus_step, spin_model
from .spin_algebra import (
    PhysicalParams,
    apply_projectors,
    band_weights,
    bloch_field,
    field_projectors,
    magnus_sweep,
    pack_projectors,
    rotor,
    rotor_chain,
    rotor_matrix,
    rotor_product,
)

__all__ = [
    "Grid1D",
    "SpinorField",
    "BandPopulations",
    "EvolveResult",
    "TRACE_COLUMNS",
    "gaussian_packet",
    "step",
    "evolve",
    "band_populations",
    "band_components",
    "default_time_step",
    "density",
]

#: Column order of ``EvolveResult.trace``.
TRACE_COLUMNS = ("t", "norm", "x_mean", "w_plus", "w_zero", "w_minus")

_NORM_STEP_TOL = 1e-10
#: Largest admissible L2 splitting error: a run's measured error, and the
#: proven one-step bound of :func:`step`.
_SPLIT_ERROR_TOL = 1e-4
#: Predicted run error that sizes the default dt.
_PREDICTED_ERROR = 1e-5
#: Largest default dt, in reference steps.
_MAX_STEP_SCALE = 2.0
#: Fraction of the norm the exact reference may drop (its sqrt(w) term).
_DROPPED_WEIGHT = 1e-22
#: Narrowest guarded edge strip, in cells at each edge.
_EDGE_CELLS = 3
#: Largest fraction of the norm at the grid's edges, in position or momentum.
_EDGE_WEIGHT_TOL = 1e-6
_MIN_POINTS = 256
#: Largest ``|x - center|`` whose square, which the envelope forms, is finite.
_MAX_EXTENT = math.sqrt(sys.float_info.max)
#: Largest grid: at 2^20 points the step's kinetic factor and the band
#: projectors take about 150 and 230 MiB.
_MAX_POINTS = 2**20
#: Largest work of a run, in point-steps: ``steps x N`` for the step loop
#: and ``4 n0 x kept components`` for the exact reference (n0 reference
#: steps); the step predictor's chain takes a quarter of the reference's.
#: On one core the step loop costs about 80 ns a point-step at N = 4096, so
#: the cap is one to two minutes of work; the README demo makes 6e5.
_MAX_WORK = 10**9


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on ``[-L/2, L/2)`` with a power-of-two point
    count from 256 to 2^20."""

    length: float
    points: int

    def __post_init__(self):
        if self.length <= 0:
            raise ParameterError("grid length must be positive")
        if (not _MIN_POINTS <= self.points <= _MAX_POINTS
                or self.points & (self.points - 1)):
            raise ParameterError(
                f"points must be a power of two from {_MIN_POINTS} to "
                f"{_MAX_POINTS}, got {self.points}")

    @property
    def dx(self) -> float:
        return self.length / self.points

    @cached_property
    def x(self) -> np.ndarray:
        return (np.arange(self.points) - self.points // 2) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        """Wavenumbers in FFT ordering, spanning ``[-pi/dx, pi/dx)``."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)


@dataclass
class SpinorField:
    """State ``Psi(x)`` on a grid: ``amplitudes[i, s]`` is component s at x_i.

    The amplitudes are complex and held component-major (Fortran order):
    each component ``amplitudes[:, s]`` is one contiguous row of
    ``amplitudes.T``.  The FFTs of :func:`step` and of the band readout, the
    kinetic mix and :func:`density` run along x one component at a time, so
    on rows they take no strided pass and no transposing copy.  The
    constructor converts its input once; :meth:`copy` and :func:`step` keep
    the order, so a run converts nothing after its first field.  An array
    assigned to the attribute later is read correctly in any order and
    dtype, at the cost of a conversion on every read.
    """

    grid: Grid1D
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.amplitudes.shape[0] != self.grid.points:
            raise ValueError("amplitude rows must match the grid point count")
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[1] not in (2, 3):
            raise ValueError("amplitudes must have shape (points, 2 or 3)")
        self.amplitudes = np.asfortranarray(self.amplitudes, dtype=complex)

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[1]

    def norm(self) -> float:
        """Total probability ``sum |Psi|^2 dx``."""
        amps = np.asfortranarray(self.amplitudes, dtype=complex)
        parts = amps.ravel(order="F").view(float)
        return float(parts @ parts) * self.grid.dx

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.amplitudes.copy(order="K"), self.time)


@dataclass(frozen=True)
class BandPopulations:
    """Weights carried by the three dispersion branches (flat slot 0 for spin 1/2)."""

    w_plus: float
    w_zero: float
    w_minus: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_plus, self.w_zero, self.w_minus)


@dataclass
class EvolveResult:
    """Recorded trajectory: trace rows follow :data:`TRACE_COLUMNS`.

    ``dt`` and ``steps`` are the step actually taken and their number
    (``steps * dt == t_final``).  ``reference`` is the exact final state,
    found along the characteristics of the initial field in
    ``reference_steps`` Magnus steps (4 per reference step, or one over
    the run where g m = 0), and ``split_error`` is the run's measured L2
    splitting error: ``final``'s distance from ``reference`` plus the
    square root of the weight the reference drops.  The guard keeps it at
    or below ``split_error_limit``.  ``predicted_error`` is the error the
    step predictor expected at ``dt``: 0 where g m = 0 or no step is taken,
    and ``None`` for an explicit dt.  ``edge_weight_max`` is the largest
    fraction of the norm seen in the guarded strip of ``edge_cells`` cells
    at each grid edge, which must stay below 1e-6.
    """

    trace: np.ndarray
    final: SpinorField
    dt: float
    steps: int
    split_error: float
    split_error_limit: float
    edge_weight_max: float
    reference: SpinorField
    predicted_error: float | None
    edge_cells: int
    reference_steps: int


@lru_cache(maxsize=16)
def _grid_projectors(grid: Grid1D, params: PhysicalParams, dimension: int):
    """Real ``(bands, N, d, d)`` band projectors of ``H(k)`` at the grid
    wavenumbers (:func:`~maxwellsim.spin_algebra.field_projectors`), and
    the same projectors packed for ``band_weights``."""
    projectors = field_projectors((dimension - 1) / 2, bloch_field(params, grid.k))
    return projectors, pack_projectors(projectors)


def _splitting_rate(params: PhysicalParams, dimension: int) -> float:
    """``g c m c^2 ||[Cz, Cx]|| / hbar^2``, the scale of the constant dt^3
    term; ``[Cz, Cx] = i kappa^2 Sy`` has the norm ``kappa^2 s``."""
    spin = (dimension - 1) / 2  # d = 2 s + 1
    norm = spin_model(spin).coupling ** 2 * spin
    return params.g * params.c * params.rest_energy * norm / params.hbar**2


def _corrected_rotors(k, params: PhysicalParams, dt: float, dimension: int):
    """Rotors of the corrected kinetic factor ``K U(k) K`` at every k, with
    ``U(k) = exp(-i H(k) dt / hbar)`` and ``K = exp(-dt^3 C / 24)``,
    ``C = (g c m c^2 / hbar^2) [Cz, Cx]`` (anti-Hermitian, so K is unitary).
    With ``magnus_step``'s ``(ax, ay, az)``, ``U(k)`` rotates by ``(k ax, 0,
    az)`` and K by ``(0, ay / 2, 0)``: ``dt^3 C / 12`` is ``ay`` about y."""
    ax, ay, az = magnus_step((dimension - 1) / 2, params, params.rest_energy, dt)
    half = rotor((0.0, ay / 2.0, 0.0))
    u = rotor(np.asarray(k)[..., None] * np.array([ax, 0.0, 0.0])
              + np.array([0.0, 0.0, az]))
    return rotor_product(half, rotor_product(u, half))


@lru_cache(maxsize=16)
def _kinetic_propagator(
    grid: Grid1D, params: PhysicalParams, dt: float, dimension: int
) -> np.ndarray:
    """Corrected kinetic factor ``K U(k) K`` at the grid wavenumbers, one
    row per matrix entry: ``out[i, j, k] = (K U(k) K)[i, j]``."""
    u = rotor_matrix(_corrected_rotors(grid.k, params, dt, dimension), dimension)
    return np.ascontiguousarray(u.transpose(1, 2, 0))


@lru_cache(maxsize=16)
def _potential_half_phase(
    grid: Grid1D, params: PhysicalParams, dt: float
) -> np.ndarray:
    return np.exp(-0.5j * params.g * grid.x * dt / params.hbar)


def default_time_step(
    grid: Grid1D, params: PhysicalParams, t_final: float, dimension: int = 3
) -> float:
    """Reference step dt0 of a run of length ``t_final``.

    The largest dt that divides ``t_final`` into whole steps and stays
    within both ``c dt <= 3 dx`` and the one-step limit
    ``dt^3 g c m c^2 ||[Cz, Cx]|| / (6 hbar^2) <= 1e-4``; the first alone
    sets dt when m = 0 or g = 0.  :func:`evolve` builds its exact reference
    at a quarter of this step.  Its default dt is this step where g m = 0,
    and otherwise this step scaled by the run's predicted error, at most
    2x.
    """
    dt = _EDGE_CELLS * grid.dx / params.c
    rate = _splitting_rate(params, dimension)
    if rate > 0:
        dt = min(dt, (6.0 * _SPLIT_ERROR_TOL / rate) ** (1.0 / 3.0))
    if t_final <= 0:
        return dt
    # One step more than the limits need keeps dt strictly inside them,
    # whatever the rounding of t_final / dt.
    return t_final / (math.floor(t_final / dt) + 1)


def gaussian_packet(
    grid: Grid1D,
    p0: float,
    width: float,
    center: float,
    spinor,
    params: PhysicalParams,
    project_band: str | None = None,
) -> SpinorField:
    """Normalized packet ``exp(i p0 x / hbar) exp(-(x-center)^2 / 2 width^2) xi``.

    ``width`` is the amplitude Gaussian width.  The packet must fit the
    grid in position, ``|center| + 5 width < L/2``, and in momentum,
    ``|p0| / hbar + 5 / width < pi / dx``, so that it neither wraps nor
    aliases, ``width^2`` must be a normal float, as the envelope divides by
    it, and ``(x - center)^2`` must be finite at every grid point (so the
    width stays below about 2.7e153); :class:`ParameterError` refuses the
    packet otherwise.  With ``project_band`` in ``{"+", "0", "-"}`` the
    packet is filtered onto one dispersion branch in momentum space and
    renormalized; a spinor orthogonal to the requested branch leaves
    nothing and raises ``ValueError``.
    """
    if width <= 4 * grid.dx:
        raise ParameterError("packet width must exceed 4 grid spacings")
    if not width * width >= sys.float_info.min:
        raise ParameterError(
            f"packet width {width:.3g} is too small: its square underflows")
    extent = grid.length / 2 + abs(center)
    if not extent <= _MAX_EXTENT:
        raise ParameterError(
            f"packet width {width:.3g} is too large: on its grid the envelope "
            f"squares |x - center| up to {extent:.3g}, which overflows")
    if abs(center) + 5 * width >= grid.length / 2:
        raise ParameterError("packet support (center +- 5 width) must fit in the grid")
    if not abs(p0) / params.hbar + 5.0 / width < math.pi / grid.dx:
        raise ParameterError(
            f"packet momentum (|p0| / hbar + 5 / width) must stay below the "
            f"grid's pi / dx = {math.pi / grid.dx:.6g}")
    xi = np.asarray(spinor, dtype=complex)
    if xi.ndim != 1 or xi.size not in (2, 3):
        raise ParameterError("spinor must be a 2- or 3-vector")
    if np.linalg.norm(xi) == 0:
        raise ParameterError("spinor must be nonzero")

    x = grid.x
    envelope = np.exp(1j * p0 * x / params.hbar
                      - (x - center) ** 2 / (2.0 * width**2))
    amplitudes = envelope[:, None] * xi[None, :]
    amplitudes /= math.sqrt(np.sum(np.abs(amplitudes) ** 2) * grid.dx)
    fld = SpinorField(grid, amplitudes)

    if project_band is not None:
        comps = band_components(fld, params)
        labels = spin_model((fld.dimension - 1) / 2).labels
        if project_band not in labels:
            raise ParameterError(f"unknown band {project_band!r}")
        projected = comps[labels.index(project_band)]
        norm = math.sqrt(np.sum(np.abs(projected) ** 2) * grid.dx)
        if norm < 1e-6:
            raise ParameterError(
                f"spinor has no weight on band {project_band!r}; cannot project"
            )
        fld = SpinorField(grid, projected / norm)
    return fld


def _edge_cells(grid: Grid1D, params: PhysicalParams, dt: float) -> int:
    """Width of the guarded strip at each grid edge for steps of dt: at
    least 3 cells, and at least ``c dt``, so that no band (none moves faster
    than c) crosses it between two checks.  At most half the grid."""
    half = grid.points // 2
    reach = params.c * dt / grid.dx
    return max(_EDGE_CELLS, math.ceil(reach)) if reach < half else half


def _edge_weight(fld: SpinorField, norm: float, edges: np.ndarray) -> float:
    """Fraction of ``norm`` at the grid points ``edges``; raises
    :class:`BoundaryContaminationError` above 1e-6."""
    parts = np.asarray(fld.amplitudes[edges], dtype=complex).ravel().view(float)
    weight = float(parts @ parts) * fld.grid.dx / norm
    if weight > _EDGE_WEIGHT_TOL:
        raise BoundaryContaminationError(
            f"packet reached the grid edge at t = {fld.time:.6g} "
            f"(edge weight {weight:.3e}); enlarge the grid"
        )
    return weight


class _Spectrum(NamedTuple):
    """A field's Fourier components, their weights (which sum to its norm),
    the indices of those kept from the largest weight down, and the weight
    w of the rest, at most 1e-22 of the norm."""

    psi_k: np.ndarray
    weights: np.ndarray
    keep: np.ndarray
    dropped: float


def _kept_spectrum(fld: SpinorField) -> _Spectrum:
    """The :class:`_Spectrum` of ``fld``."""
    grid = fld.grid
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    weights = np.sum(np.abs(psi_k) ** 2, axis=1) * (grid.dx / grid.points)
    order = np.argsort(weights)
    tail = np.cumsum(weights[order])
    n_dropped = int(np.searchsorted(tail, _DROPPED_WEIGHT * tail[-1], "right"))
    dropped = float(tail[n_dropped - 1]) if n_dropped else 0.0
    return _Spectrum(psi_k, weights, order[n_dropped:], dropped)


def _transported(fld: SpinorField, params: PhysicalParams,
                 spectrum: _Spectrum, path, t: float) -> SpinorField:
    """The field at ``fld.time + t`` whose kept Fourier components took the
    rotors ``path`` along their characteristics: the phase
    ``exp(-i g t x / hbar)``, which takes each k0 to ``k0 - g t / hbar``,
    times the inverse FFT of the evolved components."""
    psi_k, _, keep, _ = spectrum
    evolved = np.zeros_like(psi_k)
    evolved[keep] = (rotor_matrix(path, fld.dimension)
                     @ psi_k[keep][:, :, None])[:, :, 0]
    amplitudes = np.fft.ifft(evolved, axis=0)
    amplitudes *= np.exp((-1j * params.g * t / params.hbar) * fld.grid.x)[:, None]
    return SpinorField(fld.grid, amplitudes, fld.time + t)


def _distance(a: SpinorField, b: SpinorField) -> float:
    """L2 distance between two fields on one grid."""
    return math.sqrt(SpinorField(a.grid, a.amplitudes - b.amplitudes).norm())


def _exact_evolution(
    fld: SpinorField, params: PhysicalParams, spectrum: _Spectrum, dt: float,
    n_steps: int
) -> tuple[SpinorField, float]:
    """Exact evolution of ``fld`` over ``n_steps`` steps of dt, found along
    the characteristics, and the weight it drops.

    In momentum space ``g x = i g d/dk``, so the Fourier component at k0
    moves along ``k(t) = k0 - g t / hbar`` under ``H(k(t))``: the swept-level
    problem, whose propagator ``magnus_sweep`` builds at dt / 4.  Where
    ``g m = 0`` one Magnus step over the run is exact.  The kept components
    of ``spectrum``, the field's :func:`_kept_spectrum`, are evolved, and
    the weight w it drops is returned.
    """
    if n_steps == 0:
        return fld.copy(), 0.0
    t = n_steps * dt
    k0 = fld.grid.k[spectrum.keep]
    dimension = fld.dimension
    spin = (dimension - 1) / 2
    if _splitting_rate(params, dimension) == 0:
        path = magnus_sweep(spin, params, params.rest_energy, k0, t, 1)
    else:
        path = magnus_sweep(spin, params, params.rest_energy, k0, dt / 4.0,
                            4 * n_steps)
    return _transported(fld, params, spectrum, path, t), spectrum.dropped


def _predicted_error(fld: SpinorField, params: PhysicalParams,
                     spectrum: _Spectrum, reference: SpinorField, dt: float,
                     n_steps: int) -> float:
    """L2 distance from ``reference`` of ``n_steps`` corrected split steps
    of dt, taken along the characteristics.

    A step takes the Fourier component at k0 to ``k0 - g dt / hbar`` and
    applies ``K U(k_mid) K`` at the midpoint, so a run acts on each kept
    component as the chain of those rotors.  The distance predicts the
    error of a run at dt before the run; the scheme is 4th order, so at
    another step dt' it scales as ``(dt' / dt)^4``.
    """
    dimension = fld.dimension
    path = rotor_chain(
        lambda k_mid: _corrected_rotors(k_mid, params, dt, dimension),
        fld.grid.k[spectrum.keep], params.g / params.hbar, dt, n_steps)
    chain = _transported(fld, params, spectrum, path, n_steps * dt)
    return _distance(chain, reference)


def _refuse_work(work: int, unit: str):
    """Raise :class:`ParameterError` when ``work`` exceeds 1e9."""
    if work > _MAX_WORK:
        raise ParameterError(
            f"{work:.3g} {unit} exceed the cap of {_MAX_WORK:.0e}; shorten "
            "t_final or coarsen the grid")


def step(
    fld: SpinorField, dt: float, params: PhysicalParams, norm: float | None = None
) -> SpinorField:
    """One corrected Strang step; unitary to round-off (guarded at 1e-10).

    The step is rejected with :class:`ParameterError` when its proven error
    bound ``dt^3 g c m c^2 ||[Cz, Cx]|| / (6 hbar^2)`` exceeds 1e-4.  A step
    has no boundary guard and no cap on dt.  ``norm`` is the norm the step
    must preserve, ``fld.norm()`` when omitted.
    """
    if not dt > 0:
        raise ParameterError("dt must be positive")
    # Strang's dt^3 / 12 plus dt^3 / 24 for each correction factor; a
    # product, which overflows to inf where a power would raise
    bound = dt * dt * dt * _splitting_rate(params, fld.dimension) / 6.0
    if bound > _SPLIT_ERROR_TOL:
        raise ParameterError(
            f"dt = {dt:.6g} too large: the one-step splitting error bound is "
            f"{bound:.3e} > {_SPLIT_ERROR_TOL:.0e}"
        )
    return _step(fld, dt, params, fld.norm() if norm is None else norm)


def _step(fld: SpinorField, dt: float, params: PhysicalParams,
          norm: float) -> SpinorField:
    """The corrected Strang step of :func:`step`, with no bound on dt; the
    norm must stay within 1e-10 of ``norm``.  :func:`evolve` passes its
    initial norm, so there the guard bounds the drift of the whole run."""
    half = _potential_half_phase(fld.grid, params, dt)
    kinetic = _kinetic_propagator(fld.grid, params, dt, fld.dimension)
    # components as rows, (d, N): every pass below runs along contiguous x
    psi_k = np.fft.fft(fld.amplitudes.T * half, axis=1)
    mixed = kinetic[:, 0] * psi_k[0]
    for j in range(1, fld.dimension):
        mixed += kinetic[:, j] * psi_k[j]
    amps = np.fft.ifft(mixed, axis=1)
    amps *= half
    out = SpinorField(fld.grid, amps.T, fld.time + dt)
    if abs(out.norm() - norm) > _NORM_STEP_TOL * max(norm, 1.0):
        raise NumericalGuardError("norm drifted by more than 1e-10")
    return out


def _whole_steps(t_final: float, dt: float) -> tuple[int, float]:
    """Step count and the step that divides ``t_final`` into that many."""
    n_steps = max(1, math.ceil(t_final / dt)) if t_final > 0 else 0
    return n_steps, (t_final / n_steps if n_steps else dt)


def _positive_int(value) -> bool:
    """Whether ``value`` is an integer of at least 1."""
    try:
        return operator.index(value) >= 1
    except TypeError:
        return False


def evolve(
    fld: SpinorField,
    t_final: float,
    params: PhysicalParams,
    dt: float | None = None,
    record_stride: int | None = None,
) -> EvolveResult:
    """Propagate for ``t_final`` and record observables.

    ``t_final`` must be finite and nonnegative, ``dt`` positive and
    ``record_stride`` a positive integer (:class:`ParameterError`).  Any dt
    is shortened to divide ``t_final`` into whole steps.  The exact final
    state (``EvolveResult.reference``) is found along the characteristics
    at a quarter of the reference step dt0 (:func:`default_time_step`), or
    of an explicit dt finer than dt0.  The default dt is dt0 where g m = 0,
    and otherwise ``dt0 (1e-5 / E0)^(1/4)``, at most ``2 dt0``, where E0 is
    the distance from the reference of the corrected steps' rotors at dt0,
    chained along the same characteristics.  Every step is followed by an
    edge check on ``max(3, ceil(c dt / dx))`` cells at each grid edge; a dt
    whose strip holds more than 1e-6 of the initial packet is a
    :class:`ParameterError`, and so, before any step, is a run of more than
    1e9 point-steps (``steps x N``, at dt0 and at the predicted default dt)
    or a reference of more than 1e9 component-steps.  After those, a packet
    with more than 1e-6 of its weight where ``k0 - g t_final / hbar < -pi/dx``
    would wrap around in momentum, which no dt mends: it raises
    :class:`BoundaryContaminationError` before the reference.

    The run is made once; its measured splitting error (``split_error``) is
    the final state's distance from the reference.  Above 1e-4 it is a
    :class:`ParameterError` for an explicit dt, and a
    :class:`NumericalGuardError` for the default dt, a non-finite error, or
    where ``g m = 0`` (the splitting is exact there).  The trace (columns
    :data:`TRACE_COLUMNS`) holds a row every ``record_stride`` steps and the
    initial and final states; step i of n ends at ``t0 + t_final * (i / n)``
    exactly.
    """
    if not 0.0 <= t_final < math.inf:
        raise ParameterError(f"t_final must be finite and nonnegative, got {t_final}")
    if dt is not None and not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    if record_stride is not None and not _positive_int(record_stride):
        raise ParameterError(
            f"record_stride must be a positive integer, got {record_stride!r}")
    norm = fld.norm()
    if not norm > 0:
        raise ParameterError("the field must have a nonzero norm")
    exact = _splitting_rate(params, fld.dimension) == 0
    n0, dt0 = _whole_steps(
        t_final, default_time_step(fld.grid, params, t_final, fld.dimension))
    n_steps, dt_eff = (n0, dt0) if dt is None else _whole_steps(t_final, dt)
    _refuse_work(n_steps * fld.grid.points, "point-steps")
    if n_steps > n0:  # an explicit dt finer than dt0
        n0, dt0 = n_steps, dt_eff
    spectrum = _kept_spectrum(fld)
    if not exact:
        _refuse_work(4 * n0 * len(spectrum.keep),
                     "component-steps of the exact reference")
    edge = -math.pi / fld.grid.dx
    swept = fld.grid.k - params.g * t_final / params.hbar < edge
    wrapped = float(np.sum(spectrum.weights[swept])) / norm
    if wrapped > _EDGE_WEIGHT_TOL:
        raise BoundaryContaminationError(
            f"{wrapped:.3e} of the packet would wrap around the grid's momentum "
            f"edge -pi/dx = {edge:.6g} by t = {t_final:.6g}; use more grid points")
    reference, dropped = _exact_evolution(fld, params, spectrum, dt0, n0)
    reference_steps = min(n0, 1) if exact else 4 * n0
    # where g m = 0 the splitting is exact, and a run of no step errs nowhere
    predicted = 0.0 if exact or not n0 else None
    if dt is None and predicted is None:
        predicted = _predicted_error(fld, params, spectrum, reference, dt0, n0)
        if math.isfinite(predicted):
            scale = _MAX_STEP_SCALE
            if predicted > 0:
                scale = min(scale, (_PREDICTED_ERROR / predicted) ** 0.25)
            n_steps, dt_eff = _whole_steps(t_final, scale * dt0)
            _refuse_work(n_steps * fld.grid.points, "point-steps")
            predicted *= (dt_eff / dt0) ** 4

    trace, final, edge_max, cells = _run(fld, t_final, params, dt_eff, n_steps,
                                         norm, record_stride)
    error = _distance(final, reference) + math.sqrt(dropped)
    if not error <= _SPLIT_ERROR_TOL:
        message = (f"measured splitting error {error:.3e} (L2 distance from "
                   f"the exact evolution along the characteristics) over "
                   f"t = {t_final:.6g} exceeds {_SPLIT_ERROR_TOL:.0e} at "
                   f"dt = {dt_eff:.6g}")
        # an explicit dt is the caller's to shorten; where g m = 0 the
        # splitting is exact, and no dt lowers an error that it does not make
        if dt is not None and math.isfinite(error) and not exact:
            raise ParameterError(message)
        raise NumericalGuardError(message)
    return EvolveResult(trace, final, dt_eff, n_steps, error, _SPLIT_ERROR_TOL,
                        edge_max, reference, predicted, cells, reference_steps)


def _run(fld: SpinorField, t_final: float, params: PhysicalParams, dt: float,
         n_steps: int, norm: float, record_stride: int | None):
    """The step loop of :func:`evolve`: its trace, final state, largest
    edge weight and edge strip width."""
    if record_stride is None:
        record_stride = max(1, n_steps // 200) if n_steps else 1
    cells = _edge_cells(fld.grid, params, dt) if n_steps else _EDGE_CELLS
    edges = np.r_[0:cells, -cells:0]
    current = fld.copy()
    try:
        edge_max = _edge_weight(current, norm, edges)
    except BoundaryContaminationError:
        if cells == _EDGE_CELLS:
            raise
        raise ParameterError(
            f"dt = {dt:.6g} too large: its guarded strip of {cells} cells at "
            f"each grid edge (c dt / dx) reaches the initial packet; shorten "
            f"dt or enlarge the grid") from None
    rows = [_trace_row(current, params)]
    for i in range(1, n_steps + 1):
        current = _step(current, dt, params, norm)
        current.time = fld.time + t_final * (i / n_steps)
        edge_max = max(edge_max, _edge_weight(current, norm, edges))
        if i % record_stride == 0 or i == n_steps:
            rows.append(_trace_row(current, params))
    return np.array(rows), current, edge_max, cells


def _trace_row(fld: SpinorField, params: PhysicalParams) -> tuple:
    """One trace record; ``norm`` and ``x_mean`` share one density."""
    pops = band_populations(fld, params)
    rho = density(fld)
    total = float(np.sum(rho))
    return (fld.time, total * fld.grid.dx, float(fld.grid.x @ rho) / total,
            pops.w_plus, pops.w_zero, pops.w_minus)


def density(fld: SpinorField) -> np.ndarray:
    """Total position density ``sum_s |Psi_s(x)|^2``: the squared real
    parts summed over the components, plus the squared imaginary parts."""
    # (d, 2N) rows of re, im; no copy for a field held component-major
    parts = np.asfortranarray(fld.amplitudes, dtype=complex).T.view(float)
    total = np.einsum("ij,ij->j", parts, parts)
    return total[0::2] + total[1::2]


def band_components(fld: SpinorField, params: PhysicalParams) -> np.ndarray:
    """Position-space field restricted to each branch: shape ``(bands, N, d)``.

    The components sum to the original field and are mutually orthogonal
    under the full-line inner product.
    """
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    projectors, _ = _grid_projectors(fld.grid, params, fld.dimension)
    return np.fft.ifft(apply_projectors(projectors, psi_k), axis=1)


def band_populations(fld: SpinorField, params: PhysicalParams) -> BandPopulations:
    """Branch weights from momentum-space projection; they sum to the norm."""
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    _, packed = _grid_projectors(fld.grid, params, fld.dimension)
    weights = band_weights(psi_k, packed)
    weights *= fld.grid.dx / fld.grid.points
    if fld.dimension == 2:
        return BandPopulations(float(weights[0]), 0.0, float(weights[1]))
    return BandPopulations(*(float(w) for w in weights))

