"""Numerical oracle for the band-crossing problem: direct integration of the
time-dependent few-level Schrodinger equation under a linearly swept momentum.

The linear potential is equivalent to a constant force in momentum space, so
a single longitudinal mode obeys

    i hbar d(psi)/dt = [c hbar kx(t) Cx + m~ c^2 Cz~] psi,
    kx(t) = kx_start - (g / hbar) t,

with the sweep starting and ending far from the crossing.  The state begins
in an adiabatic eigenstate at ``kx_start`` and is projected onto the
adiabatic eigenbasis at ``kx_end``; bare spinor components would be wrong at
finite ``|kx|`` where the bands still mix.

The mass axis ``Cz~`` may be a unit combination ``ny Cy + nz Cz``: any such
axis is unitarily equivalent to the pure-``Cz`` form (a rotation about the
x-axis preserves both the spectrum and the ``Cx`` coupling), so the default
integrates with ``Cz`` and a flag retains the literal combination for
cross-checking.

Integration is a fixed-step 4th-order Magnus scheme (Blanes, Casas, Oteo
& Ros, Phys. Rep. 470, 151 (2009)) whose step exponentials stay in the
spin algebra: each is a rotation, multiplied as a unit quaternion, so the
propagator is unitary to rounding.  It always runs twice (dt and dt/2) as a
built-in convergence check.
No closed-form transition probabilities enter anywhere here, which is what
makes this module an independent check of the analytic formulas in
:mod:`maxwellsim.landau_zener`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalGuardError, ParameterError
from .landau_zener import TransitionProbabilities, effective_mass
from .spin_algebra import (
    PhysicalParams,
    SpinAlgebra,
    adiabatic_projectors,
    pauli_algebra,
    rotor,
    rotor_matrix,
    rotor_product,
    spin1_matrices,
    spin_components,
)

__all__ = ["SweepProblem", "sweep_problem", "integrate_sweep", "transition_matrix"]

# Sweep endpoints must satisfy c*hbar*|kx| >= this multiple of the gap.
_MIN_ENDPOINT_FACTOR = 20.0
# Default endpoint multiple; chosen so that doubling it moves the final
# populations by well under 1e-3.
_DEFAULT_ENDPOINT_FACTOR = 30.0
# Default dt in units of hbar / max|H|; the Magnus step's halving delta
# stays below 1e-6 over r in [0, 3] at the default endpoints.
_DEFAULT_DT_FACTOR = 1.0
# The Magnus series converges for dt * max|H| / hbar < pi.
_MAX_DT_FACTOR = math.pi
# Step rotors per block; bounds the kernel's memory (a few arrays of this
# many 4-vectors) whatever the step and column counts.
_BLOCK = 16384

_NORM_DRIFT_TOL = 1e-8
_CONVERGENCE_TOL = 1e-4


@dataclass(frozen=True)
class SweepProblem:
    """One momentum sweep through the band crossing.

    ``tilde_axis = (ny, nz)`` fixes the mass-term direction in the y-z spin
    plane; the default is the pure-z axis.  ``initial_band`` is one of the
    labels of ``algebra.band_labels``.
    """

    algebra: SpinAlgebra
    params: PhysicalParams
    mtilde_c2: float
    kx_start: float
    kx_end: float
    initial_band: str = "+"
    tilde_axis: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not self.kx_start > 0 > self.kx_end:
            raise ParameterError("sweep must run from kx_start > 0 to kx_end < 0")
        if self.mtilde_c2 < 0:
            raise ParameterError("effective rest energy must be nonnegative")
        chbar = self.params.c * self.params.hbar
        closest = min(self.kx_start, -self.kx_end)
        if chbar * closest < _MIN_ENDPOINT_FACTOR * self.mtilde_c2:
            raise ParameterError(
                f"sweep endpoints too close to the crossing: need c*hbar*|kx| >= "
                f"{_MIN_ENDPOINT_FACTOR} * mtilde_c2 at both ends"
            )
        if self.initial_band not in self.algebra.band_labels:
            raise ParameterError(f"unknown initial band {self.initial_band!r}")
        ny, nz = self.tilde_axis
        if abs(ny**2 + nz**2 - 1.0) > 1e-12:
            raise ParameterError("tilde_axis must be a unit vector (ny, nz)")
        if self.params.g <= 0:
            raise ParameterError("sweep requires a positive slope g")


def sweep_problem(
    algebra: SpinAlgebra,
    params: PhysicalParams,
    mtilde_c2: float | None = None,
    *,
    ky: float = 0.0,
    endpoint_factor: float = _DEFAULT_ENDPOINT_FACTOR,
    initial_band: str = "+",
    literal_tilde_axis: bool = False,
) -> SweepProblem:
    """Build a :class:`SweepProblem` with symmetric endpoints.

    If ``mtilde_c2`` is omitted it is computed from ``params`` and ``ky``.
    Endpoints are placed at ``endpoint_factor`` times the larger of the gap
    scale ``mtilde_c2`` and the sweep scale ``sqrt(hbar c g)``, so massless
    problems still get a finite sweep window.
    """
    if mtilde_c2 is None:
        mtilde_c2 = effective_mass(params, ky)
    chbar = params.c * params.hbar
    energy_scale = max(mtilde_c2, math.sqrt(params.hbar * params.c * params.g))
    kx_start = endpoint_factor * energy_scale / chbar
    if literal_tilde_axis:
        if mtilde_c2 == 0:
            raise ParameterError("literal tilde axis undefined for a massless sweep")
        ny = params.hbar * ky * params.c / mtilde_c2
        nz = params.rest_energy / mtilde_c2
        axis = (ny, nz)
    else:
        axis = (0.0, 1.0)
    return SweepProblem(
        algebra, params, mtilde_c2, kx_start, -kx_start, initial_band, axis
    )


def _sweep_columns(step_rotors, psi0, kx_start, rate, dt, n_steps):
    """Apply ``n_steps`` step propagators along ``kx(t) = kx_start - rate t``
    to the columns of ``psi0``.

    ``step_rotors(k_mid)`` maps an array of step-midpoint wavenumbers to the
    rotors (``k_mid.shape + (4,)``) of the step propagators.  ``kx_start``
    is a scalar shared by every column or one start per column.  Rotors are
    built in blocks of at most ``_BLOCK`` and multiplied pairwise, so the
    memory stays bounded whatever the step and column counts; the d x d
    propagator of each column is formed once, at the end.
    """
    kx = np.atleast_1d(np.asarray(kx_start, dtype=float))
    total = rotor(np.zeros((kx.size, 3)))
    block = max(1, _BLOCK // kx.size)
    for first in range(0, n_steps, block):
        steps = np.arange(first, min(first + block, n_steps))
        q = step_rotors(kx - rate * (steps[:, None] + 0.5) * dt)
        while len(q) > 1:
            pairs = rotor_product(q[1::2], q[0:-1:2])
            q = np.concatenate([pairs, q[-1:]]) if len(q) % 2 else pairs
        total = rotor_product(q[0], total)
    u = rotor_matrix(total, psi0.shape[0])
    return (u @ psi0.T[:, :, None])[:, :, 0].T


def _magnus_sweep(a, b, psi0, kx_start, rate, dt, n_steps, hbar):
    """Propagate the columns of ``psi0`` through ``n_steps`` Magnus steps.

    For ``H(t) = (kx_start - rate t) a + b`` the 4th-order Magnus generator
    of one step is ``h H(t_mid) + (i h^3 rate / 12 hbar) [a, b]``: Hermitian
    and in the span of the spin components, so its exponential is a rotor
    whose vector is linear in ``k_mid``.  ``kx_start`` is a scalar or one
    start per column (see :func:`_sweep_columns`).
    """
    algebra = spin1_matrices() if a.shape[0] == 3 else pauli_algebra()
    correction = (1j * dt**3 * rate / (12.0 * hbar)) * (a @ b - b @ a)
    slope = spin_components(dt * a / hbar, algebra)
    offset = spin_components((dt * b + correction) / hbar, algebra)
    return _sweep_columns(lambda k_mid: rotor(k_mid[..., None] * slope + offset),
                          psi0, kx_start, rate, dt, n_steps)


def _coupling_and_mass(problem: SweepProblem) -> tuple[np.ndarray, np.ndarray]:
    cx, cy, cz = problem.algebra.coupling_matrices
    ny, nz = problem.tilde_axis
    a = problem.params.c * problem.params.hbar * cx
    b = problem.mtilde_c2 * (ny * cy + nz * cz)
    return a, b


def _edge_projectors(problem: SweepProblem, kx: float) -> tuple[np.ndarray, ...]:
    a, b = _coupling_and_mass(problem)
    h = kx * a + b
    e_plus = math.sqrt((problem.params.c * problem.params.hbar * kx) ** 2
                       + problem.mtilde_c2**2)
    return adiabatic_projectors(h, e_plus)


def _band_states(projectors) -> np.ndarray:
    """One normalized eigenvector per band, columns ordered as the projectors.

    Each state is extracted by projecting the basis vector with the largest
    in-band weight (the projector's largest diagonal entry), which is
    deterministic and avoids eigen-solver phase conventions.
    """
    columns = []
    for p in projectors:
        j = int(np.argmax(np.real(np.diagonal(p))))
        v = p[:, j]
        columns.append(v / np.linalg.norm(v))
    return np.column_stack(columns)


def _integrate_all_bands(problem: SweepProblem, dt: float | None) -> np.ndarray:
    """Populations matrix ``w[final, initial]`` from the dt/2 run.

    Runs the sweep at dt and dt/2 and raises :class:`ConvergenceError` when
    any population moves by more than the convergence tolerance between the
    two resolutions.
    """
    a, b = _coupling_and_mass(problem)
    chbar = problem.params.c * problem.params.hbar
    k_extreme = max(problem.kx_start, -problem.kx_end)
    e_max = math.sqrt((chbar * k_extreme) ** 2 + problem.mtilde_c2**2)
    if not 0 < e_max < math.inf:
        raise ParameterError("sweep window out of floating-point range")
    if dt is None:
        dt = _DEFAULT_DT_FACTOR * problem.params.hbar / e_max
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if dt * e_max / problem.params.hbar >= _MAX_DT_FACTOR:
        raise ParameterError("dt too large: require dt * max|H| / hbar < pi")

    rate = problem.params.g / problem.params.hbar
    total_time = (problem.kx_start - problem.kx_end) / rate
    n_steps = max(1, math.ceil(total_time / dt))
    dt_eff = total_time / n_steps

    psi0 = _band_states(_edge_projectors(problem, problem.kx_start)).astype(complex)
    end_projectors = _edge_projectors(problem, problem.kx_end)

    def populations(step: float, count: int) -> tuple[np.ndarray, float]:
        psi = _magnus_sweep(a, b, psi0, problem.kx_start, rate, step, count,
                            problem.params.hbar)
        norms = np.sum(np.abs(psi) ** 2, axis=0)
        w = np.empty((len(end_projectors), psi.shape[1]))
        for fi, p in enumerate(end_projectors):
            w[fi] = np.real(np.einsum("ic,ij,jc->c", psi.conj(), p, psi))
        return w, float(np.max(np.abs(norms - 1.0)))

    w_coarse, _ = populations(dt_eff, n_steps)
    w_fine, drift = populations(dt_eff / 2.0, 2 * n_steps)
    if np.max(np.abs(w_fine - w_coarse)) > _CONVERGENCE_TOL:
        raise ConvergenceError(
            f"halving dt moved populations by "
            f"{np.max(np.abs(w_fine - w_coarse)):.3e} (> {_CONVERGENCE_TOL}); "
            "the requested dt is too coarse"
        )
    if drift > _NORM_DRIFT_TOL:
        raise NumericalGuardError(
            f"norm drift {drift:.3e} exceeds {_NORM_DRIFT_TOL}; reduce dt"
        )
    return w_fine


def transition_matrix(problem: SweepProblem, dt: float | None = None) -> np.ndarray:
    """Full matrix ``w[final, initial]`` of sweep transition probabilities.

    Band order follows ``problem.algebra.band_labels``.
    """
    return np.clip(_integrate_all_bands(problem, dt), 0.0, 1.0)


def integrate_sweep(
    problem: SweepProblem, dt: float | None = None
) -> TransitionProbabilities:
    """Sweep transition probabilities out of ``problem.initial_band``.

    For the two-level algebra the flat-band slot is identically zero.  The
    returned fields hold the final-band occupations (+, 0, -) for the chosen
    initial band, normalized by the conserved state norm (which itself is
    guarded at 1e-8).
    """
    w = _integrate_all_bands(problem, dt)
    labels = problem.algebra.band_labels
    col = labels.index(problem.initial_band)
    weights = w[:, col] / np.sum(w[:, col])
    if problem.algebra.dimension == 2:
        return TransitionProbabilities(weights[0], 0.0, weights[1])
    return TransitionProbabilities(weights[0], weights[1], weights[2])
