"""Numerical oracle for the band-crossing problem: direct integration of the
time-dependent few-level Schrodinger equation under a linearly swept momentum.

The linear potential is equivalent to a constant force in momentum space, so
a single longitudinal mode obeys

    i hbar d(psi)/dt = [c hbar kx(t) Cx + m~ c^2 Cz] psi,
    kx(t) = kx_start - (g / hbar) t,

with the sweep starting and ending far from the crossing.  The sweep
propagator U is read between the band projectors at the two ends,
``w[f, b] = tr(P_f(-kx_start) U P_b(kx_start) U^dagger)``, which needs no
eigenvector and no phase convention; bare spinor components would be wrong
at finite ``|kx|`` where the bands still mix.

Any other mass axis in the y-z spin plane is a rotation about x away from
``Cz`` that leaves ``Cx`` in place (checked exactly by
``tests/test_spin_algebra.py::TestMassAxisRotation``), so it gives the same
band populations.

Integration is a fixed-step 4th-order Magnus scheme (Blanes, Casas, Oteo
& Ros, Phys. Rep. 470, 151 (2009)) whose step exponentials stay in the
spin algebra: each is a rotation, multiplied as a unit quaternion, so the
propagator is unitary to rounding.  It always runs twice (dt and dt/2) as a
built-in convergence check.  The path kernel ``sweep_rotor`` and the Magnus
step ``magnus_rotors`` belong to the rotor layer of
:mod:`maxwellsim.spin_algebra`, where the wave-packet guard takes them too.
No closed-form transition probabilities enter anywhere here, which is what
makes this module an independent check of the analytic formulas in
:mod:`maxwellsim.landau_zener`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, NumericalGuardError, ParameterError
from .landau_zener import TransitionProbabilities
from .spin_algebra import (
    PhysicalParams,
    SpinAlgebra,
    field_projectors,
    magnus_rotors,
    rotor_matrix,
    sweep_rotor,
)

__all__ = ["integrate_sweep"]

# Sweep endpoints must satisfy c*hbar*|kx| >= this multiple of the gap.
_MIN_ENDPOINT_FACTOR = 20.0
# Default endpoint multiple; chosen so that doubling it moves the final
# populations by well under 1e-3.
_DEFAULT_ENDPOINT_FACTOR = 30.0
# The Magnus series converges for dt * max|H| / hbar < pi.
_MAX_DT_FACTOR = math.pi
# Largest step count of the coarse run (the fine run takes twice as many):
# about 3 s of work on one core, reached at the default dt near a gap ratio
# of 5,500.  A window or dt that needs more steps is refused before any work.
_MAX_STEPS = 10_000_000

_NORM_DRIFT_TOL = 1e-8
_CONVERGENCE_TOL = 1e-4


def integrate_sweep(
    algebra: SpinAlgebra,
    params: PhysicalParams,
    mtilde_c2: float,
    *,
    initial_band: str = "+",
    endpoint_factor: float = _DEFAULT_ENDPOINT_FACTOR,
    dt: float | None = None,
) -> TransitionProbabilities:
    """Sweep transition probabilities out of ``initial_band``, one of
    ``algebra.band_labels``, for ``H = c hbar kx Cx + mtilde_c2 Cz``.

    The window runs from ``kx_start`` to ``-kx_start``, with ``c hbar
    kx_start`` at ``endpoint_factor`` times the larger of the gap scale
    ``mtilde_c2`` and the sweep scale ``sqrt(hbar c g)``, so massless
    problems still get a finite window.  The default ``dt`` is
    ``hbar / max|H|``; the Magnus step's halving delta stays below 1e-6 over
    r in [0, 3] at the default endpoints.  A sweep of more than
    ``_MAX_STEPS`` (1e7) steps of dt, whether the default dt or an explicit
    one sets the count, raises :class:`ParameterError` before any work.

    The sweep runs for every initial band at dt and dt/2, and raises
    :class:`ConvergenceError` when any population moves by more than the
    convergence tolerance between the two.  The returned fields hold the
    dt/2 run's final-band occupations (+, 0, -), normalized by their sum,
    which the unitary sweep conserves (the column norms of U are guarded at
    1e-8).  For the two-level algebra the flat-band slot is identically zero.
    """
    if mtilde_c2 < 0:
        raise ParameterError("effective rest energy must be nonnegative")
    if params.g <= 0:
        raise ParameterError("sweep requires a positive slope g")
    if initial_band not in algebra.band_labels:
        raise ParameterError(f"unknown initial band {initial_band!r}")
    chbar = params.c * params.hbar
    energy_scale = max(mtilde_c2, math.sqrt(params.hbar * params.c * params.g))
    kx_start = endpoint_factor * energy_scale / chbar
    if not kx_start > 0:
        raise ParameterError("sweep must run from kx_start > 0 to -kx_start")
    if chbar * kx_start < _MIN_ENDPOINT_FACTOR * mtilde_c2:
        raise ParameterError(
            f"sweep endpoints too close to the crossing: need c*hbar*|kx| >= "
            f"{_MIN_ENDPOINT_FACTOR} * mtilde_c2 at both ends"
        )
    e_max = math.hypot(chbar * kx_start, mtilde_c2)
    # the band projectors square the field at the window's ends
    if not 0 < e_max * e_max < math.inf:
        raise ParameterError("sweep window out of floating-point range")
    if dt is None:
        dt = params.hbar / e_max
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if dt * e_max / params.hbar >= _MAX_DT_FACTOR:
        raise ParameterError("dt too large: require dt * max|H| / hbar < pi")

    rate = params.g / params.hbar
    total_time = 2.0 * kx_start / rate
    if not total_time / dt <= _MAX_STEPS:
        raise ParameterError(
            f"sweep needs {total_time / dt:.3g} steps of dt = {dt:.3g}, above "
            f"the cap of {_MAX_STEPS:.0e}")
    n_steps = max(1, math.ceil(total_time / dt))
    dt_eff = total_time / n_steps

    edges = [[kx * chbar, mtilde_c2] for kx in (kx_start, -kx_start)]
    start, end = np.moveaxis(field_projectors(algebra, edges), 1, 0)

    def populations(step: float, count: int) -> tuple[np.ndarray, float]:
        steps = magnus_rotors(algebra, params, mtilde_c2, step)
        u = rotor_matrix(sweep_rotor(steps, kx_start, rate, step, count)[0],
                         algebra.dimension)
        norms = np.sum(np.abs(u) ** 2, axis=0)
        # w[f, b] = tr(P_f U P_b U^dagger)
        w = np.einsum("fij,jk,bkl,il->fb", end, u, start, u.conj()).real
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

    # w[final, initial]
    col = algebra.band_labels.index(initial_band)
    weights = w_fine[:, col] / np.sum(w_fine[:, col])
    if algebra.dimension == 2:
        weights = (weights[0], 0.0, weights[1])
    return TransitionProbabilities(*map(float, weights))
