"""Numerical oracle for the band-crossing problem: direct integration of the
time-dependent few-level Schrodinger equation under a linearly swept momentum.

The linear potential is equivalent to a constant force in momentum space, so
a single longitudinal mode obeys

    i hbar d(psi)/dt = [c hbar kx(t) Cx + m~ c^2 Cz] psi,
    kx(t) = kx_start - (g / hbar) t,

with the sweep starting and ending far from the crossing.  The sweep
propagator U is read between the bands at the two ends,
``w[f, b] = tr(P_f(-kx_start) U P_b(kx_start) U^dagger)``.  ``H = kappa E
n . S``, so every band projector is a spin projector along the field axis
``n``, and the table is ``|d^s_{m_f m_b}(beta)|^2`` with ``cos beta =
n_end . R(U) n_start``: one angle, no eigenvector and no phase convention.
Bare spinor components would be wrong at finite ``|kx|`` where the bands
still mix.

Any other mass axis in the y-z spin plane is a rotation about x away from
``Cz`` that leaves ``Cx`` in place (checked exactly by
``tests/test_spin_algebra.py::TestMassAxisRotation``), so it gives the same
band populations.

Integration is a fixed-step 4th-order Magnus scheme whose step
exponentials stay in the spin algebra: each is a rotation with the
closed-form rotation vector of :func:`maxwellsim.landau_zener.magnus_step`,
multiplied as a unit quaternion, so the propagator is unitary to rounding.
It always runs twice (dt and dt/2) as a built-in convergence check.  The
model (band labels, ``Cx``, ``Cz``) is ``landau_zener.spin_model``.  One
start needs no arrays, so the module uses :mod:`math` alone and
``lz-oracle`` never loads numpy: the rotor chain runs on four floats, and
the readout on the one cosine it gives.  The wave packet's exact reference
runs the same Magnus steps vectorised over many starts
(``spin_algebra.magnus_sweep``); a test holds the two chains to
``max(1e-13, n_steps * eps)``.  No closed-form transition probabilities
enter anywhere here, which is what makes this module an independent check
of the analytic formulas in :mod:`maxwellsim.landau_zener`.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, NumericalGuardError, ParameterError
from .landau_zener import (PhysicalParams, TransitionProbabilities,
                           magnus_step, spin_model)

__all__ = ["integrate_sweep"]

# Sweep endpoints must satisfy c*hbar*|kx| >= this multiple of the gap.
_MIN_ENDPOINT_FACTOR = 20.0
# Default endpoint multiple; chosen so that doubling it moves the final
# populations by well under 1e-3.
_DEFAULT_ENDPOINT_FACTOR = 30.0
# The Magnus series converges for dt * max|H| / hbar < pi.
_MAX_DT_FACTOR = math.pi
# Largest step count of the coarse run (the fine run takes twice as many):
# about 0.8 s of scalar work on one core, reached at the default dt near a
# gap ratio of 166.  A window or dt that needs more steps is refused before
# any work.
_MAX_STEPS = 300_000

_NORM_DRIFT_TOL = 1e-8
_CONVERGENCE_TOL = 1e-4


def integrate_sweep(
    spin: float,
    params: PhysicalParams,
    mtilde_c2: float,
    *,
    initial_band: str = "+",
    endpoint_factor: float = _DEFAULT_ENDPOINT_FACTOR,
    dt: float | None = None,
) -> TransitionProbabilities:
    """Sweep transition probabilities out of ``initial_band`` for spin 1
    (bands ``+``, ``0``, ``-``) or 0.5 (``+``, ``-``), for ``H = c hbar kx
    Cx + mtilde_c2 Cz``.

    The window runs from ``kx_start`` to ``-kx_start``, with ``c hbar
    kx_start`` at ``endpoint_factor`` times the larger of the gap scale
    ``mtilde_c2`` and the sweep scale ``sqrt(hbar c g)``, so massless
    problems still get a finite window.  The default ``dt`` is
    ``hbar / max|H|``; the Magnus step's halving delta stays below 1e-6 over
    r in [0, 3] at the default endpoints.  A sweep of more than
    ``_MAX_STEPS`` (300000) steps of dt, whether the default dt or an
    explicit one sets the count, raises :class:`ParameterError` before any
    work.

    The sweep runs for every initial band at dt and dt/2, and raises
    :class:`ConvergenceError` when any population moves by more than the
    convergence tolerance between the two.  The returned fields hold the
    dt/2 run's final-band occupations (+, 0, -), normalized by their sum,
    which the unitary sweep conserves (the column norms of U are guarded at
    1e-8).  For spin 1/2 the flat-band slot is identically zero.
    """
    labels = spin_model(spin).labels
    if mtilde_c2 < 0:
        raise ParameterError("effective rest energy must be nonnegative")
    if params.g <= 0:
        raise ParameterError("sweep requires a positive slope g")
    if initial_band not in labels:
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
    # the accepted range: a field that squares past the float range is
    # refused, though the band readout itself squares nothing
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
    needed = total_time / dt
    if not needed <= _MAX_STEPS:
        # the exact count the run would take, where a float holds it
        count = math.ceil(needed) if needed < 2**53 else needed
        raise ParameterError(f"sweep needs {count:.16g} steps of dt = {dt:.3g}, "
                             f"above the cap of {_MAX_STEPS}")
    n_steps = max(1, math.ceil(needed))
    dt_eff = total_time / n_steps

    # the unit field axes at the window's ends are (+-fx, 0, fz)
    fx, fz = chbar * kx_start / e_max, mtilde_c2 / e_max

    def populations(step: float, count: int):
        q = _magnus_chain(spin, params, mtilde_c2, kx_start, step, count)
        # the squared column norms of q's d x d matrix are |q|^(2 (d - 1))
        drift = abs(sum(a * a for a in q) ** (len(labels) - 1) - 1.0)
        return _band_table(q, fx, fz, len(labels)), drift

    w_coarse, _ = populations(dt_eff, n_steps)
    w_fine, drift = populations(dt_eff / 2.0, 2 * n_steps)
    delta = max(abs(a - b) for fine, coarse in zip(w_fine, w_coarse)
                for a, b in zip(fine, coarse))
    if delta > _CONVERGENCE_TOL:
        raise ConvergenceError(
            f"halving dt moved populations by {delta:.3e} "
            f"(> {_CONVERGENCE_TOL}); the requested dt is too coarse"
        )
    if drift > _NORM_DRIFT_TOL:
        raise NumericalGuardError(
            f"norm drift {drift:.3e} exceeds {_NORM_DRIFT_TOL}; reduce dt"
        )

    # w[final, initial]
    col = labels.index(initial_band)
    column = [row[col] for row in w_fine]
    total = sum(column)
    weights = [x / total for x in column]
    if len(weights) == 2:
        weights.insert(1, 0.0)
    return TransitionProbabilities(*weights)


def _magnus_chain(spin, params: PhysicalParams, mass_energy: float,
                  k0: float, dt: float, n_steps: int):
    """Quaternion ``(w, x, y, z)`` of the ordered product of ``n_steps``
    :func:`~maxwellsim.landau_zener.magnus_step` steps of ``dt`` along
    ``k(t) = k0 - (g / hbar) t``.

    Step n rotates by ``(ax k_mid, ay, az)`` and multiplies the running
    quaternion from the left, as ``spin_algebra.magnus_sweep`` does for
    many starts.
    """
    rate = params.g / params.hbar
    ax, ay, az = magnus_step(spin, params, mass_energy, dt)
    tail = ay * ay + az * az
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    w, x, y, z = 1.0, 0.0, 0.0, 0.0
    for n in range(n_steps):
        ox = (k0 - rate * (n + 0.5) * dt) * ax
        angle = sqrt(ox * ox + tail)
        half = 0.5 * angle
        # sin(angle / 2) / angle, with its limit 1/2 at angle = 0
        scale = sin(half) / angle if angle > 0 else 0.5
        c, px, py, pz = cos(half), scale * ox, scale * ay, scale * az
        w, x, y, z = (c * w - px * x - py * y - pz * z,
                      c * x + w * px + py * z - pz * y,
                      c * y + w * py + pz * x - px * z,
                      c * z + w * pz + px * y - py * x)
    return w, x, y, z


def _band_table(q, fx: float, fz: float, dimension: int) -> list[list[float]]:
    """``w[f, b] = tr(P_f U P_b U^dagger)`` of the rotor ``q`` between the
    bands of the unit field ``(fx, 0, fz)`` at the start and ``(-fx, 0,
    fz)`` at the end, in label order (descending m).

    ``H = kappa E n . S``, so each band projector is the spin projector
    along the field axis ``n``, and ``U`` moves it to the axis rotated by
    ``q``.  The table is then ``|d^s_{m_f m_b}(beta)|^2``, with ``c = cos
    beta`` the end axis against the rotated start axis: ``p, m = (1 +- c) /
    2`` for spin 1/2; ``p^2``, ``m^2``, ``2 p m = (1 - c^2) / 2`` and ``c^2``
    for spin 1.
    """
    w, x, y, z = q
    # the start axis v rotated by q = (w, u) is v + w t + u x t, t = 2 u x v
    tx, ty, tz = 2.0 * y * fz, 2.0 * (z * fx - x * fz), -2.0 * y * fx
    c = (fz * (fz + w * tz + x * ty - y * tx)
         - fx * (fx + w * tx + y * tz - z * ty))
    p, m = (1.0 + c) / 2.0, (1.0 - c) / 2.0
    if dimension == 2:
        return [[p, m], [m, p]]
    h = 2.0 * p * m
    return [[p * p, h, m * m], [h, c * c, h], [m * m, h, p * p]]
