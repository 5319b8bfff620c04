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

Integration is a fixed-step 4th-order Magnus scheme whose step
exponentials stay in the spin algebra: each is a rotation with the
closed-form rotation vector of :func:`maxwellsim.landau_zener.magnus_step`,
multiplied as a unit quaternion, so the propagator is unitary to rounding.
It always runs twice (dt and dt/2) as a built-in convergence check.  The
model (band labels, ``Cx``, ``Cz``) is ``landau_zener.spin_model``.  One
start needs no arrays, so the module uses :mod:`math` alone and
``lz-oracle`` never loads numpy: the rotor chain runs on four floats, and
the end projectors are the closed polynomial in ``H/E+`` of
:func:`maxwellsim.spin_algebra.field_projectors`, written out for d x d
lists.  The wave-packet guard runs the same Magnus step vectorised over
many starts (``spin_algebra.magnus_rotors`` and ``sweep_rotor``); a test
holds the two chains to 1e-13.  No closed-form transition probabilities
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
    labels, _, cx, cz = spin_model(spin)
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
    needed = total_time / dt
    if not needed <= _MAX_STEPS:
        # the exact count the run would take, where a float holds it
        count = math.ceil(needed) if needed < 2**53 else needed
        raise ParameterError(f"sweep needs {count:.16g} steps of dt = {dt:.3g}, "
                             f"above the cap of {_MAX_STEPS}")
    n_steps = max(1, math.ceil(needed))
    dt_eff = total_time / n_steps

    # both ends have the magnitude e_max
    start, end = (_projectors(cx, cz, kx * chbar / e_max, mtilde_c2 / e_max)
                  for kx in (kx_start, -kx_start))

    def populations(step: float, count: int):
        u = _rotor_matrix(_magnus_chain(spin, params, mtilde_c2, kx_start,
                                        step, count), len(labels))
        drift = max(abs(sum(abs(x) ** 2 for x in column) - 1.0)
                    for column in zip(*u))
        # w[f, b] = tr(P_f U P_b U^dagger)
        u_dagger = [[x.conjugate() for x in column] for column in zip(*u)]
        moved = [_matmul(_matmul(u, p), u_dagger) for p in start]
        w = [[_trace_product(pf, m).real for m in moved] for pf in end]
        return w, drift

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
    quaternion from the left, as ``spin_algebra.sweep_rotor(
    spin_algebra.magnus_rotors(...), ...)`` does for many starts.
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


def _rotor_matrix(q, dimension: int) -> list[list[complex]]:
    """The d x d matrix ``exp(-i omega . S)`` of the quaternion ``q``, as
    ``spin_algebra.rotor_matrix`` forms it: the SU(2) matrix ``[[a, b], [c,
    d]]`` for spin 1/2, its symmetric square for spin 1."""
    w, x, y, z = q
    a, b, c, d = complex(w, -z), complex(-y, -x), complex(y, -x), complex(w, z)
    if dimension == 2:
        return [[a, b], [c, d]]
    r = math.sqrt(2.0)
    return [[a * a, r * a * b, b * b],
            [r * a * c, a * d + b * c, r * b * d],
            [c * c, r * c * d, d * d]]


def _projectors(cx, cz, fx: float, fz: float) -> list[list[list[float]]]:
    """Band projectors of ``H = fx Cx + fz Cz`` for a unit field ``(fx,
    fz)``, in the order of the band labels: ``(1 +- h) / 2`` for spin 1/2 and
    ``((h^2 + h) / 2, 1 - h^2, (h^2 - h) / 2)`` for spin 1, with ``h = H /
    E+``."""
    h = [[fx * a + fz * b for a, b in zip(row_x, row_z)]
         for row_x, row_z in zip(cx, cz)]
    eye = [[float(i == j) for j in range(len(h))] for i in range(len(h))]
    if len(h) == 2:
        return [_combine(0.5, eye, 0.5, h), _combine(0.5, eye, -0.5, h)]
    h2 = _matmul(h, h)
    return [_combine(0.5, h2, 0.5, h), _combine(1.0, eye, -1.0, h2),
            _combine(0.5, h2, -0.5, h)]


def _combine(s, a, t, b):
    """``s a + t b`` for d x d lists."""
    return [[s * x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _matmul(a, b):
    """The matrix product of two d x d lists."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def _trace_product(a, b):
    """``tr(a b)`` for two d x d lists."""
    return sum(x * y for row, col in zip(a, zip(*b)) for x, y in zip(row, col))
