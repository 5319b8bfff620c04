"""Complex dense references that the tests hold the package to.

The routes read the model from the real, numpy-free table
:func:`maxwellsim.landau_zener.spin_model` and apply the ion Hamiltonian in
its ladder form; none of them forms a matrix below.  The tests compare the
package against these literal matrices: the spin components, the truncated
motional operators, the dense matrix of a
:class:`~maxwellsim.ion_emulator.LadderOperator`, and the closed band
projectors of any complex Hermitian ``H``.

A plain module, not a test file: pytest collects nothing from it.
"""

import numpy as np

from maxwellsim.landau_zener import spin_model


def spin_matrices(spin):
    """Complex ``(sx, sy, sz)`` of spin 1, in the basis ``Sz = diag(1, 0,
    -1)``, or of spin 1/2 (``sigma / 2``)."""
    if spin == 1:
        sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
        sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2.0)
        return sx, sy, np.diag([1.0, 0.0, -1.0]).astype(complex)
    sigma = (np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]], dtype=complex),
             np.array([[1, 0], [0, -1]], dtype=complex))
    return tuple(s / 2 for s in sigma)


def couplings(spin):
    """The Bloch Hamiltonian's ``(Cx, Cy, Cz) = kappa (sx, sy, sz)``, with
    kappa from :func:`~maxwellsim.landau_zener.spin_model`."""
    kappa = spin_model(spin).coupling
    return tuple(kappa * s for s in spin_matrices(spin))


def closed_projectors(h, e_plus):
    """Band projectors of Hermitian matrices ``(..., d, d)`` with spectrum
    ``{+E, 0, -E}`` (or ``{+-E}``) and ``E = e_plus`` of shape ``(...)``,
    from the closed polynomial in ``H / E``: ``(P+, P0, P-)`` for d = 3,
    ``(P+, P-)`` for d = 2.  Where ``E = 0``, ``P0`` (d = 3) or both
    projectors (d = 2, as half the identity) take the identity."""
    e = np.asarray(e_plus, dtype=float)
    hn = h / np.where(e == 0.0, 1.0, e)[..., None, None]
    eye = np.eye(h.shape[-1])
    if h.shape[-1] == 2:
        return (eye + hn) / 2.0, (eye - hn) / 2.0
    hn2 = hn @ hn
    return (hn2 + hn) / 2.0, eye - hn2, (hn2 - hn) / 2.0


def annihilator(n_fock):
    """The mode's annihilator ``a`` on ``n_fock`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, n_fock)), 1)


def quadratures(delta_spread, n_fock):
    """Truncated ``x = Delta (a + ad)`` and ``p = (a - ad) / (2 i Delta)``
    (hbar = 1); the truncation corrupts only the last diagonal entry of
    ``[x, p]``."""
    a = annihilator(n_fock)
    return delta_spread * (a + a.T), (a - a.T) / (2j * delta_spread)


def ladder_matrix(h, n_fock):
    """The dense matrix of the ladder operator ``h`` on ``n_fock`` levels."""
    a = annihilator(n_fock)
    return (np.kron(h.zero, np.eye(n_fock)) + np.kron(h.up, a)
            + np.kron(h.up.conj().T, a.T))
