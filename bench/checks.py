"""Output checks for the benchmark, computed apart from maxwellsim.

Every expected number here comes from the closed forms written out below
(``gamma_pm = exp(-pi r)``, ``gamma_p0 = 2 y (1 - y)`` with
``y = exp(-pi r / 2)``) or from a property the method must have (norm
conservation, symmetry, band weights summing to the norm).  Nothing is
imported from ``maxwellsim``.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import find_peaks

# Swept-level oracle vs closed forms.  The finite sweep window leaves a floor
# of about 2e-5 at r <= 1 and the default endpoint factor.
ORACLE_TOL = 2e-4
# The spin-1 sweep factorises into spin-1/2 sweeps, so the oracle obeys the
# Majorana identity up to its integration error (norm drift guard: 1e-8).
MAJORANA_TOL = 1e-8
# Closed forms evaluated twice in double precision.
FORMULA_TOL = 1e-12
# Unitary propagation: the trace norm stays at 1, band weights sum to it.
NORM_TOL = 1e-8
BAND_SUM_TOL = 1e-10
# Finite-time band weights vs the asymptotic closed forms.
PACKET_BAND_TOL = 0.05
ION_BAND_TOL = 0.07
# Reduced (sigma2_x = +1 sector) vs explicit second ion.
ION_PAIR_TOL = 1e-10
FOCK_TAIL_TOL = 1e-6
# Density peaks count when their prominence exceeds this share of the maximum.
PEAK_PROMINENCE = 0.01

SWEEP_COLUMNS = ("theta", "gamma_pp", "gamma_p0", "gamma_pm", "transmission")
ORACLE_COLUMNS = (
    "ratio", "gamma_pp", "gamma_p0", "gamma_pm", "transmission",
    "analytic_gamma_pp", "analytic_gamma_p0", "analytic_gamma_pm",
    "analytic_transmission",
)
TRACE_COLUMNS = ("t", "norm", "x_mean", "w_plus", "w_zero", "w_minus")
ION_COLUMNS = ("t_ms", "pop_a", "pop_b", "pop_c", "x_mean",
               "w_plus", "w_zero", "w_minus", "fock_tail")
SNAPSHOT_COLUMNS = (
    "x", "re_comp1", "im_comp1", "re_comp2", "im_comp2", "re_comp3", "im_comp3",
    "abs2_plus_band", "abs2_zero_band", "abs2_minus_band", "abs2_total",
)


class CheckError(Exception):
    """An output disagrees with an independently computed expectation."""


class Table:
    """A maxwellsim CSV: ``#`` echo lines, one header line, numeric rows."""

    def __init__(self, columns, rows):
        self.columns = tuple(columns)
        self.rows = np.asarray(rows, dtype=float).reshape(-1, len(self.columns))

    def __getitem__(self, name) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]

    def copy(self) -> "Table":
        return Table(self.columns, self.rows.copy())


def read_table(path, columns) -> Table:
    """Read a CSV and require its header to be ``columns`` and a row to follow."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines()
                 if line and not line.startswith("#")]
    if not lines or tuple(lines[0].split(",")) != tuple(columns):
        raise CheckError(f"{path}: header is not {','.join(columns)}")
    try:
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise CheckError(f"{path}: non-numeric row ({exc})") from None
    if not rows or any(len(row) != len(columns) for row in rows):
        raise CheckError(f"{path}: no rows, or ragged rows")
    return Table(columns, rows)


def closed_forms(ratio: float, spin: str) -> tuple[float, float, float]:
    """(gamma_pp, gamma_p0, gamma_pm) from the positive band at gap ratio r."""
    gamma_pm = math.exp(-math.pi * ratio)
    if spin == "1/2":
        return 1.0 - gamma_pm, 0.0, gamma_pm
    y = math.exp(-math.pi * ratio / 2.0)
    gamma_p0 = 2.0 * y * (1.0 - y)
    return 1.0 - gamma_p0 - gamma_pm, gamma_p0, gamma_pm


def ion_ratio(eta, omega1_tilde, omega1, omega2_tilde) -> float:
    """Gap ratio (m c^2)^2 / (hbar c g) of the two-ion mapping
    c = sqrt(2) eta Delta W1t, m c^2 = hbar W1, g = hbar eta W2t / Delta."""
    return omega1**2 / (math.sqrt(2.0) * eta**2 * omega1_tilde * omega2_tilde)


def _require(dev: float, tol: float, what: str):
    if not dev <= tol:
        raise CheckError(f"{what}: deviation {dev:.3e} exceeds {tol:.0e}")


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))


def _gammas(table: Table, prefix: str = "") -> np.ndarray:
    return np.column_stack([table[prefix + k] for k in ("gamma_pp", "gamma_p0", "gamma_pm")])


def _rows_sum_to_one(table: Table, prefix: str, what: str):
    gammas = _gammas(table, prefix)
    _require(_max_dev(gammas.sum(axis=1), 1.0), FORMULA_TOL, f"{what} sum to 1")
    _require(_max_dev(table[prefix + "transmission"], gammas[:, 1] + gammas[:, 2]),
             FORMULA_TOL, f"{what} transmission = gamma_p0 + gamma_pm")


# --- sweep-transmission -----------------------------------------------------

def sweep_closed_forms(table: Table, spin: str, m: float, g: float, p0: float):
    """Each angle's row equals the closed forms at r = (m^2 + p0^2 sin^2) / g."""
    expected = [closed_forms((m**2 + (p0 * math.sin(t)) ** 2) / g, spin)
                for t in table["theta"]]
    _require(_max_dev(_gammas(table), expected), FORMULA_TOL, "sweep vs closed forms")


def sweep_rows_sum(table: Table):
    _rows_sum_to_one(table, "", "sweep rows")


def sweep_symmetric(table: Table):
    """T(theta) = T(-theta) on a grid symmetric about 0."""
    theta, t = table["theta"], table["transmission"]
    _require(_max_dev(theta, -theta[::-1]), FORMULA_TOL, "sweep angle grid symmetry")
    _require(_max_dev(t, t[::-1]), FORMULA_TOL, "sweep T(theta) = T(-theta)")


def sweep_monotone(table: Table):
    """T does not rise as |theta| grows."""
    order = np.argsort(np.abs(table["theta"]), kind="stable")
    rises = float(np.max(np.diff(table["transmission"][order]), initial=0.0))
    _require(rises, 1e-14, "sweep T monotone in |theta|")


# --- lz-oracle ----------------------------------------------------------------

def oracle_closed_forms(table: Table, spin: str, ratio: float):
    """The swept-level row matches exp(-pi r) and 2 y (1 - y)."""
    _require(_max_dev(_gammas(table), [closed_forms(ratio, spin)]), ORACLE_TOL,
             "oracle vs closed forms")


def oracle_majorana(table: Table):
    """Spin 1: gamma_p0 = 2 sqrt(gamma_pm) (1 - sqrt(gamma_pm))."""
    root = np.sqrt(table["gamma_pm"])
    _require(_max_dev(table["gamma_p0"], 2.0 * root * (1.0 - root)), MAJORANA_TOL,
             "oracle Majorana identity")


def oracle_rows_sum(table: Table):
    _rows_sum_to_one(table, "", "oracle row")
    _rows_sum_to_one(table, "analytic_", "analytic row")


def oracle_analytic_columns(table: Table, spin: str, ratio: float):
    """The analytic_* columns equal the closed forms evaluated here."""
    _require(_max_dev(_gammas(table, "analytic_"), [closed_forms(ratio, spin)]),
             FORMULA_TOL, "analytic columns vs closed forms")


# --- evolve -------------------------------------------------------------------

def trace_norm(table: Table):
    _require(_max_dev(table["norm"], 1.0), NORM_TOL, "trace norm")


def trace_band_sum(table: Table):
    """w_plus + w_zero + w_minus equals the norm in every row."""
    _require(_max_dev(table["w_plus"] + table["w_zero"] + table["w_minus"], table["norm"]),
             BAND_SUM_TOL, "trace band weights sum to the norm")


def trace_final_bands(table: Table, ratio: float):
    final = [table[k][-1] for k in ("w_plus", "w_zero", "w_minus")]
    _require(_max_dev(final, closed_forms(ratio, "1")), PACKET_BAND_TOL,
             "final packet band weights vs closed forms")


def snapshot_five_peaks(table: Table):
    """The (1, 0, 1)/sqrt(2) packet's late density has five peaks."""
    rho = table["abs2_total"]
    peaks, _ = find_peaks(rho, prominence=PEAK_PROMINENCE * rho.max())
    if len(peaks) != 5:
        raise CheckError(f"snapshot: {len(peaks)} density peaks, want 5")


# --- ion-evolve ---------------------------------------------------------------

def ion_populations_sum(table: Table):
    _require(_max_dev(table["pop_a"] + table["pop_b"] + table["pop_c"], 1.0),
             BAND_SUM_TOL, "ion internal populations sum to 1")


def ion_fock_tail(table: Table):
    tail = table["fock_tail"]
    if not (np.all(tail >= 0.0) and np.all(tail < FOCK_TAIL_TOL)):
        raise CheckError(f"ion Fock tail reaches {float(np.max(tail)):.3e}")


def ion_final_bands(table: Table, ratio: float):
    final = [table[k][-1] for k in ("w_plus", "w_zero", "w_minus")]
    _require(_max_dev(final, closed_forms(ratio, "1")), ION_BAND_TOL,
             "final ion band weights vs closed forms")


def ion_pair(reduced: Table, full: Table):
    """The reduced and explicit second-ion runs give the same trace."""
    if reduced.rows.shape != full.rows.shape:
        raise CheckError("ion pair: trace shapes differ")
    _require(_max_dev(reduced.rows, full.rows), ION_PAIR_TOL, "reduced vs full ion trace")
