"""Mode projections, bootstrap norms and the discrete spectrum.

Measurements are pure functions of a field sampled on a grid; a
:class:`DiagnosticsContext` precomputes the eigenfunction samples,
quadrature weights and exact normalizations for one (dimension, grid)
pair so that per-slice diagnostics stay cheap inside evolution loops.
Its Euler derivative y d/dy keeps the stencil of
`np.gradient(f, y, edge_order=1)` per grid, built on first use, and gives
the same bits.

`decompose` measures one time slice against the shrinking set and returns
it as a :class:`Slice`, the one record that a run keeps, that `csv_row`
writes under `csv_header` and that the CLI reports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import eigenbasis as eb
from . import profile as pr


class CoverageError(ValueError):
    """Grid does not cover enough of the weighted domain."""


class NonIntegrableTailError(ValueError):
    """The weighted-norm integrand does not decay; the norm diverges."""


class UnfitError(ValueError):
    """A series is too short or ill-conditioned to fit."""


class AssemblyError(RuntimeError):
    """Internal inconsistency while assembling a discrete operator."""


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------

def rho_weight(d: int, y):
    """Gaussian-polynomial weight exp(-y^2/(4 ell)) y^(d+1)."""
    ell = eb.ell_of(d)
    y = np.asarray(y, float)
    return np.exp(-y * y / (4.0 * ell)) * y ** (d + 1)


def rho_norm_sq_true(d: int, n: int) -> float:
    """Absolute value of integral phi_{2n}^2 rho dy (carries Gamma factors)."""
    ell = eb.ell_of(d)
    scale = ell ** ((d + 2) / 2.0) / 2.0 * math.gamma(d / 2.0 + 1.0) * 4.0 ** (d / 2.0 + 1.0)
    phi = eb.partial_mass_eigen(d, n)
    return scale * float(eb.inner_product(d, "rho", phi, phi))


def check_coverage(d: int, y_end: float, tol: float = 1e-10):
    """Raise CoverageError when a domain ending at `y_end` leaves a weighted
    tail exp(-y^2/(4 ell)) y^(d+1+4 ell) above `tol` for mode projections."""
    ell = eb.ell_of(d)
    tail = math.exp(-y_end ** 2 / (4 * ell)) * y_end ** (d + 1 + 4 * ell)
    if tail > tol:
        raise CoverageError(
            f"grid ends at y={y_end:.3g}; weighted tail {tail:.2e} exceeds "
            f"tolerance {tol:.1e} for mode projections"
        )


@dataclass
class DiagnosticsContext:
    """Precomputed tables for mode projections and bootstrap norms."""

    d: int
    y: np.ndarray
    K: float = 10.0
    coverage_tol: float = 1e-10
    ell: int = field(init=False)
    params: pr.ProfileParams = None

    def __post_init__(self):
        self.ell = eb.ell_of(self.d)
        if self.params is None:
            self.params = pr.make_profile_params(self.d)
        y = np.asarray(self.y, float)
        self.y = y
        check_coverage(self.d, y[-1], self.coverage_tol)
        # trapezoid weights
        tw = np.zeros_like(y)
        tw[1:-1] = 0.5 * (y[2:] - y[:-2])
        tw[0] = 0.5 * (y[1] - y[0])
        tw[-1] = 0.5 * (y[-1] - y[-2])
        self.quad_rho = rho_weight(self.d, y) * tw
        self.phi = np.stack(
            [eb.partial_mass_eigen(self.d, k).evalf(y) for k in range(2 * self.ell)]
        )
        self.phi_norm_sq = np.array(
            [rho_norm_sq_true(self.d, k) for k in range(2 * self.ell)]
        )
        # intermediate-region weight: (1 - chi_K(y)) * y^(-4 ell - 3)
        spec = pr.CutoffSpec(K=self.K)
        with np.errstate(divide="ignore"):
            wy = np.where(y > 0, y ** (-4.0 * self.ell - 3.0), 0.0)
        self.flat_w = (1.0 - pr.cutoff_chi(spec, y)) * wy * tw
        self.cut_spec = spec

    # -- basic measurements ------------------------------------------------
    def project_all(self, field_values) -> np.ndarray:
        """Normalized rho-projections <f, phi_{2k}> / ||phi_{2k}||^2, k < 2 ell."""
        num = self.quad_rho * field_values
        return np.array([np.sum(num * self.phi[k]) / self.phi_norm_sq[k] for k in range(2 * self.ell)])

    def rho_norm(self, field_values) -> float:
        return float(np.sqrt(np.sum(self.quad_rho * field_values**2)))

    # -- Euler derivative --------------------------------------------------
    @cached_property
    def _gradient_stencil(self):
        """(a, b, c, h_first, h_last) of np.gradient(f, y, edge_order=1):
        interior weights a, b, c on f[:-2], f[1:-1], f[2:] (a is None when
        every spacing is equal, and b is then the doubled spacing), and the
        spacings of the one-sided end differences.  Built on first use: a
        context that only takes flat_norm(j=0) never needs it."""
        h = np.diff(self.y)
        if (h == h[0]).all():
            return None, 2.0 * h[0], None, h[0], h[-1]
        h1, h2 = h[:-1], h[1:]
        return (-h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2), h1 / (h2 * (h1 + h2)),
                h[0], h[-1])

    def _euler_derivative(self, f) -> np.ndarray:
        """y df/dy, bit-equal to y * np.gradient(f, y, edge_order=1): centered
        differences inside, one-sided at the ends, in numpy's own order of
        operations."""
        a, b, c, h_first, h_last = self._gradient_stencil
        out = np.empty_like(f)
        if a is None:
            out[1:-1] = (f[2:] - f[:-2]) / b
        else:
            out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
        out[0] = (f[1] - f[0]) / h_first
        out[-1] = (f[-1] - f[-2]) / h_last
        return self.y * out


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def flat_norm(field_values, ctx: DiagnosticsContext, j: int = 0) -> float:
    """Intermediate-region norm ( int (1-chi_K(y)) |(y d/dy)^j f|^2 y^(-4l-3) dy )^(1/2).

    Raises NonIntegrableTailError when the integrand fails to decay.
    """
    if j not in (0, 1, 2):
        raise ValueError("derivative order j must be 0, 1 or 2")
    return _flat_norms(field_values, ctx, (j,))[0]


def _flat_norms(field_values, ctx: DiagnosticsContext, orders) -> list:
    """flat_norm of each order in `orders` (ascending), from one chain of
    Euler derivatives and one resolution check."""
    y = ctx.y
    f = np.asarray(field_values, float)
    if orders[-1] >= 1:
        rel = np.max(np.abs(np.diff(f))) / (np.max(np.abs(f)) + 1e-300)
        if rel > 0.5:
            warnings.warn(
                "field varies by >50% between neighbouring nodes; "
                "(y d/dy)^j is unresolved, refine the grid",
                RuntimeWarning,
                stacklevel=3,
            )
    norms = []
    for j in range(orders[-1] + 1):
        if j:
            f = ctx._euler_derivative(f)
        if j in orders:
            integrand = ctx.flat_w * f * f
            _check_tail_decay(y, integrand)
            norms.append(float(np.sqrt(np.sum(integrand))))
    return norms


def _check_tail_decay(y, integrand):
    """Flag integrands that do not decay toward the end of the domain.

    The last few nodes are skipped: derivative stencils against a clamped
    boundary node produce a spike there whose weighted contribution is
    negligible, whereas a genuinely non-integrable field grows globally.
    """
    live = np.nonzero(integrand > 0)[0]
    if len(live) < 32:
        return
    i1 = live[-1] - 5
    n = i1 - live[0] + 1
    if n < 32:
        return
    # both windows are non-empty (n >= 32); sum / len is np.mean's own division
    last = integrand[i1 - n // 8: i1 + 1]
    prev = integrand[i1 - n // 4: i1 - n // 8]
    mean_last = last.sum() / len(last)
    if mean_last >= prev.sum() / len(prev) and mean_last > 1e-6 * float(np.max(integrand)):
        raise NonIntegrableTailError(
            "weighted integrand does not decay at the domain end; "
            "the norm does not converge"
        )


def outer_norms(field_values, ctx: DiagnosticsContext, s: float):
    """Sup-norms of the outer part f*(1 - chi_K(xi)), xi = y s^(-1/(2 ell)).

    Returns (sup |f_ex|, sup |y d/dy f_ex|, sup |y f_ex|).
    """
    y = ctx.y
    sm = float(s) ** (-1.0 / (2 * ctx.ell))
    xi = y * sm
    if xi[-1] < 2 * ctx.K:
        raise CoverageError(
            f"grid reaches xi={xi[-1]:.2f} < 2K={2 * ctx.K:.0f}; outer norms need "
            "coverage past the cutoff support"
        )
    ex = np.asarray(field_values, float) * (1.0 - pr.cutoff_chi(ctx.cut_spec, xi))
    return (
        float(np.max(np.abs(ex))),
        float(np.max(np.abs(ctx._euler_derivative(ex)))),
        float(np.max(np.abs(y * ex))),
    )


# ---------------------------------------------------------------------------
# Full decomposition against the bootstrap set
# ---------------------------------------------------------------------------

# half-width of the `boundary` verdict band around a bound ratio of one
BOUNDARY_DELTA = 0.05


@dataclass
class Slice:
    """One diagnostics slice: the mode coefficients of eps_hat = v - psi, the
    rho-norm of its remainder, every shrinking-set bound (measured value and
    ratio to the bound), the verdict and the worst bound, sup |v| and
    sup |v - Q(y s^(-1/(2l)))|.  It keeps no per-node array."""

    s: float
    coefficients: np.ndarray     # eps_hat_0 .. eps_hat_{2l-1}
    tilde_norm: float            # || eps_hat - sum_k eps_hat_k phi_{2k} ||_rho
    measured: dict
    ratios: dict
    verdict: str                 # inside / boundary / outside
    worst: str                   # name of the largest-ratio bound
    sup_v: float
    sup_dev_profile: float

    def max_ratio(self) -> float:
        return self.ratios[self.worst]

    def csv_row(self) -> str:
        """The slice as a line under `csv_header`."""
        cols = [f"{self.s:.10g}"]
        cols += [f"{c:.12e}" for c in self.coefficients]
        cols += [f"{self.tilde_norm:.12e}"]
        cols += [f"{self.measured[name]:.12e}" for name in CSV_BOUNDS]
        cols += [self.verdict]
        return ",".join(cols)


# the bounds a timeseries row carries, in column order; column flat<j> holds flat_<j>
CSV_BOUNDS = ("flat_0", "flat_1", "flat_2", "out_sup", "out_ysup", "out_dysup")


def csv_header(ell: int) -> str:
    eps = ",".join(f"eps{k}" for k in range(2 * ell))
    bounds = ",".join(name.replace("flat_", "flat") for name in CSV_BOUNDS)
    return f"s,{eps},tilde_l2rho,{bounds},verdict"


def write_timeseries(path, slices, ell: int):
    """Write the slices as CSV rows under `csv_header(ell)`."""
    with open(path, "w") as fh:
        fh.write(csv_header(ell) + "\n")
        for rec in slices:
            fh.write(rec.csv_row() + "\n")


def bound_values(d: int, ell: int, s: float, A: float) -> dict:
    """Time-dependent bootstrap bounds of the shrinking set."""
    out = {}
    for k in range(2 * ell):
        if k != ell:
            out[f"mode_{k}"] = A / s**2
    out["null_mode"] = A**2 * math.log(s) / s**2
    out["l2rho"] = A / s**3
    for j in range(3):
        out[f"flat_{j}"] = A ** (1 + j) * s ** (-1.0 - 3.0 / (2 * ell))
    out["out_sup"] = A**4 * s ** (-1.0 / ell)
    out["out_dysup"] = A**5 * s ** (-1.0 / ell)
    out["out_ysup"] = A**4 * s ** (-1.0 / (2 * ell))
    return out


def decompose(v_values, s: float, ctx: DiagnosticsContext, A: float) -> Slice:
    """Subtract the refined ansatz and evaluate every shrinking-set bound.

    The verdict is `boundary` when the largest bound ratio lies within
    BOUNDARY_DELTA of one, and `inside` or `outside` otherwise.

    Returns the `Slice` at time s.
    """
    p = ctx.params
    y = ctx.y
    v = np.asarray(v_values, float)
    q, ph = pr.psi_terms(p, y, s)
    eps_hat = v - (q + ph)                     # v - psi
    eps = eps_hat + ph                         # v - Q, for the outer norms

    coeffs = ctx.project_all(eps_hat)
    tilde = eps_hat - np.sum(coeffs[:, None] * ctx.phi, axis=0)
    tilde_norm = ctx.rho_norm(tilde)

    measured = {}
    for k, c in enumerate(coeffs):
        if k != ctx.ell:
            measured[f"mode_{k}"] = abs(float(c))
    measured["null_mode"] = abs(float(coeffs[ctx.ell]))
    measured["l2rho"] = tilde_norm
    for j, norm in enumerate(_flat_norms(eps_hat, ctx, (0, 1, 2))):
        measured[f"flat_{j}"] = norm
    o0, o1, o2 = outer_norms(eps, ctx, s)
    measured["out_sup"], measured["out_dysup"], measured["out_ysup"] = o0, o1, o2

    bounds = bound_values(ctx.d, ctx.ell, s, A)
    ratios = {name: measured[name] / bounds[name] for name in bounds}
    worst = max(ratios, key=ratios.get)
    top = ratios[worst]
    if top > 1.0 + BOUNDARY_DELTA:
        verdict = "outside"
    elif top >= 1.0 - BOUNDARY_DELTA:
        verdict = "boundary"
    else:
        verdict = "inside"
    return Slice(s=float(s), coefficients=coeffs, tilde_norm=tilde_norm,
                 measured=measured, ratios=ratios, verdict=verdict, worst=worst,
                 sup_v=float(np.max(np.abs(v))),
                 sup_dev_profile=float(np.max(np.abs(v - q))))


# ---------------------------------------------------------------------------
# Mode-ODE residuals
# ---------------------------------------------------------------------------

def _check_uniform(s_values):
    s = np.asarray(s_values, float)
    if len(s) < 5:
        raise UnfitError("need at least 5 uniformly spaced samples")
    ds = np.diff(s)
    if np.max(np.abs(ds - ds[0])) > 1e-8 * abs(ds[0]):
        raise UnfitError("samples must be uniformly spaced in s")
    return s, ds[0]


def mode_ode_residuals(s_values, coefficients, ell: int):
    """Residuals of the per-mode linear ODEs along a trajectory.

    For k != ell the growing/decaying modes satisfy eps_k' ~ (1 - k/ell) eps_k,
    so the residual is r_k = eps_k' - (1 - k/ell) eps_k (the sign convention
    that makes a pure growing mode exactly homogeneous).  The null mode is
    measured against its slow decay: r_ell = eps_ell' + (2/s) eps_ell.

    Returns (s_mid, residuals[n-2, 2*ell], slopes[2*ell]) with slopes fitted
    on log|r_k| vs log s.
    """
    s, ds = _check_uniform(s_values)
    c = np.asarray(coefficients, float)
    if c.shape[0] != len(s) or c.shape[1] != 2 * ell:
        raise UnfitError("coefficient array must be (len(s), 2*ell)")
    dc = (c[2:] - c[:-2]) / (2 * ds)
    cm = c[1:-1]
    sm = s[1:-1]
    res = np.empty_like(cm)
    for k in range(2 * ell):
        if k == ell:
            res[:, k] = dc[:, k] + (2.0 / sm) * cm[:, k]
        else:
            res[:, k] = dc[:, k] - (1.0 - k / ell) * cm[:, k]
    slopes = np.full(2 * ell, np.nan)
    for k in range(2 * ell):
        mag = np.abs(res[:, k])
        good = mag > 0
        if np.count_nonzero(good) >= 3:
            slopes[k] = np.polyfit(np.log(sm[good]), np.log(mag[good]), 1)[0]
    return sm, res, slopes


# ---------------------------------------------------------------------------
# Discrete spectrum of the weighted radial operator
# ---------------------------------------------------------------------------

def discrete_spectrum(d: int, n: int = 2000, y_max: float = 30.0, count: int = 6):
    """Leading eigenvalues of Lap_{d+2} - (1/(2 ell)) y d/dy in L^2_rho.

    The operator is (1/rho) d/dy (rho d/dy .), discretized in flux form on a
    cell-centered grid so the weighted matrix is symmetric by construction;
    expected eigenvalues are 0, -1/ell, -2/ell, ...
    """
    eb.check_dimension(d)
    if n < 8:
        raise ValueError("need at least 8 cells")
    h = y_max / n
    centers = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    rho_c = rho_weight(d, centers)
    rho_f = rho_weight(d, faces)
    rho_f[0] = 0.0          # no flux through the origin (weight vanishes)
    rho_f[-1] = 0.0         # numerically zero anyway for y_max >= 30

    if not (np.all(np.isfinite(rho_c)) and np.all(rho_c > 0) and np.all(rho_f >= 0)):
        raise AssemblyError("weight samples are not positive and finite")

    # symmetric similarity transform of the flux-form operator
    diag = -(rho_f[1:] + rho_f[:-1]) / (rho_c * h * h)
    off = rho_f[1:-1] / (h * h * np.sqrt(rho_c[:-1] * rho_c[1:]))
    if not np.all(np.isfinite(off)):
        raise AssemblyError("off-diagonal assembly produced non-finite entries")

    vals = eigh_tridiagonal(diag, off, select="i",
                            select_range=(n - count, n - 1), eigvals_only=True)
    return vals[::-1]       # descending: ~ {0, -1/ell, ...}
