"""Mode projections, bootstrap norms and the discrete spectrum.

Measurements are pure functions of a field sampled on a grid; a
:class:`DiagnosticsContext` holds the quadrature weights for one (dimension,
grid) pair and builds the eigenfunction samples and exact normalizations on
first use, so that per-slice diagnostics stay cheap inside evolution loops.
The Euler derivative y d/dy is y * np.gradient(f, y, edge_order=1).

`decompose` measures one time slice against the shrinking set and returns
it as a :class:`Slice`, the one record that a run keeps, that `csv_row`
writes under `csv_header` and that the CLI reports.  It is two steps:
`_measure` takes the slice's measurements, one of two ways with the same
bits, and `decompose` builds the slice from them (bounds, ratios, verdict).
A d=4 run's record call (`sim.Stepper._interval`) measures in its compiled
loop, and its records come from the same `decompose`.  Where the library of
_kernel.c loads (`_loader`), one compiled pass, ks_slice, repeats the NumPy
path operation for operation, with np.add.reduce's pairwise sums and
np.maximum.reduce's NaN; at d=4 it forms xi and Q(xi) too (d=3's sinh and
arcsinh have no bit-equal C twin).  The NumPy path is the plain forms the
pass stands in for: `pr.q_of_xi`, `pr.psi_hat`, `pr.cutoff_chi`,
np.gradient, np.sum and np.max, through `flat_norm`'s and `outer_norms`'s
own code.  Where the pass finds a t that is not finite, a grid short of
xi = 2K, an unresolved field or a non-decaying flat integrand, the NumPy
path measures the slice again and warns or raises, so errors and warnings
come from one place; it is also the path where there is no compiler.  The
context counts the slices the compiled pass measured.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import eigenbasis as eb
from . import profile as pr
from ._loader import _library


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


@functools.cache
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
    """Tables for bootstrap norms, and for mode projections on first use."""

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
        # the trapezoid weights, and the compiled pass's cutoff bands and
        # y |f|, rely on it
        if not (y[0] >= 0.0 and (y[1:] > y[:-1]).all()):
            raise ValueError("grid nodes must be nonnegative and strictly increasing")
        check_coverage(self.d, y[-1], self.coverage_tol)
        # trapezoid weights
        self._tw = tw = np.zeros_like(y)
        tw[1:-1] = 0.5 * (y[2:] - y[:-2])
        tw[0] = 0.5 * (y[1] - y[0])
        tw[-1] = 0.5 * (y[-1] - y[-2])
        # intermediate-region weight: (1 - chi_K(y)) * y^(-4 ell - 3)
        spec = pr.CutoffSpec(K=self.K)
        with np.errstate(divide="ignore"):
            wy = np.where(y > 0, y ** (-4.0 * self.ell - 3.0), 0.0)
        self.flat_w = (1.0 - pr.cutoff_chi(spec, y)) * wy * tw
        self.cut_spec = spec
        self.compiled_slices = 0      # slices `decompose` measured by ks_slice

    @cached_property
    def quad_rho(self) -> np.ndarray:
        """The rho weights times the trapezoid weights."""
        return rho_weight(self.d, self.y) * self._tw

    @cached_property
    def phi(self) -> np.ndarray:
        """phi_{2k} at the nodes, one row per k < 2 ell."""
        return np.stack([eb.partial_mass_eigen(self.d, k).evalf(self.y)
                         for k in range(2 * self.ell)])

    @cached_property
    def phi_norm_sq(self) -> np.ndarray:
        """The exact ||phi_{2k}||_rho^2, k < 2 ell."""
        return np.array([rho_norm_sq_true(self.d, k) for k in range(2 * self.ell)])

    # -- basic measurements ------------------------------------------------
    def project_all(self, field_values) -> np.ndarray:
        """Normalized rho-projections <f, phi_{2k}> / ||phi_{2k}||^2, k < 2 ell:
        one row-wise sum, which adds each row as np.sum adds it alone."""
        return np.sum((self.quad_rho * field_values) * self.phi, axis=1) / self.phi_norm_sq

    def rho_norm(self, field_values) -> float:
        return math.sqrt(np.sum(self.quad_rho * field_values**2))

    @cached_property
    def _slice_arrays(self):
        """(arrays, entries, address) of the compiled slice pass (`_kernel.c`'s
        ks_slice).  The per-grid arrays, kept alive here: y, phi_tilde, the rho
        weights, phi, its squared norms, the flat weights, the stencil of
        np.gradient(f, y, edge_order=1), 6 n doubles of scratch, the output,
        xi and Q, and (K, B, Q's constant c at d=4, else 0, and the ansatz
        cutoff's scale `profile.UNIT_CUTOFF.K`).  The stencil is
        numpy's interior weights on f[:-2], f[1:-1], f[2:], or its one doubled
        spacing when every spacing is equal.  The pass's entries are one uintp
        array, built here: n, the rows, whether every spacing is equal, then
        the arrays' addresses; `address` is its own.  Built on first use; one
        slice at a time."""
        h = np.diff(self.y)
        uniform = bool((h == h[0]).all())
        if uniform:
            stencil = np.array([2.0 * h[0]])
        else:
            h1, h2 = h[:-1], h[1:]
            stencil = np.stack([-h2 / (h1 * (h1 + h2)), (h2 - h1) / (h1 * h2),
                                h1 / (h2 * (h1 + h2))])
        p, n = self.params, len(self.y)
        arrays = [np.ascontiguousarray(x, float) for x in (
            self.y, pr._even_eval(p.phit_coeffs, self.y), self.quad_rho, self.phi,
            self.phi_norm_sq, self.flat_w, stencil, np.zeros(6 * n), np.zeros(2 * self.ell + 9),
            *np.zeros((2, n)), [self.K, p.B, p.c if self.ell == 2 else 0.0, pr.UNIT_CUTOFF.K])]
        entries = np.array([n, 2 * self.ell, uniform, *(x.ctypes.data for x in arrays)],
                           np.uintp)
        return arrays, entries, entries.ctypes.data


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


def _flat_norms(field_values, ctx: DiagnosticsContext, orders, stacklevel: int = 3) -> list:
    """flat_norm of each order in `orders` (ascending), from one chain of
    Euler derivatives and one resolution check, whose warning names the
    caller `stacklevel` - 1 frames up."""
    y = ctx.y
    f = np.asarray(field_values, float)
    if orders[-1] >= 1:
        rel = np.max(np.abs(np.diff(f))) / (np.max(np.abs(f)) + 1e-300)
        if rel > 0.5:
            warnings.warn(
                "field varies by >50% between neighbouring nodes; "
                "(y d/dy)^j is unresolved, refine the grid",
                RuntimeWarning,
                stacklevel=stacklevel,
            )
    norms = []
    for j in range(orders[-1] + 1):
        if j:
            f = y * np.gradient(f, y, edge_order=1)
        if j in orders:
            integrand = ctx.flat_w * f * f
            _check_tail_decay(integrand)
            norms.append(float(np.sqrt(np.sum(integrand))))
    return norms


def _check_tail_decay(integrand):
    """Flag integrands that do not decay toward the end of the domain.

    Its windows end at the end of the domain, not of the support, and skip
    the last few nodes there: derivative stencils against a clamped
    boundary node produce a spike there whose weighted contribution is
    negligible, whereas a genuinely non-integrable field grows globally.
    """
    live = integrand > 0
    if np.count_nonzero(live) < 32:
        return
    i1 = len(integrand) - 6
    n = i1 - int(live.argmax()) + 1
    if n < 32:
        return
    # both windows are non-empty (n >= 32)
    last = np.mean(integrand[i1 - n // 8: i1 + 1])
    if last >= np.mean(integrand[i1 - n // 4: i1 - n // 8]) and last > 1e-6 * np.max(integrand):
        raise NonIntegrableTailError(
            "weighted integrand does not decay at the domain end; "
            "the norm does not converge"
        )


def outer_norms(field_values, ctx: DiagnosticsContext, s: float):
    """Sup-norms of the outer part f*(1 - chi_K(xi)), xi = y s^(-1/(2 ell)).

    Returns (sup |f_ex|, sup |y d/dy f_ex|, sup |y f_ex|).
    """
    y = ctx.y
    xi = y * float(s) ** (-1.0 / (2 * ctx.ell))
    if xi[-1] < 2 * ctx.K:
        raise CoverageError(
            f"grid reaches xi={xi[-1]:.2f} < 2K={2 * ctx.K:.0f}; outer norms need "
            "coverage past the cutoff support"
        )
    ex = np.asarray(field_values, float) * (1.0 - pr.cutoff_chi(ctx.cut_spec, xi))
    return (
        float(np.max(np.abs(ex))),
        float(np.max(np.abs(y * np.gradient(ex, y, edge_order=1)))),
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


@functools.cache
def _bound_names(ell: int) -> tuple:
    """The shrinking-set bounds in the order of `bound_values` and of a
    slice's `measured` and `ratios`."""
    return tuple(f"mode_{k}" for k in range(2 * ell) if k != ell) + (
        "null_mode", "l2rho", "flat_0", "flat_1", "flat_2", "out_sup", "out_dysup", "out_ysup")


def bound_values(d: int, ell: int, s: float, A: float) -> dict:
    """Time-dependent bootstrap bounds of the shrinking set."""
    flat = s ** (-1.0 - 3.0 / (2 * ell))
    return dict(zip(_bound_names(ell), [A / s**2] * (2 * ell - 1) + [
        A**2 * math.log(s) / s**2,
        A / s**3,
        A * flat, A**2 * flat, A**3 * flat,
        A**4 * s ** (-1.0 / ell),
        A**5 * s ** (-1.0 / ell),
        A**4 * s ** (-1.0 / (2 * ell)),
    ]))


def _compiled_slice(v, s: float, sm: float, ctx: DiagnosticsContext):
    """`_measure`'s measurements from one ks_slice call, bit for bit as the
    NumPy path takes them, xi = y sm and Q formed in it at d=4.  None where
    there is no compiled pass, where v is not one value per node, or where the
    pass finds a t that is not finite, a grid that stops short of xi = 2K, an
    unresolved field or a non-decaying tail: there the NumPy path runs, to
    raise or warn."""
    lib = _library()
    if lib is None or v.shape != ctx.y.shape:
        return None
    arrays, _, address = ctx._slice_arrays
    if ctx.ell == 3:        # d=3's Q stays in NumPy
        xi, q = arrays[9:11]
        np.multiply(ctx.y, sm, out=xi)
        q[:] = pr.q_of_xi(ctx.params, xi)
    v = np.ascontiguousarray(v)
    if lib.ks_slice(address, s, v.ctypes.data):
        return None
    return _taken(ctx)


def _taken(ctx: DiagnosticsContext):
    """The compiled pass's measurements of its last slice, as `_measure`
    returns them, counted in ctx.compiled_slices."""
    ctx.compiled_slices += 1
    out, rows = ctx._slice_arrays[0][8], 2 * ctx.ell
    return out[:rows].copy(), out[rows:].tolist()


def _measure(v_values, s: float, ctx: DiagnosticsContext):
    """`decompose`'s first step, the measurements of v at s: (the
    coefficients eps_hat_k, [the tilde norm, flat norms 0-2, the outer norms
    out_sup, out_dysup and out_ysup, sup |v|, sup |v - Q|]), from the compiled
    pass or the NumPy path, the one that warns (naming decompose's caller) and
    raises."""
    p = ctx.params
    s = pr._check_s(s)
    v = np.asarray(v_values, float)
    sm = s ** (-1.0 / (2 * ctx.ell))
    taken = _compiled_slice(v, s, sm, ctx)
    if taken is not None:
        return taken
    xi = ctx.y * sm
    q = pr.q_of_xi(p, xi)
    ph = pr.psi_hat(p, ctx.y, s)
    eps_hat = v - (q + ph)                     # v - psi
    coeffs = ctx.project_all(eps_hat)
    tilde_norm = ctx.rho_norm(eps_hat - np.sum(coeffs[:, None] * ctx.phi, axis=0))
    return coeffs, [tilde_norm, *_flat_norms(eps_hat, ctx, (0, 1, 2), stacklevel=4),
                    *outer_norms(eps_hat + ph, ctx, s),      # of v - Q
                    float(np.max(np.abs(v))), float(np.max(np.abs(v - q)))]


def decompose(v_values, s: float, ctx: DiagnosticsContext, A: float, taken=None) -> Slice:
    """Subtract the refined ansatz and evaluate every shrinking-set bound.

    The verdict is `boundary` when the largest bound ratio lies within
    BOUNDARY_DELTA of one, and `inside` or `outside` otherwise.

    Returns the `Slice` at time s, from `_measure`'s measurements of v, or
    from `taken` where a run's record call took them
    (`sim.Stepper._interval`): the bounds, ratios and verdict are this one
    code either way.
    """
    s = pr._check_s(s)
    coeffs, (tilde_norm, *norms, sup_v, sup_dev) = taken or _measure(v_values, s, ctx)

    # the measured values in the order of `_bound_names`
    values = [abs(c) for c in coeffs.tolist()]
    values.append(values.pop(ctx.ell))
    values += [tilde_norm, *norms]
    names = _bound_names(ctx.ell)
    measured = dict(zip(names, values))
    bounds = bound_values(ctx.d, ctx.ell, s, A).values()
    ratios = dict(zip(names, [m / b for m, b in zip(values, bounds)]))
    worst = max(ratios, key=ratios.get)
    top = ratios[worst]
    if top > 1.0 + BOUNDARY_DELTA:
        verdict = "outside"
    elif top >= 1.0 - BOUNDARY_DELTA:
        verdict = "boundary"
    else:
        verdict = "inside"
    return Slice(s=s, coefficients=coeffs, tilde_norm=tilde_norm,
                 measured=measured, ratios=ratios, verdict=verdict, worst=worst,
                 sup_v=sup_v, sup_dev_profile=sup_dev)


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
    if not 1 <= count <= n:
        raise ValueError(f"count must lie in [1, n] = [1, {n}], got {count}")
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

    from scipy.linalg import eigh_tridiagonal      # here, to keep scipy off the import path
    vals = eigh_tridiagonal(diag, off, select="i",
                            select_range=(n - count, n - 1), eigvals_only=True)
    return vals[::-1]       # descending: ~ {0, -1/ell, ...}
