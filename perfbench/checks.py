"""Correctness checks of the benchmark workloads.

Each check is computed here, apart from the package: closed forms, exact ODE
solutions, adaptive quadrature, or least-squares slopes fitted by numpy.
None compares against a stored copy of an earlier output.  Every function
takes plain numbers and arrays, so the tests can feed it tiny or deliberately
wrong inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def profile_q_d4(c: float, xi):
    """Q(xi) for d=4 (l=2): the positive root of c xi^4 Q^2 + 4 Q = 1."""
    t = c * np.asarray(xi, float) ** 4
    return 1.0 / (2.0 + np.sqrt(4.0 + t))


def smoothstep_cutoff(xi):
    """1 on [0, 1], 0 on [2, inf), quintic smoothstep in between."""
    t = np.clip(np.asarray(xi, float) - 1.0, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def even_poly(coeffs, y):
    """sum_k coeffs[k] y^(2k) by Horner in y^2."""
    y2 = np.asarray(y, float) ** 2
    acc = np.zeros_like(y2)
    for c in reversed(coeffs):
        acc = acc * y2 + float(c)
    return acc


def log_slope(x, f) -> float:
    """Least-squares slope of log|f| against log x."""
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.abs(f)), 1)[0])


# ---------------------------------------------------------------------------
# selfsim_run
# ---------------------------------------------------------------------------

NULL_SLOPE_GATE = -2.5      # criterion 9: |r_l| must decay at least like s^-2.5
OUTER_NODE_TOL = 1e-12


def null_mode_slope(s, eps_null) -> float:
    """Decay slope of the null-mode ODE residual r = eps' + (2/s) eps.

    eps' is the centered difference on the uniform s-samples.
    """
    s = np.asarray(s, float)
    e = np.asarray(eps_null, float)
    ds = s[1] - s[0]
    r = (e[2:] - e[:-2]) / (2.0 * ds) + (2.0 / s[1:-1]) * e[1:-1]
    return log_slope(s[1:-1], r)


def selfsim_problems(s, coeffs, outer_value: float, y_outer: float, s_final: float,
                     c: float) -> list:
    """Whole-run checks of a d=4 (l=2) run; an empty list means every check holds.

    coeffs[:, 2] is the null mode; the outer node must carry Q(y_outer s^(-1/4)).
    """
    out = []
    slope = null_mode_slope(s, np.asarray(coeffs)[:, 2])
    if not slope <= NULL_SLOPE_GATE:
        out.append(f"null-mode residual slope {slope:.3f} > {NULL_SLOPE_GATE}")
    q = float(profile_q_d4(c, y_outer * s_final ** -0.25))
    if not abs(outer_value - q) <= OUTER_NODE_TOL:
        out.append(f"outer node {outer_value!r} differs from closed-form Q {q!r}")
    return out


# ---------------------------------------------------------------------------
# trap_search
# ---------------------------------------------------------------------------

def probe_problems(s, coeffs, exit_mode, A: float, ell: int, field_finite: bool) -> list:
    """Checks of one search probe from its diagnostics slices.

    At an exit the exiting mode's |s^2 eps_k / A| is at least 1, every
    unstable ratio was below 1 on the slice before, and the exit is
    transversal: sum_k eps_k^2 over the unstable modes rises across it.
    """
    out = []
    if not field_finite:
        out.append("field not finite at the end of the probe")
    if exit_mode is None:
        return out
    s = np.asarray(s, float)
    u = np.asarray(coeffs, float)[:, :ell]
    if len(s) < 2:
        return out + ["exit without a slice before it"]
    ratio = s[:, None] ** 2 * np.abs(u) / A
    if not ratio[-1, exit_mode] >= 1.0:
        out.append(f"exit mode {exit_mode} ratio {ratio[-1, exit_mode]:.6f} < 1")
    if not np.all(ratio[-2] < 1.0):
        out.append(f"unstable ratios {ratio[-2]} already >= 1 before the exit")
    u2 = np.sum(u[-2:] ** 2, axis=1)
    if not u2[1] > u2[0]:
        out.append("exit not transversal: sum eps_k^2 does not rise")
    return out


_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=200)


def _rho(d: int, ell: int, y):
    return np.exp(-np.asarray(y, float) ** 2 / (4.0 * ell)) * np.asarray(y, float) ** (d + 1)


def _norms(phi_coeffs, d: int) -> list:
    """||phi_k||_rho^2 by adaptive quadrature over [0, inf)."""
    ell = len(phi_coeffs)
    return [quad(lambda y: float(even_poly(p, y) ** 2 * _rho(d, ell, y)), 0.0, np.inf, **_QUAD)[0]
            for p in phi_coeffs]


def mixing_reference(phi_coeffs, d: int, s0: float) -> np.ndarray:
    """M[k, i] = <phi_i chi, phi_k>_rho / ||phi_k||_rho^2 by adaptive quadrature.

    phi_coeffs[i] are the ascending y^2 coefficients of the exact i-th
    partial-mass eigenpolynomial; chi is the unit cutoff in
    xi = y s0^(-1/(2l)); rho = exp(-y^2/(4l)) y^(d+1).
    """
    ell = len(phi_coeffs)
    scale = s0 ** (1.0 / (2 * ell))
    norms = _norms(phi_coeffs, d)

    def integrand(y, i, k):
        return float(even_poly(phi_coeffs[i], y) * even_poly(phi_coeffs[k], y)
                     * smoothstep_cutoff(y / scale) * _rho(d, ell, y))

    return np.array([[quad(integrand, 0.0, 2.0 * scale, args=(i, k), points=[scale], **_QUAD)[0]
                      / norms[k] for i in range(ell)] for k in range(ell)])


def trapezoid_mixing(phi_coeffs, d: int, s0: float, y) -> np.ndarray:
    """The same matrix by the trapezoid rule on nodes y (exact norms)."""
    ell = len(phi_coeffs)
    y = np.asarray(y, float)
    w = _rho(d, ell, y) * smoothstep_cutoff(y * s0 ** (-1.0 / (2 * ell)))
    norms = _norms(phi_coeffs, d)
    phi = [even_poly(p, y) for p in phi_coeffs]

    def trapz(f):
        return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(y)))

    return np.array([[trapz(phi[i] * phi[k] * w) / norms[k] for i in range(ell)]
                     for k in range(ell)])


def mixing_problems(mixing, phi_coeffs, d: int, s0: float, y) -> list:
    """The search's mixing matrix against adaptive quadrature.

    The allowed difference is twice the grid's quadrature error, estimated
    as the change of the trapezoid sum when the grid spacing is halved.
    """
    y = np.asarray(y, float)
    ref = mixing_reference(phi_coeffs, d, s0)
    fine = np.empty(2 * len(y) - 1)
    fine[::2] = y
    fine[1::2] = 0.5 * (y[1:] + y[:-1])
    grid_err = np.max(np.abs(trapezoid_mixing(phi_coeffs, d, s0, y)
                             - trapezoid_mixing(phi_coeffs, d, s0, fine)))
    diff = np.max(np.abs(np.asarray(mixing, float) - ref))
    tol = 2.0 * grid_err + 1e-12 * np.max(np.abs(ref))
    if not diff <= tol:
        return [f"mixing matrix differs from quadrature by {diff:.3e} > {tol:.3e}"]
    return []


# ---------------------------------------------------------------------------
# physical_blowup
# ---------------------------------------------------------------------------

FIELD_RTOL = 1e-3


def constant_field_exact(v0: float, d: int, t):
    """v(t) of v' = d v^2, v(0) = v0."""
    return 1.0 / (1.0 / v0 - d * np.asarray(t, float))


def slice_problems(times, sup_w, v0: float, d: int) -> list:
    """Per recorded slice: sup w = d v of the constant field within FIELD_RTOL."""
    exact = d * constant_field_exact(v0, d, times)
    err = np.abs(np.asarray(sup_w, float) - exact) / exact
    return [None if e <= FIELD_RTOL else f"sup w off by {e:.2e} relative"
            for e in err]


def physical_problems(final_values, final_time: float, t_est: float, v0: float,
                      d: int, dt: float) -> list:
    """Final field against the exact ODE solution; blowup-time estimate
    within 10 dt of T = 1/(d v0) (the scheme is first order in time)."""
    out = []
    exact = float(constant_field_exact(v0, d, final_time))
    err = float(np.max(np.abs(np.asarray(final_values, float) - exact))) / exact
    if not err <= FIELD_RTOL:
        out.append(f"final field off by {err:.2e} relative")
    t_blow = 1.0 / (d * v0)
    if not abs(t_est - t_blow) <= 10.0 * dt:
        out.append(f"blowup time {t_est!r} is not within {10 * dt:g} of {t_blow}")
    return out


# ---------------------------------------------------------------------------
# ansatz_slopes
# ---------------------------------------------------------------------------

SLOPE_TOL = 0.3
DECIMAL_RTOL = 1e-4


def slope_problems(svals, proj, flat, ell: int) -> list:
    """Mode slopes -2 (k != l) and -3 (k = l); flat-norm slope -1-3/(2l)."""
    out = []
    for k in range(2 * ell):
        target = -3.0 if k == ell else -2.0
        sl = log_slope(svals, np.asarray(proj)[:, k])
        if not abs(sl - target) <= SLOPE_TOL:
            out.append(f"mode {k} slope {sl:.3f}, want {target}+-{SLOPE_TOL}")
    target = -1.0 - 3.0 / (2 * ell)
    sl = log_slope(svals, flat)
    if not abs(sl - target) <= SLOPE_TOL:
        out.append(f"flat-norm slope {sl:.3f}, want {target:.2f}+-{SLOPE_TOL}")
    return out


def decimal_problems(proj_decimal, proj_double, ell: int) -> list:
    """Per s-point: the decimal and double projections agree on every mode
    double precision resolves (all but the null mode k = l)."""
    out = []
    for row_x, row_d in zip(np.asarray(proj_decimal), np.asarray(proj_double)):
        keep = [k for k in range(2 * ell) if k != ell]
        rel = np.abs(row_x[keep] - row_d[keep]) / np.abs(row_d[keep])
        out.append(None if np.all(rel <= DECIMAL_RTOL)
                   else f"decimal/double differ by {np.max(rel):.2e} relative")
    return out
