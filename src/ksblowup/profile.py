"""Blowup profile, refined ansatz and cutoff functions.

The profile Q(xi) is defined implicitly by

    c * xi**(2*ell) * Q**ell + d*Q - 1 = 0,      Q in (0, 1/d],

with the exact rational constant c from the eigenbasis module.  Both
supported dimensions solve it in closed form with t = c xi^(2 ell):

    d=4 (ell=2):  Q = 1 / (2 + sqrt(4 + t)),
    d=3 (ell=3):  Q = 2 sinh(arsinh(sqrt(t)/2) / 3) / sqrt(t),

free of cancellation for every t > 0, with Q = 1/d at t = 0 (at d=4 t by
products, which _kernel.c repeats bit for bit).  The deficit
delta = 1/d - Q is taken from the equation itself, delta = t Q^ell / d, so
quantities like (1/d - Q)/xi**(2*ell) keep full relative accuracy where a
plain subtraction would cancel to noise.  Q', Q'' and the radial Laplacian
follow from the first-order profile equation in one operator-only helper,
shared by the double-precision and the decimal ansatz.

Both evaluators of the refined ansatz's generated error (double, decimal) form
its correction psi_hat's terms only on the support xi < 2K of `UNIT_CUTOFF`,
and take y alike: a scalar or any shape, checked nonnegative.  The double one
forms xi, Q and Q's powers in NumPy and the rest in one compiled pass
(`_kernel.c`'s ks_ansatz) that repeats the NumPy path, `_numpy_ansatz`, bit
for bit; that path is the fallback without a compiler and the tests' reference.

`make_profile_params(d)` builds the float view of the exact constants once
per dimension; every caller shares that frozen record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import eigenbasis as eb
from ._loader import _library


class ConvergenceError(RuntimeError):
    """Decimal refinement of the profile deficit failed to converge."""


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffSpec:
    """Smooth transition from 1 on [0, K] to 0 on [2K, inf).

    The transition is the quintic smoothstep in (xi/K - 1), which is twice
    continuously differentiable.
    """

    K: float = 1.0

    def __post_init__(self):
        if not self.K > 0:                 # NaN included
            raise ValueError("cutoff scale K must be positive")


def cutoff_chi(spec: CutoffSpec, xi):
    u = np.asarray(xi, float) / spec.K
    return _smoothstep(np.clip(u - 1.0, 0.0, 1.0))


def _smoothstep(t):
    """The quintic 1 - t^3 (10 - 15 t + 6 t^2) of `cutoff_chi` at t in [0, 1]:
    exactly 1.0 at t = 0 and exactly 0.0 at t = 1."""
    return 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)


def cutoff_chi_d1(spec: CutoffSpec, xi):
    """d(chi)/d(xi)."""
    u = np.asarray(xi, float) / spec.K
    t = np.clip(u - 1.0, 0.0, 1.0)
    inside = (u > 1.0) & (u < 2.0)
    return np.where(inside, -30.0 * t * t * (1.0 - t) ** 2, 0.0) / spec.K


def cutoff_chi_d2(spec: CutoffSpec, xi):
    """d^2(chi)/d(xi)^2."""
    u = np.asarray(xi, float) / spec.K
    t = np.clip(u - 1.0, 0.0, 1.0)
    inside = (u > 1.0) & (u < 2.0)
    return np.where(inside, -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t), 0.0) / spec.K**2


# the refined ansatz's cutoff in xi = y s^(-1/(2 ell)), and its support's end for both ansatz paths
UNIT_CUTOFF = CutoffSpec(K=1.0)
_CUTOFF_END = 2.0 * UNIT_CUTOFF.K


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileParams:
    """Floating-point view of the exact spectral constants for one dimension."""

    d: int
    ell: int
    B: float
    c: float
    B_exact: Fraction
    c_exact: Fraction
    # float coefficient tables (ascending powers of y^2) used by the ansatz
    phit_coeffs: tuple = field(default=())       # phi_tilde
    phit_lap_coeffs: tuple = field(default=())   # Lap_{d+2} phi_tilde

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("profile constant must be positive")


@lru_cache(maxsize=None)
def make_profile_params(d: int) -> ProfileParams:
    """The `ProfileParams` of dimension d, built once per d and shared: the
    record is frozen and holds only floats, Fractions and tuples."""
    eb.check_dimension(d)
    ell = eb.ell_of(d)
    b_exact = eb.compute_B(d)
    c_exact = eb.compute_c(d)
    phit = eb.phi_tilde(d)
    return ProfileParams(
        d=d,
        ell=ell,
        B=float(b_exact),
        c=float(c_exact),
        B_exact=b_exact,
        c_exact=c_exact,
        phit_coeffs=tuple(phit.float_coeffs()),
        phit_lap_coeffs=tuple(phit.laplacian(d + 2).float_coeffs()),
    )


def _even_eval(coeffs, y):
    """Horner evaluation of an even polynomial given ascending y^2 coefficients."""
    y2 = np.asarray(y, float) ** 2
    acc = np.zeros_like(y2)
    for c in reversed(coeffs):
        acc = acc * y2 + c
    return acc


def _even_eval_deriv(coeffs, y):
    """d/dy of the same even polynomial (an odd polynomial)."""
    y = np.asarray(y, float)
    y2 = y * y
    acc = np.zeros_like(y2)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * y2 + 2 * k * coeffs[k]
    return acc * y


# ---------------------------------------------------------------------------
# Profile Q and its derivatives
# ---------------------------------------------------------------------------

def _solve_q(params: ProfileParams, t):
    """Q solving t*Q^ell + d*Q = 1 elementwise, in closed form.  t = c xi^(2 ell)
    cannot be negative (c > 0, an even power), so only its finiteness is checked."""
    t = np.asarray(t, float)
    if not np.isfinite(t).all():
        raise ValueError("similarity coordinate out of range (t not finite)")
    if params.ell == 2:
        return 1.0 / (2.0 + np.sqrt(4.0 + t))
    r = np.sqrt(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0, 2.0 * np.sinh(np.arcsinh(0.5 * r) / 3.0) / r, 1.0 / params.d)


def _solve_profile(params: ProfileParams, t):
    """Return (Q, deficit) solving t*Q^ell + d*Q = 1 elementwise, in closed form."""
    q = _solve_q(params, t)
    return q, np.asarray(t, float) * q**params.ell / params.d


def _profile_jet(c, d: int, ell: int, xi, q):
    """(Q', Q'', Lap_{d+2} Q) at xi from the value Q there.

    The first-order profile equation d Q (1/d - Q) = (Q - 1/2) xi Q' with the
    deficit d (1/d - Q) = c xi^(2 ell) Q^ell gives Q' with its factor
    xi^(2 ell - 1) explicit, so nothing divides by xi.  Only arithmetic
    operators are used, so the same code runs on floats, arrays and Decimal.
    """
    one_m_2q = 1 - 2 * q
    qp_xi = -2 * c * xi ** (2 * ell - 2) * q ** (ell + 1) / one_m_2q
    qp = xi * qp_xi
    lap = qp_xi * (2 * (2 * d * q - 1 + xi * qp) / one_m_2q + d)
    return qp, lap - (d + 1) * qp_xi, lap


def _t_of_xi(params: ProfileParams, xi):
    """t = c xi^(2 ell), at ell = 2 as c ((xi xi)(xi xi))."""
    return params.c * ((xi * xi) * (xi * xi) if params.ell == 2 else xi ** 6)


def _profile(params: ProfileParams, xi):
    """(Q, 1/d - Q, Q', Q'', Lap_{d+2} Q) at xi."""
    xi = _as_xi(xi)
    q, delta = _solve_profile(params, _t_of_xi(params, xi))
    return (q, delta) + _profile_jet(params.c, params.d, params.ell, xi, q)


def _as_xi(xi):
    xi = np.asarray(xi, dtype=float)
    if (xi < 0).any():
        raise ValueError("similarity coordinate must be nonnegative")
    return xi


def q_of_xi(params: ProfileParams, xi):
    """Profile value Q(xi); Q(0) = 1/d exactly."""
    xi = _as_xi(xi)
    q = _solve_q(params, _t_of_xi(params, xi))
    return q if q.ndim else float(q)


def q_deficit(params: ProfileParams, xi):
    """1/d - Q(xi) with full relative accuracy near xi = 0."""
    xi = _as_xi(xi)
    _, delta = _solve_profile(params, _t_of_xi(params, xi))
    return delta if delta.ndim else float(delta)


def q_residual(params: ProfileParams, xi, q=None):
    """Defining-equation residual c xi^(2l) Q^l + d Q - 1 at the returned Q."""
    xi = _as_xi(xi)
    if q is None:
        q = q_of_xi(params, xi)
    t = _t_of_xi(params, xi)
    return t * np.asarray(q, float) ** params.ell + params.d * np.asarray(q, float) - 1.0


def q_prime(params: ProfileParams, xi):
    """dQ/dxi = -d*Q*(1/d - Q) / (xi*(1/2 - Q)); zero at the origin."""
    out = _profile(params, xi)[2]
    return out if out.ndim else float(out)


def q_second(params: ProfileParams, xi):
    """d^2 Q/dxi^2 from differentiating the first-order profile equation."""
    out = _profile(params, xi)[3]
    return out if out.ndim else float(out)


def f_of_xi(params: ProfileParams, xi):
    """Density-level profile F = d*Q + xi*Q'; F(0) = 1."""
    out = 1.0 - f_deficit(params, xi)
    return out if np.ndim(out) else float(out)


def f_deficit(params: ProfileParams, xi):
    """1 - F(xi), accurate near the origin."""
    _, delta, qp, _, _ = _profile(params, xi)
    out = params.d * delta - xi * qp
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Refined ansatz
# ---------------------------------------------------------------------------

def _check_s(s: float):
    if not s > 0:
        raise ValueError("self-similar time must be positive")
    return float(s)


def psi_hat(params: ProfileParams, y, s):
    """Correction -(1/(B s)) * phi_tilde(y) * chi(y * s^(-1/(2 ell)))."""
    s = _check_s(s)
    y = np.asarray(y, float)
    xi = y * s ** (-1.0 / (2 * params.ell))
    return -(1.0 / (params.B * s)) * _even_eval(params.phit_coeffs, y) * cutoff_chi(UNIT_CUTOFF, xi)


def psi(params: ProfileParams, y, s):
    """Refined approximate solution Q(y s^(-1/(2 ell))) + psi_hat."""
    s = _check_s(s)
    y = np.asarray(y, float)
    xi = y * s ** (-1.0 / (2 * params.ell))
    out = q_of_xi(params, xi) + psi_hat(params, y, s)
    return out if np.ndim(out) else float(out)


def _ansatz_terms(d: int, ell: int, s, u, y, xi, over_y, sm, q_jet, p_jet, chi_jet):
    """(d(psi)/ds, E_hat): the exact time derivative of psi at fixed y and the
    generated error of `ansatz_residual`.

    From the jets q_jet = (Q, Q', Lap_{d+2} Q) at xi = y*sm, p_jet =
    (phi_tilde, phi_tilde', Lap_{d+2} phi_tilde) at y and chi_jet =
    (chi, chi', chi'') at xi, with u = 1/(B s) and over_y = 1/y (0 at y=0).
    Only arithmetic operators are used, so the same code runs on arrays and
    on Decimal scalars.
    """
    q, qp, lap_q = q_jet
    p, p1, lap_p = p_jet
    chi, chi1, chi2 = chi_jet
    ph = -u * p * chi
    ph_y = -u * (p1 * chi + p * chi1 * sm)
    lap_ph = -u * (lap_p * chi + 2 * p1 * chi1 * sm + p * chi2 * sm * sm
                   + (d + 1) * over_y * p * chi1 * sm)
    h_ph = lap_ph - (1 - 2 * q) * y * ph_y / 2 + (2 * d * q - 1 + xi * qp) * ph
    nl = d * ph * ph + y * ph * ph_y
    dpsi_ds = -xi * qp / (2 * ell * s) + (u / s) * (p * chi + p * chi1 * xi / (2 * ell))
    return dpsi_ds, -dpsi_ds + sm * sm * lap_q + h_ph + nl


def _ansatz(params: ProfileParams, y, s):
    """`_ansatz_terms` in double precision, psi_hat's terms formed only where xi <
    _CUTOFF_END; past it they would add zeros, or NaN where phi_tilde overflows.
    xi, Q and the powers come from NumPy; the rest from the compiled pass
    (`_kernel.c`'s ks_ansatz) where there is one, else from `_numpy_ansatz`,
    with the same bits."""
    s = _check_s(s)
    shape, y = np.shape(y), np.asarray(y, float).ravel()
    sm = s ** (-1.0 / (2 * params.ell))
    xi = _as_xi(y * sm)
    q = _solve_q(params, _t_of_xi(params, xi))
    lib = _library()
    if lib is None:
        dpsi_ds, err = _numpy_ansatz(params, y, s, sm, xi, q)
    else:
        dpsi_ds, err, u = np.empty_like(y), np.empty_like(y), 1.0 / (params.B * s)
        consts = np.array([params.d, params.ell, params.c, sm, sm * sm, u, 2 * params.ell * s,
                           u / s, UNIT_CUTOFF.K, UNIT_CUTOFF.K**2, _CUTOFF_END])
        # phi_tilde's coefficients, its derivative's over y as `_even_eval_deriv`
        # forms them, and its Laplacian's
        a, lap = params.phit_coeffs, params.phit_lap_coeffs
        poly = np.array([*a, *(2 * k * a[k] for k in range(1, len(a))), *lap])
        # Q**(l+1), and xi**4 at d=3, are NumPy's SIMD pow, whose bits libm's pow
        # does not repeat; xi**2 at d=4 is xi*xi, which the pass forms
        q_l1 = q ** (params.ell + 1)
        xi_2l2 = xi ** (2 * params.ell - 2) if params.ell == 3 else None
        lib.ks_ansatz(len(y), consts.ctypes.data, poly.ctypes.data, len(a), len(lap), y.ctypes.data,
                      xi.ctypes.data, q.ctypes.data, q_l1.ctypes.data,
                      None if xi_2l2 is None else xi_2l2.ctypes.data,
                      dpsi_ds.ctypes.data, err.ctypes.data)
    return dpsi_ds.reshape(shape)[()], err.reshape(shape)[()]


def _numpy_ansatz(params: ProfileParams, y, s, sm, xi, q):
    """`_ansatz` after Q in NumPy: the fallback without a compiled pass and the
    reference it is tested against."""
    qp, _, lap_q = _profile_jet(params.c, params.d, params.ell, xi, q)
    dpsi_ds = -xi * qp / (2 * params.ell * s)
    err = -dpsi_ds + sm * sm * lap_q + 0.0     # psi_hat's zero terms make a -0 +0
    on = xi < _CUTOFF_END
    y, xi = y[on], xi[on]
    dpsi_ds[on], err[on] = _ansatz_terms(
        params.d, params.ell, s, 1.0 / (params.B * s), y, xi,
        1.0 / np.where(y > 0, y, np.inf), sm, (q[on], qp[on], lap_q[on]),
        (_even_eval(params.phit_coeffs, y), _even_eval_deriv(params.phit_coeffs, y),
         _even_eval(params.phit_lap_coeffs, y)),
        (cutoff_chi(UNIT_CUTOFF, xi), cutoff_chi_d1(UNIT_CUTOFF, xi),
         cutoff_chi_d2(UNIT_CUTOFF, xi)),
    )
    return dpsi_ds, err


def ansatz_time_derivative(params: ProfileParams, y, s):
    """Exact d(psi)/ds at fixed y."""
    return _ansatz(params, y, s)[0]


def ansatz_residual(params: ProfileParams, y, s):
    """Generated error of the refined ansatz:

        E_hat = -d(psi)/ds + Lap_{d+2} Q + H psi_hat + NL(psi_hat),

    where H is the linearization of the self-similar flow at Q and
    NL(v) = d v^2 + y v v_y.  Evaluated analytically (no grid derivatives),
    psi_hat's terms only on the cutoff's support xi < 2K.
    """
    return _ansatz(params, y, s)[1]


def _to_decimal(x: Fraction) -> Decimal:
    """Rational rounded to the active decimal context."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def _even_eval_decimal(coeffs, y2):
    acc = Decimal(0)
    for c in reversed(coeffs):
        acc = acc * y2 + c
    return acc


def ansatz_residual_decimal(params: ProfileParams, y, s, digits: int = 50):
    """`ansatz_residual` evaluated node by node in decimal arithmetic.

    The terms of the generated error are O(1/s) and cancel to O(1/s^2)
    pointwise; its null-mode content is O(1/s^3).  In double precision that
    content is lost below the rounding of the O(1/s) terms once s is large
    (s ~ 1e8 for d=3).  Here every term is formed with `digits` significant
    digits from the exact constants c, B and the exact coefficients of
    phi_tilde, the profile deficit is Newton-refined from the double-precision
    value, and only the assembled error is rounded to double; psi_hat's
    terms are formed only on the cutoff's support, as in `ansatz_residual`.
    y is taken as `ansatz_residual` takes it: a scalar or any shape, checked
    nonnegative; the output has its shape.
    """
    s = _check_s(s)
    shape, y = np.shape(y), np.asarray(y, float).ravel()
    d, ell = params.d, params.ell
    _, delta0 = _solve_profile(params, params.c * _as_xi(y * s ** (-1.0 / (2 * ell))) ** (2 * ell))
    phit = eb.phi_tilde(d)
    out = np.empty_like(y)
    with localcontext() as ctx:
        ctx.prec = digits
        tol = Decimal(10) ** (5 - digits)
        zero, one = Decimal(0), Decimal(1)
        inv_d = one / d
        s_ = Decimal(s)
        sm = s_ ** (Decimal(-1) / (2 * ell))
        K, end = Decimal(UNIT_CUTOFF.K), Decimal(_CUTOFF_END)
        c = _to_decimal(params.c_exact)
        u = 1 / (_to_decimal(params.B_exact) * s_)
        p_c = [_to_decimal(a) for a in phit.coeffs]
        p1_c = [2 * k * a for k, a in enumerate(p_c)][1:]
        lap_c = [_to_decimal(a) for a in phit.laplacian(d + 2).coeffs]
        for i, (y_f, delta_f) in enumerate(zip(y, delta0)):
            yv = Decimal(y_f)
            xi = yv * sm
            t = c * xi ** (2 * ell)
            delta = Decimal(delta_f)
            for _ in range(20):
                tq = t * (inv_d - delta) ** (ell - 1)
                step = (d * delta - tq * (inv_d - delta)) / (d + ell * tq)
                delta -= step
                if abs(step) <= tol:
                    break
            else:
                raise ConvergenceError(f"decimal profile deficit did not converge at y={y_f}")
            q = inv_d - delta
            qp, _, lap_q = _profile_jet(c, d, ell, xi, q)
            if xi >= end:                  # psi_hat's terms are exact zeros
                out[i] = float(xi * qp / (2 * ell * s_) + sm * sm * lap_q)
                continue

            y2 = yv * yv
            tc = min(max(xi / K - 1, zero), one)
            chi = 1 - tc * tc * tc * (10 - 15 * tc + 6 * tc * tc)
            if 0 < tc < 1:
                chi1 = -30 * tc * tc * (1 - tc) ** 2 / K
                chi2 = -60 * tc * (1 - tc) * (1 - 2 * tc) / (K * K)
            else:
                chi1 = chi2 = zero

            _, residual = _ansatz_terms(
                d, ell, s_, u, yv, xi, 1 / yv if yv > 0 else zero, sm,
                (q, qp, lap_q),
                (_even_eval_decimal(p_c, y2), yv * _even_eval_decimal(p1_c, y2),
                 _even_eval_decimal(lap_c, y2)),
                (chi, chi1, chi2),
            )
            out[i] = float(residual)
    return out.reshape(shape)[()]


def selfsimilar_rhs_of_ansatz(params: ProfileParams, y, s):
    """Analytic value of the self-similar flow applied to the ansatz field."""
    dpsi_ds, residual = _ansatz(params, y, s)
    return residual + dpsi_ds


# ---------------------------------------------------------------------------
# Final profile
# ---------------------------------------------------------------------------

def final_profile(params: ProfileParams, r):
    """Predicted limiting density (d-2) (2/c)^(1/ell) |log r|^(1/ell) / r^2."""
    r = np.asarray(r, float)
    if np.any(r <= 0) or np.any(r >= 1):
        raise ValueError("final profile is defined on 0 < r < 1")
    amp = (params.d - 2) * (2.0 / params.c) ** (1.0 / params.ell)
    out = amp * np.abs(np.log(r)) ** (1.0 / params.ell) / r**2
    return out if out.ndim else float(out)
