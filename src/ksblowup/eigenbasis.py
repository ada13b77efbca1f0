"""Exact eigenpolynomial algebra for the radial aggregation linearization.

Everything in this module is computed with rational arithmetic and is
bit-reproducible.  The two admissible dimensions are d = 3 (ell = 3) and
d = 4 (ell = 2); for any other d the integer mode index ell = d/(d-2)
does not exist and construction is refused.

Weight conventions (after the change of variable z = 2*alpha*y^2):

* density-level weight ("w"):   z**((d-2)/2) * exp(-z/4)
* partial-mass weight ("rho"):  z**(d/2)     * exp(-z/4)

Inner products are stored relative to the weight's zeroth moment, so every
value is rational even when the absolute moment carries a sqrt(pi) factor
(d = 3).  All downstream uses (spectral constants, projections) are ratios,
so the common factor cancels.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactpoly import ExactPoly, as_rational

SUPPORTED_DIMS = (3, 4)


class DimensionError(ValueError):
    """Raised for dimensions where the zero mode index is not an integer."""


class HalfPowerError(ArithmeticError):
    """The nonlocal product pipeline failed to clear its fractional power."""


def check_dimension(d: int) -> int:
    if d not in SUPPORTED_DIMS:
        raise DimensionError(
            f"d={d}: the mode index d/(d-2) must be a positive integer, "
            "which holds only for d=3 (index 3) and d=4 (index 2)"
        )
    return d


def ell_of(d: int) -> int:
    """Zero-mode index ell = d/(d-2)."""
    check_dimension(d)
    return d // (d - 2)


def alpha_of(d: int) -> Fraction:
    """Drift strength alpha = (d-2)/(2d) = 1/(2*ell)."""
    check_dimension(d)
    return Fraction(d - 2, 2 * d)


# ---------------------------------------------------------------------------
# Recurrence, eigenpolynomials and moments
# ---------------------------------------------------------------------------

def recurrence_coefficient(d: int, n: int, k: int) -> Fraction:
    """Coefficient A_{n,k} of z**k in the degree-n eigenpolynomial H_n.

    A_{n,n} = 1 and A_{n,k-1} = -2k(2k+d-2)/(n-k+1) * A_{n,k}.
    """
    check_dimension(d)
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    a = Fraction(1)
    for j in range(n, k, -1):  # step from A_{n,n} down to A_{n,k}
        a *= Fraction(-2 * j * (2 * j + d - 2), n - j + 1)
    return a


@lru_cache(maxsize=None)
def kummer_eigenpoly(d: int, n: int) -> ExactPoly:
    """Monic degree-n solution H_n of 4 z H'' + (2d - z) H' + n H = 0."""
    check_dimension(d)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return ExactPoly([recurrence_coefficient(d, n, k) for k in range(n + 1)], "z")


@lru_cache(maxsize=None)
def normalized_moment(beta, k: int) -> Fraction:
    """k-th moment of z**beta * exp(-z/4) on (0, inf), relative to the 0-th.

    mu_0 = 1 and mu_k = mu_{k-1} * 4 (k + beta), exactly.
    """
    beta = as_rational(beta)
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    mu = Fraction(1)
    for j in range(1, k + 1):
        mu *= 4 * (j + beta)
    return mu


def weight_exponent(d: int, weight: str) -> Fraction:
    """z-exponent beta of the requested weight."""
    check_dimension(d)
    if weight == "w":
        return Fraction(d - 2, 2)
    if weight == "rho":
        return Fraction(d, 2)
    raise ValueError(f"unknown weight {weight!r} (expected 'w' or 'rho')")


def inner_product(d: int, weight: str, p: ExactPoly, r: ExactPoly) -> Fraction:
    """Weighted inner product of two polynomials, relative to the weight's M_0.

    Accepts either representation; y-polynomials are converted to z first.
    """
    two_alpha = 2 * alpha_of(d)
    pz, rz = p.to_z(two_alpha), r.to_z(two_alpha)
    beta = weight_exponent(d, weight)
    mu = [normalized_moment(beta, k) for k in range(pz.degree + rz.degree + 1)]
    acc = Fraction(0)
    for i, a in enumerate(pz.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(rz.coeffs):
            if b:
                acc += a * b * mu[i + j]
    return acc


# ---------------------------------------------------------------------------
# Basis conversion
# ---------------------------------------------------------------------------

def monomial_to_eigen(d: int, p: ExactPoly) -> list[Fraction]:
    """Coefficients (g_0..g_deg) with p = sum_k g_k H_k, exactly."""
    two_alpha = 2 * alpha_of(d)
    pz = p.to_z(two_alpha)
    if pz.is_zero():
        return [Fraction(0)]
    deg = pz.degree
    out = [Fraction(0)] * (deg + 1)
    for n, c in enumerate(pz.coeffs):
        if c == 0:
            continue
        for k in range(n + 1):
            out[k] += c * abs(recurrence_coefficient(d, n, k))
    return out


def eigen_to_monomial(d: int, coeffs) -> ExactPoly:
    """Rebuild sum_k g_k H_k as a plain z-polynomial."""
    check_dimension(d)
    acc = ExactPoly([], "z")
    for k, g in enumerate(coeffs):
        g = as_rational(g)
        if g:
            acc = acc + g * kummer_eigenpoly(d, k)
    return acc


# ---------------------------------------------------------------------------
# Partial-mass eigenfunctions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def partial_mass_eigen(d: int, n: int) -> ExactPoly:
    """Partial-mass eigenpolynomial: y^{-d} * integral_0^y H_n(2 alpha w^2) w^{d-1} dw.

    Termwise, the y**(2k) monomial picks up a factor 1/(2k + d).
    """
    two_alpha = 2 * alpha_of(d)
    hy = kummer_eigenpoly(d, n).to_y(two_alpha)
    return ExactPoly([c / (2 * k + d) for k, c in enumerate(hy.coeffs)], "y")


# ---------------------------------------------------------------------------
# Nonlocal product expansion and the spectral constants
# ---------------------------------------------------------------------------

def nonlocal_expand(d: int, n: int | None = None) -> ExactPoly:
    """Expand z**(-beta) d/dz [ H_n(z) * integral_0^z H_n(t) t**beta dt ].

    beta = (d-2)/2.  Intermediates carry the common factor z**(beta+1); the
    final derivative leaves z**beta which the division must clear exactly.
    """
    check_dimension(d)
    beta = Fraction(d - 2, 2)
    if n is None:
        n = ell_of(d)
    h = kummer_eigenpoly(d, n)

    # integral_0^z H(t) t^beta dt = z^(beta+1) * I(z), termwise
    i_poly = ExactPoly([c / (k + beta + 1) for k, c in enumerate(h.coeffs)], "z")
    i_offset = beta + 1

    prod = h * i_poly                       # times z^i_offset
    # d/dz [ z^a * P(z) ] = z^(a-1) * (a P + z P')
    inner = as_rational(i_offset) * prod + prod.derivative().shift(1)
    offset_after = i_offset - 1

    if offset_after != beta:                # division by z^beta must cancel
        raise HalfPowerError(
            f"fractional power z^{offset_after} does not match weight z^{beta}"
        )
    return inner


def compute_B(d: int) -> Fraction:
    """Coefficient of H_ell in the eigenbasis expansion of the nonlocal product."""
    ell = ell_of(d)
    return monomial_to_eigen(d, nonlocal_expand(d))[ell]


def compute_c(d: int) -> Fraction:
    """Profile constant c_ell = (2 alpha)^ell d^(ell+1) / (B_ell (d + 2 ell))."""
    ell = ell_of(d)
    two_alpha = 2 * alpha_of(d)
    return two_alpha**ell * Fraction(d) ** (ell + 1) / (compute_B(d) * (d + 2 * ell))


def mono_scaled(d: int, power: int) -> ExactPoly:
    """(2 alpha y^2)**power as an even y-polynomial."""
    two_alpha = 2 * alpha_of(d)
    return ExactPoly([0] * power + [two_alpha**power], "y")


def phi_tilde(d: int) -> ExactPoly:
    """phi_{2 ell} minus its top monomial (2 alpha y^2)^ell / (2 ell + d)."""
    ell = ell_of(d)
    return partial_mass_eigen(d, ell) - mono_scaled(d, ell) * Fraction(1, 2 * ell + d)


def build_residual_poly(d: int) -> ExactPoly:
    """Degree-(4 ell - 2) residual polynomial of the refined ansatz.

    Assembled from the zero-mode eigenfunction phi = phi_{2 ell}, its reduced
    part phit = phi - (2 alpha y^2)^ell/(2 ell + d) and B = compute_B(d):

        -B*phi + [ell d/(2l+d)^2] Lap_{d+2} (2 alpha y^2)^{2l}
              + [(2 alpha y^2)^l/(2l+d)] y d/dy phit
              + [(2d+2l)(2 alpha y^2)^l/(2l+d)] phit
              + d phit^2 + (1/2) y d/dy (phit^2)
    """
    ell = ell_of(d)
    b = compute_B(d)
    phi = partial_mass_eigen(d, ell)
    phit = phi_tilde(d)
    mono_l = mono_scaled(d, ell)
    s = 2 * ell + d

    p = -b * phi
    p = p + Fraction(ell * d, s * s) * mono_scaled(d, 2 * ell).laplacian(d + 2)
    p = p + Fraction(1, s) * (mono_l * phit.euler())
    p = p + Fraction(2 * d + 2 * ell, s) * (mono_l * phit)
    phit2 = phit * phit
    p = p + d * phit2 + Fraction(1, 2) * phit2.euler()
    return p
