import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ksblowup import eigenbasis as eb
from ksblowup.exactpoly import ExactPoly


# ---------------------------------------------------------------------------
# recurrence and eigenpolynomials
# ---------------------------------------------------------------------------

def test_recurrence_values():
    assert eb.recurrence_coefficient(3, 1, 0) == -6
    assert eb.recurrence_coefficient(3, 2, 1) == -20
    assert eb.recurrence_coefficient(4, 7, 7) == 1


def test_recurrence_range_errors():
    with pytest.raises(ValueError):
        eb.recurrence_coefficient(3, 2, 3)
    with pytest.raises(ValueError):
        eb.recurrence_coefficient(3, -1, 0)
    with pytest.raises(eb.DimensionError):
        eb.recurrence_coefficient(5, 1, 0)


def test_golden_eigenpolys():
    assert eb.kummer_eigenpoly(3, 3).coeffs == (-840, 420, -42, 1)
    assert eb.kummer_eigenpoly(4, 2).coeffs == (96, -24, 1)
    assert eb.kummer_eigenpoly(4, 0).coeffs == (1,)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("n", range(9))
def test_kummer_ode_exact(d, n):
    h = eb.kummer_eigenpoly(d, n)
    hp = h.derivative()
    resid = 4 * hp.derivative().shift(1) + 2 * d * hp - hp.shift(1) + n * h
    assert resid.is_zero()


# ---------------------------------------------------------------------------
# moments: exact recursion against numerical quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta,k,expect", [
    (Fraction(1, 2), 0, Fraction(1)),
    (Fraction(1, 2), 1, Fraction(6)),
    (Fraction(1), 1, Fraction(8)),
    (Fraction(2), 3, Fraction(12 * 16 * 20)),
])
def test_normalized_moments(beta, k, expect):
    assert eb.normalized_moment(beta, k) == expect


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0])
def test_moments_match_quadrature(beta):
    m0 = quad(lambda z: z**beta * np.exp(-z / 4), 0, np.inf)[0]
    for k in (1, 2, 3):
        mk = quad(lambda z: z ** (k + beta) * np.exp(-z / 4), 0, np.inf)[0]
        exact = eb.normalized_moment(Fraction(beta).limit_denominator(2), k)
        assert mk / m0 == pytest.approx(float(exact), rel=1e-10)


# ---------------------------------------------------------------------------
# inner products and orthogonality
# ---------------------------------------------------------------------------

def test_inner_product_examples():
    h0 = eb.kummer_eigenpoly(3, 0)
    h1 = eb.kummer_eigenpoly(3, 1)
    assert eb.inner_product(3, "w", h1, h0) == 0
    assert eb.inner_product(3, "w", h1, h1) == 24


def test_inner_product_quadrature_oracle():
    # <H_1, H_1>_w relative to M_0, beta = 1/2 for d = 3
    h1 = lambda z: z - 6
    num = quad(lambda z: h1(z) ** 2 * z**0.5 * np.exp(-z / 4), 0, np.inf)[0]
    den = quad(lambda z: z**0.5 * np.exp(-z / 4), 0, np.inf)[0]
    assert num / den == pytest.approx(24.0, rel=1e-10)


@pytest.mark.parametrize("d", [3, 4])
def test_orthogonality_all_pairs(d):
    for n in range(9):
        for m in range(n):
            hn, hm = eb.kummer_eigenpoly(d, n), eb.kummer_eigenpoly(d, m)
            assert eb.inner_product(d, "w", hn, hm) == 0
            pn, pm = eb.partial_mass_eigen(d, n), eb.partial_mass_eigen(d, m)
            assert eb.inner_product(d, "rho", pn, pm) == 0


def test_weight_exponents():
    assert eb.weight_exponent(3, "w") == Fraction(1, 2)
    assert eb.weight_exponent(3, "rho") == Fraction(3, 2)
    assert eb.weight_exponent(4, "w") == 1
    assert eb.weight_exponent(4, "rho") == 2
    with pytest.raises(ValueError):
        eb.weight_exponent(3, "sigma")


# ---------------------------------------------------------------------------
# basis conversion
# ---------------------------------------------------------------------------

def test_monomial_to_eigen_examples():
    # z = H_1 + 6 H_0 for d = 3
    assert eb.monomial_to_eigen(3, ExactPoly([0, 1])) == [6, 1]
    assert eb.monomial_to_eigen(3, ExactPoly([1])) == [1]


@pytest.mark.parametrize("d", [3, 4])
def test_monomial_coeffs_are_abs_recurrence(d):
    for n in range(7):
        mono = ExactPoly([0] * n + [1])
        got = eb.monomial_to_eigen(d, mono)
        want = [abs(eb.recurrence_coefficient(d, n, k)) for k in range(n + 1)]
        assert got == want


@pytest.mark.parametrize("d", [3, 4])
def test_roundtrip_random_polys(d):
    rng = random.Random(20240 + d)
    for _ in range(12):
        deg = rng.randint(0, 8)
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(deg + 1)]
        p = ExactPoly(coeffs)
        back = eb.eigen_to_monomial(d, eb.monomial_to_eigen(d, p))
        assert back == p


# ---------------------------------------------------------------------------
# partial mass and radial operators
# ---------------------------------------------------------------------------

def test_partial_mass_goldens():
    assert eb.partial_mass_eigen(3, 3).coeffs == (
        -280, 28, Fraction(-2, 3), Fraction(1, 243))
    assert eb.partial_mass_eigen(4, 2).coeffs == (24, -2, Fraction(1, 32))
    assert eb.partial_mass_eigen(3, 0).coeffs == (Fraction(1, 3),)
    assert eb.partial_mass_eigen(4, 0).coeffs == (Fraction(1, 4),)


def test_radial_apply_basics():
    y2 = ExactPoly([0, 1], "y")
    for d in (3, 4):
        assert y2.laplacian(d + 2).coeffs == (2 * (d + 2),)
    y4 = ExactPoly([0, 0, 1], "y")
    assert y4.euler().coeffs == (0, 0, 4)
    with pytest.raises(ValueError):
        ExactPoly([1], "z").laplacian(5)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("n", range(7))
def test_partial_mass_eigenrelation(d, n):
    ell = eb.ell_of(d)
    ph = eb.partial_mass_eigen(d, n)
    resid = (ph.laplacian(d + 2)
             - Fraction(1, 2 * ell) * ph.euler()
             + Fraction(n, ell) * ph)
    assert resid.is_zero()


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("n", range(9))
def test_density_eigenrelation(d, n):
    alpha = eb.alpha_of(d)
    hy = eb.kummer_eigenpoly(d, n).to_y(2 * alpha)
    resid = hy.laplacian(d) - alpha * hy.euler() + 2 * n * alpha * hy
    assert resid.is_zero()


# ---------------------------------------------------------------------------
# nonlocal expansion and the constants
# ---------------------------------------------------------------------------

def test_nonlocal_goldens():
    got3 = eb.nonlocal_expand(3)
    assert got3.coeffs == (705600, -940800, 364560, -57792,
                           Fraction(12628, 3), Fraction(-416, 3), Fraction(5, 3))
    got4 = eb.nonlocal_expand(4)
    assert got4.coeffs == (9216, -5760, 1056, -70, Fraction(3, 2))


@pytest.mark.parametrize("d", [3, 4])
def test_nonlocal_identity_pipeline(d):
    assert eb.nonlocal_expand(d, n=0).coeffs == (1,)


def test_constants():
    assert eb.compute_B(3) == 39360
    assert eb.compute_B(4) == 576
    assert eb.compute_c(3) == Fraction(1, 118080)
    assert eb.compute_c(4) == Fraction(1, 288)


@pytest.mark.parametrize("d", [3, 4])
def test_c_closed_form_identity(d):
    ell = eb.ell_of(d)
    b = eb.compute_B(d)
    assert eb.compute_c(d) == Fraction(d) ** (ell + 1) / (b * (d + 2 * ell) * ell**ell)


@pytest.mark.parametrize("d", [3, 4])
def test_B_crosscheck_quadratic_projection(d):
    ell = eb.ell_of(d)
    phi = eb.partial_mass_eigen(d, ell)
    quadratic = d * phi * phi + Fraction(1, 2) * (phi * phi).euler()
    num = eb.inner_product(d, "rho", quadratic, phi)
    den = eb.inner_product(d, "rho", phi, phi)
    assert num / den == eb.compute_B(d)


@pytest.mark.parametrize("d", [3, 4])
def test_residual_null_projection(d):
    ell = eb.ell_of(d)
    p = eb.build_residual_poly(d)
    phi = eb.partial_mass_eigen(d, ell)
    assert eb.inner_product(d, "rho", p, phi) == 0


def test_residual_golden_rest():
    rest3 = eb.build_residual_poly(3) + 39360 * eb.partial_mass_eigen(3, 3)
    assert rest3.coeffs == (235200, -62720, Fraction(17360, 3),
                            Fraction(-19264, 81), Fraction(1148, 243), Fraction(-4, 243))
    rest4 = eb.build_residual_poly(4) + 576 * eb.partial_mass_eigen(4, 2)
    assert rest4.coeffs == (2304, -480, 33, Fraction(-1, 8))


def test_determinism():
    a = eb.nonlocal_expand(3)
    b = eb.nonlocal_expand(3)
    assert a == b and a.coeffs == b.coeffs


def test_dimension_rejection():
    for d in (2, 5, 6):
        with pytest.raises(eb.DimensionError):
            eb.ell_of(d)
