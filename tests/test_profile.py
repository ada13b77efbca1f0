
import numpy as np
import pytest

from ksblowup import eigenbasis as eb
from ksblowup import profile as pr


@pytest.fixture(scope="module", params=[3, 4])
def params(request):
    return pr.make_profile_params(request.param)


# ---------------------------------------------------------------------------
# Q
# ---------------------------------------------------------------------------

def test_q_at_origin(params):
    assert pr.q_of_xi(params, 0.0) == 1.0 / params.d


def test_q_residual_contract(params):
    xi = np.geomspace(1e-6, 1e6, 241)
    assert np.max(np.abs(pr.q_residual(params, xi))) <= 1e-13


def test_q_monotone_and_bounded(params):
    # strict decrease where the deficit is resolvable in double precision
    xi = np.geomspace(0.05, 1e3, 400)
    q = pr.q_of_xi(params, xi)
    assert np.all(np.diff(q) < 0)
    assert np.all(q > 0) and np.all(q <= 1.0 / params.d)
    # below that, the multiplicative deficit still carries the monotonicity
    xi_small = np.geomspace(1e-6, 0.05, 200)
    delta = pr.q_deficit(params, xi_small)
    assert np.all(np.diff(delta) > 0) and np.all(delta > 0)


def test_q_large_xi_limit(params):
    # oracle: bisection on the implicit equation over twelve decades of xi
    xi = np.geomspace(1e-6, 1e6, 241)
    t = params.c * xi ** (2 * params.ell)
    lo, hi = np.zeros_like(xi), np.full_like(xi, 1.0 / params.d)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = t * mid**params.ell + params.d * mid - 1.0 > 0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    np.testing.assert_allclose(pr.q_of_xi(params, xi), 0.5 * (lo + hi), rtol=1e-14, atol=0)
    # xi^2 Q -> c^(-1/ell)
    xi = 1e3
    assert xi**2 * pr.q_of_xi(params, xi) == pytest.approx(
        params.c ** (-1.0 / params.ell), rel=5e-3)


def test_q_ode_pointwise(params):
    xi = np.geomspace(1e-3, 1e3, 300)
    q = pr.q_of_xi(params, xi)
    qp = pr.q_prime(params, xi)
    resid = params.d * q * (q - 1.0 / params.d) + (q - 0.5) * xi * qp
    assert np.max(np.abs(resid)) < 1e-10


def test_q_prime_matches_finite_differences(params):
    h = 1e-5
    for xi0 in (0.3, 1.0, 3.0, 20.0):
        fd = (pr.q_of_xi(params, xi0 + h) - pr.q_of_xi(params, xi0 - h)) / (2 * h)
        assert pr.q_prime(params, xi0) == pytest.approx(fd, abs=1e-8)
    assert pr.q_prime(params, 0.0) == 0.0
    xi = np.geomspace(0.1, 100, 50)
    assert np.all(pr.q_prime(params, xi) < 0)


def test_q_second_matches_finite_differences(params):
    h = 1e-5
    for xi0 in (0.5, 2.0, 10.0):
        fd = (pr.q_prime(params, xi0 + h) - pr.q_prime(params, xi0 - h)) / (2 * h)
        assert pr.q_second(params, xi0) == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_q_deficit_taylor(params):
    ratio = pr.q_deficit(params, 1e-3) / 1e-3 ** (2 * params.ell)
    assert ratio == pytest.approx(params.c / params.d ** (params.ell + 1), rel=1e-9)


def test_q_rejects_bad_input(params):
    with pytest.raises(ValueError):
        pr.q_of_xi(params, -1.0)
    with pytest.raises(ValueError):
        pr.q_of_xi(params, np.inf)


def test_q_scalar_path_equals_array_path(params):
    xs = np.concatenate([np.linspace(0.0, 50.0, 20001), np.geomspace(1e-6, 1e4, 20001)])
    want = pr.q_of_xi(params, xs)
    got = np.array([pr.q_of_xi(params, float(x)) for x in xs])
    assert np.array_equal(got, want)
    for bad in (-1e-300, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            pr.q_of_xi(params, float(bad))


# ---------------------------------------------------------------------------
# F
# ---------------------------------------------------------------------------

def test_f_values(params):
    assert pr.f_of_xi(params, 0.0) == 1.0
    # small-xi coefficient: (1 - F)/xi^(2l) -> c (d + 2l)/d^(l+1)
    ratio = pr.f_deficit(params, 1e-3) / 1e-3 ** (2 * params.ell)
    want = params.c * (params.d + 2 * params.ell) / params.d ** (params.ell + 1)
    assert ratio == pytest.approx(want, rel=1e-9)
    # large xi: xi^2 F -> (d-2) c^(-1/l)
    assert 1e6 * pr.f_of_xi(params, 1e3) == pytest.approx(
        (params.d - 2) * params.c ** (-1.0 / params.ell), rel=5e-3)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_plateaus():
    spec = pr.CutoffSpec(K=2.0)
    xi = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    chi = pr.cutoff_chi(spec, xi)
    assert np.all(chi[:3] == 1.0)
    assert np.all(chi[4:] == 0.0)
    assert 0 < chi[3] < 1


def test_cutoff_monotone_and_c2():
    spec = pr.CutoffSpec(K=1.0)
    xi = np.linspace(0.5, 2.5, 2001)
    chi = pr.cutoff_chi(spec, xi)
    assert np.all(np.diff(chi) <= 0)
    h = xi[1] - xi[0]
    d1 = pr.cutoff_chi_d1(spec, xi)
    d2 = pr.cutoff_chi_d2(spec, xi)
    fd1 = np.gradient(chi, h)
    fd2 = np.gradient(d1, h)
    assert np.max(np.abs(d1[5:-5] - fd1[5:-5])) < 5e-3
    assert np.max(np.abs(d2[5:-5] - fd2[5:-5])) < 5e-2
    # continuity of the second derivative at the joints
    assert abs(pr.cutoff_chi_d2(spec, 1.0 + 1e-9)) < 1e-6
    assert abs(pr.cutoff_chi_d2(spec, 2.0 - 1e-9)) < 1e-6


def test_cutoff_spec_validation():
    with pytest.raises(ValueError):
        pr.CutoffSpec(K=0.0)
    # a NaN scale passes `K <= 0` and would silently zero every cutoff band
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="must be positive"):
            pr.CutoffSpec(K=bad)


# ---------------------------------------------------------------------------
# refined ansatz
# ---------------------------------------------------------------------------

def test_psi_at_origin_value():
    p = pr.make_profile_params(3)
    s = 50.0
    assert pr.psi(p, 0.0, s) == pytest.approx(1.0 / 3 + 280.0 / (39360.0 * s), rel=1e-12)


def test_psi_reduces_to_q_outside_cutoff(params):
    s = 60.0
    scale = s ** (1.0 / (2 * params.ell))
    y = np.array([2.0 * scale * 1.001, 3.0 * scale])
    xi = y / scale
    assert np.allclose(pr.psi(params, y, s), pr.q_of_xi(params, xi), rtol=0, atol=0)


def test_psi_split_is_exact(params):
    # psi is bitwise the float sum of the profile and the correction
    s = 47.0
    y = np.linspace(0, 30, 501)
    xi = y * s ** (-1.0 / (2 * params.ell))
    recombined = pr.q_of_xi(params, xi) + pr.psi_hat(params, y, s)
    assert np.array_equal(pr.psi(params, y, s), recombined)


def test_psi_fixed_point_limit(params):
    # s * (psi(1, s) - Q(s^(-1/(2l)))) -> -phi_tilde(1)/B
    phit1 = pr._even_eval(params.phit_coeffs, 1.0)
    for s in (1e3, 1e5):
        got = s * (pr.psi(params, 1.0, s) - pr.q_of_xi(params, s ** (-1.0 / (2 * params.ell))))
        # the subtraction reintroduces s * ulp(Q) of rounding, hence the tolerance
        assert got == pytest.approx(-phit1 / params.B, rel=1e-7)


def test_psi_rejects_bad_time(params):
    with pytest.raises(ValueError):
        pr.psi(params, 1.0, 0.0)
    with pytest.raises(ValueError):
        pr.psi_hat(params, 1.0, -2.0)


# ---------------------------------------------------------------------------
# ansatz residual (analytic) against independent finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [3, 4])
def test_ansatz_residual_fd_oracle(d):
    p = pr.make_profile_params(d)
    s = 77.3
    y = np.linspace(0, 40, 80001)
    h = y[1] - y[0]
    ps = pr.psi(p, y, s)
    vp = np.gradient(ps, h, edge_order=2)
    vpp = np.gradient(vp, h, edge_order=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = vpp + (d + 1) * np.where(y > 0, vp / y, 0.0)
    lap[0] = (d + 2) * 2 * (ps[1] - ps[0]) / h**2
    rhs = lap - 0.5 * y * vp - ps + d * ps**2 + y * ps * vp
    ds = 1e-4
    dpsi = (pr.psi(p, y, s + ds) - pr.psi(p, y, s - ds)) / (2 * ds)
    e_fd = rhs - dpsi
    e_an = pr.ansatz_residual(p, y, s)
    i = slice(2, -2)
    assert np.max(np.abs(e_fd[i] - e_an[i])) < 5e-7
    # time-derivative part agrees with its own finite difference
    dt_an = pr.ansatz_time_derivative(p, y, s)
    assert np.max(np.abs(dt_an - dpsi)) < 1e-8


@pytest.mark.parametrize("d", [3, 4])
def test_ansatz_residual_decimal_matches_double(d):
    # at s=50 the cutoff band and the large-xi profile are both sampled, and
    # double precision is accurate to ~1e-16 against terms of size ~1e-2
    p = pr.make_profile_params(d)
    y = np.linspace(0, 80, 2001)
    e_dec = pr.ansatz_residual_decimal(p, y, 50.0, digits=40)
    assert np.max(np.abs(e_dec - pr.ansatz_residual(p, y, 50.0))) < 1e-15
    assert np.max(np.abs(e_dec)) > 1e-3


@pytest.mark.parametrize("d", [3, 4])
def test_ansatz_residual_sup_scaling(d):
    # sup |E_hat| decays like s^(-1/ell) over a dyadic range
    p = pr.make_profile_params(d)
    y = np.linspace(0, 120, 40001)
    svals = np.array([50.0, 100.0, 200.0, 400.0])
    sups = [np.max(np.abs(pr.ansatz_residual(p, y, s))) for s in svals]
    slope = np.polyfit(np.log(svals), np.log(sups), 1)[0]
    assert slope == pytest.approx(-1.0 / p.ell, abs=0.12)


def test_asymptotic_mode_projections_match_exact_constants():
    """Far inside the asymptotic regime the normalized error projections
    converge to the exact residual-polynomial projections (d=4)."""
    from ksblowup.acceptance import ansatz_error_projections
    d = 4
    svals = np.array([2e4, 8e4])
    proj = ansatz_error_projections(d, svals)
    p_poly = eb.build_residual_poly(d)
    b = float(eb.compute_B(d))
    for k in (0, 1, 3):
        phk = eb.partial_mass_eigen(d, k)
        lead = float(eb.inner_product(d, "rho", p_poly, phk)
                     / eb.inner_product(d, "rho", phk, phk)) / b**2
        got = proj[-1, k] * svals[-1] ** 2
        assert got == pytest.approx(lead, rel=2e-3)
    # null mode carries no 1/s^2 content: s^2 * E_l -> 0, s^3 * E_l bounded
    assert abs(proj[-1, 2] * svals[-1] ** 2) < 1e-5
    assert abs(proj[-1, 2] * svals[-1] ** 3) < 0.1


# ---------------------------------------------------------------------------
# final profile
# ---------------------------------------------------------------------------

def test_final_profile_scaling_constant(params):
    r = np.geomspace(1e-4, 0.5, 40)
    vals = pr.final_profile(params, r) * r**2 / np.abs(np.log(r)) ** (1.0 / params.ell)
    assert np.allclose(vals, vals[0], rtol=1e-12)
    want = {3: (2 * 118080.0) ** (1.0 / 3), 4: 48.0}[params.d]
    assert vals[0] == pytest.approx(want, rel=1e-12)


def test_final_profile_domain(params):
    with pytest.raises(ValueError):
        pr.final_profile(params, 1.5)
    with pytest.raises(ValueError):
        pr.final_profile(params, 0.0)
