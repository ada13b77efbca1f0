
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


def test_q_of_a_float_is_a_float_equal_to_the_array_path(params):
    xs = np.concatenate([np.linspace(0.0, 50.0, 20001), np.geomspace(1e-6, 1e4, 20001)])
    want = pr.q_of_xi(params, xs)
    got = [pr.q_of_xi(params, float(x)) for x in xs]
    assert all(type(q) is float for q in got)
    assert np.array(got).tobytes() == want.tobytes()
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


def _whole_grid_ansatz(p, y, s):
    """The reference: `_ansatz_terms` on every node, with every jet of Q,
    phi_tilde and chi."""
    y = np.asarray(y, float)
    sm = s ** (-1.0 / (2 * p.ell))
    xi = y * sm
    q, _, qp, _, lap_q = pr._profile(p, xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        over_y = np.where(y > 0, 1.0 / y, 0.0)
        return pr._ansatz_terms(
            pr._per_s(p.d, p.ell, s, 1.0 / (p.B * s), sm), y, xi, over_y, (q, qp, lap_q),
            (pr._even_eval(p.phit_coeffs, y), pr._even_eval_deriv(p.phit_coeffs, y),
             pr._even_eval(p.phit_lap_coeffs, y)),
            (pr.cutoff_chi(pr.UNIT_CUTOFF, xi), pr.cutoff_chi_d1(pr.UNIT_CUTOFF, xi),
             pr.cutoff_chi_d2(pr.UNIT_CUTOFF, xi)))


def _asymptotic_s(d):
    """Criterion 8's tier-1 window {1, 2, 4, 8} (5 sqrt(2l(d+1)))^(2l)."""
    ell = eb.ell_of(d)
    return (5.0 * np.sqrt(2 * ell * (d + 1))) ** (2 * ell) * np.array([1.0, 2.0, 4.0, 8.0])


@pytest.mark.parametrize("d", [3, 4])
def test_ansatz_on_the_cutoff_support_has_the_bits_of_the_whole_grid_formula(d):
    # psi_hat's terms, formed only where xi < 2K, leave both outputs byte-equal,
    # zeros' signs included, on the flat-norm grid of criterion 8 at its
    # asymptotic and pinned s, on grids wholly inside and wholly outside the
    # support, and on nodes at xi = 0, 1, 2 exactly (sm = 1/2 at s = 64 or 16)
    from ksblowup.acceptance import CRITERION_8_WINDOWS
    p = pr.make_profile_params(d)
    cases = [(np.linspace(0.0, 200.0, 100001), s)
             for s in (*_asymptotic_s(d), *CRITERION_8_WINDOWS[d])]
    for s in (50.0, 1e6):
        a = s ** (1.0 / (2 * p.ell))
        cases += [(np.linspace(0.0, 1.999 * a, 2001), s), (np.linspace(2 * a, 60 * a, 2001), s)]
    s_half = 64.0 if d == 3 else 16.0
    assert s_half ** (-1.0 / (2 * p.ell)) == 0.5
    exact = np.array([0.0, 1.0, 1.5, 2.0, np.nextafter(2.0, 0.0), 3.0, 4.0, 1e3])
    cases += [(exact, 1.0), (2.0 * exact, s_half)]
    # Q^(l+1) underflows from y ~ 1e41 (d=3) and 1e55 (d=4): the error is a zero
    cases.append((np.geomspace(1.0, 1e49 if d == 3 else 1e75, 501), 50.0))
    for y, s in cases:
        got, want = pr._ansatz(p, y, s), _whole_grid_ansatz(p, y, s)
        for g, w in zip(got, want):
            assert g.view(np.int64).tobytes() == w.view(np.int64).tobytes(), (d, s, y[-1])
    zeros = pr.ansatz_residual(p, cases[-1][0], 50.0) == 0.0
    assert zeros.any() and not np.signbit(pr.ansatz_residual(p, cases[-1][0], 50.0)[zeros]).any()
    # a scalar y gives a scalar with the bits of the same node in an array (at
    # d=4, s=50, y=7.626959316705246, a 0-d Q**3 once took libm's pow instead)
    for y in (0.0, 3.0, 7.626959316705246, 40.0):
        got = pr.ansatz_residual(p, y, 50.0)
        assert type(got) is np.float64
        assert got.tobytes() == pr.ansatz_residual(p, np.array([y]), 50.0).tobytes()


def test_ansatz_past_the_support_reads_the_profile_where_phi_tilde_overflows():
    # at d=3, s = 1e160, phi_tilde ~ -(2/3) y^4 overflows from y ~ 1.3e77 while
    # t = c xi^6 stays finite: the whole-grid formula reads NaN (inf * 0) there
    p = pr.make_profile_params(3)
    y = np.array([1e76, 5e77])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_whole_grid_ansatz(p, y, 1e160)[1][1])
    assert np.isfinite(pr.ansatz_residual(p, y, 1e160)).all()


def _numpy_ansatz(p, y, s):
    """`_ansatz` with no compiled pass: the NumPy path, the reference."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pr, "_library", lambda: None)
        return pr._ansatz(p, y, s)


def _same_bits(got, want):
    assert [np.shape(g) for g in got] == [np.shape(w) for w in want]
    assert [np.asarray(g).tobytes() for g in got] == [np.asarray(w).tobytes() for w in want]


@pytest.mark.skipif(pr._library() is None, reason="no compiled ansatz pass")
@pytest.mark.parametrize("d", [3, 4])
def test_compiled_ansatz_has_the_bits_of_the_numpy_path(d):
    # d(psi)/ds and the error, byte for byte, on criterion 8's Gauss rules and
    # flat-norm grid at its pinned and tier-1 windows, and there on grids the
    # compiled path takes in blocks of _BLOCK nodes: one node short of a
    # block, one block, one node over, and two blocks and a last one of 1..17
    # nodes; on nodes at xi = 0, 1 and 2 exactly (sm = 1/2 at s = 64 or 16);
    # at s = 1e160, where phi_tilde overflows past the support; for a scalar,
    # a 2-D y (one across blocks) and an empty y
    from ksblowup import acceptance as ac
    p, block = pr.make_profile_params(d), pr._BLOCK
    grids = [np.linspace(0.0, 200.0, n) for n in (
        block - 1, block, block + 1, *(2 * block + k for k in range(1, 18)), 100001)]
    cases = []
    for s in (*ac.CRITERION_8_WINDOWS[d], *_asymptotic_s(d)):
        cases += [(ac._kink_gauss_rule(s ** (1.0 / (2 * p.ell)))[0], s)] + [(y, s) for y in grids]
    s_half = 64.0 if d == 3 else 16.0
    exact = np.array([0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 1.5, np.nextafter(2.0, 0.0), 2.0,
                      2.5, 40.0])
    cases += [(2.0 * exact, s_half), (exact, 1.0), (np.linspace(0.0, 80.0, 4001), 3.7),
              (np.array([0.0, 1e39, 1e76, 5e77]), 1e160), (7.0, 50.0), (0.0, 50.0),
              (np.linspace(0.0, 12.0, 24).reshape(4, 6), 50.0), (np.zeros((0, 3)), 50.0),
              (np.array([]), 50.0), (np.linspace(0.0, 60.0, 3 * (block + 3)).reshape(3, -1), 50.0)]
    for y, s in cases:
        got = pr._ansatz(p, y, s)
        _same_bits(got, _numpy_ansatz(p, y, s))
        assert np.isfinite(got).all()
        assert all(type(g) is np.float64 for g in got) == (np.ndim(y) == 0)
        _same_bits((pr.ansatz_residual(p, y, s), pr.ansatz_time_derivative(p, y, s),
                    pr.selfsimilar_rhs_of_ansatz(p, y, s)), (got[1], got[0], got[1] + got[0]))


@pytest.mark.parametrize("d", [3, 4])
def test_compiled_and_numpy_ansatz_raise_the_same_errors(d, monkeypatch):
    # a negative y, a t that is not finite and a nonpositive s raise before
    # either path runs, with the same message; so do a negative y and a t that
    # is not finite in the last of three compiled blocks, and with a t that is
    # not finite in the first block and a negative y in the last, the whole
    # grid's sign test goes first
    p = pr.make_profile_params(d)
    cases = [([-1.0, 2.0], 50.0), (-1e-3, 50.0), ([0.0, 1e300], 1.0), ([np.nan], 50.0),
             ([1.0, np.inf], 50.0), ([1.0], 0.0)]
    for bad in ({-1: -1.0}, {-1: 1e300}, {-1: np.nan}, {-1: np.inf}, {3: np.inf, -2: -1.0}):
        y = np.linspace(0.0, 200.0, 2 * pr._BLOCK + 5)
        y[list(bad)] = list(bad.values())
        cases.append((y, 1.0))

    def errors():
        out = []
        for y, s in cases:
            with pytest.raises(ValueError) as raised, np.errstate(over="ignore"):
                pr.ansatz_residual(p, y, s)
            out.append(str(raised.value))
        return out

    compiled = errors()
    monkeypatch.setattr(pr, "_library", lambda: None)
    assert errors() == compiled
    assert compiled == ["similarity coordinate must be nonnegative"] * 2 + [
        "similarity coordinate out of range (t not finite)"] * 3 + [
        "self-similar time must be positive", "similarity coordinate must be nonnegative"] + [
        "similarity coordinate out of range (t not finite)"] * 3 + [
        "similarity coordinate must be nonnegative"]


@pytest.mark.skipif(pr._library() is None, reason="no compiled ansatz pass")
@pytest.mark.parametrize("d", [3, 4])
def test_ansatz_residual_on_criterion_8_grid_keeps_its_temporaries_small(d):
    # tracemalloc sees NumPy's buffers: the error on the 100001-node flat grid
    # peaks below its output and 1 MiB, since its temporaries are one block's
    # and no d(psi)/ds is kept for the whole grid
    import tracemalloc
    p, y = pr.make_profile_params(d), np.linspace(0.0, 200.0, 100001)
    pr.ansatz_residual(p, y, 400.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = pr.ansatz_residual(p, y, 400.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 2**20


def test_ansatz_without_a_compiler_takes_the_numpy_path(monkeypatch):
    # `_library` giving None runs `_numpy_ansatz`; with a library it does not
    p = pr.make_profile_params(4)
    compiled = pr._library() is not None
    calls = []
    numpy_path = pr._numpy_ansatz
    monkeypatch.setattr(pr, "_numpy_ansatz", lambda *a: calls.append(1) or numpy_path(*a))
    y = np.linspace(0.0, 20.0, 101)
    first = pr.ansatz_residual(p, y, 50.0)
    assert len(calls) == (not compiled)
    monkeypatch.setattr(pr, "_library", lambda: None)
    assert pr.ansatz_residual(p, y, 50.0).tobytes() == first.tobytes()
    assert len(calls) == 1 + (not compiled)


@pytest.mark.parametrize("d", [3, 4])
def test_decimal_ansatz_takes_y_as_the_double_one_does(d):
    # a negative y raises the double path's error; a scalar gives a scalar
    # with the bits of the same node in an array, a 2-D y its own shape with
    # the bits of its flat nodes, and an empty y an empty array
    p = pr.make_profile_params(d)
    for y in ([-1.0, 2.0], -0.5):
        with pytest.raises(ValueError, match="similarity coordinate must be nonnegative"):
            pr.ansatz_residual_decimal(p, y, 50.0, digits=30)
        with pytest.raises(ValueError, match="similarity coordinate must be nonnegative"):
            pr.ansatz_residual(p, y, 50.0)
    for y in (0.0, 2.0, 7.5):
        got = pr.ansatz_residual_decimal(p, y, 50.0, digits=30)
        assert type(got) is np.float64
        assert got.tobytes() == pr.ansatz_residual_decimal(p, [y], 50.0, digits=30).tobytes()
    y = np.linspace(0.0, 12.0, 12).reshape(3, 4)
    got = pr.ansatz_residual_decimal(p, y, 50.0, digits=30)
    assert got.shape == (3, 4)
    assert got.tobytes() == pr.ansatz_residual_decimal(p, y.ravel(), 50.0, digits=30).tobytes()
    assert abs(got - pr.ansatz_residual(p, y, 50.0)).max() < 1e-15
    assert pr.ansatz_residual_decimal(p, np.zeros((0, 2)), 50.0).shape == (0, 2)


@pytest.mark.parametrize("d", [3, 4])
def test_decimal_ansatz_on_the_cutoff_support_keeps_its_bits(d, monkeypatch):
    # with the support's end moved to infinity, the decimal loop forms every
    # term at every node, as before; the shortcut past xi = 2K leaves its
    # output, and criterion 8's decimal projections, byte-equal
    from ksblowup import acceptance as ac
    p = pr.make_profile_params(d)
    svals = (50.0, 400.0, _asymptotic_s(d)[0])
    cases = []
    for s in svals:
        a = s ** (1.0 / (2 * p.ell))
        cases += [(ac._kink_gauss_rule(a)[0], s),
                  (np.array([0.0, a, 1.5 * a, 2 * a, np.nextafter(2 * a, 0.0), 5 * a, 80.0]), s)]
    cases.append((2.0 * np.array([0.0, 1.0, 2.0, 3.0]), 64.0 if d == 3 else 16.0))

    def outputs():
        out = [pr.ansatz_residual_decimal(p, y, s, digits=digits)
               for y, s in cases for digits in (30, 50)]
        return out + [ac.ansatz_error_projections(d, svals, digits=30)]

    got = outputs()
    monkeypatch.setattr(pr, "_CUTOFF_END", np.inf)
    for g, w in zip(got, outputs(), strict=True):
        assert g.tobytes() == w.tobytes()


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
