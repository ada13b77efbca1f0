import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from ksblowup import diagnostics as dg
from ksblowup import eigenbasis as eb
from ksblowup import profile as pr
from ksblowup import sim


# ---------------------------------------------------------------------------
# grid and config validation
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(sim.ConfigError):
        sim.Grid(np.linspace(1.0, 2.0, 32))           # does not start at 0
    with pytest.raises(sim.ConfigError):
        sim.Grid(np.zeros(20))
    with pytest.raises(sim.ConfigError):
        sim.Grid.uniform(8, 10.0)                      # too few nodes
    g = sim.Grid.geometric(64, 30.0, 1.02)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == pytest.approx(30.0)
    assert np.all(np.diff(np.diff(g.nodes)) > 0)


def test_config_validation():
    with pytest.raises(sim.ConfigError):
        sim.SimConfig(d=4, dvec=(0.1,))                # needs ell = 2 entries
    with pytest.raises(sim.ConfigError):
        sim.SimConfig(d=4, dvec=(0.5, 1.5))            # outside the box
    with pytest.raises(sim.ConfigError):
        sim.SimConfig(d=4, frame="physical")           # y_max required
    for bump_K in (0.0, -4.0):
        with pytest.raises(sim.ConfigError):
            sim.SimConfig(d=4, bump_K=bump_K)          # cutoff scale must be positive
    with pytest.raises(eb.DimensionError):
        sim.SimConfig(d=5)
    cfg = sim.SimConfig(d=4, s0=50.0, horizon=10.0, K=10.0)
    assert cfg.y_max == pytest.approx(40.0 * 60.0**0.25)
    assert cfg.boundary == "profile"


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_steady_states():
    g = sim.Grid.uniform(64, 12.0)
    zero = sim.RadialState("selfsimilar", 50.0, np.zeros(65), g, 4)
    assert np.max(np.abs(sim.rhs(zero))) == 0.0
    steady = sim.RadialState("selfsimilar", 50.0, np.full(65, 0.25), g, 4)
    assert np.max(np.abs(sim.rhs(steady))) < 1e-14
    phys_zero = sim.RadialState("physical", 0.0, np.zeros(65), g, 4)
    assert np.max(np.abs(sim.rhs(phys_zero))) == 0.0


def test_rhs_frame_guards():
    g = sim.Grid.uniform(32, 10.0)
    st = sim.RadialState("selfsimilar", 1.0, np.zeros(33), g, 4)
    with pytest.raises(sim.ConfigError):
        sim.Stepper(g, 4, "physical", "neumann").step(st, 1e-3)
    bad = sim.RadialState("selfsimilar", 1.0, np.full(33, np.nan), g, 4)
    with pytest.raises(sim.StateCorruptionError):
        sim.rhs(bad)


@pytest.mark.parametrize("d", [3, 4])
def test_rhs_matches_analytic_on_smooth_profile(d):
    """Spatial convergence: the discrete flow applied to the pure profile
    matches its analytic image at second order on the smooth field Q."""
    p = pr.make_profile_params(d)
    s = 50.0
    errs = []
    for n in (1000, 2000, 4000):
        g = sim.Grid.uniform(n, 40.0)
        y = g.nodes
        xi = y * s ** (-1.0 / (2 * p.ell))
        state = sim.RadialState("selfsimilar", s, pr.q_of_xi(p, xi), g, d)
        got = sim.rhs(state)
        # analytic: the first-order profile equation kills everything but
        # the diffusion term
        sm = s ** (-1.0 / p.ell)
        qp = pr.q_prime(p, xi)
        qpp = pr.q_second(p, xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = sm * (qpp + np.where(xi > 0, (d + 1) * qp / xi, 0.0))
        errs.append(np.max(np.abs(got - want)[1:-2]))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_rhs_of_ansatz_is_generated_error():
    d = 4
    p = pr.make_profile_params(d)
    s = 50.0
    g = sim.Grid.uniform(4000, 60.0)
    y = g.nodes
    state = sim.RadialState("selfsimilar", s, pr.psi(p, y, s), g, d)
    got = sim.rhs(state)
    want = pr.selfsimilar_rhs_of_ansatz(p, y, s)
    assert np.max(np.abs(got - want)[1:-2]) < 5e-6
    # sup scale of the generated error
    assert np.max(np.abs(want)) < 3 * s ** (-1.0 / p.ell)


def test_origin_regularity():
    d = 4
    p = pr.make_profile_params(d)
    g = sim.Grid.uniform(512, 30.0)
    state = sim.RadialState("selfsimilar", 50.0, pr.psi(p, g.nodes, 50.0), g, d)
    r = sim.rhs(state)
    assert np.all(np.isfinite(r))
    # even field: first interior derivative vanishes at the origin
    assert abs(state.values[1] - state.values[0]) < 1e-4


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [3, 4])
def test_steady_state_preserved(d):
    g = sim.Grid.uniform(64, 20.0)
    state = sim.RadialState("selfsimilar", 50.0, np.full(65, 1.0 / d), g, d)
    stepper = sim.Stepper(g, d, "selfsimilar", "neumann")
    for _ in range(10000):
        state = stepper.step(state, 1e-3)
    assert np.max(np.abs(state.values - 1.0 / d)) < 1e-10


def _constant_error(dt, v0=0.1, sigma=1.0, d=4):
    g = sim.Grid.uniform(32, 10.0)
    state = sim.RadialState("selfsimilar", 1.0, np.full(33, v0), g, d)
    stepper = sim.Stepper(g, d, "selfsimilar", "neumann")
    for _ in range(int(round(sigma / dt))):
        state = stepper.step(state, dt)
    exact = 1.0 / (d + (1.0 / v0 - d) * math.exp(sigma))
    return np.max(np.abs(state.values - exact))


def test_constant_field_closed_form():
    assert _constant_error(1e-4) < 1e-6


def test_temporal_order_first():
    e1, e2 = _constant_error(2e-4), _constant_error(1e-4)
    assert e1 / e2 == pytest.approx(2.0, abs=0.3)


def test_physical_constant_blowup_ode():
    # spatially constant v0: v' = d v^2 blows up at t = 1/(d v0)
    d, v0 = 4, 0.1
    g = sim.Grid.uniform(32, 10.0)
    state = sim.RadialState("physical", 0.0, np.full(33, v0), g, d)
    stepper = sim.Stepper(g, d, "physical", "neumann")
    dt = 1e-5
    t_blow = 1.0 / (d * v0)
    while state.time < 0.9 * t_blow:
        state = stepper.step(state, dt)
    exact = 1.0 / (1.0 / v0 - d * state.time)
    assert np.max(np.abs(state.values - exact)) / exact < 1e-3


def test_step_guards():
    g = sim.Grid.uniform(32, 10.0)
    state = sim.RadialState("selfsimilar", 1.0, np.zeros(33), g, 4)
    with pytest.raises(sim.ConfigError):
        sim.Stepper(g, 4, "selfsimilar", "neumann").step(state, -1.0)
    with pytest.raises(sim.ConfigError):
        sim.Stepper(g, 4, "physical", "profile")


def test_step_rejects_other_grid_and_dimension():
    stepper = sim.Stepper(sim.Grid.uniform(32, 10.0), 4, "physical", "neumann")
    cases = [
        sim.RadialState("physical", 0.0, np.zeros(33), sim.Grid.uniform(32, 20.0), 4),
        sim.RadialState("physical", 0.0, np.zeros(33), stepper.grid, 3),
        sim.RadialState("physical", 0.0, np.zeros(65), sim.Grid.uniform(64, 10.0), 4),
    ]
    for state in cases:
        with pytest.raises(sim.ConfigError):
            stepper.step(state, 1e-3)
    # an equal grid built apart is accepted
    twin = sim.RadialState("physical", 0.0, np.zeros(33), sim.Grid.uniform(32, 10.0), 4)
    assert np.array_equal(stepper.step(twin, 1e-3).values, np.zeros(33))


def _reference_step(stepper, state, dt):
    """The step written out from the nodes alone: the textbook nonuniform
    Laplacian and advection stencils, the Crank-Nicolson matrix in
    `solve_banded`'s (1, 1) band layout, and the array path of Q."""
    y, v, d, sigma = state.grid.nodes, state.values, state.d, sim.FRAME_SIGMA[state.frame]
    n = len(y)
    hm, hp = y[1:-1] - y[:-2], y[2:] - y[1:-1]
    lo, di, up = np.zeros(n), np.zeros(n), np.zeros(n)
    a2m, a2p = 2.0 / (hm * (hm + hp)), 2.0 / (hp * (hm + hp))
    denom = hm * hp * (hm + hp)
    a1m, a1p = -hp * hp / denom, hm * hm / denom
    coef = (d + 1) / y[1:-1]
    lo[1:-1] = a2m + coef * a1m
    up[1:-1] = a2p + coef * a1p
    di[1:-1] = -(a2m + a2p) + coef * (-a1m - a1p)
    di[0] = -2.0 * (d + 2) / (y[1] - y[0]) ** 2
    up[0] = 2.0 * (d + 2) / (y[1] - y[0]) ** 2
    lap = di * v
    lap[:-1] += up[:-1] * v[1:]
    lap[1:] += lo[1:] * v[:-1]

    a = (v - 0.5 * sigma) * y
    fwd, bwd = np.zeros(n), np.zeros(n)
    fwd[:-1] = (v[1:] - v[:-1]) / (y[1:] - y[:-1])
    bwd[1:] = fwd[:-1]
    upw = np.where(a > 0, fwd, bwd)
    upw[-1], upw[0] = bwd[-1], 0.0
    cen = np.zeros(n)
    cen[1:-1] = (hm * hm * v[2:] - (hm * hm - hp * hp) * v[1:-1] - hp * hp * v[:-2]) / denom
    cen[-1] = bwd[-1]
    h = np.empty(n)
    h[1:] = y[1:] - y[:-1]
    h[0] = h[1]
    drift = a * np.where(np.abs(a) * h <= 2.0, cen, upw)

    b = v + 0.5 * dt * lap + dt * (drift + (d * v * v - sigma * v))
    if stepper.boundary == "neumann":
        b[-1] = 0.0
    else:
        xi_edge = y[-1] * (state.time + dt) ** (-1.0 / (2 * stepper.params.ell))
        b[-1] = pr.q_of_xi(stepper.params, np.array([xi_edge]))[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = -0.5 * dt * up[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * di
    ab[2, :-1] = -0.5 * dt * lo[1:]
    ab[1, -1] = 1.0
    ab[2, -2] = -1.0 if stepper.boundary == "neumann" else 0.0
    return solve_banded((1, 1), ab, b)


@pytest.mark.parametrize("grid, frame, boundary", [
    (sim.Grid.uniform(32, 10.0), "physical", "neumann"),
    (sim.Grid.uniform(2048, 110.0), "selfsimilar", "profile"),
    (sim.Grid.geometric(128, 30.0, 1.03), "physical", "neumann"),
    (sim.Grid.geometric(128, 30.0, 1.03), "selfsimilar", "profile"),
])
def test_step_equals_reference_kernel(grid, frame, boundary):
    # the precomputed stencil and the once-per-dt factorization change no bit
    rng = np.random.default_rng(7)
    t0 = 50.0 if frame == "selfsimilar" else 0.0
    for d in (3, 4):
        stepper = sim.Stepper(grid, d, frame, boundary)
        for _ in range(5):
            state = sim.RadialState(frame, t0, 0.3 * rng.random(len(grid.nodes)), grid, d)
            for dt in (1e-3, 2.5e-4, 1e-3):            # refactor, refactor back
                want = _reference_step(stepper, state, dt)
                assert np.array_equal(stepper.step(state, dt).values, want)


def test_stretched_grid_stepper_and_rhs():
    # geometric spacing: constants preserved and the nonuniform stencils
    # stay second order on the smooth profile
    g = sim.Grid.geometric(128, 30.0, 1.03)
    st = sim.RadialState("physical", 0.0, np.zeros(129), g, 4)
    stepper = sim.Stepper(g, 4, "physical", "neumann")
    for _ in range(500):
        st = stepper.step(st, 1e-4)
    assert np.max(np.abs(st.values)) == 0.0
    p = pr.make_profile_params(4)
    s = 50.0
    errs = []
    for n in (1000, 2000):
        g2 = sim.Grid.geometric(n, 40.0, 1.0 + 2.0 / n)
        y = g2.nodes
        xi = y * s**-0.25
        state = sim.RadialState("selfsimilar", s, pr.q_of_xi(p, xi), g2, 4)
        got = sim.rhs(state)
        qp, qpp = pr.q_prime(p, xi), pr.q_second(p, xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = s**-0.5 * (qpp + np.where(xi > 0, 5 * qp / xi, 0.0))
        errs.append(np.max(np.abs(got - want)[1:-2]))
    assert errs[1] < errs[0] / 3.0


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_transform_constant():
    y = np.linspace(0, 30, 3001)
    w = sim.transform(np.full_like(y, 0.25), y, 4, "w")
    assert np.max(np.abs(w - 1.0)) < 1e-12


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_transform_eigenfunction_relation(d, n):
    # the partial-mass eigenfunction maps to the density eigenfunction
    y = np.linspace(0, 30, 6001)
    ph = eb.partial_mass_eigen(d, n).evalf(y)
    w = sim.transform(ph, y, d, "w")
    hy = eb.kummer_eigenpoly(d, n).to_y(2 * eb.alpha_of(d)).evalf(y)
    scale = np.abs(hy) + 1.0
    assert np.max(np.abs(w - hy) / scale) < 5e-4


def test_transform_profile_relation():
    d = 4
    p = pr.make_profile_params(d)
    y = np.linspace(0, 30, 6001)
    s = 50.0
    xi = y * s ** (-0.25)
    w = sim.transform(pr.q_of_xi(p, xi), y, d, "w")
    assert np.max(np.abs(w - pr.f_of_xi(p, xi))[2:-2]) < 1e-7


def test_transform_roundtrips():
    y = np.linspace(0, 30, 6001)
    ph = eb.partial_mass_eigen(4, 2).evalf(y)
    w = sim.transform(ph, y, 4, "w")
    back = sim.transform(w, y, 4, "v", frm="w")
    assert np.max(np.abs(back - ph) / (np.abs(ph) + 1.0)) < 2e-4
    m = sim.transform(ph, y, 4, "m")
    assert np.allclose(sim.transform(m, y, 4, "v", frm="m")[1:], ph[1:])
    with pytest.raises(sim.ConfigError):
        sim.transform(ph, y, 4, "q")


def test_partial_mass_monotone_for_positive_density():
    d = 4
    p = pr.make_profile_params(d)
    y = np.linspace(0, 40, 4001)
    v = pr.psi(p, y, 50.0)
    w = sim.transform(v, y, d, "w")
    assert np.min(w) > 0                       # density stays positive here
    m = sim.transform(w, y, d, "m", frm="w")
    assert np.all(np.diff(m) >= 0)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_make_initial_data_zero_perturbation_is_ansatz():
    cfg = sim.SimConfig(d=4, n=256, s0=50.0, horizon=1.0)
    state = sim.make_initial_data(cfg)
    p = pr.make_profile_params(4)
    assert np.array_equal(state.values, pr.psi(p, state.grid.nodes, 50.0))


def test_make_initial_data_cutoff_support_error():
    with pytest.raises(sim.ConfigError):
        cfg = sim.SimConfig(d=4, n=64, y_max=3.0, s0=50.0, horizon=1.0)
        sim.make_initial_data(cfg)
    # 2 s0^(1/4) = 5.3 < y_max < 8 s0^(1/4) = 21.3: the unit cutoff fits, the
    # bump_K = 4 cutoff does not
    cfg = sim.SimConfig(d=4, n=64, y_max=10.0, s0=50.0, horizon=1.0, dvec=(0.1, 0.1))
    sim.make_initial_data(cfg)
    with pytest.raises(sim.ConfigError):
        sim.make_initial_data(replace(cfg, bump_K=4.0))


def test_make_initial_data_mode_projection_large_s0():
    # at large s0 the cutoff leaves the weighted bulk and the projections
    # approach A d_k / s0^2 with an exponentially small remainder
    d, ell = 4, 2
    s0, A = 4.0e4, 20.0
    dvec = (0.3, -0.25)
    cfg = sim.SimConfig(d=d, n=4096, y_max=80.0, s0=s0, horizon=1.0,
                        A=A, dvec=dvec)
    state = sim.make_initial_data(cfg)
    ctx = dg.DiagnosticsContext(d=d, y=state.grid.nodes, K=10.0)
    p = pr.make_profile_params(d)
    eps_hat = state.values - pr.psi(p, state.grid.nodes, s0)
    proj = ctx.project_all(eps_hat)
    for k in range(ell):
        assert proj[k] == pytest.approx(A * dvec[k] / s0**2, rel=1e-6)
    for k in range(ell, 2 * ell):
        assert abs(proj[k]) < 1e-3 * A / s0**2


def test_make_initial_data_outer_part_vanishes():
    d = 4
    s0 = 50.0
    cfg = sim.SimConfig(d=d, n=2048, s0=s0, horizon=1.0, A=20.0, dvec=(0.5, 0.5))
    state = sim.make_initial_data(cfg)
    ctx = dg.DiagnosticsContext(d=d, y=state.grid.nodes, K=2.0)
    p = pr.make_profile_params(d)
    eps = state.values - pr.q_of_xi(p, state.grid.nodes * s0 ** (-0.25))
    o0, o1, o2 = dg.outer_norms(eps, ctx, s0)
    assert o0 == 0.0 and o1 == 0.0 and o2 == 0.0


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def test_run_steady_state_quiet():
    # a run started at the constant steady state never moves: every recorded
    # slice carries the same measurements and the field stays at 1/d
    cfg = sim.SimConfig(d=4, n=256, s0=50.0, horizon=1.0, cadence=0.25,
                        boundary="neumann", init="steady", A=20.0,
                        escape_factor=np.inf)
    res = sim.run(cfg)
    assert res.verdict == "completed"
    # the field itself does not move; the recorded coefficients vary only
    # through the slow s-dependence of the reference ansatz
    assert np.max(np.abs(res.final_state.values - 0.25)) < 1e-10
    first = res.records[0]
    for rec in res.records:
        assert abs(rec.sup_v - 0.25) < 1e-10
        assert np.allclose(rec.coefficients, first.coefficients, rtol=0.05)


def test_run_unperturbed_growth_rates():
    # growing mode rate ~ 1, null mode stays small, run escapes via l2rho
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=5.0, cadence=0.1,
                        A=20.0, escape_factor=np.inf, blowup_sup=50.0)
    res = sim.run(cfg)
    s, c = res.coefficient_table()
    assert res.verdict == "completed"
    mask = (s >= 52.0) & (s <= 55.0)
    rate = np.polyfit(s[mask], np.log(np.abs(c[mask, 0])), 1)[0]
    assert rate == pytest.approx(1.0, abs=0.25)
    assert np.max(np.abs(c[:, 2])) < 20 * np.log(55.0) / 50.0**2


def test_run_escape_verdict_labeled():
    cfg = sim.SimConfig(d=4, n=512, s0=50.0, horizon=5.0, cadence=0.25, A=20.0)
    res = sim.run(cfg)
    assert res.verdict.startswith("escaped:")
    assert res.exit_time < 55.0


def test_run_blowup_detection():
    # large constant initial data in the physical frame grows without bound
    g = sim.Grid.uniform(64, 10.0)
    cfg = sim.SimConfig(d=4, frame="physical", n=64, y_max=10.0, s0=0.0,
                        horizon=10.0, cadence=0.01, dt=1e-3,
                        init=np.full(65, 2.0), track_bounds=False)
    res = sim.run(cfg)
    assert res.verdict == "blowup"


def test_run_physical_blowup_guard():
    # v' = 4 v^2 from v0 = 0.1 blows up at T = 2.5; the explicit terms lag the
    # exact growth, so the discrete field first passes the limit 10 at the
    # record t = 2.51 and would overflow (sup ~ 7e153) at t = 2.534
    cfg = sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=0.0,
                        horizon=3.0, cadence=0.01, init=np.full(33, 0.1),
                        track_bounds=False)
    res = sim.run(cfg)
    assert res.verdict == "blowup"
    assert res.exit_time < 2.5 + 1.5 * cfg.cadence
    sup = np.max(np.abs(res.final_state.values))
    assert np.isfinite(sup) and 10.0 < sup < 100.0
    # the guard fires at the first record past the limit (w = d v here)
    assert res.sup_w[-2] / 4 <= 10.0 < res.sup_w[-1] / 4


@pytest.mark.parametrize("t0", [100.0, 1000.0])
def test_run_fixed_dt_lands_on_record_times(monkeypatch, t0):
    # a late start time makes the float sum of the steps drift from the
    # record times by more than 1e-12 within a few thousand steps
    dts = []
    step = sim.Stepper.step

    def counting_step(self, state, dt):
        dts.append(dt)
        return step(self, state, dt)

    monkeypatch.setattr(sim.Stepper, "step", counting_step)
    dt, horizon, cadence = 1e-3, 2.0, 0.01
    cfg = sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=t0,
                        horizon=horizon, cadence=cadence, dt=dt,
                        init=np.full(33, 0.1), track_bounds=False)
    res = sim.run(cfg)
    assert res.verdict == "completed"
    assert len(dts) == round(horizon / dt)
    assert min(dts) > dt / 2
    assert len(res.times) == round(horizon / cadence) + 1


def test_run_deterministic_replay(tmp_path):
    cfg = sim.SimConfig(d=4, n=384, s0=50.0, horizon=1.0, cadence=0.25,
                        A=20.0, escape_factor=np.inf)
    res1 = sim.run(cfg)
    res2 = sim.run(cfg)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    res1.write_timeseries(f1, 2)
    res2.write_timeseries(f2, 2)
    assert f1.read_bytes() == f2.read_bytes()


def test_csv_header_shape():
    assert sim.csv_header(2) == ("s,eps0,eps1,eps2,eps3,tilde_l2rho,"
                                 "flat0,flat1,flat2,out_sup,out_ysup,out_dysup,verdict")


# ---------------------------------------------------------------------------
# frame maps
# ---------------------------------------------------------------------------

def test_frame_maps_roundtrip():
    y = np.linspace(0, 20, 101)
    vals = np.exp(-y**2)
    r, t, vp = sim.selfsimilar_to_physical(vals, y, 6.0, 1.0)
    y2, s2, v2 = sim.physical_to_selfsimilar(vp, r, t, 1.0)
    assert np.allclose(y2, y) and s2 == pytest.approx(6.0)
    assert np.allclose(v2, vals)
    with pytest.raises(sim.ConfigError):
        sim.physical_to_selfsimilar(vp, r, 2.0, 1.0)


def test_frame_consistency_of_evolution():
    """Evolving in the physical frame and mapping back matches the
    self-similar evolution to discretization order."""
    d = 4
    p = pr.make_profile_params(d)
    s0, ds_total, T = 6.0, 0.2, 1.0
    g = sim.Grid.uniform(2048, 30.0)
    y = g.nodes
    v0 = pr.psi(p, y, s0)
    # self-similar evolution with a fixed small step
    st_ss = sim.RadialState("selfsimilar", s0, v0.copy(), g, d)
    stepper_ss = sim.Stepper(g, d, "selfsimilar", "neumann")
    n_steps = 2000
    dt_ss = ds_total / n_steps
    for _ in range(n_steps):
        st_ss = stepper_ss.step(st_ss, dt_ss)
    # physical evolution of the transported data between matching times
    r, t0, vp = sim.selfsimilar_to_physical(v0, y, s0, T)
    gp = sim.Grid(r)
    st_ph = sim.RadialState("physical", t0, vp, gp, d)
    stepper_ph = sim.Stepper(gp, d, "physical", "neumann")
    t1 = T - math.exp(-(s0 + ds_total))
    n_ph = 4000
    dt_ph = (t1 - t0) / n_ph
    for _ in range(n_ph):
        st_ph = stepper_ph.step(st_ph, dt_ph)
    y_back, s_back, v_back = sim.physical_to_selfsimilar(st_ph.values, r, st_ph.time, T)
    assert s_back == pytest.approx(s0 + ds_total, abs=1e-9)
    v_interp = np.interp(y, y_back, v_back)
    inner = y < 20.0
    assert np.max(np.abs(v_interp - st_ss.values)[inner]) < 2e-4


# ---------------------------------------------------------------------------
# blowup-time estimation
# ---------------------------------------------------------------------------

def test_estimate_blowup_time_reciprocal():
    t = np.linspace(0.0, 8.0, 200)
    u0 = 0.1
    u = 1.0 / (1.0 / u0 - t)                  # solves u' = u^2, T = 10
    T, width = sim.estimate_blowup_time(t, u)
    assert T == pytest.approx(10.0, abs=1e-8)


def test_estimate_blowup_time_synthetic():
    t = np.linspace(0.0, 0.9, 300)
    T, width = sim.estimate_blowup_time(t, 1.0 / (1.0 - t))
    assert T == pytest.approx(1.0, abs=1e-10)
    assert width < 1e-10


def test_estimate_blowup_time_window_convergence():
    t = np.linspace(0.0, 0.95, 400)
    w = 1.0 / (1.0 - t) + 0.05 * np.sin(40 * t)   # perturbed data
    ests = []
    for window in (0.5, 0.25, 0.12):
        try:
            ests.append(sim.estimate_blowup_time(t, w, window=window)[0])
        except dg.UnfitError:
            pass
    assert len(ests) >= 2
    assert abs(ests[-1] - 1.0) <= abs(ests[0] - 1.0) + 1e-3


def test_estimate_blowup_time_guards():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(dg.UnfitError):
        sim.estimate_blowup_time(t, np.ones_like(t))          # not monotone
    with pytest.raises(dg.UnfitError):
        sim.estimate_blowup_time(t[:3], np.exp(t[:3]))        # too short
