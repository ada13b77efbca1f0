import ctypes
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

from ksblowup import _loader
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
    # dt = 0 would never advance, and an infinite cfl drops the advective limit
    for cfl in (0.0, -0.4, float("nan"), float("inf")):
        with pytest.raises(sim.ConfigError, match="cfl"):
            sim.SimConfig(d=4, frame="physical", y_max=8.0, cfl=cfl)
    # a NaN passes `x <= 0`, and a non-finite time never reaches a record or
    # the end: a run from either would loop forever
    nan, inf = float("nan"), float("inf")
    phys = dict(d=4, frame="physical", n=32, y_max=10.0, s0=0.0, init=np.full(33, 0.1),
                horizon=1.0, cadence=0.01, dt=1e-3)
    for key, bad in (("dt", nan), ("dt", inf), ("dt", 0.0), ("horizon", nan), ("horizon", inf),
                     ("horizon", -1.0), ("cadence", nan), ("cadence", inf), ("cadence", 0.0)):
        with pytest.raises(sim.ConfigError, match=f"{key} must be positive and finite"):
            sim.SimConfig(**(phys | {key: bad}))
    for bad in (nan, inf, -inf):
        with pytest.raises(sim.ConfigError, match="s0 must be finite"):
            sim.SimConfig(**(phys | {"s0": bad}))
    # a NaN bound, guard or perturbation would switch a verdict off
    for key, bad, match in (("A", nan, "A must not be NaN"),
                            ("K", nan, "K must not be NaN"),
                            ("escape_factor", nan, "escape_factor must not be NaN"),
                            ("blowup_sup", nan, "blowup_sup must not be NaN"),
                            ("dvec", (0.5, nan), "must lie in")):
        with pytest.raises(sim.ConfigError, match=match):
            sim.SimConfig(d=4, n=256, s0=50.0, horizon=1.0, cadence=0.25, **{key: bad})
    # the shrinking-set bounds scale with A: a negative A would read every
    # slice "inside", and A = 0 would divide by zero
    for bad in (-20.0, 0.0, inf):
        with pytest.raises(sim.ConfigError, match="A must be positive and finite"):
            sim.SimConfig(d=4, n=256, s0=50.0, horizon=0.3, A=bad)
    assert sim.SimConfig(d=4, escape_factor=inf).escape_factor == inf
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
        sim.Stepper(g, 4, "physical", "neumann").advance(st, 2.0, dt=1e-3)
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
    state, error = stepper.advance(state, math.inf, dt=1e-3, most=10000)
    assert error is None and stepper.steps == 10000
    assert np.max(np.abs(state.values - 1.0 / d)) < 1e-10


def _constant_error(dt, v0=0.1, sigma=1.0, d=4):
    g = sim.Grid.uniform(32, 10.0)
    state = sim.RadialState("selfsimilar", 1.0, np.full(33, v0), g, d)
    stepper = sim.Stepper(g, d, "selfsimilar", "neumann")
    state, _ = stepper.advance(state, math.inf, dt=dt, most=int(round(sigma / dt)))
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
    state, error = stepper.advance(state, 0.9 * t_blow, dt=dt)
    assert error is None and state.time == 0.9 * t_blow
    exact = 1.0 / (1.0 / v0 - d * state.time)
    assert np.max(np.abs(state.values - exact)) / exact < 1e-3


def test_step_guards():
    g = sim.Grid.uniform(32, 10.0)
    state = sim.RadialState("selfsimilar", 1.0, np.zeros(33), g, 4)
    stepper = sim.Stepper(g, 4, "selfsimilar", "neumann")
    nan, inf = float("nan"), float("inf")
    cases = [({}, "needs a dt or a cfl")]
    cases += [({"dt": dt}, "dt must be positive") for dt in (-1.0, 0.0, nan)]
    cases += [({"cfl": cfl}, "cfl must be positive and finite") for cfl in (0.0, -0.4, nan, inf)]
    for kwargs, match in cases:
        with pytest.raises(sim.ConfigError, match=match):
            stepper.advance(state, 2.0, **kwargs)
    assert stepper.steps == 0
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
            stepper.advance(state, 1e-3, dt=1e-3)
    # an equal grid built apart is accepted
    twin = sim.RadialState("physical", 0.0, np.zeros(33), sim.Grid.uniform(32, 10.0), 4)
    state, error = stepper.advance(twin, 1e-3, dt=1e-3)
    assert error is None and state.grid is stepper.grid
    assert np.array_equal(state.values, np.zeros(33))


def _reference_operators(y, v, d, sigma):
    """The flow's operators written out from the nodes alone: the textbook
    nonuniform Laplacian tridiagonal (last row zero), the nonlinear drift
    v y v_y with both advection stencils at every node and one select per
    node by its Peclet number, and the tridiagonal of the linear drift."""
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

    a = v * y                                      # the explicit, nonlinear drift
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

    # the linear drift -(sigma/2) y d/dy: centered where (sigma/2) y h <= 2,
    # backward (upwind) beyond and at the last node; zero at sigma = 0
    al = -0.5 * sigma * y
    lin_cen = np.abs(al[1:-1]) * hm <= 2.0
    llo, ldi, lup = np.zeros(n), np.zeros(n), np.zeros(n)
    llo[1:-1] = al[1:-1] * np.where(lin_cen, -hp * hp / denom, -1.0 / hm)
    ldi[1:-1] = al[1:-1] * np.where(lin_cen, -(hm * hm - hp * hp) / denom, 1.0 / hm)
    lup[1:-1] = al[1:-1] * np.where(lin_cen, hm * hm / denom, 0.0)
    llo[-1], ldi[-1] = -al[-1] / (y[-1] - y[-2]), al[-1] / (y[-1] - y[-2])
    return (lo, di, up), drift, (llo, ldi, lup)


def _tridiag_times(tri, v):
    lo, di, up = tri
    out = di * v
    out[:-1] += up[:-1] * v[1:]
    out[1:] += lo[1:] * v[:-1]
    return out


def _reference_kernel(stepper, state, dt):
    """The step written out from the nodes alone: `_reference_operators`,
    the matrix of Crank-Nicolson diffusion and backward-Euler linear drift in
    `solve_banded`'s (1, 1) band layout, and the array path of Q."""
    y, v, d, sigma = state.grid.nodes, state.values, state.d, sim.FRAME_SIGMA[state.frame]
    n = len(y)
    (lo, di, up), drift, (llo, ldi, lup) = _reference_operators(y, v, d, sigma)
    b = v + 0.5 * dt * _tridiag_times((lo, di, up), v) + dt * (drift + (d * v * v - sigma * v))
    if stepper.boundary == "neumann":
        b[-1] = 0.0
    else:
        xi_edge = y[-1] * (state.time + dt) ** (-1.0 / (2 * stepper.params.ell))
        b[-1] = pr.q_of_xi(stepper.params, np.array([xi_edge]))[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = -0.5 * dt * up[:-1] - dt * lup[:-1]
    ab[1, :] = 1.0 - 0.5 * dt * di - dt * ldi
    ab[2, :-1] = -0.5 * dt * lo[1:] - dt * llo[1:]
    ab[1, -1] = 1.0
    ab[2, -2] = -1.0 if stepper.boundary == "neumann" else 0.0
    return solve_banded((1, 1), ab, b)


def _reference_rhs(state):
    """`sim.rhs` written out from the nodes alone: `_reference_operators`,
    the reaction, and the one-sided second-order Laplacian at the last node."""
    y, v, d, sigma = state.grid.nodes, state.values, state.d, sim.FRAME_SIGMA[state.frame]
    lap, drift, linear = _reference_operators(y, v, d, sigma)
    out = _tridiag_times(lap, v) + _tridiag_times(linear, v) + drift + (d * v * v - sigma * v)
    h1, h2 = y[-1] - y[-2], y[-2] - y[-3]
    vpp = 2.0 * (h2 * v[-1] - (h1 + h2) * v[-2] + h1 * v[-3]) / (h1 * h2 * (h1 + h2))
    out[-1] += vpp + (d + 1) / y[-1] * (v[-1] - v[-2]) / h1
    return out


def _assert_close(got, want):
    # the kernel re-associates the reference's sums and products, so the two
    # differ by rounding alone; one wrong stencil weight at a single node
    # moves the result by O(h), far above this bound
    bound = 1e-12 * max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= bound


@pytest.mark.parametrize("grid, frame, boundary", [
    (sim.Grid.uniform(32, 10.0), "physical", "neumann"),
    (sim.Grid.uniform(2048, 110.0), "selfsimilar", "profile"),
    (sim.Grid.geometric(128, 30.0, 1.03), "physical", "neumann"),
    (sim.Grid.geometric(128, 30.0, 1.03), "selfsimilar", "profile"),
])
def test_step_equals_reference_kernel(grid, frame, boundary):
    # the precomputed stencil stack, the Peclet-decided advection and the
    # once-per-dt factorization match the textbook step to rounding.  Fields
    # in [0, 0.3] are centered at every node of the uniform grids; fields in
    # [-2, 6] mix upwind and centered nodes and drifts of both signs on every
    # grid.
    rng = np.random.default_rng(7)
    t0 = 50.0 if frame == "selfsimilar" else 0.0
    y = grid.nodes
    h = np.concatenate([y[1:2] - y[:1], np.diff(y)])
    n = len(y)
    for d in (3, 4):
        stepper = sim.Stepper(grid, d, frame, boundary)
        fields = [0.3 * rng.random(n) for _ in range(5)]
        fields += [rng.uniform(-2.0, 6.0, n) for _ in range(5)]
        for k, v in enumerate(fields):
            peclet = np.abs(v * y) * h
            if k >= 5:
                assert np.any(peclet > 2.0) and np.any(peclet[1:] <= 2.0)
                assert np.any(v < 0) and np.any(v > 0)
            elif grid.n in (32, 2048):
                assert np.all(peclet <= 2.0)
            state = sim.RadialState(frame, t0, v, grid, d)
            # factor, repeat, factor, cached, repeat
            for dt in (1e-3, 1e-3, 2.5e-4, 1e-3, 1e-3):
                got, _ = stepper.advance(state, math.inf, dt=dt, most=1)
                _assert_close(got.values, _reference_kernel(stepper, state, dt))


@pytest.mark.parametrize("grid", [sim.Grid.uniform(32, 10.0), sim.Grid.uniform(2048, 110.0),
                                  sim.Grid.geometric(128, 30.0, 1.03)])
def test_rhs_advection_matches_per_node_selection(grid):
    # rhs shares the step's stencil stack and Peclet decision; it matches the
    # per-node reference to rounding for all-centered and mixed fields, and
    # for tiny fields with signed zeros
    rng = np.random.default_rng(11)
    n = len(grid.nodes)
    fields = [0.3 * rng.random(n), rng.uniform(-2.0, 6.0, n), rng.uniform(-1e-3, 1e-3, n)]
    fields[2][::4] = 0.0
    fields[2][1::5] = -0.0
    for v in fields:
        for frame in ("physical", "selfsimilar"):
            for d in (3, 4):
                state = sim.RadialState(frame, 50.0, v, grid, d)
                _assert_close(sim.rhs(state), _reference_rhs(state))


def test_explicit_stack_built_once_per_grid(monkeypatch):
    # the stencil stack depends on the grid, d and frame alone: not on the
    # step, not on dt, not on a record landing's shortened step, and not on
    # the stepper
    calls = []
    build = sim._explicit_stack

    def counting(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(sim, "_explicit_stack", counting)
    sim._grid_tables.cache_clear()
    grid = sim.Grid.uniform(32, 10.0)
    stepper = sim.Stepper(grid, 4, "physical", "neumann")
    state = sim.RadialState("physical", 0.0, np.full(33, 0.1), grid, 4)
    for dt in (1e-3, 2.5e-4, 1e-3):
        state, _ = stepper.advance(state, math.inf, dt=dt, most=1)
    assert len(calls) == 1
    cfg = sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=100.0, horizon=1.0,
                        cadence=0.1, dt=1e-3, init=np.full(33, 0.1))
    res = sim.run(cfg)
    assert res.steps == 1000 and len(res.times) == 11 and res.dt_min < res.dt_max
    # steppers on one grid share its tables, read-only: the run's grid is the
    # one `Grid.uniform` gave above; another frame builds its own stack, and
    # a grid built anew from the same nodes is another grid
    assert res.final_state.grid is grid and len(calls) == 1
    shared = sim.Stepper(grid, 4, "physical", "neumann")
    assert shared.stack is stepper.stack and not shared.stack.flags.writeable
    assert sim.Stepper(grid, 4, "selfsimilar", "neumann").stack is not stepper.stack
    other = sim.Stepper(sim.Grid(grid.nodes), 4, "physical", "neumann")
    assert len(calls) == 3 and other.stack.tobytes() == stepper.stack.tobytes()


def _edge(stepper, t):
    """The boundary value at time t written out, one value at a time: zero for
    Neumann, else Q at the edge xi = y_max t^(-1/(2 ell)), by Python's `**`."""
    if stepper.boundary == "neumann":
        return 0.0
    ell = stepper.params.ell
    return pr.q_of_xi(stepper.params, stepper.grid.nodes[-1] * t ** (-1.0 / (2 * ell)))


def _advance_loop(stepper, v, times, dt, last):
    """`Stepper._stretch` written over `_advance`, one boundary value per
    step: the field after the last finite step, the number of finite steps
    and the next step's error."""
    k = len(times) - 1
    for j in range(k):
        try:
            v = stepper._advance(v, float(times[j]), dt if j < k - 1 else last,
                                 _edge(stepper, float(times[j + 1])))
        except sim.StateCorruptionError as exc:
            return v, j, exc
    return v, k, None


@pytest.mark.skipif(sim._library() is None, reason="no compiled stretch loop")
@pytest.mark.parametrize("grid, frame, boundary, swaps", [pytest.param(
    *case, id=f"grid{i}-{case[1]}-{case[2]}") for i, case in enumerate([
        (sim.Grid.uniform(32, 10.0), "physical", "neumann", set()),
        (sim.Grid.uniform(1024, 110.0), "selfsimilar", "profile", {"interior"}),
        (sim.Grid.geometric(128, 30.0, 1.03), "physical", "neumann", set()),
        (sim.Grid.geometric(128, 30.0, 1.03), "selfsimilar", "profile", {"interior"}),
        (sim.Grid.uniform(64, 20.0), "selfsimilar", "neumann", {"interior"}),
        (sim.Grid.geometric(16, 5.0, 1.3), "selfsimilar", "neumann", {"interior", "boundary"}),
    ])])
def test_stretch_equals_advance_bit_for_bit(grid, frame, boundary, swaps):
    # the compiled loop gives the bytes of k `_advance` calls: all-centered
    # fields, mixed upwind fields of both signs, tiny fields with signed
    # zeros; a NaN or an overflowing field stops both at the same step, at
    # the same state, with `_advance`'s error.  The last step of a stretch
    # may land at its own dt: a few ulps off dt, or much smaller.  The
    # self-similar factors swap rows (pivots of dgttrf) at dt = 0.05 on the
    # 1025 nodes and at dt = 200, the last grid's also at the Neumann
    # boundary row, so the forward sweep's swap branch runs, with the
    # boundary value as the swapped-in entry there
    rng = np.random.default_rng(5)
    n = len(grid.nodes)
    tiny = rng.uniform(-1e-3, 1e-3, n)
    tiny[::4], tiny[1::5] = 0.0, -0.0
    nan = np.full(n, 0.1)
    nan[n // 2] = np.nan
    fields = [0.3 * rng.random(n), rng.uniform(-2.0, 6.0, n), tiny, nan, np.full(n, 3.0)]
    t0 = 50.0 if frame == "selfsimilar" else 0.0
    swapped = set()
    for d in (3, 4):
        stepper = sim.Stepper(grid, d, frame, boundary)
        for v in fields:
            for k, dt, last in ((1, 1e-3, 1e-3), (7, 1e-3, 1e-3), (40, 0.05, 0.05),
                                (1, 1e-3, 2.5e-4), (7, 1e-3, 1e-3 + 4e-19),
                                (7, 1e-3, 1e-3 - 3e-19), (3, 200.0, 200.0),
                                (40, 0.05, 3e-6)):
                times = np.cumsum(np.r_[t0, np.full(k - 1, dt), last])
                with np.errstate(over="ignore", invalid="ignore"):
                    want, finite, want_error = _advance_loop(stepper, v, times, dt, last)
                    compiled = stepper.compiled_steps
                    got, done, error = stepper._stretch(v, times, dt, last)
                assert stepper.compiled_steps == compiled + done
                assert done == finite and got.tobytes() == want.tobytes()
                assert (error is None) == (done == k) == (want_error is None)
                assert str(error) == str(want_error)
                for h in (dt, last):
                    rows = np.flatnonzero(stepper._factored(h)[-1] != np.arange(1, n + 1))
                    swapped |= {"boundary" if i == n - 2 else "interior" for i in rows}
        # the field of 3s overflows within 40 steps
        assert done < 40
    assert swapped == swaps


@pytest.mark.skipif(sim._library() is None, reason="no compiled stretch loop")
def test_compiled_profile_edge_equals_edges_bit_for_bit():
    # at d=4 the compiled loop forms each step's boundary value from the
    # step's time; the solution of one step ends in it (the boundary row is
    # v_N = value), so one-step stretches read it back.  Over 12000 times,
    # the steps of record intervals with their landing steps and times
    # spread over twelve decades, it has the bits of `_edges`.  A time whose
    # t = c xi^4 overflows, or t = 0, stops the loop, and `_edges` raises
    # as it does without the loop
    grid = sim.Grid.uniform(16, 10.0)
    stepper = sim.Stepper(grid, 4, "selfsimilar", "profile")
    times = []
    for t, dt, cadence in ((50.0, 3.7e-4, 0.1), (0.013, 1.1e-6, 1e-4), (1234.5, 0.0123, 0.5)):
        for _ in range(8):
            h, last, stretch = sim._stretch_times(t, dt, t + cadence, 4096)
            assert last != h
            times += stretch[1:].tolist()
            t = float(stretch[-1])
    rng = np.random.default_rng(11)
    times += (10.0 ** rng.uniform(-3.0, 9.0, 12000 - len(times))).tolist()
    v0 = pr.psi(stepper.params, grid.nodes, 50.0)
    got = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in times:
            v, done, error = stepper._stretch(v0, np.array([t - 1e-7, t]), 1e-7, 1e-7)
            assert done == 1 and error is None
            got.append(v[-1])
    assert np.array(got).tobytes() == stepper._edges(np.array(times)).tobytes()
    assert stepper.compiled_steps == len(times)
    for t in (0.0, 1e-310):
        with pytest.raises((ZeroDivisionError, ValueError)) as numpy_error, \
                np.errstate(over="ignore"):
            stepper._edges(np.array([t]))
        with pytest.raises(numpy_error.type, match=re.escape(str(numpy_error.value))), \
                np.errstate(over="ignore"):
            stepper._stretch(v0, np.array([1.0, t]), 1e-7, 1e-7)
    assert stepper.compiled_steps == len(times)


def test_kernel_builds_into_a_cache_and_falls_back_without_raising(tmp_path, monkeypatch):
    # a build into an empty cache loads and leaves one object and no
    # temporary file, with the stepping loop, the factorization, the slice
    # pass, the step limit's maxima and the ansatz pass declared; a second load
    # reuses it.
    # No compiler, a failing compiler or a cache that cannot be written gives
    # None, not an error
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler")
    lib = _loader._build(tmp_path / "cache")
    assert lib is not None and hasattr(lib, "ks_stretch") and hasattr(lib, "ks_factor")
    # each pass takes its caller's per-grid entries as one uintp array
    assert lib.ks_slice.restype is ctypes.c_long
    assert lib.ks_slice.argtypes == [ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p]
    assert lib.ks_cfl.restype is None
    assert lib.ks_cfl.argtypes == [ctypes.c_void_p] * 2
    assert lib.ks_stretch.restype is ctypes.c_long
    assert lib.ks_stretch.argtypes == (
        [ctypes.c_void_p] * 3 + [ctypes.c_long] + [ctypes.c_double] * 8 + [ctypes.c_void_p] * 2)
    assert lib.ks_factor.argtypes == [ctypes.c_long] + [ctypes.c_void_p] * 5
    assert lib.ks_ansatz.restype is None
    assert lib.ks_ansatz.argtypes == ([ctypes.c_long] + [ctypes.c_void_p] * 2
                                      + [ctypes.c_long] * 2 + [ctypes.c_void_p] * 7)
    assert not hasattr(lib, "ks_cfl_stretch")
    (built,) = (tmp_path / "cache").iterdir()
    assert built.name.startswith("kernel-") and built.suffix == ".so"
    assert _loader._build(tmp_path / "cache") is not None
    assert list((tmp_path / "cache").iterdir()) == [built]
    blocked = tmp_path / "file"
    blocked.write_text("")
    assert _loader._build(blocked / "cache") is None
    false = shutil.which("false") or "/bin/false"
    monkeypatch.setattr(_loader.shutil, "which", lambda name: false)
    assert _loader._build(tmp_path / "other") is None
    assert list((tmp_path / "other").iterdir()) == []
    monkeypatch.setattr(_loader.shutil, "which", lambda name: None)
    assert _loader._build(tmp_path / "none") is None


def test_kernel_source_compiles_without_warnings(tmp_path):
    # the build's own flags, with every -Wall -Wextra warning an error
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler")
    built = subprocess.run(
        [compiler, *_loader._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o",
         str(tmp_path / "kernel.so"), str(_loader._SOURCE)],
        capture_output=True, text=True, timeout=120, stdin=subprocess.DEVNULL)
    assert built.returncode == 0, built.stderr


# an 8-probe criterion-10 search, and one whose factor table it overfills, and
# a short d=3 run: every compiled pass, the record call, d=4's edge values and
# Q formed in C and d=3's read from NumPy; a capped CFL drive in the compiled
# loop, and stretches whose factors swap rows, the Neumann boundary row among
# them; the ansatz's error at d=3 and d=4 on a grid from y = 0 across xi = 1
# and xi = 2
_SANITIZED_RUN = """
import hashlib
import numpy as np
from ksblowup import _loader, profile, shooting, sim

def outputs():
    h = hashlib.sha256()
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, cadence=0.1, A=20.0, K=10.0)
    search = shooting.trap_search(cfg, budget=8)
    slots, sim._FACTOR_SLOTS = sim._FACTOR_SLOTS, 4
    try:
        overfilled = shooting.trap_search(cfg, budget=8)
    finally:
        sim._FACTOR_SLOTS = slots
    run = sim.run(sim.SimConfig(d=3, n=512, s0=50.0, horizon=0.3, cadence=0.1,
                                escape_factor=np.inf))
    for entry in [*search.history, *overfilled.history, run.summary()]:
        h.update(repr({k: v for k, v in entry.items()
                       if k not in ("wall_s", "step_s", "diag_s")}).encode())
    for rec in search.trajectory + overfilled.trajectory + run.records:
        h.update(rec.coefficients.tobytes() + repr(rec.measured).encode())
    h.update(run.final_state.values.tobytes())
    grid = sim.Grid.uniform(64, 10.0)
    v0 = 0.1 + 0.4 * np.exp(-grid.nodes**2 / 4.0)
    for frame, t0, target, dt, cap in (("physical", 0.5, 0.9, None, (0.1, 1.0)),
                                       ("selfsimilar", 50.0, np.inf, 200.0, None)):
        for grid in ([grid] if dt is None else
                     [sim.Grid.geometric(16, 5.0, 1.3), sim.Grid.uniform(1024, 110.0)]):
            stepper = sim.Stepper(grid, 4, frame, "neumann")
            state, error = stepper.advance(
                sim.RadialState(frame, t0, np.interp(grid.nodes, np.linspace(0.0, 10.0, 65), v0),
                                grid, 4), target, dt=dt, cfl=0.2, cap=cap, most=3 if dt else np.inf)
            h.update(state.values.tobytes() + repr((stepper.step_record(), error)).encode())
    for d in (3, 4):
        p = profile.make_profile_params(d)
        for out in profile._ansatz(p, np.linspace(0.0, 3.0 * 50.0 ** (0.5 / p.ell), 61), 50.0):
            h.update(out.tobytes())
    return h.hexdigest()
"""


def test_kernel_runs_clean_under_address_and_undefined_sanitizers(tmp_path):
    # the same search and run through a build of _kernel.c with ASan and
    # UBSan, whose first error aborts, in a child process that preloads the
    # ASan runtime: a clean exit, every pass from that build, and the
    # outputs of the normal build
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None or sim._library() is None:
        pytest.skip("no C compiler")
    asan = subprocess.run([compiler, "-print-file-name=libasan.so"], capture_output=True,
                          text=True, timeout=60, stdin=subprocess.DEVNULL).stdout.strip()
    if not os.path.isabs(asan):
        pytest.skip("no libasan")
    child = _SANITIZED_RUN + textwrap.dedent("""
        _loader._CFLAGS += ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
        lib = _loader._library()
        assert lib is not None and lib._name.startswith(sys.argv[1]), lib
        print(outputs())
        """)
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), LD_PRELOAD=asan,
               ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join([str(_loader._SOURCE.parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", "import sys\n" + child, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300,
                          stdin=subprocess.DEVNULL)
    assert done.returncode == 0, done.stderr[-4000:]
    namespace = {}
    exec(_SANITIZED_RUN, namespace)
    assert done.stdout.split() == [namespace["outputs"]()]


def test_run_reports_the_kernel_that_measured_most_of_its_slices():
    # a field rough from node to node makes every slice unresolved: the
    # compiled pass hands each to the NumPy path, which warns, and the run
    # reports numpy.  The same run from the ansatz reports the kernel of its
    # steps, and a context shared between runs counts each run's own slices
    kernel = "numpy" if sim._library() is None else "compiled"
    cfg = sim.SimConfig(d=4, n=256, s0=50.0, horizon=0.3, cadence=0.1, dt=1e-3, A=20.0,
                        K=10.0, escape_factor=np.inf)
    grid = cfg.build_grid()
    ctx = dg.DiagnosticsContext(d=4, y=grid.nodes, K=cfg.K)
    smooth = sim.run(cfg, ctx=ctx)
    assert smooth.slice_kernel == smooth.kernel == kernel
    checker = np.where(np.arange(len(grid.nodes)) % 2, 0.1, -0.1) * np.exp(-0.01 * grid.nodes**2)
    rough = replace(cfg, init=sim.make_initial_data(cfg, grid).values + checker)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = sim.run(rough, ctx=ctx)
    assert len(result.records) == 4
    assert ["unresolved" in str(w.message) for w in caught] == [True] * 4
    assert result.slice_kernel == "numpy" and result.kernel == kernel
    assert sim.run(cfg, ctx=ctx).slice_kernel == kernel


def _compiled_factors(lib, dl, d, du):
    """`ks_factor` on copies of (dl, d, du): (dl, d, du, du2, ipiv, info)."""
    out = [np.array(a, float) for a in (dl, d, du)]
    out += [np.zeros(len(d) - 2), np.zeros(len(d), np.intc)]
    return out + [lib.ks_factor(len(d), *(sim._address(a) for a in out))]


@pytest.mark.skipif(sim._library() is None, reason="no compiled stretch loop")
def test_compiled_factor_equals_lapack_dgttrf(monkeypatch):
    # `ks_factor` gives the bytes of all five of scipy's dgttrf outputs and
    # its info: on the stepper matrices of both dimensions and frames for dt
    # from 1e-7 to 1e6, some with row interchanges, and on random
    # tridiagonals from n = 3 to 59, a singular one included
    lib = sim._library()
    matrices = []
    dgttrf = lapack.dgttrf

    def recording(dl, d, du, **kwargs):
        matrices.append((dl.copy(), d.copy(), du.copy()))
        return dgttrf(dl, d, du, **kwargs)

    monkeypatch.setattr(lapack, "dgttrf", recording)
    for grid, frame, boundary in ((sim.Grid.uniform(1024, 110.0), "selfsimilar", "profile"),
                                  (sim.Grid.geometric(128, 30.0, 1.03), "selfsimilar", "neumann"),
                                  (sim.Grid.uniform(32, 10.0), "physical", "neumann")):
        for d in (3, 4):
            stepper = sim.Stepper(grid, d, frame, boundary)
            for dt in np.geomspace(1e-7, 1e6, 27):
                stepper._factored(float(dt))
    monkeypatch.undo()
    stepper_count = len(matrices)
    rng = np.random.default_rng(3)
    for n in range(3, 60):
        matrices.append(tuple(rng.normal(size=m) for m in (n - 1, n, n - 1)))
    d = rng.normal(size=10)
    d[3] = 0.0
    matrices.append((np.zeros(9), d, np.zeros(9)))       # U(4, 4) is zero
    pivoted = []
    for dl, d, du in matrices:
        want = lapack.dgttrf(dl.copy(), d.copy(), du.copy())
        got = _compiled_factors(lib, dl, d, du)
        for a, b in zip(got[:4], want[:4]):
            assert a.tobytes() == b.tobytes()
        assert np.array_equal(got[4], want[4]) and got[5] == want[5]
        pivoted.append(not np.array_equal(got[4], np.arange(1, len(d) + 1)))
    assert stepper_count == 6 * 27 and 0 < sum(pivoted[:stepper_count]) < stepper_count
    assert sum(pivoted[stepper_count:]) > 40 and want[5] == 4


@pytest.mark.skipif(sim._library() is None, reason="no compiled stretch loop")
def test_stretch_hands_an_unfactorable_step_to_advance():
    # a dt whose matrix overflows and a singular matrix stop the compiled
    # loop before that step, as the first or the landing step; `_advance`
    # then takes it and raises its own error with its own message
    g = sim.Grid.uniform(32, 10.0)
    stepper = sim.Stepper(g, 4, "physical", "neumann")
    v = np.full(33, 0.1)
    alternating = 0.1 * np.where(np.arange(33) % 2, 1.0, -1.0)
    singular = 0
    for values, dt, last in ((v, 1e307, 1e307), (v, 1e-3, 1e307),
                             (alternating, 1e300, 1e300), (alternating, 1e-3, 1e300)):
        times = np.cumsum(np.r_[0.5, np.full(3 if dt != last else 0, dt), last])
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = _advance_loop(stepper, values, times, dt, last)
            except np.linalg.LinAlgError as exc:
                with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
                    stepper._stretch(values, times, dt, last)
                singular += 1
                continue
            compiled = stepper.compiled_steps
            got, done, error = stepper._stretch(values, times, dt, last)
        assert stepper.compiled_steps == compiled + done
        assert done == want[1] == len(times) - 2 and got.tobytes() == want[0].tobytes()
        assert str(error) == str(want[2]) == "Crank-Nicolson matrix overflowed at dt=1e+307"
    assert singular == 2


def test_step_names_the_first_non_finite_stage():
    # one check of the solution stands for three: the error still names the
    # field, the explicit terms or the solver, in that order
    g = sim.Grid.uniform(32, 10.0)
    stepper = sim.Stepper(g, 4, "physical", "neumann")

    def advance(values, dt):
        return stepper.advance(sim.RadialState("physical", 0.5, values, g, 4), math.inf,
                               dt=dt, most=1)

    def message(values, dt):
        state, error = advance(values, dt)
        assert isinstance(error, sim.StateCorruptionError) and state.time == 0.5
        return str(error)

    v = np.full(33, 0.1)
    for bad in (np.nan, np.inf):
        for at in (0, 16, 32):
            w = v.copy()
            w[at] = bad
            assert message(w, 1e-3) == "non-finite field at time 0.5"
    # d v^2 overflows from a finite field
    assert message(np.full(33, 1e160), 1e-3) == "explicit terms overflowed at t=0.5"
    # a non-finite field or b is named before a matrix that cannot be factored
    w = v.copy()
    w[3] = np.nan
    assert message(w, 1e307) == "non-finite field at time 0.5"
    assert message(v, 1e307) == "Crank-Nicolson matrix overflowed at dt=1e+307"
    alternating = np.where(np.arange(33) % 2, 1.0, -1.0)
    assert message(1e5 * alternating, 1e300) == "explicit terms overflowed at t=0.5"
    with pytest.raises(np.linalg.LinAlgError):
        advance(0.1 * alternating, 1e300)
    # a finite b whose solve overflows
    assert message(1e-10 * alternating, 1e305) == "solver produced non-finite values at t=0.5"


def test_stretched_grid_stepper_and_rhs():
    # geometric spacing: constants preserved and the nonuniform stencils
    # stay second order on the smooth profile
    g = sim.Grid.geometric(128, 30.0, 1.03)
    st = sim.RadialState("physical", 0.0, np.zeros(129), g, 4)
    stepper = sim.Stepper(g, 4, "physical", "neumann")
    st, error = stepper.advance(st, math.inf, dt=1e-4, most=500)
    assert error is None and stepper.steps == 500
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
    # the grid it is given is checked, not y_max: this one ends at 4 < 5.3
    cfg = sim.SimConfig(d=4, n=64, s0=50.0, horizon=1.0, dvec=(0.5, 0.0))
    sim.make_initial_data(cfg)
    with pytest.raises(sim.ConfigError):
        sim.make_initial_data(cfg, sim.Grid.uniform(64, 4.0))


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
    assert res.verdict.startswith("escaped:") and res.stop_reason == "escape"
    assert res.exit_time < 55.0


def test_run_blowup_detection():
    # large constant initial data in the physical frame grows without bound
    g = sim.Grid.uniform(64, 10.0)
    cfg = sim.SimConfig(d=4, frame="physical", n=64, y_max=10.0, s0=0.0,
                        horizon=10.0, cadence=0.01, dt=1e-3,
                        init=np.full(65, 2.0))
    res = sim.run(cfg)
    assert res.verdict == "blowup" and res.stop_reason == "record guard"


def test_run_physical_blowup_guard():
    # v' = 4 v^2 from v0 = 0.1 blows up at T = 2.5; the explicit terms lag the
    # exact growth, so the discrete field first passes the limit 10 at the
    # record t = 2.51 and would overflow (sup ~ 7e153) at t = 2.534
    cfg = sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=0.0,
                        horizon=3.0, cadence=0.01, init=np.full(33, 0.1))
    res = sim.run(cfg)
    assert res.verdict == "blowup"
    assert res.exit_time < 2.5 + 1.5 * cfg.cadence
    sup = np.max(np.abs(res.final_state.values))
    assert np.isfinite(sup) and 10.0 < sup < 100.0
    # the guard fires at the first record past the limit (w = d v here)
    assert res.sup_w[-2] / 4 <= 10.0 < res.sup_w[-1] / 4


def test_run_nonfinite_step_labeled_by_the_field_before_it():
    # from a field at or below the blowup limit a non-finite step is a
    # numerical failure: a fixed dt of 1e300, far above the explicit limit
    # (0.11 here), makes the first solve overflow from the ansatz (sup 0.25)
    cfg = sim.SimConfig(d=4, n=64, y_max=60.0, s0=50.0, horizon=1e300, cadence=1e300,
                        dt=1e300, track_bounds=False)
    res = sim.run(cfg)
    assert res.verdict == "unstable" and res.stop_reason == "non-finite step"
    assert res.steps == 0 and res.exit_time == 50.0
    assert "non-finite" in res.message
    # from a field above it, a blowup: with no record to stop it, v' = 4 v^2
    # from v0 = 2 passes the limit 20 and overflows at step 139 (T = 0.125)
    cfg = sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=0.0, horizon=1.0,
                        cadence=1.0, dt=1e-3, init=np.full(33, 2.0))
    res = sim.run(cfg)
    assert res.verdict == "blowup" and res.stop_reason == "non-finite step"
    assert res.steps == 139 and "overflowed" in res.message


def test_selfsimilar_dt_set_from_the_state_at_each_record(monkeypatch):
    # one step limit per record, from `cfl_dt`'s two maxima of the record's
    # field: in NumPy or `ks_cfl` at s0, in the record call of each interval
    # after it (`Stepper._interval`), or in `cfl_dt` again without the
    # compiled passes
    cfl_limit, calls = sim._cfl_limit, []

    def recording(amax, react, cfl):
        calls.append(cfl_limit(amax, react, cfl))
        return calls[-1]

    monkeypatch.setattr(sim, "_cfl_limit", recording)
    for compiled in ([True] if sim._library() is not None else []) + [False]:
        if not compiled:
            monkeypatch.setattr(sim, "_library", lambda: None)
        calls.clear()
        cfg = sim.SimConfig(d=4, n=256, s0=50.0, horizon=1.0, cadence=0.25,
                            escape_factor=np.inf)
        res = sim.run(cfg)
        assert len(calls) == len(res.records) == 5
        assert len(set(calls)) == len(calls)
        assert res.dt_max == max(calls[:-1])
        assert res.dt_min < res.dt_max and res.steps >= cfg.horizon / res.dt_max


def test_unstable_mode_ratios_converge_at_first_order_in_dt():
    # a reduced criterion-9 run at fixed dt, dt/2 and dt/4: the last slice's
    # unstable-mode ratios s^2 eps_k / A converge at first order in time
    ratios = []
    for dt in (0.02, 0.01, 0.005):
        cfg = sim.SimConfig(d=4, n=512, s0=50.0, horizon=2.0, cadence=0.1, dt=dt, A=20.0,
                            K=10.0, escape_factor=np.inf, blowup_sup=50.0)
        last = sim.run(cfg).records[-1]
        ratios.append(last.s**2 * last.coefficients[:2] / cfg.A)
    e_coarse, e_fine = ratios[0] - ratios[1], ratios[1] - ratios[2]
    assert np.all(np.abs(e_coarse / e_fine - 2.0) <= 0.5)


def test_stretch_times_equal_the_cumsum_of_a_prepended_time():
    # the times of a stretch, built in place, against the cumsum of
    # np.r_[t, dt, dt, ...] and the same landing rule, bit for bit: the
    # steps of dt, and then the step landing on target that a second call
    # from where they end would take, as a drive loop takes it
    def reference(t, dt, target, most):
        # (dt, times, whether the one step lands)
        times = np.cumsum(np.r_[t, np.full(int(min(most, (target - t) / dt + 1.0)), dt)])
        k = np.count_nonzero((times[:-1] < target - sim._TIME_TOL)
                             & (dt < (target - times[:-1]) - sim._TIME_TOL))
        if k:
            return dt, times[:k + 1], False
        return target - t, np.array([t, t + (target - t)]), True

    def drive(t, dt, target, most):
        h, times, landed = reference(t, dt, target, most)
        k = len(times) - 1
        if not landed and k < most and times[-1] < target - sim._TIME_TOL:
            last, landing, landed = reference(float(times[-1]), dt, target, most - k)
            if landed:
                return h, last, np.r_[times, landing[1]]
        return h, h, times

    rng = np.random.default_rng(11)
    landings = 0
    for _ in range(2000):
        t = float(rng.choice([0.0, 50.0, 1.0 - 1e-4]) + rng.uniform(0.0, 10.0))
        dt = float(10.0 ** rng.uniform(-6.0, -1.0))
        target = t + dt * float(rng.choice([rng.uniform(0.0, 2.0), rng.uniform(0.0, 200.0)]))
        if not t < target - sim._TIME_TOL:
            continue        # a drive takes no step from here
        most = int(rng.choice([1, 7, sim._MAX_STRETCH]))
        got, want = sim._stretch_times(t, dt, target, most), drive(t, dt, target, most)
        assert got[:2] == want[:2] and got[2].tobytes() == want[2].tobytes()
        landings += got[1] != got[0]
    assert landings > 100


@pytest.mark.parametrize("t0", [100.0, 1000.0])
def test_run_fixed_dt_lands_on_record_times(monkeypatch, t0):
    # a late start time makes the float sum of the steps drift from the
    # record times by more than 1e-12 within a few thousand steps
    dts = []
    stretch = sim.Stepper._stretch

    def counting_stretch(self, v, times, dt, last):
        out = stretch(self, v, times, dt, last)
        dts.extend(([dt] * (len(times) - 2) + [last])[:out[1]])
        return out

    monkeypatch.setattr(sim.Stepper, "_stretch", counting_stretch)
    dt, horizon, cadence = 1e-3, 2.0, 0.01
    cfg = sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=t0,
                        horizon=horizon, cadence=cadence, dt=dt,
                        init=np.full(33, 0.1))
    res = sim.run(cfg)
    assert res.verdict == "completed" and res.stop_reason == "horizon"
    assert len(dts) == round(horizon / dt)
    assert min(dts) > dt / 2
    assert len(res.times) == round(horizon / cadence) + 1


def _recording_stretch(monkeypatch):
    """Patch `Stepper._stretch` to log (first time, steps asked, dt) per call."""
    log = []
    stretch = sim.Stepper._stretch

    def recording(self, v, times, dt, last):
        log.append((float(times[0]), len(times) - 1, dt))
        return stretch(self, v, times, dt, last)

    monkeypatch.setattr(sim.Stepper, "_stretch", recording)
    return log


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_drive_by_count_crosses_stretches_as_advance_steps(compiled, monkeypatch):
    # 10000 steps toward no end time run as stretches of 4096, 4096 and 1808
    # and give the bytes of 10000 `_advance` calls, with or without the
    # compiled loop; the record holds the count, the one dt and the kernel
    if compiled and sim._library() is None:
        pytest.skip("no compiled stretch loop")
    if not compiled:
        monkeypatch.setattr(sim, "_library", lambda: None)
    log = _recording_stretch(monkeypatch)
    grid = sim.Grid.uniform(32, 10.0)
    stepper = sim.Stepper(grid, 4, "selfsimilar", "profile")
    v0 = 0.25 + 0.01 * np.cos(grid.nodes)
    dt = 1e-4
    state, error = stepper.advance(sim.RadialState("selfsimilar", 50.0, v0, grid, 4), math.inf,
                                   dt=dt, most=10000)
    assert [k for _, k, _ in log] == [4096, 4096, 1808]
    want, t_want = v0, 50.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(10000):
            want = stepper._advance(want, t_want, dt, _edge(stepper, t_want + dt))
            t_want += dt
    assert error is None and state.time == t_want
    assert state.values.tobytes() == want.tobytes()
    record = stepper.step_record()
    assert (record["steps"], record["dt_min"], record["dt_max"]) == (10000, dt, dt)
    assert record["kernel"] == ("compiled" if compiled else "numpy")


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_profile_boundary_evaluates_q_once_per_stretch(compiled, monkeypatch):
    # the NumPy kernel reads a stretch's boundary values from one array call
    # of Q: 5000 steps in stretches of 4096 and 904 are two calls, not one
    # per step.  At d=4 the compiled loop forms them from the step times
    # itself and calls Q not at all; at d=3 it reads the one array too.  A
    # Neumann stretch evaluates no Q at all
    if compiled and sim._library() is None:
        pytest.skip("no compiled stretch loop")
    if not compiled:
        monkeypatch.setattr(sim, "_library", lambda: None)
    calls = []
    q_of_xi = pr.q_of_xi

    def counting(params, xi):
        calls.append(np.size(xi))
        return q_of_xi(params, xi)

    monkeypatch.setattr(pr, "q_of_xi", counting)
    log = _recording_stretch(monkeypatch)
    grid = sim.Grid.uniform(32, 10.0)
    v0 = 0.25 + 0.01 * np.cos(grid.nodes)
    for d in (4, 3):
        calls.clear()
        for boundary in ("profile", "neumann"):
            stepper = sim.Stepper(grid, d, "selfsimilar", boundary)
            state, error = stepper.advance(sim.RadialState("selfsimilar", 50.0, v0, grid, d),
                                           math.inf, dt=1e-4, most=5000)
            assert error is None and stepper.steps == 5000
        assert calls == ([] if compiled and d == 4 else [4096, 904]), d
    assert [k for _, k, _ in log] == [4096, 904] * 4


def test_capped_cfl_drive_equals_a_step_loop(monkeypatch):
    # the CFL dt of each step's field capped at rate (t_star - t), landing on
    # the target as `_stretch_times` lands: the bytes, step count and dt
    # range of an `_advance` loop, each dt at or below the cap, both bounds
    # binding on the way and the last step cut to land.  The whole drive, one
    # stopped by `most` short of the target, and one in calls of 1 and 5
    # steps as criterion 11 takes it, each with and without the compiled
    # loop: it takes every step itself, the NumPy path one `_stretch` call
    # per step
    grid = sim.Grid.uniform(64, 10.0)
    v0 = 0.1 + 0.4 * np.exp(-grid.nodes**2 / 4.0)
    t0, target, (rate, t_star) = 0.5, 0.9, (0.1, 1.0)
    stepper = sim.Stepper(grid, 4, "physical", "neumann")
    states, dts, bound_by = [sim.RadialState("physical", t0, v0, grid, 4)], [], set()
    while states[-1].time < target - sim._TIME_TOL:
        state = states[-1]
        cfl_dt, cap = stepper.cfl_dt(state, 0.2), rate * (t_star - state.time)
        bound_by.add("cfl" if cfl_dt < cap else "cap")
        dt = min(cfl_dt, cap)
        if dt >= target - state.time - sim._TIME_TOL:
            dt = target - state.time
            bound_by.add("landing")
        with np.errstate(over="ignore", invalid="ignore"):
            values = stepper._advance(state.values, state.time, dt,
                                      _edge(stepper, state.time + dt))
        states.append(sim.RadialState("physical", state.time + dt, values, grid, 4))
        dts.append(dt)
    assert bound_by == {"cfl", "cap", "landing"} and len(dts) == 18
    assert states[-1].time == target
    log = _recording_stretch(monkeypatch)
    for compiled in ([True] if sim._library() is not None else []) + [False]:
        if not compiled:
            monkeypatch.setattr(sim, "_library", lambda: None)
        for calls in ([math.inf], [7], [1, 5, 5, 5, 5]):
            log.clear()
            driver = sim.Stepper(grid, 4, "physical", "neumann")
            got = states[0]
            for most in calls:
                got, error = driver.advance(got, target, cfl=0.2, cap=(rate, t_star), most=most)
                assert error is None
            k = min(sum(calls), len(dts))
            assert got.values.tobytes() == states[k].values.tobytes()
            assert got.time == states[k].time
            record = driver.step_record()
            assert (record["steps"], record["dt_min"], record["dt_max"]) == (
                k, min(dts[:k]), max(dts[:k]))
            assert driver.compiled_steps == (k if compiled else 0)
            assert [dt for _, _, dt in log] == ([] if compiled else dts[:k])
            assert all(dt <= rate * (t_star - s) for s, _, dt in log)
        # a zero field's dt is the cap's; one that stops short of the target
        # by exactly the tolerance lands on it, as `_stretch_times` lands
        zero = sim.RadialState("physical", 0.0, np.zeros(65), grid, 4)
        landed, _ = sim.Stepper(grid, 4, "physical", "neumann").advance(
            zero, 0.5, cfl=0.2, cap=(1.0, 0.5 - sim._TIME_TOL), most=1)
        assert landed.time == 0.5


@pytest.mark.skipif(sim._library() is None, reason="no compiled stretch loop")
def test_compiled_cfl_drive_hands_the_step_it_cannot_take_to_the_per_step_path(monkeypatch):
    # fields that overflow after hundreds of steps at cfl 5; a NaN field, whose
    # step limit is infinite; a zero field, whose one landing step of 1e308
    # overflows the matrix.  The compiled loop stops at or before the step,
    # the per-step path takes it and raises: the state, steps, dt range and
    # error of the NumPy path
    grid = sim.Grid.uniform(64, 10.0)
    rng = np.random.default_rng(5)
    nan = np.full(65, 0.1)
    nan[9] = np.nan
    cases = [(rng.uniform(-2.0, 6.0, 65), 5.0, 10.0, None),
             (rng.uniform(-1.0, 1.0, 65), 5.0, 10.0, (0.1, 20.0)),
             (nan, 0.4, 10.0, (0.1, 1.0)), (np.zeros(65), 0.4, 1e308, None)]

    def drive(v, cfl, target, cap):
        stepper = sim.Stepper(grid, 4, "physical", "neumann")
        state, error = stepper.advance(sim.RadialState("physical", 0.0, v, grid, 4), target,
                                       cfl=cfl, cap=cap)
        return stepper, state, error

    for v, cfl, target, cap in cases:
        stepper, got, error = drive(v, cfl, target, cap)
        with monkeypatch.context() as m:
            m.setattr(sim, "_library", lambda: None)
            reference, want, want_error = drive(v, cfl, target, cap)
        assert got.values.tobytes() == want.values.tobytes() and got.time == want.time
        # the loop counts the factorizations of the step it stops at, which
        # the per-step path then takes again
        compiled = {k: stepper.step_record()[k] for k in ("kernel", "factored")}
        assert stepper.step_record() == {**reference.step_record(), **compiled}
        assert stepper.factored >= reference.factored
        assert type(error) is type(want_error) and str(error) == str(want_error)
        assert stepper.compiled_steps == stepper.steps
    assert [s.steps for s in (stepper, reference)] == [0, 0]
    assert str(error) == "Crank-Nicolson matrix overflowed at dt=1e+308"


@pytest.mark.skipif(sim._library() is None, reason="no compiled step limit")
def test_compiled_cfl_maxima_equal_numpy(monkeypatch):
    # cfl_dt's two maxima from the compiled pass have the bits of np.max's,
    # a NaN (at either end of a cell or inside) passing through, and so has
    # its dt: negative, tiny and NaN fields, infinite entries (dt = 0) and
    # an all-zero field, whose physical dt is infinite
    grid = sim.Grid.geometric(64, 20.0, 1.03)
    n = len(grid.nodes)
    rng = np.random.default_rng(3)
    fields = [rng.uniform(-2.0, 6.0, n), -rng.random(n), 1e-300 * rng.random(n),
              np.zeros(n), np.full(n, -0.0)]
    for at in (0, 17, n - 1):
        fields.append(rng.uniform(-1.0, 1.0, n))
        fields[-1][at] = np.nan
        fields.append(rng.uniform(-1.0, 1.0, n))
        fields[-1][at] = -np.inf
    for frame in ("selfsimilar", "physical"):
        stepper = sim.Stepper(grid, 4, frame, "neumann")
        got, maxima = [], []
        for v in fields:
            got.append(stepper.cfl_dt(sim.RadialState(frame, 0.0, v, grid, 4), 0.4))
            maxima.append(stepper._arrays[-1][:2].copy())
        with np.errstate(invalid="ignore"):
            a = [np.abs(v * grid.nodes) for v in fields]
        want = [[np.max(np.maximum(x[1:], x[:-1]) / np.diff(grid.nodes)),
                 np.max(np.abs(8 * v - stepper.sigma))] for x, v in zip(a, fields)]
        assert np.array(maxima).tobytes() == np.array(want).tobytes()
        with monkeypatch.context() as m, np.errstate(invalid="ignore"):
            m.setattr(sim, "_library", lambda: None)
            plain = [stepper.cfl_dt(sim.RadialState(frame, 0.0, v, grid, 4), 0.4)
                     for v in fields]
        assert np.array(got).tobytes() == np.array(plain).tobytes()
        assert got[3] == (math.inf if frame == "physical" else 0.5)
        assert [math.isinf(dt) for dt in got[5::2]] == [True] * 3
        assert got[6::2] == [0.0] * 3


def _step_loop(cfg):
    """`sim.run` written over the kernel `Stepper._advance`, one state per
    step: the same records, dt rule, landing rule, blowup guard and non-finite
    verdicts."""
    grid = cfg.build_grid()
    state = sim.make_initial_data(cfg, grid)
    stepper = sim.Stepper(grid, cfg.d, cfg.frame, cfg.boundary)
    selfsim = cfg.frame == "selfsimilar"
    ctx = dg.DiagnosticsContext(d=cfg.d, y=grid.nodes, K=cfg.K) if selfsim else None
    limit = cfg.blowup_sup * max(1.0, float(np.max(np.abs(state.values))))
    end = cfg.s0 + cfg.horizon
    out = {"records": [], "times": [], "sup_w": [], "dts": [], "verdict": "completed",
           "message": ""}
    n, next_record, dt_set = 0, cfg.s0, cfg.dt
    while True:
        if state.time >= next_record - sim._TIME_TOL:
            if selfsim:
                if cfg.dt is None:
                    dt_set = stepper.cfl_dt(state, cfg.cfl)
                out["records"].append(dg.decompose(state.values, state.time, ctx, cfg.A))
                sup = out["records"][-1].sup_v
            else:
                w = sim.transform(state.values, grid.nodes, cfg.d, "w")
                out["times"].append(state.time)
                out["sup_w"].append(float(np.max(w)))
                sup = np.max(np.abs(state.values))
            if sup > limit:
                out["verdict"] = "blowup"
                break
            n += 1
            next_record = cfg.s0 + n * cfg.cadence
        if state.time >= end - sim._TIME_TOL:
            if selfsim and all(r.max_ratio() < 1.0 for r in out["records"]):
                out["verdict"] = "trapped"
            break
        dt = dt_set if dt_set is not None else stepper.cfl_dt(state, cfg.cfl)
        gap = min(end, next_record) - state.time
        if dt >= gap - sim._TIME_TOL:
            dt = gap
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                values = stepper._advance(state.values, state.time, dt,
                                          _edge(stepper, state.time + dt))
            state = sim.RadialState(cfg.frame, state.time + dt, values, grid, cfg.d)
        except sim.StateCorruptionError as exc:
            out["verdict"] = "blowup" if np.max(np.abs(state.values)) > limit else "unstable"
            out["message"] = str(exc)
            break
        out["dts"].append(dt)
    return state, out


@pytest.mark.parametrize("cfg", [
    # physical, fixed dt, late start: every record is landed on
    sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=1000.0, horizon=0.5,
                  cadence=0.01, dt=1e-3, init=np.full(33, 0.1)),
    # physical, dt from the state at every step
    sim.SimConfig(d=4, frame="physical", n=64, y_max=10.0, s0=0.0, horizon=2.4,
                  cadence=0.2, init=np.full(65, 0.1)),
    # self-similar, profile boundary, dt from the state at every record
    sim.SimConfig(d=4, n=256, s0=50.0, horizon=1.0, cadence=0.25, escape_factor=np.inf),
    # a field above the guard whose step overflows between records
    sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=0.0, horizon=1.0,
                  cadence=1.0, dt=1e-3, init=np.full(33, 2.0)),
], ids=["physical-fixed-dt", "physical-cfl", "selfsimilar-profile", "nonfinite-step"])
def test_run_inner_loop_equals_step_loop(cfg, monkeypatch):
    # the run steps each stretch of one dt in the compiled loop; a loop of
    # `_advance` with the same rules gives every bit of its result, and so
    # does the run without the compiled loop, which steps through `_advance`
    state, ref = _step_loop(cfg)
    runs = [(sim.run(cfg), "compiled" if sim._library() is not None else "numpy")]
    monkeypatch.setattr(sim, "_library", lambda: None)
    runs.append((sim.run(cfg), "numpy"))
    for res, kernel in runs:
        assert res.kernel == kernel
        assert res.final_state.values.tobytes() == state.values.tobytes()
        assert res.final_state.time == res.exit_time == state.time
        if cfg.frame == "physical":
            assert res.records == [] and len(ref["times"]) >= 1
            assert res.times.tobytes() == np.array(ref["times"]).tobytes()
            assert res.sup_w.tobytes() == np.array(ref["sup_w"]).tobytes()
        else:
            assert res.times is None and len(res.records) == len(ref["records"]) > 1
            for got, want in zip(res.records, ref["records"]):
                for f in fields(got):
                    a, b = getattr(got, f.name), getattr(want, f.name)
                    if isinstance(a, np.ndarray):
                        assert a.tobytes() == b.tobytes()
                    else:
                        assert a == b
        assert res.steps == len(ref["dts"]) > 0
        assert res.dt_min == min(ref["dts"]) and res.dt_max == max(ref["dts"])
        assert res.verdict == ref["verdict"] and res.message == ref["message"]
        assert (res.stop_reason == "non-finite step") == bool(ref["message"])


def test_numpy_path_factors_once_per_stretch_dt(monkeypatch):
    # a record interval's steps of the fixed dt and its step landing on the
    # record, a few ulps off dt, are one stretch: the compiled loop factors
    # both inside its one call, with no call of scipy's dgttrf; without it,
    # `_advance` factors each of the two once, not once per step.  A run
    # that refactors at every step gives the same bytes
    cfg = sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, dt=1e-5, s0=0.0,
                        horizon=0.2, cadence=0.01, init=np.full(33, 0.1))
    calls = []
    dgttrf = lapack.dgttrf

    def counting_dgttrf(*args, **kwargs):
        calls.append(1)
        return dgttrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgttrf", counting_dgttrf)
    runs = [sim.run(cfg)]
    assert len(runs[0].times) == 21 and runs[0].dt_min < runs[0].dt_max
    if runs[0].kernel == "compiled":
        assert calls == []

    monkeypatch.setattr(sim, "_library", lambda: None)
    calls.clear()
    runs.append(sim.run(cfg))
    assert len(runs[1].times) == 21 and len(calls) <= 2 * 20

    factored = sim.Stepper._factored

    def refactor_every_step(self, dt):
        self._factors = None, None
        return factored(self, dt)

    monkeypatch.setattr(sim.Stepper, "_factored", refactor_every_step)
    runs.append(sim.run(cfg))
    assert len(calls) > 20000
    for res in runs[1:]:
        assert res.times.tobytes() == runs[0].times.tobytes()
        assert res.sup_w.tobytes() == runs[0].sup_w.tobytes()
        assert res.final_state.values.tobytes() == runs[0].final_state.values.tobytes()


def test_one_record_interval_is_one_stretch(monkeypatch):
    # a fixed-dt run and a self-similar run at the CFL dt of each record
    # step each record interval, the step landing on the record included,
    # in one `_stretch` call that starts at the record; a d=4 run keeping
    # slices in one `_interval` call, its record call, instead
    log = _recording_stretch(monkeypatch)
    interval = sim.Stepper._interval

    def recording(self, state, target, dt, cfl, ctx):
        steps = self.steps
        out = interval(self, state, target, dt, cfl, ctx)
        log.append((state.time, self.steps - steps, dt))
        return out

    monkeypatch.setattr(sim.Stepper, "_interval", recording)
    for cfg in (sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, s0=1000.0, horizon=0.5,
                              cadence=0.01, dt=1e-3, init=np.full(33, 0.1)),
                sim.SimConfig(d=4, n=256, s0=50.0, horizon=1.0, cadence=0.25,
                              escape_factor=np.inf)):
        log.clear()
        res = sim.run(cfg)
        starts = res.times if res.records == [] else [r.s for r in res.records]
        assert len(log) == len(starts) - 1 > 3
        assert [t for t, _, _ in log] == list(starts[:-1])
        assert sum(k for _, k, _ in log) == res.steps
        assert res.dt_min < res.dt_max      # each interval lands at its own last dt


def _stepped_as_before(self, state, target, dt, cfl, ctx):
    """`Stepper._interval` as `run` stepped a record interval before it had
    a record call: `advance`, with `cfl_dt` and `decompose` measuring the
    record afresh."""
    return (*self.advance(state, target, dt=dt, cfl=cfl), None)


def _run_bits(result, kernel=True):
    """Everything a run reports but its seconds and the matrices it factored
    (and, for kernel False, which kernels ran): each record's bytes, the final
    field and time, the summary"""
    drop = {"step_s", "diag_s", "factored"} | (set() if kernel else {"kernel", "slice_kernel"})
    return (repr({k: v for k, v in result.summary().items() if k not in drop}),
            [repr((r.s, r.coefficients.tobytes(), r.tilde_norm, r.measured, r.ratios,
                   r.verdict, r.worst, r.sup_v, r.sup_dev_profile)) for r in result.records],
            repr(result.final_state.time), result.final_state.values.tobytes())


_CFG10 = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, cadence=0.1, A=20.0, K=10.0)
_ROUGH = sim.SimConfig(d=4, n=256, s0=50.0, horizon=0.3, cadence=0.1, A=20.0, K=10.0,
                       escape_factor=np.inf)
_CHECKER = (np.where(np.arange(257) % 2, 0.1, -0.1)
            * np.exp(-0.01 * _ROUGH.build_grid().nodes ** 2))
_AT_S0 = sim.make_initial_data(replace(_ROUGH, horizon=1.0, cadence=0.25)).values


@pytest.mark.parametrize("cfg, verdict, warned", [pytest.param(*case, id=name) for name, case in {
    # criterion 9's run
    "criterion-9": (sim.SimConfig(d=4, n=2048, s0=50.0, horizon=10.0, cadence=0.1, A=20.0,
                                  K=10.0, escape_factor=np.inf, blowup_sup=50.0),
                    "completed", 0),
    # a criterion-10 probe that exits mode_0 at s = 50.7
    "probe-exits": (replace(_CFG10, dvec=(-0.3, 0.0), stop_on_unstable=True,
                            escape_factor=np.inf), "exit:mode_0", 0),
    # a run that escapes at s0, and a horizon that is not a multiple of the cadence
    "escapes-at-s0": (replace(_CFG10, horizon=2.0, dvec=(0.5, 0.5), escape_factor=0.01),
                      "escaped:l2rho", 0),
    "ragged-horizon": (sim.SimConfig(d=4, n=512, s0=50.0, horizon=0.53, cadence=0.1,
                                     A=20.0, K=10.0, escape_factor=np.inf), "completed", 0),
    # a step that overflows in the second record interval
    "overflows": (replace(_ROUGH, horizon=1.0, cadence=0.25, blowup_sup=np.inf,
                          init=_AT_S0 + 2.0 * np.exp(-(_ROUGH.build_grid().nodes - 3.0) ** 2)),
                  "unstable", 1),
    # slices unresolved: the compiled pass flags them, the NumPy path warns
    "unresolved": (replace(_ROUGH, init=sim.make_initial_data(_ROUGH).values + _CHECKER),
                   "completed", 3),
}.items()])
def test_record_call_equals_advance_and_decompose_bit_for_bit(cfg, verdict, warned, monkeypatch):
    # a d=4 run's record call (`Stepper._interval`) gives the bytes of
    # `advance` and `decompose` taken apart: every record, the final field,
    # the step record, verdict and summary, the message of a step that
    # overflows (the loop stops, `advance` takes the interval again) and the
    # warnings of the NumPy path; and so does the whole run without the
    # compiled passes
    calls = []

    def counting(interval):
        def call(self, *args):
            calls.append(interval)
            return interval(self, *args)
        return call

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = sim.run(cfg)
        assert len(caught) == warned
        return result, [(w.category, str(w.message), w.filename) for w in caught]

    compiled = sim._library() is not None
    monkeypatch.setattr(sim.Stepper, "_interval", counting(sim.Stepper._interval))
    fused, fused_warnings = run()
    intervals = len(calls)
    assert fused.verdict == verdict and (intervals > 0) == (verdict != "escaped:l2rho")
    monkeypatch.setattr(sim.Stepper, "_interval", counting(_stepped_as_before))
    before, before_warnings = run()
    assert len(calls) == 2 * intervals if compiled else calls == []
    assert _run_bits(fused) == _run_bits(before) and fused_warnings == before_warnings
    assert fused.message == before.message and (verdict == "unstable") == bool(fused.message)
    monkeypatch.setattr(sim, "_library", lambda: None)
    monkeypatch.setattr(dg, "_library", lambda: None)
    plain, plain_warnings = run()
    assert _run_bits(fused, kernel=False) == _run_bits(plain, kernel=False)
    assert fused_warnings == plain_warnings
    if compiled:
        assert fused.slice_kernel == ("numpy" if 2 * warned >= len(fused.records) else "compiled")
        assert fused.factored <= 2 * intervals or fused.message


@pytest.mark.skipif(sim._library() is None, reason="no compiled record call")
def test_record_call_hands_a_flagged_slice_to_the_numpy_path():
    # a field whose flat integrand grows toward the end of the domain, and a
    # context whose cutoff support 2K = 60 lies past the grid's end xi = 40:
    # the record call lands, its slice pass flags the field and hands no
    # measurements back, and `decompose` raises from its NumPy path as it
    # raises on the field alone; the landing's dt is `cfl_dt`'s
    cfg = sim.SimConfig(d=4, n=256, s0=50.0, horizon=1.0, cadence=0.25)
    grid = cfg.build_grid()
    stepper = sim.Stepper(grid, 4, "selfsimilar", "profile")
    v = sim.make_initial_data(cfg, grid).values
    for K, tail, raised in ((10.0, 1e-3, dg.NonIntegrableTailError), (30.0, 0.0, dg.CoverageError)):
        ctx = dg.DiagnosticsContext(d=4, y=grid.nodes, K=K)
        start = sim.RadialState("selfsimilar", 50.0, v + tail * (grid.nodes / grid.nodes[-1]) ** 20,
                                grid, 4)
        landed, error, (dt, taken, seconds) = stepper._interval(start, 50.001, 1e-3, 0.4, ctx)
        assert error is None and taken is None and seconds >= 0.0
        assert landed.time == 50.001 and dt == stepper.cfl_dt(landed, 0.4)
        for measured in (taken, None):
            with pytest.raises(raised), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dg.decompose(landed.values, landed.time, ctx, 20.0, measured)
        assert ctx.compiled_slices == 0


def test_a_lone_run_allocates_no_factor_table(monkeypatch):
    # only a search makes a table; a run without one factors each record
    # interval's dt and landing step once, into the stepper's scratch.  A
    # table is checked against the stepper it is handed to
    made = []
    monkeypatch.setattr(sim.FactorTable, "__init__", lambda self, *args: made.append(args))
    res = sim.run(replace(_CFG10, horizon=1.0, escape_factor=np.inf))
    assert made == [] and len(res.records) == 11
    assert res.factored == 2 * 10
    monkeypatch.undo()
    grid = _CFG10.build_grid()
    table = sim.FactorTable(grid, 4, "selfsimilar", "profile")
    assert sim.Stepper(grid, 4, "selfsimilar", "profile", table)
    for other in ((sim.Grid(grid.nodes), 4, "selfsimilar", "profile"),
                  (grid, 3, "selfsimilar", "profile"), (grid, 4, "selfsimilar", "neumann")):
        with pytest.raises(sim.ConfigError, match="factor table"):
            sim.Stepper(*other, table)


def test_run_splits_its_wall_time_by_clock_reads_at_records(monkeypatch):
    # two clock reads per record and one at each end, none per step
    reads = []
    clock = sim.perf_counter

    def counting():
        reads.append(1)
        return clock()

    monkeypatch.setattr(sim, "perf_counter", counting)
    for cfg, slices in ((sim.SimConfig(d=4, frame="physical", n=32, y_max=10.0, dt=1e-3,
                                       s0=0.0, horizon=0.5, cadence=0.1,
                                       init=np.full(33, 0.1)), 6),
                        (sim.SimConfig(d=4, n=256, s0=50.0, horizon=0.5, cadence=0.25,
                                       escape_factor=np.inf), 3)):
        reads.clear()
        res = sim.run(cfg)
        assert len(res.records if res.times is None else res.times) == slices
        assert len(reads) == 2 * slices + 2 and res.steps > len(reads)
        assert res.step_s > 0.0 and res.diag_s > 0.0


def test_run_deterministic_replay(tmp_path):
    cfg = sim.SimConfig(d=4, n=384, s0=50.0, horizon=1.0, cadence=0.25,
                        A=20.0, escape_factor=np.inf)
    res1 = sim.run(cfg)
    res2 = sim.run(cfg)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dg.write_timeseries(f1, res1.records, 2)
    dg.write_timeseries(f2, res2.records, 2)
    assert f1.read_bytes() == f2.read_bytes()


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
    st_ss, _ = stepper_ss.advance(st_ss, math.inf, dt=dt_ss, most=n_steps)
    # physical evolution of the transported data between matching times
    r, t0, vp = sim.selfsimilar_to_physical(v0, y, s0, T)
    gp = sim.Grid(r)
    st_ph = sim.RadialState("physical", t0, vp, gp, d)
    stepper_ph = sim.Stepper(gp, d, "physical", "neumann")
    t1 = T - math.exp(-(s0 + ds_total))
    n_ph = 4000
    dt_ph = (t1 - t0) / n_ph
    st_ph, _ = stepper_ph.advance(st_ph, math.inf, dt=dt_ph, most=n_ph)
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
