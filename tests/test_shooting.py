import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from ksblowup import eigenbasis as eb
from ksblowup import profile as pr
from ksblowup import shooting
from ksblowup import sim


# ---------------------------------------------------------------------------
# linearized toy system with a closed-form trapped value
# ---------------------------------------------------------------------------

A_TOY, S0_TOY, C_TOY, HORIZON_TOY = 20.0, 50.0, 1e-2, 30.0


def _toy_objective(qv):
    """One unstable mode: eps' = eps + c/s^2, exit when |eps| >= A/s^2."""
    q0 = float(qv[0])
    eps = q0 * A_TOY / S0_TOY**2
    s, ds = S0_TOY, 1e-3
    while s < S0_TOY + HORIZON_TOY:
        eps += ds * (eps + C_TOY / s**2)
        s += ds
        if abs(eps) >= A_TOY / s**2:
            return shooting.ExitRecord(
                dvec=(q0, 0.0), s_exit=s,
                exit_vector=np.array([eps * s**2 / A_TOY, 0.0]),
                outcome="exit:mode_0", transverse_ok=True, records=[])
    return shooting.ExitRecord(
        dvec=(q0, 0.0), s_exit=s, exit_vector=np.array([eps * s**2 / A_TOY, 0.0]),
        outcome="trapped", transverse_ok=None, records=[])


def _toy_trapped_value():
    val = quad(lambda u: math.exp(-u) * C_TOY / (S0_TOY + u) ** 2, 0, 60)[0]
    return -val * S0_TOY**2 / A_TOY


@pytest.mark.parametrize("budget", [16, 32])
def test_toy_bisection_recovers_trapped_value(budget):
    cfg = sim.SimConfig(d=4, n=64, y_max=20.0, s0=S0_TOY, horizon=HORIZON_TOY, A=A_TOY)
    res = shooting.trap_search(cfg, budget, objective_fn=_toy_objective,
                               q_radii=np.array([1.0, 1.0]))
    lo, hi = res.brackets[0]
    q_star = _toy_trapped_value()
    assert lo <= q_star <= hi or abs(0.5 * (lo + hi) - q_star) < 2.0 ** (-budget / 4)
    assert abs(0.5 * (lo + hi) - q_star) < 2.0 ** (-budget / 4)


def test_toy_exit_times_monotone():
    cfg = sim.SimConfig(d=4, n=64, y_max=20.0, s0=S0_TOY, horizon=HORIZON_TOY, A=A_TOY)
    res = shooting.trap_search(cfg, 24, objective_fn=_toy_objective,
                               q_radii=np.array([1.0, 1.0]))
    sx = [h["s_exit"] for h in res.history]
    running = np.maximum.accumulate(sx)
    assert np.all(np.diff(running) >= 0)


def test_budget_one_returns_single_probe():
    cfg = sim.SimConfig(d=4, n=64, y_max=20.0, s0=S0_TOY, horizon=HORIZON_TOY, A=A_TOY)
    res = shooting.trap_search(cfg, 1, objective_fn=_toy_objective,
                               q_radii=np.array([1.0, 1.0]))
    assert len(res.history) == 1
    assert res.verdict.startswith("exit:")
    with pytest.raises(sim.ConfigError):
        shooting.trap_search(cfg, 0, objective_fn=_toy_objective)


def test_probes_rank_trapped_then_survived_then_the_longest_exit():
    def probe(outcome, s_exit):
        return shooting.ExitRecord(dvec=(0.0, 0.0), s_exit=s_exit, exit_vector=np.zeros(2),
                                   outcome=outcome, transverse_ok=None, records=[])

    ranked = [probe("trapped", 50.5), probe("survived", 50.5), probe("survived", 50.2),
              probe("exit:mode_1", 52.0), probe("blowup", 51.5), probe("exit:mode_0", 51.0)]
    assert sorted(ranked[::-1], key=lambda r: r.rank, reverse=True) == ranked
    assert [r.exit_mode for r in ranked] == [None, None, None, 1, None, 0]


def test_toy_search_deterministic():
    cfg = sim.SimConfig(d=4, n=64, y_max=20.0, s0=S0_TOY, horizon=HORIZON_TOY, A=A_TOY)
    r1 = shooting.trap_search(cfg, 12, objective_fn=_toy_objective,
                              q_radii=np.array([1.0, 1.0]))
    r2 = shooting.trap_search(cfg, 12, objective_fn=_toy_objective,
                              q_radii=np.array([1.0, 1.0]))
    for h1, h2 in zip(r1.history, r2.history):
        assert np.array_equal(h1["q"], h2["q"])
        assert h1["s_exit"] == h2["s_exit"]


# ---------------------------------------------------------------------------
# objective on the real dynamics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_cfg():
    # A large enough that the parameter bump dominates the forced drift of
    # the error modes, so the linearized exit picture is observable in-box
    return sim.SimConfig(d=4, n=512, s0=50.0, horizon=4.0, cadence=0.1,
                         A=2000.0, K=10.0)


def test_objective_validates_parameters(small_cfg):
    with pytest.raises(sim.ConfigError):
        shooting.objective((0.1,), small_cfg)
    with pytest.raises(sim.ConfigError):
        shooting.objective((1.5, 0.0), small_cfg)


def test_objective_large_d0_exits_early_mode0(small_cfg):
    rec = shooting.objective((0.9, 0.0), small_cfg)
    assert rec.exit_mode == 0 and rec.run["stop_reason"] == "mode exit"
    assert rec.s_exit < 52.5
    assert abs(rec.exit_vector[0]) >= abs(rec.exit_vector[1])
    assert rec.transverse_ok


def test_objective_sign_flip(small_cfg):
    plus = shooting.objective((0.5, 0.0), small_cfg)
    minus = shooting.objective((-0.5, 0.0), small_cfg)
    assert plus.exit_mode == 0 and minus.exit_mode == 0
    assert np.sign(plus.exit_vector[0]) == 1.0
    assert np.sign(minus.exit_vector[0]) == -1.0


def test_objective_transversality_at_exits(small_cfg):
    checked = 0
    for dvec in ((0.6, 0.1), (-0.3, 0.05), (0.2, -0.1)):
        rec = shooting.objective(dvec, small_cfg)
        # exits at the very first slice carry no derivative estimate
        if rec.exit_mode is not None and rec.transverse_ok is not None:
            assert rec.transverse_ok
            checked += 1
    assert checked >= 2


# ---------------------------------------------------------------------------
# mixing matrix and the real search
# ---------------------------------------------------------------------------

def test_mixing_matrix_wide_cutoff_near_identity():
    cfg = sim.SimConfig(d=4, n=1024, s0=11.5, horizon=2.0, A=15.0, K=10.0)
    m = shooting.mixing_matrix(replace(cfg, bump_K=4.0))
    assert np.allclose(np.diag(m), 1.0, atol=0.05)
    assert abs(m[0, 1]) < 0.1 and abs(m[1, 0]) < 0.1


def test_mixing_matrix_desk_scale_is_singularish():
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=2.0, A=20.0, K=10.0)
    m = shooting.mixing_matrix(cfg)
    # the unit-scale cutoff sits inside the weighted bulk at s0=50: strong
    # mixing and a small determinant
    assert abs(np.linalg.det(m)) < 0.05
    assert m[0, 0] > 0 and m[1, 1] > 0


def test_real_search_improves_exit_time():
    cfg = sim.SimConfig(d=4, n=768, s0=50.0, horizon=8.0, cadence=0.1,
                        A=2000.0, K=10.0)
    res = shooting.trap_search(cfg, budget=14)
    sx = [h["s_exit"] for h in res.history]
    running = np.maximum.accumulate(sx)
    assert np.all(np.diff(running) >= 0)
    assert running[-1] > running[0] + 1.0
    exits = [h for h in res.history if h["exit_mode"] is not None]
    assert all(h["transverse_ok"] for h in exits if h["transverse_ok"] is not None)
    assert res.verdict in ("survived", "trapped") or res.s_exit > 52.0


def test_unstable_probe_neither_survives_nor_traps():
    # the probe's run goes non-finite from within the blowup limit (a fixed dt
    # of 1e300): it has no exit mode to steer on and did not survive
    cfg = sim.SimConfig(d=4, n=64, y_max=60.0, s0=50.0, horizon=1e300, cadence=1e300,
                        dt=1e300)
    res = shooting.trap_search(cfg, budget=3)
    (probe,) = res.history
    assert probe["verdict"] == "unstable" and probe["exit_mode"] is None
    assert probe["steps"] == 0
    assert res.verdict == "unstable"


def test_overflowing_matrix_ends_run_and_search_in_a_verdict():
    # at a fixed dt of 1e307 the entries of the Crank-Nicolson matrix
    # overflow to inf; the run reads that as a verdict instead of raising
    cfg = sim.SimConfig(d=4, n=64, y_max=60.0, s0=50.0, horizon=1e307, cadence=1e307,
                        dt=1e307)
    res = sim.run(cfg)
    assert res.verdict == "unstable" and res.steps == 0
    assert "overflowed" in res.message
    search = shooting.trap_search(cfg, budget=3)
    (probe,) = search.history
    assert probe["verdict"] == "unstable" and probe["exit_mode"] is None
    assert probe["stop_reason"] == res.stop_reason == "non-finite step"
    assert search.verdict == "unstable"


def test_profile_params_built_once_per_dimension_not_per_probe(monkeypatch):
    for d in (3, 4):
        p = pr.make_profile_params(d)
        assert pr.make_profile_params(d) is p
        assert p == pr.make_profile_params.__wrapped__(d)
    # count the exact-algebra work of one uncached build, then of a search
    calls = []
    compute_b = eb.compute_B

    def counting(d):
        calls.append(d)
        return compute_b(d)

    monkeypatch.setattr(eb, "compute_B", counting)
    pr.make_profile_params.__wrapped__(4)
    per_build = len(calls)
    assert per_build > 0
    calls.clear()
    pr.make_profile_params.cache_clear()
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, cadence=0.1, A=20.0, K=10.0)
    res = shooting.trap_search(cfg, budget=3)
    assert len(res.history) == 3
    assert len(calls) == per_build
    # each probe's split of its wall time is logged next to it
    for h in res.history:
        assert 0.0 < h["step_s"] and 0.0 < h["diag_s"]
        assert h["step_s"] + h["diag_s"] <= h["wall_s"]


def test_probes_share_the_grid_its_stepper_tables_and_modes(monkeypatch):
    # every probe of a search runs on the one read-only grid of its config,
    # whose stepper tables and unstable-mode stack (the mixing matrix's too)
    # are built once, not once per probe
    stacks, grids = [], []
    explicit_stack, run = sim._explicit_stack, sim.run

    def counting_stack(*args):
        stacks.append(1)
        return explicit_stack(*args)

    def recording(*args, **kwargs):
        out = run(*args, **kwargs)
        grids.append(out.final_state.grid)
        return out

    monkeypatch.setattr(sim, "_explicit_stack", counting_stack)
    monkeypatch.setattr(sim, "run", recording)
    for cache in (sim.Grid.uniform, sim._grid_tables, sim.unstable_modes):
        cache.cache_clear()
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, cadence=0.1, A=20.0, K=10.0)
    res = shooting.trap_search(cfg, budget=4)
    assert len(res.history) == len(grids) == 4
    assert all(g is cfg.build_grid() for g in grids)
    assert not grids[0].nodes.flags.writeable
    assert len(stacks) == 1 and sim.unstable_modes.cache_info().misses == 1
    assert not sim.unstable_modes(4, grids[0], 50.0, 1.0).flags.writeable


def test_search_history_round_trips_through_plain_json():
    # each probe is logged once, in JSON-native values: no converter needed
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, cadence=0.1, A=20.0, K=10.0)
    res = shooting.trap_search(cfg, budget=3)
    assert len(res.history) == 3
    assert json.loads(json.dumps(res.history)) == res.history
    summary = res.summary()
    assert json.loads(json.dumps(summary)) == summary
    assert summary["probes"] is res.history and summary["verdict"] == res.verdict
    assert summary["brackets"] == res.brackets and len(res.brackets) == 2
    best = max(res.history, key=lambda h: h["s_exit"])
    assert summary["parameters"] == best["d"] and summary["s_exit"] == best["s_exit"]
    for h in res.history:
        assert h["exit_mode"] == 0 and h["verdict"] == "exit:mode_0"
        assert len(h["q"]) == len(h["exit_vector"]) == 2 and h["steps"] > 0


def test_d3_search_smoke():
    # the 3-parameter search path runs end to end
    cfg = sim.SimConfig(d=3, n=768, s0=50.0, horizon=2.0, cadence=0.25,
                        A=2000.0, K=10.0)
    res = shooting.trap_search(cfg, budget=3)
    assert len(res.history) >= 1
    assert len(res.parameters) == 3
    assert res.mixing.shape == (3, 3)


def test_full_shrinking_set_trap_at_feasible_parameters():
    """At a starting time where the cutoff has left the bulk of the weighted
    measure (wide-cutoff family, s0=200) the search finds a trajectory with
    every shrinking-set ratio below one over the whole horizon."""
    cfg = sim.SimConfig(d=4, n=2048, s0=200.0, horizon=8.0, cadence=0.1,
                        A=2.0e4, K=10.0, bump_K=4.0)
    res = shooting.trap_search(cfg, budget=14, q_radii=np.array([0.3, 0.3]))
    assert np.array_equal(res.mixing, shooting.mixing_matrix(cfg))
    assert res.verdict == "trapped"
    ratios = [r.max_ratio() for r in res.trajectory]
    assert max(ratios) < 1.0
    sx = [h["s_exit"] for h in res.history]
    running = np.maximum.accumulate(sx)
    assert np.all(np.diff(running) >= 0)
