"""Each benchmark check accepts a right answer and rejects a wrong one.

Run with `python3 -m pytest perfbench/tests`.  Inputs are tiny or synthetic,
so the file runs in seconds.
"""

import json
import os
import types

import numpy as np
import pytest

import checks
import layers
import spans
import workloads
from ksblowup import eigenbasis as eb
from ksblowup import shooting, sim

S = np.arange(50.0, 60.0 + 1e-9, 0.1)


def _coeffs(null):
    c = np.zeros((len(S), 4))
    c[:, 2] = null
    return c


# -- selfsim_run --------------------------------------------------------------

def test_null_mode_slope_gate():
    assert checks.null_mode_slope(S, S**-2.0) <= checks.NULL_SLOPE_GATE
    # an extra 1e-3/s term makes the residual decay like s^-2
    assert checks.null_mode_slope(S, S**-2.0 + 1e-3 / S) > checks.NULL_SLOPE_GATE


def test_outer_node_matches_closed_form_and_rejects_perturbation():
    cfg = sim.SimConfig(d=4, n=128, s0=50.0, horizon=0.3, cadence=0.1, escape_factor=np.inf,
                        track_bounds=False)
    final = sim.run(cfg).final_state
    y_out = cfg.build_grid().nodes[-1]
    args = (S, _coeffs(S**-2.0))
    good = float(final.values[-1])
    assert checks.selfsim_problems(*args, good, y_out, final.time, workloads.C_D4) == []
    bad = checks.selfsim_problems(*args, good * (1 + 1e-9), y_out, final.time, workloads.C_D4)
    assert len(bad) == 1 and "outer node" in bad[0]
    slow = checks.selfsim_problems(S, _coeffs(S**-2.0 + 1e-3 / S), good, y_out,
                                   final.time, workloads.C_D4)
    assert len(slow) == 1 and "slope" in slow[0]


def test_profile_closed_form_solves_the_profile_equation():
    xi = np.geomspace(1e-3, 1e3, 50)
    q = checks.profile_q_d4(workloads.C_D4, xi)
    assert np.max(np.abs(workloads.C_D4 * xi**4 * q**2 + 4 * q - 1)) < 1e-14


# -- trap_search --------------------------------------------------------------

A = 20.0


def _exit(before, after):
    """Two slices at s=50, 50.1 with unstable-mode ratios s^2 |eps| / A."""
    s = np.array([50.0, 50.1])
    c = np.zeros((2, 4))
    c[:, :2] = np.array([before, after]) * A / s[:, None] ** 2
    return s, c


def test_probe_exit_accepted():
    s, c = _exit([0.9, 0.2], [1.01, 0.2])
    assert checks.probe_problems(s, c, 0, A, 2, True) == []


@pytest.mark.parametrize("before, after, mode, finite, word", [
    ([0.9, 0.2], [0.99, 0.2], 0, True, "ratio"),          # exit below the bound
    ([1.0, 0.2], [1.01, 0.2], 0, True, "before"),         # was already out
    ([0.9, 0.95], [1.01, 0.0], 0, True, "transversal"),    # sum eps^2 falls
    ([0.9, 0.2], [1.01, 0.2], 0, False, "finite"),
])
def test_probe_checks_reject(before, after, mode, finite, word):
    s, c = _exit(before, after)
    probs = checks.probe_problems(s, c, mode, A, 2, finite)
    assert probs and any(word in p for p in probs)


def test_mixing_matrix_check():
    cfg = sim.SimConfig(d=4, n=256, s0=50.0, horizon=20.0, A=A, K=10.0)
    y = cfg.build_grid().nodes
    m = shooting.mixing_matrix(cfg, y=y)
    phi = [eb.partial_mass_eigen(4, i).coeffs for i in range(2)]
    assert checks.mixing_problems(m, phi, 4, 50.0, y) == []
    wrong = m.copy()
    wrong[0, 1] *= 1.001
    assert checks.mixing_problems(wrong, phi, 4, 50.0, y)
    # a matrix for another s0 is rejected too
    assert checks.mixing_problems(m, phi, 4, 55.0, y)


# -- physical_blowup ----------------------------------------------------------

def test_physical_slices_of_a_short_run():
    d, v0 = 4, 0.1
    cfg = sim.SimConfig(d=d, frame="physical", n=32, y_max=10.0, dt=1e-4, s0=0.0,
                        horizon=1.0, cadence=0.1, init=np.full(33, v0))
    res = sim.run(cfg)
    assert checks.slice_problems(res.times, res.sup_w, v0, d) == [None] * 11
    # the same slices against a blowup time 1% later are rejected
    assert any(checks.slice_problems(res.times, res.sup_w, v0 / 1.01, d))


def test_physical_final_field_and_blowup_time():
    d, v0, dt = 4, 0.1, 1e-5
    t = 2.25
    exact = np.full(33, checks.constant_field_exact(v0, d, t))
    assert checks.physical_problems(exact, t, 2.5 + 2.5e-5, v0, d, dt) == []
    shifted = checks.physical_problems(exact, t, 2.5 + 2e-4, v0, d, dt)
    assert len(shifted) == 1 and "blowup time" in shifted[0]
    wrong = checks.physical_problems(exact * (1 + 2e-3), t, 2.5, v0, d, dt)
    assert len(wrong) == 1 and "final field" in wrong[0]


# -- ansatz_slopes ------------------------------------------------------------

def _slopes_input(ell, k_power=None):
    svals = 2.5e5 * np.array([1.0, 2.0, 4.0, 8.0])
    proj = np.stack([svals ** (-3.0 if k == ell else -2.0) for k in range(2 * ell)], axis=1)
    if k_power is not None:
        proj[:, 0] = svals ** k_power
    return svals, proj, svals ** (-1.0 - 3.0 / (2 * ell))


def test_slope_check():
    assert checks.slope_problems(*_slopes_input(2), 2) == []
    bad = checks.slope_problems(*_slopes_input(2, k_power=-1.5), 2)
    assert len(bad) == 1 and "mode 0" in bad[0]
    svals, proj, flat = _slopes_input(2)
    assert checks.slope_problems(svals, proj, flat * svals**0.5, 2)


def test_decimal_double_agreement():
    _, proj, _ = _slopes_input(3)
    assert checks.decimal_problems(proj, proj * (1 + 1e-6), 3) == [None] * 4
    off = proj.copy()
    off[2, 0] *= 1 + 1e-3
    found = checks.decimal_problems(off, proj, 3)
    assert found[2] is not None and found[:2] + found[3:] == [None] * 3
    # the null mode is not compared: double precision does not resolve it
    null = proj.copy()
    null[:, 3] *= 2.0
    assert checks.decimal_problems(null, proj, 3) == [None] * 4


# -- tally, tracer and the declared metrics -----------------------------------

def test_tally_counts_whole_round_and_missing_operations():
    assert workloads._tally([None, None], [], 2).failed == 0
    assert workloads._tally([None, "x"], [], 2).failed == 1
    assert workloads._tally([None, None], ["wrong slope"], 2).failed == 2
    assert workloads._tally([None], [], 3).failed == 2
    assert workloads._tally([None] * 3, [], 2).failed == 2


def test_tracer_spans_and_self_time():
    mod = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    inner.__module__ = outer.__module__ = "toy"
    mod.inner, mod.outer = inner, outer
    tracer = spans.Tracer(values={"toy.outer": lambda a, k: a[0]})
    tracer.install([mod])
    assert mod.outer(3) == 8
    tracer.uninstall()
    assert mod.outer is outer and mod.inner is inner
    t = tracer.spans()
    (o,), (i,) = t.indices("toy.outer"), t.indices("toy.inner")
    assert t.parent[i] == o and t.parent[o] == -1 and t.value[o] == 3
    assert abs(t.self_time(o) - (t.duration(o) - t.duration(i))) < 1e-12
    assert t.outermost(("toy.outer", "toy.inner")) == [o]


def test_benchmark_json_declares_the_reported_metrics():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.METRICS
    import run
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
