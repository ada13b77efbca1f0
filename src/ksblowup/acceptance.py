"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion returns a CriterionResult with a pass/fail flag and a detail
string carrying the measured numbers, so failures are self-explanatory.
Criteria 8-10 encode asymptotic-regime laws at fixed moderate parameters;
their functions measure exactly what is pinned and report honestly.  Criteria
8 and 10 fail there; their docstrings say why.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import diagnostics as dg
from . import eigenbasis as eb
from . import profile as pr
from . import shooting
from . import sim
from .exactpoly import ExactPoly


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    runs: list = field(default_factory=list)   # one dict per simulation run behind it

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag}  {self.name} ({self.seconds:.1f} s): {self.detail}"

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail, "seconds": self.seconds, "runs": self.runs}


def _result(name, started, passed, detail, runs=()) -> CriterionResult:
    return CriterionResult(name=name, passed=bool(passed), detail=detail,
                           seconds=time.time() - started, runs=list(runs))


# ---------------------------------------------------------------------------
# Golden values (exact integer/rational listings)
# ---------------------------------------------------------------------------

GOLDEN_H = {
    3: [
        [1],
        [-6, 1],
        [60, -20, 1],
        [-840, 420, -42, 1],
        [15120, -10080, 1512, -72, 1],
        [-332640, 277200, -55440, 3960, -110, 1],
        [8648640, -8648640, 2162160, -205920, 8580, -156, 1],
    ],
    4: [
        [1],
        [-8, 1],
        [96, -24, 1],
        [-1536, 576, -48, 1],
        [30720, -15360, 1920, -80, 1],
    ],
}

GOLDEN_NONLOCAL = {
    3: ["705600", "-940800", "364560", "-57792", "12628/3", "-416/3", "5/3"],
    4: ["9216", "-5760", "1056", "-70", "3/2"],
}

GOLDEN_PHI = {
    3: ["-280", "28", "-2/3", "1/243"],
    4: ["24", "-2", "1/32"],
}

# residual polynomial minus its -B*phi part, ascending powers of y^2
GOLDEN_P_REST = {
    3: ["235200", "-62720", "17360/3", "-19264/81", "1148/243", "-4/243"],
    4: ["2304", "-480", "33", "-1/8"],
}

GOLDEN_B = {3: Fraction(39360), 4: Fraction(576)}
GOLDEN_C = {3: Fraction(1, 118080), 4: Fraction(1, 288)}


def _poly_equal(p: ExactPoly, coeffs) -> bool:
    want = [Fraction(c) for c in coeffs]
    return list(p.coeffs) == want


# ---------------------------------------------------------------------------
# Criteria 1-4: exact algebra
# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    t0 = time.time()
    bad = []
    for d in (3, 4):
        if eb.compute_B(d) != GOLDEN_B[d]:
            bad.append(f"compute_B({d})={eb.compute_B(d)} != {GOLDEN_B[d]}")
        if eb.compute_c(d) != GOLDEN_C[d]:
            bad.append(f"compute_c({d})={eb.compute_c(d)} != {GOLDEN_C[d]}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1.0
    detail = (f"B3={GOLDEN_B[3]} B2={GOLDEN_B[4]} c3={GOLDEN_C[3]} c2={GOLDEN_C[4]} "
              f"all exact ({elapsed:.3f} s)") if not bad else "; ".join(bad)
    return _result("1 exact constants", t0, ok, detail)


def criterion_2() -> CriterionResult:
    t0 = time.time()
    bad = []
    for d, listing in GOLDEN_H.items():
        for n, coeffs in enumerate(listing):
            if not _poly_equal(eb.kummer_eigenpoly(d, n), coeffs):
                bad.append(f"H_{n}(d={d})")
    for d, coeffs in GOLDEN_NONLOCAL.items():
        if not _poly_equal(eb.nonlocal_expand(d), coeffs):
            bad.append(f"nonlocal(d={d})")
    for d, coeffs in GOLDEN_PHI.items():
        if not _poly_equal(eb.partial_mass_eigen(d, eb.ell_of(d)), coeffs):
            bad.append(f"phi(d={d})")
    for d, coeffs in GOLDEN_P_REST.items():
        rest = eb.build_residual_poly(d) + GOLDEN_B[d] * eb.partial_mass_eigen(d, eb.ell_of(d))
        if not _poly_equal(rest, coeffs):
            bad.append(f"P(d={d})")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 1.0
    detail = "all listings match exactly" if not bad else "mismatch: " + ", ".join(bad)
    return _result("2 golden polynomials", t0, ok, f"{detail} ({elapsed:.3f} s)")


def criterion_3() -> CriterionResult:
    t0 = time.time()
    parts = []
    ok = True
    for d in (3, 4):
        ell = eb.ell_of(d)
        phi = eb.partial_mass_eigen(d, ell)
        den = eb.inner_product(d, "rho", phi, phi)
        proj = eb.inner_product(d, "rho", eb.build_residual_poly(d), phi) / den
        quad = d * phi * phi + Fraction(1, 2) * (phi * phi).euler()
        bb = eb.inner_product(d, "rho", quad, phi) / den
        ok = ok and proj == 0 and bb == GOLDEN_B[d]
        parts.append(f"d={d}: proj={proj} B-check={bb}")
    return _result("3 null projection", t0, ok, "; ".join(parts))


def criterion_4() -> CriterionResult:
    t0 = time.time()
    bad = []
    for d in (3, 4):
        alpha = eb.alpha_of(d)
        ell = eb.ell_of(d)
        for n in range(9):
            hy = eb.kummer_eigenpoly(d, n).to_y(2 * alpha)
            res = hy.laplacian(d) - alpha * hy.euler() + 2 * n * alpha * hy
            if not res.is_zero():
                bad.append(f"density eigenrelation n={n} d={d}")
            ph = eb.partial_mass_eigen(d, n)
            res2 = ph.laplacian(d + 2) - Fraction(1, 2 * ell) * ph.euler() + Fraction(n, ell) * ph
            if not res2.is_zero():
                bad.append(f"mass eigenrelation n={n} d={d}")
            for m in range(n):
                hm = eb.kummer_eigenpoly(d, m)
                if eb.inner_product(d, "w", eb.kummer_eigenpoly(d, n), hm) != 0:
                    bad.append(f"w-orthogonality ({n},{m}) d={d}")
                if eb.inner_product(d, "rho", ph, eb.partial_mass_eigen(d, m)) != 0:
                    bad.append(f"rho-orthogonality ({n},{m}) d={d}")
    ok = not bad
    return _result("4 orthogonality and eigenrelations", t0, ok,
                   "all exact (n,m <= 8, both weights, both d)" if ok else "; ".join(bad))


# ---------------------------------------------------------------------------
# Criterion 5: profile
# ---------------------------------------------------------------------------

def criterion_5() -> CriterionResult:
    t0 = time.time()
    parts = []
    ok = True
    for d in (3, 4):
        p = pr.make_profile_params(d)
        xi = np.geomspace(1e-6, 1e6, 301)
        res = np.max(np.abs(pr.q_residual(p, xi)))
        taylor = pr.q_deficit(p, 1e-3) / 1e-3 ** (2 * p.ell)
        lim = p.c / p.d ** (p.ell + 1)
        t_err = abs(taylor - lim)
        t_rel = t_err / lim
        tail = 1e6 * pr.q_of_xi(p, 1e3)
        tail_rel = abs(tail - p.c ** (-1.0 / p.ell)) / p.c ** (-1.0 / p.ell)
        ok = ok and res <= 1e-12 and t_err <= 1e-6 and t_rel <= 1e-6 and tail_rel <= 5e-3
        parts.append(f"d={d}: res={res:.1e} taylor_rel={t_rel:.1e} tail_rel={tail_rel:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    return _result("5 profile", t0, ok, "; ".join(parts) + f" ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# Criterion 6: discrete spectrum
# ---------------------------------------------------------------------------

def criterion_6() -> CriterionResult:
    t0 = time.time()
    parts = []
    ok = True
    for d in (3, 4):
        ell = eb.ell_of(d)
        vals = dg.discrete_spectrum(d, n=2000, y_max=30.0, count=6)
        err = float(np.max(np.abs(vals - (-np.arange(6) / ell))))
        ok = ok and err <= 1e-3
        parts.append(f"d={d}: max err={err:.2e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    return _result("6 discrete spectrum", t0, ok, "; ".join(parts) + f" ({elapsed:.2f} s)")


# ---------------------------------------------------------------------------
# Criterion 7: simulator correctness
# ---------------------------------------------------------------------------

def _step_loop(state, dt: float, steps: int, runs: list):
    """`steps` Neumann steps of `state` at a fixed dt, driven by count toward
    no end time (`Stepper._drive`); appends the run's d, step record and wall
    seconds stepping to `runs`."""
    started = time.perf_counter()
    stepper = sim.Stepper(state.grid, state.d, state.frame, "neumann")
    values, t, error = stepper._drive(state.values, state.time, math.inf, dt=dt, most=steps)
    if error is not None:
        raise error
    runs.append({"d": state.d, **stepper.step_record(), "step_s": time.perf_counter() - started})
    return sim.RadialState(state.frame, t, values, state.grid, state.d)


def _constant_field_error(dt: float, runs: list, v0=0.1, sigma=1.0, d=4) -> float:
    grid = sim.Grid.uniform(32, 10.0)
    state = sim.RadialState("selfsimilar", 1.0, np.full(33, v0), grid, d)
    state = _step_loop(state, dt, int(round(sigma / dt)), runs)
    exact = 1.0 / (d + (1.0 / v0 - d) * math.exp(sigma))
    return float(np.max(np.abs(state.values - exact)))


def criterion_7() -> CriterionResult:
    t0 = time.time()
    parts = []
    runs = []
    ok = True
    for d in (3, 4):
        grid = sim.Grid.uniform(64, 20.0)
        state = sim.RadialState("selfsimilar", 50.0, np.full(65, 1.0 / d), grid, d)
        state = _step_loop(state, 1e-3, 10000, runs)
        drift = float(np.max(np.abs(state.values - 1.0 / d)))
        ok = ok and drift <= 1e-10
        parts.append(f"steady d={d}: drift={drift:.1e}")
    e1 = _constant_field_error(1e-4, runs)
    e2 = _constant_field_error(5e-5, runs)
    order_ratio = e1 / e2
    ok = ok and e1 <= 1e-6 and 1.6 <= order_ratio <= 2.4
    parts.append(f"ODE err(1e-4)={e1:.2e} halving ratio={order_ratio:.2f} (first order)")
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    return _result("7 simulator correctness", t0, ok, "; ".join(parts) + f" ({elapsed:.1f} s)",
                   runs)


# ---------------------------------------------------------------------------
# Criterion 8: error-decomposition slopes, pinned at s in {50,100,200,400}
# ---------------------------------------------------------------------------

CRITERION_8_WINDOWS = {3: (50.0, 100.0, 200.0, 400.0), 4: (50.0, 100.0, 200.0, 400.0)}


# domain and Gauss-Legendre nodes per piece of the criterion-8 projections
PROJECTION_Y_MAX = 80.0
GAUSS_NODES = 128


def _kink_gauss_rule(a: float):
    """Composite Gauss-Legendre nodes and weights on [0, a], [a, 2a] and
    [2a, PROJECTION_Y_MAX], each clipped to [0, PROJECTION_Y_MAX]; pieces
    that clip to nothing are dropped."""
    x, w = np.polynomial.legendre.leggauss(GAUSS_NODES)
    edges = np.unique(np.clip([0.0, a, 2.0 * a, PROJECTION_Y_MAX], 0.0, PROJECTION_Y_MAX))
    half = 0.5 * np.diff(edges)
    y = np.concatenate([lo + h * (x + 1.0) for lo, h in zip(edges[:-1], half)])
    return y, np.concatenate([h * w for h in half])


def ansatz_error_projections(d: int, svals, digits=None):
    """Normalized rho-projections of the analytic ansatz error at each s.

    The error is smooth on [0, 80] except at the unit cutoff's C^2 kinks,
    y = a and 2a with a = s^(1/(2l)), so each s gets its own composite
    Gauss-Legendre rule: 128 nodes on each of [0, a], [a, 2a] and [2a, 80]
    (clipped to [0, 80]), so 384 nodes, or 256 once 2a > 80.  The mode
    samples and the exact norms `diagnostics.rho_norm_sq_true` do the
    projection.

    With `digits` the error is evaluated in decimal arithmetic at that many
    significant digits (`profile.ansatz_residual_decimal`) before projecting.
    """
    dg.check_coverage(d, PROJECTION_Y_MAX)
    p = pr.make_profile_params(d)
    ell = p.ell
    modes = [eb.partial_mass_eigen(d, k) for k in range(2 * ell)]
    norm_sq = np.array([dg.rho_norm_sq_true(d, k) for k in range(2 * ell)])
    out = np.empty((len(svals), 2 * ell))
    for i, s in enumerate(svals):
        y, w = _kink_gauss_rule(float(s) ** (1.0 / (2 * ell)))
        if digits is None:
            err = pr.ansatz_residual(p, y, s)
        else:
            err = pr.ansatz_residual_decimal(p, y, s, digits=digits)
        weighted = dg.rho_weight(d, y) * w * err
        out[i] = [np.dot(m.evalf(y), weighted) for m in modes] / norm_sq
    return out


def criterion_8(windows=None, digits=None) -> CriterionResult:
    """Decay slopes of the ansatz error: -2 for modes k != l, -3 for the null
    mode k = l, -1-3/(2l) for the intermediate-region (flat) norm, each +-0.3.

    `windows` maps d to the self-similar times of the log-log fits (default
    CRITERION_8_WINDOWS); `digits` maps d to the decimal precision of the
    ansatz error behind the mode projections (unlisted: double precision).
    The projections use composite Gauss-Legendre, 128 nodes on each of
    [0, a], [a, 2a] and [2a, 80] with a = s^(1/(2l)) (see
    `ansatz_error_projections`); the flat norm a trapezoid rule on [0, 200].

    The laws are asymptotic.  At the pinned s in [50, 400] the cutoff band
    y in [s^(1/(2l)), 2 s^(1/(2l))] lies inside the bulk of the rho weight
    (peak y* = sqrt(2l(d+1)): 4.90 for d=3, 4.47 for d=4), the uncancelled
    O(1/s) cutoff terms dominate the projections, and the check fails.  On
    dyadic windows whose band starts past 5 y* every slope meets its target;
    there the d=3 null-mode content (~1e-28) needs the decimal evaluation.
    """
    t0 = time.time()
    windows = CRITERION_8_WINDOWS if windows is None else windows
    digits = {} if digits is None else digits
    parts = []
    ok = True
    for d in (3, 4):
        ell = eb.ell_of(d)
        svals = np.asarray(windows[d], float)
        logs = np.log(svals)
        proj = ansatz_error_projections(d, svals, digits=digits.get(d))
        slopes = [np.polyfit(logs, np.log(np.abs(proj[:, k])), 1)[0] for k in range(2 * ell)]
        for k, sl in enumerate(slopes):
            target = -3.0 if k == ell else -2.0
            good = abs(sl - target) <= 0.3
            ok = ok and good
            parts.append(f"d={d} k={k}: {sl:.2f} (want {target}+-0.3)")
        # intermediate-region norm of the error field
        p = pr.make_profile_params(d)
        yb = np.linspace(0.0, 200.0, 100001)
        ctxb = dg.DiagnosticsContext(d=d, y=yb, K=10.0, params=p, coverage_tol=np.inf)
        fn = [dg.flat_norm(pr.ansatz_residual(p, yb, s), ctxb, j=0) for s in svals]
        slb = np.polyfit(logs, np.log(fn), 1)[0]
        tgt = -1.0 - 3.0 / (2 * ell)
        good = abs(slb - tgt) <= 0.3
        ok = ok and good
        parts.append(f"d={d} flat: {slb:.2f} (want {tgt:.2f}+-0.3)")
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    return _result("8 error-decomposition slopes", t0, ok,
                   "; ".join(parts) + f" ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# Criterion 9: null-mode dynamics on a zero-perturbation run
# ---------------------------------------------------------------------------

def criterion_9() -> CriterionResult:
    t0 = time.time()
    cfg = sim.SimConfig(d=4, n=2048, s0=50.0, horizon=10.0, cadence=0.1, A=20.0,
                        K=10.0, escape_factor=np.inf, blowup_sup=50.0)
    result = sim.run(cfg)
    runs = [result.summary()]
    s, c = result.coefficient_table()
    detail = f"run verdict {result.verdict}, {len(s)} slices"
    if len(s) < 5:
        return _result("9 null-mode dynamics", t0, False, detail + "; series too short", runs)
    sm, res, slopes = dg.mode_ode_residuals(s, c, eb.ell_of(4))
    rl = np.abs(res[:, 2])
    x, yv = np.log(sm), np.log(rl)
    slope = slopes[2]
    r2 = float(np.corrcoef(x, yv)[0, 1] ** 2)
    ok = slope <= -2.5
    detail += (f"; |r_l| fit slope {slope:.2f} (need <= -2.5), R^2={r2:.2f}, "
               f"|r_l| range [{rl.min():.1e}, {rl.max():.1e}]")
    return _result("9 null-mode dynamics", t0, ok, detail, runs)


# ---------------------------------------------------------------------------
# Criterion 10: shooting at the pinned desk-scale parameters
# ---------------------------------------------------------------------------

def criterion_10(budget: int = 64) -> CriterionResult:
    """Trap search at d=4, s0=50, A=20, horizon 20: passes when the best probe
    stays inside every shrinking-set bound, sup|v - Q| decreases to below 0.9
    of its start, and every exit is transversal.

    Fails at these parameters whatever the shooting amplitudes, which move
    only modes 0..l-1: the stable-part rho-norm of the ansatz's own generated
    error is 40-84 times the l2rho bound A/s^3 over s in [50, 70].  A larger A
    cannot help, since the unstable-mode bound A/s^2 then exceeds the profile
    height 1/d = 0.25; a larger s0 cannot either, since ||E_tilde||_rho s^3
    grows with s and sup|psi_hat| = 1/(24 s) makes the supdev gate need a
    horizon of at least s0/9.
    """
    t0 = time.time()
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, cadence=0.1,
                        A=20.0, K=10.0)
    result = shooting.trap_search(cfg, budget=budget)
    elapsed = time.time() - t0

    exits = [h for h in result.history if h["exit_mode"] is not None]
    transverse_ok = all(h["transverse_ok"] for h in exits if h["transverse_ok"] is not None)
    seq = [h["s_exit"] for h in result.history]
    running = np.maximum.accumulate(seq)
    monotone = bool(np.all(np.diff(running) >= -1e-12))

    trapped = result.verdict == "trapped"
    ratios_ok = False
    supdev_ok = False
    if result.trajectory:
        ratios = [r.max_ratio() for r in result.trajectory]
        ratios_ok = trapped and max(ratios) < 1.0
        sup = np.array([r.sup_dev_profile for r in result.trajectory])
        supdev_ok = bool(np.all(np.diff(sup) <= 1e-6 * np.maximum(sup[:-1], 1e-300))
                         and sup[-1] < 0.9 * sup[0])
        worst = max(result.trajectory, key=lambda r: r.max_ratio())
        worst_name = max(worst.ratios, key=worst.ratios.get)
        worst_val = worst.ratios[worst_name]
    else:
        worst_name, worst_val = "n/a", float("nan")

    ok = ratios_ok and supdev_ok and transverse_ok and elapsed <= 1800.0
    detail = (f"verdict={result.verdict} probes={len(result.history)} "
              f"best s_exit={result.s_exit:.2f} worst bound {worst_name}={worst_val:.2f} "
              f"transverse={'all ok' if transverse_ok else 'violations'} "
              f"monotone exits={monotone} supdev decreasing={supdev_ok} ({elapsed:.0f} s)")
    return _result("10 shooting", t0, ok, detail, [{"search": "trap", **result.summary()}])


# ---------------------------------------------------------------------------
# Criterion 11: final-profile scaling from a near-trapped physical run
# ---------------------------------------------------------------------------

def final_profile_experiment():
    """Near-trapped physical run: returns (T_est, its confidence width, the
    decade table, the tuning search's `ShootResult`, the physical run's step
    record and wall seconds `step_s`, its sup w records included).

    The unstable-mode amplitudes come from a trap search of the wide-cutoff
    family (bump_K = 4), whose initial-coefficient mixing is nearly diagonal,
    over the unit q-box; the physical run starts from its best probe.  It
    steps by `Stepper._drive` at the CFL dt (cfl 0.4) capped at 0.1 (1 - t),
    landing on t = 1 - 3e-8, and records sup w after the first step and every
    20th one after it.
    """
    d, s0, amp, tune_horizon, budget = 4, 11.5, 15.0, 8.0, 40
    tau_end, n_physical, r_max = 3e-8, 4096, 0.2
    ell = eb.ell_of(d)
    p = pr.make_profile_params(d)
    cfg = sim.SimConfig(d=d, n=1024, s0=s0, horizon=tune_horizon, cadence=0.1,
                        A=amp, K=10.0, bump_K=4.0)
    search = shooting.trap_search(cfg, budget=budget, q_radii=np.full(ell, 1.0))

    tau0 = math.exp(-s0)
    grid = sim.Grid.uniform(n_physical, r_max)
    r = grid.nodes
    y_ph = r / math.sqrt(tau0)
    modes = sim.unstable_modes(d, y_ph, s0, cfg.bump_K)
    v0 = pr.psi(p, y_ph, s0) + (amp / s0**2) * (np.asarray(search.parameters) @ modes)
    started = time.perf_counter()
    stepper = sim.Stepper(grid, d, "physical", "neumann")
    t_end = 1.0 - tau_end

    def drive(v, t, most):
        return stepper._drive(v, t, t_end, cfl=0.4, cap=lambda t: 0.1 * (1.0 - t), most=most)

    times, sup_w = [], []
    v, t, error = drive(v0 / tau0, 1.0 - tau0, 1)
    # a drive that lands on t_end stops short of its 20 steps, which ends this
    while error is None and stepper.steps == 20 * len(times) + 1:
        times.append(t)
        sup_w.append(float(np.max(sim.transform(v, r, d, "w"))))
        v, t, error = drive(v, t, 20)
    if error is not None:
        raise error
    run = {**stepper.step_record(), "step_s": time.perf_counter() - started}
    t_est, t_width = sim.estimate_blowup_time(np.array(times), np.array(sup_w), window=0.5)

    u = sim.transform(v, r, d, "w")
    tau_last = 1.0 - t
    inner = math.sqrt(tau_last) * abs(math.log(tau_last)) ** (1.0 / (2 * ell))
    table = []
    for r1 in np.geomspace(5 * inner, r_max / 15.0, 24):
        rr = np.geomspace(r1, 10 * r1, 25)
        ratio = np.interp(rr, r, u) / pr.final_profile(p, rr)
        flat = (np.max(ratio) - np.min(ratio)) / np.mean(ratio)
        table.append((r1, float(np.min(ratio)), float(np.max(ratio)), float(flat)))
    return t_est, t_width, table, search, run


def criterion_11() -> CriterionResult:
    t0 = time.time()
    t_est, t_width, table, search, run = final_profile_experiment()
    passing = [row for row in table
               if row[3] <= 0.5 and 0.5 <= row[1] and row[2] <= 2.0]
    best = min(table, key=lambda row: row[3])
    elapsed = time.time() - t0
    ok = bool(passing) and elapsed <= 1800.0
    detail = (f"T_est err={abs(t_est - 1.0):.1e} (+-{t_width:.1e}); "
              f"{len(passing)}/{len(table)} decades pass; best decade r1={best[0]:.2e} "
              f"band=[{best[1]:.2f},{best[2]:.2f}] flat={best[3]:.2f}; "
              f"tuning verdict {search.verdict}; {run['steps']} physical steps; "
              f"exploratory ({elapsed:.0f} s)")
    tuning = {"search": "tuning", **search.summary()}
    return _result("11 final-profile scaling", t0, ok, detail, [run, tuning])


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}

SUITES = {
    "exact": (1, 2, 3, 4),
    "profile": (5,),
    "sim": (6, 7),
    "slopes": (8, 9),
    "shoot": (10,),
    "final": (11,),
    "all": tuple(range(1, 12)),
}


def run_suite(name: str = "all") -> list:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [CRITERIA[i]() for i in SUITES[name]]
