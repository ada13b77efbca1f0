"""Search of the unstable-mode parameters for horizon-trapped trajectories.

The initial-data family adds (A/s0^2) sum_i d_i phi_{2i} * chi(xi / bump_K)
to the refined ansatz (`sim.unstable_modes`).  Because the unit cutoff sits
inside the bulk of the weighted measure at moderate s0, the map from the raw
parameters d to the initial mode coefficients is a strongly mixed linear map
q = M d; the search therefore bisects in the decoupled q-coordinates and
converts back through M^{-1}, clipping to the admissible parameter box.
Exits are driven by the first unstable-mode coefficient to reach its bound
A/s^2; the exit signs steer an exit-driven coordinate bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from . import diagnostics as dg
from . import eigenbasis as eb
from . import sim


@dataclass
class ExitRecord:
    """Outcome of a single probe."""

    dvec: tuple
    s_exit: float
    exit_vector: np.ndarray       # (s^2/A) * (eps_0..eps_{l-1}) at exit
    exit_mode: int | None         # which unstable mode hit its bound (None if trapped)
    trapped: bool                 # survived the horizon within all bounds
    survived: bool                # survived the horizon w.r.t. the unstable bounds
    transverse_ok: bool | None    # d/ds sum eps_k^2 > 0 at exit (None if no exit)
    records: list
    run_verdict: str
    steps: int = 0                # time steps the probe's run took
    stop_reason: str = ""         # the run's RunResult.stop_reason
    step_s: float = 0.0           # the run's RunResult.step_s and diag_s
    diag_s: float = 0.0


@dataclass
class ShootResult:
    parameters: tuple             # best d found
    s_exit: float
    verdict: str                  # trapped / survived / exit:mode_k / blowup / unstable
    exit_vector: np.ndarray
    trajectory: list              # diagnostics records of the best probe
    history: list                 # probe log: dict per probe
    brackets: dict                # final q-space brackets per coordinate
    mixing: np.ndarray            # the l x l initial-coefficient mixing block


def mixing_matrix(config: sim.SimConfig, y=None,
                  ctx: dg.DiagnosticsContext | None = None) -> np.ndarray:
    """Initial-coefficient response M[k,i] = d eps_k(s0) / d((A/s0^2) d_i)."""
    ell = eb.ell_of(config.d)
    if y is None:
        y = config.build_grid().nodes
    if ctx is None:
        ctx = dg.DiagnosticsContext(d=config.d, y=y, K=config.K)
    modes = sim.unstable_modes(config.d, y, config.s0, config.bump_K)
    return np.stack([ctx.project_all(f)[:ell] for f in modes], axis=1)


def _exit_from_run(dvec, result: sim.RunResult, A: float, ell: int) -> ExitRecord:
    records = result.records
    last = records[-1]
    s_end = last.s
    vec = (s_end**2 / A) * last.coefficients[:ell]
    exit_mode = None
    if result.verdict.startswith("exit:mode_"):
        exit_mode = int(result.verdict.split("_")[-1])
    survived = exit_mode is None and result.verdict not in ("blowup", "unstable")
    trapped = result.verdict == "trapped"
    transverse = None
    if exit_mode is not None and len(records) >= 2:
        u2 = [float(np.sum(r.coefficients[:ell] ** 2)) for r in records[-2:]]
        ds = records[-1].s - records[-2].s
        transverse = (u2[-1] - u2[-2]) / ds > 0
    return ExitRecord(
        dvec=tuple(dvec),
        s_exit=s_end,
        exit_vector=vec,
        exit_mode=exit_mode,
        trapped=trapped,
        survived=survived,
        transverse_ok=transverse,
        records=records,
        run_verdict=result.verdict,
        steps=result.steps,
        stop_reason=result.stop_reason,
        step_s=result.step_s,
        diag_s=result.diag_s,
    )


def objective(dvec, config: sim.SimConfig,
              ctx: dg.DiagnosticsContext | None = None) -> ExitRecord:
    """Run the evolution for one parameter vector and report the exit.

    The run stops at the first time any unstable-mode coefficient reaches
    A/s^2 (general bound escapes do not stop it; field blowup does).
    `SimConfig` rejects a vector of the wrong length or outside [-1, 1].
    """
    ell = eb.ell_of(config.d)
    dvec = tuple(float(x) for x in dvec)
    cfg = replace(config, dvec=dvec, stop_on_unstable=True,
                  escape_factor=np.inf, track_bounds=True)
    return _exit_from_run(dvec, sim.run(cfg, ctx=ctx), config.A, ell)


def _feasible_radii(minv: np.ndarray) -> np.ndarray:
    """Per-coordinate q radii keeping M^-1 q inside the unit parameter box."""
    ell = minv.shape[0]
    col_max = np.max(np.abs(minv), axis=0)
    return 1.0 / (ell * np.maximum(col_max, 1e-300))


def trap_search(config: sim.SimConfig, budget: int,
                objective_fn=None, q_radii=None) -> ShootResult:
    """Exit-driven bisection of the unstable-mode coordinates.

    Each probe runs until an unstable mode exits (or the horizon); the sign
    of the exiting component tightens that coordinate's bracket.  Returns
    the best probe found (trapped beats surviving beats the longest exit
    time), with the complete probe history and final brackets.

    Each round consumes the previous round's verdict, so probes run
    sequentially.
    """
    if budget < 1:
        raise sim.ConfigError("budget must be at least 1")
    ell = eb.ell_of(config.d)

    if objective_fn is None:
        y = config.build_grid().nodes
        ctx = dg.DiagnosticsContext(d=config.d, y=y, K=config.K)
        m = mixing_matrix(config, y=y, ctx=ctx)

        def objective_fn(q):
            d = np.clip(np.linalg.solve(m, np.asarray(q, float)), -1.0, 1.0)
            return objective(d, config, ctx=ctx)
    else:
        m = np.eye(ell)

    if q_radii is None:
        q_radii = _feasible_radii(np.linalg.inv(m))
    q_radii = np.asarray(q_radii, float)

    lo = -q_radii.copy()
    hi = q_radii.copy()
    lo_sign = np.full(ell, -1.0)      # assumed exit-vector sign at the low end
    hi_sign = np.full(ell, 1.0)
    q = np.zeros(ell)

    history = []
    best: ExitRecord | None = None
    spent = 0

    def better(a: ExitRecord, b: ExitRecord | None) -> bool:
        if b is None:
            return True
        return (a.trapped, a.survived, a.s_exit) > (b.trapped, b.survived, b.s_exit)

    while spent < budget:
        started = perf_counter()
        rec = objective_fn(q.copy())
        wall_s = perf_counter() - started
        spent += 1
        history.append({
            "q": q.copy(), "d": rec.dvec, "s_exit": rec.s_exit,
            "exit_mode": rec.exit_mode, "verdict": rec.run_verdict,
            "exit_vector": np.array(rec.exit_vector),
            "transverse_ok": rec.transverse_ok, "steps": rec.steps,
            "stop_reason": rec.stop_reason, "wall_s": wall_s,
            "step_s": rec.step_s, "diag_s": rec.diag_s,
        })
        if better(rec, best):
            best = rec
        if rec.exit_mode is None:
            break                  # survived, blew up or unstable: no exit mode to steer on
        k = rec.exit_mode
        sign = float(np.sign(rec.exit_vector[k])) or 1.0
        if sign > 0:
            hi[k], hi_sign[k] = q[k], sign
        else:
            lo[k], lo_sign[k] = q[k], sign
        if lo_sign[k] == hi_sign[k]:
            # bracket lost (target outside): push the matching end outward,
            # within the feasible box
            if sign > 0:
                lo[k] = max(lo[k] - (hi[k] - lo[k] + q_radii[k]), -q_radii[k])
                lo_sign[k] = -1.0
            else:
                hi[k] = min(hi[k] + (hi[k] - lo[k] + q_radii[k]), q_radii[k])
                hi_sign[k] = 1.0
        q[k] = 0.5 * (lo[k] + hi[k])

    assert best is not None
    if best.trapped:
        verdict = "trapped"
    elif best.survived:
        verdict = "survived"
    elif best.exit_mode is not None:
        verdict = f"exit:mode_{best.exit_mode}"
    else:
        verdict = best.run_verdict    # blowup or unstable: no exit mode
    return ShootResult(
        parameters=best.dvec,
        s_exit=best.s_exit,
        verdict=verdict,
        exit_vector=best.exit_vector,
        trajectory=best.records,
        history=history,
        brackets={k: (float(lo[k]), float(hi[k])) for k in range(ell)},
        mixing=m,
    )
