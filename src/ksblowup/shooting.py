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

from dataclasses import dataclass, field, replace
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
    outcome: str                  # trapped / survived / exit:mode_k / blowup / unstable
    transverse_ok: bool | None    # d/ds sum eps_k^2 > 0 at exit (None if no exit)
    records: list
    run: dict = field(default_factory=dict)     # the probe run's `RunResult.summary()`

    @property
    def exit_mode(self) -> int | None:
        """Which unstable mode hit its bound (None if none did)."""
        if self.outcome.startswith("exit:mode_"):
            return int(self.outcome.split("_")[-1])
        return None

    @property
    def rank(self) -> tuple:
        """Probes order by this: trapped beats surviving beats the longest exit."""
        return {"trapped": 2, "survived": 1}.get(self.outcome, 0), self.s_exit


@dataclass
class ShootResult:
    parameters: tuple             # best d found
    s_exit: float
    verdict: str                  # the best probe's outcome
    trajectory: list              # diagnostics records of the best probe
    history: list                 # one JSON-native dict per probe (see `trap_search`)
    brackets: list                # final q-space [lo, hi] per coordinate
    mixing: np.ndarray            # the l x l initial-coefficient mixing block

    def summary(self) -> dict:
        """Verdict, best parameters and exit time, brackets and probes:
        `search_log.json` and the search entries of criteria 10 and 11."""
        return {"verdict": self.verdict, "parameters": list(self.parameters),
                "s_exit": self.s_exit, "brackets": self.brackets, "probes": self.history}


def mixing_matrix(config: sim.SimConfig, y=None,
                  ctx: dg.DiagnosticsContext | None = None) -> np.ndarray:
    """Initial-coefficient response M[k,i] = d eps_k(s0) / d((A/s0^2) d_i)."""
    ell = eb.ell_of(config.d)
    grid = config.build_grid() if y is None else sim.Grid(y)
    if ctx is None:
        ctx = dg.DiagnosticsContext(d=config.d, y=grid.nodes, K=config.K)
    modes = sim.unstable_modes(config.d, grid, config.s0, config.bump_K)
    return np.stack([ctx.project_all(f)[:ell] for f in modes], axis=1)


def _exit_from_run(dvec, result: sim.RunResult, A: float, ell: int) -> ExitRecord:
    records = result.records
    last = records[-1]
    # a run that neither exited nor failed survived the horizon, trapped if
    # it also stayed inside every bound
    outcome = result.verdict
    exited = outcome.startswith("exit:mode_")
    if not (exited or outcome in ("trapped", "blowup", "unstable")):
        outcome = "survived"
    transverse = None
    if exited and len(records) >= 2:
        u2 = [float(np.sum(r.coefficients[:ell] ** 2)) for r in records[-2:]]
        ds = records[-1].s - records[-2].s
        transverse = (u2[-1] - u2[-2]) / ds > 0
    return ExitRecord(
        dvec=tuple(dvec),
        s_exit=float(last.s),
        exit_vector=(last.s**2 / A) * last.coefficients[:ell],
        outcome=outcome,
        transverse_ok=transverse,
        records=records,
        run=result.summary(),
    )


def objective(dvec, config: sim.SimConfig, ctx: dg.DiagnosticsContext | None = None,
              factors: sim.FactorTable | None = None) -> ExitRecord:
    """Run the evolution for one parameter vector and report the exit.

    The run stops at the first time any unstable-mode coefficient reaches
    A/s^2 (general bound escapes do not stop it; field blowup does).
    `SimConfig` rejects a vector of the wrong length or outside [-1, 1].
    A search passes its diagnostics context and factor table, which every
    probe's run shares.
    """
    ell = eb.ell_of(config.d)
    dvec = tuple(float(x) for x in dvec)
    cfg = replace(config, dvec=dvec, stop_on_unstable=True, escape_factor=np.inf)
    return _exit_from_run(dvec, sim.run(cfg, ctx=ctx, factors=factors), config.A, ell)


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
    the best probe found (`ExitRecord.rank`), with the complete probe
    history and final brackets.  Each probe is logged once, as JSON-native
    values: q, d, exit mode, exit time and vector, transversality, wall
    seconds and the probe run's `RunResult.summary()`.

    Each round consumes the previous round's verdict, so probes run
    sequentially.  Every probe makes one `sim.run` call, on one grid, with
    one diagnostics context and one `sim.FactorTable`: the probes share the
    step sizes of their early records, so a dt one probe factored the next
    finds in the table.  The table lives as long as the search.
    """
    if budget < 1:
        raise sim.ConfigError("budget must be at least 1")
    ell = eb.ell_of(config.d)

    if objective_fn is None:
        grid = config.build_grid()
        ctx = dg.DiagnosticsContext(d=config.d, y=grid.nodes, K=config.K)
        factors = sim.FactorTable(grid, config.d, config.frame, config.boundary)
        m = mixing_matrix(config, ctx=ctx)

        def objective_fn(q):
            d = np.clip(np.linalg.solve(m, np.asarray(q, float)), -1.0, 1.0)
            return objective(d, config, ctx=ctx, factors=factors)
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
    while len(history) < budget:
        started = perf_counter()
        rec = objective_fn(q.copy())
        wall_s = perf_counter() - started
        history.append({
            "q": q.tolist(), "d": list(rec.dvec), "exit_mode": rec.exit_mode,
            "s_exit": rec.s_exit, "exit_vector": rec.exit_vector.tolist(),
            "transverse_ok": rec.transverse_ok, "wall_s": wall_s, **rec.run,
        })
        if best is None or rec.rank > best.rank:
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

    return ShootResult(
        parameters=best.dvec,
        s_exit=best.s_exit,
        verdict=best.outcome,
        trajectory=best.records,
        history=history,
        brackets=[[float(a), float(b)] for a, b in zip(lo, hi)],
        mixing=m,
    )
