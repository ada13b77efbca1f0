"""The four benchmark workloads: set-up, one timed round, and its checks.

Every input is fixed; nothing is drawn at random.  A round is the unit the
worker repeats and times; `check` counts the operations a round attempted
and those that failed, with a line per problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ksblowup import acceptance as ac
from ksblowup import diagnostics as dg
from ksblowup import eigenbasis as eb
from ksblowup import profile as pr
from ksblowup import shooting
from ksblowup import sim

import checks

C_D4 = 1.0 / 288.0      # profile constant c for d=4 (criterion 1's golden value)


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list


def _tally(per_op: list, whole: list, expected: int) -> Outcome:
    """per_op: None or a problem per operation; whole: problems that fail every
    operation of the round.  Operations the program never produced fail too,
    and more of them than the inputs call for fail the round."""
    if len(per_op) > expected:
        whole = whole + [f"{len(per_op)} operations where the inputs give {expected}"]
    missing = max(expected - len(per_op), 0)
    problems = [p for p in per_op if p] + whole
    if missing:
        problems.append(f"{missing} of {expected} operations missing")
    failed = expected if whole else missing + sum(1 for p in per_op if p)
    return Outcome(expected, failed, problems)


def _slices_finite(records) -> list:
    return [None if np.all(np.isfinite(r.coefficients)) and np.isfinite(r.sup_v)
            and np.isfinite(r.tilde_norm) and np.isfinite(r.sup_dev_profile)
            else f"non-finite slice at s={r.s}" for r in records]


class SelfsimRun:
    """Criterion 9: d=4, n=2048, s 50 -> 60, no perturbation, 101 slices."""

    name = "selfsim_run"
    operations = 101        # diagnostics slices

    def setup(self):
        self.params = pr.make_profile_params(4)
        self.config = sim.SimConfig(d=4, n=2048, s0=50.0, horizon=10.0, cadence=0.1,
                                    A=20.0, K=10.0, escape_factor=np.inf, blowup_sup=50.0)
        self.grid = self.config.build_grid()
        self.ctx = dg.DiagnosticsContext(d=4, y=self.grid.nodes, K=10.0, params=self.params)

    def run_round(self):
        return sim.run(self.config, ctx=self.ctx)

    def check(self, result) -> Outcome:
        per_op = _slices_finite(result.records)
        s, c = result.coefficient_table()
        final = result.final_state
        whole = checks.selfsim_problems(s, c, float(final.values[-1]),
                                        float(self.grid.nodes[-1]), final.time, C_D4)
        if not np.all(np.isfinite(final.values)):
            whole.append("final field not finite")
        return _tally(per_op, whole, self.operations)


class TrapSearch:
    """Criterion 10: d=4, n=1024, s0=50, A=20, horizon 20, 64 probes."""

    name = "trap_search"
    operations = budget = 64        # probes

    def setup(self):
        # the search builds its own parameters and context inside the round;
        # these copies fill the exact-algebra caches before timing, as in selfsim_run
        self.params = pr.make_profile_params(4)
        self.config = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, cadence=0.1,
                                    A=20.0, K=10.0)
        self.grid = self.config.build_grid()
        self.ctx = dg.DiagnosticsContext(d=4, y=self.grid.nodes, K=10.0, params=self.params)

    def run_round(self):
        # keep every probe's run result for the checks; the search keeps only the best
        runs = []
        run = sim.run

        def recording(*args, **kwargs):
            out = run(*args, **kwargs)
            runs.append(out)
            return out

        sim.run = recording
        try:
            result = shooting.trap_search(self.config, budget=self.budget)
        finally:
            sim.run = run
        return result, runs

    def check(self, outcome) -> Outcome:
        result, runs = outcome
        per_op = []
        for hist, run in zip(result.history, runs):
            s, c = run.coefficient_table()
            probs = checks.probe_problems(s, c, hist["exit_mode"], self.config.A, 2,
                                          bool(np.all(np.isfinite(run.final_state.values))))
            if hist["exit_mode"] is not None and hist["transverse_ok"] is not True:
                probs.append("search logged a non-transversal exit")
            per_op.append("; ".join(probs) or None)
        phi = [eb.partial_mass_eigen(4, i).coeffs for i in range(2)]
        whole = checks.mixing_problems(result.mixing, phi, 4, self.config.s0, self.grid.nodes)
        if len(runs) != len(result.history):
            whole.append(f"{len(runs)} runs for {len(result.history)} logged probes")
        return _tally(per_op, whole, self.operations)

    @staticmethod
    def improving_probes(outcome) -> int:
        """Probes that raised the best exit time so far."""
        best, count = -np.inf, 0
        for hist in outcome[0].history:
            if hist["s_exit"] > best:
                best, count = hist["s_exit"], count + 1
        return count


class PhysicalBlowup:
    """Constant field v0=0.1, d=4, 33 nodes, dt=1e-5, t from 0 to 0.9 T, T = 1/(d v0)."""

    name = "physical_blowup"
    operations = 226        # recorded slices, t = 0, 0.01, ..., 2.25
    d, v0, dt = 4, 0.1, 1e-5

    def setup(self):
        self.config = sim.SimConfig(d=self.d, frame="physical", n=32, y_max=10.0, dt=self.dt,
                                    s0=0.0, horizon=2.25, cadence=0.01,
                                    init=np.full(33, self.v0))

    def run_round(self):
        result = sim.run(self.config)
        t_est, _ = sim.estimate_blowup_time(result.times, result.sup_w)
        return result, t_est

    def check(self, outcome) -> Outcome:
        result, t_est = outcome
        per_op = checks.slice_problems(result.times, result.sup_w, self.v0, self.d)
        final = result.final_state
        whole = checks.physical_problems(final.values, final.time, t_est, self.v0,
                                         self.d, self.dt)
        if result.verdict != "completed":
            whole.append(f"run verdict {result.verdict}")
        return _tally(per_op, whole, self.operations)


def asymptotic_window(d: int) -> np.ndarray:
    """{s1, 2 s1, 4 s1, 8 s1} with s1 = (5 y*)^(2l), y* = sqrt(2l(d+1)): the
    tier-1 criterion-8 window, past the bulk of the rho weight."""
    ell = eb.ell_of(d)
    return (5.0 * np.sqrt(2 * ell * (d + 1))) ** (2 * ell) * np.array([1.0, 2.0, 4.0, 8.0])


class AnsatzSlopes:
    """Criterion-8 decay fits on the tier-1 windows, d=3 error at 50 digits."""

    name = "ansatz_slopes"
    operations = 8          # s-points, four per dimension
    digits = {3: 50, 4: None}

    def setup(self):
        self.params = {d: pr.make_profile_params(d) for d in (3, 4)}
        self.windows = {d: asymptotic_window(d) for d in (3, 4)}
        self.flat_grid = np.linspace(0.0, 200.0, 100001)

    def run_round(self):
        out = {}
        for d in (3, 4):
            svals = self.windows[d]
            proj = ac.ansatz_error_projections(d, svals, digits=self.digits[d])
            p = self.params[d]
            ctx = dg.DiagnosticsContext(d=d, y=self.flat_grid, K=10.0, params=p,
                                        coverage_tol=np.inf)
            flat = [dg.flat_norm(pr.ansatz_residual(p, self.flat_grid, s), ctx, j=0)
                    for s in svals]
            out[d] = (proj, np.array(flat))
        return out

    def check(self, outcome) -> Outcome:
        per_op = []
        for d, (proj, flat) in outcome.items():
            ell = eb.ell_of(d)
            fit = checks.slope_problems(self.windows[d], proj, flat, ell)
            if self.digits[d]:
                double = ac.ansatz_error_projections(d, self.windows[d])
                points = checks.decimal_problems(proj, double, ell)
            else:
                points = [None if np.all(np.isfinite(row)) else "non-finite projection"
                          for row in proj]
            # a failed fit fails every s-point of its dimension
            per_op += [f"d={d}: " + "; ".join(fit) for _ in points] if fit else points
        return _tally(per_op, [], self.operations)


WORKLOADS = {w.name: w for w in (SelfsimRun, TrapSearch, PhysicalBlowup, AnsatzSlopes)}
