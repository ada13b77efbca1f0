"""Radial evolution of the partial-mass field in two frames.

Both frames evolve by one flow,
    v_t = Lap_{d+2} v + (v - sigma/2) y v_y + d v^2 - sigma v,
with frame constant sigma = 1 in the self-similar frame (time s, radius y)
and sigma = 0 in the physical frame (time t, radius r): the self-similar
variables add only the linear terms -(1/2) y v_y - v.

Diffusion is treated implicitly (Crank-Nicolson, tridiagonal solve); the
drift and reaction terms explicitly (first order in time overall).  The
drift a = (v - sigma/2) y changes sign across the profile scale and grows
linearly outward, so the advection stencil is chosen per node: second-order
centered differences where the cell Peclet number |a| h / 2 stays below one
and sign-adaptive first-order upwinding beyond.

Nothing that depends only on the grid or on dt is recomputed per step: the
stencil spacings are fixed per grid (one `_Stencil` per `Stepper`), and the
Crank-Nicolson matrix is LU-factored (LAPACK gttrf) once per dt and only
back-substituted (gttrs) at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from . import diagnostics as dg
from . import eigenbasis as eb
from . import profile as pr


class ConfigError(ValueError):
    pass


class StateCorruptionError(RuntimeError):
    """Field values became non-finite."""


# the frame constant sigma of the flow (see the module docstring)
FRAME_SIGMA = {"selfsimilar": 1.0, "physical": 0.0}


# ---------------------------------------------------------------------------
# Grid and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Strictly increasing radial nodes starting at 0."""

    nodes: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.nodes, float)
        if len(y) < 16:
            raise ConfigError("grid needs at least 16 nodes")
        if y[0] != 0.0 or not np.all(np.diff(y) > 0) or not np.all(np.isfinite(y)):
            raise ConfigError("nodes must be finite, strictly increasing, starting at 0")
        object.__setattr__(self, "nodes", y)

    @classmethod
    def uniform(cls, n: int, y_max: float) -> "Grid":
        return cls(np.linspace(0.0, y_max, n + 1))

    @classmethod
    def geometric(cls, n: int, y_max: float, ratio: float) -> "Grid":
        """Spacings grow by `ratio` per cell (ratio=1 reduces to uniform)."""
        if ratio <= 0:
            raise ConfigError("spacing ratio must be positive")
        if abs(ratio - 1.0) < 1e-12:
            return cls.uniform(n, y_max)
        steps = ratio ** np.arange(n)
        nodes = np.concatenate([[0.0], np.cumsum(steps)])
        return cls(nodes * (y_max / nodes[-1]))

    @property
    def n(self) -> int:
        return len(self.nodes) - 1

    @property
    def h_min(self) -> float:
        return float(np.min(np.diff(self.nodes)))


@dataclass
class RadialState:
    frame: str
    time: float
    values: np.ndarray
    grid: Grid
    d: int

    def __post_init__(self):
        if self.frame not in FRAME_SIGMA:
            raise ConfigError(f"unknown frame {self.frame!r}")
        self.values = np.asarray(self.values, float)
        if self.values.shape != self.grid.nodes.shape:
            raise ConfigError("field and grid sizes differ")

    def check_finite(self):
        if not np.isfinite(self.values).all():
            raise StateCorruptionError(f"non-finite field at time {self.time}")


# ---------------------------------------------------------------------------
# Spatial operators
# ---------------------------------------------------------------------------

class _Stencil:
    """Spacings of the radial stencils on one grid: dy = y[i+1] - y[i] (kept
    as a divisor, so one-sided slopes round as (v[i+1] - v[i]) / dy does),
    hm and hp left and right of each interior node, the products of the
    centered first derivative, and the Peclet spacing h."""

    def __init__(self, y):
        self.y = y
        self.dy = y[1:] - y[:-1]
        self.hm = hm = self.dy[:-1]
        self.hp = hp = self.dy[1:]
        self.hm2 = hm * hm
        self.hp2 = hp * hp
        self.hm2_hp2 = self.hm2 - self.hp2
        self.denom = hm * hp * (hm + hp)
        self.h = np.concatenate([self.dy[:1], self.dy])   # node 0 borrows cell 0

    def advect(self, v, a):
        """a * dv/dy with per-node stencil selection: second-order centered
        differences (dispersive where the cell Peclet number |a| h / 2
        exceeds one) at nodes with Peclet <= 1, monotone first-order
        upwinding at the rest (in practice: the quiescent far field, where
        the drift is strongest).
        """
        # slope[i] = (v[i] - v[i-1]) / dy[i-1], zero at both ends, so that
        # slope[1:] is the forward and slope[:-1] the backward difference
        slope = np.zeros(len(v) + 1)
        np.divide(v[1:] - v[:-1], self.dy, out=slope[1:-1])
        bwd = slope[:-1]
        up = np.where(a > 0, slope[1:], bwd)
        up[-1] = bwd[-1]
        up[0] = 0.0
        cen = np.empty(len(v))
        cen[1:-1] = (self.hm2 * v[2:] - self.hm2_hp2 * v[1:-1] - self.hp2 * v[:-2]) / self.denom
        cen[-1] = bwd[-1]
        cen[0] = 0.0
        return a * np.where(np.abs(a) * self.h <= 2.0, cen, up)


def _laplacian_tridiag(st: _Stencil, dim: int):
    """Tridiagonal (lower, diag, upper) of the radial Laplacian in `dim`.

    Row 0 is the regularized origin value dim * v''(0) with a symmetry ghost;
    the last row is left zero (replaced by the boundary condition).
    """
    y = st.y
    n = len(y)
    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    hm, hp = st.hm, st.hp
    # second derivative
    a2m = 2.0 / (hm * (hm + hp))
    a2p = 2.0 / (hp * (hm + hp))
    # first derivative (second-order, nonuniform central)
    a1m = -st.hp2 / st.denom
    a1p = st.hm2 / st.denom
    coef = (dim - 1) / y[1:-1]
    lo[1:-1] = a2m + coef * a1m
    up[1:-1] = a2p + coef * a1p
    di[1:-1] = -(a2m + a2p) + coef * (-a1m - a1p)
    h0 = st.dy[0]
    di[0] = -2.0 * dim / h0**2
    up[0] = 2.0 * dim / h0**2
    return lo, di, up


def _apply_tridiag(lo, di, up, v):
    out = di * v
    out[:-1] += up[:-1] * v[1:]
    out[1:] += lo[1:] * v[:-1]
    return out


def _explicit_terms(stencil: _Stencil, v, d: int, sigma: float):
    """The drift (v - sigma/2) y v_y and the reaction d v^2 - sigma v, apart:
    `rhs` adds them to the diffusion term in turn, the step sums them first."""
    return stencil.advect(v, (v - 0.5 * sigma) * stencil.y), d * v * v - sigma * v


def rhs(state: RadialState):
    """Full semi-discrete right-hand side on the grid (one-sided at the end)."""
    state.check_finite()
    st = _Stencil(state.grid.nodes)
    lo, di, up = _laplacian_tridiag(st, state.d + 2)
    lap = _apply_tridiag(lo, di, up, state.values)
    # one-sided second-order value at the outer node, for reporting only
    y = state.grid.nodes
    v = state.values
    h1 = y[-1] - y[-2]
    h2 = y[-2] - y[-3]
    vp = (v[-1] - v[-2]) / h1
    vpp = 2.0 * (h2 * v[-1] - (h1 + h2) * v[-2] + h1 * v[-3]) / (h1 * h2 * (h1 + h2))
    lap[-1] = vpp + (state.d + 1) / y[-1] * vp
    drift, reaction = _explicit_terms(st, v, state.d, FRAME_SIGMA[state.frame])
    return lap + drift + reaction


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

class Stepper:
    """IMEX stepper: Crank-Nicolson diffusion, explicit drift and reaction.

    The stencil spacings are fixed per grid and the Crank-Nicolson matrix is
    factored once per dt, so a step is the explicit terms plus one
    back-substitution.
    """

    def __init__(self, grid: Grid, d: int, frame: str, boundary: str,
                 params: pr.ProfileParams | None = None):
        if frame not in FRAME_SIGMA:
            raise ConfigError(f"unknown frame {frame!r}")
        if boundary not in ("profile", "neumann"):
            raise ConfigError(f"unknown boundary condition {boundary!r}")
        if frame == "physical" and boundary == "profile":
            raise ConfigError("profile-matched boundary is a self-similar-frame option")
        self.grid = grid
        self.d = d
        self.frame = frame
        self.sigma = FRAME_SIGMA[frame]
        self.boundary = boundary
        self.params = (params or pr.make_profile_params(d)) if boundary == "profile" else None
        self.stencil = _Stencil(grid.nodes)
        self.lo, self.di, self.up = _laplacian_tridiag(self.stencil, d + 2)
        self._factor_dt = self._factors = None

    def _factored(self, dt: float):
        """gttrf factors of the matrix I - (dt/2) Lap, whose last row is the
        boundary condition (v_N = value, or v_N - v_{N-1} = 0 for Neumann)."""
        if self._factor_dt != dt:
            dl = -0.5 * dt * self.lo[1:]
            di = 1.0 - 0.5 * dt * self.di
            du = -0.5 * dt * self.up[:-1]
            di[-1] = 1.0
            dl[-1] = -1.0 if self.boundary == "neumann" else 0.0
            *factors, info = dgttrf(dl, di, du, overwrite_dl=True, overwrite_d=True,
                                    overwrite_du=True)
            if info > 0:
                raise np.linalg.LinAlgError("singular Crank-Nicolson matrix")
            self._factor_dt, self._factors = dt, factors
        return self._factors

    def boundary_value(self, time_next: float) -> float:
        if self.boundary == "neumann":
            return 0.0
        ell = self.params.ell
        xi_edge = self.grid.nodes[-1] * time_next ** (-1.0 / (2 * ell))
        return pr.q_of_xi(self.params, xi_edge)

    def step(self, state: RadialState, dt: float) -> RadialState:
        if dt <= 0:
            raise ConfigError("dt must be positive")
        if state.frame != self.frame:
            raise ConfigError(f"a {self.frame}-frame stepper got a {state.frame}-frame state")
        if state.grid is not self.grid and not np.array_equal(state.grid.nodes, self.grid.nodes):
            raise ConfigError("the state's grid differs from the stepper's")
        if state.d != self.d:
            raise ConfigError(f"a d={self.d} stepper got a d={state.d} state")
        state.check_finite()
        v = state.values
        with np.errstate(over="ignore", invalid="ignore"):
            drift, reaction = _explicit_terms(self.stencil, v, self.d, self.sigma)
            expl = drift + reaction
            b = v + 0.5 * dt * _apply_tridiag(self.lo, self.di, self.up, v) + dt * expl
        b[-1] = self.boundary_value(state.time + dt)
        if not np.isfinite(b).all():
            raise StateCorruptionError(f"explicit terms overflowed at t={state.time}")
        v_new, _ = dgttrs(*self._factored(dt), b, overwrite_b=True)
        if not np.isfinite(v_new).all():
            raise StateCorruptionError(f"solver produced non-finite values at t={state.time}")
        return RadialState(frame=state.frame, time=state.time + dt,
                           values=v_new, grid=self.grid, d=state.d)

    def cfl_dt(self, state: RadialState, cfl: float) -> float:
        """Advective + reactive step limit for the explicit terms."""
        a = np.abs((state.values - 0.5 * self.sigma) * self.grid.nodes)
        amax = float(np.max(np.maximum(a[1:], a[:-1]) / self.stencil.dy))
        dt = cfl / amax if amax > 0 else np.inf
        react = float(np.max(np.abs(2 * self.d * state.values - self.sigma)))
        if react > 0:
            dt = min(dt, 0.5 / react)
        return dt


# ---------------------------------------------------------------------------
# Configuration, initial data and the run loop
# ---------------------------------------------------------------------------

@dataclass
class SimConfig:
    d: int
    frame: str = "selfsimilar"
    n: int = 1024
    y_max: float | None = None
    dt: float | None = None
    cfl: float = 0.4
    s0: float = 50.0                  # start time in the active frame's clock
    horizon: float = 10.0
    boundary: str | None = None       # default: profile (selfsimilar) / neumann
    A: float = 20.0
    K: float = 10.0
    dvec: tuple = ()
    init: object = "ansatz"           # "ansatz" | "steady" | "zero" | array
    cadence: float = 0.1
    escape_factor: float = 2.0        # stop when a bound ratio exceeds this
    blowup_sup: float = 10.0
    track_bounds: bool = True         # evaluate shrinking-set diagnostics
    stop_on_unstable: bool = False    # stop when an unstable-mode ratio >= 1
    bump_K: float = 1.0               # scale of the bump's cutoff chi(xi / bump_K)

    def __post_init__(self):
        eb.check_dimension(self.d)
        if self.frame not in FRAME_SIGMA:
            raise ConfigError(f"unknown frame {self.frame!r}")
        if not self.bump_K > 0:
            raise ConfigError("bump_K must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.horizon <= 0 or self.cadence <= 0:
            raise ConfigError("horizon and cadence must be positive")
        ell = eb.ell_of(self.d)
        if self.y_max is None:
            if self.frame == "physical":
                raise ConfigError("physical-frame runs must set y_max explicitly")
            self.y_max = 4.0 * self.K * (self.s0 + self.horizon) ** (1.0 / (2 * ell))
        if self.boundary is None:
            self.boundary = "profile" if self.frame == "selfsimilar" else "neumann"
        if self.dvec and len(self.dvec) != ell:
            raise ConfigError(f"dvec needs {ell} components for d={self.d}")
        if self.dvec and max(abs(float(x)) for x in self.dvec) > 1.0:
            raise ConfigError("perturbation coefficients must lie in [-1, 1]")

    def build_grid(self) -> Grid:
        return Grid.uniform(self.n, self.y_max)


def unstable_modes(d: int, y, s0: float, K: float) -> np.ndarray:
    """The (l, n) stack phi_{2i}(y) chi(xi / K), i < l, with xi = y s0^(-1/(2l)):
    the cut-off unstable modes the initial bump is built from."""
    ell = eb.ell_of(d)
    chi = pr.cutoff_chi(pr.CutoffSpec(K=K), y * s0 ** (-1.0 / (2 * ell)))
    return np.stack([eb.partial_mass_eigen(d, i).evalf(y) * chi for i in range(ell)])


def make_initial_data(config: SimConfig, grid: Grid | None = None,
                      params: pr.ProfileParams | None = None) -> RadialState:
    """Initial field: refined ansatz plus the cut-off unstable-mode bump
    (A/s0^2) sum_i d_i phi_{2i}(y) chi(xi / bump_K)."""
    if grid is None:
        grid = config.build_grid()
    d = config.d
    ell = eb.ell_of(d)
    y = grid.nodes
    if isinstance(config.init, np.ndarray):
        return RadialState(config.frame, config.s0, np.array(config.init, float), grid, d)
    if config.init == "steady":
        return RadialState(config.frame, config.s0, np.full_like(y, 1.0 / d), grid, d)
    if config.init == "zero":
        return RadialState(config.frame, config.s0, np.zeros_like(y), grid, d)
    if config.init != "ansatz":
        raise ConfigError(f"unknown initial data spec {config.init!r}")
    if config.frame != "selfsimilar":
        raise ConfigError("ansatz initial data lives in the self-similar frame")
    s0 = config.s0
    # both the ansatz's unit cutoff and the bump's cutoff must fit on the grid
    support = 2.0 * max(1.0, config.bump_K) * s0 ** (1.0 / (2 * ell))
    if config.y_max < support:
        raise ConfigError(
            f"y_max={config.y_max:.3g} does not cover the cutoff support "
            f"2*max(1, bump_K)*s0^(1/(2 ell)) = {support:.3g}"
        )
    params = params or pr.make_profile_params(d)
    v = pr.psi(params, y, s0)
    if config.dvec:
        modes = unstable_modes(d, y, s0, config.bump_K)
        v = v + (config.A / s0**2) * (np.asarray(config.dvec, float) @ modes)
    return RadialState("selfsimilar", s0, v, grid, d)


@dataclass
class DiagnosticsRecord:
    """One time slice of the shrinking-set diagnostics."""

    s: float
    coefficients: np.ndarray
    tilde_norm: float
    flats: tuple
    out_sup: float
    out_dysup: float
    out_ysup: float
    ratios: dict
    verdict: str
    sup_v: float
    sup_dev_profile: float      # sup_y |v - Q(y s^(-1/(2l)))|

    def max_ratio(self) -> float:
        return max(self.ratios.values())

    def csv_row(self, ell: int) -> str:
        cols = [f"{self.s:.10g}"]
        cols += [f"{c:.12e}" for c in self.coefficients]
        cols += [f"{self.tilde_norm:.12e}"]
        cols += [f"{f:.12e}" for f in self.flats]
        cols += [f"{self.out_sup:.12e}", f"{self.out_ysup:.12e}", f"{self.out_dysup:.12e}"]
        cols += [self.verdict]
        return ",".join(cols)


def csv_header(ell: int) -> str:
    eps = ",".join(f"eps{k}" for k in range(2 * ell))
    return f"s,{eps},tilde_l2rho,flat0,flat1,flat2,out_sup,out_ysup,out_dysup,verdict"


@dataclass
class RunResult:
    config: SimConfig
    records: list
    verdict: str                # trapped / escaped:<bound> / blowup / exit:mode_k / completed
    exit_time: float
    final_state: RadialState
    times: np.ndarray = field(default=None)
    sup_w: np.ndarray = field(default=None)

    def coefficient_table(self):
        s = np.array([r.s for r in self.records])
        c = np.stack([r.coefficients for r in self.records])
        return s, c

    def write_timeseries(self, path, ell: int):
        with open(path, "w") as fh:
            fh.write(csv_header(ell) + "\n")
            for r in self.records:
                fh.write(r.csv_row(ell) + "\n")


def _diag_slice(state: RadialState, ctx, config: SimConfig) -> DiagnosticsRecord:
    dec, rep = dg.decompose(state.values, state.time, ctx, config.A)
    y = ctx.y
    ell = ctx.ell
    q_arr = pr.q_of_xi(ctx.params, y * state.time ** (-1.0 / (2 * ell)))
    return DiagnosticsRecord(
        s=state.time,
        coefficients=dec.coefficients,
        tilde_norm=dec.tilde_norm,
        flats=(rep.measured["flat_0"], rep.measured["flat_1"], rep.measured["flat_2"]),
        out_sup=rep.measured["out_sup"],
        out_dysup=rep.measured["out_dysup"],
        out_ysup=rep.measured["out_ysup"],
        ratios=rep.ratios,
        verdict=rep.verdict,
        sup_v=float(np.max(np.abs(state.values))),
        sup_dev_profile=float(np.max(np.abs(state.values - q_arr))),
    )


# A step that lands this close to a record or end time reaches it; steps that
# would stop short by no more than this are lengthened to land on it exactly.
_TIME_TOL = 1e-12


def run(config: SimConfig, ctx: dg.DiagnosticsContext | None = None) -> RunResult:
    """Step from s0 over the horizon, recording diagnostics at the cadence.

    Stops early with a labeled verdict on field blowup (in either frame: a
    recorded sup |v| above blowup_sup * max(1, sup |v| at s0), or a non-finite
    step), on a shrinking-set bound exceeded by `escape_factor`, or (with
    stop_on_unstable) as soon as an unstable-mode ratio reaches one.
    """
    grid = config.build_grid()
    state = make_initial_data(config, grid)
    stepper = Stepper(grid, config.d, config.frame, config.boundary)
    ell = eb.ell_of(config.d)

    selfsim = config.frame == "selfsimilar"
    track = selfsim and config.track_bounds
    if track and ctx is None:
        ctx = dg.DiagnosticsContext(d=config.d, y=grid.nodes, K=config.K)

    records = []
    times = []
    sup_w = []
    verdict = "completed"
    end_time = config.s0 + config.horizon
    n_records = 0
    next_record = config.s0
    dt_fixed = config.dt
    blowup_limit = config.blowup_sup * max(1.0, float(np.max(np.abs(state.values))))

    if selfsim and dt_fixed is None:
        dt_fixed = stepper.cfl_dt(state, config.cfl)

    stopped = False
    while not stopped:
        if state.time >= next_record - _TIME_TOL:
            if track:
                rec = _diag_slice(state, ctx, config)
                records.append(rec)
                if rec.sup_v > blowup_limit:
                    verdict, stopped = "blowup", True
                elif config.stop_on_unstable and max(
                    rec.ratios[f"mode_{k}"] for k in range(ell)
                ) >= 1.0:
                    kworst = max(range(ell), key=lambda k: rec.ratios[f"mode_{k}"])
                    verdict, stopped = f"exit:mode_{kworst}", True
                elif rec.ratios[rec_worst := max(rec.ratios, key=rec.ratios.get)] >= config.escape_factor:
                    verdict, stopped = f"escaped:{rec_worst}", True
            else:
                w = transform(state.values, grid.nodes, config.d, "w")
                times.append(state.time)
                sup_w.append(float(np.max(w)))
                if np.max(np.abs(state.values)) > blowup_limit:
                    verdict, stopped = "blowup", True
            n_records += 1
            next_record = config.s0 + n_records * config.cadence
        if stopped:
            break
        if state.time >= end_time - _TIME_TOL:
            if track and records and all(r.max_ratio() < 1.0 for r in records):
                verdict = "trapped"
            break
        dt = dt_fixed if dt_fixed is not None else stepper.cfl_dt(state, config.cfl)
        gap = min(end_time, next_record) - state.time
        if dt >= gap - _TIME_TOL:
            dt = gap
        try:
            state = stepper.step(state, dt)
        except StateCorruptionError:
            verdict = "blowup"
            break

    return RunResult(
        config=config,
        records=records,
        verdict=verdict,
        exit_time=state.time,
        final_state=state,
        times=np.array(times) if times else None,
        sup_w=np.array(sup_w) if sup_w else None,
    )


# ---------------------------------------------------------------------------
# Representation transforms and frame maps
# ---------------------------------------------------------------------------

def _cumulative_mass(w, y, d: int):
    """Cumulative integral of w * y^(d-1) with a linear interpolant for w,
    integrating the monomial weight exactly (plain trapezoid misses a factor
    d/2 on the first cell because of the y^(d-1) degeneracy at the origin)."""
    yl, yr = y[:-1], y[1:]
    h = yr - yl
    a = (yr**d - yl**d) / d
    b = (yr ** (d + 1) - yl ** (d + 1)) / (d + 1) - yl * a
    seg = w[:-1] * a + (w[1:] - w[:-1]) / h * b
    m = np.zeros_like(y)
    m[1:] = np.cumsum(seg)
    return m


def transform(values, y, d: int, to: str, frm: str = "v"):
    """Convert between the partial-mass scaled field v, the density w (= u in
    the frame's own variables) and the partial mass m = y^d v.

    Inverse transforms integrate the density with a weight-exact trapezoid
    rule, so round-trips are identities up to quadrature order.
    """
    y = np.asarray(y, float)
    f = np.asarray(values, float)
    if frm == "v":
        v = f
    elif frm in ("w", "u"):
        m = _cumulative_mass(f, y, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(y > 0, m / y**d, f[0] / d)
    elif frm == "m":
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(y > 0, f / y**d, 0.0)
    else:
        raise ConfigError(f"unknown source representation {frm!r}")
    if to == "v":
        return v
    if to in ("w", "u"):
        dv = np.gradient(v, y, edge_order=2)
        w = d * v + y * dv
        return w
    if to == "m":
        return y**d * v
    raise ConfigError(f"unknown target representation {to!r}")


def selfsimilar_to_physical(values, y, s: float, T: float):
    """Map a self-similar slice to physical variables with blowup time T."""
    tau = math.exp(-s)
    r = y * math.sqrt(tau)
    t = T - tau
    return r, t, np.asarray(values, float) / tau


def physical_to_selfsimilar(values, r, t: float, T: float):
    """Inverse map; requires t < T."""
    tau = T - t
    if tau <= 0:
        raise ConfigError("physical time is past the blowup time")
    y = np.asarray(r, float) / math.sqrt(tau)
    s = -math.log(tau)
    return y, s, np.asarray(values, float) * tau


# ---------------------------------------------------------------------------
# Blowup-time estimation
# ---------------------------------------------------------------------------

def estimate_blowup_time(times, sup_w, window: float = 0.4):
    """Least-squares fit of 1/sup w against t over the trailing window.

    Returns (T_estimate, confidence_width).  Requires the windowed sup to be
    monotone increasing.
    """
    t = np.asarray(times, float)
    w = np.asarray(sup_w, float)
    if len(t) < 4:
        raise dg.UnfitError("need at least 4 samples to fit a blowup time")
    n0 = max(0, int(len(t) * (1.0 - window)))
    t, w = t[n0:], w[n0:]
    if np.any(np.diff(w) <= 0):
        raise dg.UnfitError("sup w is not monotone increasing on the fit window")
    g = 1.0 / w
    coef, cov = np.polyfit(t, g, 1, cov=True)
    b, a = coef[0], coef[1]
    if b >= 0:
        raise dg.UnfitError("1/sup w is not decreasing; no finite blowup time")
    T = -a / b
    var = cov[1, 1] / b**2 + cov[0, 0] * (a / b**2) ** 2 + 2 * cov[0, 1] * (-1.0 / b) * (a / b**2)
    width = 2.0 * math.sqrt(max(var, 0.0))
    return float(T), float(width)
