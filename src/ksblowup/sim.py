"""Radial evolution of the partial-mass field in two frames.

Both frames evolve by one flow,
    v_t = Lap_{d+2} v + (v - sigma/2) y v_y + d v^2 - sigma v,
with frame constant sigma = 1 in the self-similar frame (time s, radius y)
and sigma = 0 in the physical frame (time t, radius r): the self-similar
variables add only the linear terms -(1/2) y v_y - v.

Diffusion is treated by Crank-Nicolson and the linear drift -(sigma/2) y v_y
by backward Euler, both in one tridiagonal solve; the nonlinear drift
v y v_y and the reaction d v^2 - sigma v explicitly (first order in time
overall: IMEX splitting in the sense of Ascher, Ruuth & Wetton, SIAM J.
Numer. Anal. 32, 1995).  Each drift has its own advection stencil per node:
second-order centered differences where its cell Peclet number |a| h / 2
stays at or below one and first-order upwinding beyond.  The linear drift
a = -(sigma/2) y grows outward and is state-independent, so its choice is
fixed per grid; the nonlinear drift a = v y is chosen from the state.

The explicit step limit (`Stepper.cfl_dt`) covers only the explicit terms,
so the far-field drift, |a| ~ y_max / 2, no longer sets dt.  A self-similar
run without a fixed dt re-evaluates it from the state at every record.

A step on a small grid costs a fixed overhead per NumPy call, so the raw-array
kernel `Stepper._advance` makes few.  Every explicit term is a stencil over one
gather v[cen_at]: a per-grid (2, 3, N) stack holds E = Lap/2 - sigma I and
D = y (centered d/dy) + d I, and one multiply and one sum give E v and D v, so
b = v + dt (E v + v D v) takes four in-place updates after the per-node
upwind select.  The one finiteness check is on the solution, which any
non-finite field or b reaches; only then does the step look for the stage
that failed.  `rhs` is built from the same stack, so the step and the
semi-discrete operator stay one operator; both match the per-node select of
the textbook stencils to rounding, not bit for bit.

Every caller steps through one call, `Stepper.advance`: `run`, criteria 7 and
11 (`acceptance`) and the tests alike.  It checks the state and step size once,
lands on a record or end time, keeps the step record, and takes each stretch
(a record interval's steps of one dt and the step landing on the record, or
one CFL step) through `Stepper._stretch`, which runs them in one compiled loop,
the C source _kernel.c next to this module; the same loop takes a Neumann
stepper's CFL steps, setting each dt.  It factors each dt and repeats
`_advance` operation for operation, bit for bit.  It is built once per source
and compiler flags into a cache outside the package and loaded with ctypes
(`_loader`, which `diagnostics` shares); without it every step goes through
`_advance`, which imports scipy's LAPACK.  It reads the boundary values of
`Stepper._edges` (Q at the edge), which it forms itself at d=4 and for
Neumann (zeros).  `Stepper.cfl_dt` has a compiled pass too.

A d=4 run that keeps slices takes each record interval in one compiled call
(`Stepper._interval`): the loop forms the step times itself, by
`_stretch_times`' rule, and then measures the field it lands on, the next
record's dt and its slice's measurements, which `run` builds into the record
with `diagnostics.decompose`.  A stop short of the record, or a slice
the compiled pass flags, goes back to `advance` or to `decompose`'s NumPy
path, so errors, verdicts and warnings are theirs.  A search shares the
factors of its step sizes among its probes through one `FactorTable`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import diagnostics as dg
from . import eigenbasis as eb
from . import profile as pr
from ._loader import _address, _library


class ConfigError(ValueError):
    pass


class StateCorruptionError(RuntimeError):
    """Field values became non-finite."""


# the frame constant sigma of the flow (see the module docstring)
FRAME_SIGMA = {"selfsimilar": 1.0, "physical": 0.0}

# ---------------------------------------------------------------------------
# Grid and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing radial nodes starting at 0, a read-only copy, so
    tables built from a grid (keyed by its identity) stay valid."""

    nodes: np.ndarray

    def __post_init__(self):
        y = np.array(self.nodes, float)
        if len(y) < 16:
            raise ConfigError("grid needs at least 16 nodes")
        if y[0] != 0.0 or not np.all(np.diff(y) > 0) or not np.all(np.isfinite(y)):
            raise ConfigError("nodes must be finite, strictly increasing, starting at 0")
        y.setflags(write=False)
        object.__setattr__(self, "nodes", y)

    @classmethod
    @functools.lru_cache(maxsize=4)     # one shared grid per (n, y_max)
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
    centered first derivative, and the Peclet spacing h.

    The gather v[cen_at] holds (v[i+1], v[i], v[i-1]) at an interior node,
    (v[1], v[0], v[0]) at node 0 and (v[N], v[N-1], v[N-1]) at the last; every
    explicit stencil is a (3, N) block of weights over it (`_explicit_stack`)."""

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
        n = len(y)
        i = np.arange(n)
        self.cen_at = np.stack([i + 1, i, i - 1])
        self.cen_at[:, 0] = (1, 0, 0)
        self.cen_at[:, -1] = (n - 1, n - 2, n - 2)


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


def _linear_drift_tridiag(st: _Stencil, sigma: float):
    """Tridiagonal (lower, diag, upper) of the linear drift -(sigma/2) y d/dy.

    Centered where its Peclet number (sigma/2) y h / 2 stays at or below one,
    backward (upwind: the drift points inward) beyond and at the last node;
    row 0 is zero (y = 0).  All zero at sigma = 0.
    """
    a = -0.5 * sigma * st.y
    n = len(a)
    lo, di, up = np.zeros(n), np.zeros(n), np.zeros(n)
    cen = np.abs(a[1:-1]) * st.h[1:-1] <= 2.0
    lo[1:-1] = np.where(cen, -st.hp2 / st.denom, -1.0 / st.hm)
    di[1:-1] = np.where(cen, -st.hm2_hp2 / st.denom, 1.0 / st.hm)
    up[1:-1] = np.where(cen, st.hm2 / st.denom, 0.0)
    lo[-1], di[-1] = -1.0 / st.dy[-1], 1.0 / st.dy[-1]
    return a * lo, a * di, a * up


def _explicit_stack(st: _Stencil, d: int, sigma: float, lo, di, up):
    """The (2, 3, N) weights over the gather v[cen_at] of E = T - sigma I, T
    the tridiagonal (lo, di, up), and D = y (centered d/dy) + d I: then
    (v[cen_at] * stack).sum(axis=1) is (E v, D v), and v D v = v y v_y + d v^2.
    A row is laid out (up, di, lo), or (di, lo, 0) on the last, which gathers
    v[N] first.  D's derivative is centered, (-hp^2, hp^2 - hm^2, hm^2) over
    hm hp (hm + hp) on (v[i-1], v[i], v[i+1]), backward at the last node and
    absent at node 0 (y = 0)."""
    y = st.y
    w = y[1:-1] / st.denom
    dlo, ddi, dup = np.zeros_like(y), np.full_like(y, d), np.zeros_like(y)
    dlo[1:-1], ddi[1:-1], dup[1:-1] = -w * st.hp2, d - w * st.hm2_hp2, w * st.hm2
    dlo[-1], ddi[-1] = -y[-1] / st.dy[-1], d + y[-1] / st.dy[-1]
    stack = np.array([[up, di - sigma, lo], [dup, ddi, dlo]])
    stack[:, :2, -1] = stack[:, 1:, -1]
    stack[:, 2, -1] = 0.0
    return stack


def _explicit(st: _Stencil, v, ev, dv, d: int):
    """E v + v D v from E v and the centered D v (in place), with D v
    upwinded at the nodes whose cell Peclet number |a| h / 2 of the nonlinear
    drift a = v y exceeds one: there it is d v plus y times the forward slope
    where a > 0, the backward one elsewhere and at the last node, zero at
    node 0.  A node whose Peclet number is NaN takes the upwind value."""
    a = v * st.y
    # slope[i] = (v[i] - v[i-1]) / dy[i-1], zero at both ends, so that
    # slope[1:] is the forward and slope[:-1] the backward difference
    slope = np.zeros(len(v) + 1)
    np.divide(v[1:] - v[:-1], st.dy, out=slope[1:-1])
    bwd = slope[:-1]
    up = np.where(a > 0, slope[1:], bwd)
    up[-1] = bwd[-1]
    up[0] = 0.0
    up *= st.y
    up += d * v
    np.copyto(dv, up, where=~(np.abs(a) * st.h <= 2.0))
    dv *= v
    ev += dv
    return ev


def rhs(state: RadialState):
    """Full semi-discrete right-hand side on the grid (one-sided at the end)."""
    state.check_finite()
    y = state.grid.nodes
    v = state.values
    st, _, tri = _grid_tables(state.grid, state.d, state.frame)
    stack = _explicit_stack(st, state.d, FRAME_SIGMA[state.frame], *(tri[:3] + tri[3:]))
    out = _explicit(st, v, *np.add.reduce(v[st.cen_at] * stack, axis=1), state.d)
    # one-sided second-order Laplacian at the outer node (whose row of the
    # tridiagonal is zero), for reporting only
    h1 = y[-1] - y[-2]
    h2 = y[-2] - y[-3]
    vp = (v[-1] - v[-2]) / h1
    vpp = 2.0 * (h2 * v[-1] - (h1 + h2) * v[-2] + h1 * v[-3]) / (h1 * h2 * (h1 + h2))
    out[-1] += vpp + (state.d + 1) / y[-1] * vp
    return out


@functools.lru_cache(maxsize=4)
def _grid_tables(grid: Grid, d: int, frame: str):
    """A `Stepper`'s tables, read-only and shared by the steppers of one grid:
    the stencil, the explicit stack, and the rows (lower, diagonal, upper) of
    Lap, then of D_lin."""
    sigma = FRAME_SIGMA[frame]
    st = _Stencil(grid.nodes)
    lap = _laplacian_tridiag(st, d + 2)
    stack = _explicit_stack(st, d, sigma, *(0.5 * a for a in lap))
    tri = np.array([*lap, *_linear_drift_tridiag(st, sigma)])
    for a in (*vars(st).values(), stack, tri):
        a.setflags(write=False)
    return st, stack, tri


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

# A step that lands this close to a record or end time reaches it; steps that
# would stop short by no more than this are lengthened to land on it exactly.
_TIME_TOL = 1e-12
# The most steps in one stretch: the length of its time and boundary arrays.
_MAX_STRETCH = 4096
# The slots of a search's factor table: criterion 10's search steps at 42 sizes.
_FACTOR_SLOTS = 64


def _stretch_times(t: float, dt: float, target: float, most: int):
    """(dt, last, times) of the next stretch from t: the steps of dt that stop
    short of target by more than _TIME_TOL (at most `most`), their times summed
    in order as t += dt sums them, then, within `most` and unless they end
    within _TIME_TOL of target, the step of `last` that lands on it (else
    last = dt; dt = last where that is the one step)."""
    times = np.full(int(min(most, (target - t) / dt + 1.0)) + 1, dt)
    times[0] = t
    np.cumsum(times, out=times)
    # both tests fail from the first step that fails one: the rest is a prefix
    k = np.count_nonzero((times[:-1] < target - _TIME_TOL)
                         & (dt < (target - times[:-1]) - _TIME_TOL))
    if k == len(times) - 1 or not times[k] < target - _TIME_TOL:
        return dt, dt, times[:k + 1]
    last = target - float(times[k])
    times[k + 1] = times[k] + last
    return (dt if k else last), last, times[:k + 2]


def _cfl_limit(amax: float, react: float, cfl: float) -> float:
    """`Stepper.cfl_dt` from its two maxima: cfl over the nonlinear drift's
    largest |v y| / dy, and at most 0.5 over the reaction's rate."""
    dt = cfl / amax if amax > 0 else math.inf
    if react > 0:
        dt = min(dt, 0.5 / react)
    return dt


class FactorTable:
    """LU factors of the stepper matrix, one slot per step size, shared by
    the probes of one search (`shooting.trap_search`) on one (grid, d,
    frame, boundary).  The compiled loop looks each dt up by exact equality
    and factors a new one into a free slot, or into its stepper's scratch
    once all are taken; no slot is evicted, so the early records' step sizes,
    which every probe shares, stay.  A lone run, which never repeats a dt,
    has none.  Slots are allocated zeroed: only filled ones take memory."""

    def __init__(self, grid: Grid, d: int, frame: str, boundary: str):
        n, slots = len(grid.nodes), _FACTOR_SLOTS
        self.kind = grid, d, frame, boundary
        self._arrays = (np.zeros(slots), np.zeros((slots, 4 * n)), np.zeros((slots, n), np.intc))
        # the loop's entries (_kernel.c): the slot count, the slots used, the addresses
        self._entries = np.array([slots, 0, *(a.ctypes.data for a in self._arrays)], np.uintp)
        self.address = self._entries.ctypes.data


def _most(compiled: int, total: int) -> str:
    """The kernel that took most of `total` operations, `compiled` of them
    in a compiled pass: "compiled" or "numpy"."""
    return "compiled" if 2 * compiled > total else "numpy"


class Stepper:
    """IMEX stepper: Crank-Nicolson diffusion and backward-Euler linear drift
    -(sigma/2) y v_y in one tridiagonal solve; explicit nonlinear drift
    v y v_y and reaction d v^2 - sigma v.

    The stencil spacings, the Laplacian and linear-drift tridiagonals and the
    explicit stack (`_explicit_stack`) are fixed per grid and shared by its
    steppers, and the matrix I - (dt/2) Lap - dt D_lin is LU-factored (LAPACK
    gttrf's algorithm) once per dt of a stretch, so a step is one tridiagonal
    solve, whose forward sweep forms b node by node in the compiled loop.
    `cfl_dt` bounds dt by the explicit terms alone.

    `advance` is the one way to step: it checks its state and step size once,
    steps toward a target time and keeps the step record (`step_record`):
    steps, dt range, the kernel most steps took and the matrices factored.
    Its helper `_stretch` takes a record interval's steps, landing step
    included, in one call of the compiled loop (which also takes a Neumann
    stepper's CFL steps, setting each dt).  The loop factors each dt's matrix
    itself, into a slot of the `FactorTable` a search shares where one is
    given, forms or reads the boundary values (`_edges`) and steps bit for
    bit as the raw-array kernel `_advance` does from the same boundary
    values: one gather and the stack give b, with D v upwinded at the nodes
    that need it (`_explicit`), and finiteness is checked once, on the
    solution; when that fails `_advance` raises StateCorruptionError naming
    the first non-finite stage: the field, the explicit terms, or the solver.
    `run`'s d=4 record intervals take `_interval`, one call of the same loop
    that forms its own step times and measures the field it lands on.
    """

    def __init__(self, grid: Grid, d: int, frame: str, boundary: str,
                 factors: FactorTable | None = None):
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
        self.params = pr.make_profile_params(d) if boundary == "profile" else None
        self.stencil, self.stack, self._tri = _grid_tables(grid, d, frame)
        if factors is not None and factors.kind != (grid, d, frame, boundary):
            raise ConfigError("the factor table belongs to another grid or stepper")
        self._table = factors and factors.address
        self._factors = None, None    # (dt, factors) of the last dt `_factored` factored
        self.compiled_steps = 0       # steps taken in the compiled loop
        self.steps = 0                # steps `advance` took, and their dt range
        self.dt_min, self.dt_max = math.inf, 0.0
        self.factored = 0             # matrices factored, by either kernel
        # the compiled passes' per-grid arrays: the grid's, the loop's scratch
        # (a field and one set of factors, its pivots), the constants (d,
        # sigma, Q's constant at d=4's profile boundary, the time tolerance)
        # and the output; their entries (_kernel.c) one uintp array
        st, n = self.stencil, len(grid.nodes)
        c = self.params.c if boundary == "profile" and self.params.ell == 2 else 0.0
        self._arrays = [np.ascontiguousarray(a, float) for a in (
            st.y, st.h, st.dy, self.stack, self._tri, np.zeros(5 * n))]
        self._arrays += [np.zeros(n, np.intc), np.array([d, self.sigma, c, _TIME_TOL]), np.zeros(8)]
        self._entries = np.array([n, boundary == "neumann", *(a.ctypes.data for a in self._arrays)],
                                 np.uintp)
        self._at = self._entries.ctypes.data

    def _factored(self, dt: float):
        """scipy's gttrf factors (dl, d, du, du2, ipiv) of the matrix
        I - (dt/2) Lap - dt D_lin, whose last row is the boundary condition
        (v_N = value, or v_N - v_{N-1} = 0 for Neumann), kept for the last dt,
        as the compiled loop forms and factors it (_kernel.c).  Entries that
        overflow raise StateCorruptionError, which `run` reads as a verdict."""
        if self._factors[0] == dt:
            return self._factors[1]
        self.factored += 1
        from scipy.linalg.lapack import dgttrf
        lo, di, up, dlo, ddi, dup = self._tri
        with np.errstate(over="ignore", invalid="ignore"):
            dl = -0.5 * dt * lo[1:] - dt * dlo[1:]
            du = -0.5 * dt * up[:-1] - dt * dup[:-1]
            di = 1.0 - 0.5 * dt * di - dt * ddi
        di[-1] = 1.0
        dl[-1] = -1.0 if self.boundary == "neumann" else 0.0
        if not all(np.isfinite(a).all() for a in (dl, di, du)):
            raise StateCorruptionError(f"Crank-Nicolson matrix overflowed at dt={dt}")
        *factors, info = dgttrf(dl, di, du, overwrite_dl=True, overwrite_d=True,
                                overwrite_du=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular Crank-Nicolson matrix")
        self._factors = dt, factors
        return factors

    def step_record(self) -> dict:
        """The steps `advance` took, their smallest and largest dt, the
        kernel that took most of them, "compiled" (the loop of `_stretch`) or
        "numpy" (`_advance`), and the matrices the stepper factored itself (a
        factor table's hits are not counted); the dt range and kernel None
        without steps."""
        if not self.steps:
            return {"steps": 0, "dt_min": None, "dt_max": None, "kernel": None,
                    "factored": self.factored}
        return {"steps": self.steps, "dt_min": self.dt_min, "dt_max": self.dt_max,
                "kernel": _most(self.compiled_steps, self.steps), "factored": self.factored}

    def _count(self, done: int, lo: float, hi: float):
        """Add `done` steps of dt in [lo, hi] to the step record."""
        self.steps += done
        self.dt_min, self.dt_max = min(self.dt_min, lo), max(self.dt_max, hi)

    def _edges(self, times):
        """The boundary value at each of `times`: zero for Neumann, else the
        profile Q at the edge, xi = y_max t^(-1/(2 ell)), in one array call."""
        if self.boundary == "neumann":
            return np.zeros(len(times))
        # each xi by Python's `**`: NumPy's power rounds t ** -0.25 (and
        # t ** -(1/6)) differently for some t, which would move criteria 9 and 10
        xi = [self.grid.nodes[-1] * t ** (-1.0 / (2 * self.params.ell)) for t in times.tolist()]
        return pr.q_of_xi(self.params, np.array(xi))

    def _advance(self, v, time: float, dt: float, edge: float):
        """The step kernel: v at `time` to the field at time + dt, solving
        against b = v + dt (E v + v D v) = v + (dt/2) Lap v + dt (v y v_y +
        d v^2 - sigma v), whose last entry is the boundary value `edge` at
        time + dt (`_edges`).  dt scales the increment before v is added, so a
        steady state's cancellation stays inside the O(dt) term.  Callers
        vouch for v and dt and enter np.errstate."""
        st = self.stencil
        ev, dv = np.add.reduce(v[st.cen_at] * self.stack, axis=1)   # .sum, without its wrapper
        b = _explicit(st, v, ev, dv, self.d)
        b *= dt
        b += v
        b[-1] = edge
        try:
            factors = self._factored(dt)
        except (StateCorruptionError, np.linalg.LinAlgError):
            self._check_inputs(v, time, b)
            raise
        from scipy.linalg.lapack import dgttrs
        # b is kept (no overwrite_b) for the cold path
        v_new, _ = dgttrs(*factors, b)
        # a non-finite field reaches b and a non-finite b the solution, so
        # one check here stands for all three; the cold path names the stage
        if not np.isfinite(v_new).all():
            self._check_inputs(v, time, b)
            raise StateCorruptionError(f"solver produced non-finite values at t={time}")
        return v_new

    def _stretch(self, v, times, dt: float, last: float):
        """Steps from v at times[0] through times[1:], summed as t += dt sums
        them, each of dt but the last, which is of `last`: (the field after
        the last finite step, the count of finite steps, the error of the next
        step or None).  The boundary values of all steps come from one
        `_edges` call, which the compiled loop (`_library`) does without at
        d=4 (it forms them from the times) and for Neumann (zeros).  The loop
        takes the steps in one call as `_advance` would, bit for bit; where it
        stops, at a non-finite step or before one whose matrix overflows or is
        singular or whose boundary value `_edges` raises on, `_advance` takes
        that step again, to raise the error, as it takes every step where
        there is no compiled loop."""
        k, done = len(times) - 1, 0
        lib = _library()
        at_d4 = self.boundary == "profile" and self.params.ell == 2
        own = lib is not None and (at_d4 or self.boundary == "neumann")
        edges = None if own else self._edges(times[1:])
        if lib is not None and k:
            v = np.array(v, float)
            bval = _address(times) if at_d4 else (None if edges is None else _address(edges))
            done = lib.ks_stretch(self._at, self._table, None, k, k, dt, last, 0.0, math.nan, 0.0,
                                  times[0], math.inf, bval, _address(v))
            self.compiled_steps += done
            self.factored += int(self._arrays[-1][3])
        if done < k and edges is None:
            edges = self._edges(times[1:])
        for j in range(done, k):
            try:
                v = self._advance(v, float(times[j]), dt if j < k - 1 else last, edges[j])
            except StateCorruptionError as exc:
                return v, j, exc
        return v, k, None

    def advance(self, state: RadialState, target: float, *, dt: float | None = None,
                cfl: float | None = None, cap: tuple | None = None, most: float = math.inf):
        """Steps of `state` toward target, landing on it exactly
        (`_stretch_times`), at most `most` of them: (the state after the last
        finite step, the StateCorruptionError of a non-finite step or None).

        A fixed dt steps in stretches of up to _MAX_STRETCH steps; without one,
        each step takes `cfl_dt` of its own field at `cfl`, at most
        rate (t_star - t) for a cap (rate, t_star): a Neumann stepper's in one
        compiled loop up to a step it cannot take, else one stretch each.  All
        go under one np.errstate and into the step record (`step_record`).
        The state's frame, grid and d and the step size are checked once."""
        if dt is None and cfl is None:
            raise ConfigError("advance needs a dt or a cfl")
        if dt is not None and not dt > 0:
            raise ConfigError("dt must be positive")
        if cfl is not None and not 0 < cfl < math.inf:
            raise ConfigError("cfl must be positive and finite")
        if state.frame != self.frame:
            raise ConfigError(f"a {self.frame}-frame stepper got a {state.frame}-frame state")
        if state.grid is not self.grid and not np.array_equal(state.grid.nodes, self.grid.nodes):
            raise ConfigError("the state's grid differs from the stepper's")
        if state.d != self.d:
            raise ConfigError(f"a d={self.d} stepper got a d={state.d} state")
        v, t, error, lib = state.values, state.time, None, _library()
        rate, t_star = cap or (math.nan, 0.0)      # a NaN rate caps nothing
        with np.errstate(over="ignore", invalid="ignore"):
            while most > 0 and t < target - _TIME_TOL:
                done = 0
                if dt is None and lib is not None and self.boundary == "neumann":
                    v = np.array(v, float)
                    done = lib.ks_stretch(self._at, self._table, None, 0, most, 0.0, 0.0, cfl, rate,
                                          t_star, t, target, None, _address(v))
                    self.compiled_steps += done
                    # the time reached, the dt range and the matrices factored
                    t, lo, hi, factored = self._arrays[-1].tolist()[:4]
                    self.factored += int(factored)
                if not done:        # a fixed-dt stretch, or one CFL step
                    h = dt or min(self.cfl_dt(RadialState(self.frame, t, v, self.grid, self.d), cfl),
                                  rate * (t_star - t))
                    h, last, times = _stretch_times(t, h, target, min(most, _MAX_STRETCH) if dt else 1)
                    v, done, error = self._stretch(v, times, h, last)
                    t = float(times[done])
                    last = last if done == len(times) - 1 else h     # the last step taken
                    lo, hi = min(h, last), max(h, last)
                if done:
                    most -= done
                    self._count(done, lo, hi)
                if error is not None:
                    break
        return RadialState(self.frame, t, v, self.grid, self.d), error

    def _interval(self, state: RadialState, target: float, dt: float, cfl: float,
                  ctx: dg.DiagnosticsContext | None):
        """`advance(state, target, dt=dt)` for `run` in one call of the
        compiled loop (a d=4 profile or a Neumann stepper), which forms the
        step times by `_stretch_times`' rule and, with ctx (a d=4 context on
        this grid), measures the field it lands on: (the state, None, and
        with ctx the landing's (`cfl_dt` at cfl, `dg.decompose`'s
        measurements or None where the slice pass flags the field, that
        pass's seconds)).  Where the loop stops short, `advance` takes the
        interval again from `state`: (its state, its error, None)."""
        v = np.array(state.values, float)
        done = _library().ks_stretch(self._at, self._table, ctx and ctx._slice_arrays[2], 0,
                                     math.inf, dt, dt, 0.0, math.nan, 0.0, state.time, target,
                                     None, _address(v))
        t, lo, hi, factored, amax, react, flags, slice_s = self._arrays[-1].tolist()
        self.factored += int(factored)
        if t < target - _TIME_TOL:
            return (*self.advance(state, target, dt=dt), None)
        self.compiled_steps += done
        self._count(done, lo, hi)
        landing = ctx and (_cfl_limit(amax, react, cfl), None if flags else dg._taken(ctx), slice_s)
        return RadialState(self.frame, t, v, self.grid, self.d), None, landing

    def _check_inputs(self, v, time: float, b):
        """Raise the error of the first non-finite stage before the solve:
        the field, then the right-hand side b."""
        RadialState(self.frame, time, v, self.grid, self.d).check_finite()
        if not np.isfinite(b).all():
            raise StateCorruptionError(f"explicit terms overflowed at t={time}")

    def cfl_dt(self, state: RadialState, cfl: float) -> float:
        """Step limit of the explicit terms: cfl over the largest |v y| / dy
        of the nonlinear drift, and at most 0.5 over the reaction's rate; the
        maxima by one compiled pass (`ks_cfl`), else NumPy, bit for bit."""
        v = np.ascontiguousarray(state.values)
        lib = _library()
        if lib is not None and v.shape == self.grid.nodes.shape:
            lib.ks_cfl(self._at, v.ctypes.data)
            amax, react = self._arrays[-1].tolist()[:2]
        else:
            a = np.abs(v * self.grid.nodes)
            amax = float((np.maximum(a[1:], a[:-1]) / self.stencil.dy).max())
            react = float(np.abs(2 * self.d * v - self.sigma).max())
        return _cfl_limit(amax, react, cfl)


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
        # a NaN bound or guard compares false, so it would never fire
        for name in ("A", "K", "escape_factor", "blowup_sup"):
            if math.isnan(getattr(self, name)):
                raise ConfigError(f"{name} must not be NaN")
        # a NaN compares false both ways, and a non-finite time never lands
        # on a record or the end: either would loop forever; an infinite cfl
        # switches the advective step limit off; the shrinking-set bounds
        # scale with A, which a sign or zero would flip or void
        for name in ("dt", "horizon", "cadence", "cfl", "A"):
            x = getattr(self, name)
            if x is not None and not (x > 0 and math.isfinite(x)):
                raise ConfigError(f"{name} must be positive and finite")
        if not math.isfinite(self.s0):
            raise ConfigError("s0 must be finite")
        ell = eb.ell_of(self.d)
        if self.y_max is None:
            if self.frame == "physical":
                raise ConfigError("physical-frame runs must set y_max explicitly")
            self.y_max = 4.0 * self.K * (self.s0 + self.horizon) ** (1.0 / (2 * ell))
        if self.boundary is None:
            self.boundary = "profile" if self.frame == "selfsimilar" else "neumann"
        if self.dvec and len(self.dvec) != ell:
            raise ConfigError(f"dvec needs {ell} components for d={self.d}")
        if not all(abs(float(x)) <= 1.0 for x in self.dvec):      # NaN included
            raise ConfigError("perturbation coefficients must lie in [-1, 1]")

    def build_grid(self) -> Grid:
        return Grid.uniform(self.n, self.y_max)


@functools.lru_cache(maxsize=4)
def unstable_modes(d: int, grid: Grid, s0: float, K: float) -> np.ndarray:
    """The (l, n) stack phi_{2i}(y) chi(xi / K), i < l, with xi = y s0^(-1/(2l)):
    the cut-off unstable modes the initial bump is built from, read-only and
    built once per grid, s0 and K while it stays in a small cache."""
    ell, y = eb.ell_of(d), grid.nodes
    chi = pr.cutoff_chi(pr.CutoffSpec(K=K), y * s0 ** (-1.0 / (2 * ell)))
    modes = np.stack([eb.partial_mass_eigen(d, i).evalf(y) * chi for i in range(ell)])
    modes.setflags(write=False)
    return modes


def make_initial_data(config: SimConfig, grid: Grid | None = None) -> RadialState:
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
    if y[-1] < support:
        raise ConfigError(
            f"the grid ends at y={y[-1]:.3g}, short of the cutoff support "
            f"2*max(1, bump_K)*s0^(1/(2 ell)) = {support:.3g}"
        )
    v = pr.psi(pr.make_profile_params(d), y, s0)
    if config.dvec:
        modes = unstable_modes(d, grid, s0, config.bump_K)
        v = v + (config.A / s0**2) * (np.asarray(config.dvec, float) @ modes)
    return RadialState("selfsimilar", s0, v, grid, d)


@dataclass
class RunResult:
    config: SimConfig
    records: list               # dg.Slice per record of a self-similar run tracking bounds
    # trapped / escaped:<bound> / blowup / unstable / exit:mode_k / completed
    verdict: str
    exit_time: float
    final_state: RadialState
    times: np.ndarray = field(default=None)
    sup_w: np.ndarray = field(default=None)
    steps: int = 0              # the stepper's `Stepper.step_record`
    dt_min: float | None = None
    dt_max: float | None = None
    kernel: str | None = None
    factored: int = 0           # matrices the run's stepper factored itself
    slice_kernel: str | None = None     # the code that measured most of `records`
    message: str = ""           # why a non-finite step stopped the run (blowup / unstable)
    step_s: float = 0.0         # wall seconds stepping between records (dt control included)
    diag_s: float = 0.0         # wall seconds in the records: diagnostics slices or sup w

    @property
    def stop_reason(self) -> str:
        """Why the run ended: a non-finite step (a message is set), the record
        guard (`blowup`), a mode exit, an escape, or the horizon."""
        if self.message:
            return "non-finite step"
        return {"blowup": "record guard", "exit": "mode exit",
                "escaped": "escape"}.get(self.verdict.split(":")[0], "horizon")

    def summary(self) -> dict:
        """Verdict, exit time, step record (the matrices factored included),
        the code that measured the slices, message, stop reason and wall-time
        split: criterion 9's `runs` entry and `simulate`'s manifest."""
        return {name: getattr(self, name) for name in (
            "verdict", "exit_time", "steps", "dt_min", "dt_max", "kernel", "factored",
            "slice_kernel", "message", "stop_reason", "step_s", "diag_s")}

    def coefficient_table(self):
        s = np.array([r.s for r in self.records])
        c = np.stack([r.coefficients for r in self.records])
        return s, c


def run(config: SimConfig, ctx: dg.DiagnosticsContext | None = None,
        factors: FactorTable | None = None) -> RunResult:
    """Step from s0 over the horizon, recording at the cadence: a self-similar
    run keeps the `dg.decompose` slice of each record, a physical run sup w.

    Stops early with a labeled verdict on field blowup (in either frame: a
    recorded sup |v| above blowup_sup * max(1, sup |v| at s0), or a non-finite
    step from a field already above that limit), on numerical instability
    (`unstable`: a non-finite step from a field at or below the limit), on a
    shrinking-set bound exceeded by `escape_factor`, or (with
    stop_on_unstable) as soon as an unstable-mode ratio reaches one.

    Without a fixed `dt`, a self-similar run takes `Stepper.cfl_dt` of the
    state at each record until the next one, and a physical run at each step.

    Between records `Stepper.advance` steps to the next record or the end,
    landing on it.  A d=4 run that keeps slices takes each record interval
    in one compiled call, `Stepper._interval`, which also measures the next
    record: its dt and the measurements its slice is built from
    (`dg.decompose`'s `taken`).  A search hands every probe's run its
    `FactorTable` (`factors`); a lone run needs none.
    """
    grid = config.build_grid()
    state = make_initial_data(config, grid)
    stepper = Stepper(grid, config.d, config.frame, config.boundary, factors)
    ell = eb.ell_of(config.d)

    selfsim = config.frame == "selfsimilar"
    track = selfsim and config.track_bounds
    fused = False
    if track:
        if ctx is None:
            ctx = dg.DiagnosticsContext(d=config.d, y=grid.nodes, K=config.K)
        compiled0 = ctx.compiled_slices     # it may have measured other runs' slices
        fused = (ell == ctx.ell == 2 and ctx.y.shape == grid.nodes.shape
                 and _library() is not None)
    landing = None              # the last record call's (dt, measurements, seconds)

    records = []
    times = []
    sup_w = []
    verdict = "completed"
    end_time = config.s0 + config.horizon
    n_records = 0
    next_record = config.s0
    dt_set = config.dt          # or the self-similar dt set at the last record
    blowup_limit = config.blowup_sup * max(1.0, float(np.max(np.abs(state.values))))
    message = ""
    # the clock is read twice per record and never per step
    step_s = diag_s = 0.0
    mark = perf_counter()

    while True:
        v, t = state.values, state.time
        if t >= next_record - _TIME_TOL:
            if selfsim and config.dt is None:
                dt_set = stepper.cfl_dt(state, config.cfl) if landing is None else landing[0]
            slice_s = 0.0 if landing is None else landing[2]     # the call's slice seconds
            now = perf_counter()
            step_s += now - mark - slice_s
            if track:
                rec = dg.decompose(v, t, ctx, config.A, landing and landing[1])
                records.append(rec)
                kworst = max(range(ell), key=lambda k: rec.ratios[f"mode_{k}"])
                if rec.sup_v > blowup_limit:
                    verdict = "blowup"
                elif config.stop_on_unstable and rec.ratios[f"mode_{kworst}"] >= 1.0:
                    verdict = f"exit:mode_{kworst}"
                elif rec.max_ratio() >= config.escape_factor:
                    verdict = f"escaped:{rec.worst}"
            else:
                times.append(t)
                sup_w.append(float(np.max(transform(v, grid.nodes, config.d, "w"))))
                if np.max(np.abs(v)) > blowup_limit:
                    verdict = "blowup"
            n_records += 1
            next_record = config.s0 + n_records * config.cadence
            mark = perf_counter()
            diag_s += mark - now + slice_s
            if verdict != "completed":      # a record stopped the run
                break
        if t >= end_time - _TIME_TOL:
            if track and records and all(r.max_ratio() < 1.0 for r in records):
                verdict = "trapped"
            break
        # a physical run without a fixed dt takes its own at every step
        target = min(end_time, next_record)
        if fused:
            state, error, landing = stepper._interval(
                state, target, dt_set, config.cfl, ctx if target >= next_record - _TIME_TOL else None)
        else:
            state, error = stepper.advance(state, target, dt=dt_set, cfl=config.cfl)
        if error is not None:
            message = str(error)
            verdict = "blowup" if np.max(np.abs(state.values)) > blowup_limit else "unstable"
            break
    step_s += perf_counter() - mark

    return RunResult(
        config=config,
        records=records,
        verdict=verdict,
        exit_time=state.time,
        final_state=state,
        times=np.array(times) if times else None,
        sup_w=np.array(sup_w) if sup_w else None,
        **stepper.step_record(),
        slice_kernel=_most(ctx.compiled_slices - compiled0, len(records)) if track else None,
        message=message,
        step_s=step_s,
        diag_s=diag_s,
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
