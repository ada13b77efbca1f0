
import ctypes
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from ksblowup import diagnostics as dg
from ksblowup import eigenbasis as eb
from ksblowup import profile as pr
from ksblowup import sim
from ksblowup.exactpoly import ExactPoly


@pytest.fixture(scope="module")
def ctx4():
    return dg.DiagnosticsContext(d=4, y=np.linspace(0.0, 40.0, 8001), K=10.0)


@pytest.fixture(scope="module")
def ctx3():
    return dg.DiagnosticsContext(d=3, y=np.linspace(0.0, 45.0, 9001), K=10.0)


# ---------------------------------------------------------------------------
# mode projections
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(4))
def test_projection_is_delta_on_eigenmodes(ctx4, m):
    f = eb.partial_mass_eigen(4, m).evalf(ctx4.y)
    proj = ctx4.project_all(f)
    want = np.eye(4)[m]
    assert np.max(np.abs(proj - want)) < 1e-8


def test_projection_matches_exact_rational(ctx4):
    # a plain polynomial projected by quadrature vs the exact inner product
    poly = ExactPoly([2, 0, 1], "y")        # 2 + y^4-coefficient in y^2-powers
    f = poly.evalf(ctx4.y)
    for k in range(4):
        phk = eb.partial_mass_eigen(4, k)
        exact = float(eb.inner_product(4, "rho", poly, phk)
                      / eb.inner_product(4, "rho", phk, phk))
        assert ctx4.project_all(f)[k] == pytest.approx(exact, abs=1e-10)


def test_projection_of_ansatz_matches_null_coefficient():
    # eps = psi - 1/d projects on the zero mode like -1/(B s) at large s
    d = 4
    p = pr.make_profile_params(d)
    y = np.linspace(0.0, 40.0, 8001)
    ctx = dg.DiagnosticsContext(d=d, y=y, K=10.0, params=p)
    s = 1e5
    f = pr.psi(p, y, s) - 1.0 / d
    got = ctx.project_all(f)[p.ell]
    assert got == pytest.approx(-1.0 / (p.B * s), rel=1e-2)


def test_coverage_error():
    with pytest.raises(dg.CoverageError):
        dg.DiagnosticsContext(d=4, y=np.linspace(0.0, 8.0, 200))


def test_context_rejects_a_grid_out_of_order_or_below_zero():
    # the quadrature weights and the cutoff bands read the nodes in order
    y = np.linspace(0.0, 60.0, 601)
    for bad in (y[::-1], np.r_[y[:300], y[299:]], y - 1.0):
        with pytest.raises(ValueError, match="strictly increasing"):
            dg.DiagnosticsContext(d=4, y=bad)


# ---------------------------------------------------------------------------
# flat norm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_mode_tables_are_built_on_first_use_with_the_eager_bits(compiled, monkeypatch):
    # a context that only takes flat norms builds no mode table; built on first
    # use, the tables have the bits of the eager construction, and a slice of a
    # criterion-10 field measured through them has the bits of one measured
    # through tables set eagerly, with the compiled pass and without it
    if not compiled:
        monkeypatch.setattr(dg, "_library", lambda: None)
    elif dg._library() is None:
        pytest.skip("no compiled slice pass")
    y = np.linspace(0.0, 200.0, 100001)
    ctx = dg.DiagnosticsContext(d=3, y=y, K=10.0, coverage_tol=np.inf)
    dg.flat_norm(pr.ansatz_residual(ctx.params, y, 100.0), ctx, j=0)
    assert not {"phi", "quad_rho", "phi_norm_sq", "_slice_arrays"} & set(vars(ctx))

    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, A=20.0, K=10.0,
                        dvec=(0.4, -0.25))
    y = cfg.build_grid().nodes
    v = sim.make_initial_data(cfg).values + 1e-4 * np.exp(-0.02 * (y - 30.0) ** 2)
    lazy = dg.DiagnosticsContext(d=4, y=y, K=cfg.K)
    rec = dg.decompose(v, cfg.s0, lazy, cfg.A)
    assert lazy.compiled_slices == int(compiled)
    eager = dg.DiagnosticsContext(d=4, y=y, K=cfg.K)
    tw = np.zeros_like(y)
    tw[1:-1] = 0.5 * (y[2:] - y[:-2])
    tw[0], tw[-1] = 0.5 * (y[1] - y[0]), 0.5 * (y[-1] - y[-2])
    eager.quad_rho = dg.rho_weight(4, y) * tw
    eager.phi = np.stack([eb.partial_mass_eigen(4, k).evalf(y) for k in range(4)])
    eager.phi_norm_sq = np.array([dg.rho_norm_sq_true(4, k) for k in range(4)])
    for name in ("quad_rho", "phi", "phi_norm_sq"):
        assert getattr(lazy, name).tobytes() == getattr(eager, name).tobytes(), name
    assert _slice_bits(dg.decompose(v, cfg.s0, eager, cfg.A)) == _slice_bits(rec)


@pytest.mark.parametrize("K", [10.0, 3.0, 0.7])
def test_flat_weights_have_the_bits_of_the_whole_grid_formula(K):
    # the context forms flat_w only on and past the cutoff's band; it equals
    # (1 - chi_K) y^(-4l-3) tw formed on the whole grid, byte for byte, with
    # nodes at K and 2K and their neighbours, on a geometric grid, the
    # criterion-9 and criterion-10 grids and criterion 8's flat grid
    edges = [K, 2.0 * K, *(np.nextafter(e, lim) for e in (K, 2.0 * K) for lim in (0.0, np.inf))]
    grids = [np.unique(np.r_[np.linspace(0.0, 60.0, 601), edges]),
             np.r_[0.0, np.geomspace(1e-3, 120.0, 3000)],
             sim.SimConfig(d=4, n=2048, s0=50.0, horizon=10.0, K=10.0).build_grid().nodes,
             sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, K=10.0).build_grid().nodes,
             np.linspace(0.0, 200.0, 100001)]
    spec = pr.CutoffSpec(K=K)
    for d in (3, 4):
        ell = eb.ell_of(d)
        for y in grids:
            ctx = dg.DiagnosticsContext(d=d, y=y, K=K, coverage_tol=np.inf)
            tw = np.zeros_like(y)
            tw[1:-1] = 0.5 * (y[2:] - y[:-2])
            tw[0], tw[-1] = 0.5 * (y[1] - y[0]), 0.5 * (y[-1] - y[-2])
            with np.errstate(divide="ignore"):
                wy = np.where(y > 0, y ** (-4.0 * ell - 3.0), 0.0)
            want = (1.0 - pr.cutoff_chi(spec, y)) * wy * tw
            assert ctx._tw.tobytes() == tw.tobytes()
            assert ctx.flat_w.tobytes() == want.tobytes(), (d, len(y))
    assert set(edges) <= set(grids[0])


def test_context_construction_keeps_its_temporaries_small():
    # tracemalloc sees NumPy's buffers: building a context on criterion 8's
    # flat grid peaks below the arrays it keeps (tw and flat_w) and 1 MiB
    import tracemalloc
    y = np.linspace(0.0, 200.0, 100001)
    for d in (3, 4):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ctx = dg.DiagnosticsContext(d=d, y=y, K=10.0, coverage_tol=np.inf)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert kept >= ctx._tw.nbytes + ctx.flat_w.nbytes
        assert peak < ctx._tw.nbytes + ctx.flat_w.nbytes + 2**20


def test_flat_norm_zero(ctx4):
    assert dg.flat_norm(np.zeros_like(ctx4.y), ctx4) == 0.0


def test_flat_norm_closed_form_sharp():
    # for f = y^(2l) a sharp cutoff at K gives the closed form (2 K^2)^(-1/2);
    # the smooth cutoff weighs [K, 2K] by less than one and [2K, inf) fully,
    # so its norm lies between the sharp norms at 2K and at K
    ell, K = 2, 10.0
    ctx = dg.DiagnosticsContext(d=4, y=np.linspace(0, 400, 400001), K=K,
                                coverage_tol=np.inf)
    f = ctx.y ** (2 * ell)
    smooth = dg.flat_norm(f, ctx, j=0)
    assert (8 * K**2) ** -0.5 < smooth < (2 * K**2) ** -0.5


def test_flat_norm_divergent_tail_flagged():
    ctx = dg.DiagnosticsContext(d=4, y=np.linspace(0, 400, 200001), K=10.0,
                                coverage_tol=np.inf)
    with pytest.raises(dg.NonIntegrableTailError):
        dg.flat_norm(ctx.y ** (2 * ctx.ell + 2), ctx, j=0)


def test_tail_check_counts_positive_entries_and_flags_late_growth():
    ctx = dg.DiagnosticsContext(d=4, y=np.linspace(0.0, 60.0, 6001), K=10.0)
    y = ctx.y
    # fewer than 32 positive entries over thousands of nodes, growing: the
    # count rule returns before the window test, which would flag them
    sparse = np.zeros_like(y)
    sparse[2000::150] = y[2000::150] ** 8
    live = np.flatnonzero(ctx.flat_w * sparse * sparse > 0)
    assert len(live) < 32 and live[-1] - 5 - live[0] + 1 >= 32
    assert math.isfinite(dg.flat_norm(sparse, ctx, j=0))
    # a decaying field whose integrand turns up over its last nodes
    late = np.exp(-0.05 * y**2) + 1e-3 * np.where(y > 50.0, y - 50.0, 0.0) ** 4
    with pytest.raises(dg.NonIntegrableTailError):
        dg.flat_norm(late, ctx, j=0)
    with pytest.raises(dg.NonIntegrableTailError):
        dg.decompose(pr.psi(ctx.params, y, 50.0) + late, 50.0, ctx, 20.0)
    # decay is judged at the end of the domain, not at the end of the
    # support: a field that grows up to y = 21.5 and is zero beyond passes,
    # and so does the j = 2 integrand of a bump of scale 4 (the slice of
    # that field is in `slice_fields`)
    compact = np.where(y < 21.5, y**8, 0.0)
    assert math.isfinite(dg.flat_norm(compact, ctx, j=0))
    # the rule with windows that end at the support's end would raise
    f = ctx.flat_w * compact * compact
    live = np.flatnonzero(f > 0)
    i1 = live[-1] - 5
    n = i1 - live[0] + 1
    last = np.mean(f[i1 - n // 8: i1 + 1])
    assert last >= np.mean(f[i1 - n // 4: i1 - n // 8]) and last > 1e-6 * np.max(f)
    # the five last nodes are skipped, the sixth from the end counts
    for back, flagged in ((5, False), (6, True)):
        spike = np.exp(-0.05 * y**2)
        spike[-back] = 1e3
        if flagged:
            with pytest.raises(dg.NonIntegrableTailError):
                dg.flat_norm(spike, ctx, j=0)
        else:
            assert math.isfinite(dg.flat_norm(spike, ctx, j=0))


@pytest.mark.skipif(sim._library() is None, reason="no compiled slice pass")
def test_compiled_tail_check_anchors_its_windows_as_numpy():
    # the compiled pass's tail test flags exactly the single integrands that
    # `_check_tail_decay` raises on: a decaying row with a spike or a rise of
    # 8 nodes ending at each of its last 12 nodes and at each edge of the two
    # windows, on supports that start at several nodes, so the windows move
    # (the last one too short to test).  A spike at the sixth node from the
    # end flags and one at the fifth does not, in both
    tail_grows = ctypes.CFUNCTYPE(ctypes.c_long, ctypes.c_long, ctypes.c_void_p,
                                  ctypes.c_long)(("ks_tail_grows", sim._library()))
    n = 400
    outcomes = {}
    for first in (0, 37, 300, 370):
        base = np.exp(-0.01 * np.arange(n))
        base[:first] = 0.0
        i1 = n - 6
        m = i1 - first + 1
        for end in {*range(n - 12, n), i1 - m // 8, i1 - m // 8 - 1, i1 - m // 4,
                    i1 - m // 4 - 1}:
            for width in (1, 8):
                row = base.copy()
                row[end - width + 1:end + 1] += np.linspace(1.0 / width, 1.0, width)
                try:
                    dg._check_tail_decay(row)
                    raised = False
                except dg.NonIntegrableTailError:
                    raised = True
                assert tail_grows(n, row.ctypes.data, np.count_nonzero(row > 0)) == raised, (
                    first, end, width)
                outcomes[first, end, width] = raised
    assert outcomes[0, n - 6, 1] and not outcomes[0, n - 5, 1]
    assert not any(raised for (first, _, _), raised in outcomes.items() if first == 370)
    assert 0 < sum(outcomes.values()) < len(outcomes) / 2


def test_flat_norm_homogeneity(ctx4):
    f = np.exp(-0.05 * ctx4.y**2) * ctx4.y**2
    a = dg.flat_norm(3.0 * f, ctx4, j=1)
    b = dg.flat_norm(f, ctx4, j=1)
    assert a == pytest.approx(3.0 * b, rel=1e-13)


def test_flat_norm_unresolved_warning(ctx4):
    f = np.sign(np.sin(50.0 * ctx4.y)) * np.exp(-0.01 * ctx4.y**2)
    with pytest.warns(RuntimeWarning):
        dg.flat_norm(f, ctx4, j=1)


def test_flat_norm_bad_order(ctx4):
    with pytest.raises(ValueError):
        dg.flat_norm(np.zeros_like(ctx4.y), ctx4, j=3)


# ---------------------------------------------------------------------------
# outer norms
# ---------------------------------------------------------------------------

def test_outer_norms_support():
    d, K, s = 4, 2.0, 16.0
    y = np.linspace(0.0, 40.0, 16001)
    ctx = dg.DiagnosticsContext(d=d, y=y, K=K)
    scale = s ** 0.25
    inside = np.where(y <= K * scale, 1.0, 0.0)
    assert dg.outer_norms(inside, ctx, s) == (0.0, 0.0, 0.0)
    const = np.full_like(y, 0.7)
    o0, _, _ = dg.outer_norms(const, ctx, s)
    assert o0 == pytest.approx(0.7)
    with np.errstate(divide="ignore"):
        inv = np.where(y > 0, 1.0 / y, 0.0)
    _, _, oy = dg.outer_norms(inv, ctx, s)
    assert oy == pytest.approx(1.0, abs=1e-12)


def test_outer_norms_coverage():
    ctx = dg.DiagnosticsContext(d=4, y=np.linspace(0.0, 30.0, 2001), K=10.0)
    with pytest.raises(dg.CoverageError):
        dg.outer_norms(np.zeros(2001), ctx, 1e4)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def _slice_bits(rec):
    """Every field of a slice as bytes and types, NaNs included, in order."""
    floats = [rec.s, rec.tilde_norm, *rec.measured.values(), *rec.ratios.values(),
              rec.sup_v, rec.sup_dev_profile]
    return (rec.coefficients.dtype, rec.coefficients.shape, rec.coefficients.tobytes(),
            np.array(floats).tobytes(), [type(x) for x in floats], list(rec.measured),
            list(rec.ratios), rec.verdict, rec.worst)


def _decompose(v, s, ctx, A):
    """dg.decompose, after checking that its slice has the same bits with and
    without the compiled slice pass."""
    rec = dg.decompose(v, s, ctx, A)
    with mock.patch.object(dg, "_library", lambda: None):
        assert _slice_bits(dg.decompose(v, s, ctx, A)) == _slice_bits(rec)
    return rec


def _numpy_euler(y, f):
    """The reference: y * np.gradient(f, y, edge_order=1)."""
    return y * np.gradient(f, y, edge_order=1)


def _plain_slice(v, s, ctx):
    """(coefficients, measured values, sup |v|, sup |v - Q|) of a slice from
    the plain NumPy forms: pr.psi_hat, one np.sum per sum, np.gradient,
    cutoff_chi over the whole grid and np.max."""
    p, ell, y = ctx.params, ctx.ell, ctx.y
    xi = y * s ** (-1.0 / (2 * ell))
    q = pr.q_of_xi(p, xi)
    ph = pr.psi_hat(p, y, s)
    eps_hat = v - (q + ph)
    coeffs = np.array([np.sum(ctx.quad_rho * eps_hat * ctx.phi[k]) / ctx.phi_norm_sq[k]
                       for k in range(2 * ell)])
    measured = {f"mode_{k}": abs(float(c)) for k, c in enumerate(coeffs) if k != ell}
    measured["null_mode"] = abs(float(coeffs[ell]))
    tilde = eps_hat - np.sum(coeffs[:, None] * ctx.phi, axis=0)
    measured["l2rho"] = float(np.sqrt(np.sum(ctx.quad_rho * tilde**2)))
    f = eps_hat
    for j in range(3):
        measured[f"flat_{j}"] = float(np.sqrt(np.sum(ctx.flat_w * f * f)))
        f = _numpy_euler(y, f)
    ex = (eps_hat + ph) * (1.0 - pr.cutoff_chi(ctx.cut_spec, xi))
    measured["out_sup"] = float(np.max(np.abs(ex)))
    measured["out_dysup"] = float(np.max(np.abs(_numpy_euler(y, ex))))
    measured["out_ysup"] = float(np.max(np.abs(y * ex)))
    return coeffs, measured, float(np.max(np.abs(v))), float(np.max(np.abs(v - q)))


def _stepped(cfg, grid, s):
    """The field of `cfg` stepped from s0 to s at its initial CFL dt."""
    stepper = sim.Stepper(grid, cfg.d, "selfsimilar", "profile")
    state = sim.make_initial_data(cfg, grid)
    state, error = stepper.advance(state, s, dt=stepper.cfl_dt(state, 0.4))
    assert error is None
    return state.values


@pytest.fixture(scope="module")
def slice_fields():
    """(name, v, s, ctx): criterion-9 fields (n=2048) and criterion-10 fields
    (n=1024) at s0 and stepped; d=3 and d=4 fields on two geometric grids,
    which take the non-uniform Euler stencil; a field whose grid has nodes
    at xi = 1, 2, K and 2K exactly, on equal spacings; a criterion-10 field
    with a NaN; a d=4 field at s = 0.37, where t = c xi^4 reaches 1e7; and a
    bump of scale 4 whose v - psi ends at y = 21.5 on a grid to y = 115."""
    fields = []
    for n, dvec, s in ((2048, (), 50.7), (1024, (0.4, -0.25), 51.3)):
        cfg = sim.SimConfig(d=4, n=n, s0=50.0, horizon=10.0, cadence=0.1, A=20.0, K=10.0,
                            dvec=dvec)
        grid = cfg.build_grid()
        ctx = dg.DiagnosticsContext(d=4, y=grid.nodes, K=cfg.K)
        fields.append((f"n={n} s0", sim.make_initial_data(cfg, grid).values, 50.0, ctx))
        fields.append((f"n={n} stepped", _stepped(cfg, grid, s), s, ctx))
    nan = fields[-1][1].copy()
    nan[700] = np.nan
    fields.append(("nan", nan, fields[-1][2], fields[-1][3]))
    cfg = sim.SimConfig(d=3, n=1024, s0=50.0, horizon=20.0, A=20.0, K=10.0,
                        dvec=(0.4, -0.25, 0.3))
    grid = sim.Grid.geometric(cfg.n, cfg.y_max, 1.002)
    ctx = dg.DiagnosticsContext(d=3, y=grid.nodes, K=cfg.K)
    fields.append(("d=3 geometric", _stepped(cfg, grid, 50.5), 50.5, ctx))
    cfg = sim.SimConfig(d=4, n=400, y_max=60.0, s0=50.0, horizon=20.0, A=20.0, K=10.0,
                        dvec=(0.4, -0.25))
    grid = sim.Grid.geometric(cfg.n, cfg.y_max, 1.01)
    ctx = dg.DiagnosticsContext(d=4, y=grid.nodes, K=cfg.K)
    fields.append(("d=4 geometric 400", _stepped(cfg, grid, 50.4), 50.4, ctx))
    # xi = y / 2 at s = 16, on the nodes k / 64
    y = np.arange(4097) / 64.0
    ctx = dg.DiagnosticsContext(d=4, y=y, K=10.0)
    v = pr.psi(ctx.params, y, 16.0) + 1e-3 * np.exp(-0.02 * (y - 30.0) ** 2)
    fields.append(("xi at K, 2K", v, 16.0, ctx))
    v = pr.psi(ctx.params, y, 0.37) + 1e-3 * np.exp(-0.02 * (y - 30.0) ** 2)
    fields.append(("d=4 s=0.37", v, 0.37, ctx))
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, A=20.0, K=10.0, bump_K=4.0,
                        dvec=(0.3906, 0.25))
    grid = cfg.build_grid()
    ctx = dg.DiagnosticsContext(d=4, y=grid.nodes, K=cfg.K)
    fields.append(("compact bump", sim.make_initial_data(cfg, grid).values, 50.0, ctx))
    return fields


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
def test_slice_equals_the_plain_numpy_slice_bit_for_bit(compiled, slice_fields, monkeypatch):
    # every measured value of decompose has the bits of its plain NumPy form,
    # with the compiled slice pass (which takes every such field itself) and
    # without it; a field with a growing tail raises and a rough one warns
    # once, as the NumPy path does, since the pass hands both to it
    flags = []
    if compiled:
        lib = dg._library()
        if lib is None:
            pytest.skip("no compiled slice pass")

        class Counted:
            def ks_slice(self, *args):
                flags.append(lib.ks_slice(*args))
                return flags[-1]

        monkeypatch.setattr(dg, "_library", Counted)
    else:
        monkeypatch.setattr(dg, "_library", lambda: None)
    for name, v, s, ctx in slice_fields:
        rec = dg.decompose(v, s, ctx, 20.0)
        coeffs, measured, sup_v, sup_dev = _plain_slice(v, s, ctx)
        assert rec.coefficients.tobytes() == coeffs.tobytes(), name
        assert list(rec.measured) == list(measured), name
        got = [rec.tilde_norm, *rec.measured.values(), rec.sup_v, rec.sup_dev_profile]
        want = [measured["l2rho"], *measured.values(), sup_v, sup_dev]
        assert np.array(got).tobytes() == np.array(want).tobytes(), name
        assert np.isnan(got).any() == (name == "nan"), name
    assert flags == ([0] * len(slice_fields) if compiled else [])

    y = np.linspace(0.0, 60.0, 6001)
    ctx = dg.DiagnosticsContext(d=4, y=y, K=10.0)
    late = np.exp(-0.05 * y**2) + 1e-3 * np.where(y > 50.0, y - 50.0, 0.0) ** 4
    with pytest.raises(dg.NonIntegrableTailError, match="does not decay"):
        dg.decompose(pr.psi(ctx.params, y, 50.0) + late, 50.0, ctx, 20.0)
    # rough everywhere, and rough only between the first two nodes
    rough = (pr.psi(ctx.params, y, 50.0)
             + 1e-2 * np.sign(np.sin(50.0 * y)) * np.exp(-0.01 * y**2))
    first = pr.psi(ctx.params, y, 50.0)
    first[0] += 1.0
    for v in (rough, first):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = dg.decompose(v, 50.0, ctx, 20.0)
        assert [(w.category, "unresolved" in str(w.message)) for w in caught] == [
            (RuntimeWarning, True)]
        assert rec.measured == _plain_slice(v, 50.0, ctx)[1]
    # s = 1e-300 puts xi = y 1e75 and t = c xi^4 past the largest double
    # from y = 170: q_of_xi raises, the pass hands the slice to it
    y = np.linspace(0.0, 1000.0, 4001)
    ctx = dg.DiagnosticsContext(d=4, y=y, K=10.0)
    with pytest.raises(ValueError, match=re.escape("out of range (t not finite)")), \
            np.errstate(over="ignore"):
        dg.decompose(np.zeros_like(y), 1e-300, ctx, 20.0)
    assert flags[len(slice_fields):] == ([2, 1, 1, 3] if compiled else [])


def test_decompose_of_pure_ansatz():
    d = 4
    y = np.linspace(0.0, 60.0, 6001)
    ctx = dg.DiagnosticsContext(d=d, y=y, K=10.0)
    s, A = 50.0, 20.0
    v = pr.psi(ctx.params, y, s)
    rec = dg.decompose(v, s, ctx, A)
    assert np.max(np.abs(rec.coefficients)) < 1e-12
    assert rec.tilde_norm < 1e-12
    assert rec.verdict == "inside"


def test_decompose_saturating_mode():
    d = 4
    y = np.linspace(0.0, 60.0, 6001)
    ctx = dg.DiagnosticsContext(d=d, y=y, K=10.0)
    s, A = 50.0, 20.0
    bump = (A / s**2) * eb.partial_mass_eigen(d, 0).evalf(y)
    v = pr.psi(ctx.params, y, s) + bump
    rec = dg.decompose(v, s, ctx, A)
    assert rec.ratios["mode_0"] == pytest.approx(1.0, abs=1e-6)
    assert rec.verdict == "boundary"
    assert rec.worst == "mode_0"


def test_decompose_idempotent_and_parseval():
    d = 4
    y = np.linspace(0.0, 60.0, 6001)
    ctx = dg.DiagnosticsContext(d=d, y=y, K=10.0)
    s, A = 50.0, 20.0
    v = pr.psi(ctx.params, y, s) + 1e-3 * np.exp(-0.2 * y**2) * (1 - y + 0.3 * y**2)
    rec = dg.decompose(v, s, ctx, A)
    # the slice keeps no residual field: rebuild it from eps_hat = v - psi
    nat = np.sum(rec.coefficients[:, None] * ctx.phi, axis=0)
    tilde = (v - pr.psi(ctx.params, y, s)) - nat
    assert rec.tilde_norm == ctx.rho_norm(tilde)
    # re-projecting the residual gives ~0 for all stored modes
    reproj = ctx.project_all(tilde)
    assert np.max(np.abs(reproj)) < 1e-10
    # Parseval-type consistency for the natural part
    lhs = ctx.rho_norm(nat) ** 2
    rhs = float(np.sum(rec.coefficients**2 * ctx.phi_norm_sq))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_decompose_evaluates_q_and_the_flat_chain_once():
    # sup |v - Q| is measured against Q itself, psi is Q + psi_hat as pr.psi
    # forms it, and the three flat norms from one derivative chain equal three
    # flat_norm calls
    d = 4
    y = np.linspace(0.0, 60.0, 6001)
    ctx = dg.DiagnosticsContext(d=d, y=y, K=10.0)
    s, A = 50.0, 20.0
    v = pr.psi(ctx.params, y, s) + 1e-3 * np.exp(-0.2 * y**2) * (1 - y + 0.3 * y**2)
    rec = _decompose(v, s, ctx, A)
    q = pr.q_of_xi(ctx.params, y * s ** -0.25)
    assert rec.sup_dev_profile == float(np.max(np.abs(v - q)))
    assert rec.sup_v == float(np.max(np.abs(v)))
    eps_hat = v - pr.psi(ctx.params, y, s)
    assert np.array_equal(rec.coefficients, ctx.project_all(eps_hat))
    for j in range(3):
        assert rec.measured[f"flat_{j}"] == dg.flat_norm(eps_hat, ctx, j=j)
    # an unresolved field still warns
    rough = v + 1e-2 * np.sign(np.sin(50.0 * y)) * np.exp(-0.01 * y**2)
    with pytest.warns(RuntimeWarning, match="unresolved"):
        dg.decompose(rough, s, ctx, A)


def test_decompose_pinned_on_a_perturbed_criterion_10_field():
    # every coefficient and measured value equals the slice assembled here from
    # np.gradient and the closed-form Q of pr._solve_profile at t = c xi^4 by
    # products, c ((xi xi)(xi xi)), bit for bit
    cfg = sim.SimConfig(d=4, n=1024, s0=50.0, horizon=20.0, cadence=0.1, A=20.0,
                        K=10.0, dvec=(0.4, -0.25))
    y = cfg.build_grid().nodes
    ctx = dg.DiagnosticsContext(d=4, y=y, K=cfg.K)
    p, ell, s, A = ctx.params, ctx.ell, cfg.s0, cfg.A
    v = sim.make_initial_data(cfg).values
    v = v + 1e-4 * np.exp(-0.02 * (y - 30.0) ** 2)       # reaches the outer region
    rec = _decompose(v, s, ctx, A)

    xi = y * s ** (-1.0 / (2 * ell))
    q = pr._solve_profile(p, p.c * ((xi * xi) * (xi * xi)))[0]
    ph = pr.psi_hat(p, y, s)
    eps_hat = v - (q + ph)
    coeffs = ctx.project_all(eps_hat)
    assert rec.coefficients.tobytes() == coeffs.tobytes()
    want = {f"mode_{k}": abs(float(c)) for k, c in enumerate(coeffs) if k != ell}
    want["null_mode"] = abs(float(coeffs[ell]))
    want["l2rho"] = ctx.rho_norm(eps_hat - np.sum(coeffs[:, None] * ctx.phi, axis=0))
    f = eps_hat
    for j in range(3):
        want[f"flat_{j}"] = float(np.sqrt(np.sum(ctx.flat_w * f * f)))
        f = _numpy_euler(y, f)
    ex = (eps_hat + ph) * (1.0 - pr.cutoff_chi(ctx.cut_spec, xi))
    want["out_sup"] = float(np.max(np.abs(ex)))
    want["out_dysup"] = float(np.max(np.abs(_numpy_euler(y, ex))))
    want["out_ysup"] = float(np.max(np.abs(y * ex)))
    assert rec.measured == want
    assert rec.tilde_norm == want["l2rho"]
    assert rec.sup_dev_profile == float(np.max(np.abs(v - q)))
    assert min(want.values()) > 0.0


def test_decompose_pinned_on_a_perturbed_d3_field_on_a_geometric_grid():
    # the d=3 twin: ell = 3 takes Q's sinh/arsinh closed form, and the
    # geometric grid the non-uniform Euler stencil; the coefficients are
    # pinned against one np.sum per mode, bit for bit
    cfg = sim.SimConfig(d=3, n=1024, s0=50.0, horizon=20.0, cadence=0.1, A=20.0,
                        K=10.0, dvec=(0.4, -0.25, 0.3))
    grid = sim.Grid.geometric(cfg.n, cfg.y_max, 1.002)
    y = grid.nodes
    assert not (np.diff(y) == y[1]).all()
    ctx = dg.DiagnosticsContext(d=3, y=y, K=cfg.K)
    p, ell, s, A = ctx.params, ctx.ell, 53.7, cfg.A
    v = sim.make_initial_data(cfg, grid).values
    v = v + 1e-4 * np.exp(-0.02 * (y - 40.0) ** 2)       # reaches the outer region
    rec = _decompose(v, s, ctx, A)

    xi = y * s ** (-1.0 / (2 * ell))
    q = pr._solve_profile(p, p.c * xi ** (2 * ell))[0]
    ph = pr.psi_hat(p, y, s)
    eps_hat = v - (q + ph)
    coeffs = np.array([np.sum(ctx.quad_rho * eps_hat * ctx.phi[k]) / ctx.phi_norm_sq[k]
                       for k in range(2 * ell)])
    assert rec.coefficients.tobytes() == coeffs.tobytes()
    want = {f"mode_{k}": abs(float(c)) for k, c in enumerate(coeffs) if k != ell}
    want["null_mode"] = abs(float(coeffs[ell]))
    tilde = eps_hat - np.sum(coeffs[:, None] * ctx.phi, axis=0)
    want["l2rho"] = float(np.sqrt(np.sum(ctx.quad_rho * tilde**2)))
    f = eps_hat
    for j in range(3):
        want[f"flat_{j}"] = float(np.sqrt(np.sum(ctx.flat_w * f * f)))
        f = _numpy_euler(y, f)
    ex = (eps_hat + ph) * (1.0 - pr.cutoff_chi(ctx.cut_spec, xi))
    want["out_sup"] = float(np.max(np.abs(ex)))
    want["out_dysup"] = float(np.max(np.abs(_numpy_euler(y, ex))))
    want["out_ysup"] = float(np.max(np.abs(y * ex)))
    assert rec.measured == want
    assert list(rec.measured) == list(dg.bound_values(3, ell, s, A))
    assert rec.tilde_norm == want["l2rho"]
    assert rec.sup_v == float(np.max(np.abs(v)))
    assert rec.sup_dev_profile == float(np.max(np.abs(v - q)))
    assert min(want.values()) > 0.0


def test_shrinking_ratios_monotone_under_scaling():
    d = 4
    y = np.linspace(0.0, 60.0, 6001)
    ctx = dg.DiagnosticsContext(d=d, y=y, K=10.0)
    s, A = 50.0, 20.0
    base = pr.psi(ctx.params, y, s)
    noise = 1e-4 * np.exp(-0.1 * y**2) * np.cos(y)
    rep1 = dg.decompose(base + noise, s, ctx, A)
    rep2 = dg.decompose(base + 2.0 * noise, s, ctx, A)
    for name in rep1.ratios:
        assert rep2.ratios[name] >= rep1.ratios[name] - 1e-12


def test_csv_row_matches_header_by_name():
    # the header's order is fixed, and each named column holds its value;
    # the row's outer-norm order (sup, ysup, dysup) is not the bounds' order
    y = np.linspace(0.0, 60.0, 6001)
    ctx = dg.DiagnosticsContext(d=4, y=y, K=10.0)
    s, A = 50.0, 20.0
    # a bump near the origin and one past the outer cutoff xi = K
    v = (pr.psi(ctx.params, y, s) + 1e-3 * np.exp(-0.2 * y**2) * (1 - y + 0.3 * y**2)
         + 1e-3 * np.exp(-0.05 * (y - 40.0) ** 2))
    rec = dg.decompose(v, s, ctx, A)
    header = dg.csv_header(2).split(",")
    assert header == ["s", "eps0", "eps1", "eps2", "eps3", "tilde_l2rho", "flat0", "flat1",
                      "flat2", "out_sup", "out_ysup", "out_dysup", "verdict"]
    row = dict(zip(header, rec.csv_row().split(","), strict=True))
    bound_of = {"flat0": "flat_0", "flat1": "flat_1", "flat2": "flat_2",
                "out_sup": "out_sup", "out_ysup": "out_ysup", "out_dysup": "out_dysup"}
    # six distinct values, so that two swapped columns show
    assert len({rec.measured[b] for b in bound_of.values()}) == 6
    want = {"s": "50", "tilde_l2rho": f"{rec.tilde_norm:.12e}", "verdict": rec.verdict}
    want |= {f"eps{k}": f"{c:.12e}" for k, c in enumerate(rec.coefficients)}
    want |= {column: f"{rec.measured[b]:.12e}" for column, b in bound_of.items()}
    assert row == want


# ---------------------------------------------------------------------------
# mode ODE residuals
# ---------------------------------------------------------------------------

def test_mode_ode_residual_null_closed_form():
    ell = 2
    s = np.linspace(50.0, 70.0, 801)
    c = 1e-3
    coeffs = np.zeros((len(s), 2 * ell))
    coeffs[:, ell] = c * np.log(s) / s**2
    sm, res, slopes = dg.mode_ode_residuals(s, coeffs, ell)
    # d/ds (c log s / s^2) + (2/s)(c log s / s^2) = c / s^3 exactly
    assert np.max(np.abs(res[:, ell] - c / sm**3)) < 1e-9
    assert slopes[ell] == pytest.approx(-3.0, abs=0.05)


def test_mode_ode_residual_homogeneous_growing_mode():
    ell = 2
    s = np.linspace(50.0, 52.0, 401)
    coeffs = np.zeros((len(s), 2 * ell))
    coeffs[:, 0] = 1e-6 * np.exp(s - 50.0)
    sm, res, _ = dg.mode_ode_residuals(s, coeffs, ell)
    # growing mode is homogeneous for r_k = eps' - (1 - k/l) eps, up to the
    # O(ds^2) truncation of the centered derivative
    ds = s[1] - s[0]
    assert np.max(np.abs(res[:, 0])) < ds**2 * np.max(coeffs[:, 0])


def test_mode_ode_residual_guards():
    with pytest.raises(dg.UnfitError):
        dg.mode_ode_residuals([1.0, 2.0], np.zeros((2, 4)), 2)
    with pytest.raises(dg.UnfitError):
        dg.mode_ode_residuals([1, 2, 4, 8, 16], np.zeros((5, 4)), 2)


# ---------------------------------------------------------------------------
# discrete spectrum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [3, 4])
def test_spectrum_values(d):
    ell = eb.ell_of(d)
    vals = dg.discrete_spectrum(d, n=2000, y_max=30.0, count=6)
    assert np.max(np.abs(vals - (-np.arange(6) / ell))) < 1e-3


def test_spectrum_refinement_improves():
    errs = []
    for n in (250, 500, 1000):
        vals = dg.discrete_spectrum(4, n=n, y_max=30.0, count=6)
        errs.append(np.max(np.abs(vals - (-np.arange(6) / 2.0))))
    assert errs[2] < errs[1] < errs[0]
    # roughly second order: each doubling gains at least a factor ~2
    assert errs[0] / errs[1] > 2.0 and errs[1] / errs[2] > 2.0


def test_spectrum_constant_mode_is_zero():
    vals = dg.discrete_spectrum(4, n=500, y_max=30.0, count=1)
    assert abs(vals[0]) < 1e-6


def test_spectrum_count_outside_one_to_n_is_rejected_in_our_words():
    # scipy's own message speaks of select_range
    for count in (0, -1, 501):
        with pytest.raises(ValueError, match=r"count must lie in \[1, n\] = \[1, 500\]"):
            dg.discrete_spectrum(4, n=500, y_max=30.0, count=count)
    assert len(dg.discrete_spectrum(4, n=500, y_max=30.0, count=500)) == 500
