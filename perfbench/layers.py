"""Per-layer metrics reduced from the spans of one traced round.

Span names are `<module>.<function>` or `<module>.<Class>.<method>`, as the
tracer records them.  Each metric is listed with its unit; BENCHMARK.json
declares the same names.
"""

from __future__ import annotations

import statistics

METRICS = {
    "sim.steps": "count",
    "sim.step_us": "us",
    "sim.step_self_s": "s",
    "sim.boundary_us": "us",
    "sim.boundary_calls": "count",
    "sim.dt_min": "1",
    "sim.dt_max": "1",
    "sim.cfl_calls": "count",
    "sim.run_self_s": "s",
    "sim.transform_s": "s",
    "profile.q_calls": "count",
    "profile.q_us": "us",
    "profile.psi_us": "us",
    "profile.ansatz_residual_s": "s",
    "profile.ansatz_decimal_s": "s",
    "profile.decimal_nodes": "count",
    "profile.params_s": "s",
    "diagnostics.decompose_calls": "count",
    "diagnostics.decompose_us": "us",
    "diagnostics.context_s": "s",
    "diagnostics.flat_norm_s": "s",
    "shooting.probes": "count",
    "shooting.probe_s": "s",
    "shooting.probe_steps": "count",
    "shooting.mixing_s": "s",
    "shooting.improving_probes": "count",
    "eigenbasis.tables_s": "s",
    "exactpoly.evalf_s": "s",
    "acceptance.projections_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage_pct": "%",
}

STEP = "sim.Stepper.step"
PROBE = "shooting.objective"

# number kept with a span: the step size, and the node count of a decimal evaluation
SPAN_VALUES = {
    STEP: lambda args, kwargs: args[2] if len(args) > 2 else kwargs["dt"],
    "profile.ansatz_residual_decimal": lambda args, kwargs: len(args[1]),
}

TABLES = ("eigenbasis.build_eigensystem", "eigenbasis.compute_B",
          "eigenbasis.compute_c", "eigenbasis.partial_mass_eigen")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def reduce(t, improving_probes: int = 0) -> dict:
    """Per-layer metrics of a SpanTable, except the two trace.* figures."""

    def total(*names):
        return sum(t.duration(i) for i in t.outermost(names))

    def median_us(name):
        return 1e6 * _median([t.duration(i) for i in t.indices(name)])

    steps = t.indices(STEP)
    dts = [t.value[i] for i in steps]
    # a Neumann boundary returns 0 without evaluating the profile
    boundary = [i for i in t.indices("sim.Stepper.boundary_value") if t.has_child(i)]
    probes = t.indices(PROBE)
    per_probe = {i: 0 for i in probes}
    for i in steps:
        p = t.ancestor(i, PROBE)
        if p in per_probe:
            per_probe[p] += 1
    return {
        "sim.steps": len(steps),
        "sim.step_us": 1e6 * _median([t.duration(i) for i in steps]),
        "sim.step_self_s": sum(t.self_time(i) for i in steps),
        "sim.boundary_us": 1e6 * _median([t.duration(i) for i in boundary]),
        "sim.boundary_calls": len(boundary),
        "sim.dt_min": min(dts, default=0.0),
        "sim.dt_max": max(dts, default=0.0),
        "sim.cfl_calls": len(t.indices("sim.Stepper.cfl_dt")),
        "sim.run_self_s": sum(t.self_time(i) for i in t.indices("sim.run")),
        "sim.transform_s": total("sim.transform"),
        "profile.q_calls": len(t.indices("profile.q_of_xi")),
        "profile.q_us": median_us("profile.q_of_xi"),
        "profile.psi_us": median_us("profile.psi"),
        "profile.ansatz_residual_s": total("profile.ansatz_residual"),
        "profile.ansatz_decimal_s": total("profile.ansatz_residual_decimal"),
        "profile.decimal_nodes": sum(t.value[i] for i in t.indices("profile.ansatz_residual_decimal")),
        "profile.params_s": total("profile.make_profile_params"),
        "diagnostics.decompose_calls": len(t.indices("diagnostics.decompose")),
        "diagnostics.decompose_us": median_us("diagnostics.decompose"),
        "diagnostics.context_s": total("diagnostics.DiagnosticsContext.__init__"),
        "diagnostics.flat_norm_s": total("diagnostics.flat_norm"),
        "shooting.probes": len(probes),
        "shooting.probe_s": _median([t.duration(i) for i in probes]),
        "shooting.probe_steps": _median(list(per_probe.values())),
        "shooting.mixing_s": total("shooting.mixing_matrix"),
        "shooting.improving_probes": improving_probes,
        "eigenbasis.tables_s": total(*TABLES),
        "exactpoly.evalf_s": total("exactpoly.ExactPoly.evalf"),
        "acceptance.projections_s": total("acceptance.ansatz_error_projections"),
    }


def span_summary(t) -> dict:
    """Calls, total and self seconds per span name, for the trace file."""
    out = {}
    for name in t.names_seen():
        idx = t.indices(name)
        out[name] = {"calls": len(idx),
                     "total_s": sum(t.duration(i) for i in t.outermost((name,))),
                     "self_s": sum(t.self_time(i) for i in idx)}
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))
