"""Command-line entry point.

Subcommands: constants, profile, spectrum, simulate, decompose, shoot, verify.
Exit codes: 0 ok, 1 criterion/verdict failure, 2 usage error, 3 numerical
failure.  Every run writes a manifest into its output directory; manifests
are append-only so published numbers stay regenerable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import eigenbasis as eb
from . import profile as pr
from . import shooting
from . import sim
from .exactpoly import rational_str

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# shoot's values for s0, A and horizon when neither a flag nor --config sets them
SHOOT_DEFAULTS = {"s0": 50.0, "A": 20.0, "horizon": 20.0}


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(outdir: Path, command: str, config: dict, verdicts: dict,
                   inputs: dict | None = None, started: float | None = None):
    """Append one run entry to the directory's manifest."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "manifest.json"
    entries = []
    if path.exists():
        entries = json.loads(path.read_text()).get("runs", [])
    entries.append({
        "tool": "ksblowup",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs or {},
        "started_utc": datetime.fromtimestamp(started or time.time(), timezone.utc).isoformat(),
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "verdicts": verdicts,
    })
    path.write_text(json.dumps({"runs": entries}, indent=2, default=str) + "\n")


def parse_config_file(path: Path) -> dict:
    """Flat key=value document; '#' starts a comment; dvec is comma-separated."""
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (need key=value): {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def _config_from_args(args, overrides: dict | None = None,
                      defaults: dict | None = None) -> sim.SimConfig:
    """SimConfig from `defaults`, then the --config file, then `overrides`."""
    raw = dict(defaults or {})
    if getattr(args, "config", None):
        raw.update(parse_config_file(Path(args.config)))
    if overrides:
        raw.update(overrides)
    kwargs = {}
    float_keys = {"y_max", "dt", "cfl", "s0", "horizon", "A", "K", "cadence",
                  "escape_factor", "blowup_sup", "bump_K"}
    int_keys = {"d", "n"}
    str_keys = {"frame", "boundary", "init"}
    for key, val in raw.items():
        if key == "N":
            key = "n"
        if key == "output_dir":
            if getattr(args, "output_dir", None) is None:
                args.output_dir = str(val)
            continue
        if key == "dvec":
            vec = tuple(float(x) for x in str(val).split(",") if x.strip())
            kwargs["dvec"] = vec
        elif key in float_keys:
            kwargs[key] = float(val)
        elif key in int_keys:
            kwargs[key] = int(val)
        elif key in str_keys:
            kwargs[key] = str(val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return sim.SimConfig(**kwargs)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    d = args.d
    eb.check_dimension(d)
    ell = eb.ell_of(d)
    b = eb.compute_B(d)
    c = eb.compute_c(d)
    p = eb.build_residual_poly(d)
    phi_l = eb.partial_mass_eigen(d, ell)
    proj = eb.inner_product(d, "rho", p, phi_l) / eb.inner_product(d, "rho", phi_l, phi_l)
    doc = {
        "d": d,
        "ell": ell,
        "alpha": rational_str(eb.alpha_of(d)),
        "B": rational_str(b),
        "B_float": float(b),
        "c": rational_str(c),
        "c_float": float(c),
        "H": [eb.kummer_eigenpoly(d, n).serialize() for n in range(2 * ell + 1)],
        "phi": [eb.partial_mass_eigen(d, n).serialize() for n in range(2 * ell + 1)],
        "P_residual": p.serialize(),
        "projection_check": rational_str(proj),
    }
    text = json.dumps(doc, indent=2)
    if not args.quiet:
        print(text)
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"constants_d{d}.json").write_text(text + "\n")
        write_manifest(outdir, "constants", {"d": d}, {"projection_check": rational_str(proj)})
    return EXIT_OK


def cmd_profile(args) -> int:
    params = pr.make_profile_params(args.d)
    if args.log_spacing:
        xi = np.geomspace(args.xi_min if args.xi_min > 0 else 1e-6, args.xi_max, args.points)
    else:
        xi = np.linspace(args.xi_min, args.xi_max, args.points)
    q = pr.q_of_xi(params, xi)
    qp = pr.q_prime(params, xi)
    f = pr.f_of_xi(params, xi)
    lines = ["xi,Q,Qprime,F"]
    lines += [f"{x:.12e},{a:.12e},{b:.12e},{c:.12e}" for x, a, b, c in zip(xi, q, qp, f)]
    text = "\n".join(lines)
    if not args.quiet:
        print(text)
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"profile_d{args.d}.csv").write_text(text + "\n")
        write_manifest(outdir, "profile",
                       {"d": args.d, "xi_min": args.xi_min, "xi_max": args.xi_max,
                        "points": args.points, "log_spacing": args.log_spacing},
                       {"max_residual": float(np.max(np.abs(pr.q_residual(params, xi, q))))})
    return EXIT_OK


def cmd_spectrum(args) -> int:
    vals = dg.discrete_spectrum(args.d, n=args.n, y_max=args.ymax, count=args.count)
    ell = eb.ell_of(args.d)
    lines = ["k,eigenvalue,expected"]
    lines += [f"{k},{v:.10e},{-k / ell:.10e}" for k, v in enumerate(vals)]
    text = "\n".join(lines)
    if not args.quiet:
        print(text)
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"spectrum_d{args.d}.csv").write_text(text + "\n")
        err = float(np.max(np.abs(vals - (-np.arange(args.count) / ell))))
        write_manifest(outdir, "spectrum",
                       {"d": args.d, "n": args.n, "ymax": args.ymax, "count": args.count},
                       {"max_error": err})
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.time()
    config = _config_from_args(args)
    result = sim.run(config)
    ell = eb.ell_of(config.d)
    if not args.quiet:
        print(f"verdict: {result.verdict}  exit_time: {result.exit_time:.6g}  "
              f"slices: {len(result.records)}  steps: {result.steps}")
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        if result.records:
            dg.write_timeseries(outdir / "timeseries.csv", result.records, ell)
        if result.times is not None:
            with open(outdir / "sup_series.csv", "w") as fh:
                fh.write("t,sup_w\n")
                for tt, ww in zip(result.times, result.sup_w):
                    fh.write(f"{tt:.12e},{ww:.12e}\n")
        snap = outdir / "snapshot_final.csv"
        grid = result.final_state.grid.nodes
        with open(snap, "w") as fh:
            fh.write("y,v\n")
            for yy, vv in zip(grid, result.final_state.values):
                fh.write(f"{yy:.12e},{vv:.12e}\n")
        inputs = {}
        if args.config:
            inputs[str(args.config)] = _digest(Path(args.config))
        write_manifest(outdir, "simulate", vars(args) | {"resolved": str(config)},
                       result.summary(), inputs=inputs, started=started)
    return EXIT_OK


def cmd_decompose(args) -> int:
    started = time.time()
    path = Path(args.snapshot)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError(f"snapshot {path} needs at least two rows of y,v")
    y, v = data[:, 0], data[:, 1]
    # a NaN in v would read as NaN ratios under an "inside" verdict
    if not (np.isfinite(y).all() and np.isfinite(v).all()):
        raise ValueError(f"snapshot {path} holds a non-finite value")
    ctx = dg.DiagnosticsContext(d=args.d, y=y, K=args.K)
    rec = dg.decompose(v, args.s, ctx, args.A)
    doc = {
        "s": args.s, "d": args.d, "A": args.A, "K": args.K,
        "coefficients": rec.coefficients.tolist(),
        "tilde_l2rho": rec.tilde_norm,
        "measured": rec.measured,
        "ratios": rec.ratios,
        "verdict": rec.verdict,
        "worst": rec.worst,
    }
    text = json.dumps(doc, indent=2)
    if not args.quiet:
        print(text)
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "shrinking_report.json").write_text(text + "\n")
        write_manifest(outdir, "decompose",
                       {"snapshot": str(path), "s": args.s, "d": args.d,
                        "A": args.A, "K": args.K},
                       {"verdict": rec.verdict, "worst": rec.worst},
                       inputs={str(path): _digest(path)}, started=started)
    return EXIT_OK


def cmd_shoot(args) -> int:
    started = time.time()
    if args.budget < 1:
        print("error: --budget must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    flags = {"s0": args.s0, "A": args.A, "horizon": args.horizon}
    config = _config_from_args(
        args, defaults=SHOOT_DEFAULTS,
        overrides={"d": args.d} | {k: v for k, v in flags.items() if v is not None})
    result = shooting.trap_search(config, args.budget)
    print(f"verdict: {result.verdict}  d*: {result.parameters}  s_exit: {result.s_exit:.4g}")
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "search_log.json").write_text(
            json.dumps(result.summary(), indent=2) + "\n")
        dg.write_timeseries(outdir / "best_timeseries.csv", result.trajectory,
                            eb.ell_of(config.d))
        write_manifest(outdir, "shoot", vars(args) | {"resolved": str(config)},
                       {"verdict": result.verdict, "s_exit": result.s_exit},
                       started=started)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import acceptance
    started = time.time()
    results = acceptance.run_suite(args.suite)
    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "verify_report.json").write_text(json.dumps({
            "suite": args.suite,
            "results": [r.as_dict() for r in results],
        }, indent=2, default=str) + "\n")
        write_manifest(outdir, "verify", {"suite": args.suite},
                       {r.name: ("pass" if r.passed else "fail") for r in results},
                       started=started)
    return EXIT_OK if n_fail == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksblowup",
        description="Exact spectral constants, blowup profile and radial "
                    "aggregation simulation in dimensions 3 and 4",
    )
    parser.add_argument("--output-dir", default=None, help="directory for outputs and the run manifest")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout payloads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="exact spectral constants as JSON")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("profile", help="tabulate the blowup profile as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--xi-min", type=float, default=0.0)
    p.add_argument("--xi-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--log-spacing", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("spectrum", help="discrete spectrum of the weighted radial operator")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--ymax", type=float, default=30.0)
    p.add_argument("--count", type=int, default=6)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", help="evolve the radial field")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="shrinking-set report for a snapshot CSV")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--A", type=float, default=20.0)
    p.add_argument("--K", type=float, default=10.0)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("shoot", help="unstable-mode trap search")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s0", type=float, default=None, help="default: config file, else 50")
    p.add_argument("--A", type=float, default=None, help="default: config file, else 20")
    p.add_argument("--horizon", type=float, default=None, help="default: config file, else 20")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=["exact", "profile", "sim", "slopes", "shoot", "final", "all"],
                   default="all")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (eb.DimensionError, sim.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (pr.ConvergenceError, sim.StateCorruptionError, dg.UnfitError,
            dg.CoverageError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
