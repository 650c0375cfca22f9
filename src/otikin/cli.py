"""Command-line front end.

Subcommands: ``discrepancy`` (fixed-horizon, time-optimised, or upper-bound
cost between two measure files), ``oracle`` (brute-force vertex enumeration),
``interpolate`` (spline interpolation frames), ``simulate`` (particle Vlasov
run with trajectory export), ``probe`` (derivative / time-ratio ladders), and
``verify`` (packaged verification suites).

Exit codes: 2 usage or missing file, 3 malformed measure data, 4 solver
failure (an input the solver rejects, or a ``RuntimeError`` of the simplex),
5 verification failure. JSON outputs are byte-deterministic: floats are
written with 17 significant digits and keys in fixed order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    ForceField,
    build_dynamical_plan,
    interpolate_at,
    metric_derivative_probe,
    optimal_time_ratio_probe,
    path_action,
    vlasov_integrate,
)
from .measures import load_measure, measure_to_csv
from .phase import OptimalTime
from .solver import (
    SolveResult,
    brute_force_oracle,
    solve_d,
    solve_fixed_T,
    solve_tilde_d,
)
from .verification import SUITES, run_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_MEASURE = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{canonical_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _time_to_json(tag: OptimalTime) -> float | str | None:
    """A horizon tag as JSON: its value when finite, "inf", or null for zero."""
    if tag.is_finite:
        return float(tag.value)
    return "inf" if tag.kind == "infinite" else None


def result_to_json(res: SolveResult) -> dict:
    P = res.plan.P
    entries = [[i, j, float(P[i, j])] for i, j in res.plan.support()]
    return {
        "cost_sq": float(res.cost_sq),
        "regime": res.regime,
        "T": _time_to_json(res.optimal_time),
        "plan": entries,
        "iterations": int(res.iterations),
    }


def _load(path: str, fmt: str):
    if not Path(path).exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return load_measure(path, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: malformed measure file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_MEASURE)


def _write_text(path: str, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _force_from_arg(spec: str) -> ForceField:
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a force file must hold a JSON object")
        if data.get("kind") == "poly":
            return ForceField.poly(data["coeffs"])
        raise ValueError(f"unsupported force file kind {data.get('kind')!r}")
    if spec == "poly":
        raise ValueError("the poly force needs a coefficient file: --force @coeffs.json")
    return ForceField.from_tag(spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otikin",
        description="Kinetic optimal transport with a minimal-acceleration cost.",
    )
    parser.add_argument("--seed", type=int, default=42, help="PRNG seed (PCG64)")
    sub = parser.add_subparsers(dest="command", required=True)

    common_measures = argparse.ArgumentParser(add_help=False)
    common_measures.add_argument("--mu", required=True, help="source measure file")
    common_measures.add_argument("--nu", required=True, help="target measure file")
    common_measures.add_argument(
        "--format", choices=("json", "csv"), default="json", help="measure parser"
    )

    p = sub.add_parser(
        "discrepancy", parents=[common_measures], help="transport cost between measures"
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--T", type=float, help="fixed horizon")
    mode.add_argument(
        "--optimize-T", action="store_true", help="time-optimised envelope cost"
    )
    mode.add_argument(
        "--tilde", action="store_true", help="time-optimised upper-bound cost"
    )
    p.add_argument("--out", required=True, help="result JSON path")

    p = sub.add_parser(
        "oracle", parents=[common_measures], help="brute-force vertex enumeration"
    )
    p.add_argument("--cap", type=int, default=8, help="enumeration size cap")
    p.add_argument("--out", required=True, help="result JSON path")

    p = sub.add_parser(
        "interpolate", parents=[common_measures], help="spline interpolation frames"
    )
    p.add_argument("--T", type=float, required=True, help="horizon")
    p.add_argument("--steps", type=int, required=True, help="number of frames minus one")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="particle Vlasov integration")
    p.add_argument("--mu", required=True, help="initial measure file")
    p.add_argument(
        "--format", choices=("json", "csv"), default="json", help="measure parser"
    )
    p.add_argument(
        "--force",
        required=True,
        help="force tag: free | harmonic | damped:<g> | @poly.json",
    )
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--stride", type=int, default=1, help="write every k-th frame")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("probe", help="derivative / optimal-time ratio ladders")
    p.add_argument(
        "--suite", required=True, choices=("metric-derivative", "t-ratio")
    )
    p.add_argument(
        "--scenario",
        default="harmonic-single",
        choices=("harmonic-single", "harmonic-ensemble", "opposite-pair"),
    )
    p.add_argument("--time", type=float, default=0.3, help="probe time")
    p.add_argument(
        "--h", default="0.2,0.1,0.05,0.025", help="comma-separated offset ladder"
    )
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("verify", help="run a packaged verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES.keys()))

    return parser


def cmd_discrepancy(args) -> int:
    mu = _load(args.mu, args.format)
    nu = _load(args.nu, args.format)
    try:
        if args.T is not None:
            if not (np.isfinite(args.T) and args.T > 0):
                print("error: --T must be positive and finite", file=sys.stderr)
                return EXIT_USAGE
            res = solve_fixed_T(mu, nu, args.T)
        elif args.optimize_T:
            res = solve_d(mu, nu)
        else:
            res = solve_tilde_d(mu, nu)
    except (ValueError, RuntimeError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _write_text(args.out, canonical_json(result_to_json(res)) + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    mu = _load(args.mu, args.format)
    nu = _load(args.nu, args.format)
    if args.cap < 1:
        print("error: --cap must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        res = brute_force_oracle(mu, nu, cap=args.cap)
    except ValueError as exc:
        print(f"error: oracle failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    payload = result_to_json(res)
    payload["n_optimal_vertices"] = len(res.optima)
    payload["optimal_times"] = [_time_to_json(t) for _, _, t in res.optima]
    _write_text(args.out, canonical_json(payload) + "\n")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    mu = _load(args.mu, args.format)
    nu = _load(args.nu, args.format)
    if not (np.isfinite(args.T) and args.T > 0):
        print("error: --T must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    if args.steps < 1:
        print("error: --steps must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        res = solve_fixed_T(mu, nu, args.T)
        ens = build_dynamical_plan(mu, nu, res.plan, args.T)
    except (ValueError, RuntimeError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    times = [args.T * k / args.steps for k in range(args.steps + 1)]
    for k, t in enumerate(times):
        frame = interpolate_at(ens, t)
        _write_text(str(outdir / f"frame_{k:04d}.csv"), measure_to_csv(frame))
    manifest = {
        "times": times,
        "horizon": float(args.T),
        "cost_sq": float(res.cost_sq),
        "frames": [f"frame_{k:04d}.csv" for k in range(args.steps + 1)],
    }
    _write_text(str(outdir / "manifest.json"), canonical_json(manifest) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    mu = _load(args.mu, args.format)
    if not (np.isfinite(args.t0) and np.isfinite(args.t1)):
        print("error: --t0 and --t1 must be finite", file=sys.stderr)
        return EXIT_USAGE
    if not args.t1 > args.t0:
        print("error: --t1 must exceed --t0", file=sys.stderr)
        return EXIT_USAGE
    if not (np.isfinite(args.dt) and args.dt > 0):
        print("error: --dt must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    if args.stride < 1:
        print("error: --stride must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        force = _force_from_arg(args.force)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: bad force specification: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        traj = vlasov_integrate(mu, force, args.t0, args.t1, args.dt)
        action = path_action(traj)
    except ValueError as exc:
        print(f"error: integration failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    frame_files = []
    frame_times = []
    indices = list(range(0, traj.n_times, args.stride))
    if indices[-1] != traj.n_times - 1:
        indices.append(traj.n_times - 1)
    for k in indices:
        t = float(traj.times[k])
        name = f"state_{k:06d}.csv"
        _write_text(str(outdir / name), measure_to_csv(traj.measure_at(t)))
        frame_files.append(name)
        frame_times.append(t)
    manifest = {
        "times": frame_times,
        "dt": float(args.dt),
        "force": traj.force_tag,
        "action": float(action),
        "frames": frame_files,
    }
    _write_text(str(outdir / "manifest.json"), canonical_json(manifest) + "\n")
    return EXIT_OK


def cmd_probe(args) -> int:
    from . import scenarios

    builders = {
        "harmonic-single": scenarios.harmonic_single,
        "harmonic-ensemble": lambda: scenarios.harmonic_ensemble(seed=args.seed),
        "opposite-pair": scenarios.opposite_pair,
    }
    if not np.isfinite(args.time):
        print("error: --time must be finite", file=sys.stderr)
        return EXIT_USAGE
    try:
        h_list = [float(h) for h in args.h.split(",") if h.strip()]
    except ValueError:
        h_list = []
    if not h_list or not all(np.isfinite(h) and h > 0 for h in h_list):
        print(
            f"error: --h must list positive finite offsets, got {args.h!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    traj = builders[args.scenario]()
    try:
        if args.suite == "metric-derivative":
            pts = metric_derivative_probe(traj, args.time, h_list)
            lines = ["h,ratio_tilde,ratio_d,force_norm"]
            for p in pts:
                lines.append(
                    ",".join(
                        _fmt_float(x)
                        for x in (p.h, p.ratio_tilde, p.ratio_d, p.force_norm)
                    )
                )
        else:
            probe = optimal_time_ratio_probe(traj, args.time, h_list)
            lines = ["h,tag,T_ratio"]
            for h, kind, ratio in probe.entries:
                lines.append(
                    f"{_fmt_float(h)},{kind},"
                    + (_fmt_float(ratio) if ratio is not None else "")
                )
    except (ValueError, RuntimeError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_checks(SUITES[args.suite], seed=args.seed)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        if not r.ok:
            failures += 1
        print(f"{status} {r.seconds:.3f}s {r.name}: {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "discrepancy": cmd_discrepancy,
        "oracle": cmd_oracle,
        "interpolate": cmd_interpolate,
        "simulate": cmd_simulate,
        "probe": cmd_probe,
        "verify": cmd_verify,
    }[args.command]
    return handler(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
