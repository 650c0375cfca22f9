"""Command-line front end.

Subcommands: ``discrepancy`` (fixed-horizon, time-optimised, or upper-bound
cost between two measure files), ``oracle`` (brute-force vertex enumeration),
``interpolate`` (spline interpolation frames), ``simulate`` (particle Vlasov
run with trajectory export), ``probe`` (derivative / time-ratio ladders), and
``verify`` (packaged verification suites).

Exit codes: 2 usage error, unreadable input file or unwritable output, 3
malformed measure data, 4 solver failure (an input the solver rejects, or a
``RuntimeError`` of the simplex), 5 verification failure. Single arguments are
checked by argparse as it parses them, before any file is read; ``main`` maps
a solver failure to its exit code, while ``_load`` and ``_write_text`` are
the boundaries for input and output files. ``probe`` looks up its times on the
scenario grid before it solves, so an off-grid ``--time`` is a usage error.
JSON outputs are byte-deterministic: floats are written with 17 significant
digits and keys in fixed order.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .dynamics import (
    ForceField,
    build_dynamical_plan,
    interpolate_at,
    metric_derivative_probe,
    path_action,
    vlasov_integrate,
)
from . import scenarios
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
# Frame file names hold 4 digits in interpolate and 6 in simulate.
MAX_STEPS = 9999
MAX_SIM_STEPS = 999999
# The probe scenarios in the order ``--help`` lists them; each builder takes the seed.
_PROBE_SCENARIOS = {
    "harmonic-single": lambda seed: scenarios.harmonic_single(),
    "harmonic-ensemble": scenarios.harmonic_ensemble,
    "opposite-pair": lambda seed: scenarios.opposite_pair(),
}


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
    """Read a measure file: exit 2 if it cannot be read, 3 if it does not parse."""
    try:
        return load_measure(path, fmt)
    except OSError as exc:
        print(f"error: cannot read measure file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"error: malformed measure file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_MEASURE)


def _write_text(path: str, text: str, parents: bool = True) -> None:
    """Write an output file, and first its missing parents if ``parents``: exit 2 if that fails."""
    try:
        if parents:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


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


def _arg_type(convert, valid, expected: str):
    """An argparse ``type=``: convert the string, then reject invalid values."""

    def parse(text: str):
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


def _is_positive(x: float) -> bool:
    return math.isfinite(x) and x > 0


_finite = _arg_type(float, math.isfinite, "a finite number")
_positive = _arg_type(float, _is_positive, "a positive finite number")
_count = _arg_type(int, lambda n: n >= 1, "an integer of at least 1")
_seed = _arg_type(int, lambda n: n >= 0, "a non-negative integer")
_steps = _arg_type(int, lambda n: 1 <= n <= MAX_STEPS, f"an integer from 1 to {MAX_STEPS}")
_offsets = _arg_type(
    lambda text: [float(h) for h in text.split(",") if h.strip()],
    lambda hs: bool(hs) and all(map(_is_positive, hs)),
    "a comma-separated list of positive finite offsets",
)


# argparse's own pattern for a negative number has no exponent, so it takes
# "-1e-1" for an option. This one also reads exponents, and comma-separated
# lists such as an --h ladder.
_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"
_NEGATIVE_NUMBERS = re.compile(rf"^-{_NUMBER}(,\s*-?{_NUMBER})*$")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a negative number, in exponent form
    too, as a value rather than as an option; ``add_subparsers`` builds the
    subcommand parsers with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBERS


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="otikin",
        description="Kinetic optimal transport with a minimal-acceleration cost.",
    )
    parser.add_argument("--seed", type=_seed, default=42, help="PRNG seed (PCG64)")
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
    mode.add_argument("--T", type=_positive, help="fixed horizon")
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
    p.add_argument("--out", required=True, help="result JSON path")

    p = sub.add_parser(
        "interpolate", parents=[common_measures], help="spline interpolation frames"
    )
    p.add_argument("--T", type=_positive, required=True, help="horizon")
    p.add_argument("--steps", type=_steps, required=True, help="number of frames minus one")
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
    p.add_argument("--t0", type=_finite, required=True)
    p.add_argument("--t1", type=_finite, required=True)
    p.add_argument("--dt", type=_positive, required=True)
    p.add_argument("--stride", type=_count, default=1, help="write every k-th frame")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("probe", help="derivative / optimal-time ratio ladders")
    p.add_argument(
        "--suite", required=True, choices=("metric-derivative", "t-ratio")
    )
    p.add_argument("--scenario", default="harmonic-single", choices=tuple(_PROBE_SCENARIOS))
    p.add_argument("--time", type=_finite, default=0.3, help="probe time")
    p.add_argument(
        "--h",
        type=_offsets,
        default="0.2,0.1,0.05,0.025",
        help="comma-separated offset ladder",
    )
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("verify", help="run a packaged verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES.keys()))

    return parser


def cmd_discrepancy(args) -> int:
    mu = _load(args.mu, args.format)
    nu = _load(args.nu, args.format)
    if args.T is not None:
        res = solve_fixed_T(mu, nu, args.T)
    elif args.optimize_T:
        res = solve_d(mu, nu)
    else:
        res = solve_tilde_d(mu, nu)
    _write_text(args.out, canonical_json(result_to_json(res)) + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    mu = _load(args.mu, args.format)
    nu = _load(args.nu, args.format)
    res = brute_force_oracle(mu, nu)
    payload = result_to_json(res)
    payload["n_optimal_vertices"] = len(res.optima)
    payload["optimal_times"] = [_time_to_json(t) for _, _, t in res.optima]
    _write_text(args.out, canonical_json(payload) + "\n")
    return EXIT_OK


def _write_frames(outdir: str, frames, **fields) -> None:
    """Write (file name, measure) frames as CSV, then a manifest of ``fields`` and the names.

    The first file written creates ``outdir`` and its missing parents.
    """
    names = []
    for name, measure in frames:
        _write_text(str(Path(outdir) / name), measure_to_csv(measure), parents=not names)
        names.append(name)
    manifest = canonical_json({**fields, "frames": names})
    _write_text(str(Path(outdir) / "manifest.json"), manifest + "\n", parents=not names)


def cmd_interpolate(args) -> int:
    mu = _load(args.mu, args.format)
    nu = _load(args.nu, args.format)
    res = solve_fixed_T(mu, nu, args.T)
    ens = build_dynamical_plan(mu, nu, res.plan, args.T)
    times = [args.T * k / args.steps for k in range(args.steps + 1)]
    frames = ((f"frame_{k:04d}.csv", interpolate_at(ens, t)) for k, t in enumerate(times))
    _write_frames(args.out, frames, times=times, horizon=float(args.T), cost_sq=float(res.cost_sq))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if not 0 < (args.t1 - args.t0) / args.dt < MAX_SIM_STEPS + 0.5:
        return _usage_error(f"--t1 must exceed --t0 by at most {MAX_SIM_STEPS} steps of --dt")
    try:
        force = _force_from_arg(args.force)
    except (ValueError, TypeError, OSError, KeyError, RecursionError) as exc:
        return _usage_error(f"bad force specification: {exc}")
    mu = _load(args.mu, args.format)
    try:  # a poly force whose width is not the measure's dimension fails here
        with np.errstate(over="ignore", invalid="ignore"):
            force.evaluate(args.t0, mu.positions, mu.velocities)
    except ValueError as exc:
        return _usage_error(f"bad force specification: {exc}")
    traj = vlasov_integrate(mu, force, args.t0, args.t1, args.dt)
    action = path_action(traj)
    indices = list(range(0, traj.n_times, args.stride))
    if indices[-1] != traj.n_times - 1:
        indices.append(traj.n_times - 1)
    times = [float(traj.times[k]) for k in indices]
    frames = ((f"state_{k:06d}.csv", traj.measure_at(t)) for k, t in zip(indices, times))
    _write_frames(
        args.out, frames, times=times, dt=float(args.dt), force=traj.force_tag,
        action=float(action),
    )
    return EXIT_OK


def cmd_probe(args) -> int:
    traj = _PROBE_SCENARIOS[args.scenario](args.seed)
    try:  # the probe looks up these times on the grid; a miss is a bad --time
        for t in [args.time] + [args.time + h for h in args.h]:
            traj.index_of(t)
    except ValueError as exc:
        return _usage_error(f"--time and every --time + h must be grid times: {exc}")
    points = metric_derivative_probe(traj, args.time, args.h)
    if args.suite == "metric-derivative":
        lines = ["h,ratio_tilde,ratio_d,force_norm"] + [
            ",".join(_fmt_float(x) for x in (p.h, p.ratio_tilde, p.ratio_d, p.force_norm))
            for p in points
        ]
    else:
        lines = ["h,tag,T_ratio"]
        for p in points:
            tag = p.optimal_time
            ratio = _fmt_float(tag.value / p.h) if tag.is_finite else ""
            lines.append(f"{_fmt_float(p.h)},{tag.kind},{ratio}")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse has reported
        return exc.code
    handler = {
        "discrepancy": cmd_discrepancy,
        "oracle": cmd_oracle,
        "interpolate": cmd_interpolate,
        "simulate": cmd_simulate,
        "probe": cmd_probe,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, RuntimeError, OverflowError, MemoryError) as exc:
        # With --T given, an OverflowError comes from a power of T that leaves
        # the float range, raised where the power is taken.
        if isinstance(exc, OverflowError) and getattr(args, "T", None) is not None:
            exc = f"--T {args.T} is outside the float range of the horizon cost"
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
