"""The otikin benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload uniform-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``. With
``--trace 0`` the workload is set up in several fresh processes (set-up time
is their median) and measured untraced in the last one. With ``--trace 1``
one fresh process runs each input untraced and then traced, and reports the
per-layer metrics and the tracing overhead. Every output is checked. A
report goes to standard output, a JSON record of the run to
``.perfbench_out/``, and the last line of output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import at_reference_speed, share, time_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# The calibration kernel's time on the machine the baseline was recorded on
# (a 2-vCPU 2.0 GHz Xeon VM in a quiet moment). Op times of the workloads
# marked ``scaled`` (interpreter-bound ones) are reported at this speed: each
# is multiplied by this over the kernel's time measured just before it. On a
# shared machine whose speed swings by up to 2x within seconds, this cut the
# spread over ten seeds of weighted-lp from 0.19 to 0.06. Set-up, array-bound
# and process-start times do not track the kernel and are not scaled. The
# unscaled times are printed and recorded too.
REFERENCE_CALIBRATION_S = 0.002
DEADLINE_S = 170.0  # the whole run, set-ups included
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def fail(msg: str, code: int = 1):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(code)


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn(args, mode: str, deadline: float, warmup: int = 0) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out", str(OUT),
        "--warmup", str(warmup),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail(f"{mode} process for {args.workload} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{mode} process for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(runs: list[dict], workload: str) -> tuple[dict, list[str]]:
    res = runs[-1]
    durations = res["durations"]
    if not durations:
        fail(f"no op succeeded: {res['problems'][:3]}")
    setups = [r["setup_s"] for r in runs]
    kinds = res["kinds"] if len(set(res["kinds"])) > 1 else None
    raw, q = time_metrics(setups, durations, kinds)
    notes = []
    if res["calibrations"]:
        ref = REFERENCE_CALIBRATION_S
        values, _ = time_metrics(
            setups,
            [at_reference_speed(d, c, ref) for d, c in zip(durations, res["calibrations"])],
            kinds,
        )
        speed = ref / statistics.median(res["calibrations"])
        notes += [
            f"op times are at the reference speed; this run's machine ran at {speed:.3f} of it",
            "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        ]
    else:
        values = raw
    values["mean_cost_sq"] = statistics.fmean(res["costs"])
    values["peak_rss_mb"] = res["peak_rss_mb"]
    notes += [
        f"setup_s is the median of {len(runs)} set-ups in fresh processes",
        f"op_tail_s is p{q} of {len(durations)} successful ops"
        + (f", read within each of {len(set(kinds))} op kinds and averaged over them"
           " (op_p50_s too)" if kinds else ""),
        f"failed_ratio {share(res['failed'], res['attempted']):.6g} ratio "
        f"({res['failed']}/{res['attempted']} ops failed a check or raised)",
    ]
    if workload == "certify-small":
        notes.append(
            f"suboptimal_ratio {share(res['suboptimal'], len(res['costs'])):.6g} ratio "
            f"({res['suboptimal']}/{len(res['costs'])} solve_d costs above the oracle)"
        )
    return values, notes


# What the trace is expected to show on each workload: (description, test).
EXPECTED = {
    "uniform-large": (
        "moments plus cost matrix are the largest self time",
        lambda m, op_s: m["measures.plan_moments.busy_s"] + m["solver.cost_matrix.busy_s"]
        > max(m["lp.busy_s"], m["solver.self_s"]),
    ),
    "weighted-lp": (
        "lp.busy_s is the majority of a traced op",
        lambda m, op_s: m["lp.busy_s"] > 0.5 * op_s,
    ),
    "certify-small": (
        "dynamics.injectivity.busy_s is the largest layer",
        lambda m, op_s: m["dynamics.injectivity.busy_s"] > max(
            m["lp.busy_s"], m["measures.plan_moments.busy_s"], m["solver.cost_matrix.busy_s"],
            m["solver.self_s"], m["solver.oracle.busy_s"], m["dynamics.build.busy_s"],
        ),
    ),
    "cli-batch": (
        "cli.import_s is the majority of the median op",
        lambda m, op_s: m["cli.import_share"] > 0.5,
    ),
}


def layers(res: dict, workload: str) -> tuple[dict, list[str]]:
    m = res["layers"]
    what, test = EXPECTED[workload]
    notes = [
        f"{res['traced_ops']} ops ran untraced and then traced; per-layer values are per op",
        f"tracing overhead {m['trace.overhead']:.2%} of the untraced op time",
        "no layer has a queue, so no wait time is reported",
        f"expected: {what}: {'holds' if test(m, res['traced_op_s']) else 'MISMATCH'}",
    ]
    return m, notes


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    if not (ROOT / "src" / "otikin" / "__init__.py").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from an otikin checkout", 2)
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}", 2)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        runs = [spawn(args, "trace", deadline)]
    else:
        # Each set-up warms up on a different input, so the median set-up time
        # does not hang on how hard one input happens to be.
        runs = [spawn(args, "setup", deadline, k) for k in range(SETUP_REPEATS - 1)]
        runs.append(spawn(args, "measure", deadline, SETUP_REPEATS - 1))
    last = runs[-1]
    # Every process counted its warm-up op; fold the set-up processes in.
    for r in runs[:-1]:
        last["attempted"] += r["attempted"]
        last["failed"] += r["failed"]
        last["problems"] += r["problems"]
    if args.trace:
        values, notes = layers(last, args.workload)
        wanted = bench["per_layer"]
    else:
        values, notes = end_to_end(runs, args.workload)
        wanted = bench["end_to_end"]
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted}
    env = {
        "seed": args.seed,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        **last["versions"],
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("  " + " ".join(f"{k}={v}" for k, v in env.items() if k not in ("why", "seed")))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for line in notes + [f"problem: {x}" for x in last["problems"]]:
        print(f"  {line}")
    result = {
        "correct": last["failed"] == 0,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": metrics,
    }
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "notes": notes, "problems": last["problems"], "result": result,
              "spans_file": last.get("spans_file"), "wall_s": time.monotonic() - start}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
