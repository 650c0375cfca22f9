"""One fresh benchmark process: set up one workload, then measure it.

Started by run.py. Prints one JSON object as its last line of output. Set-up
time runs from the top of this file (before any import of the library)
through input generation and one warm-up op.

On workloads whose op times are scaled, every timed op is preceded by a run
of ``calibrate``, a fixed kernel of the benchmark's own, so that run.py can
express op times at a reference machine speed (see run.py).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBES = 3  # fresh interpreters timed for cli.import_s
CALIBRATION_WINDOW = 5  # an op is scaled by the median of this many recent calibrations


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy ops.

    The mix resembles the library's, and none of it is library code, so its
    time tracks how fast the machine is running right now and nothing else.
    """
    import numpy

    t0 = time.perf_counter()
    x = numpy.arange(64.0)
    acc = 0.0
    for i in range(300):
        acc += float((x * 1.0001 + i).sum())
        acc += sum(j * j for j in range(12))
    return time.perf_counter() - t0


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--out", required=True, help="directory for spans and scratch files")
    p.add_argument("--warmup", type=int, default=0, help="index of the warm-up op's input")
    return p.parse_args()


def run_op(wl, i, inprocess=False):
    """Time one op; the output check runs after the clock stops.

    ``inprocess`` selects the form the tracer can see: for cli-batch, a call
    of ``otikin.cli.main`` in this process instead of a subprocess.
    """
    t0 = time.perf_counter()
    try:
        out = wl.inprocess_op(i) if inprocess else wl.op(i)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, None, [f"op {i} raised {exc!r}"]
    dt = time.perf_counter() - t0
    try:
        problems = wl.check(i, out)
    except Exception as exc:
        problems = [f"check of op {i} raised {exc!r}"]
    return dt, out, problems


def measure(wl, seconds, counter):
    """Closed loop for ``seconds`` of wall time, checks included.

    A new batch of ops starts only if the mean batch so far still fits.
    Returns each successful op's time, its kind and, on scaled workloads,
    the calibration time in force when it ran.
    """
    durations, kinds, calibrations, recent = [], [], [], []
    t0 = time.perf_counter()
    i = 1
    while True:
        elapsed = time.perf_counter() - t0
        if i > 1 and (i - 1) % wl.batch == 0:
            per_batch = elapsed / ((i - 1) // wl.batch)
            if elapsed + per_batch > seconds:
                break
        if wl.scaled:
            recent = (recent + [calibrate()])[-CALIBRATION_WINDOW:]
        dt, _, problems = run_op(wl, i)
        counter.record(problems)
        if not problems:
            durations.append(dt)
            kinds.append(wl.kind(i))
            if recent:
                calibrations.append(statistics.median(recent))
        i += 1
    return durations, kinds, calibrations


def import_seconds(env) -> float:
    code = (
        "import time; t = time.perf_counter(); import otikin.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def trace(wl, seconds, counter, env, spans_path):
    """Paired ops: each input runs untraced, then traced; spans dumped at exit."""
    from stats import share
    from tracer import Tracer, layer_metrics

    t0 = time.perf_counter()
    extra = {"cli.import_s": import_seconds(env), "cli.import_share": 0.0}
    if wl.name == "cli-batch":
        # The median end-to-end op, for the share of it spent importing.
        cycle = [run_op(wl, i) for i in range(1, 1 + wl.batch)]
        for _, _, problems in cycle:
            counter.record(problems)
        extra["cli.import_share"] = extra["cli.import_s"] / statistics.median(
            dt for dt, _, _ in cycle
        )
    tracer = Tracer()
    plain_total = traced_total = 0.0
    n = 0
    i = 1 + wl.batch
    while n == 0 or n % wl.batch or time.perf_counter() - t0 < seconds:
        plain, _, p1 = run_op(wl, i, inprocess=True)
        tracer.op = i
        tracer.install()
        try:
            traced, _, p2 = run_op(wl, i, inprocess=True)
        finally:
            tracer.uninstall()
        counter.record(p1 + p2)
        plain_total += plain
        traced_total += traced
        n += 1
        i += 1
    tracer.dump(spans_path)
    metrics = layer_metrics(tracer.spans, n)
    metrics.update(extra)
    metrics["cli.bytes_written"] = share(wl.bytes_written, wl.outputs_checked)
    metrics["cli.files_written"] = share(wl.files_written, wl.outputs_checked)
    metrics["trace.overhead"] = traced_total / plain_total - 1.0
    metrics["solver.suboptimal_share"] = share(wl.suboptimal, len(wl.costs))
    return metrics, n, traced_total / n


def main():
    args = parse_args()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    import numpy
    import scipy

    import otikin
    from stats import OpCounter
    from workloads import WORKLOADS

    lib = SimpleNamespace(root=ROOT, env=env, solver=otikin.solver, dynamics=otikin.dynamics)
    if args.workload == "cli-batch":
        import otikin.cli

        lib.cli = otikin.cli
    out_dir = Path(args.out).resolve()
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](lib, args.seed, work)
    try:
        counter = OpCounter()
        _, _, warm_problems = run_op(wl, args.warmup)
        counter.record(warm_problems)
        setup_s = time.perf_counter() - T_START
        wl.reset()
        result = {
            "setup_s": setup_s,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        }
        if args.mode == "measure":
            result["durations"], result["kinds"], result["calibrations"] = measure(
                wl, args.seconds, counter
            )
            rss_kb = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
            ).ru_maxrss
            result["peak_rss_mb"] = rss_kb / 1024.0
            result["costs"] = wl.costs
            result["suboptimal"] = wl.suboptimal
        elif args.mode == "trace":
            spans = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
            result["layers"], result["traced_ops"], result["traced_op_s"] = trace(
                wl, args.seconds, counter, env, spans
            )
            result["spans_file"] = str(spans)
        result.update(
            attempted=counter.attempted, failed=counter.failed, problems=counter.problems
        )
    finally:
        wl.cleanup()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
