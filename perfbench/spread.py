"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads weighted-lp --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --write perfbench/baseline.json

For every workload and end-to-end metric, prints the median and quartiles of
the per-seed values and their spread, (q3 - q1) / median, against the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
marked. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, git_commit, spec


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--write", help="write the medians and quartiles to this JSON file")
    args = p.parse_args()
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = {}
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                sys.exit(f"{wl} seed {seed} failed:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: outputs failed their checks", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        table[wl] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            table[wl][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "values": vals}
            mark = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{wl:14s} {name:13s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f} (bound {bounds[name]}){mark}", flush=True)
    if args.write:
        record = {"commit": git_commit(), "seeds": seeds, "seconds": args.seconds,
                  "workloads": table}
        Path(args.write).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
