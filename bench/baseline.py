"""Run the benchmark over several seeds and summarise it: one BENCH point.

    python3 bench/baseline.py --seeds 1-10 --write bench/BENCH_<label>.json

Runs bench/run.py once per (workload, seed), one process at a time, and
prints for each workload and end-to-end metric the median, the quartiles
and the spread (inter-quartile range over the median) beside the metric's
bound from BENCHMARK.json, and the spread of the uncalibrated wall-clock
values beside them.  With --traced it adds one traced run per
workload (first seed) and keeps its per-layer metrics.  --write saves the
summary with the provenance of the runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return dict(result, provenance=record["provenance"], wall_clock=record["wall_clock"])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--write", type=Path, help="save the summary as JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {"provenance": None, "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        prov = runs[0]["provenance"]
        summary["provenance"] = {k: prov[k] for k in
                                 ("git_sha", "nproc", "python", "numpy", "alglab_threads")}
        entry = {
            "items_per_pass": prov["items_per_pass"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
        print(f"{workload}: {len(seeds)} runs, {entry['items_per_pass']} items per pass, "
              f"fail_ratio {entry['fail_ratio']:.6g} ({entry['failed']} of {entry['attempted']})")
        for name, m in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"], s["bound"] = m["unit"], m["bound"]
            entry["metrics"][name] = s
            flag = "" if s["spread"] <= m["bound"] / 3 else "  <- spread above bound/3"
            if name != "setup_s":
                worst = max(worst, s["spread"] / m["bound"])
            print(f"  {name:12s} median {s['median']:12.6g} {m['unit']:5s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} "
                  f"spread {s['spread']:7.2%} (bound {m['bound']:.0%}){flag}")
        if "wall_clock" in runs[0]:
            entry["uncalibrated"] = {k: summarise([r["wall_clock"][k] for r in runs])
                                     for k in runs[0]["wall_clock"]}
            print("  uncalibrated spread: " + ", ".join(
                f"{k} {v['spread']:.2%}" for k, v in entry["uncalibrated"].items()))
        if args.traced:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    print(f"largest spread / bound outside setup_s: {worst:.2f}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
