"""Run one alglab benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Run it from anywhere inside a checkout: it imports alglab from the
checkout's src/ and refuses to run without it.  The load is a closed loop
with one caller: items run back to back, pass after pass, until about
--seconds of timed passes are done (always at least one whole pass).  Every
output is compared with its known answer after each pass, outside the timed
region.  Between items a fixed reference kernel is timed, off the items'
clock; latencies and set-up time are reported calibrated by it
(reference.py), and the uncalibrated wall-clock values are printed too.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
the same untimed-checked passes, then one more pass with every public alglab
function wrapped (spans.py), and prints the per-layer metrics of that pass.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A provenance-stamped copy of
the result goes to bench/out/.
"""

import time

PROCESS_START = time.monotonic()  # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import CLI_SPAN, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3  # this process plus two --setup-only children; setup_s is the median
CHILD_TIMEOUT_S = 120


def import_program():
    """Import alglab from the checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "alglab"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import alglab

    if Path(alglab.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported alglab from {alglab.__file__}, not from {pkg}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: a few items of each kind, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the setup time and exit (used for setup_s samples)")
    return parser.parse_args(argv)


def run_pass(items, tracer=None):
    """One timed pass over the items.  Returns (seconds, latencies, kernel
    times, outputs); the reference kernel runs after each item, off its clock."""
    latencies, kernel_s, outputs = [], [], []
    for item in items:
        t0 = time.perf_counter()
        try:
            if tracer is not None and item.cli:
                with tracer.span(CLI_SPAN):
                    out = item.run()
            else:
                out = item.run()
        except Exception as exc:  # an uncaught exception is a failed item, not a crash
            out = workloads.Raised(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        kernel_s.append(reference.time_kernel())
    return sum(latencies), latencies, kernel_s, outputs


def check_pass(items, outputs) -> list[str]:
    """Labels of the items whose output differs from the known answer."""
    failed = []
    for item, out in zip(items, outputs):
        try:
            ok = item.check(out)
        except Exception as exc:
            print(f"check of {item.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            failed.append(item.label)
    return failed


def measure(workload, seconds: float, trace: bool) -> dict:
    durations, wall_ms, cal_ms, failed = [], [], [], []
    while True:
        duration, lat, kernel_s, outputs = run_pass(workload.items)
        durations.append(duration)
        wall_ms.append([x * 1e3 for x in lat])
        cal_ms.append(reference.calibrate(lat, kernel_s))
        failed += check_pass(workload.items, outputs)
        if sum(durations) + statistics.mean(durations) / 2 >= seconds:
            break
    res = {
        "durations": durations,
        "wall_ms": wall_ms,
        "cal_ms": cal_ms,
        "attempted": len(durations) * len(workload.items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, _, _, outputs = run_pass(workload.items, tracer)
        finally:
            tracer.uninstall()
        failed += check_pass(workload.items, outputs)
        res["attempted"] += len(outputs)
        res["layers"] = dict(tracer.metrics(),
                             **{"trace.overhead_ratio": traced_s / statistics.median(durations)})
        res["tracer"] = tracer
    res["failed"] = failed
    return res


def child_setups(args) -> list[dict]:
    """Set-up times, calibrated and wall, of fresh processes doing the same
    set-up (imports included)."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--size", args.size,
             "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=ROOT)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def provenance(args, items_per_pass: int) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "alglab_threads": os.environ.get("ALGLAB_THREADS", "unset (default 1)"),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "items_per_pass": items_per_pass,
    }


def latency_metrics(passes_ms: list[list[float]]) -> dict[str, float]:
    """Throughput over all passes, and percentiles over the items of each
    item's median latency across the passes, so a slow pass does not fill
    the tail."""
    per_item = [statistics.median(col) for col in zip(*passes_ms)]
    return {
        "items_per_s": sum(map(len, passes_ms)) / (sum(map(sum, passes_ms)) / 1e3),
        "item_p50_ms": statistics.median(per_item),
        "item_p90_ms": statistics.quantiles(per_item, n=10, method="inclusive")[-1],
    }


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics; item latencies are calibrated (reference.py)."""
    return dict(latency_metrics(res["cal_ms"]), setup_s=statistics.median(setups),
                peak_rss_mb=res["peak_rss_mb"])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.build(args.workload, args.seed, args.size, workdir,
                             workloads.load_golden())
        for item in wl.warmup:
            item.run()
        setup_wall_s = time.monotonic() - PROCESS_START
        setup_s = reference.calibrate_now(setup_wall_s) / 1e3
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        res = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = res["failed"]
    name = args.workload
    wall = latency_metrics(res["wall_ms"])
    if args.trace:
        chosen = {m["name"]: (res["layers"][m["name"]], m["unit"]) for m in spec["per_layer"]}
        spans_path = OUT / f"spans-{name}-seed{args.seed}.jsonl"
        res["tracer"].write_spans(spans_path)
        print(f"{name}: spans written to {spans_path.relative_to(ROOT)}")
    else:
        setups = [{"setup_s": setup_s, "setup_wall_s": setup_wall_s}] + child_setups(args)
        values = end_to_end(res, [st["setup_s"] for st in setups])
        chosen = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        wall["setup_s"] = statistics.median(st["setup_wall_s"] for st in setups)
        print(f"{name} uncalibrated: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
    for metric, (value, unit) in chosen.items():
        note = ""
        if metric == "item_p90_ms":
            note = (f"  (over the {len(wl.items)} items' medians of {len(res['durations'])} "
                    f"passes, {len(wl.items) // 10} or more items beyond p90)")
        print(f"{name} {metric} = {value:.6g} {unit}{note}")
    print(f"{name} fail_ratio = {len(failed) / res['attempted']:.6g} "
          f"({len(failed)} of {res['attempted']} items failed)")
    for label in failed[:10]:
        print(f"{name}: FAILED {label}", file=sys.stderr)

    metrics = {m: {"value": v, "unit": u} for m, (v, u) in chosen.items()}
    record = {
        "provenance": provenance(args, len(wl.items)),
        "trace": args.trace,
        "metrics": metrics,
        "fail_ratio": len(failed) / res["attempted"],
        "failed_items": failed,
        "pass_seconds": res["durations"],
        "wall_clock": wall,
        "item_ms_calibrated": res["cal_ms"],
        "item_ms_wall": res["wall_ms"],
    }
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": not failed, "attempted": res["attempted"],
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
