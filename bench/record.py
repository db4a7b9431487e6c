"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/record.py --seeds 1-10 [--workloads pointwise tt2d]
        [--trace-seed 1] [--out bench/results/NAME.json]

Runs ``bench/run.py`` once per workload and seed, one run at a time, for
``run_seconds`` of ``BENCHMARK.json`` (or ``--seconds``).  For every
end-to-end metric it prints the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) and marks a
spread of at least a third of the metric's bound.  With ``--trace-seed``
it adds one traced run per workload.  ``--out`` writes every run's result
and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return json.loads(lines[-1]), env, out.stderr.strip()


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    doc = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, env, errors = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, **result})
            if errors:
                print(f"{workload} seed {seed}: {errors}", file=sys.stderr)
        entry = {"env": env, "runs": runs, "summary": {}}
        print(f"{workload}: {len(runs)} runs, "
              f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)} ops failed")
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            entry["summary"][name] = stats
            flag = "  SPREAD >= bound/3" if stats["spread"] >= bounds[name] / 3 else ""
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:<12} median {stats['median']:.6g} {unit}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {100 * stats['spread']:.2f}% (bound {100 * bounds[name]:.0f}%){flag}")
        if args.trace_seed is not None:
            traced, _, _ = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, **traced}
        doc["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
