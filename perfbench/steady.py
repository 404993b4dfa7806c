#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report how steady it is.

Run from the repository root:

    python3 perfbench/steady.py --workloads campaign,fleet --seeds 1-10 \
        --json perfbench/results/steady.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread,
(q3 - q1) / median, next to the metric's bound in BENCHMARK.json. A
spread above the bound is marked FAIL; one above a
third of the bound is marked "wide".
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    env = next((json.loads(l[len("record: "):])["env"] for l in lines if l.startswith("record: ")), {})
    return res, env, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write the per-metric statistics here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    report = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        values, walls, envs = {}, [], []
        for seed in seeds:
            res, env, wall = run_once(wl, seed, seconds, args.trace)
            envs.append(env)
            walls.append(wall)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: {wall:.1f}s " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        stats = {}
        print(f"\n{wl}: {len(seeds)} runs, {statistics.median(walls):.1f}s median wall per run")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, xs in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark, ok = "FAIL", False
                elif spread > bound / 3:
                    mark = "wide"
            print(f"  {name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound if bound is not None else '-':>6} {mark}")
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs}
        env = {k: v for k, v in envs[0].items() if k != "seed"}
        report["workloads"][wl] = {"env": env, "median_wall_s": statistics.median(walls), "metrics": stats}
        print()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
