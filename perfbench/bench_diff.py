#!/usr/bin/env python3
"""Run sets of benchmark runs and compare them.

  python3 perfbench/bench_diff.py run OUT [--seeds 1-10] [--workloads a,b] [--trace 0|1]
      Run the BENCHMARK.json command once per workload and seed, saving
      each run's standard output as OUT/<workload>-seed<n>-trace<t>.out.

  python3 perfbench/bench_diff.py spread OUT
      Per workload and end-to-end metric: median, quartiles and the
      quartile spread as a share of the median, against the metric's
      bound (a steady metric spreads less than a third of it).

  python3 perfbench/bench_diff.py diff BASE CHANGE
      One row per workload and end-to-end metric: each side's median
      and quartiles, pairs won by the change (runs paired by seed, ties
      count for neither side) and a verdict:
        improved    the change wins at least 9 of 10 pairs and the
                    medians differ by more than the base's quartile spread
        worse       the change's median is worse by more than the bound
        unresolved  the base's own spread is wider than the bound and not
                    every change run beats every base run
        unchanged   otherwise
Run from the root of the repository. Quartiles are those of
statistics.quantiles(values, n=4).
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(path):
    """(workload, seed, trace, metrics) of one saved run, or None."""
    prov, result = None, None
    with open(path) as f:
        lines = [l.strip() for l in f if l.strip()]
    for line in lines:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if prov is None or result is None:
        return None
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return prov["workload"], prov["seed"], prov["trace"], metrics, result


def load(directory):
    """{workload: {seed: metrics}} of the untraced runs in a directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        parsed = parse_run(os.path.join(directory, name))
        if parsed is None:
            print(f"skipping {name}: no result", file=sys.stderr)
            continue
        workload, seed, trace, metrics, _ = parsed
        if trace == 0:
            runs.setdefault(workload, {})[seed] = metrics
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_run(args):
    out = args[0]
    seeds, workloads, trace = list(range(1, 11)), None, "0"
    i = 1
    while i < len(args):
        if args[i] == "--seeds":
            seeds = seeds_arg(args[i + 1])
        elif args[i] == "--workloads":
            workloads = args[i + 1].split(",")
        elif args[i] == "--trace":
            trace = args[i + 1]
        else:
            sys.exit(f"unknown argument {args[i]}")
        i += 2
    s = spec()
    workloads = workloads or [w["name"] for w in s["workloads"]]
    os.makedirs(out, exist_ok=True)
    failed = 0
    for seed in seeds:
        for w in workloads:
            cmd = s["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(s["run_seconds"]), "--trace", trace]
            path = os.path.join(out, f"{w}-seed{seed}-trace{trace}.out")
            with open(path, "w") as f:
                code = subprocess.run(cmd, cwd=ROOT, stdout=f).returncode
            with open(path) as f:
                last = [l for l in f if l.strip()][-1:] or ["(no output)"]
            print(f"{w} seed {seed}: exit {code}: {last[0].strip()[:160]}")
            failed += code != 0
    sys.exit(1 if failed else 0)


def cmd_spread(args):
    s = spec()
    runs = load(args[0])
    print(f"{'workload':16} {'metric':20} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = "steady"
    for w in s["workloads"]:
        by_seed = runs.get(w["name"], {})
        for m in s["end_to_end"]:
            values = [r[m["name"]] for r in by_seed.values() if m["name"] in r]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            if m["name"] == "setup_s":
                verdict = "not gated"
            elif spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
                worst = "within bound" if worst == "steady" else worst
            else:
                verdict = "TOO WIDE"
                worst = "TOO WIDE"
            print(f"{w['name']:16} {m['name']:20} {len(values):3} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} {m['bound']:6.3f}  {verdict}")
    print(f"overall: {worst}")


def cmd_diff(args):
    s = spec()
    base, change = load(args[0]), load(args[1])
    print(f"{'workload':16} {'metric':20} {'base median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'won':>7}  verdict")
    for w in s["workloads"]:
        a_runs, b_runs = base.get(w["name"], {}), change.get(w["name"], {})
        for m in s["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a = [r[name] for r in a_runs.values() if name in r]
            b = [r[name] for r in b_runs.values() if name in r]
            if not a or not b:
                continue
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            pairs = [(a_runs[k][name], b_runs[k][name]) for k in a_runs
                     if k in b_runs and name in a_runs[k] and name in b_runs[k]]
            won = sum(better(y, x) for x, y in pairs)
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            worse_by = ((bm - am) if lower else (am - bm)) / am if am else 0.0
            spread = (a3 - a1) / am if am else float("inf")
            all_better = all(better(y, x) for x in a for y in b)
            if pairs and won >= 0.9 * len(pairs) and better(bm, am) and abs(bm - am) > (a3 - a1):
                verdict = "improved"
            elif spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            else:
                verdict = "unchanged"
            print(f"{w['name']:16} {name:20} {am:14.6g} [{a1:10.5g}, {a3:10.5g}] "
                  f"{bm:14.6g} [{b1:10.5g}, {b3:10.5g}] {won:3}/{len(pairs):<3}  {verdict}")


def main():
    if len(sys.argv) < 3 or sys.argv[1] not in ("run", "spread", "diff"):
        sys.exit(__doc__)
    {"run": cmd_run, "spread": cmd_spread, "diff": cmd_diff}[sys.argv[1]](sys.argv[2:])


if __name__ == "__main__":
    main()
