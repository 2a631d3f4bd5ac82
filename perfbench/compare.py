#!/usr/bin/env python3
"""Run the benchmark over several seeds, and compare two sets of runs.

    python3 perfbench/compare.py run OUT.jsonl [--workloads a,b] [--seeds 1-10] [--trace 0|1]
    python3 perfbench/compare.py compare A.jsonl [B.jsonl]

`run` executes BENCHMARK.json's command once per (workload, seed), from
the root of the repository, and appends one JSON line per run: the
workload, seed and trace flag, the run's deterministic counts and its
result line.

`compare` prints, for each (workload, metric), each side's median and
quartiles (statistics.quantiles, n=4), the spread (interquartile range
over the median), the relative difference of the medians in the metric's
"worse" direction, and a verdict against the bound in BENCHMARK.json:
"ok" (B's median is not worse than A's by more than the bound),
"REGRESSION", or "unresolved" (a spread is wider than the bound, unless
every B run is better than every A run).  With one file it checks each
spread against a third of its bound.  It also checks that the counts of
one (workload, seed) are identical in every run, and sums the elapsed time
of A's runs.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(out, workloads, seeds, trace):
    b = spec()
    names = workloads or [w["name"] for w in b["workloads"]]
    with open(out, "a") as f:
        for seed in seeds:
            for w in names:
                cmd = b["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(b["run_seconds"]), "--trace", str(trace),
                ]
                t0 = time.monotonic()
                p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                elapsed = time.monotonic() - t0
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or len(lines) < 2:
                    sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                rec = {
                    "workload": w,
                    "seed": seed,
                    "trace": trace,
                    "elapsed_s": round(elapsed, 1),
                    "counts": json.loads(lines[-2])["counts"],
                    "result": json.loads(lines[-1]),
                }
                f.write(json.dumps(rec) + "\n")
                f.flush()
                r = rec["result"]
                print(f"{w} seed {seed} ({elapsed:.0f} s): correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      flush=True)


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def check_counts(sets):
    seen, bad = {}, 0
    for runs in sets:
        for recs in runs.values():
            for rec in recs:
                key = (rec["workload"], rec["seed"])
                if key in seen and seen[key] != rec["counts"]:
                    print(f"COUNTS DIFFER for {key}: {seen[key]} vs {rec['counts']}")
                    bad += 1
                seen.setdefault(key, rec["counts"])
    return bad


def compare(path_a, path_b):
    b = spec()
    metrics = {m["name"]: m for m in b["end_to_end"] + b["per_layer"]}
    a_runs = load(path_a)
    b_runs = load(path_b) if path_b else None
    bad = check_counts([a_runs] + ([b_runs] if b_runs else []))
    failed = sum(r["result"]["failed"] for rs in a_runs.values() for r in rs)
    if b_runs:
        failed += sum(r["result"]["failed"] for rs in b_runs.values() for r in rs)
    elapsed = sum(r.get("elapsed_s", 0) for rs in a_runs.values() for r in rs)
    print(f"failed operations: {failed}; count mismatches: {bad}; A's runs took {elapsed:.0f} s")
    header = f"{'workload':13} {'metric':26} {'A median [q1, q3]':>34} {'spread':>7}"
    if b_runs:
        header += f" {'B median [q1, q3]':>34} {'spread':>7} {'worse':>8} verdict"
    print(header)
    for w in a_runs:
        names = list(a_runs[w][0]["result"]["metrics"])
        for name in names:
            m = metrics.get(name, {"better": "lower"})
            bound = m.get("bound")
            va = [r["result"]["metrics"][name]["value"] for r in a_runs[w]]
            q1, med, q3 = quartiles(va)
            spread_a = (q3 - q1) / med if med else 0.0
            line = f"{w:13} {name:26} {med:12.5g} [{q1:9.5g}, {q3:9.5g}] {spread_a:7.2%}"
            if not b_runs:
                if bound is not None:
                    line += "  ok" if spread_a < bound / 3 else f"  SPREAD > bound/3 ({bound / 3:.2%})"
                print(line)
                continue
            vb = [r["result"]["metrics"][name]["value"] for r in b_runs.get(w, [])]
            if not vb:
                print(line + "  (missing in B)")
                continue
            p1, medb, p3 = quartiles(vb)
            spread_b = (p3 - p1) / medb if medb else 0.0
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medb - med) / med if med else 0.0
            line += f" {medb:12.5g} [{p1:9.5g}, {p3:9.5g}] {spread_b:7.2%} {worse:+8.2%}"
            if bound is None:
                verdict = "-"
            elif max(spread_a, spread_b) > bound and not (
                    max(sign * x for x in vb) < min(sign * x for x in va)):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            print(line + " " + verdict)


def main(argv):
    if len(argv) >= 2 and argv[0] == "run":
        out, rest = argv[1], argv[2:]
        opts = dict(zip(rest[::2], rest[1::2]))
        workloads = opts.get("--workloads")
        run(out,
            workloads.split(",") if workloads else None,
            parse_seeds(opts.get("--seeds", "1-10")),
            int(opts.get("--trace", "0")))
    elif len(argv) in (2, 3) and argv[0] == "compare":
        compare(argv[1], argv[2] if len(argv) == 3 else None)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
