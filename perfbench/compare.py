#!/usr/bin/env python3
"""Collect, summarise and compare sets of benchmark runs.

Run from the repository root:

    python3 perfbench/compare.py collect --workload W --seeds 1-10 --out A.jsonl
    python3 perfbench/compare.py summary A.jsonl
    python3 perfbench/compare.py compare A.jsonl B.jsonl
    python3 perfbench/compare.py selftest --seeds 1-5

A set is one JSON line per run: the workload, seed, provenance (host,
source) and result. `summary` prints, per workload and end-to-end metric,
the run count, median, quartiles and spread (interquartile range over the
median, as `statistics.quantiles(values, n=4)` gives the quartiles).
`compare` reports every workload and metric whose median in the second set
is worse than in the first by more than the metric's bound in
BENCHMARK.json, and exits 1 if there is any.

`selftest` checks the comparison itself: two unmodified sets must report
nothing, a set with a fixed delay planted in the benchmark's wrapper around
`run_job` must report `sim-sweep` as worse, and a set with a per-request
delay must report `serve-hot` as worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0, plant_job=0, plant_req=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--plant-job-delay-us", str(plant_job),
           "--plant-request-delay-us", str(plant_req)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().split("\n") if r.stdout.strip() else []
    if r.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {r.returncode})")
    record = {"workload": workload, "seed": seed}
    for line in lines[:-1]:
        obj = json.loads(line)
        record.update(obj)
    record["result"] = json.loads(lines[-1])
    return record


def collect(workloads, seeds, out, seconds, plant_job=0, plant_req=0, trace=0):
    with open(out, "a") as fh:
        for w in workloads:
            for s in seeds:
                rec = run_once(w, s, seconds, trace, plant_job, plant_req)
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                m = rec["result"]["metrics"]
                print(f"{w} seed {s}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in m.items()), file=sys.stderr)


def load_set(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(runs):
    """workload -> metric -> dict(n, median, q1, q3, spread)."""
    out = {}
    for w, recs in runs.items():
        out[w] = {}
        names = recs[0]["result"]["metrics"].keys()
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(vals)
            out[w][name] = {
                "n": len(vals), "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "unit": recs[0]["result"]["metrics"][name]["unit"],
            }
    return out


def provenance(runs):
    hosts = set()
    sources = set()
    invalid = 0
    for recs in runs.values():
        for r in recs:
            p = r.get("provenance", {})
            hosts.add(f"{p.get('cpu_model')} x{p.get('nproc')}")
            sources.add(p.get("source"))
            gen = r.get("details", {}).get("generator")
            if gen and not gen.get("valid", True):
                invalid += 1
    return sorted(hosts), sorted(sources), invalid


def cmd_summary(path):
    runs = load_set(path)
    hosts, sources, invalid = provenance(runs)
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    print(f"host: {', '.join(hosts)}  source: {', '.join(sources)}  "
          f"invalid runs: {invalid}")
    for w, metrics in summarise(runs).items():
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag = "  SPREAD ABOVE BOUND"
            elif bound is not None and s["spread"] > bound / 3:
                flag = "  spread above bound/3"
            print(f"{w:12} {name:12} n={s['n']:2} median={s['median']:.6g} {s['unit']} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f}"
                  f" bound={bound}{flag}")


def compare(base_path, new_path, quiet=False):
    """Returns [(workload, metric, change)] for metrics worse than bound."""
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    base = summarise(load_set(base_path))
    new = summarise(load_set(new_path))
    worse = []
    for w in sorted(set(base) & set(new)):
        for name, m in spec.items():
            if name not in base[w] or name not in new[w]:
                continue
            b, n = base[w][name]["median"], new[w][name]["median"]
            if b == 0:
                continue
            change = (n - b) / b if m["better"] == "lower" else (b - n) / b
            verdict = "worse" if change > m["bound"] else "ok"
            if base[w][name]["spread"] > m["bound"]:
                verdict += " (unresolved: base spread above bound)"
            if not quiet:
                print(f"{w:12} {name:12} base={b:.6g} new={n:.6g} "
                      f"worse_by={change:+.4f} bound={m['bound']} {verdict}")
            if change > m["bound"]:
                worse.append((w, name, change))
    return worse


def cmd_selftest(seeds, seconds, job_delay_us, req_delay_us):
    workloads = ["sim-sweep", "serve-hot"]
    os.makedirs(".bench_state", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_state") as d:
        sets = {k: os.path.join(d, f"{k}.jsonl") for k in ("a", "b", "job", "req")}
        # Interleave the sets seed by seed so host drift hits them alike.
        for s in seeds:
            collect(workloads, [s], sets["a"], seconds)
            collect(["sim-sweep"], [s], sets["job"], seconds, plant_job=job_delay_us)
            collect(workloads, [s], sets["b"], seconds)
            collect(["serve-hot"], [s], sets["req"], seconds, plant_req=req_delay_us)
        print("== unmodified vs unmodified")
        same = compare(sets["a"], sets["b"])
        print("== unmodified vs planted run_job delay")
        job = compare(sets["a"], sets["job"])
        print("== unmodified vs planted per-request delay")
        req = compare(sets["a"], sets["req"])
    ok = True
    if same:
        print(f"FAIL: unmodified sets reported {same}")
        ok = False
    for metric in ("pass_s", "p50_ms", "rate_per_s"):
        if ("sim-sweep", metric) not in {(w, m) for w, m, _ in job}:
            print(f"FAIL: planted run_job delay not reported on sim-sweep {metric}")
            ok = False
    for metric in ("pass_s", "p50_ms"):
        if ("serve-hot", metric) not in {(w, m) for w, m, _ in req}:
            print(f"FAIL: planted request delay not reported on serve-hot {metric}")
            ok = False
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", action="append", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--out", required=True)
    c.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--plant-job-delay-us", type=int, default=0)
    c.add_argument("--plant-request-delay-us", type=int, default=0)
    s = sub.add_parser("summary")
    s.add_argument("set")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("new")
    t = sub.add_parser("selftest")
    t.add_argument("--seeds", default="1-5")
    t.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    t.add_argument("--job-delay-us", type=int, default=40000)
    t.add_argument("--request-delay-us", type=int, default=200)
    a = ap.parse_args()
    if a.cmd == "collect":
        collect(a.workload, parse_seeds(a.seeds), a.out, a.seconds,
                a.plant_job_delay_us, a.plant_request_delay_us, a.trace)
    elif a.cmd == "summary":
        cmd_summary(a.set)
    elif a.cmd == "compare":
        sys.exit(1 if compare(a.base, a.new) else 0)
    else:
        sys.exit(cmd_selftest(parse_seeds(a.seeds), a.seconds,
                              a.job_delay_us, a.request_delay_us))


if __name__ == "__main__":
    main()
