#!/usr/bin/env python3
"""Run one workload of the benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release `hmtx-serve` and
`hmtx-router` binaries and the `perfbench` package (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the workload. The
last stdout line is the result object: with `--trace 0` it holds every
end-to-end metric of BENCHMARK.json, with `--trace 1` every per-layer one.
A failed correctness check, a failed build or a missing source tree exits
nonzero without a result.

Extra flags for the comparison's self-test (see compare.py):
`--plant-job-delay-us N` and `--plant-request-delay-us N`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("sim-sweep", "serve-hot", "serve-mix", "model-check")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The commit if the checkout is a git repository, and a digest of every
    source file the measured binaries are built from."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            if f.endswith((".rs", ".toml", ".lock")):
                h.update(os.path.relpath(f, root).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    commit = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=root, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return f"git:{commit}/src:{h.hexdigest()[:16]}"


def cargo(args, root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + args,
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--plant-job-delay-us", type=int, default=0)
    ap.add_argument("--plant-request-delay-us", type=int, default=0)
    a = ap.parse_args()

    root = os.getcwd()
    for need in ("BENCHMARK.json", "Cargo.toml", "Cargo.lock",
                 "crates/server/Cargo.toml", "crates/cluster/Cargo.toml",
                 "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a source checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cargo(["--bin", "hmtx-serve", "--bin", "hmtx-router"], root, target)
    cargo(["--manifest-path", "perfbench/Cargo.toml"], root, target)
    release = os.path.join(target, "release")

    cmd = [
        os.path.join(release, "hmtx-perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--serve-bin", os.path.join(release, "hmtx-serve"),
        "--router-bin", os.path.join(release, "hmtx-router"),
        "--source-id", source_id(root),
        "--plant-job-delay-us", str(a.plant_job_delay_us),
        "--plant-request-delay-us", str(a.plant_request_delay_us),
    ]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.rstrip("\n").split("\n") if r.stdout else []
    if r.returncode != 0 or not lines:
        fail(f"{a.workload} failed (exit {r.returncode})", r.returncode or 1)

    # The result must name exactly the metrics BENCHMARK.json declares.
    result = json.loads(lines[-1])
    table = spec["per_layer"] if a.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(declared)}", 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
