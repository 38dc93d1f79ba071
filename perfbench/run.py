#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` package
(release, offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), then
runs one workload and passes its output through: the last stdout line is
the JSON result. `--workload all` runs every workload, each in its own
process so peak memory is per workload, and ends with a summary table.
Every other argument is handed to the benchmark binary unchanged.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["thm12-cd-tree", "dense-32k", "registry-grid-256", "matrix-cd-star"]
# What the benchmark's build reads: the workspace crates, the vendored
# shims, the manifests, and the benchmark itself.
SOURCES = ["crates", "shims", "datasets", "perfbench", "Cargo.toml", "Cargo.lock"]


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def source_digest():
    """A digest of the source files, for checkouts that are not git repos."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sources-" + h.hexdigest()[:16]


def output_of(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def build(env):
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"perfbench: missing {', '.join(missing)}; run from a full checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Keep stdout for the result line: the build reports on stderr.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    build(env)
    env["PERFBENCH_RUSTC"] = output_of(["rustc", "-V"]) or "unknown"
    env["PERFBENCH_COMMIT"] = output_of(["git", "rev-parse", "HEAD"]) or source_digest()
    exe = os.path.join(target_dir(), "release", "perfbench")
    out_dir = os.path.join(target_dir(), "perfbench-out")
    if "--out-dir" not in args:
        args += ["--out-dir", out_dir]
    if workload != "all":
        sys.exit(subprocess.run([exe] + args, cwd=ROOT, env=env).returncode)

    i = args.index("--workload")
    rows = []
    for name in WORKLOADS:
        argv = args[:i] + ["--workload", name] + args[i + 2:]
        run = subprocess.run([exe] + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(run.stdout)
        if run.returncode != 0:
            sys.exit(run.returncode)
        rows.append((name, json.loads(run.stdout.strip().splitlines()[-1])))
    print("\nsummary (metric=value unit, per workload)")
    for name, result in rows:
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        record = os.path.join(args[args.index("--out-dir") + 1],
                              f"result-{name}-seed{record_seed(args)}-trace{record_trace(args)}.json")
        with open(record) as fh:
            warm = sorted(json.load(fh)["warm_s_samples"])
        if warm:
            cells.append(f"warm_s={warm[len(warm) // 2]:.6g} s")
        fail_frac = result["failed"] / result["attempted"]
        cells.append(f"fail_frac={fail_frac:g} ({result['failed']}/{result['attempted']})")
        print(f"  {name:<18} " + "  ".join(cells))


def record_seed(args):
    return args[args.index("--seed") + 1] if "--seed" in args else "0"


def record_trace(args):
    return args[args.index("--trace") + 1] if "--trace" in args else "0"


if __name__ == "__main__":
    main()
