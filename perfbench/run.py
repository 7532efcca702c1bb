#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--smoke` runs every
workload briefly, traced and untraced, and checks that each emits every
metric named in BENCHMARK.json with its unit. `remote` and `serve_hit`
run like the others but are not listed in BENCHMARK.json: see
perfbench/README.md.

Everything the run writes stays in the checkout: builds go to
`$CARGO_TARGET_DIR` (default `.bench_build`) and are skipped while the
checkout's build inputs are unchanged since the last one; results, traces and the
run's temporary cache directories to `.bench_build/perfbench/`.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["suite", "steal", "remote", "serve_hit"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# What cargo builds the two binaries from. Nothing else in the checkout
# is hashed, so files that appear beside it between runs (logs, results)
# never force a rebuild.
BUILD_INPUTS = ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor",
                "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src")


def source_digest(root):
    """SHA-256 over the toolchain version and every build input of the
    checkout, by relative path and content."""
    h = hashlib.sha256()
    rustc = subprocess.run(["rustc", "-V"], stdout=subprocess.PIPE, text=True).stdout
    h.update(rustc.encode())
    files = []
    for rel in BUILD_INPUTS:
        top = os.path.join(root, rel)
        if os.path.isfile(top):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    for path in files:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build(root, env):
    """Build the `experiments` binary and the benchmark; return their paths.

    The benchmark is a workspace of its own, and the stack's crates built
    from it fingerprint differently than when built from the repository's
    workspace, so it builds into a target subdirectory of its own rather
    than invalidating the other build's crates.

    Cargo itself is skipped when the checkout's build inputs are unchanged since
    the last build: outside a git repository the resilience crate's build
    script watches a `.git/HEAD` that does not exist, which cargo treats as
    always stale, so every run would otherwise recompile the stack.
    """
    target = env["CARGO_TARGET_DIR"]
    bench_target = os.path.join(target, "perfbench-target")
    units = (
        (["--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "experiments"], target, "experiments"),
        (["--manifest-path", os.path.join(HERE, "Cargo.toml")], bench_target, "perfbench"),
    )
    paths = [os.path.join(tdir, "release", exe) for _, tdir, exe in units]
    stamp = os.path.join(target, "perfbench-build.stamp")
    try:
        with open(stamp) as f:
            built = f.read().strip()
    except OSError:
        built = None
    if built == source_digest(root) and all(os.path.isfile(p) for p in paths):
        return paths
    for args, tdir, _ in units:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        rc = subprocess.run(cmd, cwd=root, env=dict(env, CARGO_TARGET_DIR=tdir), stdout=sys.stderr).returncode
        if rc != 0:
            fail(f"build failed ({' '.join(cmd)})", rc or 2)
    # Hashed after the build, so the lock files cargo writes are included.
    with open(stamp, "w") as f:
        f.write(source_digest(root) + "\n")
    return paths


def environment(root):
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(root, target) if not os.path.isabs(target) else target
    out = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Anything that falls back to the system temp directory stays inside
    # the checkout too.
    env["TMPDIR"] = tmp
    return env, out


def run_one(bench, exe, out, env, root, workload, seed, seconds, trace):
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--experiments-bin", exe, "--out", out]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def smoke(bench, exe, out, env, root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        fail(f"BENCHMARK.json names workloads this benchmark lacks: {unknown}", 1)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_one(bench, exe, out, env, root, workload, 1, 1, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
                problems.append(f"{workload} trace={trace}: bad result keys or incorrect output")
            got = result["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    problems.append(f"{workload} trace={trace}: missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} unit {got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload} trace={trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"smoke {workload} trace={trace}: {len(got)} metrics, attempted={result['attempted']} failed={result['failed']}")
    if problems:
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        sys.exit(1)
    print("smoke: every workload emitted every metric with its unit")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    root = os.getcwd()
    if not a.smoke and None in (a.workload, a.seed, a.seconds, a.trace):
        fail("need --workload, --seed, --seconds and --trace (or --smoke)")
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates"))):
        fail("run from the root of a humnet checkout (no Cargo.toml and crates/ here)")
    env, out = environment(root)
    exe, bench = build(root, env)
    if a.smoke:
        smoke(bench, exe, out, env, root)
        return
    proc = run_one(bench, exe, out, env, root, a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
