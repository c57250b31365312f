#!/usr/bin/env python3
"""Builds the perfbench package from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mis-sparse|service-conn|all \\
        --seed N --seconds S --trace 0|1

`--workload all` runs both workloads one after another and fails if
any of them fails; each prints its own result line.

The package is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`); build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. Provenance that
only the checkout knows (git commit and dirty flag when it is a git
repository, a digest of the sources, the rustc version) is handed to the
benchmark through the environment and printed with its result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# What the benchmark builds from; the digest identifies the code measured
# when the checkout is not a git repository.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "shims", "perfbench"]
SKIP_DIRS = {"target", ".git", "__pycache__"}
WORKLOADS = ["mis-sparse", "service-conn"]


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    # Only a repository rooted at the checkout describes it, not one the
    # checkout happens to sit inside.
    top = capture(["git", "rev-parse", "--show-toplevel"])
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    commit = capture(["git", "rev-parse", "HEAD"]) if in_repo else None
    status = capture(["git", "status", "--porcelain"]) if commit else None
    env["PERFBENCH_COMMIT"] = commit or "none (not a git checkout)"
    env["PERFBENCH_DIRTY"] = "unknown" if status is None else str(bool(status)).lower()
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"]) or "unknown"
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    runs = [args]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if at < len(args) and args[at] == "all":
        runs = [args[:at] + [w] + args[at + 1:] for w in WORKLOADS]
    status = 0
    for run in runs:
        sys.stdout.flush()
        status = subprocess.run([exe] + run, cwd=ROOT, env=env).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
