#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see perfbench/main.go).
The Go build cache, temporary files and toolchain state live under
.bench_build/ in the repository, so a run writes nothing outside the
checkout. The binary runs with GODEBUG=madvdontneed=0: the Go runtime
then hands freed heap pages back with MADV_FREE, so the next op reuses
them instead of faulting them in again. A cold-5d grid churns about
40 MB of pages, and on a VM what a page fault costs drifts with the
host's memory pressure. The build needs the repository's own sources:
without them it fails and the script exits non-zero without printing a
result.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench-bin")
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    run_env = dict(os.environ)
    run_env["GODEBUG"] = ",".join(filter(None, [os.environ.get("GODEBUG", ""), "madvdontneed=0"]))
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=run_env).returncode


if __name__ == "__main__":
    sys.exit(main())
