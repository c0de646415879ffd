#!/usr/bin/env python3
"""Build and run the multipath benchmark.

    python3 perfbench/run.py --workload drain --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the Go program in perfbench/
from source into .bench_build/, keeping every Go cache and temporary
directory there, and runs it; the last line of standard output is the
result JSON. Further flags (--out, --spans, --delay-layer)
pass through to the program, after these defaults: the full record goes
to .bench_build/results/ and a traced run's spans to .bench_build/spans/.
--workload all runs the four workloads one after another.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bin", "perfbench")


def go_env():
    """The go command's environment: every cache, temporary and config
    directory (the toolchain's telemetry counters live in the latter)
    inside .bench_build, and no network."""
    env = dict(os.environ)
    env.update(
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOFLAGS="",
        GOENV="off",
        GOWORK="off",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def tree_digest():
    """Digest of the module's Go sources: names the measured code when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for f in sorted(files):
            if f.endswith(".go") or f == "go.mod":
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def wait(cmd, **kw):
    """Run cmd to completion; on any interruption stop it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait()
    except BaseException:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: run from the root of the multipath module (go.mod and internal/ not found)",
              file=sys.stderr)
        return 2
    for d in ("gocache", "tmp", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    rc = wait(["go", "build", "-trimpath", "-o", BINARY, "."], cwd=HERE, env=go_env(),
              stdout=sys.stderr)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    defaults = ["-out", os.path.join(BUILD, "results"), "-spans", os.path.join(BUILD, "spans"),
                "-commit", commit(), "-tree", tree_digest()]
    rc = 0
    for args in expand_all(sys.argv[1:]):
        rc = max(rc, wait([BINARY] + defaults + args, cwd=ROOT))
    return rc


def expand_all(args):
    """--workload all runs every workload of BENCHMARK.json in turn."""
    for i, a in enumerate(args[:-1]):
        if a in ("--workload", "-workload") and args[i + 1] == "all":
            with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
                names = [w["name"] for w in json.load(f)["workloads"]]
            return [args[:i + 1] + [n] + args[i + 2:] for n in names]
    return [args]


if __name__ == "__main__":
    sys.exit(main())
