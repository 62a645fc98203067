#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the benchmark binary (a Release build of
perfbench/CMakeLists.txt, which compiles the library from src/) under
$CARGO_TARGET_DIR, default .bench_build, then runs one workload. The binary
checks its answers and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics; this script passes that line through
as its own last line. Workloads and metrics are described in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("batch_clustered", "rpc_point", "mixed_rw", "words_edit")
ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def tool_env(tmp):
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries inside the checkout
    return env


def build(bdir, env):
    """Configures once, then builds incrementally. Returns the binary path."""
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "perfbench",
                    "-j", jobs], check=True, env=env, stdout=sys.stderr)
    return bdir / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("library sources not found under %s" % (ROOT / "src"))
        return 2
    broot = build_root()
    tmp = broot / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = tool_env(tmp)
    try:
        binary = build(broot / "perfbench", env)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    workdir = broot / "work" / ("%s-%d" % (args.workload, os.getpid()))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--git-sha", git_sha(),
           "--src-digest", source_digest()]
    if args.trace:
        traces = broot / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %ds" % RUN_TIMEOUT_S)
        shutil.rmtree(workdir, ignore_errors=True)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        log("benchmark failed (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    print("run.py: %s finished in %.1fs" % (args.workload,
                                            time.monotonic() - start))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
