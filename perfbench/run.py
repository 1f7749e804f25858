#!/usr/bin/env python3
"""End-to-end benchmark of the mrpic PIC step: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program and the benchmark binary (perfbench_e2e) from this checkout's sources
(Release, into $CARGO_TARGET_DIR or .bench_build/), runs the workload at its
thread count, and relays the binary's output. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Run outputs (spans,
checkpoint scratch, a copy of each result line) go to perfbench/out/.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# name -> (registered scenario, threads, timed steps per round)
WORKLOADS = {
    # The MR design case, every layer loaded; 640 steps run ~135 steps past
    # the moving-window start (40 fs, step ~505).
    "lwfa_mr_serial": ("lwfa_mr", 1, 640),
    # The same at 4 threads, for per-stage parallel efficiency by hand. Not
    # in BENCHMARK.json: on a shared 4-core host its run-to-run spread is
    # wider than any usable bound (README.md).
    "lwfa_mr_threaded": ("lwfa_mr", 4, 640),
    # Periodic thermal plasma on the spectral solver: no PML, MR, laser,
    # window or injection.
    "uniform_psatd_serial": ("uniform_psatd", 1, 1000),
}

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 150
# setup_s is the median of this many cold set-ups, each in a fresh process:
# the run's own and SETUP_SAMPLES - 1 that stop right after set-up. A second
# set-up in one process would be warm.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 5


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the program's sources (CMakeLists.txt, src/) are not next to perfbench/")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_e2e", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)}")
    exe = os.path.join(bdir, "perfbench_e2e")
    if not os.access(exe, os.X_OK):
        fail(f"no benchmark binary at {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    scenario, threads, steps = WORKLOADS[a.workload]
    nproc = len(os.sched_getaffinity(0))
    if threads > nproc:
        fail(f"{a.workload} needs {threads} threads; only {nproc} CPUs are available")

    exe = build()
    os.makedirs(OUT, exist_ok=True)
    # The thread count is fixed before the program starts; inherited OpenMP
    # settings are dropped so every run sees the same runtime defaults.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("OMP_", "GOMP_", "KMP_", "MRPIC_"))}
    env["OMP_NUM_THREADS"] = str(threads)
    env["MRPIC_THREADS"] = str(threads)
    cmd = [exe, "--workload", a.workload, "--scenario", scenario,
           "--threads", str(threads), "--steps", str(steps), "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace), "--out", OUT]
    setups = []
    if not a.trace:
        for _ in range(SETUP_SAMPLES - 1):
            try:
                r = subprocess.run(cmd + ["--setup-only", "1"], env=env, text=True,
                                   stdout=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"a set-up of {a.workload} did not finish within {SETUP_TIMEOUT_S} s")
            fields = r.stdout.split()
            if r.returncode != 0 or len(fields) != 2 or fields[0] != "setup_s":
                fail(f"a set-up of {a.workload} failed with code {r.returncode}")
            setups.append(float(fields[1]))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"perfbench_e2e exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        fail("perfbench_e2e printed no result line")
    text = lines[:-1]
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        text.append("setup_s: median of cold set-ups " +
                    " ".join(f"{v:.6g}" for v in setups) + " s")
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": a.workload, "seed": a.seed, "trace": a.trace,
                            "time": time.time(), "result": result}) + "\n")
    print("\n".join(text))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
