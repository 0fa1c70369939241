#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the repository root. The binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
compiles the engine's modules, later runs only check that the build is
current. Build output goes to stderr. The last line of stdout is the
binary's JSON result; any failure to build or run exits non-zero without
printing one. Other flags, such as --cpus N, go to the binary unchanged.

--selfcheck runs every workload briefly on small tables, traced and
untraced, with all of its correctness checks, and verifies that the metric
names it prints are exactly those that BENCHMARK.json declares and that it
ran every workload BENCHMARK.json lists.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        log(f"build failed: {err}")
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def run(cmd):
    """Runs the binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, out.splitlines()


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if (not isinstance(result, dict) or
            set(result) != {"correct", "attempted", "failed", "metrics"}):
        return None
    return result


def selfcheck(lines):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    seen = set()
    ok = True
    for line in lines:
        workload, trace, payload = line.split(" ", 2)
        result = valid_result(payload)
        if result is None:
            log(f"{workload} trace={trace}: malformed result")
            ok = False
            continue
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = expected[int(trace)]
        if got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))
            log(f"{workload} trace={trace}: metrics differ from "
                f"BENCHMARK.json: {diff}")
            ok = False
        seen.add(workload)
    missing = {w["name"] for w in spec["workloads"]} - seen
    if missing:
        log(f"BENCHMARK.json workloads not run: {sorted(missing)}")
        ok = False
    return ok


def main(argv):
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return 1
    cmd = [binary] + argv + ["--workdir",
                             os.path.join(build_root, "perfbench-data")]
    code, lines = run(cmd)
    if "--selfcheck" in argv:
        ok = code == 0 and selfcheck(lines)
        log("selfcheck " + ("passed" if ok else "FAILED"))
        return 0 if ok else 1
    if code != 0 or not lines or valid_result(lines[-1]) is None:
        log(f"perfbench failed (exit code {code})")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
