#!/usr/bin/env python3
"""Build and run the end-to-end backup/restore benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload pc_weekly|docs_cdc|restore \
        --seed N --seconds S --trace 0|1 [--scale full|tiny] \
        [--corrupt-container]

The first call configures and builds perfbench/CMakeLists.txt (the library
layers under src/ plus the aad_perfbench binary) into the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the repository
root. Later calls only re-run the incremental build. The binary's output is
passed through; its last line is the result object. With --trace 1 the
replay's spans are written to <build dir>/traces/<workload>-seed<N>.tsv.

Exits non-zero, without printing a result, when the build fails or the
binary does not finish.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out: Path) -> "Path | None":
    """Configure (once) and build the binary; returns its path."""
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build directory.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(exist_ok=True)
    with open(log_path, "w") as log:
        if not (out / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log,
                              env=env).returncode:
                # Leave no half-configured tree behind for the next call.
                (out / "CMakeCache.txt").unlink(missing_ok=True)
                return None
        if subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                           "--target", "aad_perfbench"],
                          stdout=log, stderr=log, env=env).returncode:
            return None
    return out / "aad_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pc_weekly", "docs_cdc", "restore"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", default="full", choices=["full", "tiny"])
    parser.add_argument("--corrupt-container", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        log = out / "perfbench-build.log"
        tail = log.read_text(errors="replace")[-4000:] if log.exists() else ""
        sys.stderr.write(f"perfbench: build failed (log: {log})\n{tail}\n")
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scale", args.scale]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.tsv")]
    if args.corrupt_container:
        command.append("--corrupt-container")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: benchmark binary timed out\n")
        return 1
    if done.returncode != 0:
        sys.stderr.write(f"perfbench: benchmark binary exited {done.returncode}\n")
        return 1
    sys.stdout.write(done.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
