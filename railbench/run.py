#!/usr/bin/env python3
"""Build (if needed) and run the rails benchmark.

    python3 railbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is configured and built
with CMake into .bench_build/railbench (or $CARGO_TARGET_DIR/railbench when
that is set) from railbench/ and the rails sources in src/. The binary's
stdout is passed through; its last line is the JSON result. Any build or
run failure exits non-zero without printing a result.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_JOBS = "4"


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (Path.cwd() / base / "railbench").resolve()


def build(out: Path) -> Path:
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("railbench: rails sources (src/) not found next to railbench/")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.log", "w") as log:
        quiet = {"stdout": log, "stderr": subprocess.STDOUT, "check": True}
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        subprocess.run(["cmake", "--build", str(out), "--target", "railbench",
                        "-j", BUILD_JOBS], **quiet)
    return out / "railbench"


def main() -> int:
    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"railbench: build failed: {err} (see {build_dir() / 'build.log'})",
              file=sys.stderr)
        return 1
    proc = subprocess.run([str(binary), *sys.argv[1:]], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print(f"railbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
