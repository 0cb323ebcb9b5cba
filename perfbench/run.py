#!/usr/bin/env python3
"""Host-time benchmark of flexrouter: build, run one workload, report.

    python3 perfbench/run.py --workload mesh64_ftrules --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. Builds perfbench/ (which builds the
library from src/) into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench
when that is set, then runs the workload in its own process. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the machine and build context. Exits
nonzero when the build fails, an output check fails or the run misbehaves.

--smoke runs the same workloads on an 8x8 mesh in about a second each;
--pins replaces the pinned SimResults (tests use it).
"""
import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mesh64_nafta", "mesh64_ftrules", "mesh64_nafta_faults")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then build incrementally. Serialised by a lock so two
    runs never build the same tree at once."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(bdir),
                      "-j", str(os.cpu_count() or 1), "--target", "flexbench"])
        with open(log, "w") as out:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    rc = -1
                if rc != 0:
                    sys.stderr.write(log.read_text()[-4000:])
                    fail(f"build failed ({' '.join(cmd[:2])}); log in {log}", 1)
    return bdir / "flexbench"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--pins", default=str(HERE / "pins.txt"))
    return p.parse_args()


def main():
    args = parse_args()
    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no flexrouter sources under {ROOT / 'src'}; run from a checkout")
    bdir = build_dir()
    exe = build(bdir)
    scale = "smoke" if args.smoke else "full"

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", args.pins]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-{scale}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")

    build_info = {}
    result = None
    for line in lines:
        if line.startswith('{"build"'):
            build_info = json.loads(line)["build"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
        else:
            print(line)
    if result is None or not lines[-1].startswith('{"correct"'):
        fail(f"flexbench exited {proc.returncode} without a result", 1)

    context = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler"),
        "flags": build_info.get("flags"),
        "build_type": build_info.get("build_type"),
        "loadavg_at_start": list(load_at_start),
        "git_commit": git_commit(),
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    results = bdir / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "context": context, "result": result}
    name = f"{args.workload}-{scale}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"context": context}))
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
