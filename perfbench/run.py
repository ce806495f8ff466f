#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (with this checkout's src/) under $CARGO_TARGET_DIR
(default .bench_build), runs one workload, attaches the units declared in
BENCHMARK.json and prints, as the last line of stdout, one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Exits non-zero when a
correctness check fails or the program cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as ex:
        fail(f"cannot read BENCHMARK.json: {ex}", 2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr only on failure."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-8000:])
        fail(f"failed: {' '.join(map(str, cmd))}")


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not (ROOT / "src" / "runtime" / "runtime.hpp").is_file():
        fail("library sources (src/) not found next to perfbench/", 2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(out)], 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(out), "--target", target, "-j", jobs], 1500)
    return out / target


def run_binary(binary, args, timeout):
    """Runs the benchmark binary; returns (returncode, human lines, result)."""
    try:
        p = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{binary.name} did not finish within {timeout:.0f} s")
    lines = p.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None or p.returncode not in (0, 1):
        sys.stderr.write(p.stdout[-4000:])
        fail(f"{binary.name} exited with {p.returncode} and no result")
    return p.returncode, lines[:-1], result


def select_metrics(spec, result, trace):
    """Maps the binary's metrics onto BENCHMARK.json's names and units."""
    if trace:
        declared, produced = spec["per_layer"], result["per_layer"]
    else:
        declared, produced = spec["end_to_end"], result["end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(produced) - names)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    metrics = {}
    for m in declared:
        value = produced.get(m["name"])
        if value is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            value = 0.0  # a layer this workload does not exercise
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = load_spec()
    if a.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {a.workload}", 2)
    binary = build("perfbench")

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--spans", str(build_dir() / f"spans-{a.workload}.tsv")]
    # A traced run measures the workload twice (untraced, then traced);
    # set-ups and the sequential reference fit in the margin.
    timeout = (2 if a.trace else 1) * a.seconds + 120
    rc, human, result = run_binary(binary, args, timeout)

    metrics = select_metrics(spec, result, a.trace)
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    correct = rc == 0 and failed == 0 and attempted > 0

    for line in human:
        print(line)
    if a.trace:
        for key, value in sorted(result["counters"].items()):
            print(f"# raw {key} {value}")
    for f in result.get("failures", []):
        print(f"# failed check: {f}")
    print(f"# {a.workload} seed {a.seed}: fail_frac {failed / max(attempted, 1):.6g} "
          f"ratio ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
