"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that each run exits 0 and prints, as its last line, a result with
exactly the keys correct/attempted/failed/metrics, a correct result, and
exactly the metric names and units BENCHMARK.json lists for that mode.  It
also checks that the benchmark refuses to run when LATSHIFT_THREADS is set
and fails without a result in a directory holding only the benchmark.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, "-B", str(Path(cwd) / "perfbench" / "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def check_result(proc, wanted: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errs.append(f"not correct: {proc.stdout.strip().splitlines()[-2][:600]}")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            errs.append(f"{key} is not a whole number")
    if result.get("attempted", 0) < 1:
        errs.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        errs.append(f"metric names differ: missing {sorted(set(wanted) - set(metrics))}, "
                    f"extra {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            errs.append(f"{name}: {entry} (unit should be {unit})")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
            errs.append(f"{name}: value {value!r} is not a number")
    return errs


def main() -> int:
    failures = []
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, wanted in ((0, e2e), (1, layers)):
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--size", "tiny"])
            errs = check_result(proc, wanted)
            print(f"{'ok  ' if not errs else 'FAIL'} {workload} trace={trace}")
            failures += [f"{workload} trace={trace}: {e}" for e in errs]

    env = dict(os.environ, LATSHIFT_THREADS="2")
    proc = run(["--workload", "moments", "--seed", "1", "--seconds", "1", "--trace", "0",
                "--size", "tiny"], env=env)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run with LATSHIFT_THREADS set")
    if not refused:
        failures.append("ran with LATSHIFT_THREADS set")

    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(["--workload", "moments", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok  ' if bare_ok else 'FAIL'} fails without a result when the program is absent")
    if not bare_ok:
        failures.append("printed a result without the program")

    for line in failures:
        print("  " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
