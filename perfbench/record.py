"""Record the expected output of every benchmark input into expected.json.

Run from the root of a checkout of the commit whose outputs are the
reference (the seed code):

    python3 perfbench/record.py

Every variant of every slot of every workload, at both sizes, runs once;
the graded fields of its output are stored under the op's key.  Each
recorded output must also pass the independent routes of the grader, so a
reference that disagrees with them is never written.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402


def main() -> int:
    lib = run.import_program()
    work = run.STATE / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    recorded: dict = {}
    try:
        for size in W.SIZES:
            for workload in W.WORKLOADS:
                ops = W.all_ops(workload, size)
                W.write_bit_files(ops, work)
                for op in ops:
                    if op.key in recorded:
                        continue
                    if op.command == "dual":
                        res = W.run_dual(lib, op, nullcontext)
                    else:
                        res = W.run_cli(lib.cli, op, work, work / "out.json")
                    if res.error is not None:
                        raise SystemExit(f"{op.key}: {res.error}")
                    recorded[op.key] = W.graded_fields(op, res.out)
                    errs = W.Grader(lib, recorded).check(res)
                    if errs:
                        raise SystemExit(f"{op.key}: fails an independent route: {errs}")
                    print(f"{res.latency_s:8.3f} s  {op.key}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"recorded_with": {"latshift": lib.cli.__version__}, "ops": recorded}
    W.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} entries to {W.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
