"""latshift benchmark: closed-loop workloads with traced per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {moments,estimate,cbc,dual} \
        --seed N --seconds S --trace {0,1}

One client runs the workload's seeded ops one after another (closed loop,
single process, single thread), through ``latshift.cli.main(argv)`` with
``--out`` into a scratch directory, or through the public library
functions where no command exists (the dual series).  Every output is
graded; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a report with the environment, the tail percentile and sample count,
the per-pass counts and any failures.  See README.md in this directory.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

EXIT_USAGE = 1
EXIT_REFUSED = 2

SETUP_PROBES = 5
LAYER_MODULES = ("cli", "moments", "shifts", "lattice", "functions", "cbc", "dual", "bits")

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=W.SIZES,
                    help="tiny: the smoke-test inputs of selftest.py")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready', exit (one setup_s sample)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program() -> types.SimpleNamespace:
    """Import latshift from this checkout's src/ (never an installed copy)."""
    if not (SRC / "latshift" / "__init__.py").is_file():
        raise SystemExit(f"error: no latshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    lib = types.SimpleNamespace()
    for name in LAYER_MODULES:
        setattr(lib, name, importlib.import_module(f"latshift.{name}"))
    origin = Path(lib.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: imported latshift from {origin}, not from {SRC}")
    return lib


def warm_up(lib, workload: str, ops, work: Path) -> None:
    """Run each code path once at a tiny size, and fill the CBC normaliser cache.

    The cache fill makes every pass make the same merit calls, so the CBC
    call counts repeat exactly from the first pass on.
    """
    out = work / "warmup.json"
    argvs = {
        "moments": [["moments", "--scheme", sc, "--s", "2", "--m", "2", "--r", "2", "--ell", "5"]
                    for sc in ("grid", "scalar")],
        "estimate": [["estimate", "--scheme", sc, "--s", "2", "--m", "3", "--r", "2", "--ell", "5",
                      "--q", "2", "--bits", "seed:1"] for sc in ("grid", "scalar", "ideal")],
        "cbc": [["cbc", "--s", "2", "--m", "2", "--r", "2", "--policy", "full"]],
        "dual": [],
    }[workload]
    for argv in argvs:
        if lib.cli.main(argv + ["--out", str(out)]) != 0:
            raise SystemExit(f"error: warm-up op failed: {' '.join(argv)}")
    if workload == "cbc":
        for op in ops:
            p = op.params
            sr = p["s"] * p["r"]
            for d in range(2, p["s"] + 1):
                z = lib.lattice.korobov_vector(W.ELLS[0], d, max(p["m"] + sr, 1))
                lib.cbc.embedded_merit(z, p["m"], sr)
    if workload == "dual":
        W.run_dual(lib, W.dual_op(2, 3, 4, 0), nullcontext)


def setup(args, work: Path):
    lib = import_program()
    ops = W.make_pass(args.workload, args.size, args.seed)
    W.write_bit_files(ops, work)
    warm_up(lib, args.workload, ops, work)
    # objects alive now (modules, inputs) are never garbage; keep the
    # collector from rescanning them during the ops
    gc.collect()
    gc.freeze()
    return lib, ops


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw, scaled) wall time from process start to ready, over fresh processes."""
    samples = []
    cmd = [sys.executable, "-B", str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--size", args.size, "--setup-only"]
    after = calibrate.sample("startup")
    for _ in range(SETUP_PROBES):
        before = after
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise SystemExit(f"error: setup probe failed (exit {rc})")
        raw = ready - t0
        after = calibrate.sample("startup")
        samples.append((raw, raw * calibrate.scale("startup", before, after)))
    return samples


def environment(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": args.seed,
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
    }


def run_pass(lib, ops, k, work, results, kind=None, tracer=None) -> None:
    """One pass over the ops.

    With a calibration kernel ``kind``, each op's speed scale comes from
    the kernel timed before and after it.
    """
    out_path = work / "out.json"
    # each op starts from a collected heap, as in a fresh process, so where
    # the cyclic collector runs depends on neither the op order nor the
    # kernel; the kernel runs on a collected heap too
    gc.collect()
    before = calibrate.sample(kind) if kind else None
    for op in ops:
        if tracer is not None:
            tracer.op = len(results)
        if op.command == "dual":
            if tracer is None:
                res = W.run_dual(lib, op, nullcontext)
            else:
                with tracer.span("op"):
                    res = W.run_dual(lib, op, tracer.span)
        else:
            res = W.run_cli(lib.cli, op, work, out_path)
        gc.collect()
        if kind:
            after = calibrate.sample(kind)
            res.scale = calibrate.scale(kind, before, after)
            before = after
        res.pass_index = k
        res.traced = tracer is not None
        results.append(res)


def pass_counts(results, grader) -> dict:
    """Counts computed from inputs and outputs, per pass (untraced and traced alike)."""
    counts: dict = {}

    def add(name, k, v):
        counts.setdefault(name, {}).setdefault(k, 0)
        counts[name][k] += v

    for res in results:
        k = (res.pass_index, res.traced)
        if res.out is None:
            continue
        p = res.op.params
        if res.op.command == "moments":
            ident = 1 << (p["m"] + p["s"] * p["r"]) if p["scheme"] == "scalar" else 1 << p["r"]
            add("moments.points_evaluated", k, res.out["shift_space_size"] * (1 << p["m"]) + ident)
        elif res.op.command == "estimate":
            add("bits.bits_consumed", k, res.out["bits_consumed"])
        elif res.op.command == "dual":
            add("dual.points_count", k, res.out["count"])
            truth = grader.route(res.op.key, lambda: W.brute_force_duals(p))
            add("dual.third_pairs", k, truth["third_pairs"])
    return counts


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def main(argv=None) -> int:
    args = parse_args(argv)
    if "LATSHIFT_THREADS" in os.environ:
        print("error: LATSHIFT_THREADS is set; the program is measured at its default "
              "thread count only, so unset it", file=sys.stderr)
        return EXIT_REFUSED
    if not (SRC / "latshift" / "__init__.py").is_file():
        print(f"error: no latshift sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return EXIT_USAGE

    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            setup(args, work)
            print("ready", flush=True)
            return 0
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    setup_samples = measure_setup(args) if args.trace == 0 else []
    lib, ops = setup(args, work)
    grader = W.Grader(lib, W.load_expected())
    for op in ops:
        grader.expected_for(op)
    saved = tracing.originals(lib)
    nominal = W.NOMINAL_PASS_S[args.workload]
    kind = W.SPEED_KERNEL[args.workload]
    results: list = []
    hygiene: list[str] = []
    tracer = tracing.Tracer()

    cpu0, wall0 = time.process_time(), time.perf_counter()
    if args.trace == 0:
        passes = max(1, round(args.seconds / nominal))
        for k in range(passes):
            run_pass(lib, ops, k, work, results, kind)
            if time.perf_counter() - wall0 > 1.5 * args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        hygiene += [f"untraced run found {t} patched" for t in tracing.displaced(lib, saved)]
    else:
        cpu_untraced = wall_untraced = 0.0
        pairs = max(2, round(args.seconds / (2 * nominal)))
        for k in range(pairs):
            c0, w0 = time.process_time(), time.perf_counter()
            run_pass(lib, ops, k, work, results)
            cpu_untraced += time.process_time() - c0
            wall_untraced += time.perf_counter() - w0
            hygiene += [f"untraced pass found {t} patched" for t in tracing.displaced(lib, saved)]
            with tracer.patched(lib, saved):
                run_pass(lib, ops, k, work, results, tracer=tracer)
            hygiene += [f"{t} not restored after tracing" for t in tracing.displaced(lib, saved)]
            if time.perf_counter() - wall0 > 1.5 * args.seconds:
                break
    loop_wall = time.perf_counter() - wall0
    loop_cpu = time.process_time() - cpu0

    failures = []
    for res in results:
        errs = grader.check(res)
        res.failed = bool(errs)
        if errs and len(failures) < 10:
            failures.append({"op": res.op.key, "errors": errs[:3]})
    attempted = len(results)
    failed = sum(res.failed for res in results)

    # counts must repeat exactly: across passes, and traced against untraced
    counts = pass_counts(results, grader)
    if args.trace == 1:
        n_traced = sum(res.traced for res in results)
        for name, per in tracing.span_counts(tracer.spans, lambda i: (results[i].pass_index, True)).items():
            counts[name] = dict(per)
    repeat_errors = [f"{name} differs between passes: {sorted(per.values())}"
                     for name, per in counts.items() if len(set(per.values())) > 1]
    if "bits.drawn" in counts and counts["bits.drawn"] != {
            k: v for k, v in counts["bits.bits_consumed"].items() if k[1]}:
        repeat_errors.append("bits drawn at BitSource.draw differ from the artifacts' bits_consumed")
    count_values = {name: next(iter(per.values())) for name, per in counts.items()}

    report = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "env": environment(args), "ops_per_pass": len(ops),
        "passes": 1 + max(res.pass_index for res in results),
        "loop_wall_s": loop_wall, "loop_cpu_s": loop_cpu,
        "counts_per_pass": count_values, "count_repeat_errors": repeat_errors,
        "tracing_hygiene_errors": hygiene, "failures": failures,
    }
    if args.trace == 0:
        lat = [res.scaled_s for res in results]
        tail_s, tail_pct, n = tail(lat)
        report.update(setup_raw_s=[raw for raw, _ in setup_samples],
                      setup_scaled_s=[scaled for _, scaled in setup_samples],
                      op_tail_percentile=tail_pct, op_samples=n,
                      raw_latencies_ms=[round(res.latency_s * 1e3, 2) for res in results],
                      speed_scales=[round(res.scale, 4) for res in results])
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled in setup_samples), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(lib, ops, results, tracer, count_values, n_traced,
                                cpu_untraced / wall_untraced, report)
    tracer_path = None
    if args.trace == 1:
        tracer_path = STATE / f"spans-{args.workload}.jsonl"
        tracer.write(tracer_path)
        report["spans_file"] = str(tracer_path.relative_to(ROOT))
    report["fail_ratio"] = failed / attempted
    print("# perfbench report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0 and not repeat_errors and not hygiene,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(lib, ops, results, tracer, counts, n_traced, cpu_util, report) -> dict:
    """Per-layer metrics of a traced run, in unscaled seconds.

    Traced and untraced passes alternate within the run, so host drift
    affects both alike and the spans account exactly for the traced op
    time; scaling is left to the end-to-end metrics.
    """
    traced = [res for res in results if res.traced]
    untraced = [res for res in results if not res.traced]
    t = tracing.layer_times(tracer.spans, n_traced)
    traced_op_s = sum(r.latency_s for r in traced) / len(traced)
    untraced_op_s = sum(r.latency_s for r in untraced) / len(untraced)
    report["accounting"] = {
        "untraced_op_s": untraced_op_s, "traced_op_s": traced_op_s,
        "root_span_s": t.pop("_root_s"), "layer_self_sum_s": t.pop("_self_sum_s"),
    }
    passes = len({r.pass_index for r in traced})

    def ops_of(command):
        return [r for r in traced if r.op.command == command and r.out is not None]

    mom = ops_of("moments")
    guard = lib.moments.GUARD_BITS
    headroom = [guard - (p["m"] + p["s"] * p["r"] if p["scheme"] == "scalar" else p["s"] * p["r"])
                for p in (r.op.params for r in mom)]
    points = counts.get("moments.points_evaluated", 0)
    shift_points = sum(r.out["shift_space_size"] << r.op.params["m"] for r in mom) / max(passes, 1)
    shift_points += sum(r.op.params["q"] << r.op.params["m"] for r in ops_of("estimate")) / max(passes, 1)
    shift_time = (t["summation.chunked_map_s"] + t["shifts.estimate_s"]) * len(traced) / max(passes, 1)
    cbc = ops_of("cbc")
    winners = sum(r.op.params["s"] - 1 for r in cbc) / max(passes, 1)
    cand_nodes = sum((r.op.params["s"] - 1) * max(1, (1 << (r.op.params["m"] + r.op.params["s"] * r.op.params["r"])) // 4)
                     * (1 << (r.op.params["m"] + r.op.params["s"] * r.op.params["r"])) for r in cbc) / max(passes, 1)
    per_pass = len(traced) / max(passes, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "fail_ratio": (sum(r.failed for r in results) / len(results), "ratio"),
        "process.cpu_util": (cpu_util, "ratio"),
        "tracing.overhead_ratio": (traced_op_s / untraced_op_s - 1.0, "ratio"),
        "cli.self_s": (t["cli.self_s"], "s"),
        "moments.op_s": (t["moments.op_s"], "s"),
        "moments.self_s": (t["moments.self_s"], "s"),
        "moments.identity_s": (t["moments.identity_s"], "s"),
        "moments.points_evaluated": (points, "count"),
        "moments.points_per_s": (ratio(points, t["moments.op_s"] * per_pass), "1/s"),
        "moments.guard_headroom_bits_min": (min(headroom) if headroom else 0, "bits"),
        "moments.mean_check_rel_err_max": (max((r.out["mean_check_rel_err"] for r in mom), default=0.0), "ratio"),
        "summation.chunked_map_s": (t["summation.chunked_map_s"], "s"),
        "summation.kahan_sum_s": (t["summation.kahan_sum_s"], "s"),
        "shifts.estimate_s": (t["shifts.estimate_s"], "s"),
        "shifts.points_per_s": (ratio(shift_points, shift_time), "1/s"),
        "bits.draw_s": (t["bits.draw_s"], "s"),
        "bits.bits_consumed": (counts.get("bits.bits_consumed", 0), "count"),
        "cbc.construct_s": (t["cbc.construct_s"], "s"),
        "cbc.scan_s": (t["cbc.scan_s"], "s"),
        "cbc.rescore_s": (t["cbc.rescore_s"], "s"),
        "cbc.rescore_calls": (counts.get("cbc.rescore_calls", 0), "count"),
        "cbc.merit_calls": (counts.get("cbc.merit_calls", 0), "count"),
        "cbc.merit_s": (t["cbc.merit_s"], "s"),
        "cbc.useful_ratio": (ratio(winners, counts.get("cbc.rescore_calls", 0)), "ratio"),
        "cbc.scan_ns_per_cand_node": (ratio(t["cbc.scan_s"] * per_pass * 1e9, cand_nodes), "ns"),
        "dual.points_s": (t["dual.points_s"], "s"),
        "dual.points_count": (counts.get("dual.points_count", 0), "count"),
        "dual.error_series_s": (t["dual.error_series_s"], "s"),
        "dual.variance_series_s": (t["dual.variance_series_s"], "s"),
        "dual.third_moment_s": (t["dual.third_moment_s"], "s"),
        "dual.third_pairs": (counts.get("dual.third_pairs", 0), "count"),
        "dual.third_ns_per_pair": (ratio(t["dual.third_moment_s"] * per_pass * 1e9,
                                         counts.get("dual.third_pairs", 0)), "ns"),
    }
    for name, value in tracing.probes(lib, ops).items():
        m[name] = (value, name.rsplit("_", 1)[1])
    return m


if __name__ == "__main__":
    sys.exit(main())
