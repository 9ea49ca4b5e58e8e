"""Workload inputs, op execution and output grading for the benchmark.

A workload is a list of slots.  Each slot fixes the shape of one op (the
sizes its cost depends on) and offers a few variants that differ only in
values its cost does not depend on: Korobov multipliers, bit seeds, bit-file
contents, the evaluation shift.  The benchmark seed picks one variant per
slot and the order of the slots; one pass runs every slot once.  Keeping the
shapes fixed keeps the cost of a pass the same for every seed, so runs with
different seeds can be compared metric by metric.

Every variant of every slot has its expected output recorded in
``expected.json`` (written by ``record.py`` from the seed code), so each
output is graded against a stored value and, where one exists,
against an independent route computed here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("moments", "estimate", "cbc", "dual")
SIZES = ("full", "tiny")

# A run measures round(seconds / nominal pass time) whole passes, so every
# commit is measured on the same ops.  The nominal times are those of the
# seed code on a 2-core Xeon; a run stops early only past 1.5 x --seconds.
NOMINAL_PASS_S = {"moments": 10.0, "estimate": 6.5, "cbc": 8.0, "dual": 3.0}

# the calibrate.py kernel whose speed tracks each workload's ops
SPEED_KERNEL = {"moments": "python", "estimate": "python", "cbc": "numpy", "dual": "python"}

# Tolerances for graded floats.  A change of summation order moves a result
# by ~1e-18 absolute / ~2e-10 relative (the numpy prototype of the
# scalar-shift moments); a wrong digit in the printed {:.4e} form is at
# least 1e-5 relative.  1e-8 relative sits between the two; the absolute
# floor is 1e-12 of the quantity's natural scale (sd^k for the k-th moment).
RTOL = 1e-8
ATOL_SCALE = 1e-12

# odd multipliers, chosen so that every dual shape below has the same
# number of dual points and third-moment pairs (within 2%) for each of them:
# multipliers near +-1 mod 2^m give degenerate rules whose dual series cost
# far more, which would make the cost of a pass depend on the seed
ELLS = (17797, 1267, 12915, 7163, 26245, 23365, 3699, 5709)
BIT_SEEDS = (11, 29, 1009, 4242, 65537, 90001, 123457, 777767)
REAL_SHIFTS = tuple(
    tuple(((7 * i + 13 * k) % 64 + 0.5) / 64 for k in range(3)) for i in range(8)
)
CUMULANT_QS = (4, 8, 16, 32)
IDEAL_BITS_PER_COORD = 53

# the six configurations of the built-in comparison tables, as inputs only:
# outputs are graded against expected.json, never against the reference
# values shipped with the program
TABLE_CELLS = (
    (3, 4, 4, 17797),
    (3, 4, 4, 1267),
    (3, 4, 4, 12915),
    (2, 5, 5, 17797),
    (2, 5, 5, 1267),
    (2, 5, 5, 12915),
)


@dataclass(frozen=True)
class Op:
    """One call into the program; ``key`` names its input in expected.json."""

    key: str
    command: str
    params: dict = field(hash=False)

    def argv(self, work: Path) -> list[str]:
        p = self.params
        if self.command == "moments":
            return ["moments", "--scheme", p["scheme"], "--s", str(p["s"]), "--m", str(p["m"]),
                    "--r", str(p["r"]), "--ell", str(p["ell"])]
        if self.command == "estimate":
            return ["estimate", "--scheme", p["scheme"], "--s", str(p["s"]), "--m", str(p["m"]),
                    "--r", str(p["r"]), "--ell", str(p["ell"]), "--q", str(p["q"]),
                    "--bits", bits_spec(p, work)]
        if self.command == "cbc":
            return ["cbc", "--s", str(p["s"]), "--m", str(p["m"]), "--r", str(p["r"]),
                    "--policy", "full"]
        raise ValueError(f"{self.command} ops have no command line")


def _moments(scheme, s, m, r, ell):
    return Op(f"moments:{scheme}:{s}:{m}:{r}:{ell}", "moments",
              {"scheme": scheme, "s": s, "m": m, "r": r, "ell": ell})


def _estimate(scheme, s, m, r, q, source, i):
    # source: "seed", "ascii01" or "raw"; variant i fixes ell and the bits
    p = {"scheme": scheme, "s": s, "m": m, "r": r, "q": q, "ell": ELLS[i],
         "source": source, "bit_seed": BIT_SEEDS[i]}
    per_coord = IDEAL_BITS_PER_COORD if scheme == "ideal" else r
    p["bits_needed"] = q * s * per_coord
    return Op(f"estimate:{scheme}:{s}:{m}:{r}:q{q}:{source}:{ELLS[i]}:{BIT_SEEDS[i]}",
              "estimate", p)


def _cbc(s, m, r):
    return Op(f"cbc:{s}:{m}:{r}", "cbc", {"s": s, "m": m, "r": r})


def dual_op(s, m, H, i):
    p = {"s": s, "m": m, "H": H, "ell": ELLS[i], "shift": REAL_SHIFTS[i][:s],
         "q": CUMULANT_QS[i % len(CUMULANT_QS)]}
    return Op(f"dual:{s}:{m}:H{H}:{ELLS[i]}:u{i}:q{p['q']}", "dual", p)


def _ell_slot(scheme, s, m, r):
    return [_moments(scheme, s, m, r, ell) for ell in ELLS]


def _slots(workload: str, size: str) -> list[list[Op]]:
    """Slots of one pass; each slot is its list of variants."""
    n = len(ELLS)
    if workload == "moments":
        if size == "tiny":
            return [_ell_slot("grid", 2, 2, 2), _ell_slot("scalar", 2, 2, 2)]
        slots = [[_moments(scheme, *cell)] for cell in TABLE_CELLS for scheme in ("grid", "scalar")]
        # the scalar extras are the heaviest ops after the large cell: with
        # 2 passes the tail rank falls well inside their group
        slots += [_ell_slot("grid", 3, 3, 4),
                  _ell_slot("scalar", 3, 4, 4), _ell_slot("scalar", 3, 4, 4),
                  _ell_slot("scalar", 2, 4, 6), _ell_slot("scalar", 2, 4, 6)]
        # one large shift space at a single node: per-shift overhead and the
        # memory of the value list
        slots.append(_ell_slot("scalar", 3, 0, 6))
        return slots
    if workload == "estimate":
        if size == "tiny":
            return [[_estimate("grid", 2, 4, 4, 4, "seed", i) for i in range(n)],
                    [_estimate("scalar", 2, 4, 2, 4, "ascii01", i) for i in range(n)],
                    [_estimate("ideal", 2, 4, 1, 2, "raw", i) for i in range(n)]]
        shapes = [
            ("grid", 3, 13, 13, 32, "seed"), ("grid", 2, 13, 13, 16, "ascii01"),
            ("grid", 3, 14, 14, 16, "seed"), ("grid", 2, 12, 12, 32, "raw"),
            ("scalar", 3, 12, 4, 8, "seed"), ("scalar", 2, 13, 5, 16, "ascii01"),
            ("scalar", 3, 14, 4, 16, "seed"), ("scalar", 2, 12, 6, 32, "raw"),
            ("ideal", 3, 12, 1, 8, "seed"), ("ideal", 2, 13, 1, 16, "ascii01"),
            ("ideal", 3, 14, 1, 16, "seed"), ("ideal", 2, 12, 1, 32, "raw"),
        ]
        # grid (3,13,13) q32 and (3,14,14) q16 evaluate the same 2^18 points:
        # with 3 passes the tail rank falls inside their group of 6
        return [[_estimate(*shape, i) for i in range(n)] for shape in shapes]
    if workload == "cbc":
        # a CBC op's only input is its shape, so the seed sets the order
        if size == "tiny":
            return [[_cbc(2, 3, 2)], [_cbc(3, 2, 2)]]
        shapes = [
            (2, 4, 6), (3, 2, 4), (2, 2, 6),                          # ext 14-16, m = 2 unpruned
            (2, 8, 4), (3, 5, 3), (2, 5, 5), (2, 4, 5),               # m >= 4, pruned
            (3, 4, 3), (2, 6, 4),
            (2, 2, 5), (3, 3, 3), (2, 4, 4), (3, 6, 2),               # ext 12
        ]
        # 13 slots: with 2 passes the median falls inside the (2,4,5) /
        # (2,6,4) group and the tail rank inside the (3,5,3) group
        return [[_cbc(*shape)] for shape in shapes]
    if workload == "dual":
        if size == "tiny":
            return [[dual_op(2, 3, 4, i) for i in range(n)], [dual_op(3, 4, 3, i) for i in range(n)]]
        shapes = [(3, 5, 16), (3, 3, 8), (3, 6, 16), (3, 5, 12), (3, 6, 12), (3, 4, 8),
                  (2, 4, 16), (2, 3, 8), (2, 6, 16), (2, 5, 12), (2, 3, 12)]
        return [[dual_op(s, m, H, i) for i in range(n)] for s, m, H in shapes]
    raise ValueError(f"unknown workload {workload!r}")


def make_pass(workload: str, size: str, seed: int) -> list[Op]:
    """The seeded op list of one pass: one variant per slot, in seeded order."""
    rng = random.Random(f"{workload}:{size}:{seed}")
    ops = [slot[rng.randrange(len(slot))] for slot in _slots(workload, size)]
    rng.shuffle(ops)
    return ops


def all_ops(workload: str, size: str) -> list[Op]:
    """Every variant of every slot: the inputs expected.json must cover."""
    return [op for slot in _slots(workload, size) for op in slot]


# ---------------------------------------------------------------- inputs


def bit_file(params: dict, work: Path) -> Path:
    return work / f"bits-{params['source']}-{params['bit_seed']}-{params['bits_needed']}"


def bits_spec(params: dict, work: Path) -> str:
    if params["source"] == "seed":
        return f"seed:{params['bit_seed']}"
    return f"file:{bit_file(params, work)}:{params['source']}"


def write_bit_files(ops: list[Op], work: Path) -> None:
    """Write the bit files the estimate ops read; contents follow the variant."""
    for op in ops:
        p = op.params
        if op.command != "estimate" or p["source"] == "seed":
            continue
        path = bit_file(p, work)
        if path.exists():
            continue
        n = p["bits_needed"]
        word = random.Random(p["bit_seed"]).getrandbits(n)
        bits = format(word, f"0{n}b")
        if p["source"] == "ascii01":
            path.write_text("\n".join(bits[i : i + 64] for i in range(0, n, 64)) + "\n")
        else:
            padded = bits + "0" * (-n % 8)
            path.write_bytes(int(padded, 2).to_bytes(len(padded) // 8, "big"))


# ---------------------------------------------------------------- execution


@dataclass
class Result:
    """Outcome of one op: latency, and the fields graded afterwards."""

    op: Op
    latency_s: float
    error: str | None
    out: dict | None
    pass_index: int = 0
    traced: bool = False
    failed: bool = False
    scale: float = 1.0  # to the host's reference speed, see calibrate.py

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.scale


def run_cli(cli, op: Op, work: Path, out_path: Path) -> Result:
    """One closed-loop op: latshift.cli.main(argv) with --out, then read it back."""
    argv = op.argv(work) + ["--out", str(out_path)]
    out_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # an op that raises counts as failed
        return Result(op, time.perf_counter() - t0, f"raised {exc!r}", None)
    latency = time.perf_counter() - t0
    if rc != 0:
        return Result(op, latency, f"exit code {rc}", None)
    try:
        results = json.loads(out_path.read_text())["results"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Result(op, latency, f"no parseable artifact: {exc!r}", None)
    return Result(op, latency, None, results)


def run_dual(lib, op: Op, span) -> Result:
    """One dual op through the public library functions; ``span`` names each call."""
    p = op.params
    t0 = time.perf_counter()
    try:
        rule = lib.lattice.Rank1Rule(p["m"], lib.lattice.korobov_vector(p["ell"], p["s"], p["m"]))
        f = lib.functions.ProductBernoulliFn(p["s"])
        box = lib.dual.TruncationBox(p["H"])
        points = lib.dual.dual_points(rule, box)
        with span("dual.shift_error_series"):
            err = lib.dual.shift_error_series(rule, f, lib.shifts.RealShift(p["shift"]), box)
        with span("dual.cp_variance_series"):
            var = lib.dual.cp_variance_series(rule, f, box)
        with span("dual.third_moment_series"):
            third = lib.dual.third_moment_series(rule, f, box)
        cum = lib.dual.mean_cumulants(lib.dual.CumulantSet(var.value, third.value), p["q"])
    except Exception as exc:  # an op that raises counts as failed
        return Result(op, time.perf_counter() - t0, f"raised {exc!r}", None)
    latency = time.perf_counter() - t0
    out = {
        "count": len(points),
        "points_sha256": points_digest(points),
        "error": [err.value, err.tail_bound],
        "variance": [var.value, var.tail_bound],
        "third": [third.value, third.tail_bound],
        "cumulants": [cum.kappa2, cum.kappa3, cum.q],
    }
    return Result(op, latency, None, out)


def points_digest(points) -> str:
    text = json.dumps(sorted(list(h) for h in points), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- grading


def graded_fields(op: Op, out: dict) -> dict:
    """The part of an op's output that expected.json pins."""
    if op.command == "moments":
        return {k: out[k] for k in ("mean", "bias", "variance", "sd", "mu3", "shift_space_size")}
    if op.command == "estimate":
        return {k: out[k] for k in ("replicates", "q", "mean", "sd", "bias", "bits_consumed")}
    if op.command == "cbc":
        return {k: out[k] for k in ("z", "t", "base_merit", "extended_merit", "combined")}
    return dict(out)


def close(got: float, want: float, scale: float = 0.0) -> bool:
    return abs(got - want) <= RTOL * abs(want) + ATOL_SCALE * abs(scale)


class Grader:
    """Checks every op output against expected.json and the independent routes.

    Independent routes are computed once per input and cached by route().
    """

    def __init__(self, lib, expected: dict):
        self.lib = lib
        self.expected = expected
        self._routes: dict[str, object] = {}

    def expected_for(self, op: Op) -> dict:
        try:
            return self.expected[op.key]
        except KeyError:
            raise KeyError(f"expected.json has no entry for {op.key}; run perfbench/record.py")

    def check(self, res: Result) -> list[str]:
        if res.error is not None:
            return [res.error]
        op, out = res.op, res.out
        want = self.expected_for(op)
        try:
            return getattr(self, f"_check_{op.command}")(op, out, want)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed output: {exc!r}"]

    def route(self, key, compute):
        if key not in self._routes:
            self._routes[key] = compute()
        return self._routes[key]

    def _check_moments(self, op, out, want):
        p = op.params
        errs = []
        sd = want["sd"]
        scales = {"mean": sd, "bias": sd, "sd": sd, "variance": sd**2, "mu3": sd**3}
        for name, scale in scales.items():
            if not close(out[name], want[name], scale):
                errs.append(f"{name} {out[name]!r} != expected {want[name]!r}")
        if out["shift_space_size"] != want["shift_space_size"]:
            errs.append(f"shift_space_size {out['shift_space_size']} != {want['shift_space_size']}")
        if p["scheme"] == "grid":
            # the grid mean is the product-rectangle rule: (1 + 1/(6 4^r))^s
            closed = math.expm1(p["s"] * math.log1p(1.0 / (6.0 * 4.0 ** p["r"])))
            if not close(out["bias"], closed, sd):
                errs.append(f"grid bias {out['bias']!r} != closed form {closed!r}")
        else:
            # the scalar mean is the extended rule's value: merit + 1
            ext = p["m"] + p["s"] * p["r"]

            def merit():
                z = self.lib.lattice.korobov_vector(p["ell"], p["s"], ext)
                return self.lib.cbc.merit(z, 1 << ext).value

            route = self.route(op.key, merit)
            if not close(out["bias"], route, sd):
                errs.append(f"scalar bias {out['bias']!r} != extended merit {route!r}")
        return errs

    def _check_estimate(self, op, out, want):
        p = op.params
        errs = []
        if out["bits_consumed"] != p["bits_needed"] or out["bits_consumed"] != want["bits_consumed"]:
            errs.append(f"bits_consumed {out['bits_consumed']} != {p['bits_needed']}")
        if out["q"] != want["q"] or len(out["replicates"]) != len(want["replicates"]):
            return errs + [f"q {out['q']} != {want['q']}"]
        for i, (got, exp) in enumerate(zip(out["replicates"], want["replicates"])):
            if not close(got, exp, 1.0):
                errs.append(f"replicate {i} {got!r} != expected {exp!r}")
        for name in ("mean", "bias", "sd"):
            if not close(out[name], want[name], 1.0):
                errs.append(f"{name} {out[name]!r} != expected {want[name]!r}")
        return errs

    def _check_cbc(self, op, out, want):
        p = op.params
        errs = []
        if out["z"] != want["z"] or out["t"] != want["t"]:
            return [f"z {out['z']} (t {out['t']}) != expected {want['z']} (t {want['t']})"]
        for name in ("base_merit", "extended_merit", "combined"):
            if not close(out[name], want[name]):
                errs.append(f"{name} {out[name]!r} != expected {want[name]!r}")

        def rescore():
            z = self.lib.lattice.GeneratingVector(tuple(want["z"]), want["t"])
            em = self.lib.cbc.embedded_merit(z, p["m"], p["s"] * p["r"])
            return em.base.value, em.extended.value, em.combined

        rescored = self.route(op.key, rescore)
        names = ("base_merit", "extended_merit", "combined")
        for name, value in zip(names, rescored):
            if not close(out[name], value):
                errs.append(f"{name} {out[name]!r} != re-scored {value!r}")
        return errs

    def _check_dual(self, op, out, want):
        errs = []
        truth = self.route(op.key, lambda: brute_force_duals(op.params))
        if out["points_sha256"] != truth["sha256"] or out["count"] != truth["count"]:
            errs.append(f"dual points ({out['count']}) differ from brute force ({truth['count']})")
        if out["count"] != want["count"] or out["points_sha256"] != want["points_sha256"]:
            errs.append(f"dual points ({out['count']}) differ from expected ({want['count']})")
        var = want["variance"][0]
        scales = {"error": math.sqrt(var), "variance": var, "third": var**1.5}
        for name, scale in scales.items():
            (v, tail), (wv, wtail) = out[name], want[name]
            if not close(v, wv, scale) or not close(tail, wtail):
                errs.append(f"{name} series {out[name]!r} != expected {want[name]!r}")
        k2, k3, q = out["cumulants"]
        q_in = op.params["q"]
        if q != q_in or not close(k2, out["variance"][0] / q_in) or not close(k3, out["third"][0] / q_in**2):
            errs.append(f"mean cumulants {out['cumulants']!r} do not scale the series by q={q_in}")
        return errs


def brute_force_duals(params: dict) -> dict:
    """Dual points of the Korobov rule by scanning the whole box, in numpy.

    Also counts the third-moment pairs: (h, k) with l = h - k nonzero and
    inside the box, the terms the third-moment series must sum.
    """
    s, m, H = params["s"], params["m"], params["H"]
    n = 1 << m
    z = np.array([pow(params["ell"], i, n) for i in range(s)], dtype=np.int64)
    axis = np.arange(-H, H + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([axis] * s), indexing="ij"), axis=-1).reshape(-1, s)
    keep = ((grid @ z) % n == 0) & np.any(grid != 0, axis=1)
    pts = grid[keep]
    pairs = 0
    for lo in range(0, len(pts), 64):
        diff = pts[lo : lo + 64, None, :] - pts[None, :, :]
        ok = np.all(np.abs(diff) <= H, axis=2) & np.any(diff != 0, axis=2)
        pairs += int(ok.sum())
    return {"count": len(pts), "sha256": points_digest(pts.tolist()), "third_pairs": pairs}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())["ops"]
