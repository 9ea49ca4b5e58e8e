"""Spans around the program's public functions, layer metrics and probes.

For a traced pass the benchmark replaces public functions at the names
their callers look up, records one span per call (name, start, end, parent,
op) in memory, and puts the originals back afterwards.  Nothing crossed
once per point or once per coset gets a span; those costs come from the
standalone probes at the end of this file.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MARK = "__perfbench_span__"

# (object path inside the lib namespace, attribute, span name)
PATCH_TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "moments_grid_shift", "cli.moments_grid_shift"),
    ("cli", "moments_scalar_shift", "cli.moments_scalar_shift"),
    ("cli", "estimate_mean", "cli.estimate_mean"),
    ("cli", "cbc_construct", "cli.cbc_construct"),
    ("moments", "chunked_map", "moments.chunked_map"),
    ("moments", "kahan_sum", "moments.kahan_sum"),
    ("moments", "extended_rule_value", "moments.extended_rule_value"),
    ("moments", "rectangle_rule_mean", "moments.rectangle_rule_mean"),
    ("cbc", "embedded_merit", "cbc.embedded_merit"),
    ("cbc", "merit", "cbc.merit"),
    ("dual", "dual_points", "dual.dual_points"),
    ("bits.BitSource", "draw", "bits.draw"),
)

ROOTS = ("cli.main", "op")
MOMENTS_OPS = ("cli.moments_grid_shift", "cli.moments_scalar_shift")
IDENTITY = ("moments.extended_rule_value", "moments.rectangle_rule_mean")


def _owner(lib, path: str):
    obj = lib
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def originals(lib) -> dict:
    """The objects currently bound at every patch target."""
    return {(path, attr): getattr(_owner(lib, path), attr) for path, attr, _ in PATCH_TARGETS}


def displaced(lib, saved: dict) -> list[str]:
    """Patch targets not bound to their original object (empty when clean)."""
    bad = []
    for (path, attr), obj in originals(lib).items():
        if obj is not saved[(path, attr)] or hasattr(obj, MARK):
            bad.append(f"{path}.{attr}")
    return bad


class Tracer:
    """In-memory span recorder: one [name, start, end, parent, op, arg] row per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str, arg=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, arg])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        tracer = self
        counts_arg = name == "bits.draw"

        def wrapper(*args, **kwargs):
            idx = tracer._open(name, args[1] if counts_arg else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, name)
        return wrapper

    @contextmanager
    def patched(self, lib, saved: dict):
        """Bind a span wrapper at every target; restore the originals after."""
        try:
            for path, attr, name in PATCH_TARGETS:
                setattr(_owner(lib, path), attr, self.wrap(name, saved[(path, attr)]))
            yield
        finally:
            for path, attr, _ in PATCH_TARGETS:
                setattr(_owner(lib, path), attr, saved[(path, attr)])

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, arg in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "arg": arg}) + "\n")


def span_totals(spans: list[list]):
    """Per-span duration and self time (duration minus direct children)."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    self_t = list(dur)
    for i, row in enumerate(spans):
        if row[3] >= 0:
            self_t[row[3]] -= dur[i]
    return dur, self_t


def layer_times(spans: list[list], n_ops: int) -> dict:
    """Per-op seconds of each layer metric, from the traced spans."""
    dur, self_t = span_totals(spans)
    names = [row[0] for row in spans]
    total = defaultdict(float)
    own = defaultdict(float)
    for i, name in enumerate(names):
        parent = spans[i][3]
        pname = names[parent] if parent >= 0 else None
        key = name
        if name == "moments.kahan_sum" and pname in IDENTITY:
            key = "identity.kahan_sum"
        if name == "cbc.embedded_merit" and pname == "cli.cbc_construct":
            key = "cbc.rescore"
        total[key] += dur[i]
        own[key] += self_t[i]
    per = 1.0 / max(n_ops, 1)
    return {
        "cli.self_s": sum(own[r] for r in ROOTS) * per,
        "moments.op_s": sum(total[n] for n in MOMENTS_OPS) * per,
        "moments.self_s": sum(own[n] for n in MOMENTS_OPS) * per,
        "moments.identity_s": (sum(total[n] for n in IDENTITY)) * per,
        "summation.chunked_map_s": own["moments.chunked_map"] * per,
        "summation.kahan_sum_s": own["moments.kahan_sum"] * per,
        "shifts.estimate_s": own["cli.estimate_mean"] * per,
        "bits.draw_s": own["bits.draw"] * per,
        "cbc.construct_s": total["cli.cbc_construct"] * per,
        "cbc.scan_s": own["cli.cbc_construct"] * per,
        "cbc.rescore_s": total["cbc.rescore"] * per,
        "cbc.merit_s": total["cbc.merit"] * per,
        "dual.points_s": own["dual.dual_points"] * per,
        "dual.error_series_s": own["dual.shift_error_series"] * per,
        "dual.variance_series_s": own["dual.cp_variance_series"] * per,
        "dual.third_moment_s": own["dual.third_moment_series"] * per,
        "_self_sum_s": sum(self_t) * per,
        "_root_s": sum(d for d, n in zip(dur, names) if n in ROOTS) * per,
    }


def span_counts(spans: list[list], pass_of_op) -> dict:
    """Counts made at the span boundaries, per pass."""
    names = [row[0] for row in spans]
    out: dict = defaultdict(lambda: defaultdict(int))
    for i, (name, _, _, parent, op, arg) in enumerate(spans):
        k = pass_of_op(op)
        if name == "cbc.embedded_merit" and parent >= 0 and names[parent] == "cli.cbc_construct":
            out["cbc.rescore_calls"][k] += 1
        elif name == "cbc.merit":
            out["cbc.merit_calls"][k] += 1
        elif name == "bits.draw":
            out["bits.drawn"][k] += arg
    return out


# ---------------------------------------------------------------- probes


def _timed(calls) -> tuple[float, int]:
    t0 = time.perf_counter()
    n = 0
    for fn, args in calls:
        fn(*args)
        n += 1
    return time.perf_counter() - t0, n


def probes(lib, ops) -> dict:
    """Per-call costs of the per-point and per-coset boundaries.

    Calls Rank1Rule.node, ProductBernoulliFn.eval / eval_real /
    fourier_coeff and eval_{grid,scalar,real}_shifted directly on a fixed
    sample of each op's own inputs; a boundary the workload never crosses
    reads 0.
    """
    acc = defaultdict(lambda: [0.0, 0])

    def add(name, res):
        acc[name][0] += res[0]
        acc[name][1] += res[1]

    L, F, S, D = lib.lattice, lib.functions, lib.shifts, lib.dual
    seen = set()
    for op in ops:
        if op.key in seen:
            continue
        seen.add(op.key)
        p = op.params
        rng = random.Random(op.key)
        f = F.ProductBernoulliFn(p["s"])
        if op.command == "dual":
            rule = L.Rank1Rule(p["m"], L.korobov_vector(p["ell"], p["s"], p["m"]))
            duals = D.dual_points(rule, D.TruncationBox(p["H"]))
            sample = duals[:: max(1, len(duals) // 256)]
            add("functions.fourier_coeff", _timed((f.fourier_coeff, (h,)) for h in sample))
            continue
        if op.command not in ("moments", "estimate"):
            continue
        s, m, r = p["s"], p["m"], p["r"]
        scheme = p["scheme"]
        if scheme == "scalar":
            pair = L.EmbeddedPair(m, s * r, L.korobov_vector(p["ell"], s, m + s * r))
            rule = pair.extended_rule()
        else:
            rule = L.Rank1Rule(m, L.korobov_vector(p["ell"], s, max(m, 1)))
        idx = range(0, rule.n_points, max(1, rule.n_points // 256))
        add("lattice.node", _timed((rule.node, (j,)) for j in idx))
        nodes = [rule.node(j) for j in idx]
        f.eval(nodes[0])  # builds the factor table the op would amortize
        add("functions.eval", _timed((f.eval, (x,)) for x in nodes))
        if scheme == "grid":
            shifts = [S.GridShift(tuple(rng.randrange(1 << r) for _ in range(s)), r) for _ in range(4)]
            add("shifts.eval_grid", _timed((S.eval_grid_shifted, (rule, f, v)) for v in shifts))
        elif scheme == "scalar":
            shifts = [S.ScalarShift(rng.randrange(1 << (s * r)), s * r) for _ in range(16)]
            add("shifts.eval_scalar", _timed((S.eval_scalar_shifted, (pair, f, w)) for w in shifts))
        else:
            floats = [x.as_floats() for x in nodes]
            add("functions.eval_real", _timed((f.eval_real, (xs,)) for xs in floats))
            u = S.RealShift(tuple(rng.random() for _ in range(s)))
            add("shifts.eval_real", _timed([(S.eval_real_shifted, (rule, f, u))]))

    def per_call(name, unit):
        t, n = acc[name]
        return t / n * unit if n else 0.0

    return {
        "lattice.node_ns": per_call("lattice.node", 1e9),
        "functions.eval_ns": per_call("functions.eval", 1e9),
        "functions.eval_real_ns": per_call("functions.eval_real", 1e9),
        "functions.fourier_coeff_ns": per_call("functions.fourier_coeff", 1e9),
        "shifts.eval_grid_us": per_call("shifts.eval_grid", 1e6),
        "shifts.eval_scalar_us": per_call("shifts.eval_scalar", 1e6),
        "shifts.eval_real_us": per_call("shifts.eval_real", 1e6),
    }
