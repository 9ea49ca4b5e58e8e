"""Command-line surface: tables, moments, estimate, dual, cbc.

Artifacts are JSON, written to stdout or --out; tables, moments and cbc
also write CSV with --format csv.  Every artifact embeds the resolved
configuration, so re-running with the emitted configuration reproduces it
byte for byte (given a seeded bit source).

Exit codes: 0 success, 1 validation error, 2 guard violation, 3 reference
mismatch in check mode.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import chain
from typing import Iterable, Iterator

from . import __version__
from .bits import BitSource, parse_bit_source
from .cbc import cbc_construct, embedded_merit
from .dual import TruncationBox, _dual_array
from .errors import GuardLimitError
from .functions import ProductBernoulliFn
from .lattice import EmbeddedPair, GeneratingVector, Rank1Rule, korobov_vector
from .moments import MomentReport, moments_grid_shift, moments_scalar_shift
from .reference import REFERENCE_CELLS
from .shifts import (
    BitString,
    RealShift,
    bits_to_grid_shift,
    bits_to_scalar_shift,
    estimate_mean,
    grid_evaluator,
    real_evaluator,
    scalar_evaluator,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_GUARD = 2
EXIT_CHECK_MISMATCH = 3

# float bits per coordinate when realizing the idealized real-shift scheme
IDEAL_BITS_PER_COORD = 53

# dual points written per block of the streamed dual artifact
BLOCK_NODES = 1 << 16


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for guard
    # violations here, so usage errors are remapped to 1
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _parse_z(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--z expects comma-separated integers, got {text!r}")


def _vector_from_args(args, t: int) -> GeneratingVector:
    # tested against None, so --ell 0 or an empty --z is refused for its value
    if getattr(args, "z", None) is not None:
        return GeneratingVector(_parse_z(args.z), t)
    if getattr(args, "ell", None) is not None:
        return korobov_vector(args.ell, args.s, t)
    raise ValueError("provide a generating vector via --ell or --z")


def _check_r(args) -> None:
    """Refuse a negative --r before any value is derived from it."""
    if args.r < 0:
        raise ValueError(f"--r must be >= 0, got {args.r}")


def _print5(x: float) -> str:
    return f"{x:.4e}"


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write the artifact, given whole or as consecutive pieces."""
    chunks = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_artifact(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _moment_pair(s: int, m: int, r: int, ell: int) -> tuple[MomentReport, MomentReport]:
    f = ProductBernoulliFn(s)
    rule = Rank1Rule(m, korobov_vector(ell, s, m))
    pair = EmbeddedPair(m, s * r, korobov_vector(ell, s, m + s * r))
    return moments_grid_shift(rule, f, r), moments_scalar_shift(pair, f)


def cmd_tables(args) -> int:
    cells = []
    all_match = True
    for ref in REFERENCE_CELLS:
        grid, scalar = _moment_pair(ref.s, ref.m, ref.r, ref.ell)
        cell: dict = {
            "s": ref.s,
            "m": ref.m,
            "r": ref.r,
            "ell": ref.ell,
            "grid": grid.to_dict(),
            "scalar": scalar.to_dict(),
        }
        if args.check:
            reports = {"grid-shift": grid, "scalar-shift": scalar}
            checks = []
            for scheme, stat, expected, rtol in ref.expectations():
                got = getattr(reports[scheme], stat)
                rel = abs(got - expected) / abs(expected)
                ok = rel <= rtol
                all_match = all_match and ok
                if not ok:
                    print(
                        f"mismatch: s={ref.s} m={ref.m} r={ref.r} ell={ref.ell} {scheme} {stat}: "
                        f"expected {expected!r}, computed {got!r}",
                        file=sys.stderr,
                    )
                checks.append(
                    {
                        "scheme": scheme,
                        "statistic": stat,
                        "expected": expected,
                        "computed": got,
                        "computed_5sig": _print5(got),
                        "rel_err": rel,
                        "rtol": rtol,
                        "match": ok,
                    }
                )
            cell["checks"] = checks
        cells.append(cell)

    config = {"check": bool(args.check), "format": args.format}
    if args.format == "csv":
        fields = ["s", "m", "r", "ell"] + list(MomentReport.CSV_FIELDS)
        rows = []
        for cell in cells:
            for scheme_key in ("grid", "scalar"):
                row = {k: cell[k] for k in ("s", "m", "r", "ell")}
                row.update(cell[scheme_key])
                rows.append(row)
        text = _csv_text(fields, rows)
    else:
        artifact = {"command": "tables", "version": __version__, "config": config, "cells": cells}
        if args.check:
            artifact["all_match"] = all_match
        text = _json_artifact(artifact)
    _emit(text, args.out)
    if args.check and not all_match:
        return EXIT_CHECK_MISMATCH
    return EXIT_OK


def _draw_shift(args, src: BitSource):
    if args.scheme in ("grid", "scalar"):
        # r = 0 is a valid finite scheme: the empty shift, which draws no bits
        n = args.r * args.s
        bs = BitString(src.draw(n) if n else (), args.r, args.s)
        return bits_to_grid_shift(bs) if args.scheme == "grid" else bits_to_scalar_shift(bs)
    scale = 1.0 / (1 << IDEAL_BITS_PER_COORD)
    coords = []
    for _ in range(args.s):
        acc = 0
        for b in src.draw(IDEAL_BITS_PER_COORD):
            acc = (acc << 1) | b
        coords.append(acc * scale)
    return RealShift(tuple(coords))


def cmd_estimate(args) -> int:
    _check_r(args)
    f = ProductBernoulliFn(args.s)
    src = parse_bit_source(args.bits)
    if args.scheme == "scalar":
        pair = EmbeddedPair(args.m, args.s * args.r, _vector_from_args(args, args.m + args.s * args.r))
        evaluator = scalar_evaluator(pair, f)
    else:
        rule = Rank1Rule(args.m, _vector_from_args(args, max(args.m, 1)))
        if args.scheme == "grid":
            evaluator = grid_evaluator(rule, f, args.r)
        else:
            evaluator = real_evaluator(rule, f)
    shifts = [_draw_shift(args, src) for _ in range(args.q)]
    est = estimate_mean(evaluator, shifts)
    results = {
        "replicates": list(est.values),
        "q": est.q,
        "mean": est.mean,
        "sd": est.sd,
        "bias": est.mean - f.known_integral,
        "bits_consumed": src.bits_consumed,
    }
    config = {
        "s": args.s,
        "m": args.m,
        "r": args.r,
        "ell": args.ell,
        "z": args.z,
        "scheme": args.scheme,
        "q": args.q,
        "bits": args.bits,
    }
    _emit(_json_artifact({"command": "estimate", "version": __version__, "config": config, "results": results}), args.out)
    return EXIT_OK


def cmd_moments(args) -> int:
    _check_r(args)
    f = ProductBernoulliFn(args.s)
    if args.scheme == "scalar":
        pair = EmbeddedPair(args.m, args.s * args.r, _vector_from_args(args, args.m + args.s * args.r))
        report = moments_scalar_shift(pair, f)
    else:
        rule = Rank1Rule(args.m, _vector_from_args(args, max(args.m, 1)))
        report = moments_grid_shift(rule, f, args.r)
    config = {
        "s": args.s,
        "m": args.m,
        "r": args.r,
        "ell": args.ell,
        "z": args.z,
        "scheme": args.scheme,
    }
    if args.format == "csv":
        fields = ["s", "m", "r", "ell"] + list(MomentReport.CSV_FIELDS)
        row = {"s": args.s, "m": args.m, "r": args.r, "ell": args.ell}
        row.update(report.to_dict())
        text = _csv_text(fields, [row])
    else:
        text = _json_artifact(
            {"command": "moments", "version": __version__, "config": config, "results": report.to_dict()}
        )
    _emit(text, args.out)
    return EXIT_OK


def _json_point_rows(duals) -> Iterator[str]:
    """The rows of duals as the entries of an indent-2 JSON list at depth 1,
    written a block at a time; each block but the last ends with a comma."""
    for lo in range(0, len(duals), BLOCK_NODES):
        rows = duals[lo : lo + BLOCK_NODES].tolist()
        text = ",\n".join("    [\n" + ",\n".join(f"      {v}" for v in h) + "\n    ]" for h in rows)
        yield text + (",\n" if lo + len(rows) < len(duals) else "\n")


def cmd_dual(args) -> int:
    rule = Rank1Rule(args.m, _vector_from_args(args, max(args.m, 1)))
    duals = _dual_array(rule, TruncationBox(args.H))
    config = {"s": args.s, "m": args.m, "ell": args.ell, "z": args.z, "H": args.H}
    text = _json_artifact(
        {"command": "dual", "version": __version__, "config": config, "count": len(duals), "points": []}
    )
    if len(duals):
        # the artifact as json.dumps(indent=2) prints it, without holding
        # the points as Python objects or as one string
        head, tail = text.rsplit("[]", 1)
        text = chain((head, "[\n"), _json_point_rows(duals), ("  ]", tail))
    _emit(text, args.out)
    return EXIT_OK


def cmd_cbc(args) -> int:
    _check_r(args)
    z = cbc_construct(args.s, args.m, args.s * args.r, candidate_policy=args.policy)
    em = embedded_merit(z, args.m, args.s * args.r)
    config = {"s": args.s, "m": args.m, "r": args.r, "sr": args.s * args.r, "policy": args.policy}
    results = {
        "z": list(z.components),
        "t": z.t,
        "base_merit": em.base.value,
        "extended_merit": em.extended.value,
        "combined": em.combined,
    }
    if args.format == "csv":
        fields = ["s", "m", "sr"] + [f"z{i + 1}" for i in range(args.s)] + [
            "base_merit",
            "extended_merit",
            "combined",
        ]
        row = {"s": args.s, "m": args.m, "sr": args.s * args.r}
        for i, c in enumerate(z.components):
            row[f"z{i + 1}"] = c
        row["base_merit"] = em.base.value
        row["extended_merit"] = em.extended.value
        row["combined"] = em.combined
        text = _csv_text(fields, [row])
    else:
        text = _json_artifact({"command": "cbc", "version": __version__, "config": config, "results": results})
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latshift", description="Randomized rank-1 lattice quadrature toolkit.")
    parser.add_argument("--version", action="version", version=f"latshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rule_args(p, need_r=True):
        p.add_argument("--s", type=int, required=True, help="dimension")
        p.add_argument("--m", type=int, required=True, help="log2 of the base node count")
        if need_r:
            p.add_argument("--r", type=int, required=True, help="shift bits per coordinate")
        p.add_argument("--ell", type=int, help="Korobov multiplier for z = (1, ell, ell^2, ...)")
        p.add_argument("--z", type=str, help="explicit generating vector, comma separated")

    def add_output_args(p, formats=True):
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", type=str, help="write the artifact to this path instead of stdout")

    p_tables = sub.add_parser("tables", help="reproduce the built-in bias/SD comparison tables")
    p_tables.add_argument("--check", action="store_true", help="compare against reference values")
    add_output_args(p_tables)
    p_tables.set_defaults(fn=cmd_tables)

    p_est = sub.add_parser("estimate", help="replicated randomized-rule estimate of the integral")
    add_rule_args(p_est)
    p_est.add_argument("--scheme", choices=("grid", "scalar", "ideal"), required=True)
    p_est.add_argument("--q", type=int, default=1, help="replicate count")
    p_est.add_argument(
        "--bits", type=str, default="os", help="bit source: seed:N, os, or file:PATH[:FORMAT]"
    )
    # estimate and dual write JSON only
    add_output_args(p_est, formats=False)
    p_est.set_defaults(fn=cmd_estimate)

    p_mom = sub.add_parser("moments", help="exact moments over the whole shift space")
    add_rule_args(p_mom)
    p_mom.add_argument("--scheme", choices=("grid", "scalar"), required=True)
    add_output_args(p_mom)
    p_mom.set_defaults(fn=cmd_moments)

    p_dual = sub.add_parser("dual", help="enumerate dual-lattice points in a box")
    add_rule_args(p_dual, need_r=False)
    p_dual.add_argument("--H", type=int, required=True, help="box bound |h_i| <= H")
    add_output_args(p_dual, formats=False)
    p_dual.set_defaults(fn=cmd_dual)

    p_cbc = sub.add_parser("cbc", help="component-by-component generating vector search")
    p_cbc.add_argument("--s", type=int, required=True, help="dimension")
    p_cbc.add_argument("--m", type=int, required=True, help="log2 of the base node count")
    p_cbc.add_argument("--r", type=int, required=True, help="shift bits per coordinate (sr = s*r)")
    p_cbc.add_argument("--policy", choices=("auto", "full", "sampled"), default="auto")
    add_output_args(p_cbc)
    p_cbc.set_defaults(fn=cmd_cbc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    except GuardLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
