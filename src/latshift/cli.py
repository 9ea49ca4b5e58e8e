"""Command-line surface: tables, moments, estimate, dual, cbc.

Artifacts are JSON, written to stdout or --out; tables, moments and cbc
also write CSV with --format csv.  Each handler declares its artifact (a
config, a body and, for CSV, rows) and `_write` renders it: the JSON
envelope is `_json_artifact`'s, and a CSV header is the first row's keys.
Every artifact embeds the resolved configuration, so re-running with the
emitted configuration reproduces it byte for byte (given a seeded bit
source).

Exit codes: 0 success, 1 validation error (or a sum past the float range,
or an allocation past the memory at hand, each reported on one line), 2
guard violation, 3 reference mismatch in check mode.

`main` parses every argv with one full parser, built on first use and
kept for the life of the process: argparse spends far more building a
parser than parsing with it.  Each parse gets a fresh `Namespace` and no
option has a mutable default, so nothing carries over from one argv to
the next.
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
from .dual import PreparedBox, TruncationBox
from .errors import GuardLimitError, guard
from .functions import ProductBernoulliFn
from .lattice import EmbeddedPair, GeneratingVector, Rank1Rule, korobov_vector
from .moments import MomentReport, moments_grid_shift, moments_scalar_shift
from .reference import REFERENCE_CELLS
from .shifts import (
    GridShift,
    ScalarShift,
    estimate_mean,
    grid_evaluator,
    scalar_evaluator,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_GUARD = 2
EXIT_CHECK_MISMATCH = 3

# bits per coordinate of the grid shift that realizes the idealized
# real-shift scheme: those of a uniform float in [0, 1)
IDEAL_BITS_PER_COORD = 53


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
    if args.z is not None:
        z = _parse_z(args.z)
        if len(z) != args.s:
            raise ValueError(f"--z has {len(z)} components, but --s is {args.s}")
        return GeneratingVector(z, t)
    if args.ell is not None:
        return korobov_vector(args.ell, args.s, t)
    raise ValueError("provide a generating vector via --ell or --z")


def _rule_from_args(args) -> Rank1Rule:
    return Rank1Rule(args.m, _vector_from_args(args, max(args.m, 1)))


def _pair_from_args(args) -> EmbeddedPair:
    # a vector is known to at least one bit, also when m + sr = 0
    sr = args.s * args.r
    return EmbeddedPair(args.m, sr, _vector_from_args(args, max(args.m + sr, 1)))


def _check_r(args) -> None:
    """Refuse a negative --r before any value is derived from it."""
    if args.r < 0:
        raise ValueError(f"--r must be >= 0, got {args.r}")


def _emit(text: str | Iterable[str], out_path: str | None) -> None:
    """Write the artifact, given whole or as consecutive pieces."""
    chunks = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _json_artifact(command: str, config: dict, body: dict) -> str:
    """The JSON envelope every artifact shares: command, version, config, then body."""
    obj = {"command": command, "version": __version__, "config": config, **body}
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(f"{command} results are not finite, and JSON holds no Infinity or NaN") from None


def _config(args, *keys: str) -> dict:
    return {key: getattr(args, key) for key in keys}


def _write(args, command: str, config: dict, body: dict, rows: list[dict] | None = None) -> None:
    """Write the artifact: the rows as CSV under --format csv (the header is
    the first row's keys), otherwise the JSON envelope of config and body."""
    if rows is not None and args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_json_artifact(command, config, body), args.out)


def _moment_pair(s: int, m: int, r: int, ell: int) -> tuple[MomentReport, MomentReport]:
    f = ProductBernoulliFn(s)
    rule = Rank1Rule(m, korobov_vector(ell, s, m))
    pair = EmbeddedPair(m, s * r, korobov_vector(ell, s, m + s * r))
    return moments_grid_shift(rule, f, r), moments_scalar_shift(pair, f)


def cmd_tables(args) -> int:
    cells, rows = [], []
    all_match = True
    for ref in REFERENCE_CELLS:
        grid, scalar = _moment_pair(ref.s, ref.m, ref.r, ref.ell)
        key = {"s": ref.s, "m": ref.m, "r": ref.r, "ell": ref.ell}
        cell: dict = {**key, "grid": grid.to_dict(), "scalar": scalar.to_dict()}
        rows += [{**key, **cell["grid"]}, {**key, **cell["scalar"]}]
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
                        "computed_5sig": f"{got:.4e}",
                        "rel_err": rel,
                        "rtol": rtol,
                        "match": ok,
                    }
                )
            cell["checks"] = checks
        cells.append(cell)

    body = {"cells": cells}
    if args.check:
        body["all_match"] = all_match
    _write(args, "tables", _config(args, "check", "format"), body, rows)
    if args.check and not all_match:
        return EXIT_CHECK_MISMATCH
    return EXIT_OK


def _draw_shift(scheme: str, s: int, r: int, src: BitSource) -> GridShift | ScalarShift:
    """One replicate's shift, from s*r bits: a scalar shift, or a grid shift."""
    # r = 0 is a valid finite scheme: the empty shift, which draws no bits
    sr = r * s
    word = src.draw(sr) if sr else 0
    return ScalarShift(word, sr) if scheme == "scalar" else GridShift.from_word(word, r, s)


def cmd_estimate(args) -> int:
    _check_r(args)
    f = ProductBernoulliFn(args.s)
    src = parse_bit_source(args.bits)
    # an ideal replicate is a grid replicate at 53 bits a coordinate
    r = IDEAL_BITS_PER_COORD if args.scheme == "ideal" else args.r
    if args.scheme == "scalar":
        evaluator = scalar_evaluator(_pair_from_args(args), f)
    else:
        evaluator = grid_evaluator(_rule_from_args(args), f, r)
    # the shifts are drawn into a list before any is evaluated, and every
    # replicate evaluates 2^m nodes of s coordinates
    guard(args.q, "shift replicates")
    guard(args.q * args.s, "replicate node coordinates", args.m)
    shifts = [_draw_shift(args.scheme, args.s, r, src) for _ in range(args.q)]
    est = estimate_mean(evaluator, shifts)
    results = {
        "replicates": list(est.values),
        "q": est.q,
        "mean": est.mean,
        "sd": est.sd,
        "bias": est.mean - f.known_integral,
        "bits_consumed": src.bits_consumed,
    }
    config = _config(args, "s", "m", "r", "ell", "z", "scheme", "q", "bits")
    _write(args, "estimate", config, {"results": results})
    return EXIT_OK


def cmd_moments(args) -> int:
    _check_r(args)
    f = ProductBernoulliFn(args.s)
    if args.scheme == "scalar":
        report = moments_scalar_shift(_pair_from_args(args), f)
    else:
        report = moments_grid_shift(_rule_from_args(args), f, args.r)
    results = report.to_dict()
    config = _config(args, "s", "m", "r", "ell", "z", "scheme")
    row = {**_config(args, "s", "m", "r", "ell"), **results}
    _write(args, "moments", config, {"results": results}, [row])
    return EXIT_OK


def _json_point_rows(duals: PreparedBox) -> Iterator[str]:
    """The duals as the entries of an indent-2 JSON list at depth 1, less
    the newline after the last, written a block of the box at a time."""
    sep = ""
    for block in duals.blocks():
        rows = duals.rows(block).tolist()
        yield sep + ",\n".join("    [\n" + ",\n".join(f"      {v}" for v in h) + "\n    ]" for h in rows)
        sep = ",\n"


def cmd_dual(args) -> int:
    box = TruncationBox(args.H)
    if args.s >= 1 and args.m >= 0:
        # the candidate count needs only s, m and H: refuse it before the
        # s components of the vector are built (an s or m out of range is
        # refused when the rule is built)
        box.guard(args.s, args.m)
    duals = box.prepare(_rule_from_args(args))
    config = _config(args, "s", "m", "ell", "z", "H")
    text = _json_artifact("dual", config, {"count": len(duals), "points": []})
    if len(duals):
        # the artifact as json.dumps(indent=2) prints it, without holding
        # the points as Python objects or as one string
        head, tail = text.rsplit("[]", 1)
        text = chain((head, "[\n"), _json_point_rows(duals), ("\n  ]", tail))
    _emit(text, args.out)
    return EXIT_OK


def cmd_cbc(args) -> int:
    _check_r(args)
    sr = args.s * args.r
    z = cbc_construct(args.s, args.m, sr, candidate_policy=args.policy)
    em = embedded_merit(z, args.m, sr)
    merits = {"base_merit": em.base.value, "extended_merit": em.extended.value, "combined": em.combined}
    config = {**_config(args, "s", "m", "r"), "sr": sr, "policy": args.policy}
    zs = {f"z{i + 1}": c for i, c in enumerate(z.components)}
    row = {**_config(args, "s", "m"), "sr": sr, **zs, **merits}
    results = {"z": list(z.components), "t": z.t, **merits}
    _write(args, "cbc", config, {"results": results}, [row])
    return EXIT_OK


def _add_rule_args(p, need_r=True):
    p.add_argument("--s", type=int, required=True, help="dimension")
    p.add_argument("--m", type=int, required=True, help="log2 of the base node count")
    if need_r:
        p.add_argument("--r", type=int, required=True, help="shift bits per coordinate")
    p.add_argument("--ell", type=int, help="Korobov multiplier for z = (1, ell, ell^2, ...)")
    p.add_argument("--z", type=str, help="explicit generating vector, comma separated")


def _add_output_args(p, formats=True):
    if formats:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, help="write the artifact to this path instead of stdout")


def _add_tables(sub) -> None:
    p_tables = sub.add_parser("tables", help="reproduce the built-in bias/SD comparison tables")
    p_tables.add_argument("--check", action="store_true", help="compare against reference values")
    _add_output_args(p_tables)
    p_tables.set_defaults(fn=cmd_tables)


def _add_estimate(sub) -> None:
    p_est = sub.add_parser("estimate", help="replicated randomized-rule estimate of the integral")
    _add_rule_args(p_est)
    p_est.add_argument("--scheme", choices=("grid", "scalar", "ideal"), required=True)
    p_est.add_argument("--q", type=int, default=1, help="replicate count")
    p_est.add_argument(
        "--bits", type=str, default="os", help="bit source: seed:N, os, or file:PATH[:FORMAT]"
    )
    # estimate and dual write JSON only
    _add_output_args(p_est, formats=False)
    p_est.set_defaults(fn=cmd_estimate)


def _add_moments(sub) -> None:
    p_mom = sub.add_parser("moments", help="exact moments over the whole shift space")
    _add_rule_args(p_mom)
    p_mom.add_argument("--scheme", choices=("grid", "scalar"), required=True)
    _add_output_args(p_mom)
    p_mom.set_defaults(fn=cmd_moments)


def _add_dual(sub) -> None:
    p_dual = sub.add_parser("dual", help="enumerate dual-lattice points in a box")
    _add_rule_args(p_dual, need_r=False)
    p_dual.add_argument("--H", type=int, required=True, help="box bound |h_i| <= H")
    _add_output_args(p_dual, formats=False)
    p_dual.set_defaults(fn=cmd_dual)


def _add_cbc(sub) -> None:
    p_cbc = sub.add_parser("cbc", help="component-by-component generating vector search")
    p_cbc.add_argument("--s", type=int, required=True, help="dimension")
    p_cbc.add_argument("--m", type=int, required=True, help="log2 of the base node count")
    p_cbc.add_argument("--r", type=int, required=True, help="shift bits per coordinate (sr = s*r)")
    p_cbc.add_argument("--policy", choices=("auto", "full", "sampled"), default="auto")
    _add_output_args(p_cbc)
    p_cbc.set_defaults(fn=cmd_cbc)


# the subcommands in the order the usage line lists them
_COMMANDS = (_add_tables, _add_estimate, _add_moments, _add_dual, _add_cbc)


def build_parser() -> argparse.ArgumentParser:
    """A new full parser, with every subcommand.

    `main` parses with one parser of its own; this returns a fresh one
    for callers that want to modify a parser.
    """
    parser = _Parser(prog="latshift", description="Randomized rank-1 lattice quadrature toolkit.")
    parser.add_argument("--version", action="version", version=f"latshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in _COMMANDS:
        add(sub)
    return parser


_parser: argparse.ArgumentParser | None = None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with the full parser, built on the first call only."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    except GuardLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, NotImplementedError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
