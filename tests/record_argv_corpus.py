"""The argv corpus: command lines of all five commands and what each one wrote.

Each entry of `argv_corpus.json` holds an argv, the exit code `cli.main`
returned for it, and the sha256 of its stdout, its stderr and the
artifact it wrote with --out (null without one).  `test_argv_corpus.py`
replays every argv in-process and compares, so a change that moves one
byte of output, one exit code or one message fails it.

Run from the repository root to record the corpus anew:

    PYTHONPATH=src python tests/record_argv_corpus.py

Record only from a tree whose outputs are known to be right: the corpus
pins what the program does, not what it should do.

Argvs that name files name them relative to a fresh working directory,
which `make_files` fills, so no digest depends on where the replay runs.
The OS bit source is left out, since it draws different bits every run.
Guards are taken at 2^26 - 1, 2^26 and 2^26 + 1 where the count can take
those values and where passing the guard costs little: a work count
that is a power of two (nodes, shifts, extension nodes) is taken at
2^26 only where the next check refuses it, and a bit file at the guard
is left out, since it would be read whole (64 MB, 0.2-0.5 s).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

from latshift.cli import main

CORPUS = Path(__file__).with_name("argv_corpus.json")
G = 1 << 26


def make_files(root: Path) -> None:
    """The bit files the corpus names, in root."""
    rng = random.Random(1)
    # the README's file: example reads random.txt
    (root / "random.txt").write_text("".join(rng.choice("01") for _ in range(128)) + "\n")
    (root / "spaced.txt").write_text("0110 1001\n1100\t0011\n" * 4)
    (root / "short.txt").write_text("0101010101")
    (root / "bad.txt").write_text("0110x01")
    (root / "empty.txt").write_text("")
    (root / "bits.raw").write_bytes(bytes(rng.randrange(256) for _ in range(64)))
    (root / "empty.raw").write_bytes(b"")
    # sparse files one past the guard: refused from their size, never read
    for name, size in (("over.txt", G + 1), ("over.raw", (G >> 3) + 1)):
        (root / name).touch()
        os.truncate(root / name, size)


def _rule(s: int, m: int, r: int | None = None, vector: tuple[str, ...] = ("--ell", "17797")) -> list[str]:
    """The rule options: --s, --m, --r unless r is None, and the vector."""
    argv = ["--s", str(s), "--m", str(m)]
    if r is not None:
        argv += ["--r", str(r)]
    return argv + list(vector)


def _outputs(argv: list[str], name: str) -> list[list[str]]:
    """argv to stdout and to --out, as JSON and, where the command has one, CSV."""
    formats = [[]] if argv[0] in ("estimate", "dual") else [[], ["--format", "json"], ["--format", "csv"]]
    return [argv + fmt + out for fmt in formats for out in ([], ["--out", name])]


def _tables() -> list[list[str]]:
    return _outputs(["tables"], "tables.out") + _outputs(["tables", "--check"], "tables.out")


def _moments() -> list[list[str]]:
    argvs = []
    for scheme in ("grid", "scalar"):
        # extension 0 and 1, the table cells' shapes and a few more
        for s, m, r in ((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1), (2, 0, 0), (2, 2, 3), (3, 4, 4), (2, 5, 5),
                        (3, 0, 2), (4, 1, 2)):
            argv = ["moments", "--scheme", scheme, *_rule(s, m, r)]
            argvs += [argv, argv + ["--format", "csv"]]
        argvs += _outputs(["moments", "--scheme", scheme, *_rule(2, 2, 3)], "moments.out")
        argvs += [
            ["moments", "--scheme", scheme, *_rule(2, 2, 3, ("--z", "1,5"))],
            ["moments", "--scheme", scheme, *_rule(2, 2, 3, ("--z", "1,x"))],
            ["moments", "--scheme", scheme, *_rule(2, 2, 3, ("--z", "1,4"))],
            ["moments", "--scheme", scheme, *_rule(3, 2, 3, ("--z", "1,5"))],
            ["moments", "--scheme", scheme, *_rule(2, 2, 3, ("--z", ""))],
            ["moments", "--scheme", scheme, *_rule(2, 2, 3, ("--ell", "0"))],
            ["moments", "--scheme", scheme, *_rule(2, 2, 3, ("--ell", "6"))],
            ["moments", "--scheme", scheme, *_rule(2, 2, 3, ())],
            ["moments", "--scheme", scheme, *_rule(2, 2, -1)],
            ["moments", "--scheme", scheme, *_rule(2, -1, 3)],
            ["moments", "--scheme", scheme, *_rule(0, 2, 3)],
            ["moments", "--scheme", scheme, *_rule(2, 2, 3), "--format", "xml"],
        ]
        # the shift-space guard: 2^27 shifts, and shifts at every r of the
        # float boundary and the 64-bit numerators
        argvs += [["moments", "--scheme", scheme, *_rule(s, 0, r)] for s, r in ((1, 27), (3, 9), (27, 1))]
        argvs += [["moments", "--scheme", scheme, *_rule(1, 0, r)] for r in (52, 53, 54, 64, 65)]
        # the generating vector guard at s * t = 2^26 - 1, 2^26 and 2^26 + 1
        argvs += [["moments", "--scheme", scheme, *_rule(1, t, t, ("--ell", "1"))] for t in (G - 1, G, G + 1)]
    # the extension-node guard at 2^27; r below m; the two moments
    # artifacts test_cli.py pins by digest
    argvs += [
        ["moments", "--scheme", "scalar", *_rule(1, 27, 0)],
        ["moments", "--scheme", "grid", *_rule(2, 4, 3)],
        ["moments", "--scheme", "grid", *_rule(3, 4, 4), "--format", "csv", "--out", "moments.out"],
        ["moments", "--scheme", "scalar", *_rule(3, 0, 6, ("--ell", "12915")), "--format", "csv", "--out",
         "moments.out"],
    ]
    return argvs


def _estimate() -> list[list[str]]:
    argvs = []
    sources = ["seed:0", "seed:42", "seed:-3", "file:random.txt", "file:random.txt:ascii01", "file:spaced.txt",
               "file:bits.raw:raw"]
    for scheme in ("grid", "scalar", "ideal"):
        for s, m, r, q in ((1, 0, 0, 1), (1, 1, 0, 2), (1, 0, 1, 3), (2, 3, 2, 4), (3, 4, 4, 5), (2, 5, 5, 2)):
            argvs.append(["estimate", "--scheme", scheme, *_rule(s, m, r), "--q", str(q), "--bits", "seed:7"])
        for bits in sources:
            argvs.append(["estimate", "--scheme", scheme, *_rule(2, 2, 3), "--q", "2", "--bits", bits])
        # bad sources: a file that runs out, bad and empty files, a missing
        # one, an unknown format (read as part of the path) and bad specs
        for bits in ("file:short.txt", "file:bad.txt", "file:empty.txt", "file:empty.raw:raw", "file:missing.txt",
                     "file:random.txt:bogus", "file:", "seed:x", "seed:", "bogus", "file:over.txt",
                     "file:over.txt:ascii01", "file:over.raw:raw"):
            argvs.append(["estimate", "--scheme", scheme, *_rule(2, 2, 3), "--q", "4", "--bits", bits])
        # shifts at the float boundary and the 64-bit numerators: the scalar
        # scheme's s * r bits pass 64 at s = 2
        for s in (1, 2):
            for r in (52, 53, 54, 64, 65):
                argvs.append(["estimate", "--scheme", scheme, *_rule(s, 2, r), "--q", "2", "--bits", "seed:5"])
        argvs += _outputs(["estimate", "--scheme", scheme, *_rule(2, 3, 2), "--q", "3", "--bits", "seed:9"],
                          "estimate.out")
        argvs += [
            ["estimate", "--scheme", scheme, *_rule(2, 3, 2), "--q", q, "--bits", "seed:1"]
            for q in ("0", "-1", "x")
        ]
        argvs += [
            ["estimate", "--scheme", scheme, *_rule(2, 3, -1), "--bits", "seed:1"],
            ["estimate", "--scheme", scheme, *_rule(2, 3, 2, ("--z", "1,x")), "--bits", "seed:1"],
            ["estimate", "--scheme", scheme, *_rule(2, 27, 2), "--bits", "seed:1"],
            ["estimate", "--scheme", scheme, *_rule(2, 3, 2), "--bits", "seed:1", "--format", "csv"],
        ]
    # the replicate guards at 2^26 - 1, 2^26 and 2^26 + 1: a count that
    # passes both runs the short bit file out at its eleventh draw
    for q, s in ((G - 1, 1), (G, 1), (G + 1, 1), (G // 2, 2), ((G - 1) // 3, 3), ((G + 1) // 5, 5), (G, 2)):
        argvs.append(["estimate", "--scheme", "grid", *_rule(s, 0, 1), "--q", str(q),
                      "--bits", "file:short.txt"])
    argvs += [["estimate", "--scheme", "bogus", *_rule(2, 3, 2)], ["estimate", "--s", "2"]]
    # the three estimate artifacts test_cli.py pins by digest, at 2^10 nodes
    argvs += [
        ["estimate", "--scheme", scheme, *_rule(3, 10, r), "--q", "8", "--bits", "seed:11", "--out", "estimate.out"]
        for scheme, r in (("grid", 12), ("scalar", 4), ("ideal", 12))
    ]
    return argvs


def _dual() -> list[list[str]]:
    argvs = []
    for s, m, H, vector in ((1, 0, 3, ("--ell", "1")), (2, 3, 8, ("--z", "1,3")), (2, 6, 16, ("--z", "1,23")),
                            (3, 4, 8, ("--ell", "17797")), (2, 5, 4, ("--ell", "1267")), (3, 2, 1, ("--ell", "5")),
                            (4, 3, 2, ("--ell", "12915")), (2, 0, 2, ("--ell", "3"))):
        argvs += _outputs(["dual", *_rule(s, m, None, vector), "--H", str(H)], "dual.out")
    # the box guard at 2^26 - 1, 2^26 and 2^26 + 1 candidates, s = 1 and
    # m = 1 (H + 1 of them): a box that passes stops at the even vector
    for H in (G - 2, G - 1, G):
        argvs.append(["dual", *_rule(1, 1, None, ("--z", "2")), "--H", str(H)])
    argvs += [
        ["dual", *_rule(2, 3), "--H", "0"],
        ["dual", *_rule(2, 3), "--H", "-2"],
        ["dual", *_rule(2, 3), "--H", str(1 << 62)],
        ["dual", *_rule(2, 3, None, ("--z", "1,2")), "--H", "4"],
        ["dual", *_rule(0, 3), "--H", "4"],
        ["dual", *_rule(2, 100000000, None, ("--ell", "1")), "--H", "1"],
        ["dual", *_rule(2, 3), "--H", "4", "--format", "csv"],
        ["dual", *_rule(2, 3)],
    ]
    return argvs


def _cbc() -> list[list[str]]:
    argvs = []
    for policy in ("auto", "full", "sampled"):
        # extension 0 and 1, and pruned (m >= 4) and unpruned searches
        for s, m, r in ((1, 0, 0), (2, 0, 0), (1, 1, 0), (1, 0, 1), (2, 2, 1), (3, 4, 2), (2, 4, 4), (3, 2, 3)):
            argvs.append(["cbc", "--s", str(s), "--m", str(m), "--r", str(r), "--policy", policy])
        argvs += _outputs(["cbc", "--s", "3", "--m", "4", "--r", "3", "--policy", policy], "cbc.out")
        # a full scan past 2^16 extension points is refused
        argvs.append(["cbc", "--s", "1", "--m", "0", "--r", "17", "--policy", policy])
    argvs += [
        # the extension-node guard passes 2^26 and refuses 2^27
        ["cbc", "--s", "2", "--m", "0", "--r", "13"],
        ["cbc", "--s", "1", "--m", "0", "--r", "27"],
        ["cbc", "--s", "2", "--m", "4", "--r", "-1"],
        ["cbc", "--s", "0", "--m", "4", "--r", "1"],
        ["cbc", "--s", "2", "--m", "-1", "--r", "1"],
        ["cbc", "--s", "2", "--m", "4", "--r", "1", "--policy", "bogus"],
        ["cbc", "--s", "2", "--m", "4", "--r", "1", "--format", "xml"],
    ]
    return argvs


def _readme() -> list[list[str]]:
    return [
        ["tables", "--check"],
        ["moments", "--scheme", "scalar", "--s", "3", "--m", "4", "--r", "4", "--ell", "17797"],
        ["estimate", "--scheme", "scalar", "--s", "3", "--m", "4", "--r", "4", "--ell", "17797", "--q", "100",
         "--bits", "seed:42"],
        ["estimate", "--scheme", "grid", "--s", "2", "--m", "5", "--r", "5", "--ell", "1267", "--q", "10",
         "--bits", "file:random.txt:ascii01"],
        ["dual", "--s", "2", "--m", "3", "--z", "1,3", "--H", "8"],
        ["cbc", "--s", "3", "--m", "4", "--r", "4"],
    ]


def corpus_argvs() -> list[list[str]]:
    """Every argv of the corpus, in order."""
    usage = [[], ["--version"], ["--help"], ["bogus"], ["moments"], ["moments", "--help"], ["cbc", "--help"]]
    argvs = usage + _tables() + _moments() + _estimate() + _dual() + _cbc() + _readme()
    # an --out into a missing directory fails and writes nothing
    argvs.append(["cbc", "--s", "2", "--m", "2", "--r", "1", "--out", "missing/cbc.out"])
    return argvs


def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_argv(argv: list[str]) -> dict:
    """One corpus entry: argv run through `cli.main` in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    artifact = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.exists():
            artifact = _digest(path.read_bytes())
            path.unlink()
    return {"argv": argv, "exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue()),
            "out": artifact}


@contextlib.contextmanager
def corpus_directory(root: Path):
    """Work in root, filled with the corpus's files, with argparse's help
    and usage lines wrapped at 80 columns whatever the terminal."""
    make_files(root)
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(root)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def record() -> list[dict]:
    with tempfile.TemporaryDirectory() as root, corpus_directory(Path(root)), warnings.catch_warnings():
        # as in the test suite, a numpy RuntimeWarning is an error
        warnings.simplefilter("error", RuntimeWarning)
        return [run_argv(argv) for argv in corpus_argvs()]


if __name__ == "__main__":
    entries = record()
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{len(entries)} argvs written to {CORPUS}", file=sys.stderr)
