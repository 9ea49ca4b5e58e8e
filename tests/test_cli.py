import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshift import (
    EmbeddedPair,
    GeneratingVector,
    ProductBernoulliFn,
    Rank1Rule,
    RealShift,
    SeededBitSource,
    TruncationBox,
    __version__,
    dual_points,
    eval_real_shifted,
    eval_rule,
    extended_rule_value,
    korobov_vector,
)
from latshift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMomentsCommand:
    def test_scalar_json_artifact(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--scheme", "scalar", "--s", "2", "--m", "3", "--r", "3",
            "--ell", "1267",
        )
        assert code == 0
        artifact = json.loads(out)
        assert artifact["command"] == "moments"
        assert artifact["config"]["ell"] == 1267
        assert artifact["results"]["scheme"] == "scalar-shift"
        assert artifact["results"]["mean_check_rel_err"] <= 1e-12

    def test_grid_csv_artifact(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3",
            "--ell", "17797", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("s,m,r,ell,scheme,")
        assert lines[1].startswith("2,3,3,17797,grid-shift,")

    def test_explicit_vector(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3",
            "--z", "1,3",
        )
        assert code == 0

    def test_guard_violation_exit_code(self, capsys):
        code, _, err = run(
            capsys, "moments", "--scheme", "grid", "--s", "3", "--m", "3", "--r", "9",
            "--ell", "1267",
        )
        assert code == 2
        assert "guard" in err

    def test_validation_exit_code(self, capsys):
        # r < m is invalid for the grid moment analysis
        code, _, err = run(
            capsys, "moments", "--scheme", "grid", "--s", "2", "--m", "4", "--r", "3",
            "--ell", "1267",
        )
        assert code == 1
        assert "error" in err

    def test_missing_vector_is_validation_error(self, capsys):
        code, _, _ = run(capsys, "moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3")
        assert code == 1

    def test_usage_error_remapped_to_one(self, capsys):
        code, _, _ = run(capsys, "moments", "--scheme", "bogus", "--s", "2", "--m", "3", "--r", "3")
        assert code == 1

    @pytest.mark.parametrize("vector", [("--ell", "0"), ("--ell", "-3"), ("--z", "")])
    def test_given_but_invalid_vector_is_refused_for_its_value(self, capsys, vector):
        code, out, err = run(
            capsys, "moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3", *vector
        )
        assert code == 1 and out == ""
        assert "provide a generating vector" not in err
        assert ("ell must be odd and positive" if vector[0] == "--ell" else "--z expects") in err


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--scheme", "grid", "--s", "2", "--m", "2", "--ell", "3"),
        ("moments", "--scheme", "scalar", "--s", "2", "--m", "2", "--ell", "3"),
        ("estimate", "--scheme", "grid", "--s", "2", "--m", "2", "--ell", "3", "--bits", "seed:1"),
        ("estimate", "--scheme", "scalar", "--s", "2", "--m", "2", "--ell", "3", "--bits", "seed:1"),
        ("estimate", "--scheme", "ideal", "--s", "2", "--m", "2", "--ell", "3", "--bits", "seed:1"),
        ("cbc", "--s", "2", "--m", "2"),
    ],
)
def test_negative_r_is_refused_by_name(capsys, argv):
    code, out, err = run(capsys, *argv, "--r", "-1")
    assert code == 1 and out == ""
    assert err == "error: --r must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("dual", "--H", "1"),
        ("moments", "--scheme", "grid", "--r", "3"),
        ("moments", "--scheme", "scalar", "--r", "1"),
        ("estimate", "--scheme", "grid", "--r", "3", "--bits", "seed:1"),
        ("estimate", "--scheme", "ideal", "--r", "3", "--bits", "seed:1"),
    ],
)
def test_z_length_must_match_s(capsys, argv):
    # a 3-component vector under --s 2 is refused before anything is written
    code, out, err = run(capsys, *argv, "--s", "2", "--m", "3", "--z", "1,3,5")
    assert code == 1 and out == ""
    assert err == "error: --z has 3 components, but --s is 2\n"


@pytest.mark.parametrize("command", ["moments", "estimate"])
def test_scalar_scheme_at_zero_extension_bits(capsys, command):
    # m + s*r = 0: one node and one shift, whose rule value is f(0)
    extra = ("--bits", "seed:1", "--q", "2") if command == "estimate" else ()
    code, out, err = run(
        capsys, command, "--scheme", "scalar", "--s", "2", "--m", "0", "--r", "0", "--ell", "3", *extra
    )
    assert code == 0, err
    results = json.loads(out)["results"]
    value = ProductBernoulliFn(2).eval_real((0.0, 0.0))
    assert value == 1.3611111111111114
    if command == "moments":
        assert results["mean"] == value and results["sd"] == 0.0 and results["shift_space_size"] == 1
    else:
        assert results["replicates"] == [value, value] and results["bits_consumed"] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        # (7/6)^s, the integrand at the origin, leaves the float range near s = 4600
        (["estimate", "--scheme", "scalar", "--s", "5000", "--m", "4", "--r", "0", "--ell", "1",
          "--q", "2", "--bits", "seed:1"], "estimate results are not finite"),
        # finite values whose squared deviations pass the float range
        (["estimate", "--scheme", "grid", "--s", "16384", "--m", "0", "--r", "1", "--ell", "1",
          "--q", "2", "--bits", "seed:3"], "estimate results are not finite"),
        (["moments", "--scheme", "scalar", "--s", "5000", "--m", "4", "--r", "0", "--ell", "1"],
         "scalar-shift mean inf and its identity value inf are not both finite"),
        (["moments", "--scheme", "grid", "--s", "4700", "--m", "0", "--r", "0", "--ell", "1"],
         "grid-shift mean inf and its identity value inf are not both finite"),
    ],
)
def test_non_finite_results_are_refused(capsys, tmp_path, argv, message):
    out_path = tmp_path / "artifact.json"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out_path.exists()


def test_scalar_moments_above_4096_coordinates_run(capsys):
    # 4097 coordinates of 16 nodes: one block within the guard
    code, out, err = run(capsys, "moments", "--scheme", "scalar", "--s", "4097", "--m", "4", "--r", "0", "--ell", "1")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["mean"] == 1.1936503616674931e273
    assert results["mean_check_rel_err"] == 0.0


class TestEstimateCommand:
    def test_zero_bit_file_pins_shift_to_zero(self, capsys, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text("0" * 6)  # one scalar replicate consumes s*r = 6 bits
        code, out, _ = run(
            capsys, "estimate", "--scheme", "scalar", "--s", "2", "--m", "3", "--r", "3",
            "--ell", "1267", "--q", "1", "--bits", f"file:{p}",
        )
        assert code == 0
        artifact = json.loads(out)
        f = ProductBernoulliFn(2)
        pair = EmbeddedPair(3, 6, korobov_vector(1267, 2, 9))
        assert artifact["results"]["mean"] == eval_rule(pair.base_rule(), f)
        assert artifact["results"]["sd"] is None
        assert artifact["results"]["bits_consumed"] == 6

    def test_exhaustive_scalar_replicates_hit_extension_value(self, capsys, tmp_path):
        s, m, r = 2, 2, 2
        sr = s * r
        text = "".join(format(w, f"0{sr}b") for w in range(1 << sr))
        p = tmp_path / "all.txt"
        p.write_text(text)
        code, out, _ = run(
            capsys, "estimate", "--scheme", "scalar", "--s", str(s), "--m", str(m),
            "--r", str(r), "--ell", "17797", "--q", str(1 << sr), "--bits", f"file:{p}",
        )
        assert code == 0
        artifact = json.loads(out)
        f = ProductBernoulliFn(s)
        pair = EmbeddedPair(m, sr, korobov_vector(17797, s, m + sr))
        expected = extended_rule_value(pair, f)
        assert abs(artifact["results"]["mean"] - expected) < 1e-12

    def test_grid_bit_accounting(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--scheme", "grid", "--s", "3", "--m", "4", "--r", "4",
            "--ell", "17797", "--q", "10", "--bits", "seed:5",
        )
        assert code == 0
        artifact = json.loads(out)
        assert artifact["results"]["bits_consumed"] == 10 * 3 * 4
        assert artifact["results"]["q"] == 10

    def test_seeded_grid_mean_within_clt_band(self, capsys, table_cells):
        # smoke bound from the exact moments: the replicate mean of 1000
        # seeded draws stays within 5 standard errors of the exact mean
        code, out, _ = run(
            capsys, "estimate", "--scheme", "grid", "--s", "3", "--m", "4", "--r", "4",
            "--ell", "17797", "--q", "1000", "--bits", "seed:1",
        )
        assert code == 0
        artifact = json.loads(out)
        exact = table_cells[(3, 4, 4, 17797)][0]
        band = 5.0 * exact.sd / 1000**0.5
        assert abs(artifact["results"]["mean"] - exact.mean) < band

    def test_seeded_reproducibility(self, capsys):
        args = (
            "estimate", "--scheme", "ideal", "--s", "2", "--m", "4", "--r", "4",
            "--ell", "1267", "--q", "3", "--bits", "seed:11",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("scheme", ["grid", "ideal"])
    def test_node_guard_exit_code(self, capsys, scheme):
        # 2^40 nodes: the node kernel refuses them before allocating
        code, _, err = run(
            capsys, "estimate", "--scheme", scheme, "--s", "1", "--m", "40", "--r", "4",
            "--ell", "1", "--bits", "seed:1",
        )
        assert code == 2
        assert "guard" in err

    @pytest.mark.parametrize("scheme", ["grid", "scalar"])
    def test_zero_bits_per_coordinate_give_the_unshifted_rule(self, capsys, scheme):
        code, out, _ = run(
            capsys, "estimate", "--scheme", scheme, "--s", "2", "--m", "3", "--r", "0",
            "--ell", "1267", "--q", "4", "--bits", "seed:3",
        )
        assert code == 0
        results = json.loads(out)["results"]
        rule = Rank1Rule(3, korobov_vector(1267, 2, 3))
        assert results["replicates"] == [eval_rule(rule, ProductBernoulliFn(2))] * 4
        assert results["sd"] == 0.0
        assert results["bits_consumed"] == 0

    def test_oversized_raw_bit_file_exits_2_before_reading(self, capsys, tmp_path):
        # 2^23 + 1 bytes hold 2^26 + 8 bits, one byte each once read: the
        # sparse file is refused from its size, at once
        p = tmp_path / "big.bin"
        p.touch()
        os.truncate(p, (1 << 23) + 1)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "estimate", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3",
            "--ell", "1267", "--q", "1", "--bits", f"file:{p}:raw",
        )
        assert code == 2 and out == ""
        assert "67108872 bits of raw bit file" in err and "exceed the 2^26 guard" in err
        assert time.perf_counter() - start < 3.0

    def test_bit_exhaustion_is_validation_error(self, capsys, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("0" * 5)  # one bit short of the s*r = 6 needed
        code, _, err = run(
            capsys, "estimate", "--scheme", "scalar", "--s", "2", "--m", "3", "--r", "3",
            "--ell", "1267", "--q", "1", "--bits", f"file:{p}",
        )
        assert code == 1
        assert "exhausted" in err


# (s, m, r, ell, q) per scheme: s*r = 15 and 14 bits a replicate, and
# 3 * 53 = 159 for the ideal shift; none is a multiple of 64, so draws
# straddle the 64-bit words of the seeded source
_PINNED_SHAPES = {
    "grid": (3, 6, 5, 17797, 6),
    "scalar": (2, 4, 7, 1267, 6),
    "ideal": (3, 5, 1, 12915, 2),
}

# bits_consumed and the .hex() of each replicate, recorded from the code at
# commit 428b97e, which drew bits as tuples of 0/1; both file formats hold
# the same bits, so they share one entry
_PINNED_REPLICATES = {
    ("grid", "seed"): (90, [
        "0x1.ffefc0162ed0ap-1", "0x1.000807de6cbdap+0", "0x1.0010c4766cbdap+0",
        "0x1.fff33f382ed0ap-1", "0x1.ffe9798a2ed0ap-1", "0x1.00152d3417685p+0"]),
    ("grid", "file"): (90, [
        "0x1.00038593c2130p+0", "0x1.000b79fc17685p+0", "0x1.001f5915c2130p+0",
        "0x1.0019814817685p+0", "0x1.0005bba1c2130p+0", "0x1.0004fb39c2130p+0"]),
    ("scalar", "seed"): (84, [
        "0x1.000a458a6e980p+0", "0x1.fff556b24d7f2p-1", "0x1.000f96b88cb2dp+0",
        "0x1.00253e2d8a47fp+0", "0x1.ff8e734c70864p-1", "0x1.ff88f6fb23690p-1"]),
    ("scalar", "file"): (84, [
        "0x1.ffc732b79e6a0p-1", "0x1.fffb0fee62c8bp-1", "0x1.0028a2cd21a99p+0",
        "0x1.003393229e8f7p+0", "0x1.fff5c902b7044p-1", "0x1.fffb3b4aecdb4p-1"]),
    ("ideal", "seed"): (318, ["0x1.ffdc3fa3354dap-1", "0x1.001d4dcbabcd2p+0"]),
    ("ideal", "file"): (318, ["0x1.00029d88a88b3p+0", "0x1.ffe4fcf60f9a0p-1"]),
}


def _pinned_bits_spec(tmp_path, scheme: str, source: str) -> str:
    s, m, r, ell, q = _PINNED_SHAPES[scheme]
    if source == "seed":
        return "seed:11"
    n = q * s * (53 if scheme == "ideal" else r)
    bits = format(random.Random(4242).getrandbits(n), f"0{n}b")
    p = tmp_path / f"{scheme}.{source}"
    if source == "ascii01":
        # groups of 7 bits, separated by spaces and newlines in turn
        p.write_text("".join(bits[i : i + 7] + " \n"[i % 2] for i in range(0, n, 7)))
    else:
        p.write_bytes(int(bits + "0" * (-n % 8), 2).to_bytes((n + 7) // 8, "big"))
    return f"file:{p}:{source}"


@pytest.mark.parametrize("source", ["seed", "ascii01", "raw"])
@pytest.mark.parametrize("scheme", ["grid", "scalar", "ideal"])
def test_estimate_replicates_are_pinned(tmp_path, scheme, source):
    s, m, r, ell, q = _PINNED_SHAPES[scheme]
    out = tmp_path / "out.json"
    code = main(["estimate", "--scheme", scheme, "--s", str(s), "--m", str(m), "--r", str(r),
                 "--ell", str(ell), "--q", str(q), "--bits", _pinned_bits_spec(tmp_path, scheme, source),
                 "--out", str(out)])
    assert code == 0
    results = json.loads(out.read_text())["results"]
    got = (results["bits_consumed"], [v.hex() for v in results["replicates"]])
    assert got == _PINNED_REPLICATES[scheme, "seed" if source == "seed" else "file"]


@pytest.mark.parametrize("ell, seed", [(17797, 11), (1267, 29)])
def test_ideal_scheme_is_the_grid_scheme_at_53_bits(capsys, ell, seed):
    # an ideal coordinate is 53 bits times 2^-53: the same bits, in the same
    # order, spell a 53-bit grid shift, so the two estimates are one
    s, m, q = 5, 10, 64
    base = ("--s", str(s), "--m", str(m), "--ell", str(ell), "--q", str(q), "--bits", f"seed:{seed}")
    results = []
    for scheme, r in (("ideal", "1"), ("grid", "53")):
        code, out, _ = run(capsys, "estimate", "--scheme", scheme, "--r", r, *base)
        assert code == 0
        results.append(json.loads(out)["results"])
    ideal, grid = results
    for key in ("replicates", "mean", "sd", "bits_consumed"):
        assert ideal[key] == grid[key], key
    assert ideal["bits_consumed"] == q * s * 53
    # the float reference rounds each x + u once; the replicates measured
    # at most 1 ulp from it on this shape and on the benchmark's ideal shapes
    src, f = SeededBitSource(seed), ProductBernoulliFn(s)
    rule = Rank1Rule(m, korobov_vector(ell, s, m))
    for got in ideal["replicates"]:
        u = RealShift(tuple(src.draw(53) * 2.0**-53 for _ in range(s)))
        want = eval_real_shifted(rule, f, u)
        assert abs(got - want) <= 2 * math.ulp(want), (got.hex(), want.hex())


# Peak RSS of the running process in kB.  After fork and exec, ru_maxrss
# still carries the high-water mark of the forking process on Linux, so the
# kernel's VmHWM of the process's own address space is read where it exists.
_PEAK_RSS_SOURCE = """
def _peak_rss_kb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
"""


class TestDualCommand:
    def test_known_point_present(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--s", "2", "--m", "3", "--z", "1,3", "--H", "8"
        )
        assert code == 0
        artifact = json.loads(out)
        assert [5, 1] in artifact["points"]
        assert artifact["count"] == len(artifact["points"])

    @pytest.mark.parametrize(
        "s,m,vector,H",
        [
            (1, 3, ("--ell", "1"), 1),  # no dual in the box: "points": []
            (1, 2, ("--ell", "1"), 9),
            (2, 3, ("--z", "1,3"), 8),
            (2, 0, ("--ell", "1"), 3),
            (3, 4, ("--ell", "17797"), 6),
            (2, 70, ("--ell", "12915"), 2),
        ],
    )
    @pytest.mark.parametrize("rows_per_write", [3, 1 << 16])
    def test_streamed_artifact_equals_json_dumps(self, capsys, monkeypatch, s, m, vector, H, rows_per_write):
        from latshift import dual

        monkeypatch.setattr(dual, "_DUAL_BLOCK", rows_per_write)
        code, out, _ = run(capsys, "dual", "--s", str(s), "--m", str(m), *vector, "--H", str(H))
        assert code == 0
        option, value = vector
        z = GeneratingVector(
            tuple(int(c) for c in value.split(",")) if option == "--z" else
            korobov_vector(int(value), s, max(m, 1)).components,
            max(m, 1),
        )
        points = dual_points(Rank1Rule(m, z), TruncationBox(H))
        config = {"s": s, "m": m, "ell": int(value) if option == "--ell" else None,
                  "z": value if option == "--z" else None, "H": H}
        expected = {"command": "dual", "version": __version__, "config": config,
                    "count": len(points), "points": [list(h) for h in points]}
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_large_artifact_in_bounded_memory(self, tmp_path):
        # 1401^2 - 1 points (68 MB of JSON); built as Python lists and one
        # string this peaked near 1 GB, and from one dual array at 123 MB.
        # Streamed from the box's keys (16 bytes a dual while they are
        # built) a block of rows at a time, it peaks at about 70 MB, some
        # 30 MB of which is the interpreter with numpy
        out_path = tmp_path / "dual.json"
        code = (
            f"{_PEAK_RSS_SOURCE}\n"
            "from latshift.cli import main\n"
            f"rc = main(['dual', '--s', '2', '--m', '0', '--ell', '1', '--H', '700', '--out', {str(out_path)!r}])\n"
            "print(rc, _peak_rss_kb())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        rc, peak_kb = map(int, proc.stdout.split())
        assert rc == 0
        assert peak_kb < 96 * 1024
        with open(out_path) as fh:
            head = fh.read(4096)
        assert '"count": 1962800,' in head
        assert out_path.stat().st_size > 1962800 * 20

    def test_box_guard_exit_code(self, capsys):
        # (2H+1)^2 = 4e10 prefixes: refused before enumerating
        code, out, err = run(
            capsys, "dual", "--s", "3", "--m", "2", "--ell", "5", "--H", "100000"
        )
        assert code == 2
        assert out == ""
        assert "guard" in err

    def test_box_guard_refuses_huge_dimension_before_the_vector(self):
        # 3^1999999 candidate duals: refused from s, m and H before the two
        # million Korobov powers are taken or the count is formed as an int
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        argv = ["dual", "--s", "2000000", "--m", "0", "--ell", "1", "--H", "1"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "latshift.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "at least 2^3169925 candidate duals over the box prefixes exceed the 2^26 guard" in proc.stderr
        assert elapsed < 1.5


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3", "--ell", "1267",
         "--bits", "seed:1"),
        ("dual", "--s", "2", "--m", "3", "--z", "1,3", "--H", "8"),
    ],
)
def test_format_option_removed_from_json_only_commands(capsys, argv):
    # estimate and dual write JSON only; --format there used to be ignored
    code, out, _ = run(capsys, *argv)
    assert code == 0
    json.loads(out)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 1
    assert out == ""


class TestCbcCommand:
    def test_small_search_beats_worst_candidate(self, capsys):
        code, out, _ = run(capsys, "cbc", "--s", "2", "--m", "3", "--r", "2")
        assert code == 0
        artifact = json.loads(out)
        assert artifact["results"]["z"][0] == 1
        assert artifact["results"]["combined"] > 0.0

    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "cbc", "--s", "2", "--m", "3", "--r", "2", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "s,m,sr,z1,z2,base_merit,extended_merit,combined"

    def test_sampled_policy_at_extension_1_scans_the_one_candidate(self, capsys):
        # the lower half of 2 extension nodes holds the one candidate 1,
        # which the sampled policy scans as the full one does
        code, out, err = run(capsys, "cbc", "--s", "2", "--m", "1", "--r", "0", "--policy", "sampled")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["z"] == [1, 1]

    @pytest.mark.parametrize("s", [2, 3, 4])
    @pytest.mark.parametrize("policy", ["auto", "full", "sampled"])
    def test_one_point_extension_returns_the_ones_vector(self, capsys, s, policy):
        # a 1-point extension scans candidate 1, as extension 1 does
        code, out, err = run(capsys, "cbc", "--s", str(s), "--m", "0", "--r", "0", "--policy", policy)
        assert (code, err) == (0, "")
        results = json.loads(out)["results"]
        assert (results["z"], results["t"], results["combined"]) == ([1] * s, 1, 1.0)


# sha256 of the artifact each command line writes with --out, recorded
# from the package as it stood when these command lines were chosen
_RECORDED_DIGESTS = {
    ("tables", "--check"): "c191b43e5384c95f8ba2c13bab43640b173e9f78ffcdff730eab4b17e481896d",
    ("tables", "--check", "--format", "csv"): "3d56b1227219816341d589dd88f41374e346714501b8a95092dfbb7531730444",
    (
        "moments", "--scheme", "grid", "--s", "3", "--m", "4", "--r", "4", "--ell", "17797",
        "--format", "csv",
    ): "b70a5914b809dee89aecb6802795dcbf41284b21fcfc750f874424d321af452c",
    (
        "moments", "--scheme", "scalar", "--s", "3", "--m", "0", "--r", "6", "--ell", "12915",
        "--format", "csv",
    ): "610dfb79c12b96bafe31e670bf684afe356264c1b97ff23618d01c30c2c051f1",
    (
        "estimate", "--scheme", "grid", "--s", "3", "--m", "10", "--r", "12", "--ell", "17797",
        "--q", "8", "--bits", "seed:11",
    ): "c53d7e3870b58a284238e49e3592c3896296f4067ea3b73bc23caee676d74d12",
    (
        "estimate", "--scheme", "scalar", "--s", "3", "--m", "10", "--r", "4", "--ell", "17797",
        "--q", "8", "--bits", "seed:11",
    ): "d820573b7d6a5864fc05c0c9e79aaa554c9b546570866207a2dc59e021414b53",
    (
        "estimate", "--scheme", "ideal", "--s", "3", "--m", "10", "--r", "12", "--ell", "17797",
        "--q", "8", "--bits", "seed:11",
    ): "4dd8ef4539420f6c9311f10091639a143e823ee32ca2dddb435804b39e76a773",
    ("dual", "--s", "3", "--m", "4", "--ell", "17797", "--H", "8"):
        "7a2a1af8e59514f16069808749b26c9dfb91a0275256d27e4f3b1010e15f136a",
    ("dual", "--s", "2", "--m", "6", "--z", "1,23", "--H", "16"):
        "a8d022f9766e194408df2c879e8fb0a23b05f6a9ed9e6ad753a6b0a8464c24c8",
    ("cbc", "--s", "3", "--m", "4", "--r", "3", "--policy", "full"):
        "a94494bd9c9113573122cb677dbef6e4bd474934081d05e8c5d77def6aa6cc83",
}


def test_artifacts_match_recorded_digests(capsys, tmp_path):
    """Every command writes the artifact it wrote when its digest was
    recorded, byte for byte (floats in repr, so bit for bit): a change
    that means to leave the output alone keeps all of these.  A change
    that alters an artifact on purpose updates its digest here, and says
    in CHANGES.md which bytes moved and why."""
    out = tmp_path / "artifact"
    start = time.perf_counter()
    seen = {}
    for argv in _RECORDED_DIGESTS:
        code = main([*argv, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (0, ""), argv
        seen[argv] = hashlib.sha256(out.read_bytes()).hexdigest()
        out.unlink()
    assert seen == _RECORDED_DIGESTS
    assert time.perf_counter() - start < 2.0


class TestTablesCommand:
    def test_round_trip_and_reference_check(self, capsys, tmp_path):
        out_path = tmp_path / "tables.json"
        code = main(["tables", "--check", "--out", str(out_path)])
        artifact = json.loads(out_path.read_text())
        assert artifact["command"] == "tables"
        assert len(artifact["cells"]) == 6

        failures = [
            (cell["s"], cell["m"], cell["r"], cell["ell"], chk["scheme"], chk["statistic"])
            for cell in artifact["cells"]
            for chk in cell["checks"]
            if not chk["match"]
        ]
        # every reference entry reproduces, the (2,5,5,12915) scalar-shift
        # SD included since its transcription slip (1.782e-4) was corrected
        assert failures == []
        assert artifact["all_match"] is True
        assert code == 0

    def test_check_reports_mismatches_on_stderr(self, capsys, monkeypatch, tmp_path):
        from latshift import cli

        cells = list(cli.REFERENCE_CELLS)
        cells[0] = dataclasses.replace(cells[0], bias_grid=2.0e-3)
        monkeypatch.setattr(cli, "REFERENCE_CELLS", tuple(cells))
        out_path = tmp_path / "tables.json"
        code = main(["tables", "--check", "--out", str(out_path)])
        err = capsys.readouterr().err
        artifact = json.loads(out_path.read_text())
        computed = artifact["cells"][0]["checks"][0]["computed"]
        assert code == 3
        assert artifact["all_match"] is False
        assert err.splitlines() == [
            f"mismatch: s=3 m=4 r=4 ell=17797 grid-shift bias: expected 0.002, computed {computed!r}"
        ]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 12  # header + 6 cells x 2 schemes


_ENVELOPE = ["command", "version", "config"]
_MOMENT_CSV = "s,m,r,ell,scheme,mean,bias,variance,sd,mu3,shift_space_size,method,mean_check_rel_err"
_RULE = ["--s", "2", "--m", "3", "--r", "3", "--ell", "17797"]


@pytest.mark.parametrize(
    "argv,keys,config_keys,csv_header",
    [
        (["tables"], ["cells"], ["check", "format"], _MOMENT_CSV),
        (["tables", "--check"], ["cells", "all_match"], ["check", "format"], _MOMENT_CSV),
        (["moments", "--scheme", "grid", *_RULE], ["results"],
         ["s", "m", "r", "ell", "z", "scheme"], _MOMENT_CSV),
        (["estimate", "--scheme", "grid", *_RULE, "--bits", "seed:1"], ["results"],
         ["s", "m", "r", "ell", "z", "scheme", "q", "bits"], None),
        (["dual", "--s", "2", "--m", "3", "--z", "1,3", "--H", "8"], ["count", "points"],
         ["s", "m", "ell", "z", "H"], None),
        (["cbc", "--s", "1", "--m", "3", "--r", "2"], ["results"], ["s", "m", "r", "sr", "policy"],
         "s,m,sr,z1,base_merit,extended_merit,combined"),
        (["cbc", "--s", "3", "--m", "3", "--r", "2"], ["results"], ["s", "m", "r", "sr", "policy"],
         "s,m,sr,z1,z2,z3,base_merit,extended_merit,combined"),
    ],
)
def test_artifact_layout(capsys, argv, keys, config_keys, csv_header):
    # the key order of every JSON artifact and its config, and the full CSV
    # header of each command that writes CSV
    code, out, _ = run(capsys, *argv)
    assert code == 0
    artifact = json.loads(out)
    assert list(artifact) == _ENVELOPE + keys
    assert list(artifact["config"]) == config_keys
    if csv_header is not None:
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == csv_header


def _stdout_of(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _argv_from_config(command: str, config: dict) -> list[str]:
    """The command line an artifact's config describes; sr is derived."""
    argv = [command]
    for key, value in config.items():
        if value is not None and key != "sr":
            argv += [f"--{key}", str(value)]
    return argv


_VECTOR = st.one_of(
    st.tuples(st.just("--ell"), st.sampled_from([1, 3, 1267, 12915, 17797])),
    st.tuples(st.just("--z"), st.lists(st.integers(0, 500).map(lambda k: 2 * k + 1), min_size=3, max_size=3)),
)


@st.composite
def _cli_inputs(draw):
    """Small valid command lines for moments, estimate, dual and cbc."""
    command = draw(st.sampled_from(["moments", "estimate", "dual", "cbc"]))
    s = draw(st.integers(1, 3))
    m = draw(st.integers(0, 4))
    # r >= 1: estimates draw s*r >= 1 bits, and m = r = 0 has no vector
    r = draw(st.integers(1, 6 // s))
    argv = [command]
    if command == "cbc":
        return argv + ["--s", str(s), "--m", str(m), "--r", str(r),
                       "--policy", draw(st.sampled_from(["auto", "full", "sampled"]))]
    if command == "moments":
        scheme = draw(st.sampled_from(["grid", "scalar"]))
        r = max(r, m) if scheme == "grid" else r
        argv += ["--scheme", scheme]
    elif command == "estimate":
        argv += ["--scheme", draw(st.sampled_from(["grid", "scalar", "ideal"])),
                 "--q", str(draw(st.integers(1, 3))), "--bits", f"seed:{draw(st.integers(0, 99))}"]
    argv += ["--s", str(s), "--m", str(m)]
    argv += ["--H", str(draw(st.integers(1, 4)))] if command == "dual" else ["--r", str(r)]
    option, value = draw(_VECTOR)
    argv += [option, ",".join(map(str, value[:s])) if option == "--z" else str(value)]
    return argv


@settings(max_examples=40, deadline=None)
@given(_cli_inputs())
def test_config_round_trips_byte_for_byte(argv):
    code, out = _stdout_of(argv)
    assert code == 0, argv
    artifact = json.loads(out)
    rebuilt = _argv_from_config(artifact["command"], artifact["config"])
    assert _stdout_of(rebuilt) == (0, out), (argv, rebuilt)


# every command line of this module (file paths as placeholders: parsing
# opens no file), one benchmark command line per command, and the lines on
# which argparse prints: help, version and usage errors
_R2 = ("--s", "2", "--m", "2", "--ell", "3")
_Z3 = ("--s", "2", "--m", "3", "--z", "1,3,5")
_PARSE_CASES = [
    ("moments", "--scheme", "scalar", "--s", "2", "--m", "3", "--r", "3", "--ell", "1267"),
    ("moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3", "--ell", "17797", "--format", "csv"),
    ("moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3", "--z", "1,3"),
    ("moments", "--scheme", "grid", "--s", "3", "--m", "3", "--r", "9", "--ell", "1267"),
    ("moments", "--scheme", "grid", "--s", "2", "--m", "4", "--r", "3", "--ell", "1267"),
    ("moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3"),
    ("moments", "--scheme", "bogus", "--s", "2", "--m", "3", "--r", "3"),
    ("moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3", "--ell", "0"),
    ("moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3", "--ell", "-3"),
    ("moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3", "--z", ""),
    ("moments", "--scheme", "grid", *_R2, "--r", "-1"),
    ("moments", "--scheme", "scalar", *_R2, "--r", "-1"),
    ("estimate", "--scheme", "grid", *_R2, "--bits", "seed:1", "--r", "-1"),
    ("estimate", "--scheme", "scalar", *_R2, "--bits", "seed:1", "--r", "-1"),
    ("estimate", "--scheme", "ideal", *_R2, "--bits", "seed:1", "--r", "-1"),
    ("cbc", "--s", "2", "--m", "2", "--r", "-1"),
    ("dual", "--H", "1", *_Z3),
    ("moments", "--scheme", "grid", "--r", "3", *_Z3),
    ("moments", "--scheme", "scalar", "--r", "1", *_Z3),
    ("estimate", "--scheme", "grid", "--r", "3", "--bits", "seed:1", *_Z3),
    ("estimate", "--scheme", "ideal", "--r", "3", "--bits", "seed:1", *_Z3),
    ("moments", "--scheme", "scalar", "--s", "2", "--m", "0", "--r", "0", "--ell", "3"),
    ("estimate", "--scheme", "scalar", "--s", "2", "--m", "0", "--r", "0", "--ell", "3",
     "--bits", "seed:1", "--q", "2"),
    ("estimate", "--scheme", "scalar", "--s", "2", "--m", "3", "--r", "3", "--ell", "1267",
     "--q", "1", "--bits", "file:zeros.txt"),
    ("estimate", "--scheme", "scalar", "--s", "2", "--m", "2", "--r", "2", "--ell", "17797",
     "--q", "16", "--bits", "file:all.txt"),
    ("estimate", "--scheme", "grid", "--s", "3", "--m", "4", "--r", "4", "--ell", "17797",
     "--q", "10", "--bits", "seed:5"),
    ("estimate", "--scheme", "grid", "--s", "3", "--m", "4", "--r", "4", "--ell", "17797",
     "--q", "1000", "--bits", "seed:1"),
    ("estimate", "--scheme", "ideal", "--s", "2", "--m", "4", "--r", "4", "--ell", "1267",
     "--q", "3", "--bits", "seed:11"),
    ("estimate", "--scheme", "grid", "--s", "1", "--m", "40", "--r", "4", "--ell", "1", "--bits", "seed:1"),
    ("estimate", "--scheme", "ideal", "--s", "1", "--m", "40", "--r", "4", "--ell", "1", "--bits", "seed:1"),
    ("estimate", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "0", "--ell", "1267",
     "--q", "4", "--bits", "seed:3"),
    ("estimate", "--scheme", "scalar", "--s", "2", "--m", "3", "--r", "0", "--ell", "1267",
     "--q", "4", "--bits", "seed:3"),
    ("estimate", "--scheme", "grid", "--s", "3", "--m", "6", "--r", "5", "--ell", "17797",
     "--q", "6", "--bits", "file:grid.raw:raw", "--out", "out.json"),
    ("estimate", "--scheme", "scalar", "--s", "2", "--m", "4", "--r", "7", "--ell", "1267",
     "--q", "6", "--bits", "file:scalar.ascii01:ascii01", "--out", "out.json"),
    ("estimate", "--scheme", "ideal", "--s", "3", "--m", "5", "--r", "1", "--ell", "12915",
     "--q", "2", "--bits", "seed:11", "--out", "out.json"),
    ("dual", "--s", "2", "--m", "3", "--z", "1,3", "--H", "8"),
    ("dual", "--s", "1", "--m", "3", "--ell", "1", "--H", "1"),
    ("dual", "--s", "2", "--m", "70", "--ell", "12915", "--H", "2"),
    ("dual", "--s", "2", "--m", "0", "--ell", "1", "--H", "700", "--out", "dual.json"),
    ("dual", "--s", "3", "--m", "2", "--ell", "5", "--H", "100000"),
    ("dual", "--s", "2000000", "--m", "0", "--ell", "1", "--H", "1"),
    ("estimate", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3", "--ell", "1267",
     "--bits", "seed:1", "--format", "csv"),
    ("dual", "--s", "2", "--m", "3", "--z", "1,3", "--H", "8", "--format", "csv"),
    ("cbc", "--s", "2", "--m", "3", "--r", "2"),
    ("cbc", "--s", "2", "--m", "3", "--r", "2", "--format", "csv"),
    ("cbc", "--s", "1", "--m", "3", "--r", "2"),
    ("cbc", "--s", "3", "--m", "3", "--r", "2", "--format", "csv"),
    ("tables",),
    ("tables", "--check"),
    ("tables", "--check", "--out", "tables.json"),
    ("tables", "--format", "csv"),
    ("tables", "--check", "--format", "csv"),
    ("moments", "--scheme", "grid", *_RULE),
    ("estimate", "--scheme", "grid", *_RULE, "--bits", "seed:1"),
    ("estimate", "--s", "2", "--m", "1", "--r", "2", "--z", "607,999", "--scheme", "scalar",
     "--q", "2", "--bits", "seed:46"),
    ("cbc", "--s", "3", "--m", "2", "--r", "2", "--policy", "sampled"),
    # benchmark command lines
    ("moments", "--scheme", "scalar", "--s", "3", "--m", "4", "--r", "4", "--ell", "17797",
     "--out", "out.json"),
    ("estimate", "--scheme", "grid", "--s", "3", "--m", "13", "--r", "13", "--ell", "17797",
     "--q", "32", "--bits", "seed:11", "--out", "out.json"),
    ("cbc", "--s", "3", "--m", "5", "--r", "3", "--policy", "full", "--out", "out.json"),
    # help, version and usage errors
    (),
    ("--help",),
    ("-h",),
    ("--version",),
    ("--version", "moments"),
    ("bogus",),
    ("--s", "2", "moments"),
    *[(command, "--help") for command in ("tables", "estimate", "moments", "dual", "cbc")],
    ("moments", "--he"),
    ("cbc", "-h", "--s", "2"),
    ("moments", "--version"),
    ("moments",),
    ("moments", "--scheme", "grid", "--s", "two", "--m", "3", "--r", "3", "--ell", "1267"),
    ("cbc", "--s", "2", "--m", "3", "--r", "2", "extra"),
    ("cbc", "--s", "2", "--m", "3", "--r", "2", "--policy", "sa"),
    ("cbc", "--s", "2", "--m", "3"),
    ("cbc", "--s", "2", "--m", "3", "--r"),
    ("cbc", "--pol", "full", "--s", "2", "--m", "3", "--r", "2"),
    ("dual", "--s", "2", "--m", "3", "--z", "1,3", "--H", "8", "--r", "1"),
]


def _parse_outcome(parse, argv) -> tuple:
    """vars of the parsed Namespace (None on exit), the exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            ns, code = None, exc.code
    return ns, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSE_CASES)
def test_one_command_parser_matches_the_full_parser(monkeypatch, argv):
    """The one parser of every command, cached by `_parse_args`, parses,
    prints and exits as a freshly built full parser does."""
    from latshift import cli

    full = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(argv) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    # every parse, a help or an error too, is the one cached parser's
    assert [_parse_outcome(cli._parse_args, argv) for _ in range(3)] == [full] * 3
    assert len(builds) == 1


def test_no_state_crosses_parses(monkeypatch, capsys, tmp_path):
    # each command line gives in one process, after the others, what it
    # gives alone in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    grid = ("moments", "--scheme", "grid", "--s", "2", "--m", "3", "--r", "3")
    out = str(tmp_path / "cbc.json")
    sequence = [
        (*grid, "--z", "1,3"),
        (*grid, "--ell", "5"),
        ("tables", "--format", "csv"),
        ("tables",),
        ("moments", "--scheme", "bogus", "--s", "2", "--m", "3", "--r", "3"),
        ("--help",),
        ("cbc", "--s", "2", "--m", "3", "--r", "2", "--out", out),
    ]
    together = []
    for argv in sequence:
        code = main(list(argv))
        captured = capsys.readouterr()
        artifact = Path(out).read_text() if "--out" in argv else None
        together.append((code, captured.out, captured.err, artifact))
    assert json.loads(together[1][1])["config"]["z"] is None

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    for argv, seen in zip(sequence, together):
        Path(out).unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "latshift.cli", *argv], env=env, capture_output=True, text=True
        )
        artifact = Path(out).read_text() if "--out" in argv else None
        assert (proc.returncode, proc.stdout, proc.stderr, artifact) == seen, argv


# 2^40, as a command-line value
_HUGE = str(1 << 40)


def _cap_memory(limit: int = 1 << 30) -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv,message",
    [
        (("moments", "--scheme", "scalar", "--s", "200000", "--m", "14", "--r", "0", "--ell", "1"),
         "error: 3276800000 node coordinates exceed the 2^26 guard"),
        (("estimate", "--scheme", "grid", "--s", "1", "--m", "0", "--r", "1", "--ell", "1",
          "--q", "100000000", "--bits", "seed:1"),
         "error: 100000000 shift replicates exceed the 2^26 guard"),
        (("cbc", "--s", "100000", "--m", "3", "--r", "0"),
         "error: 240002399952 merit node coordinates exceed the 2^26 guard"),
        # a generating vector of more than 2^26 bits, s * max(t, 64), is
        # refused before its first component is formed
        (("moments", "--scheme", "grid", "--s", "30000000", "--m", "0", "--r", "0", "--ell", "1"),
         "error: 1920000000 generating vector bits exceed the 2^26 guard"),
        # an --r or --m of 2^40 reaches the guard as an exponent, and no
        # 2^(2^40) is formed on the way
        (("moments", "--scheme", "grid", "--s", "2", "--m", "0", "--r", _HUGE, "--ell", "1"),
         "error: at least 2^2199023255552 grid shifts exceed the 2^26 guard"),
        (("moments", "--scheme", "scalar", "--s", "2", "--m", "0", "--r", _HUGE, "--ell", "1"),
         "error: 4398046511104 generating vector bits exceed the 2^26 guard"),
        (("estimate", "--scheme", "grid", "--s", "2", "--m", "0", "--r", _HUGE, "--ell", "1",
          "--q", "2", "--bits", "seed:1"),
         "error: node depth 2^-1099511627776 exceeds the 64-bit node numerators"),
        (("estimate", "--scheme", "scalar", "--s", "2", "--m", _HUGE, "--r", "0", "--ell", "1",
          "--q", "2", "--bits", "seed:1"),
         "error: 2199023255552 generating vector bits exceed the 2^26 guard"),
        (("estimate", "--scheme", "ideal", "--s", "2", "--m", _HUGE, "--r", "0", "--ell", "1",
          "--q", "2", "--bits", "seed:1"),
         "error: 2199023255552 generating vector bits exceed the 2^26 guard"),
        (("cbc", "--s", "2", "--m", "0", "--r", _HUGE),
         "error: at least 2^2199023255552 extension nodes exceed the 2^26 guard"),
        (("cbc", "--s", "2", "--m", _HUGE, "--r", "0"),
         "error: at least 2^1099511627776 extension nodes exceed the 2^26 guard"),
        (("dual", "--s", "2", "--m", _HUGE, "--ell", "1", "--H", "1"),
         "error: 2199023255552 generating vector bits exceed the 2^26 guard"),
    ],
)
def test_whole_work_is_refused_before_it_starts(argv, message):
    # below every node guard, but s x nodes coordinates, q replicates and the
    # CBC's normalizer merits are not: each exits 2 under a 1 GB address
    # space cap (set on the child only) instead of hanging or failing to
    # allocate
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "latshift.cli", *argv],
        env=env, preexec_fn=_cap_memory, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == message + "\n"
    assert elapsed < 5


@pytest.mark.parametrize(
    "argv,cap",
    [
        # every node value is finite, but a shift's sum passes the float range
        (("moments", "--scheme", "scalar", "--s", "4603", "--m", "13", "--r", "0", "--ell", "1"), 1 << 30),
        (("estimate", "--scheme", "grid", "--s", "4603", "--m", "13", "--r", "0", "--ell", "1",
          "--q", "1", "--bits", "seed:1"), 1 << 30),
        # 6e7 candidate duals, below the guard: with one OpenBLAS thread the
        # box just fits in 1 GB of address space, and not in 768 MB
        (("dual", "--s", "1", "--m", "0", "--ell", "1", "--H", "30000000"), 768 << 20),
    ],
)
def test_overflow_and_out_of_memory_end_in_one_line(argv, cap, tmp_path):
    # below every guard, a sum past the float range (OverflowError) and an
    # allocation past the address space cap (MemoryError) exit 1 with one
    # error line, as a validation error does, and write no artifact
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = tmp_path / "artifact.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "latshift.cli", *argv, "--out", str(out)],
        env=env, preexec_fn=lambda: _cap_memory(cap), capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()
    assert elapsed < 10


README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_blocks() -> list[tuple[str, str]]:
    """(info string, body) of every fenced block of the README."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    # every `latshift ...` line of the README, its `\` continuations joined,
    # exits 0; random.txt feeds the file: example its 10 x 2 x 5 bits
    argvs = [
        shlex.split(line)[1:]
        for _, body in _fenced_blocks()
        for line in body.replace("\\\n", " ").splitlines()
        if line.startswith("latshift ")
    ]
    assert len(argvs) == 6
    monkeypatch.chdir(tmp_path)
    rng = random.Random(1)
    (tmp_path / "random.txt").write_text("".join(rng.choice("01") for _ in range(128)) + "\n")
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    example = text[text.index("## Library example") :]
    body = next(body for info, body in _fenced_blocks() if info == "python" and body in example)
    exec(compile(body, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2
