import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latshift import (
    EmbeddedPair,
    GeneratingVector,
    ProductBernoulliFn,
    Rank1Rule,
    TruncationBox,
    __version__,
    dual_points,
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

    def test_bit_exhaustion_is_validation_error(self, capsys, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("0" * 5)  # one bit short of the s*r = 6 needed
        code, _, err = run(
            capsys, "estimate", "--scheme", "scalar", "--s", "2", "--m", "3", "--r", "3",
            "--ell", "1267", "--q", "1", "--bits", f"file:{p}",
        )
        assert code == 1
        assert "exhausted" in err


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
        from latshift import cli

        monkeypatch.setattr(cli, "BLOCK_NODES", rows_per_write)
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
        # string this peaked near 1 GB
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
        assert peak_kb < 200 * 1024
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
