import dataclasses
import json

import pytest

from latshift import (
    EmbeddedPair,
    ProductBernoulliFn,
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

    def test_bit_exhaustion_is_validation_error(self, capsys, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("0" * 5)  # one bit short of the s*r = 6 needed
        code, _, err = run(
            capsys, "estimate", "--scheme", "scalar", "--s", "2", "--m", "3", "--r", "3",
            "--ell", "1267", "--q", "1", "--bits", f"file:{p}",
        )
        assert code == 1
        assert "exhausted" in err


class TestDualCommand:
    def test_known_point_present(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--s", "2", "--m", "3", "--z", "1,3", "--H", "8"
        )
        assert code == 0
        artifact = json.loads(out)
        assert [5, 1] in artifact["points"]
        assert artifact["count"] == len(artifact["points"])


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
