"""Command-line interface: exit codes, output formats and round-trips."""

import csv
import io
import json
import math

import pytest

from mmvport import analyze, load_packaged_market, market_to_json
from mmvport.cli import main


@pytest.fixture(scope="module")
def trinomial_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("markets") / "trinomial.json"
    path.write_text(market_to_json(load_packaged_market("trinomial")), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def binomial_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("markets") / "binomial.json"
    path.write_text(market_to_json(load_packaged_market("binomial")), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_single_file_json(self, capsys, trinomial_file):
        code, out, _ = run(capsys, "analyze", trinomial_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["u"] == pytest.approx(289 / 2180, abs=1e-10)
        assert doc["u_mmv"] == pytest.approx(29 / 32, abs=1e-10)
        assert doc["sr_m_max"] == pytest.approx(math.sqrt(29) / 4, abs=1e-10)
        assert doc["fcfs_exists"] is True
        assert doc["equiv"] == {"a": False, "b": False, "c": False, "d": False}
        assert "certificate_valid" not in doc  # only added with --verify

    def test_twelve_digit_reparse(self, capsys, trinomial_file):
        code, out, _ = run(capsys, "analyze", trinomial_file)
        doc = json.loads(out)
        ref = analyze(load_packaged_market("trinomial"))
        for key, want in (
            ("u", ref.u),
            ("u_m", ref.u_m),
            ("u_mv", ref.u_mv),
            ("u_mmv", ref.u_mmv),
            ("sr_max", ref.sr_max),
            ("sr_m_max", ref.sr_m_max),
            ("c_hat_m", ref.c_hat_m),
        ):
            assert doc[key] == pytest.approx(want, abs=1e-10)

    def test_verify_flag(self, capsys, trinomial_file, binomial_file):
        code, out, _ = run(capsys, "analyze", "--verify", trinomial_file)
        assert code == 0
        assert json.loads(out)["certificate_valid"] is True
        code, out, _ = run(capsys, "analyze", "--verify", binomial_file)
        assert code == 0
        assert json.loads(out)["certificate_valid"] is None  # nothing claimed

    def test_multiple_files_keep_order(self, capsys, trinomial_file, binomial_file):
        code, out, _ = run(capsys, "analyze", trinomial_file, binomial_file)
        assert code == 0
        docs = json.loads(out)
        assert [d["input"] for d in docs] == [str(trinomial_file), str(binomial_file)]
        assert docs[0]["report"]["fcfs_exists"] is True
        assert docs[1]["report"]["fcfs_exists"] is False

    def test_jobs_match_serial(self, capsys, trinomial_file, binomial_file):
        _, serial, _ = run(capsys, "analyze", trinomial_file, binomial_file)
        _, parallel, _ = run(
            capsys, "analyze", "--jobs", "2", trinomial_file, binomial_file
        )
        assert json.loads(serial) == json.loads(parallel)

    def test_csv_format(self, capsys, trinomial_file, binomial_file):
        code, out, _ = run(
            capsys, "analyze", "--format", "csv", trinomial_file, binomial_file
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert rows[0]["fcfs_exists"] == "true"
        assert rows[1]["fcfs_exists"] == "false"
        assert float(rows[0]["u_mmv"]) == pytest.approx(29 / 32, abs=1e-10)
        assert rows[0]["equiv_a"] == "false"

    def test_out_writes_file(self, capsys, tmp_path, trinomial_file):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", "--out", target, trinomial_file)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["fcfs_exists"] is True

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", tmp_path / "nope.json")
        assert code == 2
        assert err != ""

    def test_non_viable_market(self, capsys, tmp_path):
        doc = {
            "assets": 1,
            "periods": 1,
            "nodes": [
                {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
                {"id": "u", "parent": "r", "t": 1, "p": 0.5, "prices": [2.0]},
                {"id": "d", "parent": "r", "t": 1, "p": 0.5, "prices": [1.5]},
            ],
        }
        path = tmp_path / "arb.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert err != ""

    def test_non_viable_market_names_the_interior_node(self, capsys, tmp_path):
        # the root's one-step market is fine; the arbitrage sits at node
        # "dn", whose price only falls
        doc = {
            "assets": 1,
            "periods": 2,
            "nodes": [
                {"id": "r", "parent": None, "t": 0, "prices": [1.0]},
                {"id": "up", "parent": "r", "t": 1, "p": 0.5, "prices": [1.5]},
                {"id": "dn", "parent": "r", "t": 1, "p": 0.5, "prices": [0.5]},
                {"id": "uu", "parent": "up", "t": 2, "p": 0.5, "prices": [2.0]},
                {"id": "ud", "parent": "up", "t": 2, "p": 0.5, "prices": [1.0]},
                {"id": "du", "parent": "dn", "t": 2, "p": 0.5, "prices": [0.4]},
                {"id": "dd", "parent": "dn", "t": 2, "p": 0.5, "prices": [0.3]},
            ],
        }
        path = tmp_path / "interior.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "'dn'" in lines[0]

    def test_overflowing_price_moves_exit_3(self, capsys, tmp_path):
        doc = {
            "assets": 1,
            "periods": 1,
            "nodes": [
                {"id": "r", "parent": None, "t": 0, "prices": [0.0]},
                {"id": "u", "parent": "r", "t": 1, "p": 0.5, "prices": [1e300]},
                {"id": "d", "parent": "r", "t": 1, "p": 0.5, "prices": [-1e300]},
            ],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", path)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestMsharpe:
    def write(self, tmp_path, text, name="law.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_golden_trinomial_law(self, capsys, tmp_path):
        path = self.write(
            tmp_path, "value,weight\n10,0.1\n1,0.8\n-1,0.1\n"
        )
        code, out, _ = run(capsys, "msharpe", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["sharpe"] == pytest.approx(math.sqrt(289 / 801), abs=1e-10)
        assert doc["sr_m"] == pytest.approx(math.sqrt(29) / 4, abs=1e-10)
        assert doc["alpha_hat"] == pytest.approx(7 / 9, abs=1e-10)
        assert doc["truncation_level"] == pytest.approx(9 / 7, abs=1e-10)
        assert doc["case_tag"] == "standard"

    def test_headerless_single_column(self, capsys, tmp_path):
        path = self.write(tmp_path, "2\n-1\n3\n")
        code, out, _ = run(capsys, "msharpe", path)
        assert code == 0
        assert json.loads(out)["mean"] == pytest.approx(4 / 3, abs=1e-10)

    def test_column_selection_by_name_and_index(self, capsys, tmp_path):
        text = "ret,junk,w\n10,9,0.1\n1,9,0.8\n-1,9,0.1\n"
        by_name = self.write(tmp_path, text, "a.csv")
        code, out, _ = run(capsys, "msharpe", "--col", "ret,w", by_name)
        assert code == 0
        want = json.loads(out)["sr_m"]
        code, out, _ = run(capsys, "msharpe", "--col", "0,2", by_name)
        assert code == 0
        assert json.loads(out)["sr_m"] == pytest.approx(want, abs=1e-12)

    def test_wide_file_needs_col(self, capsys, tmp_path):
        path = self.write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        code, _, err = run(capsys, "msharpe", path)
        assert code == 2
        assert err != ""

    def test_ragged_rows_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "1,0.5\n2\n")
        code, _, err = run(capsys, "msharpe", path)
        assert code == 2

    def test_non_numeric_cell_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, "value\n1\noops\n")
        code, _, err = run(capsys, "msharpe", path)
        assert code == 2

    def test_nonpositive_mean_exit_code(self, capsys, tmp_path):
        path = self.write(tmp_path, "-1\n-2\n")
        code, _, err = run(capsys, "msharpe", path)
        assert code == 4
        assert err != ""

    def test_no_downside_inf_as_string(self, capsys, tmp_path):
        # strictly positive outcomes: plain Sharpe stays finite, the
        # monotone version is unbounded (cap below the smallest atom)
        path = self.write(tmp_path, "1\n2\n")
        code, out, _ = run(capsys, "msharpe", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["sharpe"] == pytest.approx(3.0, abs=1e-10)
        assert doc["sr_m"] == "inf"
        assert doc["alpha_hat"] is None
        assert doc["truncation_level"] is None
        assert doc["case_tag"] == "no-downside"
        # a constant positive payoff has infinite Sharpe outright
        path = self.write(tmp_path, "2\n2\n", "const.csv")
        code, out, _ = run(capsys, "msharpe", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["sharpe"] == "inf"
        assert doc["sr_m"] == "inf"

    def test_cap_sweep_csv(self, capsys, tmp_path):
        path = self.write(tmp_path, "value,weight\n10,0.1\n1,0.8\n-1,0.1\n")
        code, out, _ = run(capsys, "msharpe", "--format", "csv", path)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert set(rows[0]) == {"level", "sharpe"}
        assert len(rows) > 100
        best = max(float(r["sharpe"]) for r in rows)
        assert best == pytest.approx(math.sqrt(29) / 4, abs=1e-3)


class TestGenerateAndSelftest:
    def test_generate_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(
                capsys, "generate", "--seed", "7", "--periods", "2", "--out", target
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_validation(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--seed", "1", "--branching", "1")
        assert code == 2
        assert err != ""
        code, _, err = run(
            capsys, "generate", "--seed", "0", "--periods", str(3 * 10**7),
            "--branching", "3",
        )
        assert code == 2
        assert "exceed 200000 leaves" in err

    def test_generate_analyze_round_trip(self, capsys, tmp_path):
        for seed in range(100):
            path = tmp_path / f"m{seed}.json"
            code, _, _ = run(
                capsys,
                "generate",
                "--seed",
                seed,
                "--periods",
                1 + seed % 2,
                "--branching",
                2 + seed % 3,
                "--assets",
                1 + seed % 2,
                "--out",
                path,
            )
            assert code == 0
            code, out, err = run(capsys, "analyze", path)
            assert code == 0, f"seed {seed}: {err}"
            doc = json.loads(out)
            assert 0.0 <= doc["u"] <= doc["u_m"] < 0.5

    def test_selftest_quick(self, capsys):
        code, out, _ = run(capsys, "selftest", "--quick")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("criterion")]
        assert len(lines) == 7
        assert all(" PASS " in line for line in lines)
        assert out.splitlines()[-1].startswith("selftest PASS")
