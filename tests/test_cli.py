"""Command-line interface: exit codes, output formats and round-trips."""

import concurrent.futures
import csv
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mmvport
from mmvport import (
    analyze,
    cli,
    generate_random_market,
    load_packaged_market,
    market_to_json,
)
from mmvport.cli import _build_parser, _certified_texts, main
from mmvport.fcfs import _print_alike, _rounded_digits, _sig_texts, report_to_dict
from mmvport.market import load_market


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


def twelve_digits(value):
    """``value`` with every float rounded to 12 significant digits as a float,
    and inf, -inf and nan as strings: the rule the CLI's writer follows."""
    if isinstance(value, dict):
        return {k: twelve_digits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [twelve_digits(v) for v in value]
    if isinstance(value, float):
        value = float(f"{value:.12g}")
        return value if math.isfinite(value) else repr(value)
    return value


def strict_json(text):
    """``json.loads(text)``, refusing JSON's non-standard NaN and Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def _uniform_law():
    values = np.random.default_rng(5).uniform(-2.0, 5.0, 1500)
    return "value\n" + "".join(f"{v!r}\n" for v in values.tolist())


def _heavy_law():
    rng = np.random.default_rng(7)
    tail = rng.random(1200) < 0.01
    values = np.where(tail, 20.0 * rng.pareto(1.2, 1200), rng.normal(0.3, 1.0, 1200))
    weights = rng.uniform(0.5, 1.5, 1200)
    return "value,weight\n" + "".join(
        f"{v!r},{w!r}\n" for v, w in zip(values.tolist(), weights.tolist())
    )


def _bench_law(family, n, seed=0):
    """The benchmark's CSV text of one payoff law, keyed on (seed, family, n)."""
    rng = np.random.default_rng([seed, 0 if family == "uniform" else 1, n])
    if family == "uniform":
        values = rng.uniform(-2.0, 5.0, n)
        return "value\n" + "".join(f"{v!r}\n" for v in values.tolist())
    tail = rng.random(n) < 0.01
    values = np.where(tail, 20.0 * rng.pareto(1.2, n), rng.normal(0.3, 1.0, n))
    weights = rng.uniform(0.5, 1.5, n)
    return "value,weight\n" + "".join(
        f"{v!r},{w!r}\n" for v, w in zip(values.tolist(), weights.tolist())
    )


# sha256 of `msharpe` (json, csv) on the benchmark's 1 000-atom seed-0 laws,
# recorded before the law reader and the cap-sweep writer went one pass
BENCH_LAW_DIGESTS = {
    "uniform": (
        "c7c7fad47b6c2d32ddd98f74dee8eca55f4b7fb7665a670371ac81e37bd094d6",
        "c03454f1075eb41b30e82a8ef723bd9d45225ad3f5f8a1f8b79df5c8238d27ea",
    ),
    "heavy": (
        "25b1b9a83b05ad5b76428d7b71c87adb5eb2be9ab1c96908ea36dbec22f51cf6",
        "aa229d5f563d694208d934c85396305f512b8f9fd7c85c3f276f6ff592fbfc49",
    ),
}

# the same on the benchmark's 8 000-atom seed-0 laws, recorded before the
# law file was split in one pass and long sums went through _fsum_rows
BENCH_LAW_8000_DIGESTS = {
    "uniform": (
        "0a4041909d448226726682a849550a6eadccec3cd2dfd0d251cace346bbbbacb",
        "f955b6dc27c4189254c64381640ffdbb5b1ad00885ccd4fda1496d3e29cab4b6",
    ),
    "heavy": (
        "8fb8bb245a8169cfb0cdbd9f94830d99d52ce55540ea6b2fd58172e1c4c9fd49",
        "3da968e6c4d8b99989d4bd4d7be0f57817d3ecf432949c71de6d5ca3011030f2",
    ),
}

# the same on the benchmark's 2 000- and 4 000-atom seed-0 laws, whose cap
# sweeps are most of its law workload, recorded before the law reader
# stopped screening every row
BENCH_LAW_MID_DIGESTS = {
    ("uniform", 2000): (
        "c341f638a633d7ec103c21a1459e6a3914784258295a281bbf3ca8fedd2ff7f5",
        "3621ded2aa8fdea1557a5a638e385ce33b59b945cbe2a9feaa2138cb1ac4b1bd",
    ),
    ("heavy", 2000): (
        "de1bf7a1af696817448c47e9c95e216b9e6944a700f68a29993187f1bdf58178",
        "dabc1ae274ac5a7ba5862282e571e319b1f883ecb29db1389b82edcd1a414d1b",
    ),
    ("uniform", 4000): (
        "7afb3802d2ec869204736a4a81e1ce9afded4fb0fdcd1aa3abc6f9be67270cc4",
        "709132a865fad856b16826283d95067a33afc65c6dfced7a01ed1d40b3f02d28",
    ),
    ("heavy", 4000): (
        "6c95a80389fd86243f1c23b42a6d052395911db74afb10a906f108b3ac5de0c2",
        "c81bb7d113e42c3132fe0b60f199a2f3e5d139699d451b984472186d33bb0163",
    ),
}

# sha256 of `msharpe --format csv` on the benchmark's seed-7 laws, whose
# cap sweeps are the other half of its law workload, recorded before the
# sweep printed certified texts without the exact kernel
BENCH_LAW_SEED7_CSV_DIGESTS = {
    ("uniform", 1000): "6e4b13671e0b486975b1f1c1d26a1f28953b9da4915a5c74d16013e131fcfcf9",
    ("uniform", 2000): "48bcbbe724565dddda465c0276ab6508950072d81d3bbeef11d84b36c127119f",
    ("uniform", 4000): "79ad260f9df942eef0f3863d3cb633e795bbe83ce62203ecf1fcd82f11d165cc",
    ("heavy", 1000): "ebee666716eca45bbf314bb36c4d7c7609673662ef57ae992782678fdca02a46",
    ("heavy", 2000): "8662f63a216238273c93083650a9c1c6876584ed195a56e416c60cc24a200a7c",
    ("heavy", 4000): "625e348a6b80c859f448e0909501c353fcf5bf78d04e4c489ab258f31c6f9f4c",
}

# sha256 of repr((exit code, stdout, stderr)) of `msharpe` on small edge laws,
# recorded while the Sharpe ratio had a per-payoff path of its own: flat,
# zero, no-downside, refused and a zero-variance row of 1 500 terms, past
# the crossover where exact sums leave math.fsum
MSHARPE_EDGE_DIGESTS = {
    "constant": ("2\n2\n", "0879783760b22a8481772b01c208349696c6ed9491ca746d39d7b1b916f00bc8"),
    "zero": ("0\n0\n", "4a4f87e3e5113c1b381fca41d2369aeb52ef4f997a1f5b612a64c9a386976ef2"),
    "zero-and-one": ("0\n1\n", "e96d5ddfeda444a0df7086989bdb32d694f600b1fb484749bf37c30f2ff03287"),
    "positive": ("1\n2\n", "5f997bdeddc3cb13c7b610775034b874a64293ff5f9243bba09d6ff2138ce0d6"),
    "two-atoms": ("-1\n1.5\n", "5cb09dd70f7743caec5d24bad51088f7569742aebe12499b553d7960eb39b8ff"),
    "subnormal-downside": (
        "-5e-324\n1\n", "77e941896ad375870e2b691c90e1af0ba9d0a1fbc58c849238dc83842aeea13f",
    ),
    "negative-mean": (
        "-1\n-2\n", "131f8ac4b101fdff717cce1e4dec2b1ea060ea78229424518bb24dc81bcf6344",
    ),
    "1500-equal-atoms": (
        "3.0\n" * 1500, "3e86059f45c30f7be08f9391ab34a477f53a93e634b71f1cf4fc72dfedf7f0ca",
    ),
}

# sha256 of `msharpe --format csv` on each law, recorded before the cap
# sweep was batched; the sweep must keep these bytes
CAP_SWEEP_DIGESTS = {
    "readme": (
        "value,weight\n10,0.1\n1,0.8\n-1,0.1\n",
        "a8b075bfe3ddf7fde004b3034a9a1265834463fedd479e57238e3647490b4cbf",
    ),
    "uniform": (
        _uniform_law(),
        "4a3f05ef1093fff5b12efe8fb6ad84493921f8e541b8ab66d338e872bbe09b49",
    ),
    "heavy": (
        _heavy_law(),
        "117d3f702fb1cc056fc465ab7951b4b11a77089243482ae2f31971854c62792e",
    ),
    # the lowest grid levels sit below every atom: constant capped payoffs
    "positive": (
        "value,weight\n0.5,1\n1,2\n1,1\n2.5,3\n4,1\n4,0.5\n",
        "20a3dcc536b83ec63040c349df6ad4037ec9b38af142d53b082ec8e57366f140",
    ),
    # no positive atom: the 400-point grid on (0, 1] caps nothing
    "negative": (
        "-1\n-2\n-0.5\n-2\n",
        "a41c1d293eccf1fbc50a8bd75cef12d3aeeff36d4b8fc2075915d2362fa790be",
    ),
}


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
        # fewer than two workers runs serially
        for jobs in ("2", "0", "-1"):
            code, out, _ = run(
                capsys, "analyze", "--jobs", jobs, trinomial_file, binomial_file
            )
            assert code == 0
            assert json.loads(out) == json.loads(serial), jobs

    def test_pool_has_no_more_workers_than_inputs(
        self, capsys, monkeypatch, trinomial_file, binomial_file
    ):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        _, serial, _ = run(capsys, "analyze", trinomial_file, binomial_file)
        # the pool class is imported where a pool is made, from its module
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        code, out, _ = run(
            capsys, "analyze", "--jobs", "4", trinomial_file, binomial_file
        )
        assert code == 0
        assert sizes == [2]
        assert out == serial

    def test_report_writer_matches_the_indented_encoder(
        self, tmp_path, trinomial_file, binomial_file
    ):
        # the reference is the writer's old path: json.dumps of report_to_dict
        # and the certificate fields, with infinities as "inf" and "-inf"
        market_path = tmp_path / "ragged.json"
        market_path.write_text(json.dumps(ragged_doc(2, 2)), encoding="utf-8")
        written, reference = {}, {}
        for name, path in (("claimed", trinomial_file), ("plain", binomial_file),
                           ("two_assets", market_path)):
            report = analyze(load_market(str(path)))
            written[name] = cli._analyze_path((str(path), True))
            certificate = {k: v for k, v in written[name].items()
                           if k.startswith("certificate_")}
            reference[name] = dict(report_to_dict(report), **certificate)
        for payloads in (written, reference):
            payloads["plain"]["fcfs_payoff"] = None
            payloads["broken"] = dict(
                payloads["claimed"],
                certificate_valid=False,
                certificate_error='density, "off" by\n1e-3',
                strategy={"r": [0.5, -1e-300], "r, 0": [], "r\u00e9": [math.inf]},
            )
        for name, payload in written.items():
            text = cli._json_text(payload)
            assert text == json.dumps(twelve_digits(reference[name]), indent=2)
            assert strict_json(text) == twelve_digits(reference[name])
        assert '"r\\u00e9": [\n      "inf"\n    ]' in cli._json_text(written["broken"])
        names = ("a.json", "b, c.json", "d.json", "e.json")
        array = [{"input": n, "report": written[k]} for n, k in zip(names, written)]
        want = [{"input": n, "report": reference[k]} for n, k in zip(names, written)]
        assert cli._json_text(array) == json.dumps(twelve_digits(want), indent=2)
        # every edge float, as a float and as a numpy scalar, in an
        # msharpe-shaped summary and in vectors
        for scalar in (float, np.float64):
            values = [scalar(v) for v in EDGE_FLOATS + SUBNORMALS]
            for value in values:
                payload = {"mean": value, "sharpe": -value, "sr_m": value,
                           "alpha_hat": None, "truncation_level": value,
                           "case_tag": "standard"}
                text = cli._json_text(payload)
                assert text == json.dumps(twelve_digits(payload), indent=2), value
                strict_json(text)
            vectors = {"signed_density": values, "strategy": {"r": values, "u": []}}
            text = cli._json_text(vectors)
            assert text == json.dumps(twelve_digits(vectors), indent=2)
            strict_json(text)
            # a numpy scalar is rounded like a float, not written in full
            assert cli._json_text({"mean": scalar(0.12345678901234567)}) == (
                '{\n  "mean": 0.123456789012\n}'
            )

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

    def test_verify_refusal_keeps_the_report(self, capsys, tmp_path):
        # the seed-0 sweep-small market 746: a real effect too small to
        # certify, so the vote stands and --verify refuses it in one line
        market, report = tmp_path / "m.json", tmp_path / "r.json"
        code, _, _ = run(capsys, "generate", "--seed", 746, "--periods", 3,
                         "--branching", 4, "--assets", 1, "--out", market)
        assert code == 0
        code, out, err = run(capsys, "analyze", "--verify", market, "--out", report)
        assert (code, out, err) == (3, "", "error: certificate verification failed\n")
        doc = json.loads(report.read_text())
        assert doc["fcfs_exists"] is True and doc["marginal"] is True
        assert doc["equiv"] == {"a": True, "b": True, "c": False, "d": False}
        assert doc["certificate_valid"] is False
        assert doc["certificate_error"] == (
            "existence claimed but the mean-variance improvement is not strict")

    def test_wide_split_vote_exits_0(self, capsys, tmp_path):
        # (32,3,3) seed 1: the value routes miss a density dip of a few
        # percent on leaves of probability about 2e-7; the density route
        # decides, and the certificate holds
        market, report = tmp_path / "m.json", tmp_path / "r.json"
        code, _, _ = run(capsys, "generate", "--seed", 1, "--periods", 3,
                         "--branching", 32, "--assets", 3, "--out", market)
        assert code == 0
        code, out, err = run(capsys, "analyze", "--verify", market, "--out", report)
        assert (code, out, err) == (0, "", "")
        doc = json.loads(report.read_text())
        assert doc["equiv"] == {"a": True, "b": True, "c": False, "d": False}
        assert doc["marginal"] is True and doc["fcfs_exists"] is True
        assert doc["certificate_valid"] is True
        assert analyze(load_market(market)).signed_solution.signed is True

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

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

    def test_non_viable_two_asset_market_names_the_interior_node(
        self, capsys, tmp_path
    ):
        # every node has three children, so each is solved by the batched
        # basis enumeration first; node "dn" has an arbitrage (its first
        # asset only falls), gives no certified basis and must still be
        # named by the simplex it falls back to
        def family(parent, t, prices, moves):
            return [
                {"id": f"{parent}{k}", "parent": parent, "t": t, "p": 1 / 3,
                 "prices": [x + dx for x, dx in zip(prices, move)]}
                for k, move in enumerate(moves)
            ]

        balanced = ((0.5, -0.2), (-0.3, 0.4), (-0.2, -0.2))
        falling = ((-0.1, 0.1), (-0.2, -0.1), (-0.3, 0.0))
        nodes = [{"id": "r", "parent": None, "t": 0, "prices": [1.0, 1.0]}]
        level = [("up", (1.5, 0.8)), ("mid", (0.7, 1.4)), ("dn", (0.8, 0.8))]
        for name, prices in level:
            nodes.append({"id": name, "parent": "r", "t": 1, "p": 1 / 3,
                          "prices": list(prices)})
        for name, prices in level:
            moves = falling if name == "dn" else balanced
            nodes += family(name, 2, prices, moves)
        doc = {"assets": 2, "periods": 2, "nodes": nodes}
        path = tmp_path / "interior2.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "'dn'" in lines[0]

    def test_non_utf8_market_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "UTF-8" in lines[0]

    def test_overflowing_price_moves_exit_3(self, capsys, tmp_path):
        squares = [
            {"id": "r", "parent": None, "t": 0, "prices": [0.0]},
            {"id": "u", "parent": "r", "t": 1, "p": 0.5, "prices": [1e300]},
            {"id": "d", "parent": "r", "t": 1, "p": 0.5, "prices": [-1e300]},
        ]
        # finite prices whose increments themselves overflow
        increments = [
            {"id": "r", "parent": None, "t": 0, "prices": [1e308, 1.0]},
            {"id": "a", "parent": "r", "t": 1, "p": 0.25, "prices": [1.7e308, 1.1]},
            {"id": "b", "parent": "r", "t": 1, "p": 0.25, "prices": [-0.9e308, 1.1]},
            {"id": "c", "parent": "r", "t": 1, "p": 0.5, "prices": [1e308, 0.6286]},
        ]
        for assets, nodes in ((1, squares), (2, increments)):
            doc = {"assets": assets, "periods": 1, "nodes": nodes}
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = run(capsys, "analyze", path)
            assert code == 3
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "at node 'r' overflows" in lines[0]

    def test_engine_density_failing_its_check_exits_3(self, capsys, tmp_path):
        # moves of 1e-160: the density the engine builds misses E[z] = 1
        nodes = [
            {"id": "r", "parent": None, "t": 0, "prices": [0.0]},
            {"id": "u", "parent": "r", "t": 1, "p": 0.5, "prices": [2e-160]},
            {"id": "d", "parent": "r", "t": 1, "p": 0.5, "prices": [-1e-160]},
        ]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"assets": 1, "periods": 1, "nodes": nodes}),
                        encoding="utf-8")
        code, out, err = run(capsys, "analyze", path)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "density expectation" in lines[0]

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("prices", "[1" + "0" * 400 + "]", "price must be finite"),
            ("p", "1" + "0" * 400, "p must be finite"),
            # past the interpreter's digit limit json.loads itself refuses it
            ("prices", "[1" + "0" * 5000 + "]", "invalid JSON"),
        ],
    )
    def test_integer_past_the_float_range_is_a_parse_error(
        self, capsys, tmp_path, field, value, expected
    ):
        fields = {"prices": "[2.0]", "p": "0.5"}
        fields[field] = value
        text = (
            '{"assets": 1, "periods": 1, "nodes": ['
            '{"id": "r", "parent": null, "t": 0, "prices": [1.0]}, '
            f'{{"id": "u", "parent": "r", "t": 1, "p": {fields["p"]}, '
            f'"prices": {fields["prices"]}}}, '
            '{"id": "d", "parent": "r", "t": 1, "p": 0.5, "prices": [0.5]}]}'
        )
        path = tmp_path / "huge-int.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "analyze", path)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert expected in lines[0]

    def test_parser_is_reused_after_a_usage_error(self, capsys, trinomial_file):
        assert _build_parser() is _build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--format", "xml", str(trinomial_file)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        code, out, _ = run(capsys, "analyze", trinomial_file)
        assert code == 0
        assert json.loads(out)["fcfs_exists"] is True


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

    def test_non_utf8_law_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.csv"
        path.write_bytes(b"\xff\xfe1\x00\n\x002\x00\n\x00")
        code, out, err = run(capsys, "msharpe", path)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "UTF-8" in lines[0]

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

    def test_law_near_the_top_of_the_float_range(self, capsys, tmp_path):
        # the squares of these atoms overflow; the ratios are those of {1, -1, 3}
        path = self.write(tmp_path, "1e200\n-1e200\n3e200\n")
        code, out, _ = run(capsys, "msharpe", path)
        assert code == 0
        assert json.loads(out) == {
            "mean": 1e200,
            "sharpe": 0.612372435696,
            "sr_m": 0.612372435696,
            "alpha_hat": 2.72727272727e-201,
            "truncation_level": 3.66666666667e200,
            "case_tag": "standard",
        }
        code, out, _ = run(capsys, "msharpe", "--format", "csv", path)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert max(float(r["sharpe"]) for r in rows) == 0.612372435696

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_weights_past_the_float_range(self, capsys, tmp_path, fmt):
        # the weights sum past the largest float: the law is the equal-weight one
        huge = self.write(tmp_path, "value,weight\n1,1e308\n-1,1e308\n2,1e308\n")
        equal = self.write(tmp_path, "value\n1\n-1\n2\n", "equal.csv")
        code, out, err = run(capsys, "msharpe", "--format", fmt, huge)
        assert (code, err) == (0, "")
        assert run(capsys, "msharpe", "--format", fmt, equal) == (0, out, "")
        # a weight the rescaling takes to 0 is refused in one line
        tiny = self.write(tmp_path, "value,weight\n1,1e308\n-1,1e-300\n2,1e308\n",
                          "tiny.csv")
        code, out, err = run(capsys, "msharpe", "--format", fmt, tiny)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("name", sorted(CAP_SWEEP_DIGESTS))
    def test_cap_sweep_bytes_are_pinned(self, capsys, tmp_path, name):
        text, digest = CAP_SWEEP_DIGESTS[name]
        path = self.write(tmp_path, text)
        code, out, _ = run(capsys, "msharpe", "--format", "csv", path)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(MSHARPE_EDGE_DIGESTS))
    def test_edge_law_summaries_are_pinned(self, capsys, tmp_path, name):
        text, digest = MSHARPE_EDGE_DIGESTS[name]
        got = run(capsys, "msharpe", self.write(tmp_path, text))
        assert hashlib.sha256(repr(got).encode()).hexdigest() == digest

    @pytest.mark.parametrize("family", sorted(BENCH_LAW_DIGESTS))
    def test_bench_law_bytes_are_pinned(self, capsys, tmp_path, family):
        path = self.write(tmp_path, _bench_law(family, 1000))
        for fmt, digest in zip(("json", "csv"), BENCH_LAW_DIGESTS[family]):
            code, out, _ = run(capsys, "msharpe", "--format", fmt, path)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    @pytest.mark.parametrize("family", sorted(BENCH_LAW_8000_DIGESTS))
    def test_bench_8000_atom_law_bytes_are_pinned(self, capsys, tmp_path, family):
        path = self.write(tmp_path, _bench_law(family, 8000))
        for fmt, digest in zip(("json", "csv"), BENCH_LAW_8000_DIGESTS[family]):
            code, out, _ = run(capsys, "msharpe", "--format", fmt, path)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    @pytest.mark.parametrize("family, n", sorted(BENCH_LAW_MID_DIGESTS))
    def test_bench_2000_and_4000_atom_law_bytes_are_pinned(self, capsys, tmp_path, family, n):
        path = self.write(tmp_path, _bench_law(family, n))
        for fmt, digest in zip(("json", "csv"), BENCH_LAW_MID_DIGESTS[family, n]):
            code, out, _ = run(capsys, "msharpe", "--format", fmt, path)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    @pytest.mark.parametrize("family, n", sorted(BENCH_LAW_SEED7_CSV_DIGESTS))
    def test_bench_seed_7_cap_sweep_bytes_are_pinned(self, capsys, tmp_path, family, n):
        path = self.write(tmp_path, _bench_law(family, n, seed=7))
        code, out, _ = run(capsys, "msharpe", "--format", "csv", path)
        assert code == 0
        digest = BENCH_LAW_SEED7_CSV_DIGESTS[family, n]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cap_sweep_logs_its_counts_at_debug(self, capsys, caplog, tmp_path):
        text, digest = CAP_SWEEP_DIGESTS["readme"]
        path = self.write(tmp_path, text)
        code, out, err = run(capsys, "msharpe", "--format", "csv", path)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")
        with caplog.at_level(logging.DEBUG, logger="mmvport.cli"):
            assert run(capsys, "msharpe", "--format", "csv", path) == (0, out, "")
        records = [r for r in caplog.records if r.name == "mmvport.cli"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        levels, certified, exact = records[0].args
        assert levels == len(out.splitlines()) - 1 == certified + exact

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("family", ["uniform", "heavy"])
    @pytest.mark.parametrize("n", [1000, 2000, 4000])
    def test_bench_cap_sweeps_certify_most_levels(self, capsys, caplog, tmp_path,
                                                  seed, family, n):
        # a count, not a timer: the exact kernel sees at most 5% of the levels
        path = self.write(tmp_path, _bench_law(family, n, seed))
        with caplog.at_level(logging.DEBUG, logger="mmvport.cli"):
            assert run(capsys, "msharpe", "--format", "csv", path)[0] == 0
        (record,) = [r for r in caplog.records if r.name == "mmvport.cli"]
        levels, certified, _ = record.args
        assert certified >= 0.95 * levels

    @pytest.mark.parametrize("family", sorted(BENCH_LAW_DIGESTS))
    def test_undecided_levels_go_to_one_kernel_call(self, capsys, tmp_path,
                                                    monkeypatch, family):
        # with every level undecided the table is the kernel's, to the byte
        def undecided(X, levels):
            lo, _ = bounds(X, levels)
            return np.full_like(lo, math.nan), np.full_like(lo, math.nan)

        calls = []

        def kernel(X, levels):
            calls.append(len(levels))
            return ratios(X, levels)

        bounds, ratios = cli._capped_sharpe_bounds, cli._capped_sharpe_ratios
        monkeypatch.setattr(cli, "_capped_sharpe_bounds", undecided)
        monkeypatch.setattr(cli, "_capped_sharpe_ratios", kernel)
        path = self.write(tmp_path, _bench_law(family, 1000))
        code, out, _ = run(capsys, "msharpe", "--format", "csv", path)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BENCH_LAW_DIGESTS[family][1]
        assert calls == [len(out.splitlines()) - 1]

    @pytest.mark.parametrize("text, levels", [
        ("value\n5e-324\n-5e-324\n", ["5e-324"]),
        ("1e-321\n-1\n", None),  # 1e-321 / 400 is subnormal, not 0
    ])
    def test_cap_sweep_grid_has_no_level_at_zero(self, capsys, tmp_path, text, levels):
        # a grid point below the least subnormal rounds to 0; it is no level
        code, out, _ = run(capsys, "msharpe", "--format", "csv", self.write(tmp_path, text))
        assert code == 0
        got = [row["level"] for row in csv.DictReader(io.StringIO(out))]
        assert all(float(level) > 0.0 for level in got)
        if levels is not None:
            assert got == levels

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("value\n1\nnan\n", 3, "value column has non-finite 'nan'"),
            ("2\n\n-1\n inf \n", 4, "value column has non-finite 'inf'"),
            # a quoted cell over two lines and blank lines shift nothing
            ('value\n" 1\n"\n\n \r\ninf\n', 6, "value column has non-finite 'inf'"),
            ('value,weight\n\n"2\n",x\n', 3, "weight column has non-numeric 'x'"),
            ("1,1\n1e999,2\n", 2, "value column has non-finite '1e999'"),
            ("value,weight\n1,1\n2,0\n", 3, "weight column has non-positive '0'"),
            ("value,weight\n1,-0\n", 2, "weight column has non-positive '-0'"),
            ("value,weight\n1,1\n2,-3\n3,inf\n", 3,
             "weight column has non-positive '-3'"),
            ("1,1e999\nnan,-1\n", 1, "weight column has non-finite '1e999'"),
            # positive, but its probability underflows once the weights,
            # whose sum passes the float range, are scaled into it
            ("value,weight\n1,1e308\n-1,1e-300\n2,1e308\n", 3,
             "weight column has underflowing '1e-300'"),
        ],
    )
    def test_refused_cell_is_named(self, capsys, tmp_path, text, line, message):
        path = self.write(tmp_path, text)
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "msharpe", "--format", fmt, path)
            assert (code, out) == (2, "")
            assert err == f"error: {path}:{line}: {message}\n"

    @pytest.mark.parametrize("text, line, message", [
        ("value\n1\n\nx\n", 4, "value column has non-numeric 'x'"),
        ('value,weight\n\n"2\n",x\n', 3, "weight column has non-numeric 'x'"),
    ])
    def test_refused_file_is_read_once(
        self, capsys, monkeypatch, tmp_path, text, line, message
    ):
        # the plain file's unscreened pass fails on the blank row; its
        # screened retry and the line that names the cell come from the text
        # read once, as do the quoted file's rows and their lines
        opened = []

        def counted_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counted_open, raising=False)
        path = self.write(tmp_path, text)
        code, out, err = run(capsys, "msharpe", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{line}: {message}\n"
        assert opened == [str(path)]


# floats whose '.12g' text needs repr's layout, or none of its digits
EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 2.225073858507201e-308, 1e-308, 1.7976931348623157e308,
    1e-5, 9.99999999999949e-5, 99999.99999995, 123456789012.0, 999999999999.5,
    9.9999999999995e15, -9.9999999999995e11, 1e11, 1e12, 1e15, 1e16, 1e17,
    1234567890123.0, -1234567890123456.0, 12345678901234567.0,
]
SUBNORMALS = [1e-310, -3.3e-320, 1.5e-323, 2.2e-308, -1.23456789012345e-315]


@given(
    st.floats()
    | st.sampled_from(EDGE_FLOATS)
    | st.floats(1e11, 1e17)
    | st.floats(-1e17, -1e11)
    | st.floats(-2.3e-308, 2.3e-308)
)
def test_one_pass_text_is_the_repr_of_the_twelve_digit_float(value):
    assert _sig_texts([value]) == [repr(float(f"{value:.12g}"))]


def test_edge_floats_format_as_their_repr():
    values = EDGE_FLOATS + SUBNORMALS
    assert _sig_texts(values) == [repr(float(f"{v:.12g}")) for v in values]


def test_the_twelve_digit_rule_has_one_home():
    package = Path(mmvport.__file__).parent
    homes = [path.name for path in sorted(package.glob("*.py"))
             if ".12g" in path.read_text(encoding="utf-8")]
    assert homes == ["fcfs.py"]


def test_no_library_call_sets_numpys_buffer_size():
    # numpy's buffer size is process-wide state: a library call must not move it
    package = Path(mmvport.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "setbufsize" in path.read_text(encoding="utf-8")] == []


# sha256 of `generate` and of `analyze --verify` on a few shapes, recorded
# before the tree went columnar; both byte streams must stay the same
TREE_DIGESTS = [
    ((2, 1, 1), 3, 0,
     "a6cc8996bcb858c8a7df4fa754a601017737417ea4411abf637fa7fce8704f6d",
     "ca8936a76d0d5a7b51038437350d5b72d4580f30495a22574fb276a319d3221c"),
    ((3, 5, 1), 17, 0,
     "62c4e58aea9b506f380d5d5f6b7e98cde2098c175a11a24b679014b884c9cf02",
     "87cfb8c34957096ca8561a527e01b9e54d09d697d1f30a775179c50d20543a34"),
    ((4, 4, 3), 29, 0,
     "8b83a9119c30435ec0712942ff0ca8fcced83a92738ebc77cc980a1fa7ff14ec",
     "915ae242a5cc67299a139ebf29497f3d4adb24b6f8ee983c63161a03e0a25573"),
    ((2, 10, 1), 41, 0,
     "724408390af45582b2ed41c363809b78df1bdfa1737438e145b4fe588023bace",
     "fd3e41d27c7deed13338445b33f82c7f99de10a0d97c11ad266db99d66f5b0b9"),
    ((3, 3, 2), 5, 0,
     "02b590d21194f10d11c6683c36376769dc13b7612376c86781320e0e289e8619",
     "8fef16fec1d3fe8055f9787449515c697750b43a11c14cdd652549815997f9b7"),
]


# sha256 of the `generate` outputs, one after another, of two sets of
# (b, T, d) shapes and seeds, recorded while the draws were made node by
# node: the benchmark's sweep shapes with seed i for i < 120, and its eight
# core ladder shapes with seeds 0-7
GENERATED_SETS = {
    "sweep": (
        [((2 + i % 3, 1 + i % 3, 1 + i % 2), i) for i in range(120)],
        "8ca89580f7a3562b558e39f2d071cb749098a33f2dbcbdcabd0e878f369cb625",
    ),
    "core": (
        [(shape, seed)
         for shape in ((2, 6, 1), (2, 7, 1), (2, 8, 1), (3, 4, 1), (3, 5, 1),
                       (4, 2, 3), (4, 3, 3), (4, 4, 3))
         for seed in range(8)],
        "ed70e582fe47ef22c8674e47239cda39e0f826451ce875c1fdf72bbcbad384a3",
    ),
}


def ragged_doc(assets, seed):
    """Viable three-period market whose nodes have 2, 3 or 4 children.

    Each family's first child is a rare large rise of the first asset, so
    the truncated step binds and the market has a free cash-flow stream.
    """
    rng = np.random.default_rng(seed)
    nodes = [{"id": "r", "parent": None, "t": 0, "prices": [1.0] * assets}]
    frontier = [nodes[0]]
    for t in (1, 2, 3):
        grown = []
        for parent in frontier:
            b = int(rng.integers(2, 5))
            q = rng.uniform(0.1, 1.0, b)
            p = rng.uniform(0.2, 1.0, b)
            raw = rng.normal(size=(b, assets))
            raw[0, 0] += 12.0
            p[0] *= 0.05
            moves = 0.3 * (raw - (q / q.sum()) @ raw)
            for k in range(b):
                grown.append({
                    "id": f"{parent['id']}{k}", "parent": parent["id"], "t": t,
                    "p": float(p[k] / p.sum()),
                    "prices": [float(v) for v in parent["prices"] + moves[k]],
                })
        nodes += grown
        frontier = grown
    return {"assets": assets, "periods": 3, "nodes": nodes}


# sha256 of `analyze --verify` on ragged markets (assets, seed), recorded
# while each level was still padded to its widest node
RAGGED_DIGESTS = [
    (1, 1, "01c853c6b9424b80cbc696be7da643dc41fb966eac055159dafe2ca9e0e97cf0"),
    (2, 2, "88629d35ef01426f18ba481697b54fe1592ab08a0bd8737906ae65950e268aa9"),
]


# sha256 of `analyze --format csv` on the markets of `csv_markets`, recorded
# while every CSV row was built from the whole report
CSV_ROWS_DIGEST = "c47574ebc0484efeea757411ea2cf5b94a7f9bda011c4a320ca38aa90d05203b"


def csv_markets(directory):
    """Three generated markets, two ragged ones and the trinomial one (four
    of the six with a free cash-flow stream), written to ``directory``."""
    docs = {
        f"gen-{b}-{t}-{a}-{seed}.json": market_to_json(generate_random_market(
            seed=seed, periods=t, branching=b, assets=a))
        for (b, t, a), seed in (((3, 5, 1), 17), ((4, 4, 3), 29), ((2, 10, 1), 41))
    }
    docs.update({f"ragged-{a}-{seed}.json": json.dumps(ragged_doc(a, seed))
                 for a, seed in ((1, 1), (2, 2))})
    docs["trinomial.json"] = market_to_json(load_packaged_market("trinomial"))
    for name, text in docs.items():
        (directory / name).write_text(text, encoding="utf-8")
    return list(docs)


@pytest.mark.parametrize("options", [[], ["--jobs", "2"], ["--verify"],
                                     ["--verify", "--jobs", "2"]])
def test_analyze_csv_bytes_are_pinned(capsys, monkeypatch, tmp_path, options):
    monkeypatch.chdir(tmp_path)  # the rows name the inputs as given
    names = csv_markets(tmp_path)
    code, out, _ = run(capsys, "analyze", "--format", "csv", *options, *names)
    assert code == 0
    assert [row[-2] for row in csv.reader(io.StringIO(out))][1:] == (
        ["true", "false", "false", "true", "true", "true"])
    assert hashlib.sha256(out.encode()).hexdigest() == CSV_ROWS_DIGEST


@pytest.mark.parametrize("options", [[], ["--verify"]])
def test_analyze_csv_jobs_writes_the_serial_bytes(
    capsys, trinomial_file, binomial_file, options
):
    # the workers return the report's full payload, of which a row reads the
    # scalar fields
    files = [trinomial_file, binomial_file]
    code, serial, _ = run(capsys, "analyze", "--format", "csv", *options, *files)
    assert code == 0
    code, pooled, _ = run(capsys, "analyze", "--format", "csv", "--jobs", "2",
                          *options, *files)
    assert code == 0
    assert pooled == serial
    assert len(serial.splitlines()) == 3


@pytest.mark.parametrize("assets, seed, report", RAGGED_DIGESTS)
def test_ragged_analyze_bytes_are_pinned(capsys, tmp_path, assets, seed, report):
    market_path, report_path = tmp_path / "m.json", tmp_path / "r.json"
    market_path.write_text(json.dumps(ragged_doc(assets, seed)), encoding="utf-8")
    code, _, _ = run(capsys, "analyze", "--verify", market_path, "--out", report_path)
    assert code == 0
    assert strict_json(report_path.read_text(encoding="utf-8"))["fcfs_exists"]
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == report


class TestGenerateAndSelftest:
    @pytest.mark.parametrize("shape, seed, exit_code, market, report", TREE_DIGESTS)
    def test_generate_and_analyze_bytes_are_pinned(
        self, capsys, tmp_path, shape, seed, exit_code, market, report
    ):
        branching, periods, assets = shape
        market_path, report_path = tmp_path / "m.json", tmp_path / "r.json"
        code, _, _ = run(
            capsys, "generate", "--seed", seed, "--periods", periods,
            "--branching", branching, "--assets", assets, "--out", market_path,
        )
        assert code == 0
        assert hashlib.sha256(market_path.read_bytes()).hexdigest() == market
        code, _, _ = run(
            capsys, "analyze", "--verify", market_path, "--out", report_path
        )
        assert code == exit_code
        strict_json(report_path.read_text(encoding="utf-8"))
        assert hashlib.sha256(report_path.read_bytes()).hexdigest() == report

    @pytest.mark.parametrize("name", sorted(GENERATED_SETS))
    def test_generated_market_sets_are_pinned(self, capsys, name):
        markets, digest = GENERATED_SETS[name]
        h = hashlib.sha256()
        for (branching, periods, assets), seed in markets:
            code, out, _ = run(
                capsys, "generate", "--seed", seed, "--periods", periods,
                "--branching", branching, "--assets", assets,
            )
            assert code == 0
            h.update(out.encode())
        assert h.hexdigest() == digest

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


class TestExitContract:
    # (subcommand, file to create, its content or None for a directory)
    REFUSED = [
        ("analyze", "dir", None),
        ("generate", "dir", None),
        ("analyze", "brackets.json", "[" * 5000),
        ("analyze", "nested.json", '{"a": ' * 5000 + "1" + "}" * 5000),
        ("msharpe", "wide.csv", "x" * 200_000 + "\n"),
    ]

    @pytest.mark.parametrize(
        "command, name, content",
        REFUSED,
        ids=["dir", "out-dir", "deep-array", "deep-object", "wide-cell"],
    )
    def test_refused_input_is_one_line_and_exit_2(
        self, capsys, tmp_path, command, name, content
    ):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_text(content, encoding="utf-8")
        if command == "generate":
            argv = ("generate", "--seed", "0", "--out", path)
        else:
            argv = (command, path)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    def test_out_of_memory_is_one_line_and_exit_3(self, capsys, monkeypatch):
        # what numpy raises for a tableau too large to allocate, simulated
        def too_large(**kwargs):
            raise MemoryError(
                "Unable to allocate 74.5 GiB for an array with shape "
                "(100002, 100005) and data type float64"
            )

        monkeypatch.setattr(cli, "generate_random_market", too_large)
        code, out, err = run(capsys, "generate", "--seed", "1", "--assets", "100000")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: out of memory: Unable to allocate")

    def test_closed_output_pipe_exits_1_quietly(self, tmp_path):
        # a report of about 250 KB, several times a pipe's buffer
        path = tmp_path / "m.json"
        tree = generate_random_market(seed=0, periods=12, branching=2, assets=1)
        path.write_text(market_to_json(tree), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "mmvport.cli", "analyze", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=package_env(),
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_the_package_runs_as_a_module(self, capsys, trinomial_file):
        code, out, err = run(capsys, "analyze", trinomial_file)
        proc = subprocess.run(
            [sys.executable, "-m", "mmvport", "analyze", str(trinomial_file)],
            capture_output=True,
            env=package_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr.decode()) == (code, err) == (0, "")
        assert proc.stdout.decode() == out

    def test_module_generate_writes_the_bytes_of_main(self, capsys):
        code, out, err = run(capsys, "generate", "--seed", "0")
        proc = subprocess.run(
            [sys.executable, "-m", "mmvport", "generate", "--seed", "0"],
            capture_output=True,
            env=package_env(),
            timeout=60,
        )
        assert (proc.returncode, proc.stderr.decode()) == (code, err) == (0, "")
        assert proc.stdout == out.encode()


def package_env() -> dict:
    """The environment with this checkout's package first on the path."""
    src = str(Path(mmvport.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _around(value):
    """Intervals of ``value`` and its float neighbours on either side."""
    below, above = np.nextafter(value, -math.inf), np.nextafter(value, math.inf)
    return [(below, value), (value, above), (below, above), (value, value)]


@pytest.mark.parametrize("value", [
    float("1.234567890125e-3"),  # halfway between two 12-digit decimals
    float("-1.234567890125e-3"),
    float("9.999999999995"),  # rounds up to 10: the text gains a digit
    0.0,  # an interval through 0
    -0.0,
    5e-324,  # subnormal
    float("2.2250738585072014e-308"),
    float("0.3"),
    math.inf,
])
def test_a_level_is_undecided_exactly_when_its_end_texts_differ(value):
    pairs = _around(value)
    lo, hi = (np.array(ends) for ends in zip(*pairs))
    texts, exact = _certified_texts(lo, hi)
    assert texts == _sig_texts(lo.tolist())
    differ = [i for i, (a, b) in enumerate(pairs)
              if format(a, ".12g") != format(b, ".12g")]
    assert exact == differ
    assert exact == [i for i, (a, b) in enumerate(zip(texts, _sig_texts(hi.tolist())))
                     if a != b]


def test_an_undecided_level_is_left_to_the_kernel():
    texts, exact = _certified_texts(np.array([math.nan, 1.0]), np.array([math.nan, 1.0]))
    assert (texts, exact) == ([None, "1.0"], [0])


def _text_certified(lo, hi):
    """``_certified_texts`` by formatting both ends, as it was first written."""
    unproven = np.isnan(lo)
    known = np.flatnonzero(~unproven)
    texts = np.full(lo.size, None, dtype=object)
    texts[known] = _sig_texts(lo[known].tolist())
    texts = texts.tolist()
    differ = known[lo[known] != hi[known]].tolist()
    ends = _sig_texts(hi[differ].tolist())
    unproven[[i for i, t in zip(differ, ends) if t != texts[i]]] = True
    return texts, np.flatnonzero(unproven).tolist()


def _ulps(x, k):
    """x moved by k floats, toward +inf for k > 0."""
    with np.errstate(over="ignore"):  # the largest float steps to inf
        for _ in range(abs(k)):
            x = np.nextafter(x, math.copysign(math.inf, k))
    return x


def _straddle_pairs():
    """(lo, hi) arrays of float pairs around the 12-digit text boundaries."""
    rng = np.random.default_rng(71)
    pairs = []
    # random floats over every decade, both signs, and their neighbours
    x = rng.choice([-1.0, 1.0], 4000) * rng.uniform(1.0, 10.0, 4000) * 10.0 ** rng.integers(
        -300, 300, 4000).astype(float)
    pairs += [(x, _ulps(x, k)) for k in (1, 2, 3)]
    pairs.append((x, x * (1.0 + rng.uniform(0.0, 1e-11, x.size))))
    pairs.append((-np.abs(x), np.abs(x)))  # one text but for the sign
    # 12-digit texts and the midpoints between them, each +-1 to 3 ulps
    digits = rng.integers(10**11, 10**12, 3000)
    exponents = rng.integers(-60, 60, 3000)
    for text in ("{}.{}e{}", "{}.{}5e{}"):
        t = np.array([float(text.format(d // 10**11, f"{d % 10**11:011d}", e))
                      for d, e in zip(digits.tolist(), exponents.tolist())])
        t *= rng.choice([-1.0, 1.0], t.size)
        pairs += [(_ulps(t, -j), _ulps(t, k)) for j in (0, 1, 3) for k in (0, 1, 2, 3)]
    # exact halves: rounded half to even
    halves = np.array([123456789012.5, 123456789013.5, 999999999999.5, 100000000000.5,
                       1234567890125.0, 1234567890135.0, 12345678901250.0, 9999999999995.0,
                       61728394506.25])
    halves = np.concatenate([halves, -halves, rng.integers(10**11, 10**12, 500) + 0.5])
    pairs += [(_ulps(halves, -j), _ulps(halves, k)) for j in (0, 1) for k in (0, 1)]
    # powers of ten, and the layout switches at 1e-5 and 1e16
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)]
                    + [1e-5, 9.999999999995e-6, 9.99999999999e-6, 1e16, 9.9999999999995e15,
                       9.99999999999e15, 1e-4, 9.9999999999995e-5, 1e12, 999999999999.5])
    tens = np.concatenate([tens, -tens])
    pairs += [(_ulps(tens, -j), _ulps(tens, k)) for j in (0, 1) for k in (0, 1)]
    # subnormals, zeros, infinities and NaN, alone and together
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                        2.225073858507201e-308, 1.7976931348623157e308, math.inf, -math.inf,
                        math.nan, 1e-10, 1e32, 9.99999999999e31, 1e-11])
    a, b = np.meshgrid(special, special)
    pairs.append((a.ravel(), b.ravel()))
    pairs += [(special, _ulps(special, 1))]
    lo, hi = (np.concatenate(ends) for ends in zip(*pairs))
    return np.minimum(lo, hi), np.maximum(lo, hi)


def test_the_numeric_straddle_test_is_the_texts():
    lo, hi = _straddle_pairs()
    alike = _print_alike(lo, hi)
    assert alike.tolist() == [a == b for a, b in zip(_sig_texts(lo.tolist()),
                                                      _sig_texts(hi.tolist()))]
    # the '.12g' texts themselves agree wherever neither end is subnormal
    normal = ~((np.abs(lo) < 2.2250738585072014e-308) & (lo != 0.0)
               | (np.abs(hi) < 2.2250738585072014e-308) & (hi != 0.0))
    assert alike[normal].tolist() == [format(a, ".12g") == format(b, ".12g")
                                      for a, b in zip(lo[normal], hi[normal])]
    assert _certified_texts(lo, hi) == _text_certified(lo, hi)


def test_rounded_digits_are_the_twelve_digit_rounding():
    lo, hi = _straddle_pairs()
    x = np.concatenate([lo, hi])
    m, e, certain = _rounded_digits(x)
    # '.11e' is the '.12g' rounding, always in scientific layout
    want = [format(abs(v), ".11e").split("e") for v in x[certain].tolist()]
    assert [(int(m), int(e)) for m, e in zip(m[certain], e[certain])] == [
        (int(digits.replace(".", "")), int(exponent)) for digits, exponent in want]
    # ties, zeros, subnormals, non-finite floats and the ends of the range
    # are left to the texts
    assert not certain[np.isin(np.abs(x), [123456789012.5, 1234567890125.0, 61728394506.25])].any()
    assert not certain[~np.isfinite(x) | (np.abs(x) < 1e-10) | (np.abs(x) >= 1e32)].any()
    # in its range, all but about 0.2% of floats (those within 1e-3 of a
    # tie) are decided by number
    rng = np.random.default_rng(72)
    x = rng.uniform(1.0, 10.0, 10000) * 10.0 ** rng.integers(-10, 32, 10000).astype(float)
    assert _rounded_digits(x)[2].mean() > 0.99
