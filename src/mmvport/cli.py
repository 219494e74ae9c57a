"""Command-line front-end.

Four subcommands:

``analyze``
    Run the full free cash-flow analysis on one or more market JSON
    files.  One file prints a single report; several print a JSON array
    of ``{"input": path, "report": {...}}`` in input order (``--jobs N``
    fans the solves out over worker processes without changing the
    order).  ``--format csv`` flattens the scalar fields into one row
    per market, handy for parameter sweeps; ``--verify`` re-derives the
    free cash-flow certificate whenever one is claimed.

``msharpe``
    Monotone Sharpe ratio of a sampled payoff law read from CSV: one
    numeric column is an equally weighted sample, two are value,weight
    pairs, wider files need ``--col``.  ``--format csv`` emits the
    cap-sweep table level,sharpe instead of the summary object.

``generate``
    Write a random viable market, deterministic in ``--seed``.

``selftest``
    Run the built-in acceptance suite (see :mod:`mmvport.selftest`).

Exit codes: 0 success, 2 bad input (parse/validation/missing file),
3 solver or verification failure, 4 mathematically degenerate request
(e.g. monotone Sharpe of a law with nonpositive mean and real downside).
Infinite values are serialized as the strings "inf"/"-inf".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateInvalid,
    DomainError,
    InputError,
    ParseError,
    SolverError,
)
from .fcfs import analyze, report_to_dict, verify_fcfs_certificate
from .market import generate_random_market, load_market, market_to_json
from .monotone_sharpe import monotone_sharpe
from .probability import (
    DiscreteLaw,
    RandomVariable,
    _capped_sharpe_ratios,
    mean,
    sharpe_ratio,
)
from .selftest import run_selftest

__all__ = ["RunConfig", "main"]

_CSV_FIELDS = (
    "u",
    "u_m",
    "u_mv",
    "u_mmv",
    "sr_max",
    "sr_m_max",
    "c_hat_m",
    "equiv_a",
    "equiv_b",
    "equiv_c",
    "equiv_d",
    "fcfs_exists",
    "marginal",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, parsed and validated."""

    command: str
    input_paths: tuple = ()
    output_path: str | None = None
    fmt: str = "json"
    col: str | None = None
    seed: int | None = None
    periods: int = 2
    branching: int = 2
    assets: int = 1
    spread: float = 0.3
    jobs: int = 1
    verify: bool = False
    quick: bool = False


def _fmt_number(value):
    """12-significant-digit float, with infinities as strings."""
    if value is None:
        return None
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(f"{value:.12g}")


def _write_output(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _analyze_path(task) -> dict:
    path, verify = task
    report = analyze(load_market(path))
    payload = report_to_dict(report)
    if verify:
        if report.fcfs_exists:
            try:
                verify_fcfs_certificate(report)
                payload["certificate_valid"] = True
            except CertificateInvalid as exc:
                payload["certificate_valid"] = False
                payload["certificate_error"] = str(exc)
        else:
            payload["certificate_valid"] = None
    return payload


def _reports_to_csv(rows) -> str:
    fields = ("input",) + _CSV_FIELDS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for path, payload in rows:
        record = dict(payload)
        for key in "abcd":
            record[f"equiv_{key}"] = record["equiv"][key]
        row = [path]
        for name in _CSV_FIELDS:
            value = record[name]
            row.append(str(value).lower() if isinstance(value, bool) else value)
        writer.writerow(row)
    return buf.getvalue()


def cmd_analyze(config: RunConfig) -> int:
    tasks = [(path, config.verify) for path in config.input_paths]
    if config.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            payloads = list(pool.map(_analyze_path, tasks))
    else:
        payloads = [_analyze_path(task) for task in tasks]

    rows = list(zip(config.input_paths, payloads))
    if config.fmt == "csv":
        text = _reports_to_csv(rows)
    elif len(payloads) == 1:
        text = json.dumps(payloads[0], indent=2)
    else:
        text = json.dumps(
            [{"input": path, "report": payload} for path, payload in rows],
            indent=2,
        )
    _write_output(text, config.output_path)

    if config.verify and any(
        payload.get("certificate_valid") is False for payload in payloads
    ):
        print("error: certificate verification failed", file=sys.stderr)
        return 3
    return 0


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _resolve_column(token: str, header, path: str) -> int:
    token = token.strip()
    if header is not None and token in header:
        return header.index(token)
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            f"{path}: column {token!r} is neither a header name nor an index"
        ) from None


def _read_law(path: str, col: str | None) -> RandomVariable:
    """Read a sampled law from CSV: values plus optional weight column."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise ParseError(f"{path}: no rows")

    header = None
    body = raw
    if any(not _is_number(c) for c in raw[0] if c.strip()):
        header = [c.strip() for c in raw[0]]
        body = raw[1:]
    if not body:
        raise ParseError(f"{path}: header but no data rows")

    width = len(body[0])
    if any(len(row) != width for row in body):
        raise ParseError(f"{path}: rows have inconsistent column counts")

    if col is not None:
        tokens = [t for t in col.split(",") if t.strip()]
        if len(tokens) not in (1, 2):
            raise ParseError("--col takes one or two comma-separated columns")
        indices = [_resolve_column(t, header, path) for t in tokens]
    elif width == 1:
        indices = [0]
    elif width == 2:
        indices = [0, 1]
    else:
        raise ParseError(
            f"{path}: {width} columns; pick the value (and optional "
            "weight) column with --col"
        )
    for idx in indices:
        if not 0 <= idx < width:
            raise ParseError(f"{path}: column index {idx} out of range")

    def _column(idx: int, label: str):
        out = []
        for lineno, row in enumerate(body, start=2 if header else 1):
            cell = row[idx].strip()
            if not _is_number(cell):
                raise ParseError(
                    f"{path}:{lineno}: {label} column has non-numeric {cell!r}"
                )
            out.append(float(cell))
        return out

    values = _column(indices[0], "value")
    if len(indices) == 2:
        weights = _column(indices[1], "weight")
        law = DiscreteLaw.from_weights(weights)
    else:
        law = DiscreteLaw.uniform(len(values))
    return RandomVariable(law, values)


def _cap_sweep_csv(X: RandomVariable) -> str:
    vmax = float(X.values.max())
    top = vmax if vmax > 0 else 1.0
    atoms = np.unique(X.values[X.values > 0])
    levels = np.unique(np.concatenate([atoms, np.linspace(top / 400, top, 400)]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["level", "sharpe"])
    ratios = _capped_sharpe_ratios(X, levels)
    for level, ratio in zip(levels.tolist(), ratios.tolist()):
        writer.writerow([_fmt_number(level), _fmt_number(ratio)])
    return buf.getvalue()


def cmd_msharpe(config: RunConfig) -> int:
    X = _read_law(config.input_paths[0], config.col)
    if config.fmt == "csv":
        _write_output(_cap_sweep_csv(X), config.output_path)
        return 0
    result = monotone_sharpe(X)
    payload = {
        "mean": _fmt_number(mean(X)),
        "sharpe": _fmt_number(sharpe_ratio(X)),
        "sr_m": _fmt_number(result.sr_m),
        "alpha_hat": _fmt_number(result.alpha_hat),
        "truncation_level": _fmt_number(result.truncation_level),
        "case_tag": result.case_tag,
    }
    _write_output(json.dumps(payload, indent=2), config.output_path)
    return 0


def cmd_generate(config: RunConfig) -> int:
    tree = generate_random_market(
        seed=config.seed,
        periods=config.periods,
        branching=config.branching,
        assets=config.assets,
        spread=config.spread,
    )
    _write_output(market_to_json(tree), config.output_path)
    return 0


def cmd_selftest(config: RunConfig) -> int:
    results = run_selftest(quick=config.quick)
    return 0 if all(r.passed for r in results) else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmvport",
        description=(
            "Monotone mean-variance allocations, monotone Sharpe ratios and "
            "free cash-flow certificates on scenario-tree markets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze market JSON files")
    p.add_argument("inputs", nargs="+", metavar="FILE", help="market JSON files")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-derive any claimed free cash-flow certificate",
    )

    p = sub.add_parser("msharpe", help="monotone Sharpe ratio of a CSV sample")
    p.add_argument("input", metavar="FILE", help="CSV of values or value,weight")
    p.add_argument(
        "--col",
        help="value column, or value,weight columns (header names or indices)",
    )
    p.add_argument("--out", help="write the result here instead of stdout")
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="json summary or csv cap-sweep table level,sharpe",
    )

    p = sub.add_parser("generate", help="generate a random viable market")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--periods", type=int, default=2)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--assets", type=int, default=1)
    p.add_argument("--spread", type=float, default=0.3)
    p.add_argument("--out", help="write the market here instead of stdout")

    p = sub.add_parser("selftest", help="run the built-in acceptance suite")
    p.add_argument(
        "--quick",
        action="store_true",
        help="smaller sampled suites, identical tolerances",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "analyze":
        return RunConfig(
            command="analyze",
            input_paths=tuple(args.inputs),
            output_path=args.out,
            fmt=args.format,
            jobs=max(1, args.jobs),
            verify=args.verify,
        )
    if args.command == "msharpe":
        return RunConfig(
            command="msharpe",
            input_paths=(args.input,),
            output_path=args.out,
            fmt=args.format,
            col=args.col,
        )
    if args.command == "generate":
        return RunConfig(
            command="generate",
            seed=args.seed,
            periods=args.periods,
            branching=args.branching,
            assets=args.assets,
            spread=args.spread,
            output_path=args.out,
        )
    return RunConfig(command="selftest", quick=args.quick)


_COMMANDS = {
    "analyze": cmd_analyze,
    "msharpe": cmd_msharpe,
    "generate": cmd_generate,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        return _COMMANDS[config.command](config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, CertificateInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
