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

Exit codes: 0 success, 1 closed output pipe, 2 bad input
(parse/validation, or a file the OS refuses to read or write),
3 solver or verification failure, or a request too large for the memory
available (such as ``generate --assets 100000``, whose viability program
alone would need tens of GB), 4 mathematically degenerate request
(e.g. monotone Sharpe of a law with nonpositive mean and real downside).
Infinite values are serialized as the strings "inf"/"-inf".
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import json.encoder
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import (
    CertificateInvalid,
    DomainError,
    InputError,
    ParseError,
    SolverError,
    ValidationError,
)
from .fcfs import _sig, analyze, report_to_dict, verify_fcfs_certificate
from .market import generate_random_market, load_market, market_to_json
from .monotone_sharpe import monotone_sharpe
from .probability import (
    DiscreteLaw,
    RandomVariable,
    _capped_sharpe_ratios,
    _normalized,
    mean,
    sharpe_ratio,
)
from .selftest import run_selftest

__all__ = ["main"]

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


def _fmt_number(value):
    """12-significant-digit float, with infinities as strings."""
    if value is None:
        return None
    value = _sig(float(value))
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _write_output(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _float_lists(lists, indent: str) -> list:
    """The ``json.dumps(v, indent=2)`` text of each list of floats v, ``indent`` deep.

    All the floats go through the C encoder in one call, whose ", "
    separators are then split: a float's text never contains ", ".
    """
    inner = indent + "  "
    sep = ",\n" + inner
    flat = json.dumps(list(itertools.chain.from_iterable(lists)))[1:-1].split(", ")
    texts, i = [], 0
    for v in lists:
        j = i + len(v)
        texts.append(f"[\n{inner}{sep.join(flat[i:j])}\n{indent}]" if v else "[]")
        i = j
    return texts


def _floats_only(values) -> bool:
    return set(map(type, values)) <= {float}


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value nested ``indent`` deep.

    ``value`` is built of dicts with string keys, lists and scalars, as a
    report is.  Its vectors are lists of floats, alone or as the values of
    a dict (the strategy); they are written by :func:`_float_lists`, which
    takes a few C-encoder calls where the indented encoder takes a Python
    call per float.
    """
    inner = indent + "  "
    if isinstance(value, list) and _floats_only(value):
        return _float_lists([value], indent)[0]
    if isinstance(value, dict) and value:
        values = list(value.values())
        if all(type(v) is list for v in values) and _floats_only(
            itertools.chain.from_iterable(values)
        ):
            texts = _float_lists(values, inner)
        else:
            texts = [_json_text(v, inner) for v in values]
        keys = map(json.encoder.encode_basestring_ascii, value)
        items = ",\n".join(f"{inner}{k}: {t}" for k, t in zip(keys, texts))
        return f"{{\n{items}\n{indent}}}"
    if isinstance(value, list) and value:
        items = ",\n".join(inner + _json_text(v, inner) for v in value)
        return f"[\n{items}\n{indent}]"
    return json.dumps(value)  # a scalar, [] or {}


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


def cmd_analyze(args: argparse.Namespace) -> int:
    tasks = [(path, args.verify) for path in args.inputs]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            payloads = list(pool.map(_analyze_path, tasks))
    else:
        payloads = [_analyze_path(task) for task in tasks]

    rows = list(zip(args.inputs, payloads))
    if args.format == "csv":
        text = _reports_to_csv(rows)
    elif len(payloads) == 1:
        text = _json_text(payloads[0])
    else:
        text = _json_text(
            [{"input": path, "report": payload} for path, payload in rows]
        )
    _write_output(text, args.out)

    if args.verify and any(
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


def _row_lines(path: str) -> list:
    """The line of ``path`` on which each CSV row with visible text starts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lines, start = [], 1
        for row in reader:
            if "".join(row).strip():
                lines.append(start)
            start = reader.line_num + 1
    return lines


def _read_law(path: str, col: str | None) -> RandomVariable:
    """Read a sampled law from CSV: values plus optional weight column.

    Rows with no visible text are skipped; the first row is a header when
    one of its cells is not a number.  A refused cell is named by the line
    of the file its row starts on, and its text.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: invalid CSV ({exc})") from exc
    raw = list(itertools.compress(rows, map(str.strip, map("".join, rows))))
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
    if len(set(map(len, body))) != 1:
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

    def line(i: int) -> int:  # the line of body[i]; read only to name a cell
        return _row_lines(path)[i + (header is not None)]

    def column(idx: int, label: str) -> np.ndarray:
        cells = [row[idx].strip() for row in body]
        try:
            return np.array(list(map(float, cells)))
        except ValueError:
            i, cell = next((i, c) for i, c in enumerate(cells) if not _is_number(c))
            raise ParseError(
                f"{path}:{line(i)}: {label} column has non-numeric {cell!r}"
            ) from None

    def refuse(ok: np.ndarray, idx: int, label: str, what) -> None:
        # name the first cell where ok is False, and what(i) is wrong with it
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValidationError(
                f"{path}:{line(i)}: {label} column has {what(i)} "
                f"{body[i][idx].strip()!r}"
            )

    values = column(indices[0], "value")
    if len(indices) == 2:
        weights = column(indices[1], "weight")
        finite = np.isfinite(weights)
        refuse(finite & (weights > 0.0), indices[1], "weight",
               lambda i: "non-positive" if finite[i] else "non-finite")
        probabilities = _normalized(weights)
        refuse(probabilities > 0.0, indices[1], "weight",
               lambda i: "underflowing")  # its probability rounds to 0
        law = DiscreteLaw(probabilities)
    else:
        law = DiscreteLaw.uniform(values.size)
    refuse(np.isfinite(values), indices[0], "value", lambda i: "non-finite")
    return RandomVariable(law, values)


def _repr_layout(text: str) -> str:
    """``repr(float(text))`` for a ``'.12g'`` text."""
    mantissa, e, exponent = text.partition("e")
    if not e:
        return text if text.lstrip("-") in ("inf", "nan") else text + ".0"
    exponent = int(exponent)
    if exponent <= -308:  # near or below the normal range: fewer digits may do
        return repr(float(text))
    if not 12 <= exponent <= 15:
        return text
    sign = "-" if mantissa.startswith("-") else ""
    digits = mantissa.lstrip("-").replace(".", "")
    return f"{sign}{digits.ljust(exponent + 1, '0')}.0"


def _sig_texts(values) -> list:
    """``[repr(_sig(v)) for v in values]``, formatting each float once.

    A decimal of at most 15 significant digits is the shortest text of the
    double nearest to it, when that double is normal, so the repr of a
    double read from a ``'.12g'`` text has the text's digits.  Only the
    layout differs: repr writes exponents 12 to 15 in positional form and
    ends an integer with ".0" (``_repr_layout``); every other text is
    already the repr.
    """
    texts = map(format, values, itertools.repeat(".12g"))
    return [t if "." in t and "e" not in t else _repr_layout(t) for t in texts]


def _cap_sweep_csv(X: RandomVariable) -> str:
    """The level,sharpe table, as ``csv.writer`` writes ``_fmt_number`` of each."""
    vmax = float(X.values.max())
    top = vmax if vmax > 0 else 1.0
    atoms = np.unique(X.values[X.values > 0])
    levels = np.unique(np.concatenate([atoms, np.linspace(top / 400, top, 400)]))
    ratios = _capped_sharpe_ratios(X, levels)
    rows = zip(_sig_texts(levels.tolist()), _sig_texts(ratios.tolist()))
    return "level,sharpe\n" + "".join(f"{a},{b}\n" for a, b in rows)


def cmd_msharpe(args: argparse.Namespace) -> int:
    X = _read_law(args.input, args.col)
    if args.format == "csv":
        _write_output(_cap_sweep_csv(X), args.out)
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
    _write_output(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    tree = generate_random_market(
        seed=args.seed,
        periods=args.periods,
        branching=args.branching,
        assets=args.assets,
        spread=args.spread,
    )
    _write_output(market_to_json(tree), args.out)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(quick=args.quick)
    return 0 if all(r.passed for r in results) else 3


@functools.cache  # built once per process; parse_args leaves it unchanged
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
    p.set_defaults(run=cmd_analyze)

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
    p.set_defaults(run=cmd_msharpe)

    p = sub.add_parser("generate", help="generate a random viable market")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--periods", type=int, default=2)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--assets", type=int, default=1)
    p.add_argument("--spread", type=float, default=0.3)
    p.add_argument("--out", help="write the market here instead of stdout")
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("selftest", help="run the built-in acceptance suite")
    p.add_argument(
        "--quick",
        action="store_true",
        help="smaller sampled suites, identical tolerances",
    )
    p.set_defaults(run=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull so the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, CertificateInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
