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

Every float ``analyze`` and ``msharpe`` print follows one rule, whose home
is :func:`mmvport.fcfs._twelve_digits`: 12 significant digits, formatted
once from the engine's float (:func:`mmvport.fcfs._sig_texts`).  JSON
writes inf, -inf and nan as the strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import json.encoder
import logging
import os
import sys

import numpy as np

from .errors import (
    CertificateInvalid,
    DomainError,
    InputError,
    ParseError,
    SolverError,
    ValidationError,
)
from .fcfs import (
    _NUMBERS,
    _print_alike,
    _report_fields,
    _sig_texts,
    analyze,
    verify_fcfs_certificate,
)
from .market import generate_random_market, load_market, market_to_json
from .monotone_sharpe import monotone_sharpe
from .probability import (
    DiscreteLaw,
    RandomVariable,
    _capped_sharpe_bounds,
    _capped_sharpe_ratios,
    _normalized,
    mean,
    sharpe_ratio,
)

__all__ = ["main"]

_log = logging.getLogger(__name__)

_CSV_FLAGS = ("equiv_a", "equiv_b", "equiv_c", "equiv_d", "fcfs_exists", "marginal")

# the characters str.strip removes, and the comma: a CSV line of only
# these is a row with no visible text
_BLANK = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000,"
)

# the JSON text of a number text that is no JSON number
_QUOTED = {"inf": '"inf"', "-inf": '"-inf"', "nan": '"nan"'}
# the JSON text of the constants, which json.dumps takes about 2 us to write
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _write_output(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _is_vector(value) -> bool:
    """Whether ``value`` is a list of floats: empty or starting with one."""
    return type(value) is list and (not value or isinstance(value[0], float))


def _vector_texts(vectors, indent: str) -> list:
    """The JSON text of each list of floats in ``vectors``, nested ``indent``
    deep, from one formatting call for all of their floats."""
    inner = indent + "  "
    sep = ",\n" + inner
    flat = _sig_texts(itertools.chain.from_iterable(vectors))
    flat = list(map(_QUOTED.get, flat, flat))
    bounds = itertools.pairwise(itertools.accumulate(map(len, vectors), initial=0))
    return [
        f"[\n{inner}{sep.join(flat[i:j])}\n{indent}]" if i < j else "[]"
        for i, j in bounds
    ]


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)`` for a value nested ``indent`` deep,
    with every float written by the 12-digit rule of :mod:`mmvport.fcfs`.

    ``value`` is built of dicts with string keys, lists and scalars, as a
    report is; a list that starts with a float holds only floats.  Such
    vectors, alone or as all the values of a dict (the strategy), are
    written by :func:`_vector_texts`, one formatting call for all of them.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        values = list(value.values())
        if all(map(_is_vector, values)):
            texts = _vector_texts(values, inner)
        else:
            texts = [_json_text(v, inner) for v in values]
        keys = map(json.encoder.encode_basestring_ascii, value)
        items = ",\n".join(f"{inner}{k}: {t}" for k, t in zip(keys, texts))
        return f"{{\n{items}\n{indent}}}"
    if _is_vector(value):
        return _vector_texts([value], indent)[0]
    if isinstance(value, list):
        items = ",\n".join(inner + _json_text(v, inner) for v in value)
        return f"[\n{items}\n{indent}]"
    if isinstance(value, float):
        text = _sig_texts([value])[0]
        return _QUOTED.get(text, text)
    if value is None or type(value) is bool:
        return _CONSTANTS[value]
    return json.dumps(value)  # a str or {}


def _analyze_path(task) -> dict:
    path, verify = task
    report = analyze(load_market(path))
    payload = _report_fields(report, list)
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("input",) + _NUMBERS + _CSV_FLAGS)
    for path, payload in rows:
        flags = [payload["equiv"][k] for k in "abcd"]
        flags += [payload["fcfs_exists"], payload["marginal"]]
        numbers = _sig_texts(payload[name] for name in _NUMBERS)
        writer.writerow([path, *numbers, *(str(f).lower() for f in flags)])
    return buf.getvalue()


def cmd_analyze(args: argparse.Namespace) -> int:
    tasks = [(path, args.verify) for path in args.inputs]
    if args.jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays for it
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            payloads = list(pool.map(_analyze_path, tasks))
    else:
        payloads = list(map(_analyze_path, tasks))

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


def _law_text(path: str) -> str:
    """The text of a law file, read once.  A text that is not UTF-8 is read
    again row by row, as the csv module reads it, to name the byte."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                return fh.read()
            except UnicodeDecodeError:
                fh.seek(0)
                for _ in csv.reader(fh):
                    pass
                raise
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: invalid CSV ({exc})") from exc


def _law_rows(path: str, text: str, screen: bool) -> tuple:
    """The rows of a law file's text, split once: the first row's cells,
    the set of the other rows' widths, their cells in file order, and the
    line each row starts on, or None where no row was screened.

    Where the csv module's dialect is plain splitting, in a text with no
    quote, no carriage return and no line longer than
    ``csv.field_size_limit()``, the text is split with ``str`` methods:
    lines at "\\n", a row's width one more than its commas, and the cells
    of the later rows one split of them joined; a text with no comma is
    one column, its lines its cells.  Any other text is split by
    ``csv.reader``, which refuses a cell past the limit and counts the
    lines each row spans.

    The rows returned are those with visible text (not only commas and
    whitespace), except that without ``screen`` a plain text whose first
    line is visible keeps every line but the empty one after a final
    "\\n": no row is looked at, and row i is line i + 1.  Each row a
    screen would drop then has a cell that is no number, or a width
    unlike its neighbours'.
    """
    lines = None
    limit = csv.field_size_limit()
    if '"' not in text and "\r" not in text:
        lines = text.split("\n")
        if len(text) > limit and max(map(len, lines)) > limit:
            lines = None
    if lines is None:
        reader = csv.reader(io.StringIO(text, newline=""))
        rows, starts, start = [], [], 1
        try:
            for row in reader:
                if "".join(row).strip():
                    rows.append(row)
                    starts.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ParseError(f"{path}: invalid CSV ({exc})") from exc
    elif screen or not lines[0].strip(_BLANK):
        visible = list(map(str.strip, lines, itertools.repeat(_BLANK)))
        rows = list(itertools.compress(lines, visible))
        starts = list(itertools.compress(range(1, len(lines) + 1), visible))
    else:
        rows = lines[:-1] if text.endswith("\n") else lines
        starts = None
    if not rows:
        raise ParseError(f"{path}: no rows")
    first, rest = rows[0], rows[1:]
    if lines is None:
        cells = list(itertools.chain.from_iterable(rest))
        return first, set(map(len, rest)), cells, starts
    if "," not in text:
        return [first], {1} if rest else set(), rest, starts
    commas = set(map(str.count, rest, itertools.repeat(",")))
    cells = ",".join(rest).split(",") if rest else []
    return first.split(","), {k + 1 for k in commas}, cells, starts


def _read_law(path: str, col: str | None) -> RandomVariable:
    """Read a sampled law from CSV: values plus optional weight column.

    Rows with no visible text are skipped; the first row is a header when
    one of its cells is not a number.  A refused cell is named by the line
    of the file its row starts on, and its text.

    The file is read once (:func:`_law_text`) and its rows split once
    (:func:`_law_rows`), at first without looking for rows with no
    visible text; each column is then one ``float`` map over its cells.
    A row with no visible text makes that map or the width check fail, so
    any refusal met on the way splits the text again with its rows
    screened, which decides what is refused and how.
    """
    text = _law_text(path)
    try:
        return _law_from_rows(path, col, *_law_rows(path, text, screen=False))
    except (ParseError, ValueError):
        return _law_from_rows(path, col, *_law_rows(path, text, screen=True))


def _law_from_rows(path, col, first, widths, cells, starts) -> RandomVariable:
    """The law of the rows :func:`_law_rows` returns; ``starts``, the line
    each row starts on, is None where the rows with no visible text were
    not dropped.  Then a cell that is no number raises ValueError instead
    of being named."""
    header = None
    if any(not _is_number(c) for c in first if c.strip()):
        header = [c.strip() for c in first]
    else:
        widths.add(len(first))
        cells = first + cells
    if not widths:
        raise ParseError(f"{path}: header but no data rows")

    if len(widths) != 1:
        raise ParseError(f"{path}: rows have inconsistent column counts")
    width = widths.pop()
    n = len(cells) // width

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

    def line(i: int) -> int:  # the line body row i starts on
        row = i + (header is not None)
        return row + 1 if starts is None else starts[row]

    def column(idx: int, label: str) -> np.ndarray:
        try:
            return np.fromiter(map(float, cells[idx::width]), float, n)
        except ValueError:  # float strips fewer characters than str.strip
            if starts is None:
                raise
            stripped = [c.strip() for c in cells[idx::width]]
        bad = next((i for i, c in enumerate(stripped) if not _is_number(c)), None)
        if bad is not None:
            raise ParseError(
                f"{path}:{line(bad)}: {label} column has non-numeric "
                f"{stripped[bad]!r}"
            )
        return np.fromiter(map(float, stripped), float, n)

    def refuse(ok: np.ndarray, idx: int, label: str, what) -> None:
        # name the first cell where ok is False, and what(i) is wrong with it
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValidationError(
                f"{path}:{line(i)}: {label} column has {what(i)} "
                f"{cells[i * width + idx].strip()!r}"
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


def _certified_texts(lo: np.ndarray, hi: np.ndarray) -> tuple[list, list]:
    """The output text of each lo, and the indices where it is not proven.

    With lo <= R <= hi, R has the text both ends have: the 12-digit text is
    correctly rounded, hence monotone in the float, and so is reading it
    back, so the text of R lies between equal texts.  An index is unproven
    where lo is NaN (its text is None) or the ends print differently.  Only
    lo is formatted: whether hi prints alike is decided by number where
    that is certain, next to the 12-digit rule (``fcfs._print_alike``).
    """
    unproven = np.isnan(lo)
    known = np.flatnonzero(~unproven)
    texts = np.full(lo.size, None, dtype=object)
    texts[known] = _sig_texts(lo[known].tolist())
    differ = known[lo[known] != hi[known]]
    unproven[differ[~_print_alike(lo[differ], hi[differ])]] = True
    return texts.tolist(), np.flatnonzero(unproven).tolist()


def _cap_sweep_csv(X: RandomVariable) -> str:
    """The level,sharpe table, each number by the 12-digit rule.

    The levels are the positive atoms and a 400-point grid on (0, max X],
    or on (0, 1] when no atom is positive; grid points that underflow to 0
    (max X below 400 times the least subnormal) are left out.

    Each ratio's text is that of the exact pass
    (``probability._capped_sharpe_ratios``, the package's one Sharpe-ratio
    computation), but that pass runs only where it must:
    ``probability._capped_sharpe_bounds`` bounds every level's ratio by two
    floats, and a level whose two ends print alike has lo's text
    (``_certified_texts``, which formats lo only).  The other levels,
    undecided or with ends of two texts, go to the exact pass together, in
    one call.  One DEBUG record on this module's logger gives the counts.
    """
    vmax = float(X.values.max())
    top = vmax if vmax > 0 else 1.0
    atoms = np.unique(X.values[X.values > 0])
    grid = np.linspace(top / 400, top, 400)
    levels = np.unique(np.concatenate([atoms, grid[grid > 0.0]]))
    texts, exact = _certified_texts(*_capped_sharpe_bounds(X, levels))
    if exact:
        for i, t in zip(exact, _sig_texts(_capped_sharpe_ratios(X, levels[exact]).tolist())):
            texts[i] = t
    _log.debug("cap sweep: %d levels, %d certified, %d to the exact pass",
               levels.size, levels.size - len(exact), len(exact))
    rows = zip(_sig_texts(levels.tolist()), texts)
    return "level,sharpe\n" + "".join(f"{a},{b}\n" for a, b in rows)


def cmd_msharpe(args: argparse.Namespace) -> int:
    X = _read_law(args.input, args.col)
    if args.format == "csv":
        _write_output(_cap_sweep_csv(X), args.out)
        return 0
    result = monotone_sharpe(X)
    payload = {
        "mean": mean(X),
        "sharpe": sharpe_ratio(X),
        "sr_m": result.sr_m,
        "alpha_hat": result.alpha_hat,
        "truncation_level": result.truncation_level,
        "case_tag": result.case_tag,
    }
    _write_output(_json_text(payload), args.out)
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
    from .selftest import run_selftest
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
