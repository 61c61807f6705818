"""Command-line interface with a stable machine-readable output format.

JSON is the contract: a top-level object {"version", "subcommand",
"input_summary", "result"} with deterministic key order, and integers
of magnitude 2^53 or more rendered as decimal strings so nothing is
lost to double precision.  Text output is for people and may change;
CSV is offered where rows are the natural shape (repsearch, gen).

Exit codes: 0 success (verdicts like "inadmissible" are still success),
1 when a requested verification fails, 2 on usage or parse errors, and
141 (128 + SIGPIPE) when the reader closes stdout before the report ends.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import warnings
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .admissible import IntegerSet, check_admissible
from .bounds import (
    corollary_bound,
    guarantee,
    theorem1_bound,
    verify_mertens,
    verify_proof_constants,
)
from .errors import ParseError, PrimeShiftError, ValidationError
from .primes import count_primes
from .prune import greedy_prune
from .representation import SEQUENCE_KINDS, check_top_k, gen_sequence, rep_counts
from .representation import rep_search, romanoff_counts

JSON_VERSION = 1

_JSON_INT_LIMIT = 2**53

# A line holding a '#' after something that is not whitespace: np.loadtxt
# reads "5 # c" as 5, the line parser rejects it.
_INLINE_COMMENT = re.compile(r"^[^\S\n]*[^\s#].*#", re.MULTILINE)


def parse_input_set(path: str) -> IntegerSet:
    """Read newline-separated integers; '#' lines and blanks are skipped.

    Input is sorted; duplicate values are an error because downstream
    math assumes distinct elements.
    """
    values = _loadtxt_values(path)
    if values is None:
        values = _parse_lines(path)
    if not len(values):
        raise ValidationError(f"{path}: no integers found")
    return IntegerSet.from_values(values)


def _loadtxt_values(path: str) -> np.ndarray | None:
    """The file's integers read by np.loadtxt, or None if it may read them
    otherwise than ``_parse_lines``.

    np.loadtxt is given only ASCII text with no '#' after a value, and
    its result counts only if every line held at most one value.  Within
    those limits it accepts what ``int`` accepts after ``str.strip``; it
    rejects the rest ('_' separators, values past int64), which the line
    parser then reads or reports.  Past ASCII it also splits on Unicode
    whitespace and can crash on some astral characters (numpy 2.4).  Any
    ValueError here, undecodable UTF-8 included, leaves the file to the
    line parser, which reports it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
            if not text.isascii() or ("#" in text and _INLINE_COMMENT.search(text)):
                return None
            fh.seek(0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a file with no data
                values = np.loadtxt(fh, dtype=np.int64, comments="#", ndmin=2)
    except ValueError:
        return None
    return values[:, 0] if values.shape[1] == 1 else None


def _parse_lines(path: str) -> list[int]:
    values: list[int] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    values.append(int(line))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: not an integer: {line!r}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return values


def _jsonable(value: Any) -> Any:
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if abs(value) < _JSON_INT_LIMIT else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _set_summary(path: str, int_set: IntegerSet) -> dict[str, Any]:
    return {
        "path": path,
        "size": int_set.size,
        "min": int(int_set.elements[0]),
        "max": int(int_set.elements[-1]),
    }


# Each runner reads the parsed arguments and returns (result, summary,
# exit_code, report); report is the text output, or for repsearch's csv
# format an iterable of csv blocks, with result and summary None.  gen's
# text and csv outputs are the same listing.
def _run_check(args: argparse.Namespace):
    int_set = parse_input_set(args.input)
    cert = check_admissible(int_set)
    result = {
        "verdict": cert.verdict,
        "missed_residues": [[p, r] for p, r in sorted(cert.missed_residues.items())],
        "covered_prime": cert.covered_prime,
    }
    text = [f"verdict: {cert.verdict}"]
    if cert.covered_prime is not None:
        text.append(f"covering prime: {cert.covered_prime}")
    else:
        text.append(f"examined primes: {len(cert.missed_residues)}")
    return result, _set_summary(args.input, int_set), 0, "\n".join(text)


def _run_prune(args: argparse.Namespace):
    int_set = parse_input_set(args.input)
    trace = greedy_prune(int_set)
    result = {
        "input_size": trace.input_size,
        "s": trace.s,
        "stop_prime": trace.stop_prime,
        "final_size": trace.final_size,
        "final_set": trace.final_set.elements.tolist(),
        "steps": [vars(st) for st in trace.steps],
    }
    text = (
        f"pruned {trace.input_size} -> {trace.final_size} elements "
        f"in {trace.s} steps (stop prime {trace.stop_prime})"
    )
    return result, _set_summary(args.input, int_set), 0, text


def _run_guarantee(args: argparse.Namespace):
    int_set = parse_input_set(args.input)
    report = guarantee(int_set)
    text = (
        f"ell={report.ell} ell_s={report.ell_s} s={report.s} "
        f"m={report.m} bound={report.theorem_bound:.6f} "
        f"satisfied={str(report.satisfied).lower()}"
    )
    code = 0 if report.satisfied else 1
    return vars(report), _set_summary(args.input, int_set), code, text


def _run_bound(args: argparse.Namespace):
    ell = args.ell
    x = args.x
    if ell is None and x is None:
        raise ParseError("bound needs --ell and/or --x")
    result: dict[str, Any] = {"theorem1": None, "corollary": None}
    lines = []
    if ell is not None:
        value = theorem1_bound(ell)
        result["theorem1"] = {"ell": ell, "value": value}
        lines.append(f"theorem1_bound({ell}) = {value:.6f}")
    if x is not None:
        value = corollary_bound(x)
        result["corollary"] = {"x": x, "value": value}
        lines.append(f"corollary_bound({x}) = {value:.6f}")
    summary = {"ell": ell, "x": x}
    return result, summary, 0, "\n".join(lines)


def _run_verify_lemmas(args: argparse.Namespace):
    limit = args.mertens_limit
    reports = [verify_mertens(limit)] + verify_proof_constants()
    all_passed = all(r.passed for r in reports)
    result = {"reports": [vars(r) for r in reports], "all_passed": all_passed}
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} (margin {r.margin:.6g})"
        for r in reports
    ]
    return result, {"mertens_limit": limit}, 0 if all_passed else 1, "\n".join(lines)


def _run_repsearch(args: argparse.Namespace):
    int_set = parse_input_set(args.input)
    n_lo = args.n_lo
    n_hi = args.n_hi
    top_k = args.top_k
    if args.format == "csv":
        check_top_k(top_k)
        return None, None, 0, _csv_rows(rep_counts(int_set, n_lo, n_hi))
    profile = rep_search(int_set, n_lo, n_hi, top_k)
    result = {
        "n_lo": n_lo,
        "n_hi": n_hi,
        "top_k": top_k,
        "represented_count": profile.represented_count,
        "total_representations": profile.total_representations,
        "max_count": profile.max_count,
        "records": [[n, c] for n, c in profile.records],
    }
    summary = _set_summary(args.input, int_set)
    summary.update({"from": n_lo, "to": n_hi, "top": top_k})
    text = [
        f"range [{n_lo}, {n_hi}]: {profile.represented_count} represented, "
        f"max count {profile.max_count}"
    ]
    text += [f"  n={n} count={c}" for n, c in profile.records]
    return result, summary, 0, "\n".join(text)


def _csv_rows(chunks: Iterator[tuple[int, np.ndarray]]) -> Iterator[str]:
    """The rows "n,count" of every nonzero count, as one block per 2^16 n,
    so memory holds one chunk's counts and at most 2^16 row strings.
    """
    for c_lo, counts in chunks:
        for b in range(0, counts.size, 1 << 16):
            block = counts[b : b + (1 << 16)]
            nz = np.flatnonzero(block)
            if nz.size:
                rows = zip(nz.tolist(), block[nz].tolist())
                yield "\n".join(f"{c_lo + b + i},{c}" for i, c in rows)
        del counts, block  # before the chunks' source builds the next chunk


def _run_romanoff(args: argparse.Namespace):
    limit = args.limit
    k_min = args.k_min
    representable, odd_count = romanoff_counts(limit, k_min)
    result = {
        "limit": limit,
        "k_min": k_min,
        "odd_count": odd_count,
        "representable_count": representable,
        "density": representable / odd_count,
    }
    text = f"density({limit}, k_min={k_min}) = {representable / odd_count:.6f}"
    return result, {"limit": limit, "k_min": k_min}, 0, text


def _run_gen(args: argparse.Namespace):
    kind = args.kind
    count = args.count
    ratio = args.ratio
    out = args.out
    elements = gen_sequence(kind, count, ratio).elements.tolist()
    listing = "\n".join(str(a) for a in elements)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(listing + "\n")
    result = {
        "kind": kind,
        "count": count,
        "seed_ratio": ratio if kind == "divisor_chain" else None,
        "elements": elements,
    }
    summary = {"kind": kind, "count": count, "ratio": ratio}
    return result, summary, 0, listing


def _run_primes(args: argparse.Namespace):
    limit = args.limit
    count, largest = count_primes(limit)
    result = {"limit": limit, "count": count, "largest": largest}
    text = f"{count} primes up to {limit} (largest {largest})"
    return result, {"limit": limit}, 0, text


def dispatch(args: argparse.Namespace) -> tuple[int, str | Iterable[str]]:
    """Run the parsed subcommand's runner; returns (exit_code, report).

    Exit 2 reports are error messages, others are in the requested
    format: repsearch's csv report is an iterable of text blocks, each
    one or more lines, and every other report one string.  Output is a
    pure function of the arguments, so identical runs give identical bytes.
    """
    try:
        result, summary, code, report = args.run(args)
    except (PrimeShiftError, OSError) as exc:
        return 2, f"error: {exc}"
    if args.format != "json":
        return code, report
    envelope = {
        "version": JSON_VERSION,
        "subcommand": args.subcommand,
        "input_summary": _jsonable(summary),
        "result": _jsonable(result),
    }
    return code, json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeshift",
        description="Admissible-set pruning and shifted-prime representation toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(
        name: str, run: Callable[[argparse.Namespace], tuple], help_text: str, *formats: str
    ) -> argparse.ArgumentParser:
        """A subparser that binds ``run``; json and text output, plus ``formats``."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "text", *formats), default="json")
        p.set_defaults(run=run)
        return p

    p = command("check", _run_check, "admissibility certificate for a set file")
    p.add_argument("input")

    p = command("prune", _run_prune, "greedy pruning trace for a set file")
    p.add_argument("input")

    p = command("guarantee", _run_guarantee, "representation guarantee for a set file")
    p.add_argument("input")

    p = command("bound", _run_bound, "evaluate the closed-form bounds")
    p.add_argument("--ell", type=int)
    p.add_argument("--x", type=float)

    p = command("verify-lemmas", _run_verify_lemmas, "run every numeric verifier")
    p.add_argument("--mertens-limit", type=int, default=10**6)

    p = command("repsearch", _run_repsearch, "representation counts over a range", "csv")
    p.add_argument("input")
    p.add_argument("--from", dest="n_lo", type=int, required=True)
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    p.add_argument("--top", dest="top_k", type=int, default=10)

    p = command("romanoff", _run_romanoff, "density of odd prime-plus-power-of-two sums")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--k-min", dest="k_min", type=int, choices=(0, 1), default=1)

    p = command("gen", _run_gen, "emit a stock sequence", "csv")
    p.add_argument("--kind", choices=SEQUENCE_KINDS, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--ratio", type=int, default=2)
    p.add_argument("--out")

    p = command("primes", _run_primes, "prime table statistics")
    p.add_argument("--limit", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    code, report = dispatch(build_parser().parse_args(argv))
    if code == 2:
        print(report, file=sys.stderr)
        return code
    try:
        for block in (report,) if isinstance(report, str) else report:
            print(block)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit-time flush
    except BrokenPipeError:
        # Point stdout at devnull so that the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
