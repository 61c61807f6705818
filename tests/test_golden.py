"""Golden stdout bytes for every subcommand on small fixed inputs.

Each case runs ``primeshift.cli.main`` from inside ``tests/golden`` (the
input paths are echoed in the JSON summary, so they stay relative) and
compares stdout with ``tests/golden/<case>.<ext>`` byte for byte.  The
repsearch cases reach each internal path: one shared prime window, one
window per element (spread above ``_SPREAD_MAX``), windows below zero,
windows across 10^12, where the base primes stop at 10^6, and the wide
``repsearch_sparse`` range.  No case reaches the is_prime confirmation,
which starts at (10^6 + 1)^2; tests/test_primes.py and
tests/test_rep_paths.py check it.

A golden file changes only when the output contract changes on purpose.
To rewrite them after such a change: ``python tests/test_golden.py``.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    # Run as a script, rewrite the goldens from this checkout's src/.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from primeshift.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXT = {"json": "json", "text": "txt", "csv": "csv"}

# name -> (argv without --format, formats); every case exits 0
CASES = {
    "check_admissible": (["check", "inputs/small.txt"], ("json", "text")),
    "check_covered": (["check", "inputs/range.txt"], ("json", "text")),
    "prune": (["prune", "inputs/range.txt"], ("json", "text")),
    "guarantee": (["guarantee", "inputs/range.txt"], ("json", "text")),
    "bound": (["bound", "--ell", "200000", "--x", "1e6"], ("json", "text")),
    "bound_x": (["bound", "--x", "20"], ("json", "text")),
    "verify_lemmas": (["verify-lemmas", "--mertens-limit", "10000"], ("json", "text")),
    "repsearch_shared": (
        ["repsearch", "inputs/small.txt", "--from", "2", "--to", "300", "--top", "5"],
        ("json", "text", "csv"),
    ),
    "repsearch_spread": (
        ["repsearch", "inputs/spread.txt", "--from", "100000000", "--to", "100001000", "--top", "4"],
        ("json", "text", "csv"),
    ),
    "repsearch_negative": (
        ["repsearch", "inputs/offset.txt", "--from", "-100", "--to", "600", "--top", "3"],
        ("json", "text", "csv"),
    ),
    "repsearch_far": (
        ["repsearch", "inputs/small.txt", "--from", "999999999960", "--to", "1000000000040", "--top", "3"],
        ("json", "text", "csv"),
    ),
    "repsearch_sparse": (
        ["repsearch", "inputs/small.txt", "--from", "0", "--to", "1100000", "--top", "5"],
        ("json", "text"),
    ),
    "romanoff": (["romanoff", "--limit", "10000"], ("json", "text")),
    "romanoff_k0": (["romanoff", "--limit", "1000", "--k-min", "0"], ("json", "text")),
    "gen_powers": (["gen", "--kind", "powers_of_two", "--count", "62"], ("json", "text", "csv")),
    "gen_chain": (["gen", "--kind", "divisor_chain", "--count", "5", "--ratio", "3"], ("json", "csv")),
    "gen_two_pow_prime": (["gen", "--kind", "two_pow_prime", "--count", "18"], ("json", "text", "csv")),
    "primes": (["primes", "--limit", "547"], ("json", "text")),
    "primes_segments": (["primes", "--limit", "2500000"], ("json", "text")),
}

PARAMS = [(name, fmt) for name, (_, formats) in CASES.items() for fmt in formats]


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{EXT[fmt]}"


def stdout_of(name: str, fmt: str) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one case; run from inside GOLDEN."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CASES[name][0] + ["--format", fmt])
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize(("name", "fmt"), PARAMS, ids=[f"{n}.{f}" for n, f in PARAMS])
def test_stdout_matches_golden_bytes(name, fmt, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = stdout_of(name, fmt)
    assert code == 0
    assert out == golden_path(name, fmt).read_bytes()


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, fmt in PARAMS:
        code, out = stdout_of(name, fmt)
        assert code == 0, (name, fmt, code)
        golden_path(name, fmt).write_bytes(out)
        print(f"wrote {golden_path(name, fmt).name}")
