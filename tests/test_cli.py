import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primeshift
from primeshift import (
    ADMISSIBLE,
    IntegerSet,
    ParseError,
    PrimeShiftError,
    ValidationError,
    check_admissible,
    greedy_prune,
    nth_prime,
)
from primeshift import cli
from primeshift.cli import (
    build_parser,
    dispatch,
    main,
    parse_input_set,
)

from support import nonzero_pairs


def write_set(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def cli_env():
    """The environment for a ``python -m primeshift.cli`` child: it imports the same package."""
    env = dict(os.environ)
    paths = [str(Path(primeshift.__file__).resolve().parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


# Linux carries the spawning process's peak RSS into a child's ru_maxrss
# across exec, so a memory test starts its child from this small process
# rather than from the test runner, and reads the child's own wait4 usage.
_SPAWN_AND_MEASURE = (
    "import os, subprocess, sys; "
    "child = subprocess.Popen(sys.argv[1:]); "
    "_, status, usage = os.wait4(child.pid, 0); "
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)"
)


def run(*argv):
    """(exit_code, report) of the CLI on ``argv``, parsed as ``main`` parses it."""
    return dispatch(build_parser().parse_args([str(arg) for arg in argv]))


class TestParseInputSet:
    def test_basic(self, tmp_path):
        path = write_set(tmp_path, "a.txt", "2\n4\n8\n")
        assert parse_input_set(path).elements.tolist() == [2, 4, 8]

    def test_comments_and_sorting(self, tmp_path):
        path = write_set(tmp_path, "b.txt", "# comment\n5\n\n3\n")
        assert parse_input_set(path).elements.tolist() == [3, 5]

    def test_crlf(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"7\r\n-2\r\n")
        assert parse_input_set(str(path)).elements.tolist() == [-2, 7]

    def test_duplicate_named(self, tmp_path):
        path = write_set(tmp_path, "d.txt", "7\n7\n")
        with pytest.raises(ValidationError, match="7"):
            parse_input_set(path)

    def test_parse_error_has_line_number(self, tmp_path):
        path = write_set(tmp_path, "e.txt", "3\nxyz\n")
        with pytest.raises(ParseError, match=":2"):
            parse_input_set(path)

    def test_empty_rejected(self, tmp_path):
        path = write_set(tmp_path, "f.txt", "# nothing\n\n")
        with pytest.raises(ValidationError):
            parse_input_set(path)

    def test_plain_files_take_the_loadtxt_path(self, tmp_path):
        path = write_set(tmp_path, "g.txt", "# header\n 12\n\n-9223372036854775808\r\n\t+7\n  # note\n")
        assert cli._loadtxt_values(path).tolist() == [12, -(2**63), 7]
        assert parse_input_set(path).elements.tolist() == [-(2**63), 7, 12]

    # np.loadtxt reads these as 5 and as (1, 2); the line parser rejects them.
    @pytest.mark.parametrize("text, line", [("1\n5 # c\n", 2), ("3\n1 2\n", 2)])
    def test_loadtxt_only_forms_stay_parse_errors(self, tmp_path, text, line):
        path = write_set(tmp_path, "h.txt", text)
        with pytest.raises(ParseError, match=f":{line}: not an integer"):
            parse_input_set(path)

    # np.loadtxt rejects these; int() reads them.
    @pytest.mark.parametrize("text, values", [("1_000\n", [1000]), ("\u0663\n", [3])])
    def test_int_only_forms_keep_their_values(self, tmp_path, text, values):
        path = write_set(tmp_path, "i.txt", text)
        assert parse_input_set(path).elements.tolist() == values

    # np.loadtxt rejects it too; the line parser reads it and
    # IntegerSet rejects it.
    def test_past_int64_stays_a_validation_error(self, tmp_path):
        path = write_set(tmp_path, "j.txt", "1\n9223372036854775808\n")
        with pytest.raises(ValidationError, match="9223372036854775808 outside the 64-bit range"):
            parse_input_set(path)


# Half the tokens are digits and newlines, so that many files are plain
# enough for np.loadtxt.
PARSE_TOKENS = st.sampled_from([*"0123456789", "\n"]) | st.sampled_from(
    ["-", "+", " ", "\t", "#", "_", ",", ".", "\r\n", "\r", "\u0663"]
    + [str(v) for v in (2**63 - 1, 2**63, -(2**63), -(2**63) - 1)]
)


def parse_outcome(path):
    try:
        return parse_input_set(path).elements.tolist()
    except PrimeShiftError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(PARSE_TOKENS, max_size=40))
def test_loadtxt_path_matches_the_line_parser(tmp_path_factory, tokens):
    path = tmp_path_factory.getbasetemp() / "differential.txt"
    path.write_bytes("".join(tokens).encode("utf-8"))
    fast = parse_outcome(str(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_loadtxt_values", lambda path: None)
        assert fast == parse_outcome(str(path))


class TestDispatch:
    def test_check_inadmissible_is_success(self, tmp_path):
        path = write_set(tmp_path, "s.txt", "0\n1\n")
        code, report = run("check", path)
        assert code == 0
        payload = json.loads(report)
        assert payload["version"] == 1
        assert payload["subcommand"] == "check"
        assert payload["result"]["verdict"] == "inadmissible"
        assert payload["result"]["covered_prime"] == 2

    def test_check_admissible_witnesses(self, tmp_path):
        path = write_set(tmp_path, "s.txt", "0\n2\n6\n")
        code, report = run("check", path)
        payload = json.loads(report)
        assert code == 0
        assert payload["result"]["missed_residues"] == [[2, 1], [3, 1]]

    def test_prune_roundtrip(self, tmp_path):
        path = write_set(tmp_path, "s.txt", "\n".join(str(v) for v in range(64)))
        code, report = run("prune", path)
        assert code == 0
        payload = json.loads(report)
        result = payload["result"]
        trace = greedy_prune(IntegerSet(tuple(range(64))))
        assert result["s"] == trace.s
        assert result["final_set"] == list(trace.final_set.elements)
        assert result["stop_prime"] == trace.stop_prime
        # re-validate the stopping rule from the serialized steps alone
        for step in result["steps"]:
            if step["index"] < result["s"]:
                assert step["survivors_actual"] >= nth_prime(step["index"] + 1)
        assert result["steps"][-1]["survivors_actual"] < result["stop_prime"]
        final = IntegerSet(tuple(result["final_set"]))
        assert check_admissible(final).verdict == ADMISSIBLE

    def test_guarantee_exit_zero_when_satisfied(self, tmp_path):
        path = write_set(tmp_path, "s.txt", "\n".join(str(v) for v in range(1, 101)))
        code, report = run("guarantee", path)
        assert code == 0
        payload = json.loads(report)
        assert payload["result"]["satisfied"] is True
        assert payload["result"]["m"] >= 1

    def test_bound_both_values(self):
        code, report = run("bound", "--ell", 200000, "--x", 10**6)
        assert code == 0
        payload = json.loads(report)
        assert abs(payload["result"]["theorem1"]["value"] - (-0.07424091930872834)) < 1e-12
        assert abs(payload["result"]["corollary"]["value"] - (-1.2717760106904987)) < 1e-12

    def test_bound_requires_an_argument(self):
        code, report = run("bound")
        assert code == 2
        assert "error" in report

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_bound_rejects_non_finite_x(self, x, capsys):
        assert main(["bound", f"--x={x}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_verify_lemmas(self):
        code, report = run("verify-lemmas", "--mertens-limit", 10**4)
        assert code == 0
        payload = json.loads(report)
        assert payload["result"]["all_passed"] is True
        assert len(payload["result"]["reports"]) == 4

    def test_repsearch_json_and_csv(self, tmp_path):
        path = write_set(tmp_path, "s.txt", "0\n2\n6\n")
        code, report = run("repsearch", path, "--from", 2, "--to", 40, "--top", 3)
        assert code == 0
        payload = json.loads(report)
        assert payload["result"]["records"][0] == [13, 3]
        code, blocks = run("repsearch", path, "--from", 2, "--to", 40, "--top", 3, "--format", "csv")
        assert code == 0
        rows = "\n".join(blocks)
        parsed = [tuple(map(int, row.split(","))) for row in rows.splitlines()]
        assert (13, 3) in parsed
        assert all(c >= 1 for _, c in parsed)

    def test_romanoff(self):
        code, report = run("romanoff", "--limit", 9, "--k-min", 1)
        payload = json.loads(report)
        assert code == 0
        assert payload["result"]["representable_count"] == 3
        assert payload["result"]["odd_count"] == 4
        assert payload["result"]["density"] == 0.75

    def test_gen_large_ints_become_strings(self):
        code, report = run("gen", "--kind", "powers_of_two", "--count", 62, "--ratio", 2)
        assert code == 0
        payload = json.loads(report)
        elements = payload["result"]["elements"]
        assert elements[0] == 2
        assert elements[-1] == str(2**62)

    def test_gen_out_file_roundtrips(self, tmp_path):
        out = tmp_path / "gen.txt"
        code, _ = run("gen", "--kind", "divisor_chain", "--count", 5, "--ratio", 3, "--out", out)
        assert code == 0
        assert parse_input_set(str(out)).elements.tolist() == [3, 9, 27, 81, 243]

    def test_primes_stats(self):
        code, report = run("primes", "--limit", 547)
        payload = json.loads(report)
        assert code == 0
        assert payload["result"]["count"] == 101
        assert payload["result"]["largest"] == 547

    def test_usage_errors_exit_two(self, tmp_path):
        path = write_set(tmp_path, "s.txt", "1\n2\n")
        assert run("check", tmp_path / "missing.txt")[0] == 2
        assert run("romanoff", "--limit", 2, "--k-min", 1)[0] == 2
        bad = write_set(tmp_path, "bad.txt", "1\nnope\n")
        assert run("check", bad)[0] == 2
        # The argument parser rejects these before any runner starts.
        usage = (
            ["check", path, "--format", "yaml"],
            ["check", path, "--format", "csv"],
            ["frobnicate", path],
        )
        for argv in usage:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_deterministic_output(self, tmp_path):
        path = write_set(tmp_path, "s.txt", "0\n4\n6\n")
        first = run("repsearch", path, "--from", 2, "--to", 200, "--top", 4)
        second = run("repsearch", path, "--from", 2, "--to", 200, "--top", 4)
        assert first == second

    def test_failed_verification_exits_one(self, monkeypatch):
        from primeshift import LemmaReport
        from primeshift import cli as cli_mod

        broken = LemmaReport("mertens_product_bound", "[74, 74]", -0.5, False)
        monkeypatch.setattr(cli_mod, "verify_mertens", lambda limit: broken)
        code, report = run("verify-lemmas", "--mertens-limit", 74)
        assert code == 1
        assert json.loads(report)["result"]["all_passed"] is False

    def test_unsatisfied_guarantee_exits_one(self, tmp_path, monkeypatch):
        from primeshift import GuaranteeReport
        from primeshift import cli as cli_mod

        fake = GuaranteeReport(10, 4, 2, 3, 1, 2.5, False)
        monkeypatch.setattr(cli_mod, "guarantee", lambda s: fake)
        path = write_set(tmp_path, "s.txt", "1\n2\n3\n")
        code, report = run("guarantee", path)
        assert code == 1
        assert json.loads(report)["result"]["satisfied"] is False


# The smallest valid argv of every subcommand, in the parser's order.
MINIMAL_ARGV = {
    "check": ["check", "s.txt"],
    "prune": ["prune", "s.txt"],
    "guarantee": ["guarantee", "s.txt"],
    "bound": ["bound", "--x", "20"],
    "verify-lemmas": ["verify-lemmas"],
    "repsearch": ["repsearch", "s.txt", "--from", "2", "--to", "40"],
    "romanoff": ["romanoff", "--limit", "100"],
    "gen": ["gen", "--kind", "powers_of_two", "--count", "3"],
    "primes": ["primes", "--limit", "100"],
}


class TestMain:
    def test_csv_format_only_on_repsearch_and_gen(self, capsys):
        assert "{" + ",".join(MINIMAL_ARGV) + "}" in build_parser().format_usage()
        for name, argv in MINIMAL_ARGV.items():
            if name in ("repsearch", "gen"):
                assert build_parser().parse_args(argv + ["--format", "csv"]).format == "csv"
                continue
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv + ["--format", "csv"])
            assert exc.value.code == 2
            assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_top_above_the_cap_exits_two_at_once(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.txt", "0\n2\n6\n")
        refusals = [("10001", "top_k 10001 exceeds 10000"), ("0", "top_k must be >= 1, got 0")]
        for fmt in ("json", "csv"):
            for top, message in refusals:
                argv = ["repsearch", path, "--from", "0", "--to", "999999", "--top", top]
                t0 = time.perf_counter()
                assert main(argv + ["--format", fmt]) == 2
                assert time.perf_counter() - t0 < 1.0
                assert message in capsys.readouterr().err, (fmt, top)

    def test_main_check(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.txt", "0\n2\n")
        assert main(["check", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["verdict"] == "admissible"

    def test_main_reports_usage_errors_on_stderr(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "none.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    def test_non_utf8_set_exits_two_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1\n\xff\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text")

    def test_import_leaves_out_mpmath(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, primeshift.cli; print('mpmath' in sys.modules)"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "False\n"

    def test_module_invocation(self, tmp_path):
        path = write_set(tmp_path, "s.txt", "0\n2\n6\n")
        proc = subprocess.run(
            [sys.executable, "-m", "primeshift.cli", "check", path, "--format", "text"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert "admissible" in proc.stdout

    def test_closed_stdout_pipe_exits_141_quietly(self, tmp_path):
        # About 3 * 10^6 csv rows: far more than a pipe holds, so the CLI is
        # still writing when the reader closes its end after one line.
        path = write_set(tmp_path, "s.txt", "\n".join(str(1 << i) for i in range(1, 21)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "primeshift.cli", "repsearch", path]
            + ["--from", "3", "--to", "3000000", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        assert proc.stdout.readline().count(b",") == 1
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert stderr == b""

    def test_primes_at_the_window_ceiling(self):
        ceiling = primeshift.primes.WINDOW_VALUE_MAX
        proc = subprocess.run(
            [sys.executable, "-m", "primeshift.cli", "primes", "--limit", str(ceiling)],
            capture_output=True,
            text=True,
            env=cli_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["count"] == 37_607_912_018 == primeshift.primes._PRIME_COUNT_MAX
        assert result["largest"] == 999_999_999_989
        assert run("primes", "--limit", ceiling + 1)[0] == 2

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
    def test_primes_memory_follows_the_segment(self):
        # 5761455 primes to 10^8 would be 46 MB as int64 alone; the count reads
        # the primes to 10^4 alone, and the largest prime one window ending at 10^8.
        proc = subprocess.run(
            [sys.executable, "-c", _SPAWN_AND_MEASURE, sys.executable, "-m", "primeshift.cli"]
            + ["primes", "--limit", str(10**8)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        code, max_rss_kb = map(int, proc.stderr.split())
        assert code == 0
        result = json.loads(proc.stdout)["result"]
        assert (result["count"], result["largest"]) == (5761455, 99999989)
        assert max_rss_kb < 100 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
    def test_repsearch_csv_memory_follows_the_block(self, tmp_path):
        # About 4.6 * 10^6 rows, 45 MB of text: the rows are written in
        # blocks of 2^16 n, never one chunk's 4 * 10^6 row strings at once.
        path = write_set(tmp_path, "s.txt", "\n".join(str(1 << i) for i in range(1, 41)))
        out = tmp_path / "rows.csv"
        with open(out, "wb") as fh:
            proc = subprocess.run(
                [sys.executable, "-c", _SPAWN_AND_MEASURE, sys.executable, "-m", "primeshift.cli"]
                + ["repsearch", path, "--from", "503", "--to", str(503 + 10**7 - 1), "--format", "csv"],
                stdout=fh,
                stderr=subprocess.PIPE,
                text=True,
                env=cli_env(),
            )
        code, max_rss_kb = map(int, proc.stderr.split())
        assert code == 0
        int_set = parse_input_set(path)
        # The rows of the first two blocks, then the number of all rows.
        head = nonzero_pairs(primeshift.rep_counts(int_set, 503, 503 + 2 * 2**16 - 1))
        with open(out, encoding="utf-8") as fh:
            rows = [tuple(map(int, line.split(","))) for line in itertools.islice(fh, len(head))]
            assert rows == head
            assert len(rows) + sum(1 for _ in fh) == primeshift.rep_search(
                int_set, 503, 503 + 10**7 - 1, 1
            ).represented_count
        assert max_rss_kb < 150 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
    def test_mertens_memory_follows_the_segment(self):
        # The Mertens check reads the primes to 10^8 one segment at a time.
        proc = subprocess.run(
            [sys.executable, "-c", _SPAWN_AND_MEASURE, sys.executable, "-m", "primeshift.cli"]
            + ["verify-lemmas", "--mertens-limit", str(10**8)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        code, max_rss_kb = map(int, proc.stderr.split())
        assert code == 0
        mertens = json.loads(proc.stdout)["result"]["reports"][0]
        assert mertens["passed"] and mertens["margin"] == 0.005878639183609202
        assert max_rss_kb < 100 * 1024
